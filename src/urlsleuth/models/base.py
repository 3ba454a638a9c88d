"""Shared contract for the eleven classifier families.

Every family exposes the same surface: ``fit(X, y)``, ``score_batch(X)``
(a malicious-confidence in [0, 1] per row), and ``predict_batch(X)``
(label 1 iff score >= 0.5).  Fitting is deterministic given the
hyperparameters, the seed, and the data.
"""

from __future__ import annotations

import abc
import base64
import contextlib
import math
import numbers

import numpy as np

from ..errors import ArtifactError, ModelError


def check_int(name: str, value, low: int, allow_none: bool = False) -> int | None:
    """``value`` as an int >= ``low`` (``None`` too where allowed); a bool,
    a float or anything else raises ``ModelError``."""
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        allowed = "None or " if allow_none else ""
        raise ModelError(f"{name} must be {allowed}an integer >= {low}, got {value!r}")
    return int(value)


def _finite(value) -> float:
    """``value`` as a float if it is a finite real number (an int beyond
    the float range is not), else NaN; a bool is not a number here."""
    real = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            real = float(value)
    return real if math.isfinite(real) else math.nan


def check_real(name: str, value, low: float, strict: bool = False) -> float:
    """``value`` as a finite float >= ``low`` (> ``low`` if ``strict``); an
    int is taken, a bool, a string, NaN or an infinity raises ``ModelError``."""
    real = _finite(value)
    if not math.isfinite(real) or real < low or (strict and real == low):
        bound = f"> {low}" if strict else f">= {low}"
        raise ModelError(f"{name} must be a finite number {bound}, got {value!r}")
    return real


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def variance_floor(X: np.ndarray) -> float:
    """Smallest variance a Gaussian may take: 1e-9 times the mean column
    variance of the training matrix, or 1e-12 when that mean is zero."""
    mean_var = float(X.var(axis=0).mean())
    return 1e-9 * mean_var if mean_var > 0 else 1e-12


# The saved form of every array: its little-endian bytes in base64, its
# dtype code and its shape.  Base64 of the raw bytes round-trips every
# float64 bit pattern (-0.0 and subnormals included), where decimal text
# needs up to 17 significant digits and a parse per value.
_RECORD_KEYS = frozenset({"b64", "dtype", "shape"})


def _dtype_code(dtype) -> str:
    """``"<f8"``, ``"<i8"`` or, for an unsigned type, its own little-endian
    code (``"|u1"``, ``"<u2"``, ``"<u4"``, ``"<u8"``)."""
    dtype = np.dtype(dtype)
    if dtype.kind == "u":
        return dtype.newbyteorder("<").str
    return "<i8" if dtype.kind == "i" else "<f8"


def array_record(arr: np.ndarray) -> dict:
    """The saved form of ``arr``: signed integer arrays as int64, unsigned
    ones at their own width, everything else as float64, little-endian
    whatever the host."""
    code = _dtype_code(arr.dtype)
    data = np.ascontiguousarray(arr, dtype=code).tobytes()
    return {"b64": base64.b64encode(data).decode("ascii"), "dtype": code, "shape": list(arr.shape)}


def state_array(state: dict, key: str, shape: tuple, dtype=np.float64, codes=None) -> np.ndarray:
    """``state[key]``, an ``array_record``, as an owned native-endian array
    of ``dtype`` and ``shape`` (a ``None`` dimension matches any size).
    The record must carry ``dtype``'s code (or one of ``codes``), a shape
    that matches, valid base64 of exactly that many values and, for
    floats, only finite values; anything else raises ``ArtifactError``."""
    record = state[key]
    if not isinstance(record, dict) or record.keys() != _RECORD_KEYS:
        raise ArtifactError(f"saved array {key!r} must be an object with keys b64, dtype, shape")
    codes = (_dtype_code(dtype),) if codes is None else codes
    code = record["dtype"]
    if code not in codes:
        expected = " or ".join(map(repr, codes))
        raise ArtifactError(f"saved array {key!r} has dtype {code!r}, expected {expected}")
    got = record["shape"]
    if (
        not isinstance(got, list)
        or len(got) != len(shape)
        or any(isinstance(n, bool) or not isinstance(n, int) or n < 0 for n in got)
        or any(w not in (None, n) for n, w in zip(got, shape))
    ):
        expected = ", ".join("n" if w is None else str(w) for w in shape)
        raise ArtifactError(f"saved array {key!r} has shape {got!r}, expected [{expected}]")
    try:
        data = base64.b64decode(record["b64"], validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ArtifactError(f"saved array {key!r} is not valid base64: {exc}") from exc
    size = np.dtype(code).itemsize * math.prod(got)
    if len(data) != size:
        raise ArtifactError(
            f"saved array {key!r} holds {len(data)} bytes, expected {size} for shape {got}"
        )
    arr = np.frombuffer(data, dtype=code).reshape(got).astype(dtype)  # a writable copy
    if code == "<f8" and not np.all(np.isfinite(arr)):
        raise ArtifactError(f"saved array {key!r} contains NaN or infinite values")
    return arr


def state_scalar(state: dict, key: str) -> float:
    """``state[key]`` as a float; anything but a finite number (a bool, a
    string, NaN, an infinity) raises ``ArtifactError``."""
    real = _finite(state[key])
    if not math.isfinite(real):
        raise ArtifactError(f"saved scalar {key!r} must be a finite number, got {state[key]!r}")
    return real


def check_features(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ModelError(f"feature matrix must be 2-dimensional, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ModelError("feature matrix contains non-finite entries")
    return X


def check_labels(y, n_rows: int) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1 or len(y) != n_rows:
        raise ModelError(f"labels must be a vector of length {n_rows}")
    if not np.isin(y, (0, 1)).all():
        raise ModelError("labels must be 0 or 1")
    return y.astype(np.int64)


class BinaryClassifier(abc.ABC):
    """Base class: uniform fit/score/predict with a 0.5 threshold."""

    family: str = ""
    requires_both_classes: bool = True

    def __init__(self) -> None:
        self._fitted = False
        self.n_features_: int | None = None

    def fit(self, X, y) -> "BinaryClassifier":
        X = check_features(X)
        y = check_labels(y, len(X))
        if len(X) < 2:
            raise ModelError("fit requires at least 2 rows")
        if self.requires_both_classes and len(np.unique(y)) < 2:
            raise ModelError(f"{self.family} requires both classes in the training labels")
        self.n_features_ = X.shape[1]
        self._fit(X, y)
        self._fitted = True
        return self

    def score_batch(self, X) -> np.ndarray:
        """Malicious confidence in [0, 1], one value per row."""
        X = check_features(X)
        if not self._fitted:
            raise ModelError(f"{self.family} model is not fitted")
        if X.shape[1] != self.n_features_:
            raise ModelError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        return self._score(X)

    def predict_batch(self, X) -> np.ndarray:
        return (self.score_batch(X) >= 0.5).astype(np.int64)

    @abc.abstractmethod
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None: ...

    @abc.abstractmethod
    def _score(self, X: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def state_to_dict(self) -> dict: ...

    @abc.abstractmethod
    def state_from_dict(self, state: dict) -> None: ...

    def _restore(self, n_features: int, state: dict) -> None:
        """Rehydrate a fitted model; ``state_from_dict`` checks shapes against ``n_features_``."""
        self.n_features_ = n_features
        self.state_from_dict(state)
        self._fitted = True


class AlwaysMaliciousBaseline(BinaryClassifier):
    """The reference model every real family must beat: label 1 for all."""

    family = "BASELINE"
    requires_both_classes = False

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        pass

    def _score(self, X: np.ndarray) -> np.ndarray:
        return np.ones(len(X), dtype=np.float64)

    def state_to_dict(self) -> dict:
        return {}

    def state_from_dict(self, state: dict) -> None:
        pass
