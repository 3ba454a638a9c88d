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


def check_real(
    name: str, value, low: float, strict: bool = False, high: float = math.inf,
    allow_none: bool = False,
) -> float | None:
    """``value`` as a finite float >= ``low`` (> ``low`` if ``strict``) and
    <= ``high`` (``None`` too where allowed); an int is taken, a bool, a
    string, NaN or an infinity raises ``ModelError``."""
    if value is None and allow_none:
        return None
    real = _finite(value)
    if not math.isfinite(real) or real < low or (strict and real == low) or real > high:
        allowed = "None or " if allow_none else ""
        bound = f"> {low}" if strict else f">= {low}"
        upper = f" and <= {high}" if high < math.inf else ""
        raise ModelError(f"{name} must be {allowed}a finite number {bound}{upper}, got {value!r}")
    return real


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))  # never overflows; exp(-z) for z >= 0, exp(z) below
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def variance_floor(X: np.ndarray) -> float:
    """Smallest variance a Gaussian may take: 1e-9 times the mean column
    variance of the training matrix, or 1e-12 when that mean is zero."""
    mean_var = float(X.var(axis=0).mean())
    return 1e-9 * mean_var if mean_var > 0 else 1e-12


# The saved form of every array: its little-endian bytes in base64, its
# dtype code and its shape.  Base64 of the raw bytes round-trips every
# float64 bit pattern (-0.0 and subnormals included), where decimal text
# needs up to 17 significant digits and a parse per value.  A float is
# saved as "<f8"; an integer array in the narrowest type of the unsigned
# ladder (its minimum is 0 or more) or the signed one that holds its
# values, so each array has exactly one saved form.
_RECORD_KEYS = frozenset({"b64", "dtype", "shape"})
_LADDERS = (("|u1", "<u2", "<u4", "<u8"), ("|i1", "<i2", "<i4", "<i8"))


def _bounds(arr: np.ndarray) -> tuple[int, int]:
    """The smallest and largest value of the integer array ``arr`` as
    Python ints, ``(0, 0)`` when it is empty."""
    return (int(arr.min()), int(arr.max())) if arr.size else (0, 0)


def _int_code(lo: int, hi: int) -> str:
    """The code of the narrowest saved type that holds ``[lo, hi]``."""
    return next(c for c in _LADDERS[lo < 0] if np.iinfo(c).min <= lo and hi <= np.iinfo(c).max)


def array_record(arr: np.ndarray) -> dict:
    """The saved form of ``arr``: an integer array in the narrowest type
    that holds its values, anything else as float64, little-endian
    whatever the host."""
    code = _int_code(*_bounds(arr)) if arr.dtype.kind in "iu" else "<f8"
    data = np.ascontiguousarray(arr, dtype=code).tobytes()
    return {"b64": base64.b64encode(data).decode("ascii"), "dtype": code, "shape": list(arr.shape)}


def state_array(state: dict, key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """``state[key]``, an ``array_record``, as an owned native-endian array
    of ``dtype`` and ``shape`` (a ``None`` dimension matches any size).
    The record must carry the code ``array_record`` gives its values
    (``"<f8"`` for a float ``dtype``), a shape that matches, valid base64
    of exactly that many values and only values ``dtype`` holds, finite
    ones for floats; anything else raises ``ArtifactError``."""
    return _saved_array(state, key, shape, dtype).astype(dtype)  # a writable copy


def state_within(
    state: dict, key: str, shape: tuple, low: float, strict: bool = False,
    high: float = math.inf,
) -> np.ndarray:
    """``state_array(state, key, shape)`` if each value lies in the range a
    fit gives it: >= ``low`` (> ``low`` if ``strict``) and <= ``high``.  A
    value outside raises ``ArtifactError``, as a state no fit writes could
    score outside [0, 1] or as NaN."""
    values = state_array(state, key, shape)
    outside = ((values <= low) if strict else (values < low)) | (values > high)
    if outside.any():
        bound = f"> {low}" if strict else f">= {low}"
        upper = f" and <= {high}" if high < math.inf else ""
        raise ArtifactError(
            f"saved array {key!r} must hold values {bound}{upper}, got {values[outside][0]}"
        )
    return values


def _saved_array(state: dict, key: str, shape: tuple, dtype) -> np.ndarray:
    """``state_array`` before its conversion: the checked values as a
    read-only array in the type they were saved in."""
    record = state[key]
    if not isinstance(record, dict) or record.keys() != _RECORD_KEYS:
        raise ArtifactError(f"saved array {key!r} must be an object with keys b64, dtype, shape")
    is_int = np.dtype(dtype).kind in "iu"
    code = record["dtype"]
    if code not in (_LADDERS[0] + _LADDERS[1] if is_int else ("<f8",)):
        expected = "an integer code" if is_int else "'<f8'"
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
    saved = np.frombuffer(data, dtype=code).reshape(got)
    if is_int:
        lo, hi = _bounds(saved)
        canonical = _int_code(lo, hi)
        if code != canonical:
            raise ArtifactError(
                f"saved array {key!r} has dtype {code!r}, but its values are saved as {canonical!r}"
            )
        info = np.iinfo(dtype)
        if lo < info.min or hi > info.max:
            raise ArtifactError(
                f"saved array {key!r} holds values outside {info.dtype} ([{lo}, {hi}])"
            )
    elif not np.all(np.isfinite(saved)):
        raise ArtifactError(f"saved array {key!r} contains NaN or infinite values")
    return saved


# The saved form of a float matrix whose columns repeat few values: each
# column's distinct values, taken by bit pattern so -0.0 and 0.0 stay
# apart, and one code per cell indexing its column's values, saved column
# by column so that each column's codes take the width its own values need.
_COLUMNS_KEYS = frozenset({"values", "offsets", "codes"})


def columns_record(X: np.ndarray) -> dict:
    """The saved form of the 2-D float64 matrix ``X``: ``values``, every
    column's distinct values in rising uint64 order, column after column;
    ``offsets``, where each column's values start (``d + 1`` entries); and
    ``codes``, one ``array_record`` per column of its cells' indices into
    its column's values."""
    bits = np.ascontiguousarray(X, dtype=np.float64).view(np.uint64)
    columns, codes = [], []
    for j in range(bits.shape[1]):
        distinct, code = np.unique(bits[:, j], return_inverse=True)
        columns.append(distinct)
        codes.append(array_record(code))
    values = np.concatenate(columns + [np.empty(0, np.uint64)])
    counts = [len(distinct) for distinct in columns]
    return {
        "values": array_record(values.view(np.float64)),
        "offsets": array_record(np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))),
        "codes": codes,
    }


def state_columns(state: dict, key: str, n_features: int) -> np.ndarray:
    """``state[key]``, a ``columns_record``, as an owned C-ordered float64
    matrix of ``n_features`` columns.  Besides each record's own checks
    (``state_array``; a column's codes must carry the code its own values
    are saved as), ``offsets`` must start at 0, never fall and end at the
    number of values, each column's values must rise strictly as uint64,
    ``codes`` must be a list of ``n_features`` records of one length and
    every code must index its own column's values (so a column of a
    matrix with rows holds a value or more); anything else raises
    ``ArtifactError`` naming ``key``.  The matrix is filled one column at
    a time, each column decoded in the width it was saved in, so beside
    the matrix only one column's codes and temporaries are alive."""
    record = state[key]
    if not isinstance(record, dict) or record.keys() != _COLUMNS_KEYS:
        raise ArtifactError(
            f"saved columns {key!r} must be an object with keys codes, offsets, values"
        )
    parts = {f"{key}.{name}": part for name, part in record.items()}
    values = state_array(parts, f"{key}.values", (None,))
    offsets = state_array(parts, f"{key}.offsets", (n_features + 1,), dtype=np.int64)
    counts = np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != len(values) or np.any(counts < 0):
        raise ArtifactError(
            f"saved columns {key!r}: offsets must rise from 0 to the {len(values)} values"
        )
    bits = values.view(np.uint64)
    starts = np.zeros(len(values), dtype=bool)
    starts[offsets[:-1][counts > 0]] = True
    if not np.all((bits[1:] > bits[:-1]) | starts[1:]):
        raise ArtifactError(f"saved columns {key!r}: a column's values do not rise strictly")
    codes = record["codes"]
    if not isinstance(codes, list) or len(codes) != n_features:
        raise ArtifactError(
            f"saved columns {key!r}: codes must be a list of {n_features} column records"
        )
    X = np.empty((0, n_features))
    for j, (column, lo, hi) in enumerate(zip(codes, offsets[:-1], offsets[1:])):
        name = f"{key}.codes[{j}]"
        code = _saved_array({name: column}, name, (len(X) if j else None,), dtype=np.int64)
        if np.any((code < 0) | (code >= hi - lo)):
            raise ArtifactError(f"saved array {name!r} holds a code outside its column's values")
        if not j:
            X = np.empty((len(code), n_features))
        X[:, j] = values[lo:hi][code]
    return X


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
