"""Shared fixtures for the urlsleuth test suite."""

from __future__ import annotations

import csv
import hashlib
import json
import os
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from urlsleuth.corpus import Dataset, UrlRecord
from urlsleuth.models.base import array_record, state_array
from urlsleuth.synth import generate_dataset

RECORD_KEYS = {"b64", "dtype", "shape"}


def write_csv(path: str | os.PathLike[str], rows: Sequence[tuple[str, str]]) -> str:
    """Write a url,label CSV (header included) and return its path."""
    path = os.fspath(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["url", "label"])
        writer.writerows(rows)
    return path


def read_artifact(path) -> tuple[dict, dict]:
    """A saved artifact's model-file payload and the chain payload it names."""
    path = Path(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    chain_path = path.parent / "chains" / f"{payload['chain']}.json"
    return payload, json.loads(chain_path.read_text(encoding="utf-8"))


def write_artifact(payload: dict, chain: dict, path) -> None:
    """Write ``chain`` (as ``json.dumps``, so NaN and Infinity too) under the
    SHA-256 of its bytes in ``chains/`` beside ``path``, then ``payload`` at
    ``path`` naming that digest: an edited artifact that passes the hash
    check, so loading reaches the check an edit is aimed at."""
    path = Path(path)
    data = json.dumps(chain).encode("utf-8")
    digest = hashlib.sha256(data).hexdigest()
    (path.parent / "chains").mkdir(parents=True, exist_ok=True)
    (path.parent / "chains" / f"{digest}.json").write_bytes(data)
    path.write_text(json.dumps({**payload, "chain": digest}), encoding="utf-8")


def records_to_lists(obj):
    """``obj`` with every array record in it replaced by the nested list it
    holds (decoded by ``state_array``): the decimal form of format 4."""
    if isinstance(obj, dict):
        if obj.keys() == RECORD_KEYS:
            dtype = np.dtype(obj["dtype"])
            return state_array({"a": obj}, "a", (None,) * len(obj["shape"]), dtype).tolist()
        return {key: records_to_lists(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [records_to_lists(value) for value in obj]
    return obj


def lists_to_records(obj):
    """The inverse of ``records_to_lists``: every list of numbers, nested to
    any depth, becomes an ``array_record``.  Its dtype follows the values,
    so a list holding a fraction becomes a ``"<f8"`` record even where the
    field is an integer one, and integers become ``"<i8"`` records.  A
    record already in ``obj`` (one an edit put there) is kept as it is."""
    if isinstance(obj, dict) and obj.keys() == RECORD_KEYS:
        return obj
    if isinstance(obj, dict):
        return {key: lists_to_records(value) for key, value in obj.items()}
    if isinstance(obj, list) and obj and isinstance(obj[0], dict):
        return [lists_to_records(value) for value in obj]
    if isinstance(obj, list):
        return array_record(np.array(obj))
    return obj


def _reencode(plain, original):
    """``lists_to_records(plain)``, except that each record of ``original``
    whose list ``plain`` holds unchanged is kept as it was, dtype and all."""
    if isinstance(original, dict) and original.keys() == RECORD_KEYS:
        return original if plain == records_to_lists(original) else lists_to_records(plain)
    if isinstance(plain, dict) and isinstance(original, dict):
        return {key: _reencode(value, original.get(key)) for key, value in plain.items()}
    if isinstance(plain, list) and isinstance(original, list) and len(plain) == len(original):
        return [_reencode(p, o) for p, o in zip(plain, original)]
    return lists_to_records(plain)


def edit_arrays(section: dict, edit) -> None:
    """Apply ``edit``, written against the list form, to the saved arrays
    of ``section`` in place: decode every record, edit, re-encode the
    records the edit changed."""
    plain = records_to_lists(section)
    edit(plain)
    edited = _reencode(plain, section)
    section.clear()
    section.update(edited)


def columns_matrix(plain: dict) -> np.ndarray:
    """The matrix a ``columns_record`` holds, from the list form that
    ``edit_arrays`` hands an edit."""
    values, offsets, codes = (np.array(plain[k]) for k in ("values", "offsets", "codes"))
    return values[offsets[:-1] + codes]


def make_dataset(rows: Sequence[tuple[str, int]], id: str = "d0") -> Dataset:
    records = tuple(UrlRecord(url=u, label=y, source_id=id) for u, y in rows)
    return Dataset(id=id, name=id, records=records)


@pytest.fixture(scope="session")
def blob_data() -> tuple[np.ndarray, np.ndarray]:
    """Two well-separated Gaussian blobs: an easy supervised problem."""
    rng = np.random.default_rng(7)
    n = 60
    x0 = rng.normal(loc=-2.0, scale=0.4, size=(n, 4))
    x1 = rng.normal(loc=2.0, scale=0.4, size=(n, 4))
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    order = rng.permutation(2 * n)
    return x[order], y[order]


@pytest.fixture(scope="session")
def noisy_data() -> tuple[np.ndarray, np.ndarray]:
    """A harder overlapping problem for loss-descent and gradient checks."""
    rng = np.random.default_rng(11)
    n = 50
    x = rng.normal(size=(n, 5))
    logits = x @ np.array([1.5, -2.0, 0.5, 0.0, 1.0]) + 0.3
    y = (logits + rng.normal(scale=1.5, size=n) > 0).astype(np.int64)
    if y.min() == y.max():  # pragma: no cover - seed chosen to avoid this
        y[0] = 1 - y[0]
    return x, y


@pytest.fixture(scope="session")
def url_corpus() -> tuple[list[str], np.ndarray]:
    """A small labeled synthetic URL corpus for end-to-end pipeline tests."""
    ds = generate_dataset("fix", n_records=240, malicious_fraction=0.5, seed=41)
    urls = [r.url for r in ds.records]
    labels = np.array([r.label for r in ds.records], dtype=np.int64)
    return urls, labels
