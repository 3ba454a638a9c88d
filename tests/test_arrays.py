"""The saved form of every model and chain array: ``array_record`` encodes,
``state_array`` is the one decoder, and no saved state holds decimals."""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from urlsleuth.errors import ArtifactError
from urlsleuth.fileio import json_text
from urlsleuth.models import FAMILIES, ModelSpec, fit_model
from urlsleuth.models.base import array_record, state_array
from urlsleuth.pipeline import fit_chain

from conftest import RECORD_KEYS

_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5)
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals included
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     np.finfo(np.float64).max, -np.finfo(np.float64).max]),
)
_INT64 = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)


def saved(arr: np.ndarray) -> dict:
    """``arr`` as it reads back from an artifact file."""
    return json.loads(json_text({"a": array_record(arr)}))


class TestRoundTrip:
    @given(hnp.arrays(np.float64, _SHAPES, elements=_FLOATS))
    @settings(max_examples=300, deadline=None)
    def test_floats_bit_identical(self, arr):
        got = state_array(saved(arr), "a", (None,) * arr.ndim)
        assert got.dtype == np.float64 and got.shape == arr.shape
        assert np.array_equal(got.view(np.uint64), arr.view(np.uint64))

    @given(hnp.arrays(np.int64, _SHAPES, elements=_INT64))
    @settings(max_examples=200, deadline=None)
    def test_int64_exact(self, arr):
        got = state_array(saved(arr), "a", (None,) * arr.ndim, dtype=np.int64)
        assert got.dtype == np.int64 and got.shape == arr.shape
        assert np.array_equal(got, arr)

    def test_extremes(self):
        ints = np.array([np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max])
        assert np.array_equal(state_array(saved(ints), "a", (4,), dtype=np.int64), ints)
        floats = np.array([-0.0, 5e-324, -np.finfo(np.float64).max, np.finfo(np.float64).max])
        got = state_array(saved(floats), "a", (4,))
        assert np.array_equal(got.view(np.uint64), floats.view(np.uint64))

    def test_bytes_are_little_endian_whatever_the_input_order(self):
        arr = np.array([1.5, -2.0], dtype=">f8")
        record = array_record(arr)
        assert record == {"b64": base64.b64encode(np.array([1.5, -2.0], "<f8").tobytes()).decode(),
                          "dtype": "<f8", "shape": [2]}
        assert array_record(np.array([[3, -4]], dtype=">i4"))["dtype"] == "<i8"

    def test_decoded_array_is_owned_writable_native(self):
        got = state_array(saved(np.arange(6.0).reshape(2, 3)), "a", (2, None))
        assert got.flags.owndata and got.flags.writeable
        assert got.dtype.isnative
        got[0, 0] = 7.0  # a read-only view of the decoded bytes would raise

    def test_zero_rows(self):
        got = state_array(saved(np.empty((0, 40))), "a", (None, 40))
        assert got.shape == (0, 40)


def _good() -> dict:
    return array_record(np.array([[1.0, 2.0], [3.0, 4.0]]))


def _with(**changes) -> dict:
    return {**_good(), **changes}


def _b64(values, dtype="<f8") -> str:
    return base64.b64encode(np.array(values, dtype=dtype).tobytes()).decode("ascii")


class TestRejected:
    """Every malformed record raises ``ArtifactError`` naming its key."""

    @pytest.mark.parametrize(
        "record, dtype",
        [
            ([[1.0, 2.0], [3.0, 4.0]], np.float64),  # the decimal list of format 4
            ("AAAA", np.float64),
            (None, np.float64),
            ({"b64": _good()["b64"], "shape": [2, 2]}, np.float64),
            ({**_good(), "order": "C"}, np.float64),
            (_with(dtype=">f8"), np.float64),
            (_with(dtype="<f4"), np.float64),
            (_with(dtype="<i8"), np.float64),
            (_with(dtype="<f8"), np.int64),
            (_with(dtype=None), np.float64),
            (_with(shape=(2, 2)), np.float64),
            (_with(shape="2,2"), np.float64),
            (_with(shape=[2.0, 2]), np.float64),
            (_with(shape=[2, True], b64=_b64([1.0, 2.0])), np.float64),
            (_with(shape=[-2, -2]), np.float64),
            (_with(shape=[4]), np.float64),
            (_with(shape=[2, 2, 1]), np.float64),
            (_with(shape=[1, 4]), np.float64),
            (array_record(np.arange(4).reshape(4, 1)), np.int64),
            (_with(b64="!!!!" + _good()["b64"][4:]), np.float64),
            (_with(b64=_good()["b64"][:-1]), np.float64),
            (_with(b64=_good()["b64"][:8] + "\n" + _good()["b64"][8:]), np.float64),
            (_with(b64="é" * 44), np.float64),
            (_with(b64=12), np.float64),
            (_with(b64=_b64([1.0, 2.0, 3.0])), np.float64),
            (_with(b64=_b64([1.0, 2.0, 3.0, 4.0, 5.0])), np.float64),
            (_with(b64=_b64([1.0, np.nan, 3.0, 4.0])), np.float64),
            (_with(b64=_b64([1.0, 2.0, np.inf, 4.0])), np.float64),
            (_with(b64=_b64([-np.inf, 2.0, 3.0, 4.0])), np.float64),
        ],
        ids=[
            "list", "str", "null", "missing-dtype", "extra-key", "big-endian", "float32",
            "int-in-float-field", "float-in-int-field", "dtype-null", "shape-not-list",
            "shape-str", "shape-float", "shape-bool", "shape-negative", "shape-rank-1",
            "shape-rank-3", "shape-rows", "shape-int-field", "b64-bad-chars", "b64-bad-padding",
            "b64-newline", "b64-non-ascii", "b64-number", "bytes-short", "bytes-long", "nan",
            "inf", "-inf",
        ],
    )
    def test_malformed_record(self, record, dtype):
        shape = (2, None) if dtype is np.float64 else (2, 2)
        with pytest.raises(ArtifactError, match="'weights'"):
            state_array({"weights": record}, "weights", shape, dtype)

    def test_negative_dimensions(self):
        # Their product matches the bytes, and any size would be allowed.
        with pytest.raises(ArtifactError, match="'weights'"):
            state_array({"weights": _with(shape=[-2, -2])}, "weights", (None, None))


def number_lists(obj, path: str = "$") -> list[str]:
    """Paths of the lists in ``obj`` that hold a number, except a record's shape."""
    if isinstance(obj, dict):
        is_record = obj.keys() == RECORD_KEYS
        return [
            found
            for key, value in obj.items()
            if not (is_record and key == "shape")
            for found in number_lists(value, f"{path}.{key}")
        ]
    if isinstance(obj, list):
        own = [path] if any(isinstance(v, (int, float)) for v in obj) else []
        return own + [p for i, v in enumerate(obj) for p in number_lists(v, f"{path}[{i}]")]
    return []


def records_in(obj) -> int:
    if isinstance(obj, dict):
        return int(obj.keys() == RECORD_KEYS) + sum(records_in(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(records_in(v) for v in obj)
    return 0


class TestNoDecimalLists:
    """A saved state keeps its arrays only as records, so no family brings
    the decimal form back."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_model_state(self, family, blob_data):
        x, y = blob_data
        state = json.loads(json_text(fit_model(ModelSpec(family, seed=1), x, y).to_dict()))
        assert number_lists(state) == []
        assert records_in(state) > 0 or family == "BASELINE"

    def test_chain_stages(self, url_corpus):
        urls, labels = url_corpus
        chain, _ = fit_chain(urls, labels, top_k=30, use_projection=True)
        saved_chain = json.loads(json_text(chain.to_dict()))
        for stage, fields in (
            ("scaler", {"mean", "std"}),
            ("selector", {"retained_indices", "score_per_feature"}),
            ("projection", {"mean", "components", "explained_variance"}),
        ):
            assert set(saved_chain[stage]) == fields
            assert all(saved_chain[stage][f].keys() == RECORD_KEYS for f in fields)
        assert number_lists(saved_chain) == []
