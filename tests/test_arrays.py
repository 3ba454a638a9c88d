"""The saved form of every model and chain array: ``array_record`` encodes,
``state_array`` is the one decoder, and no saved state holds decimals.
An integer array has one saved code, the narrowest that holds its values.
A matrix saved as per-column value dictionaries (KNN's training rows)
goes through ``columns_record`` and ``state_columns``."""

from __future__ import annotations

import base64
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from urlsleuth.errors import ArtifactError
from urlsleuth.fileio import json_text
from urlsleuth.models import FAMILIES, ModelSpec, fit_model
from urlsleuth.models.neighbors import KNearestNeighbors
from urlsleuth.models.base import array_record, columns_record, state_array, state_columns
from urlsleuth.pipeline import fit_chain

from conftest import RECORD_KEYS, coded_record, columns_matrix, records_to_lists

_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5)
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals included
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     np.finfo(np.float64).max, -np.finfo(np.float64).max]),
)
_INT64 = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)
_INT64_MAX, _UINT64_MAX = int(np.iinfo(np.int64).max), int(np.iinfo(np.uint64).max)
# Bounds on both sides of every width in either ladder, and any bound at all.
_EDGES = sorted({s * 2**k + d for k in (0, 7, 8, 15, 16, 31, 32, 63, 64)
                 for s in (1, -1) for d in (-1, 0, 1)})
_BOUNDS = st.one_of(
    st.sampled_from([e for e in _EDGES if -(2**63) <= e <= _UINT64_MAX]),
    st.integers(-(2**63), _UINT64_MAX),
)


@st.composite
def integer_arrays(draw) -> np.ndarray:
    """An int64 or uint64 array whose values lie between two random bounds,
    with both bounds among them when it has two cells or more."""
    lo, hi = sorted((draw(_BOUNDS), draw(_BOUNDS)))
    if lo < 0:
        hi = min(hi, _INT64_MAX)  # no integer type holds both
    dtype = np.uint64 if hi > _INT64_MAX else np.int64
    arr = draw(hnp.arrays(dtype, _SHAPES, elements=st.integers(lo, hi)))
    if arr.size >= 2:
        arr.flat[0], arr.flat[-1] = lo, hi
    return arr


def narrowest_code(arr: np.ndarray) -> str:
    """The first type of the unsigned ladder (minimum >= 0) or the signed
    one whose range holds the values of ``arr``; ``|u1`` when it is empty."""
    lo, hi = (int(arr.min()), int(arr.max())) if arr.size else (0, 0)
    ladder = ("|u1", "<u2", "<u4", "<u8") if lo >= 0 else ("|i1", "<i2", "<i4", "<i8")
    for code in ladder:
        info = np.iinfo(np.dtype(code))
        if info.min <= lo and hi <= info.max:
            return code
    raise AssertionError(f"no integer type holds [{lo}, {hi}]")


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

    @given(integer_arrays())
    @settings(max_examples=400, deadline=None)
    def test_integers_exact_in_the_narrowest_code(self, arr):
        state = saved(arr)
        assert state["a"]["dtype"] == narrowest_code(arr)
        got = state_array(state, "a", (None,) * arr.ndim, dtype=arr.dtype.type)
        assert got.dtype == arr.dtype and got.shape == arr.shape
        assert np.array_equal(got, arr)

    @pytest.mark.parametrize(
        "values, code",
        [([-1], "|i1"), ([-1, 127], "|i1"), ([-1, 128], "<i2"), ([-129], "<i2"),
         ([0, 255], "|u1"), ([0, 256], "<u2"), ([], "|u1")],
    )
    def test_pinned_widths(self, values, code):
        arr = np.array(values, dtype=np.int64)
        state = saved(arr)
        assert state["a"]["dtype"] == code
        assert np.array_equal(state_array(state, "a", (len(values),), np.int64), arr)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64, np.dtype(">i8")])
    def test_code_depends_only_on_the_values(self, dtype):
        assert array_record(np.array([[3, 100]], dtype=dtype)) == array_record(np.array([[3, 100]]))

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
        assert array_record(np.array([[300, -4]], dtype=">i4")) == {
            "b64": base64.b64encode(np.array([300, -4], "<i2").tobytes()).decode(),
            "dtype": "<i2", "shape": [1, 2],
        }

    @pytest.mark.parametrize(
        "dtype, code",
        [(np.uint8, "|u1"), (np.dtype(">u2"), "<u2"), (np.uint32, "<u4"), (np.uint64, "<u8")],
    )
    def test_unsigned_type_maximum_takes_that_type(self, dtype, code):
        arr = np.array([[0, 1], [np.iinfo(dtype).max, 7]], dtype=dtype)
        state = saved(arr)
        assert state["a"]["dtype"] == code
        assert len(base64.b64decode(state["a"]["b64"])) == 4 * np.dtype(dtype).itemsize
        got = state_array(state, "a", (2, 2), dtype=arr.dtype.type)
        assert got.dtype == arr.dtype.type and np.array_equal(got, arr)
        # Every code decodes to a wider field that holds its values.
        wide = state_array(state, "a", (2, 2), np.uint64)
        assert wide.dtype == np.uint64 and np.array_equal(wide, arr.astype(np.uint64))

    @pytest.mark.parametrize("value", [0.25, -0.0, 5e-324, -np.finfo(np.float64).max])
    def test_scalar_is_a_0_d_record(self, value):
        state = saved(np.float64(value))
        assert state["a"]["dtype"] == "<f8" and state["a"]["shape"] == []
        got = state_array(state, "a", ())
        assert got.shape == () and np.float64(got).tobytes() == np.float64(value).tobytes()

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
            (coded_record([[0, 1], [2, 3]], "<u2"), np.int64),
            (array_record(np.array([[0, 1], [2, 300]])), np.uint8),
            (_with(dtype="|u1"), np.uint8),
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
            "shape-rank-3", "shape-rows", "shape-int-field", "int-code-too-wide",
            "int-in-uint8-field", "uint8-bytes-of-floats", "b64-bad-chars", "b64-bad-padding",
            "b64-newline", "b64-non-ascii", "b64-number", "bytes-short", "bytes-long", "nan",
            "inf", "-inf",
        ],
    )
    def test_malformed_record(self, record, dtype):
        shape = (2, None) if dtype is np.float64 else (2, 2)
        with pytest.raises(ArtifactError, match="'weights'"):
            state_array({"weights": record}, "weights", shape, dtype)

    @pytest.mark.parametrize(
        "record, dtype, reason",
        [
            (coded_record([[0, 1], [2, 3]], "<u2"), np.int64,
             r"has dtype '<u2', but its values are saved as '\|u1'"),
            (coded_record([[0, 1], [2, 3]], "|i1"), np.int64,
             r"has dtype '\|i1', but its values are saved as '\|u1'"),
            (coded_record([[0, 1], [-2, 3]], "<i8"), np.int64,
             r"has dtype '<i8', but its values are saved as '\|i1'"),
            (coded_record([[0, 1], [2, 2**63]], "<u8"), np.int64,
             r"holds values outside int64 \(\[0, 9223372036854775808\]\)"),
            (array_record(np.array([[0, 1], [2, 300]])), np.uint8, "holds values outside uint8"),
            (array_record(np.array([[0, -1], [2, 3]])), np.uint8, "holds values outside uint8"),
            (_with(dtype=">i8"), np.int64, "has dtype '>i8', expected an integer code"),
            (_with(dtype="<f8"), np.int64, "has dtype '<f8', expected an integer code"),
            (_with(dtype="<i8"), np.float64, "has dtype '<i8', expected '<f8'"),
        ],
        ids=["int-code-too-wide", "signed-code-for-unsigned-values", "int64-code-for-int8-values",
             "u8-above-int64", "int-in-uint8-field", "negative-in-uint8-field", "big-endian-int",
             "float-in-int-field", "int-in-float-field"],
    )
    def test_integer_code_refused_for_its_reason(self, record, dtype, reason):
        with pytest.raises(ArtifactError, match=f"saved array 'weights' {reason}"):
            state_array({"weights": record}, "weights", (2, 2), dtype)

    def test_negative_dimensions(self):
        # Their product matches the bytes, and any size would be allowed.
        with pytest.raises(ArtifactError, match="'weights'"):
            state_array({"weights": _with(shape=[-2, -2])}, "weights", (None, None))


def saved_columns(X: np.ndarray) -> dict:
    """``X`` as a ``columns_record`` reads back from an artifact file."""
    return json.loads(json_text({"X": columns_record(X)}))


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# Few distinct values per column, so codes repeat: both zeros, subnormals,
# the extremes, and any finite float now and then.
_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 0.5,
                     np.finfo(np.float64).max, -np.finfo(np.float64).max]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_MATRICES = hnp.arrays(
    np.float64,
    st.tuples(st.integers(0, 12), st.integers(1, 6)),
    elements=_CELLS,
)


class TestColumnsRoundTrip:
    @given(_MATRICES)
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, X):
        got = state_columns(saved_columns(X), "X", X.shape[1])
        assert got.dtype == np.float64 and bits_equal(got, X)

    def test_both_zeros_and_subnormals_stay_apart(self):
        X = np.array([[0.0, 5e-324], [-0.0, -5e-324], [0.0, 1e-310], [-0.0, 5e-324]])
        state = saved_columns(X)
        assert state["X"]["offsets"] == array_record(np.array([0, 2, 5]))
        assert bits_equal(state_columns(state, "X", 2), X)

    def test_one_value_column(self):
        X = np.column_stack([np.full(5, -2.5), np.arange(5.0)])
        state = saved_columns(X)
        assert state_array(state["X"], "offsets", (3,), np.int64).tolist() == [0, 1, 6]
        assert bits_equal(state_columns(state, "X", 2), X)

    def test_zero_rows(self):
        state = saved_columns(np.empty((0, 4)))
        assert state_array(state["X"], "offsets", (5,), np.int64).tolist() == [0] * 5
        assert state_columns(state, "X", 4).shape == (0, 4)

    def test_codes_take_the_narrowest_width(self):
        # Each column's codes take the width its own values need.
        distinct = [1, 256, 257, 65_536, 65_537]
        rows = np.arange(max(distinct))
        X = np.column_stack([(rows % n)[::-1] * -0.25 for n in distinct])
        state = saved_columns(X)
        assert [r["dtype"] for r in state["X"]["codes"]] == ["|u1", "|u1", "<u2", "<u2", "<u4"]
        assert state_array(state["X"], "offsets", (6,), np.int64).tolist() == [
            0, *np.cumsum(distinct).tolist()
        ]
        assert bits_equal(state_columns(state, "X", 5), X)

    def test_values_rise_as_bit_patterns(self):
        # -1.0's bit pattern is above 2.0's, so it comes last.
        state = saved_columns(np.array([[-1.0], [2.0], [0.0], [2.0]]))
        values = state_array(state["X"], "values", (3,))
        assert values.tolist() == [0.0, 2.0, -1.0]
        (codes,) = state["X"]["codes"]
        assert state_array({"codes": codes}, "codes", (4,), np.uint8).tolist() == [2, 1, 0, 1]

    def test_bytes_depend_only_on_the_matrix(self):
        X = np.array([[3.0, 1.0], [1.0, 1.0], [3.0, -0.0]])
        assert json_text(columns_record(X)) == json_text(columns_record(X.copy(order="F")))

    @pytest.mark.parametrize("distinct, code", [(200, "|u1"), (300, "<u2"), (70_000, "<u4")])
    def test_matches_the_int64_index_sum(self, distinct, code):
        rng = np.random.default_rng(distinct)
        X = rng.normal(size=(distinct, 5))
        X[:, 1:] = np.round(X[:, 1:], 1)  # a few distinct values in the other columns
        state = saved_columns(rng.permutation(np.vstack([X, X[: distinct // 3]])))
        assert [r["dtype"] for r in state["X"]["codes"]] == [code] + ["|u1"] * 4
        got = state_columns(state, "X", 5)
        expected = columns_matrix(records_to_lists(state["X"]))  # one int64 gather
        assert bits_equal(got, expected)
        assert got.flags.c_contiguous and got.strides == expected.strides

    def test_decoding_holds_little_beside_the_matrix(self):
        # 4,000 x 40 with 600 values a column: the codes are saved as "<u2".
        rng = np.random.default_rng(4)
        X = rng.integers(0, 600, size=(4000, 40)) * 0.25
        state = saved_columns(X)
        assert {r["dtype"] for r in state["X"]["codes"]} == {"<u2"}
        tracemalloc.start()
        try:
            got = state_columns(state, "X", 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bits_equal(got, X)
        # Widening the codes to int64 and adding the offsets took 3.2x.
        assert peak <= 2.5 * got.nbytes

    def test_knn_state(self, blob_data):
        x, y = blob_data
        model = KNearestNeighbors(k=3).fit(x, y)
        state = json.loads(json_text(model.state_to_dict()))
        assert state["train_X"].keys() == {"values", "offsets", "codes"}
        assert state["train_y"]["dtype"] == "|u1"
        restored = KNearestNeighbors(k=3)
        restored._restore(x.shape[1], state)
        assert bits_equal(restored.train_X_, model.train_X_)
        assert restored.train_y_.dtype == np.int64
        assert np.array_equal(restored.train_y_, y)


# [[1.0, -0.0], [2.0, 0.0], [1.0, 0.0]]: column 0 holds 1.0 and 2.0, column 1
# holds 0.0 and -0.0 (in that order: 0.0's bit pattern is the lower).
_GOOD_X = np.array([[1.0, -0.0], [2.0, 0.0], [1.0, 0.0]])


def _columns(**parts) -> dict:
    """The saved columns of ``_GOOD_X`` with some parts replaced; an array
    is encoded with ``array_record`` (a matrix of codes as one record per
    column), anything else is kept as given."""
    record = columns_record(_GOOD_X)
    for name, part in parts.items():
        if name == "codes" and isinstance(part, np.ndarray):
            part = [array_record(column) for column in part.T]
        record[name] = array_record(part) if isinstance(part, np.ndarray) else part
    return record


_CODES = np.array([[0, 1], [1, 0], [0, 0]], dtype=np.uint8)
_CODE_0, _CODE_1 = (array_record(column) for column in _CODES.T)


# Each malformed saved matrix with the whole message it is refused with.
_MALFORMED_COLUMNS = [
    pytest.param(
        array_record(_GOOD_X), 2,  # format 6: one float64 record
        "saved columns 'train_X' must be an object with keys codes, offsets, values",
        id="format-6-record",
    ),
    pytest.param(
        _GOOD_X.tolist(), 2,
        "saved columns 'train_X' must be an object with keys codes, offsets, values",
        id="list",
    ),
    pytest.param(
        {k: v for k, v in _columns().items() if k != "codes"}, 2,
        "saved columns 'train_X' must be an object with keys codes, offsets, values",
        id="missing-codes",
    ),
    pytest.param(
        {**_columns(), "rows": 3}, 2,
        "saved columns 'train_X' must be an object with keys codes, offsets, values",
        id="extra-key",
    ),
    pytest.param(
        _columns(values=np.array([7.0, 1.0, 2.0, 0.0, -0.0]), offsets=np.array([1, 3, 5])), 2,
        "saved columns 'train_X': offsets must rise from 0 to the 5 values",
        id="offsets-start",
    ),
    pytest.param(
        _columns(offsets=np.array([0, 2, 3])), 2,
        "saved columns 'train_X': offsets must rise from 0 to the 4 values",
        id="offsets-end-short",
    ),
    pytest.param(
        _columns(offsets=np.array([0, 2, 5])), 2,
        "saved columns 'train_X': offsets must rise from 0 to the 4 values",
        id="offsets-end-long",
    ),
    pytest.param(
        _columns(offsets=np.array([0, 0, 4])), 2,
        "saved columns 'train_X': a column's values do not rise strictly",
        id="offsets-empty-column",
    ),
    pytest.param(
        _columns(offsets=np.array([0, 5, 4])), 2,
        "saved columns 'train_X': offsets must rise from 0 to the 4 values",
        id="offsets-descending",
    ),
    pytest.param(
        _columns(values=np.array([1.0, 2.0]), offsets=np.array([0, 3, 2]),
                 codes=np.empty((0, 2), dtype=np.uint8)),
        2,
        "saved columns 'train_X': offsets must rise from 0 to the 2 values",
        id="offsets-descending-no-rows",
    ),
    pytest.param(
        _columns(values=np.array([2.0, 1.0, 0.0, -0.0])), 2,
        "saved columns 'train_X': a column's values do not rise strictly",
        id="values-descending",
    ),
    pytest.param(
        _columns(values=np.array([1.0, 1.0, 0.0, -0.0])), 2,
        "saved columns 'train_X': a column's values do not rise strictly",
        id="values-duplicate",
    ),
    pytest.param(
        _columns(values=np.array([1.0, 2.0, -0.0, 0.0])), 2,
        "saved columns 'train_X': a column's values do not rise strictly",
        id="values-zeros-swapped",
    ),
    pytest.param(
        _columns(codes=np.array([[2, 1], [1, 0], [0, 0]], dtype=np.uint8)), 2,
        "saved array 'train_X.codes[0]' holds a code outside its column's values",
        id="code-past-its-column",
    ),
    pytest.param(
        _columns(codes=np.array([[0, 2], [1, 0], [0, 0]], dtype=np.uint8)), 2,
        "saved array 'train_X.codes[1]' holds a code outside its column's values",
        id="code-past-the-values",
    ),
    pytest.param(
        _columns(), 3,
        "saved array 'train_X.offsets' has shape [3], expected [4]",
        id="width-over",
    ),
    pytest.param(
        _columns(), 1,
        "saved array 'train_X.offsets' has shape [3], expected [2]",
        id="width-under",
    ),
    pytest.param(
        _columns(codes=[_CODE_0]), 2,
        "saved columns 'train_X': codes must be a list of 2 column records",
        id="codes-width",
    ),
    pytest.param(
        _columns(codes=[_CODE_0, _CODE_1, _CODE_1]), 2,
        "saved columns 'train_X': codes must be a list of 2 column records",
        id="codes-too-many",
    ),
    pytest.param(
        _columns(codes=array_record(_CODES)), 2,  # format 8: one record for all columns
        "saved columns 'train_X': codes must be a list of 2 column records",
        id="format-8-codes",
    ),
    pytest.param(
        _columns(codes=[_CODE_0, [1, 0, 0]]), 2,
        "saved array 'train_X.codes[1]' must be an object with keys b64, dtype, shape",
        id="codes-column-list",
    ),
    pytest.param(
        _columns(codes=[_CODE_0, array_record(np.uint8([1, 0]))]), 2,
        "saved array 'train_X.codes[1]' has shape [2], expected [3]",
        id="codes-column-short",
    ),
    pytest.param(
        _columns(codes=[array_record(np.uint8([0, 1, 0, 1])), _CODE_1]), 2,
        "saved array 'train_X.codes[1]' has shape [3], expected [4]",
        id="codes-column-0-long",
    ),
    pytest.param(
        _columns(codes=[_CODE_0, coded_record(_CODES[:, 1], "<u2")]), 2,
        "saved array 'train_X.codes[1]' has dtype '<u2', but its values are saved as '|u1'",
        id="codes-column-wide",
    ),
    pytest.param(
        _columns(codes=[coded_record(_CODES[:, 0], "<i8"), _CODE_1]), 2,
        "saved array 'train_X.codes[0]' has dtype '<i8', but its values are saved as '|u1'",
        id="codes-signed",
    ),
    pytest.param(
        _columns(codes=[_CODE_0, coded_record(_CODES[:, 1], "<u8")]), 2,
        "saved array 'train_X.codes[1]' has dtype '<u8', but its values are saved as '|u1'",
        id="codes-u8",
    ),
    pytest.param(
        _columns(codes=_CODES.astype(np.float64)), 2,
        "saved array 'train_X.codes[0]' has dtype '<f8', expected an integer code",
        id="codes-float",
    ),
    pytest.param(
        _columns(codes=np.array([[0, 1], [1, -1], [0, 0]])), 2,
        "saved array 'train_X.codes[1]' holds a code outside its column's values",
        id="code-negative",
    ),
    pytest.param(
        _columns(offsets=coded_record([0, 2, 4], "<i8")), 2,
        "saved array 'train_X.offsets' has dtype '<i8', but its values are saved as '|u1'",
        id="offsets-int64",
    ),
    pytest.param(
        _columns(offsets=coded_record([0, 2, 2**63], "<u8")), 2,
        "saved array 'train_X.offsets' holds values outside int64 ([0, 9223372036854775808])",
        id="offsets-above-int64",
    ),
    pytest.param(
        _columns(codes=[_CODE_0, coded_record([1, 2**63, 0], "<u8")]), 2,
        "saved array 'train_X.codes[1]' holds values outside int64 ([0, 9223372036854775808])",
        id="codes-above-int64",
    ),
    pytest.param(
        _columns(offsets=np.array([0.0, 2.0, 4.0])), 2,
        "saved array 'train_X.offsets' has dtype '<f8', expected an integer code",
        id="offsets-float",
    ),
    pytest.param(
        _columns(values=np.array([1.0, 2.0, 0.0, np.nan])), 2,
        "saved array 'train_X.values' contains NaN or infinite values",
        id="values-nan",
    ),
    pytest.param(
        _columns(values=np.array([1.0, np.inf, 0.0, -0.0])), 2,
        "saved array 'train_X.values' contains NaN or infinite values",
        id="values-inf",
    ),
    pytest.param(
        _columns(values=np.array([1, 2, 3, 4])), 2,
        "saved array 'train_X.values' has dtype '|u1', expected '<f8'",
        id="values-int",
    ),
]


class TestColumnsRejected:
    """Every malformed saved matrix raises ``ArtifactError`` naming its key."""

    def test_good_record_decodes(self):
        assert bits_equal(state_columns({"train_X": _columns()}, "train_X", 2), _GOOD_X)
        assert _columns()["codes"] == [_CODE_0, _CODE_1]

    @pytest.mark.parametrize("record, n_features, message", _MALFORMED_COLUMNS)
    def test_malformed_columns(self, record, n_features, message):
        with pytest.raises(ArtifactError) as raised:
            state_columns({"train_X": record}, "train_X", n_features)
        assert str(raised.value) == message

    def test_negative_code_refused(self):
        # Its canonical code is signed; read, it would index the column before.
        record = _columns(codes=np.array([[0, 1], [1, -1], [0, 0]]))
        assert [r["dtype"] for r in record["codes"]] == ["|u1", "|i1"]
        with pytest.raises(ArtifactError, match=r"'train_X.codes\[1\]' holds a code outside"):
            state_columns({"train_X": record}, "train_X", 2)


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
        chain, _ = fit_chain(urls, labels, top_k=30, projection_variance=0.95)
        saved_chain = json.loads(json_text(chain.to_dict()))
        for stage, fields in (
            ("scaler", {"mean", "std"}),
            ("selector", {"retained_indices", "score_per_feature"}),
            ("projection", {"mean", "components", "explained_variance"}),
        ):
            assert set(saved_chain[stage]) == fields
            assert all(saved_chain[stage][f].keys() == RECORD_KEYS for f in fields)
        assert number_lists(saved_chain) == []
