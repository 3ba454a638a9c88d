"""Tests for the add-k smoothed character n-gram language models."""

from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urlsleuth.charlm import (
    _ID,
    BEGIN,
    END,
    SIDES,
    SYMBOLS,
    UNK,
    VOCAB_SIZE,
    CharGramModel,
    LmScorePair,
    _grams,
    _lone_grams,
)
from urlsleuth.errors import ArtifactError, ModelError
from urlsleuth.models.base import array_record
from urlsleuth.synth import generate_dataset

from conftest import coded_record
from oracles import DictGramModel


def fitted(urls, order: int = 3, k: float = 1.0) -> DictGramModel:
    """The dict-backed oracle holding the counts ``CharGramModel.fit`` made."""
    return DictGramModel.from_model(CharGramModel(order, k).fit(urls))


class TestHandOracles:
    """Probabilities worked out by hand for a one-string corpus."""

    def test_bigram_on_ab(self):
        m = fitted(["ab"], 2, 1.0)
        # Observed transitions: BEGIN->a, a->b, b->END, each once.
        assert m.conditional_prob("a", BEGIN) == pytest.approx((1 + 1) / (1 + 97))
        assert m.conditional_prob("b", "a") == pytest.approx(2 / 98)
        assert m.conditional_prob(END, "b") == pytest.approx(2 / 98)
        # Anything unseen under a seen context: (0 + 1) / (1 + 97).
        assert m.conditional_prob("z", "a") == pytest.approx(1 / 98)
        # Unseen context: uniform 1/V.
        assert m.conditional_prob("a", "q") == pytest.approx(1 / VOCAB_SIZE)

    def test_bigram_logprob_is_sum_of_transitions(self):
        m = fitted(["ab"], 2, 1.0)
        assert m.sequence_logprob("ab") == pytest.approx(3 * math.log(2 / 98))

    def test_duplicated_corpus_doubles_counts(self):
        m = fitted(["ab", "ab"], 2, 1.0)
        assert m.conditional_prob("b", "a") == pytest.approx((2 + 1) / (2 + 97))

    def test_trigram_context_is_two_chars(self):
        m = fitted(["abc"], 3, 1.0)
        assert m.conditional_prob("a", BEGIN + BEGIN) == pytest.approx(2 / 98)
        assert m.conditional_prob("c", "ab") == pytest.approx(2 / 98)
        assert m.conditional_prob(END, "bc") == pytest.approx(2 / 98)

    def test_untrained_model_is_uniform(self):
        m = DictGramModel.from_model(CharGramModel(order=3, k=1.0))
        text = "abc"
        assert m.sequence_logprob(text) == pytest.approx(
            (len(text) + 1) * math.log(1 / VOCAB_SIZE)
        )

    def test_empty_text_scores_end_transition_only(self):
        m = fitted(["ab"], 2, 1.0)
        assert m.sequence_logprob("") == pytest.approx(math.log(1 / 98))

    def test_score_is_length_normalized(self):
        m = fitted(["ab"], 2, 1.0)
        url = "abab"
        assert m.score(url) == pytest.approx(m.sequence_logprob(url) / (len(url) + 1))


class TestModelBehaviour:
    def test_out_of_inventory_chars_fold_to_catchall(self):
        m = fitted(["café"], 2, 1.0)
        # The accented char was folded at training time, so the catch-all
        # symbol and any other non-ASCII char score identically.
        assert m.conditional_prob(UNK, "f") == m.conditional_prob("中", "f")
        assert m.sequence_logprob("café") == pytest.approx(m.sequence_logprob("caf" + UNK))

    def test_more_evidence_raises_probability(self):
        seen = fitted(["ab"], 2, 1.0)
        seen_more = fitted(["ab", "ab", "ab"], 2, 1.0)
        assert seen_more.conditional_prob("b", "a") > seen.conditional_prob("b", "a")

    def test_familiar_text_scores_higher(self):
        corpus = ["banana", "bandana", "cabana"]
        m = fitted(corpus, 3, 1.0)
        assert m.score("banana") > m.score("zqxjkw")

    def test_context_length_enforced(self):
        m = DictGramModel.from_model(CharGramModel(order=3, k=1.0))
        with pytest.raises(ModelError, match="context"):
            m.conditional_prob("a", "toolong")

    def test_invalid_constructor_args(self):
        with pytest.raises(ModelError):
            CharGramModel(order=0)
        with pytest.raises(ModelError, match="integer"):
            CharGramModel(order=3.0)
        with pytest.raises(ModelError):
            CharGramModel(order=2, k=0.0)
        with pytest.raises(ModelError):
            CharGramModel(order=2, k=-1.0)

    @pytest.mark.parametrize(
        "order, k",
        [(True, 1.0), (2, True), (2, float("inf")), (2, float("nan")), (2, "1"), (2, None),
         (2, 1j)],
        ids=["order-true", "k-true", "k-inf", "k-nan", "k-str", "k-none", "k-complex"],
    )
    def test_bool_or_non_finite_order_and_k_rejected(self, order, k):
        with pytest.raises(ModelError):
            CharGramModel(order=order, k=k)

    def test_numeric_k_of_any_real_type_accepted(self):
        assert CharGramModel(order=2, k=1).k == 1
        assert CharGramModel(order=2, k=np.float64(0.5)).k == 0.5

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_distribution_normalizes(self, context_source):
        rng = random.Random(5)
        corpus = ["".join(rng.choice("abc/:.") for _ in range(12)) for _ in range(30)]
        m = fitted(corpus, 3, 1.0)
        context = (context_source + BEGIN * 2)[:2]
        total = sum(m.conditional_prob(s, context) for s in SYMBOLS)
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(st.text(max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_logprob_finite_and_negative(self, text):
        m = fitted(["http://example.com"], 3, 1.0)
        lp = m.sequence_logprob(text)
        assert math.isfinite(lp)
        assert lp < 0.0

    def test_serialization_round_trip(self):
        urls = ["http://a.com/x", "https://b.org/?q=1", "http://c.net/é"]
        pair = LmScorePair(order=3, k=0.5).fit(urls, np.array([0, 1, 0]))
        restored = LmScorePair.from_dict(json.loads(json.dumps(pair.to_dict())))
        for m, r in ((pair.benign, restored.benign), (pair.malicious, restored.malicious)):
            assert np.array_equal(r.keys, m.keys) and r.keys.dtype == np.uint8
            assert np.array_equal(r.counts, m.counts) and r.counts.dtype == np.int64
        assert restored.to_dict() == pair.to_dict()


class TestScorePair:
    def test_wrapper_functions(self):
        benign = CharGramModel(order=2, k=1.0).fit(["aaaa", "aaab"])
        malicious = CharGramModel(order=2, k=1.0).fit(["zzzz", "zzzy"])
        pair = LmScorePair(order=2, benign=benign, malicious=malicious).transform(["aaaa"])[0]
        assert pair.shape == (2,)
        assert pair[0] == pytest.approx(DictGramModel.from_model(benign).score("aaaa"))
        assert pair[1] == pytest.approx(DictGramModel.from_model(malicious).score("aaaa"))
        assert pair[0] > pair[1]

    def test_identical_corpora_give_equal_scores(self):
        corpus = ["http://a.com", "http://b.com"]
        pair = LmScorePair(
            benign=CharGramModel().fit(corpus), malicious=CharGramModel().fit(corpus)
        ).transform(["http://c.com"])[0]
        assert pair[0] == pair[1]

    @pytest.mark.parametrize("side", ["benign", "malicious"])
    @pytest.mark.parametrize("order, k", [(3, 1.0), (2, 0.5)], ids=["order", "k"])
    def test_model_settings_must_match_pair(self, side, order, k):
        models = {"benign": CharGramModel(2, 1.0), "malicious": CharGramModel(2, 1.0)}
        models[side] = CharGramModel(order, k)
        with pytest.raises(ModelError, match=f"{side} model has order {order} and k {k}"):
            LmScorePair(order=2, k=1.0, **models)

    def test_order_mismatch_rejected(self):
        payload = LmScorePair(order=2, k=1.0).fit(["a", "b"], np.array([0, 1])).to_dict()
        for benign, malicious, side in [(2, 3, "malicious"), (3, 2, "benign")]:
            mixed = dict(payload)
            mixed["benign"] = CharGramModel(benign).fit(["a"]).to_dict()
            mixed["malicious"] = CharGramModel(malicious).fit(["b"]).to_dict()
            with pytest.raises(ArtifactError, match=rf"{side} saved array 'keys' has shape \[\d+, 3\], expected \[n, 2\]"):
                LmScorePair.from_dict(mixed)


class TestLmScorePair:
    def test_fit_splits_by_label(self):
        urls = ["aaaa", "aaab", "zzzz", "zzzy"]
        labels = np.array([0, 0, 1, 1])
        pair = LmScorePair(order=2, k=1.0).fit(urls, labels)
        b, m = pair.transform(["aaaa"])[0]
        assert b > m
        b, m = pair.transform(["zzzz"])[0]
        assert m > b

    def test_transform_shape_and_content(self):
        urls = ["aaaa", "zzzz", "aazz"]
        pair = LmScorePair(order=2, k=1.0).fit(["aa", "zz"], np.array([0, 1]))
        mat = pair.transform(urls)
        assert mat.shape == (3, 2)
        benign, malicious = DictGramModel.from_model(pair.benign), DictGramModel.from_model(pair.malicious)
        for i, url in enumerate(urls):
            assert tuple(mat[i]) == (benign.score(url), malicious.score(url))

    def test_round_trip(self):
        pair = LmScorePair(order=3, k=1.0).fit(["aaa", "zzz"], np.array([0, 1]))
        restored = LmScorePair.from_dict(pair.to_dict())
        assert np.array_equal(restored.transform(["aza"]), pair.transform(["aza"]))


# Text as classify receives it: URL-like runs, any code point including
# lone surrogates, and the model's own marker characters given literally.
_TEXT = st.one_of(
    st.text(st.sampled_from("htps:/.abcom?=&-_%"), max_size=30),
    st.text(st.characters(blacklist_categories=()), max_size=30),
    st.text(st.sampled_from([BEGIN, END, UNK, "a", "b", "/"]), max_size=10),
)
# Longer than one scoring block, so it is scored in a block of its own.
_LONG_URL = ("http://a.com/?" + "".join(f"q{i}=v{i % 7}&" for i in range(4000)))[:20000]


class TestVectorizedScores:
    """``LmScorePair.transform`` against the scalar loop, bit for bit."""

    @given(
        benign=st.lists(_TEXT, max_size=12),
        malicious=st.lists(_TEXT, max_size=12),
        probes=st.lists(_TEXT, max_size=12),
        order=st.integers(1, 5),
        k=st.sampled_from([0.5, 1.0]),
        at=st.integers(0, 40),
    )
    # An empty URL scores one ratio, END after BEGIN: here (32 + 1) / (45 + 97)
    # and (18 + 0.5) / (73 + 48.5), whose np.log (numpy 2.4, x86-64) is one
    # ulp off math.log.
    @example(
        benign=[""] * 32 + ["a"] * 13, malicious=[""] * 18 + ["a"] * 55,
        probes=[""], order=2, k=1.0, at=0,
    )
    @example(
        benign=[""] * 32 + ["a"] * 13, malicious=[""] * 18 + ["a"] * 55,
        probes=[""], order=2, k=0.5, at=0,
    )
    @settings(max_examples=40, deadline=None)
    def test_transform_equals_scalar_scores(self, benign, malicious, probes, order, k, at):
        pair = LmScorePair(
            order, k, CharGramModel(order, k).fit(benign), CharGramModel(order, k).fit(malicious)
        )
        batch = probes + benign[:3] + malicious[:3]
        batch.insert(at % (len(batch) + 1), _LONG_URL)
        scores = pair.transform(batch)
        restored = LmScorePair.from_dict(json.loads(json.dumps(pair.to_dict())))
        assert np.array_equal(restored.transform(batch), scores)
        self.assert_scalar(pair, batch, scores)
        for url, row in zip(batch, scores):
            assert tuple(pair.transform([url])[0]) == tuple(row)

    @staticmethod
    def assert_scalar(pair, urls, scores=None):
        scores = pair.transform(urls) if scores is None else scores
        benign, malicious = DictGramModel.from_model(pair.benign), DictGramModel.from_model(pair.malicious)
        for url, row in zip(urls, scores):
            assert tuple(row) == (benign.score(url), malicious.score(url)), url

    def test_unseen_first_context_character(self):
        # 'x', 'y' and 'z' never start a context in training, so the search
        # must stay unseen through every longer prefix.
        pair = LmScorePair(order=4).fit(["abcab", "bca"], np.array([0, 1]))
        self.assert_scalar(pair, ["xyz", "xab", "abx", "zzzz", "x", "yabc"])

    def test_seen_first_character_with_unseen_two_character_prefix(self):
        # 'a' starts contexts but 'ac' and 'aa' never do.
        pair = LmScorePair(order=4).fit(["abcab", "abab"], np.array([0, 1]))
        self.assert_scalar(pair, ["acab", "aab", "abacb", "bb"])

    def test_context_holding_unk(self):
        pair = LmScorePair(order=3).fit(["café.com", "ĉa"], np.array([0, 1]))
        self.assert_scalar(pair, ["caféx", "é", "xé", "éé.com", "a\udcffb", UNK + "a", "ĉĉ"])

    def test_order_one_has_no_context(self):
        pair = LmScorePair(order=1, k=0.5).fit(["abc", "zz"], np.array([0, 1]))
        self.assert_scalar(pair, ["", "abc", "zzz", "é", "q" * 20000])

    def test_empty_batch(self):
        pair = LmScorePair(order=2).fit(["ab", "cd"], np.array([0, 1]))
        assert pair.transform([]).shape == (0, 2)

    @given(url=_TEXT, order=st.integers(1, 5))
    @example(url=_LONG_URL, order=3)
    @example(url="", order=1)
    @settings(max_examples=60, deadline=None)
    def test_lone_windows_equal_batch_windows(self, url, order):
        batch = _grams([url], np.array([len(url)]), order - 1)
        lone = _lone_grams(url, order - 1)
        assert lone.dtype == batch.dtype
        assert np.array_equal(lone, batch)

    def test_only_the_named_sides_are_scored(self):
        train = generate_dataset("lm-sides", 200, 0.3, seed=108).records
        pair = LmScorePair(3).fit([r.url for r in train], np.array([r.label for r in train]))
        probes = [r.url for r in train[:20]] + ["", _LONG_URL]
        full = pair.transform(probes)
        for sides in [(), ("benign",), ("malicious",), ("malicious", "benign"), SIDES]:
            columns = [SIDES.index(side) for side in sides]
            for rows in [slice(None), slice(0, 1), slice(-1, None)]:
                fresh = LmScorePair.from_dict(pair.to_dict())
                got = fresh.transform(probes[rows], sides)
                assert got.tobytes() == full[rows][:, columns].tobytes(), (sides, rows)
                for side in SIDES:
                    assert ("_table" in vars(getattr(fresh, side))) == (side in sides)

    def test_refit_drops_the_table(self):
        model = CharGramModel(order=2).fit(["ab"])
        pair = LmScorePair(order=2, benign=model, malicious=model)
        before = pair.transform(["abc"])
        model.fit(["bc", "bc"])
        after = pair.transform(["abc"])
        oracle = DictGramModel.from_model(model)
        assert tuple(after[0]) == (oracle.score("abc"), oracle.score("abc"))
        assert not np.array_equal(before, after)


def test_transform_bytes_are_frozen():
    train = generate_dataset("lm-train", 400, 0.3, seed=106).records
    urls = [r.url for r in train] + ["http://café.example/ü?q=ñ", "\udc00/\x07"]
    labels = np.array([r.label for r in train] + [0, 1])
    probes = [r.url for r in generate_dataset("lm-probe", 300, 0.3, seed=107).records]
    probes += [_LONG_URL, "", "http://\u4e2d\u6587.com/é", "\ud800x\udfff", "\x00\x1f\x7f\x85",
               BEGIN + END + UNK, "http://a.com/\U0001f600?\t=\n"]
    digest = hashlib.sha256()
    for order, k in [(1, 1.0), (2, 0.5), (3, 1.0), (4, 0.5), (5, 1.0)]:
        digest.update(LmScorePair(order, k).fit(urls, labels).transform(probes).tobytes())
    assert digest.hexdigest() == "81705023d53380598ba237c4b1731a68bfeeddf92e5abd230aaf6bf48aff3132"


class TestFitEqualsDictLoop:
    """``CharGramModel.fit``'s arrays against the per-character dict loop."""

    @given(
        urls=st.lists(_TEXT, max_size=12),
        order=st.integers(1, 6),
    )
    @example(urls=["é\udc00\x00\x7f", BEGIN + END + UNK, "", "\U0001f600a\t"], order=6)
    @settings(max_examples=80, deadline=None)
    def test_arrays_equal_dict_counts(self, urls, order):
        model = CharGramModel(order).fit(urls)
        keys, counts = DictGramModel.fit(urls, order).to_arrays()
        assert model.keys.dtype == np.uint8 and model.counts.dtype == np.int64
        assert np.array_equal(model.keys, keys)
        assert np.array_equal(model.counts, counts)
        # What fit makes, loading takes.
        assert LmScorePair.from_dict(LmScorePair(order, 1.0, model, model).to_dict())

    def test_counts_saved_in_the_narrowest_unsigned_type(self):
        for repeat, code in [(1, "|u1"), (255, "|u1"), (256, "<u2"), (70000, "<u4")]:
            saved = CharGramModel(1).fit(["a"] * repeat).to_dict()
            assert saved["keys"]["dtype"] == "|u1"
            assert saved["counts"]["dtype"] == code


def _side_records(keys, counts, counts_dtype=np.uint64) -> dict:
    """A model's saved arrays, written from arrays given in any form."""
    return {
        "keys": array_record(np.asarray(keys, np.uint8)),
        "counts": array_record(np.asarray(counts).astype(counts_dtype)),
    }


def _set(array, index, value):
    array[index] = value
    return array


class TestMalformedCounts:
    """Saved count arrays must be ones ``fit`` could have made.  Each edit
    takes copies of a fitted model's keys and counts and returns the saved
    arrays to load in their place."""

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (lambda k, c: _side_records(_set(k, (0, -1), _ID[BEGIN]), c), ModelError,
             "symbol ids .* not in the inventory"),
            (lambda k, c: _side_records(_set(k, (0, -1), 98), c), ModelError,
             "symbol ids .* not in the inventory"),
            (lambda k, c: _side_records(_set(k, (0, -1), 200), c), ModelError,
             "symbol ids .* not in the inventory"),
            (lambda k, c: _side_records(_set(k, (0, 0), 200), c), ModelError, "contexts hold"),
            (lambda k, c: _side_records(_set(k, (0, 1), _ID[BEGIN]), c), ModelError,
             "contexts hold"),
            (lambda k, c: _side_records(_set(k, (0, 0), _ID[END]), c), ModelError,
             "contexts hold"),
            (lambda k, c: _side_records(np.hstack([k[:, :1], k]), c), ArtifactError,
             r"'keys' has shape \[\d+, 4\], expected \[n, 3\]"),
            (lambda k, c: _side_records(k[:, 1:], c), ArtifactError,
             r"'keys' has shape \[\d+, 2\], expected \[n, 3\]"),
            (lambda k, c: _side_records(k, _set(c, 0, 0)), ModelError, "integers in"),
            (lambda k, c: _side_records(k, _set(c, 0, 2**53)), ModelError, "integers in"),
            (lambda k, c: _side_records(k, _set(c.astype(np.uint64), 0, 2**64 - 1)), ArtifactError,
             r"'counts' holds values outside int64"),
            (lambda k, c: {**_side_records(k, c), "counts": coded_record(_set(c, 0, -1), "<i8")},
             ArtifactError, r"'counts' has dtype '<i8', but its values are saved as '\|i1'"),
            (lambda k, c: _side_records(k, c, np.float64), ArtifactError,
             "'counts' has dtype '<f8'"),
            (lambda k, c: {**_side_records(k, c), "keys": coded_record(k, "<i8")},
             ArtifactError, r"'keys' has dtype '<i8', but its values are saved as '\|u1'"),
            (lambda k, c: _side_records(k, c[:-1]), ArtifactError, "'counts' has shape"),
            (lambda k, c: _side_records(k[[1, 0, *range(2, len(k))]], c), ModelError,
             "strictly increasing"),
            (lambda k, c: _side_records(_set(k, 1, k[0]), c), ModelError, "strictly increasing"),
            (lambda k, c: _side_records(k[::-1], c[::-1]), ModelError, "strictly increasing"),
        ],
        ids=[
            "symbol-begin", "symbol-beyond-ids", "symbol-non-ascii", "context-non-ascii",
            "context-begin-after-char", "context-end", "context-too-long", "context-too-short",
            "count-zero", "count-2**53", "count-2**64-1", "count-signed", "count-float",
            "keys-int64", "counts-fewer-than-keys", "keys-unsorted", "keys-duplicate",
            "keys-descending",
        ],
    )
    @pytest.mark.parametrize("side", ["benign", "malicious"])
    def test_rejected_at_load(self, side, edit, error, message):
        pair = _lm_pair()
        model = getattr(pair, side)
        payload = pair.to_dict()
        payload[side] = edit(model.keys.copy(), model.counts.copy())
        with pytest.raises(error, match=f"{side} .*{message}"):
            LmScorePair.from_dict(payload)

    def test_fitted_arrays_load(self):
        payload = _lm_pair().to_dict()
        assert LmScorePair.from_dict(payload).to_dict() == payload
        # A leading run of BEGIN and the catch-all are part of the inventory.
        model = CharGramModel(3).fit(["é" + UNK])
        assert [_ID[BEGIN], _ID[UNK], _ID[UNK]] in model.keys.tolist()
        payload["benign"] = model.to_dict()
        LmScorePair.from_dict(payload)


def _lm_pair() -> LmScorePair:
    return LmScorePair(order=3, k=1.0).fit(
        ["http://a.com/x", "https://b.org/?q=1"], np.array([0, 1])
    )
