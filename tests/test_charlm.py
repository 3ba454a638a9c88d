"""Tests for the add-k smoothed character n-gram language models."""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urlsleuth.charlm import (
    BEGIN,
    END,
    SYMBOLS,
    UNK,
    VOCAB_SIZE,
    CharGramModel,
    LmScorePair,
)
from urlsleuth.errors import ModelError


class TestHandOracles:
    """Probabilities worked out by hand for a one-string corpus."""

    def test_bigram_on_ab(self):
        m = CharGramModel(order=2, k=1.0).fit(["ab"])
        # Observed transitions: BEGIN->a, a->b, b->END, each once.
        assert m.conditional_prob("a", BEGIN) == pytest.approx((1 + 1) / (1 + 97))
        assert m.conditional_prob("b", "a") == pytest.approx(2 / 98)
        assert m.conditional_prob(END, "b") == pytest.approx(2 / 98)
        # Anything unseen under a seen context: (0 + 1) / (1 + 97).
        assert m.conditional_prob("z", "a") == pytest.approx(1 / 98)
        # Unseen context: uniform 1/V.
        assert m.conditional_prob("a", "q") == pytest.approx(1 / VOCAB_SIZE)

    def test_bigram_logprob_is_sum_of_transitions(self):
        m = CharGramModel(order=2, k=1.0).fit(["ab"])
        assert m.sequence_logprob("ab") == pytest.approx(3 * math.log(2 / 98))

    def test_duplicated_corpus_doubles_counts(self):
        m = CharGramModel(order=2, k=1.0).fit(["ab", "ab"])
        assert m.conditional_prob("b", "a") == pytest.approx((2 + 1) / (2 + 97))

    def test_trigram_context_is_two_chars(self):
        m = CharGramModel(order=3, k=1.0).fit(["abc"])
        assert m.conditional_prob("a", BEGIN + BEGIN) == pytest.approx(2 / 98)
        assert m.conditional_prob("c", "ab") == pytest.approx(2 / 98)
        assert m.conditional_prob(END, "bc") == pytest.approx(2 / 98)

    def test_untrained_model_is_uniform(self):
        m = CharGramModel(order=3, k=1.0)
        text = "abc"
        assert m.sequence_logprob(text) == pytest.approx(
            (len(text) + 1) * math.log(1 / VOCAB_SIZE)
        )

    def test_empty_text_scores_end_transition_only(self):
        m = CharGramModel(order=2, k=1.0).fit(["ab"])
        assert m.sequence_logprob("") == pytest.approx(math.log(1 / 98))

    def test_score_is_length_normalized(self):
        m = CharGramModel(order=2, k=1.0).fit(["ab"])
        url = "abab"
        assert m.score(url) == pytest.approx(m.sequence_logprob(url) / (len(url) + 1))


class TestModelBehaviour:
    def test_out_of_inventory_chars_fold_to_catchall(self):
        m = CharGramModel(order=2, k=1.0).fit(["café"])
        # The accented char was folded at training time, so the catch-all
        # symbol and any other non-ASCII char score identically.
        assert m.conditional_prob(UNK, "f") == m.conditional_prob("中", "f")
        assert m.sequence_logprob("café") == pytest.approx(m.sequence_logprob("caf" + UNK))

    def test_more_evidence_raises_probability(self):
        seen = CharGramModel(order=2, k=1.0).fit(["ab"])
        seen_more = CharGramModel(order=2, k=1.0).fit(["ab", "ab", "ab"])
        assert seen_more.conditional_prob("b", "a") > seen.conditional_prob("b", "a")

    def test_familiar_text_scores_higher(self):
        corpus = ["banana", "bandana", "cabana"]
        m = CharGramModel(order=3, k=1.0).fit(corpus)
        assert m.score("banana") > m.score("zqxjkw")

    def test_context_length_enforced(self):
        m = CharGramModel(order=3, k=1.0)
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

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_distribution_normalizes(self, context_source):
        rng = random.Random(5)
        corpus = ["".join(rng.choice("abc/:.") for _ in range(12)) for _ in range(30)]
        m = CharGramModel(order=3, k=1.0).fit(corpus)
        context = (context_source + BEGIN * 2)[:2]
        total = sum(m.conditional_prob(s, context) for s in SYMBOLS)
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(st.text(max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_logprob_finite_and_negative(self, text):
        m = CharGramModel(order=3, k=1.0).fit(["http://example.com"])
        lp = m.sequence_logprob(text)
        assert math.isfinite(lp)
        assert lp < 0.0

    def test_serialization_round_trip(self):
        urls = ["http://a.com/x", "https://b.org/?q=1", "http://c.net/é"]
        pair = LmScorePair(order=3, k=0.5).fit(urls, np.array([0, 1, 0]))
        restored = LmScorePair.from_dict(json.loads(json.dumps(pair.to_dict())))
        for m, r in ((pair.benign, restored.benign), (pair.malicious, restored.malicious)):
            for text in ["http://a.com/x", "zzz", "", "éé"]:
                assert r.sequence_logprob(text) == m.sequence_logprob(text)
        assert restored.to_dict() == pair.to_dict()


class TestScorePair:
    def test_wrapper_functions(self):
        benign = CharGramModel(order=2, k=1.0).fit(["aaaa", "aaab"])
        malicious = CharGramModel(order=2, k=1.0).fit(["zzzz", "zzzy"])
        pair = LmScorePair(order=2, benign=benign, malicious=malicious).transform(["aaaa"])[0]
        assert pair.shape == (2,)
        assert pair[0] == pytest.approx(benign.score("aaaa"))
        assert pair[1] == pytest.approx(malicious.score("aaaa"))
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
            mixed["benign"] = CharGramModel(benign).fit(["a"])._ctx_counts
            mixed["malicious"] = CharGramModel(malicious).fit(["b"])._ctx_counts
            with pytest.raises(ModelError, match=f"{side} context .* order 2 needs 1"):
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
        for i, url in enumerate(urls):
            assert tuple(mat[i]) == (pair.benign.score(url), pair.malicious.score(url))

    def test_round_trip(self):
        pair = LmScorePair(order=3, k=1.0).fit(["aaa", "zzz"], np.array([0, 1]))
        restored = LmScorePair.from_dict(pair.to_dict())
        assert np.array_equal(restored.transform(["aza"]), pair.transform(["aza"]))
