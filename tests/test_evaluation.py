"""Tests for metrics, the baseline gate, and the rank aggregation."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urlsleuth.errors import DataError
from urlsleuth.models import ModelSpec, fit_model
from urlsleuth.evaluation import (
    FAILED_GATE_RANK,
    GATED_METRICS,
    MAX_SURVIVOR_RANK,
    METRIC_NAMES,
    MetricReport,
    _average_ranks,
    aggregate_rank_table,
    auc_score,
    baseline_report,
    beats_baseline,
    compute_metrics,
    confusion,
    metric_reports_from_csv,
    metric_reports_to_csv,
    per_dataset_ranks,
    rank_table_to_csv,
    round_half_up,
)

import oracles


def auc_brute_force(labels: np.ndarray, scores: np.ndarray) -> float:
    """Pairwise win-count definition, used as an independent oracle."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (len(pos) * len(neg)))


def report(acc=0.9, pcsn=0.9, rec=0.9, f1=0.9, auc=0.9, family="M") -> MetricReport:
    return MetricReport(
        acc=acc, pcsn=pcsn, rec=rec, f1=f1, auc=auc, dataset_id="d", family=family
    )


class TestRounding:
    @pytest.mark.parametrize(
        ("x", "want"),
        [(1.0, 1), (1.4, 1), (1.5, 2), (1.6, 2), (2.5, 3), (3.49, 3), (0.5, 1), (9.5, 10)],
    )
    def test_half_rounds_up(self, x, want):
        assert round_half_up(x) == want


class TestConfusionAndMetrics:
    def test_hand_confusion(self):
        y = np.array([1, 1, 0, 0, 1, 0])
        p = np.array([1, 0, 0, 1, 1, 0])
        cm = confusion(y, p)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 2, 1)
        assert cm.total == 6

    def test_hand_metrics(self):
        y = np.array([1, 1, 0, 0, 1, 0])
        p = np.array([1, 0, 0, 1, 1, 0])
        s = p.astype(np.float64)
        r = compute_metrics(y, p, s, dataset_id="d", family="M")
        assert r.acc == pytest.approx(4 / 6)
        assert r.pcsn == pytest.approx(2 / 3)
        assert r.rec == pytest.approx(2 / 3)
        assert r.f1 == pytest.approx(2 / 3)
        assert r.dataset_id == "d"
        assert r.family == "M"

    def test_f1_is_harmonic_mean(self):
        y = np.array([1, 1, 1, 0, 0, 0, 0, 0])
        p = np.array([1, 1, 0, 1, 1, 1, 0, 0])
        r = compute_metrics(y, p, p.astype(float))
        assert r.f1 == pytest.approx(2 * r.pcsn * r.rec / (r.pcsn + r.rec))

    def test_zero_denominators_give_zero(self):
        y = np.array([1, 1, 0])
        p = np.array([0, 0, 0])  # no positive predictions
        r = compute_metrics(y, p, np.zeros(3))
        assert r.pcsn == 0.0
        assert r.rec == 0.0
        assert r.f1 == 0.0

    def test_perfect_prediction(self):
        y = np.array([0, 1, 0, 1])
        r = compute_metrics(y, y, y.astype(float))
        assert (r.acc, r.pcsn, r.rec, r.f1, r.auc) == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="length"):
            compute_metrics(np.array([1, 0]), np.array([1]), np.array([1.0]))

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="at least one"):
            compute_metrics(np.array([]), np.array([]), np.array([]))

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(DataError, match="finite"):
            compute_metrics(np.array([1, 0]), np.array([1, 0]), np.array([np.nan, 0.2]))

    def test_label_swap_metamorphic(self):
        # Swapping classes swaps the roles of tp/tn, so accuracy is stable
        # while precision/recall move to the complementary class.
        rng = np.random.default_rng(14)
        y = (rng.random(200) > 0.4).astype(np.int64)
        p = (rng.random(200) > 0.5).astype(np.int64)
        a = compute_metrics(y, p, p.astype(float))
        b = compute_metrics(1 - y, 1 - p, (1 - p).astype(float))
        assert a.acc == pytest.approx(b.acc)
        cm_a = confusion(y, p)
        cm_b = confusion(1 - y, 1 - p)
        assert (cm_a.tp, cm_a.tn) == (cm_b.tn, cm_b.tp)
        assert (cm_a.fp, cm_a.fn) == (cm_b.fn, cm_b.fp)


class TestAuc:
    def test_perfect_separation(self):
        y = np.array([0, 0, 1, 1])
        assert auc_score(y, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_reversed_separation(self):
        y = np.array([0, 0, 1, 1])
        assert auc_score(y, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0

    def test_all_tied_scores(self):
        y = np.array([0, 1, 0, 1])
        assert auc_score(y, np.full(4, 0.7)) == pytest.approx(0.5)

    def test_hand_example_with_tie(self):
        y = np.array([1, 0, 1, 0])
        s = np.array([0.9, 0.5, 0.5, 0.1])
        # Pairs: (0.9,0.5) win, (0.9,0.1) win, (0.5,0.5) tie, (0.5,0.1) win.
        assert auc_score(y, s) == pytest.approx(3.5 / 4)

    def test_single_class_returns_zero(self):
        assert auc_score(np.ones(3), np.array([0.1, 0.5, 0.9])) == 0.0
        assert auc_score(np.zeros(3), np.array([0.1, 0.5, 0.9])) == 0.0

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(15)
        for trial in range(200):
            n = int(rng.integers(2, 500))
            y = (rng.random(n) > rng.uniform(0.2, 0.8)).astype(np.int64)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            # Quantized scores force plenty of exact ties.
            s = rng.integers(0, 5, size=n) / 4.0
            assert auc_score(y, s) == pytest.approx(
                auc_brute_force(y, s), abs=1e-9
            ), f"trial {trial}"

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, 5e-324, -1e300]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_ranks_match_the_loop_oracle_bit_for_bit(self, values):
        scores = np.array(values, dtype=np.float64)
        assert _average_ranks(scores).tobytes() == oracles.average_ranks(scores).tobytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_complement_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        y = (rng.random(n) > 0.5).astype(np.int64)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        s = rng.random(n)
        assert auc_score(y, s) + auc_score(1 - y, s) == pytest.approx(1.0)


class TestBaselineAndGate:
    def test_closed_forms(self):
        y = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])  # p = 0.3
        b = baseline_report(y, dataset_id="d")
        assert b.family == "BASELINE"
        assert b.acc == pytest.approx(0.3)
        assert b.pcsn == pytest.approx(0.3)
        assert b.rec == 1.0
        assert b.f1 == pytest.approx(2 * 0.3 / 1.3)
        assert b.auc == pytest.approx(0.5)

    def test_all_malicious_labels(self):
        b = baseline_report(np.ones(5, dtype=np.int64))
        assert (b.acc, b.pcsn, b.rec, b.f1) == (1.0, 1.0, 1.0, 1.0)
        assert b.auc == 0.0  # single-class AUC convention

    def test_all_benign_labels(self):
        b = baseline_report(np.zeros(5, dtype=np.int64))
        assert (b.acc, b.pcsn, b.rec, b.f1) == (0.0, 0.0, 0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            baseline_report(np.array([]))

    def test_gate_requires_strict_improvement_on_all_gated_metrics(self):
        base = report(acc=0.3, pcsn=0.3, rec=1.0, f1=0.46, auc=0.5, family="BASELINE")
        assert beats_baseline(report(acc=0.9, pcsn=0.9, rec=0.5, f1=0.9, auc=0.9), base)
        # Equality on any gated metric fails the gate.
        assert not beats_baseline(report(acc=0.3, pcsn=0.9, rec=0.9, f1=0.9, auc=0.9), base)
        assert not beats_baseline(report(acc=0.9, pcsn=0.9, rec=0.9, f1=0.9, auc=0.5), base)

    def test_recall_is_not_gated(self):
        assert "rec" not in GATED_METRICS
        base = report(acc=0.3, pcsn=0.3, rec=1.0, f1=0.46, auc=0.5, family="BASELINE")
        worse_recall = report(acc=0.9, pcsn=0.9, rec=0.2, f1=0.9, auc=0.9)
        assert beats_baseline(worse_recall, base)

    def test_gate_is_irreflexive(self):
        base = report(family="BASELINE")
        assert not beats_baseline(base, base)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=60))
    def test_baseline_artifact_scores_equal_the_closed_form(self, labels):
        # rank takes evaluate's BASELINE row in place of baseline_report.
        y = np.array(labels, dtype=np.int64)
        x = np.zeros((max(2, len(y)), 3))
        model = fit_model(ModelSpec("BASELINE", {}), x, np.resize(y, len(x)))
        scores = model.predict_scores(np.zeros((len(y), 3)))
        scored = compute_metrics(
            y, (scores >= 0.5).astype(np.int64), scores, dataset_id="d", family="BASELINE"
        )
        assert scored == baseline_report(y, dataset_id="d")


class TestPerDatasetRanks:
    def _baseline(self):
        return report(acc=0.3, pcsn=0.3, rec=1.0, f1=0.46, auc=0.5, family="BASELINE")

    def test_hand_grid(self):
        reports = {
            "A": report(acc=0.95, pcsn=0.95, rec=0.95, f1=0.95, auc=0.99),
            "B": report(acc=0.90, pcsn=0.90, rec=0.90, f1=0.90, auc=0.95),
            "C": report(acc=0.10, pcsn=0.10, rec=0.10, f1=0.10, auc=0.20),
        }
        ranks = per_dataset_ranks(reports, self._baseline())
        # A beats B on every metric; C fails the gate outright.
        assert ranks == {"A": 1, "B": 2, "C": FAILED_GATE_RANK}

    def test_identical_survivors_share_rank_one(self):
        reports = {"A": report(), "B": report()}
        ranks = per_dataset_ranks(reports, self._baseline())
        assert ranks == {"A": 1, "B": 1}

    def test_mixed_metric_ranks_average_half_up(self):
        # B wins three metrics, A wins two, so B averages 1.4 -> 1 and
        # A averages 1.6 -> 2.
        reports = {
            "A": report(acc=0.99, pcsn=0.99, rec=0.90, f1=0.90, auc=0.90),
            "B": report(acc=0.98, pcsn=0.98, rec=0.95, f1=0.95, auc=0.95),
        }
        ranks = per_dataset_ranks(reports, self._baseline())
        assert ranks == {"A": 2, "B": 1}

    def test_survivor_rank_capped_at_nine(self):
        # Twelve survivors strictly ordered on every metric: the worst one
        # averages rank 12, which the cap pulls back to 9.
        reports = {
            f"M{i:02d}": report(
                acc=0.99 - i * 0.001,
                pcsn=0.99 - i * 0.001,
                rec=0.99 - i * 0.001,
                f1=0.99 - i * 0.001,
                auc=0.99 - i * 0.001,
            )
            for i in range(12)
        }
        ranks = per_dataset_ranks(reports, self._baseline())
        assert ranks["M11"] == MAX_SURVIVOR_RANK
        assert ranks["M00"] == 1

    def test_all_fail_gate(self):
        weak = report(acc=0.1, pcsn=0.1, rec=0.1, f1=0.1, auc=0.4)
        ranks = per_dataset_ranks({"A": weak, "B": weak}, self._baseline())
        assert ranks == {"A": FAILED_GATE_RANK, "B": FAILED_GATE_RANK}

    def test_fewer_than_two_models_rejected(self):
        with pytest.raises(DataError, match="2 models"):
            per_dataset_ranks({"A": report()}, self._baseline())

    def test_dense_ranking_no_gaps_after_tie(self):
        reports = {
            "A": report(acc=0.99, pcsn=0.99, rec=0.99, f1=0.99, auc=0.99),
            "B": report(acc=0.95, pcsn=0.95, rec=0.95, f1=0.95, auc=0.95),
            "C": report(acc=0.95, pcsn=0.95, rec=0.95, f1=0.95, auc=0.95),
            "D": report(acc=0.90, pcsn=0.90, rec=0.90, f1=0.90, auc=0.90),
        }
        ranks = per_dataset_ranks(reports, self._baseline())
        assert ranks == {"A": 1, "B": 2, "C": 2, "D": 3}


class TestAggregateRankTable:
    def test_hand_aggregation(self):
        per_dataset = {
            "d1": {"KNN": 2, "RF": 10},
            "d2": {"KNN": 1, "RF": 4},
            "d3": {"KNN": 2, "RF": 4},
            "d4": {"KNN": 1, "RF": 4},
            "d5": {"KNN": 1, "RF": 4},
        }
        table = aggregate_rank_table(per_dataset)
        assert table.dataset_ids == ("d1", "d2", "d3", "d4", "d5")
        rnk = {row.family: row.rnk for row in table.rows}
        assert rnk["KNN"] == round_half_up(7 / 5)  # 1.4 -> 1
        assert rnk["RF"] == round_half_up(26 / 5)  # 5.2 -> 5

    def test_all_failures_aggregate_to_ten(self):
        table = aggregate_rank_table({"d1": {"M": 10}, "d2": {"M": 10}})
        assert [(row.family, row.rnk) for row in table.rows] == [("M", 10)]

    def test_half_mean_rounds_up(self):
        table = aggregate_rank_table({"d1": {"M": 1}, "d2": {"M": 2}})
        assert [(row.family, row.rnk) for row in table.rows] == [("M", 2)]  # mean 1.5

    def test_rows_sorted_by_family(self):
        table = aggregate_rank_table({"d1": {"Z": 1, "A": 2, "M": 3}})
        assert [row.family for row in table.rows] == ["A", "M", "Z"]

    def test_missing_family_cell_rejected(self):
        with pytest.raises(DataError, match="missing"):
            aggregate_rank_table({"d1": {"A": 1, "B": 2}, "d2": {"A": 1}})

    def test_out_of_range_rank_rejected(self):
        with pytest.raises(DataError, match="outside"):
            aggregate_rank_table({"d1": {"A": 0}})
        with pytest.raises(DataError, match="outside"):
            aggregate_rank_table({"d1": {"A": 11}})

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            aggregate_rank_table({})


class TestCsvRendering:
    def test_metric_reports_csv_shape(self):
        rows = [
            compute_metrics(
                np.array([1, 0, 1]),
                np.array([1, 0, 0]),
                np.array([0.9, 0.1, 0.4]),
                dataset_id="d1",
                family="LR",
            )
        ]
        text = metric_reports_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "dataset_id,family,acc,pcsn,rec,f1,auc"
        cells = lines[1].split(",")
        assert cells[0] == "d1"
        assert cells[1] == "LR"
        # repr floats round-trip exactly
        assert [float(c) for c in cells[2:]] == [
            rows[0].acc,
            rows[0].pcsn,
            rows[0].rec,
            rows[0].f1,
            rows[0].auc,
        ]

    def test_rank_table_csv_shape(self):
        table = aggregate_rank_table({"d1": {"A": 1, "B": 10}, "d2": {"A": 2, "B": 10}})
        lines = rank_table_to_csv(table).strip().split("\n")
        assert lines[0] == "family,d1,d2,RNK"
        assert lines[1] == "A,1,2,2"
        assert lines[2] == "B,10,10,10"

    @given(st.lists(
        st.tuples(
            st.text(st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",))),
            st.sampled_from(["LR", "BASELINE", "a,b", 'q"uote', "line\r\nbreak"]),
            *[st.floats(allow_nan=False, allow_infinity=False)] * len(METRIC_NAMES),
        ),
        max_size=8,
    ))
    @example([("d", "LR", -0.0, 5e-324, 1.0, 2.2250738585072009e-308, 0.1)])
    def test_metric_reports_read_back_bit_for_bit(self, rows):
        reports = [MetricReport(*values, dataset_id=ds, family=fam) for ds, fam, *values in rows]
        back = metric_reports_from_csv(metric_reports_to_csv(reports), "m.csv")
        keys = lambda rs: [(r.dataset_id, r.family) for r in rs]
        bits = lambda rs: [struct.pack("<5d", *(getattr(r, m) for m in METRIC_NAMES)) for r in rs]
        assert keys(back) == keys(reports)
        assert bits(back) == bits(reports)  # -0.0 and subnormals too

    @pytest.mark.parametrize("text, message", [
        ("", "does not start with the header"),
        ("dataset_id,family,acc,pcsn,rec,f1\nd,LR,1,1,1,1\n", "does not start with the header"),
        ("dataset_id,family,acc,pcsn,rec,f1,auc\nd,LR,1.0,1.0,1.0,1.0\n", "line 2 has 6 fields"),
        ("dataset_id,family,acc,pcsn,rec,f1,auc\nd,LR,1,1,1,1,1,1\n", "line 2 has 8 fields"),
        ("dataset_id,family,acc,pcsn,rec,f1,auc\nd,LR,1,1,x,1,1\n", "rec 'x' is not a finite"),
        ("dataset_id,family,acc,pcsn,rec,f1,auc\nd,LR,1,1,1,1,\n", "auc '' is not a finite float"),
        ("dataset_id,family,acc,pcsn,rec,f1,auc\nd,LR,nan,1,1,1,1\n", "acc 'nan' is not a finite"),
        ("dataset_id,family,acc,pcsn,rec,f1,auc\nd,LR,1,1,1,1,1\n\n", "line 3 has 0 fields"),
    ])
    def test_malformed_metric_reports_name_the_file(self, text, message):
        with pytest.raises(DataError, match="metrics file m.csv") as exc:
            metric_reports_from_csv(text, "m.csv")
        assert message in str(exc.value)

    def test_metric_names_cover_report_fields(self):
        assert METRIC_NAMES == ("acc", "pcsn", "rec", "f1", "auc")
