"""Detection metrics, the baseline gate, and cross-dataset rank tables.

Five metrics per (model, dataset): accuracy, precision, recall, F1, and
ROC AUC.  A model earns a real rank on a dataset only by strictly
beating the all-malicious baseline on accuracy, precision, F1, and AUC;
recall is excluded from the gate because the baseline's recall is
identically 1, which no model can strictly beat.  Gate failures carry
rank 10, survivors are ranked 1..9, and the aggregate RNK is the
half-up-rounded mean of per-dataset ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fileio import csv_text

METRIC_NAMES = ("acc", "pcsn", "rec", "f1", "auc")
GATED_METRICS = ("acc", "pcsn", "f1", "auc")  # rec excluded: baseline rec is 1
FAILED_GATE_RANK = 10
MAX_SURVIVOR_RANK = 9


def round_half_up(x: float) -> int:
    """Round to the nearest integer with halves going up (2.5 -> 3)."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricReport:
    acc: float
    pcsn: float
    rec: float
    f1: float
    auc: float
    dataset_id: str = ""
    family: str = ""


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def confusion(labels: np.ndarray, predictions: np.ndarray) -> ConfusionMatrix:
    return ConfusionMatrix(
        tp=int(np.sum((labels == 1) & (predictions == 1))),
        fp=int(np.sum((labels == 0) & (predictions == 1))),
        tn=int(np.sum((labels == 0) & (predictions == 0))),
        fn=int(np.sum((labels == 1) & (predictions == 0))),
    )


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks of scores ascending; tied scores share the average."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts  # 0-based position of each value's first copy
    return ((2 * first + counts - 1) / 2.0 + 1.0)[inverse]


def auc_score(labels: np.ndarray, scores: np.ndarray) -> float:
    """ROC AUC by the rank statistic: the probability that a random
    positive outscores a random negative, ties counted half.  A
    single-class input has no positive/negative pairs and yields 0."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(labels == 1))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.0
    ranks = _average_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def compute_metrics(
    labels, predictions, scores, dataset_id: str = "", family: str = ""
) -> MetricReport:
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    scores = np.asarray(scores, dtype=np.float64)
    if not (len(labels) == len(predictions) == len(scores)):
        raise DataError(
            f"length mismatch: {len(labels)} labels, {len(predictions)} predictions, "
            f"{len(scores)} scores"
        )
    if len(labels) == 0:
        raise DataError("metrics require at least one record")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores contain non-finite values")
    cm = confusion(labels, predictions)
    pcsn = _ratio(cm.tp, cm.tp + cm.fp)
    rec = _ratio(cm.tp, cm.tp + cm.fn)
    return MetricReport(
        acc=_ratio(cm.tp + cm.tn, cm.total),
        pcsn=pcsn,
        rec=rec,
        f1=_ratio(2.0 * pcsn * rec, pcsn + rec),
        auc=auc_score(labels, scores),
        dataset_id=dataset_id,
        family=family,
    )


def baseline_report(labels, dataset_id: str = "") -> MetricReport:
    """Metrics of the model that labels everything malicious.

    With malicious fraction p in (0, 1): ACC = PCSN = p, REC = 1,
    F1 = 2p/(1+p), and AUC = 0.5 because all scores tie.
    """
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise DataError("baseline report requires at least one record")
    ones = np.ones(len(labels))
    return compute_metrics(
        labels, ones.astype(np.int64), ones, dataset_id=dataset_id, family="BASELINE"
    )


def beats_baseline(report: MetricReport, baseline: MetricReport) -> bool:
    """Strictly greater than the baseline on every gated metric."""
    return all(
        getattr(report, m) > getattr(baseline, m) for m in GATED_METRICS
    )


def _dense_ranks(values: list[float]) -> list[int]:
    """Dense competition ranks, highest value first; ties share a rank."""
    distinct = sorted(set(values), reverse=True)
    position = {v: i + 1 for i, v in enumerate(distinct)}
    return [position[v] for v in values]


def per_dataset_ranks(
    reports: dict[str, MetricReport], baseline: MetricReport
) -> dict[str, int]:
    """Integer rank per model family on one dataset.

    Gate failures get 10.  Survivors get, per metric, a dense competition
    rank among survivors; the five metric ranks are averaged, rounded
    half-up, and capped at 9 so a survivor never collides with failures.
    """
    if len(reports) < 2:
        raise DataError("ranking requires at least 2 models")
    families = sorted(reports)
    survivors = [f for f in families if beats_baseline(reports[f], baseline)]
    ranks: dict[str, int] = {
        f: FAILED_GATE_RANK for f in families if f not in survivors
    }
    if survivors:
        per_metric: list[list[int]] = []
        for metric in METRIC_NAMES:
            per_metric.append(
                _dense_ranks([getattr(reports[f], metric) for f in survivors])
            )
        for i, fam in enumerate(survivors):
            mean_rank = sum(col[i] for col in per_metric) / len(METRIC_NAMES)
            ranks[fam] = min(round_half_up(mean_rank), MAX_SURVIVOR_RANK)
    return ranks


@dataclass(frozen=True)
class RankRow:
    family: str
    per_dataset: tuple[int, ...]
    rnk: int


@dataclass(frozen=True)
class RankTable:
    dataset_ids: tuple[str, ...]
    rows: tuple[RankRow, ...]  # sorted by family name

    def rnk_by_family(self) -> dict[str, int]:
        return {row.family: row.rnk for row in self.rows}


def aggregate_rank_table(
    per_dataset: dict[str, dict[str, int]]
) -> RankTable:
    """Aggregate per-dataset rank maps (dataset id -> family -> rank)
    into the cross-dataset table; RNK is the half-up-rounded mean."""
    if not per_dataset:
        raise DataError("rank aggregation requires at least one dataset")
    dataset_ids = tuple(per_dataset.keys())
    families = sorted(per_dataset[dataset_ids[0]])
    for ds_id in dataset_ids:
        if sorted(per_dataset[ds_id]) != families:
            raise DataError(
                f"dataset {ds_id!r} is missing ranks for some models"
            )
        for fam, rank in per_dataset[ds_id].items():
            if not 1 <= rank <= 10:
                raise DataError(
                    f"rank {rank} for {fam} on {ds_id!r} is outside [1, 10]"
                )
    rows = []
    for fam in families:
        cells = tuple(int(per_dataset[ds_id][fam]) for ds_id in dataset_ids)
        rows.append(
            RankRow(
                family=fam,
                per_dataset=cells,
                rnk=round_half_up(sum(cells) / len(cells)),
            )
        )
    return RankTable(dataset_ids=dataset_ids, rows=tuple(rows))


def metric_reports_to_csv(reports) -> str:
    """One row per (model, dataset) with the five metrics."""
    return csv_text(
        ["dataset_id", "family", *METRIC_NAMES],
        ([r.dataset_id, r.family] + [repr(getattr(r, m)) for m in METRIC_NAMES] for r in reports),
    )


def rank_table_to_csv(table: RankTable) -> str:
    """One row per model: per-dataset ranks then the aggregate RNK."""
    return csv_text(
        ["family", *table.dataset_ids, "RNK"],
        ([row.family, *row.per_dataset, row.rnk] for row in table.rows),
    )
