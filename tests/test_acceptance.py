"""Acceptance gate: ten numbered criteria, one test (and one pass/fail
line under ``pytest -v``) per criterion.

Criteria 8 and 9 drive the real CLI in subprocesses on a full-scale
synthetic corpus; the session fixture runs that experiment twice under
different hash seeds so determinism is checked end to end.
"""

from __future__ import annotations

import json
import math
import os
import random
import string
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from urlsleuth.charlm import SYMBOLS, CharGramModel, LmScorePair
from urlsleuth.evaluation import (
    aggregate_rank_table,
    auc_score,
    baseline_report,
    compute_metrics,
)
from urlsleuth.models.clustering import GaussianMixtureDetector, KMeansDetector
from urlsleuth.models.linear import logistic_grad
from urlsleuth.models.neighbors import KNearestNeighbors
from urlsleuth.models.neural import MlpClassifier
from urlsleuth.pipeline import MI_BIN_COUNT, fit_selector, load_pipeline, save_pipeline
from urlsleuth.synth import generate_dataset, materialize_run

from oracles import DictGramModel, logistic_loss_and_grad, mlp_loss_and_gradient

# Reference cross-benchmark rank grid: per-dataset ranks of ten detector
# families on five test datasets, with the expected aggregate RNK column.
REFERENCE_RANK_CELLS = {
    "KNN": (2, 1, 2, 1, 1),
    "LINEAR_SVM": (3, 5, 4, 4, 4),
    "RF": (10, 4, 4, 4, 4),
    "DT": (5, 7, 6, 6, 6),
    "LR": (6, 6, 7, 6, 6),
    "GNB": (10, 10, 10, 10, 10),
    "GBT": (10, 10, 10, 10, 10),
    "GMM": (10, 10, 10, 10, 10),
    "KMEANS": (10, 10, 10, 10, 10),
    "MLP": (10, 10, 10, 10, 10),
}
EXPECTED_RNK = {
    "KNN": 1,
    "LINEAR_SVM": 4,
    "RF": 5,
    "DT": 6,
    "LR": 6,
    "GNB": 10,
    "GBT": 10,
    "GMM": 10,
    "KMEANS": 10,
    "MLP": 10,
}

SUPERVISED = ("LR", "LINEAR_SVM", "DT", "RF", "GBT", "KNN", "GNB", "MLP")
CONSISTENT_FIVE = ("KNN", "DT", "RF", "LR", "LINEAR_SVM")


def _cli(args: list[str], hash_seed: str) -> float:
    """Run the CLI in a subprocess; returns elapsed wall seconds."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    start = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-m", "urlsleuth.cli", *args],
        env=env,
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - start
    assert result.returncode == 0, f"{args}:\n{result.stdout}\n{result.stderr}"
    return elapsed


@pytest.fixture(scope="session")
def experiment(tmp_path_factory):
    """Full-scale synthetic run (4 x 2000 URLs, 30% malicious, 2/1/1 split),
    executed twice with different hash seeds for the determinism check."""
    root = tmp_path_factory.mktemp("acceptance")
    config_path = materialize_run(
        root, n_datasets=4, n_records=2000, malicious_fraction=0.3, seed=20
    )
    timings: dict[str, float] = {}
    for tag, hash_seed in (("a", "1"), ("b", "31337")):
        out = root / f"out_{tag}"
        base = ["--config", str(config_path), "--out", str(out)]
        elapsed = 0.0
        elapsed += _cli(["train", *base], hash_seed)
        elapsed += _cli(["evaluate", *base], hash_seed)
        elapsed += _cli(["rank", *base], hash_seed)
        timings[tag] = elapsed
    return {
        "root": root,
        "config_path": config_path,
        "out_a": root / "out_a",
        "out_b": root / "out_b",
        "timings": timings,
    }


def test_criterion_01_rank_table_reproduction():
    start = time.monotonic()
    per_dataset = {
        f"DS{i + 1}": {fam: cells[i] for fam, cells in REFERENCE_RANK_CELLS.items()}
        for i in range(5)
    }
    table = aggregate_rank_table(per_dataset)
    got = {row.family: row.rnk for row in table.rows}
    elapsed = time.monotonic() - start
    print(f"criterion 1: aggregated RNK column {got} in {elapsed:.3f}s")
    assert got == EXPECTED_RNK
    assert elapsed < 1.0


def test_criterion_02_baseline_closed_forms():
    start = time.monotonic()
    labels = np.array([1] * 3 + [0] * 7)  # malicious fraction 0.3
    report = baseline_report(labels)
    elapsed = time.monotonic() - start
    print(
        f"criterion 2: rec={report.rec} pcsn={report.pcsn} acc={report.acc} "
        f"f1={report.f1!r} auc={report.auc} in {elapsed:.3f}s"
    )
    assert report.rec == 1.0
    assert abs(report.pcsn - 0.3) < 1e-9
    assert abs(report.acc - 0.3) < 1e-9
    # The stated F1 target 0.461538 is the 6-decimal rendering of the
    # exact value 2*0.3/1.3 = 6/13; assert both readings.
    assert abs(report.f1 - 6.0 / 13.0) < 1e-9
    assert round(report.f1, 6) == 0.461538
    assert abs(report.auc - 0.5) < 1e-9
    assert elapsed < 1.0


def test_criterion_03_metrics_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    max_auc_err = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 501))
        labels = (rng.random(n) > rng.uniform(0.2, 0.8)).astype(np.int64)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 6, size=n) / 5.0  # quantized: plenty of ties
        predictions = (scores >= 0.5).astype(np.int64)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        brute = (
            (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        ) / (len(pos) * len(neg))
        max_auc_err = max(max_auc_err, abs(auc_score(labels, scores) - float(brute)))
        report = compute_metrics(labels, predictions, scores)
        if report.pcsn + report.rec > 0:
            assert report.f1 == 2.0 * report.pcsn * report.rec / (report.pcsn + report.rec)
        else:
            assert report.f1 == 0.0
    elapsed = time.monotonic() - start
    print(f"criterion 3: max AUC error {max_auc_err:.2e} over 200 instances in {elapsed:.1f}s")
    assert max_auc_err < 1e-9
    assert elapsed < 10.0


def test_criterion_04_language_model_soundness():
    start = time.monotonic()
    rnd = random.Random(7)
    alphabet = string.ascii_lowercase + string.digits + "/:.?=&-_%"
    benign_corpus = [
        "http://www." + "".join(rnd.choice(alphabet) for _ in range(rnd.randrange(8, 30)))
        for _ in range(300)
    ]
    malicious_corpus = [
        "".join(rnd.choice(alphabet + "!$~@") for _ in range(rnd.randrange(20, 60)))
        for _ in range(300)
    ]
    benign = DictGramModel.from_model(CharGramModel(order=3).fit(benign_corpus))
    malicious = DictGramModel.from_model(CharGramModel(order=3).fit(malicious_corpus))
    worst = 0.0
    for _ in range(100):
        context = "".join(rnd.choice(alphabet + "\x02") for _ in range(2))
        for model in (benign, malicious):
            total = sum(model.conditional_prob(s, context) for s in SYMBOLS)
            worst = max(worst, abs(total - 1.0))
    assert worst < 1e-9

    twin_a = CharGramModel(order=3).fit(benign_corpus)
    twin_b = CharGramModel(order=3).fit(benign_corpus)
    probes = [
        "".join(rnd.choice(alphabet + "é#[]") for _ in range(rnd.randrange(1, 80)))
        for _ in range(1000)
    ]
    rows_ab = LmScorePair(order=3, benign=twin_a, malicious=twin_b).transform(probes)
    rows_ba = LmScorePair(order=3, benign=twin_b, malicious=twin_a).transform(probes)
    for pair, swapped in zip(rows_ab, rows_ba):
        assert tuple(pair) == tuple(swapped)
        assert pair[0] == pair[1]
    elapsed = time.monotonic() - start
    print(f"criterion 4: worst normalization error {worst:.2e} in {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_05_gradient_checks():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    n, d = 50, 5
    x = rng.normal(size=(n, d))
    y = (x @ rng.normal(size=d) + rng.normal(scale=0.8, size=n) > 0).astype(np.int64)
    eps = 1e-6

    def check(loss_fn, grad_fn, params):
        analytic = grad_fn(params)
        worst = 0.0
        for i in range(len(params)):
            hi, lo = params.copy(), params.copy()
            hi[i] += eps
            lo[i] -= eps
            numeric = (loss_fn(hi) - loss_fn(lo)) / (2 * eps)
            denom = max(abs(analytic[i]) + abs(numeric), 1e-8)
            worst = max(worst, abs(analytic[i] - numeric) / denom)
        return worst

    def lr_loss(p):
        return logistic_loss_and_grad(p, x, y, 0.1)[0]

    worst_lr = 0.0
    for _ in range(20):
        params = rng.normal(scale=0.6, size=d + 1)
        worst_lr = max(worst_lr, check(lr_loss, lambda p: logistic_grad(p, x, y, 0.1), params))

    clf = MlpClassifier(hidden_units=4, l2=0.05)

    def mlp_loss(p):
        return mlp_loss_and_gradient(clf, p, x, y)[0]

    worst_mlp = 0.0
    for _ in range(20):
        params = rng.normal(scale=0.4, size=clf.n_params(d))
        worst_mlp = max(worst_mlp, check(mlp_loss, lambda p: clf.gradient(p, x, y), params))

    elapsed = time.monotonic() - start
    print(
        f"criterion 5: worst relative error LR {worst_lr:.2e}, MLP {worst_mlp:.2e} "
        f"in {elapsed:.1f}s"
    )
    assert worst_lr < 1e-4
    assert worst_mlp < 1e-4
    assert elapsed < 30.0


def test_criterion_06_optimization_monotonicity():
    start = time.monotonic()
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        x = np.vstack(
            [
                rng.normal(loc=-1.0, size=(30, 3)),
                rng.normal(loc=1.0, size=(30, 3)),
            ]
        )
        y = np.array([0] * 30 + [1] * 30)
        km = KMeansDetector(n_clusters=3, seed=seed).fit(x, y)
        inertia = km.inertia_history_
        assert all(b <= a + 1e-8 for a, b in zip(inertia, inertia[1:])), f"seed {seed}"
        gmm = GaussianMixtureDetector(n_components=3, seed=seed).fit(x, y)
        loglik = gmm.loglik_history_
        assert all(
            b >= a - 1e-8 * max(1.0, abs(a)) for a, b in zip(loglik, loglik[1:])
        ), f"seed {seed}"
    elapsed = time.monotonic() - start
    print(f"criterion 6: 50 seeded runs per detector, monotone, in {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_07_knn_and_selector_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(23)

    x_train = rng.normal(size=(400, 8))
    y_train = (rng.random(400) > 0.5).astype(np.int64)
    queries = rng.normal(size=(100, 8))
    clf = KNearestNeighbors(k=5).fit(x_train, y_train)
    got_scores = clf.score_batch(queries)
    for i, q in enumerate(queries):
        d2 = ((x_train - q) ** 2).sum(axis=1)
        neighbors = np.argsort(d2, kind="stable")[:5]
        assert got_scores[i] == float(y_train[neighbors].mean()), f"query {i}"

    n, d = 500, 20
    x = np.hstack(
        [
            rng.normal(size=(n, 10)),
            rng.integers(0, 4, size=(n, 6)).astype(np.float64),
            np.ones((n, 4)),
        ]
    )
    y = (x[:, 2] + 0.8 * x[:, 11] > 1.0).astype(np.int64)
    selector = fit_selector(x, y, top_k=8)
    worst = 0.0
    oracle_scores = np.empty(d)
    for j in range(d):
        edges = np.quantile(x[:, j], np.linspace(0.0, 1.0, MI_BIN_COUNT + 1)[1:-1])
        bins = np.searchsorted(edges, x[:, j], side="right")
        joint = Counter(zip(bins.tolist(), y.tolist()))
        marg_b = Counter(bins.tolist())
        marg_y = Counter(y.tolist())
        mi = 0.0
        for (b, lab), c in joint.items():
            mi += (c / n) * math.log((c / n) / ((marg_b[b] / n) * (marg_y[lab] / n)))
        oracle_scores[j] = max(0.0, mi)
        worst = max(worst, abs(selector.score_per_feature[j] - oracle_scores[j]))
    oracle_order = np.lexsort((np.arange(d), -oracle_scores))
    oracle_kept = sorted(oracle_order[:8].tolist())
    elapsed = time.monotonic() - start
    print(f"criterion 7: worst MI deviation {worst:.2e} in {elapsed:.1f}s")
    assert worst < 1e-9
    assert selector.retained_indices.tolist() == oracle_kept
    assert elapsed < 30.0


def _read_rank_csv(path: Path) -> dict[str, dict[str, int]]:
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    out: dict[str, dict[str, int]] = {}
    for line in lines[1:]:
        cells = line.split(",")
        out[cells[0]] = {col: int(v) for col, v in zip(header[1:], cells[1:])}
    return out


def test_criterion_08_synthetic_cross_dataset_run(experiment):
    ranks = _read_rank_csv(experiment["out_a"] / "rank_test.csv")
    summary = json.loads(
        (experiment["out_a"] / "train_summary.json").read_text(encoding="utf-8")
    )
    test_ids = summary["partition"]["test"]
    per_family = {
        fam: [ranks[fam][ds_id] for ds_id in test_ids] for fam in ranks
    }
    elapsed = experiment["timings"]["a"]
    print(
        f"criterion 8: test datasets {test_ids}, per-family ranks {per_family}, "
        f"train+evaluate+rank wall time {elapsed:.1f}s"
    )
    for family in SUPERVISED:
        assert any(r < 10 for r in per_family[family]), (
            f"{family} failed the baseline gate on every test dataset"
        )
    for family in CONSISTENT_FIVE:
        assert all(r < 10 for r in per_family[family]), (
            f"{family} must pass the baseline gate on every test dataset"
        )
    assert elapsed < 600.0


def test_criterion_09_determinism_and_round_trip(experiment):
    out_a, out_b = experiment["out_a"], experiment["out_b"]
    compared = []
    for rel in sorted(
        p.relative_to(out_a).as_posix() for p in out_a.rglob("*") if p.is_file()
    ):
        a_bytes = (out_a / rel).read_bytes()
        b_bytes = (out_b / rel).read_bytes()
        assert a_bytes == b_bytes, f"{rel} differs between identically seeded runs"
        compared.append(rel)
    assert "rank_test.csv" in compared
    assert "metrics_test.csv" in compared
    assert "models/RF.json" in compared

    artifact = load_pipeline(out_a / "models" / "GBT.json")
    probe = [r.url for r in generate_dataset("probe", n_records=300, seed=77).records]
    labels_before, scores_before = artifact.predict(probe)
    resaved = experiment["root"] / "GBT_resaved.json"
    save_pipeline(artifact, resaved)
    restored = load_pipeline(resaved)
    labels_after, scores_after = restored.predict(probe)
    assert np.array_equal(labels_before, labels_after)
    assert np.array_equal(scores_before, scores_after)

    total = sum(experiment["timings"].values())
    print(
        f"criterion 9: {len(compared)} artifact files byte-identical across runs; "
        f"both runs took {total:.1f}s"
    )
    assert total < 600.0


def test_criterion_10_classify_throughput(experiment, tmp_path):
    bulk = generate_dataset("bulk", n_records=10_000, malicious_fraction=0.3, seed=123)
    urls_file = tmp_path / "bulk_urls.txt"
    urls_file.write_text("".join(r.url + "\n" for r in bulk.records), encoding="utf-8")
    out_file = tmp_path / "bulk_preds.csv"
    artifact = experiment["out_a"] / "models" / "LR.json"
    elapsed = _cli(
        [
            "classify",
            "--artifact",
            str(artifact),
            "--out-file",
            str(out_file),
            str(urls_file),
        ],
        hash_seed="0",
    )
    lines = out_file.read_text(encoding="utf-8").strip().split("\n")
    print(f"criterion 10: classified 10,000 URLs in {elapsed:.2f}s wall (single-threaded)")
    assert len(lines) == 10_001
    assert elapsed < 5.0
