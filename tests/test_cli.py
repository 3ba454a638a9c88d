"""In-process tests for every CLI subcommand, and one `train` in a
subprocess whose stdout is a file."""

from __future__ import annotations

import csv
import errno
import gc
import io
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import tracemalloc
import traceback
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from urlsleuth import cli, corpus
from urlsleuth.charlm import SIDES, CharGramModel
from urlsleuth.cli import CSV_CHUNK_ROWS, _run_data, fit_run, main, score_datasets
from urlsleuth.config import DEFAULT_GRIDS, load_run_config
from urlsleuth.evaluation import metric_reports_to_csv
from urlsleuth.fileio import csv_text
from urlsleuth.models import FAMILIES, BinaryClassifier, ModelSpec, fit_model
from urlsleuth.models.base import array_record, columns_record
from urlsleuth.pipeline import PipelineArtifact, fit_chain, load_pipeline, save_pipeline
from urlsleuth.synth import generate_dataset, materialize_run
from urlsleuth.urlfeat import catalog

from conftest import (
    coded_record, columns_matrix, edit_arrays, read_artifact, records_to_lists, write_artifact,
    write_csv,
)
from oracles import DictGramModel


def read_csv(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> dict:
    """One small experiment run shared by the whole module: four tiny
    datasets, then ingest/audit/featurize/train executed once."""
    root = tmp_path_factory.mktemp("cli_run")
    config_path = materialize_run(
        root, n_datasets=4, n_records=120, malicious_fraction=0.3, seed=13
    )
    out_dir = root / "out"
    argv_base = ["--config", str(config_path)]
    for command in ("ingest", "audit", "featurize", "train"):
        assert main([command, *argv_base]) == 0, command
    config = json.loads(config_path.read_text(encoding="utf-8"))
    summary = json.loads((out_dir / "train_summary.json").read_text(encoding="utf-8"))
    return {
        "root": root,
        "config_path": config_path,
        "out_dir": out_dir,
        "dataset_ids": [e["id"] for e in config["datasets"]],
        "test_id": summary["partition"]["test"][0],
        "val_id": summary["partition"]["val"][0],
        "summary": summary,
    }


def variant_config(workspace, name: str, edit) -> Path:
    """The workspace config changed by ``edit``, saved beside it as ``name``
    (dataset paths are relative to the config)."""
    config = json.loads(workspace["config_path"].read_text(encoding="utf-8"))
    edit(config)
    path = workspace["root"] / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def copy_run(workspace, out: Path) -> Path:
    """``out`` holding a copy of the workspace's models and train summary."""
    shutil.copytree(workspace["out_dir"] / "models", out / "models")
    shutil.copy(workspace["out_dir"] / "train_summary.json", out)
    return out


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestIngest:
    def test_report_contents(self, workspace):
        report = json.loads(
            (workspace["out_dir"] / "ingest_report.json").read_text(encoding="utf-8")
        )
        assert sorted(report) == sorted(workspace["dataset_ids"])
        for stats in report.values():
            assert stats["rows_loaded"] == 120
            assert stats["duplicates_removed"] == 0
            assert stats["label_conflicts"] == 0
            assert stats["records_kept"] == 120
            assert stats["malicious_fraction"] == pytest.approx(0.3)

    def test_standardized_csvs_written(self, workspace):
        for ds_id in workspace["dataset_ids"]:
            rows = read_csv(workspace["out_dir"] / f"ingested_{ds_id}.csv")
            assert len(rows) == 120
            assert {row["label"] for row in rows} == {"benign", "malicious"}

    def test_duplicates_are_dropped_and_counted(self, tmp_path):
        write_csv(
            tmp_path / "dup.csv",
            [("http://a.com", "benign"), ("http://a.com", "malicious"), ("http://b.com", "benign")],
        )
        config = {
            "datasets": [
                {"id": "dup", "path": "dup.csv", "label_map": {"benign": 0, "malicious": 1}}
            ],
            "partition": {"train": 1, "val": 1, "test": 1},
        }
        # The partition needs 3 datasets, but ingest never partitions;
        # keep it valid by shipping three copies of the same file.
        config["datasets"] = [
            {"id": f"dup{i}", "path": "dup.csv", "label_map": {"benign": 0, "malicious": 1}}
            for i in range(3)
        ]
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["ingest", "--config", str(config_path)]) == 0
        report = json.loads((tmp_path / "out" / "ingest_report.json").read_text())
        assert report["dup0"]["duplicates_removed"] == 1
        assert report["dup0"]["label_conflicts"] == 1
        assert report["dup0"]["records_kept"] == 2


class TestAudit:
    def test_overlap_matrix_covers_ordered_pairs(self, workspace):
        rows = read_csv(workspace["out_dir"] / "audit_overlap.csv")
        assert len(rows) == 4 * 3
        for row in rows:
            frac = float(row["overlap_fraction"])
            assert 0.0 <= frac <= 1.0
            # Independently seeded datasets may share the odd short benign
            # URL, but must stay far below the 20% flag threshold.
            assert frac < 0.05
            assert row["flagged"] == "0"

    def test_flag_fires_on_heavy_overlap(self, tmp_path):
        rows = [(f"http://site{i}.example/", "benign") for i in range(8)]
        rows.append(("http://evil.example/", "malicious"))
        write_csv(tmp_path / "a.csv", rows)
        write_csv(tmp_path / "b.csv", rows[:5] + [("http://other.example/", "malicious")])
        config = {
            "datasets": [
                {"id": "a", "path": "a.csv", "label_map": {"benign": 0, "malicious": 1}},
                {"id": "b", "path": "b.csv", "label_map": {"benign": 0, "malicious": 1}},
                {"id": "c", "path": "a.csv", "label_map": {"benign": 0, "malicious": 1}},
            ],
            "partition": {"train": 1, "val": 1, "test": 1},
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["audit", "--config", str(config_path)]) == 0
        table = {
            (row["from_id"], row["to_id"]): row
            for row in read_csv(tmp_path / "out" / "audit_overlap.csv")
        }
        assert table[("b", "a")]["flagged"] == "1"  # 5/6 of b is inside a
        assert float(table[("a", "c")]["overlap_fraction"]) == 1.0

    def test_sample_files_capped_at_100(self, workspace):
        for ds_id in workspace["dataset_ids"]:
            rows = read_csv(workspace["out_dir"] / f"audit_sample_{ds_id}.csv")
            assert len(rows) == 100
            assert set(rows[0]) == {"url", "label"}


class TestFeaturize:
    def test_feature_csv_schema(self, workspace):
        names = catalog().names
        ds_id = workspace["dataset_ids"][0]
        path = workspace["out_dir"] / f"features_{ds_id}.csv"
        with open(path, "r", encoding="utf-8", newline="") as handle:
            header = next(csv.reader(handle))
        assert header == ["url", "label", *names]
        rows = read_csv(path)
        assert len(rows) == 120
        sample = rows[0]
        assert sample["label"] in {"0", "1"}
        assert float(sample["url_length"]) == len(sample["url"])


class TestTrain:
    def test_one_artifact_per_family(self, workspace):
        models_dir = workspace["out_dir"] / "models"
        for family in FAMILIES:
            assert (models_dir / f"{family}.json").exists(), family

    def test_every_family_shares_one_feature_chain(self, workspace):
        models_dir = workspace["out_dir"] / "models"
        payloads = [
            json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(models_dir.glob("*.json"))
        ]
        assert len(payloads) == len(FAMILIES)
        digests = {payload["chain"] for payload in payloads}
        assert len(digests) == 1
        assert [p.name for p in (models_dir / "chains").iterdir()] == [f"{digests.pop()}.json"]

    def test_summary_partition_and_choices(self, workspace):
        summary = workspace["summary"]
        part = summary["partition"]
        assert len(part["train"]) == 2
        assert len(part["val"]) == 1
        assert len(part["test"]) == 1
        assert sorted(part["train"] + part["val"] + part["test"]) == sorted(
            workspace["dataset_ids"]
        )
        assert sorted(summary["chosen"]) == sorted(FAMILIES)
        assert summary["chosen"]["KNN"]["hyperparameters"].keys() == {"k"}

    def test_each_artifact_equals_a_fresh_fit_of_its_chosen_spec(self, workspace, tmp_path):
        cfg = load_run_config(workspace["config_path"])
        by_id = {
            e.id: corpus.deduplicate(corpus.load_dataset(str(e.path), e.label_map, e.id))
            for e in cfg.datasets
        }
        summary = workspace["summary"]
        records = [r for i in summary["partition"]["train"] for r in by_id[i].records]
        labels = np.array([r.label for r in records], dtype=np.int64)
        chain, X_train = fit_chain(
            [r.url for r in records],
            labels,
            lm_order=cfg.lm.order,
            lm_smoothing=cfg.lm.smoothing_k,
            top_k=cfg.features.selector_top_k,
            projection_variance=cfg.features.projection_variance,
        )
        for family in FAMILIES:
            chosen = summary["chosen"][family]
            spec = ModelSpec(family, chosen["hyperparameters"], chosen["seed"])
            fresh = tmp_path / f"{family}.json"
            save_pipeline(PipelineArtifact(chain, fit_model(spec, X_train, labels)), fresh)
            saved = workspace["out_dir"] / "models" / f"{family}.json"
            assert saved.read_bytes() == fresh.read_bytes(), family

    def test_each_grid_point_is_fitted_once(self, workspace, tmp_path, monkeypatch):
        # The families fit in forked children, so each fit is logged to a
        # file that every process appends to.
        log = tmp_path / "fits.txt"
        fit = BinaryClassifier.fit

        def counted(self, X, y):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {self.family}\n")
            return fit(self, X, y)

        monkeypatch.setattr(BinaryClassifier, "fit", counted)
        argv = ["train", "--config", str(workspace["config_path"]), "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        pids, fits = zip(*(line.split() for line in log.read_text(encoding="utf-8").splitlines()))
        # an empty grid is one point, the family's defaults
        points = {f: math.prod(len(v) for v in DEFAULT_GRIDS[f].values()) for f in FAMILIES}
        assert Counter(fits) == points
        assert len(fits) == 16
        if len(os.sched_getaffinity(0)) > 1:  # every family fitted in a child
            assert str(os.getpid()) not in pids

    def test_one_cpu_writes_the_same_bytes(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        out = tmp_path / "out"
        assert main(["train", "--config", str(workspace["config_path"]), "--out", str(out)]) == 0
        assert tree_bytes(out / "models") == tree_bytes(workspace["out_dir"] / "models")
        summary = "train_summary.json"
        assert (out / summary).read_bytes() == (workspace["out_dir"] / summary).read_bytes()

    def test_family_failing_in_a_child_ends_train_as_in_process(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        config = variant_config(  # every RF point fails: bootstrap must be a bool
            workspace, "grid_RF_failing.json",
            lambda c: c.update(grids={"RF": {"bootstrap": ["false"], "n_trees": [3]}}),
        )
        errors = []
        for cpus in (os.sched_getaffinity(0), {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            out = tmp_path / f"cpus{len(cpus)}"
            with pytest.warns(UserWarning, match="failed to fit"):
                assert main(["train", "--config", str(config), "--out", str(out)]) == 1
            errors.append(capsys.readouterr().err)
            saved = sorted(p.stem for p in (out / "models").glob("*.json"))
            assert saved == sorted(FAMILIES[:FAMILIES.index("RF")])
            assert not (out / "train_summary.json").exists()
            assert multiprocessing.active_children() == []
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: invalid RF hyperparameters: bootstrap must be")

    def test_child_ending_without_a_model_is_an_error(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        parent, search = os.getpid(), cli.grid_search

        def dying(family, *args, **kwargs):
            if family == "KNN" and os.getpid() != parent:
                os._exit(3)
            return search(family, *args, **kwargs)

        monkeypatch.setattr(cli, "grid_search", dying)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # fit in children
        out = tmp_path / "out"
        assert main(["train", "--config", str(workspace["config_path"]), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: the process fitting KNN ended without a model\n"
        saved = sorted(p.stem for p in (out / "models").glob("*.json"))
        assert saved == sorted(FAMILIES[:FAMILIES.index("KNN")])
        assert multiprocessing.active_children() == []

    def test_failed_grid_point_warns_once_in_the_parent(self, workspace, tmp_path):
        config = variant_config(
            workspace, "grid_MLP_mixed_full.json",
            lambda c: c.update(grids={"MLP": {"hidden_units": [-1, 4]}}),
        )
        argv = ["train", "--config", str(config), "--out", str(tmp_path)]
        with pytest.warns(UserWarning, match="-1.*failed to fit") as caught:
            assert main(argv) == 0
        assert sum("failed to fit" in str(w.message) for w in caught) == 1
        summary = json.loads((tmp_path / "train_summary.json").read_text(encoding="utf-8"))
        assert summary["chosen"]["MLP"]["hyperparameters"] == {"hidden_units": 4}
        # As in one process, the warning is issued under urlsleuth.cli, and
        # the default action shows it once however often train runs.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("ignore")
            warnings.filterwarnings("default", module=r"urlsleuth\.cli$")
            for run in range(2):
                assert main(["train", "--config", str(config), "--out", str(tmp_path / f"again{run}")]) == 0
        assert sum("failed to fit" in str(w.message) for w in caught) == 1

    def test_error_raised_in_a_child_keeps_its_traceback(self, workspace, tmp_path, monkeypatch):
        parent, search = os.getpid(), cli.grid_search

        def broken_knn_search(family, *args, **kwargs):
            if family == "KNN" and os.getpid() != parent:
                raise ValueError("a bug while fitting")
            return search(family, *args, **kwargs)

        monkeypatch.setattr(cli, "grid_search", broken_knn_search)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # fit in children
        argv = ["train", "--config", str(workspace["config_path"]), "--out", str(tmp_path)]
        with pytest.raises(ValueError, match="a bug while fitting") as raised:
            main(argv)
        shown = "".join(traceback.format_exception(raised.value))
        assert "in broken_knn_search" in shown and "ChildTraceback" in shown
        saved = sorted(p.stem for p in (tmp_path / "models").glob("*.json"))
        assert saved == sorted(FAMILIES[:FAMILIES.index("KNN")])
        assert multiprocessing.active_children() == []

    def test_redirected_output_holds_each_line_once(self, workspace, tmp_path):
        """A child forked while the parent's stdout buffer held a line would
        write that line again at its exit."""
        config = variant_config(
            workspace, "grid_MLP_mixed_redirected.json",
            lambda c: c.update(grids={"MLP": {"hidden_units": [-1, 4]}}),
        )
        stdout, stderr = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            argv = ["train", "--config", str(config), "--out", str(tmp_path / "out")]
            code = subprocess.run([sys.executable, "-m", "urlsleuth.cli", *argv],
                                  stdout=out, stderr=err, stdin=subprocess.DEVNULL).returncode
        assert code == 0, stderr.read_text(encoding="utf-8")
        lines = stdout.read_text(encoding="utf-8").splitlines()
        trained = [line.split(":")[0].split()[1] for line in lines if line.startswith("trained ")]
        assert trained == list(FAMILIES)
        assert len(lines) == len(FAMILIES) + 1  # and "artifacts written to ..."
        assert stderr.read_text(encoding="utf-8").count("failed to fit") == 1

    def test_closing_fit_run_early_leaves_no_child(self, workspace):
        cfg = load_run_config(workspace["config_path"])
        plan, data = _run_data(cfg)
        runs = fit_run(cfg, plan, data, FAMILIES)
        assert next(runs).model.spec.family == FAMILIES[0]
        children = multiprocessing.active_children()
        runs.close()
        assert multiprocessing.active_children() == []
        assert all(child.exitcode is not None for child in children)

    def test_single_family_flag(self, workspace, tmp_path):
        out = tmp_path / "solo"
        code = main(
            ["train", "--config", str(workspace["config_path"]), "--out", str(out), "--model", "KNN"]
        )
        assert code == 0
        assert sorted(p.name for p in (out / "models").glob("*.json")) == ["KNN.json"]
        assert sorted(p.name for p in (out / "models").iterdir()) == ["KNN.json", "chains"]
        assert len(list((out / "models" / "chains").iterdir())) == 1

    def test_single_family_trains_share_one_chain_file(self, workspace, tmp_path):
        argv = ["train", "--config", str(workspace["config_path"]), "--out", str(tmp_path)]
        for family in ("LR", "KNN"):
            assert main([*argv, "--model", family]) == 0
        (chain_file,) = (tmp_path / "models" / "chains").iterdir()
        models_dir = workspace["out_dir"] / "models"
        digest = json.loads((models_dir / "LR.json").read_text(encoding="utf-8"))["chain"]
        full = models_dir / "chains" / f"{digest}.json"  # from one full train
        assert chain_file.name == full.name
        assert chain_file.read_bytes() == full.read_bytes()

    def test_retrain_with_another_config_adds_a_chain(self, workspace, tmp_path, monkeypatch):
        out = tmp_path / "out"
        config_path = workspace["config_path"]
        for family in ("KNN", "LR"):
            assert main(["train", "--config", str(config_path), "--out", str(out),
                         "--model", family]) == 0
        knn_path = out / "models" / "KNN.json"
        knn_bytes = knn_path.read_bytes()
        probe = [r.url for r in generate_dataset("probe", n_records=80, seed=5).records]
        labels_before, scores_before = load_pipeline(knn_path).predict(probe)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config.setdefault("features", {})["selector_top_k"] = 20
        # Dataset paths are relative to the config, so it sits beside run.json.
        other = workspace["root"] / "top_k_20.json"
        other.write_text(json.dumps(config), encoding="utf-8")
        assert load_run_config(config_path).features.selector_top_k != 20
        argv = ["train", "--config", str(other), "--out", str(out), "--model", "LR"]
        assert main(argv) == 0
        assert len(list((out / "models" / "chains").iterdir())) == 2
        assert knn_path.read_bytes() == knn_bytes
        labels_after, scores_after = load_pipeline(knn_path).predict(probe)
        assert np.array_equal(labels_before, labels_after)
        assert np.array_equal(scores_before, scores_after)
        calls = []
        featurize = PipelineArtifact.featurize

        def counted(self, urls):
            calls.append(len(urls))
            return featurize(self, urls)

        monkeypatch.setattr(PipelineArtifact, "featurize", counted)
        assert main(["evaluate", "--config", str(other), "--out", str(out)]) == 0
        assert len(calls) == 2  # one test dataset, two distinct chains

    def test_full_retrain_with_another_config_leaves_one_chain(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(workspace["out_dir"] / "models", out / "models")  # selector_top_k 40
        (old_chain,) = (out / "models" / "chains").iterdir()
        config = json.loads(workspace["config_path"].read_text(encoding="utf-8"))
        assert load_run_config(workspace["config_path"]).features.selector_top_k == 40
        config.setdefault("features", {})["selector_top_k"] = 20
        # Dataset paths are relative to the config, so it sits beside run.json.
        other = workspace["root"] / "top_k_20_full.json"
        other.write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--config", str(other), "--out", str(out)]) == 0
        assert f"removed unused chain {old_chain.name}" in capsys.readouterr().out
        (chain_file,) = (out / "models" / "chains").iterdir()
        assert chain_file.name != old_chain.name
        for family in FAMILIES:
            payload, _ = read_artifact(out / "models" / f"{family}.json")
            assert f"{payload['chain']}.json" == chain_file.name
        assert load_pipeline(out / "models" / "LR.json").predict(["http://a.example/x"])

    def test_retrain_is_byte_identical(self, workspace, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert (
                main(
                    [
                        "train",
                        "--config",
                        str(workspace["config_path"]),
                        "--out",
                        str(out),
                        "--model",
                        "RF",
                    ]
                )
                == 0
            )
        assert (out_a / "models" / "RF.json").read_bytes() == (
            out_b / "models" / "RF.json"
        ).read_bytes()

    def test_single_family_train_keeps_the_other_entries(self, workspace, tmp_path):
        out = copy_run(workspace, tmp_path / "out")
        before = workspace["summary"]
        assert before["chosen"]["RF"]["hyperparameters"] != {"n_trees": 3}
        config = variant_config(
            workspace, "rf_3_trees.json", lambda c: c.update(grids={"RF": {"n_trees": [3]}})
        )
        assert main(["train", "--config", str(config), "--out", str(out), "--model", "RF"]) == 0
        summary = json.loads((out / "train_summary.json").read_text(encoding="utf-8"))
        assert summary["partition"] == before["partition"]
        assert sorted(summary["chosen"]) == sorted(FAMILIES)
        assert summary["chosen"]["RF"]["hyperparameters"] == {"n_trees": 3}
        others = lambda chosen: {f: e for f, e in chosen.items() if f != "RF"}
        assert others(summary["chosen"]) == others(before["chosen"])


class TestEvaluate:
    def test_metrics_csv_for_test_partition(self, workspace):
        assert main(["evaluate", "--config", str(workspace["config_path"])]) == 0
        rows = read_csv(workspace["out_dir"] / "metrics_test.csv")
        assert len(rows) == len(FAMILIES)  # one test dataset x 11 families
        assert {row["family"] for row in rows} == set(FAMILIES)
        assert {row["dataset_id"] for row in rows} == {workspace["test_id"]}
        for row in rows:
            for metric in ("acc", "pcsn", "rec", "f1", "auc"):
                assert 0.0 <= float(row[metric]) <= 1.0

    def test_baseline_row_has_full_recall(self, workspace):
        rows = read_csv(workspace["out_dir"] / "metrics_test.csv")
        baseline = next(row for row in rows if row["family"] == "BASELINE")
        assert float(baseline["rec"]) == 1.0
        assert float(baseline["acc"]) == pytest.approx(0.3)

    def test_val_partition_flag(self, workspace):
        code = main(
            ["evaluate", "--config", str(workspace["config_path"]), "--partition", "val"]
        )
        assert code == 0
        rows = read_csv(workspace["out_dir"] / "metrics_val.csv")
        assert {row["dataset_id"] for row in rows} == {workspace["val_id"]}

    def test_rerun_byte_identical(self, workspace):
        path = workspace["out_dir"] / "metrics_test.csv"
        first = path.read_bytes()
        assert main(["evaluate", "--config", str(workspace["config_path"])]) == 0
        assert path.read_bytes() == first

    def test_each_distinct_chain_featurized_once(self, workspace, tmp_path, monkeypatch):
        config = str(workspace["config_path"])
        shutil.copytree(workspace["out_dir"] / "models", tmp_path / "same" / "models")
        shutil.copytree(workspace["out_dir"] / "models", tmp_path / "mixed" / "models")
        (tmp_path / "solo" / "models").mkdir(parents=True)
        lr_path = tmp_path / "mixed" / "models" / "LR.json"
        payload, chain = read_artifact(lr_path)
        # A negated scale mirrors every feature, so LR's predictions flip.
        edit_arrays(chain["scaler"], lambda s: s.update(std=[-v for v in s["std"]]))
        write_artifact(payload, chain, lr_path)
        write_artifact(payload, chain, tmp_path / "solo" / "models" / "LR.json")
        calls = []
        featurize = PipelineArtifact.featurize

        def counted(self, urls):
            calls.append(len(urls))
            return featurize(self, urls)

        monkeypatch.setattr(PipelineArtifact, "featurize", counted)
        rows = {}
        for name, n_chains in (("same", 1), ("mixed", 2), ("solo", 1)):
            calls.clear()
            assert main(["evaluate", "--config", config, "--out", str(tmp_path / name)]) == 0
            assert len(calls) == n_chains, name  # one test dataset
            rows[name] = read_csv(tmp_path / name / "metrics_test.csv")
        assert rows["solo"] != [row for row in rows["same"] if row["family"] == "LR"]
        # The edited LR is scored through its own chain, every other family
        # through the shared one.
        expected = [row for row in rows["same"] if row["family"] != "LR"] + rows["solo"]
        key = lambda row: row["family"]
        assert sorted(rows["mixed"], key=key) == sorted(expected, key=key)


class TestRank:
    def test_rank_table_for_test_partition(self, workspace):
        assert main(["rank", "--config", str(workspace["config_path"])]) == 0
        rows = read_csv(workspace["out_dir"] / "rank_test.csv")
        families = [row["family"] for row in rows]
        assert families == sorted(set(FAMILIES) - {"BASELINE"})
        for row in rows:
            assert 1 <= int(row["RNK"]) <= 10
            assert 1 <= int(row[workspace["test_id"]]) <= 10

    def test_supervised_families_beat_baseline_on_synthetic_data(self, workspace):
        rows = read_csv(workspace["out_dir"] / "rank_test.csv")
        by_family = {row["family"]: int(row["RNK"]) for row in rows}
        for family in ("LR", "DT", "RF", "KNN", "GNB"):
            assert by_family[family] < 10, family


class TestRecordedPartition:
    """evaluate, rank and train --model use the models in --out only on
    the partition its train_summary.json records."""

    @pytest.fixture
    def other_seed(self, workspace):
        def edit(config):
            config["partition"]["seed"] += 1

        return variant_config(workspace, "partition_seed.json", edit)

    @pytest.mark.parametrize("argv", [["evaluate"], ["rank"], ["train", "--model", "RF"]])
    def test_other_partition_refused(self, argv, workspace, other_seed, tmp_path, capsys):
        out = copy_run(workspace, tmp_path / "out")
        before = tree_bytes(out)
        capsys.readouterr()
        assert main([*argv, "--config", str(other_seed), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: the models in {out} were trained on partition ")
        recorded = workspace["summary"]["partition"]
        assert json.dumps(recorded, sort_keys=True) in err
        assert f'"seed": {recorded["seed"] + 1}' in err
        assert "Traceback" not in err
        assert tree_bytes(out) == before

    @pytest.mark.parametrize("text", ["{", "[]", '{"partition": {}}', '{"chosen": {}}'])
    @pytest.mark.parametrize("argv", [["evaluate"], ["train", "--model", "RF"]])
    def test_malformed_summary_reported(self, argv, text, workspace, tmp_path, capsys):
        out = copy_run(workspace, tmp_path / "out")
        (out / "train_summary.json").write_text(text, encoding="utf-8")
        assert main([*argv, "--config", str(workspace["config_path"]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "train_summary.json" in err
        assert "Traceback" not in err

    def test_rank_refused_before_the_metrics_file_is_read(
        self, workspace, other_seed, tmp_path, monkeypatch, capsys
    ):
        out = copy_run(workspace, tmp_path / "out")
        assert main(["evaluate", "--config", str(workspace["config_path"]), "--out", str(out)]) == 0
        before = tree_bytes(out)

        def unread(*args):
            raise AssertionError(f"read {args}")

        for module, name in ((corpus, "load_dataset"), (cli, "load_pipeline"),
                             (cli, "metric_reports_from_csv")):
            monkeypatch.setattr(module, name, unread)
        capsys.readouterr()
        assert main(["rank", "--config", str(other_seed), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: the models in {out} were trained on ")
        assert tree_bytes(out) == before

    def test_models_without_a_summary_still_evaluate(self, workspace, other_seed, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(workspace["out_dir"] / "models", out / "models")
        assert main(["evaluate", "--config", str(other_seed), "--out", str(out)]) == 0

    def test_full_train_replaces_the_recorded_partition(self, workspace, other_seed, tmp_path):
        out = copy_run(workspace, tmp_path / "out")
        assert main(["train", "--config", str(other_seed), "--out", str(out)]) == 0
        summary = json.loads((out / "train_summary.json").read_text(encoding="utf-8"))
        assert summary["partition"]["seed"] == workspace["summary"]["partition"]["seed"] + 1
        assert main(["evaluate", "--config", str(other_seed), "--out", str(out)]) == 0


class TestRankReuse:
    """rank builds its table from evaluate's metrics file when the file
    scores every saved model, and scores the models itself otherwise."""

    @pytest.fixture(scope="class", params=[20, 21], ids=lambda seed: f"seed={seed}")
    def run(self, request, tmp_path_factory):
        root = tmp_path_factory.mktemp(f"reuse_{request.param}")
        config = materialize_run(
            root, n_datasets=4, n_records=120, malicious_fraction=0.3, seed=request.param
        )
        for command in ("train", "evaluate", "rank"):
            assert main([command, "--config", str(config)]) == 0
        return config, root / "out"

    @staticmethod
    def rank(config, out, monkeypatch) -> int:
        """``rank`` on ``out``; returns how many datasets it scored itself."""
        scored = []
        score = cli.score_datasets

        def counted(artifacts, data, ids):
            scored.extend(ids)
            return score(artifacts, data, ids)

        monkeypatch.setattr(cli, "score_datasets", counted)
        assert main(["rank", "--config", str(config), "--out", str(out)]) == 0
        return len(scored)

    def test_table_equals_the_scored_table(self, run, tmp_path, monkeypatch):
        config, out = run
        reused, scored = tmp_path / "reused", tmp_path / "scored"
        shutil.copytree(out, reused)
        shutil.copytree(out, scored)
        (scored / "metrics_test.csv").unlink()
        assert self.rank(config, reused, monkeypatch) == 0
        assert self.rank(config, scored, monkeypatch) == 1
        assert (reused / "rank_test.csv").read_bytes() == (scored / "rank_test.csv").read_bytes()

    def test_reuse_reads_no_dataset_model_or_chain_file(self, run, tmp_path, monkeypatch):
        config, out = run
        copy = shutil.copytree(out, tmp_path / "out")

        def unread(*args):
            raise AssertionError(f"read {args}")

        monkeypatch.setattr(corpus, "load_dataset", unread)
        monkeypatch.setattr(cli, "load_pipeline", unread)
        assert self.rank(config, copy, monkeypatch) == 0

    @pytest.mark.parametrize("family", ["GBT", "BASELINE"])
    def test_missing_rows_are_scored(self, family, run, tmp_path, monkeypatch):
        config, out = run
        copy = shutil.copytree(out, tmp_path / "out")
        path = copy / "metrics_test.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(line for line in lines if f",{family}," not in line), encoding="utf-8")
        assert self.rank(config, copy, monkeypatch) == 1
        assert (copy / "rank_test.csv").read_bytes() == (out / "rank_test.csv").read_bytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("auc", "AUC", 1), "does not start with the header"),
        (lambda text: text[:-1] + ",0.5\n", "has 8 fields, expected 7"),
        (lambda text: text + text.split("\n", 2)[1] + "\n", "holds two rows for"),
        (lambda text: text.rsplit(",", 1)[0] + ",one\n", "auc 'one' is not a finite float"),
    ])
    def test_malformed_metrics_file_is_an_error(self, edit, message, run, tmp_path, monkeypatch,
                                                capsys):
        config, out = run
        copy = shutil.copytree(out, tmp_path / "out")
        path = copy / "metrics_test.csv"
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        before = tree_bytes(copy)
        monkeypatch.setattr(cli, "score_datasets", lambda *args: pytest.fail("rescored"))
        capsys.readouterr()
        assert main(["rank", "--config", str(config), "--out", str(copy)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: metrics file {path}")
        assert message in err
        assert tree_bytes(copy) == before

    @pytest.mark.parametrize("argv", [[], ["--model", "LR"]], ids=["full", "LR"])
    def test_train_removes_the_metrics_files(self, argv, run, tmp_path, capsys):
        config, out = run
        copy = shutil.copytree(out, tmp_path / "out")
        assert main(["evaluate", "--config", str(config), "--out", str(copy),
                     "--partition", "val"]) == 0
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--out", str(copy), *argv]) == 0
        assert not list(copy.glob("metrics_*.csv"))
        printed = capsys.readouterr().out
        assert "removed metrics_val.csv" in printed and "removed metrics_test.csv" in printed


class TestInMemoryRun:
    @pytest.fixture(scope="class")
    def in_memory(self, workspace):
        cfg = load_run_config(workspace["config_path"])
        plan, data = _run_data(cfg)
        artifacts = {a.model.spec.family: a for a in fit_run(cfg, plan, data, FAMILIES)}
        return plan, data, artifacts

    def test_fit_run_shares_one_chain(self, in_memory):
        _, _, artifacts = in_memory
        assert list(artifacts) == list(FAMILIES)
        assert len({id(a.chain) for a in artifacts.values()}) == 1

    @pytest.mark.parametrize("partition", ["test", "val", "train"])
    def test_scores_equal_evaluate_over_the_saved_files(
        self, partition, in_memory, workspace, tmp_path
    ):
        plan, data, artifacts = in_memory
        out = copy_run(workspace, tmp_path / "out")
        argv = ["evaluate", "--config", str(workspace["config_path"]), "--out", str(out)]
        assert main([*argv, "--partition", partition]) == 0
        reports = score_datasets(artifacts, data, getattr(plan, f"{partition}_ids"))
        # Every float is written as its repr, so equal text is equal floats.
        expected = (out / f"metrics_{partition}.csv").read_text(encoding="utf-8")
        assert metric_reports_to_csv(reports) == expected


class TestConfigPaths:
    """Runs through the feature toggles that the other tests leave at
    their defaults."""

    VARIANTS = {"projection": {"projection_variance": 0.95}, "top_k_80": {"selector_top_k": 80}}

    @pytest.fixture(scope="class")
    def runs(self, workspace, tmp_path_factory):
        """Each variant's train, evaluate, rank and classify, run twice."""
        root = tmp_path_factory.mktemp("config_paths")
        urls = root / "urls.txt"
        urls.write_text("http://www.news.example.com/story\nhttp://203.0.113.9/x?q=1\n")
        runs = {}
        for name, features in self.VARIANTS.items():
            config = variant_config(
                workspace, f"{name}.json", lambda c: c.setdefault("features", {}).update(features)
            )
            for tag in ("a", "b"):
                out = root / name / tag
                base = ["--config", str(config), "--out", str(out)]
                for command in ("train", "evaluate", "rank"):
                    assert main([command, *base]) == 0, (name, command)
                knn = out / "models" / "KNN.json"
                argv = ["classify", "--artifact", str(knn), "--out-file", str(out / "knn.csv")]
                assert main([*argv, str(urls)]) == 0
                runs[name, tag] = out
        return runs

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_run_is_byte_identical(self, name, runs):
        a, b = runs[name, "a"], runs[name, "b"]
        assert (a / "rank_test.csv").is_file() and (a / "knn.csv").is_file()
        assert tree_bytes(a) == tree_bytes(b)

    def test_projected_models_take_one_input_per_component(self, runs):
        models_dir = runs["projection", "a"] / "models"
        (chain_file,) = (models_dir / "chains").iterdir()
        for family in FAMILIES:
            artifact = load_pipeline(models_dir / f"{family}.json")
            n_components = len(artifact.chain.projection.components)
            payload, _ = read_artifact(models_dir / f"{family}.json")
            assert payload["model"]["n_features"] == n_components, family
            assert f"{payload['chain']}.json" == chain_file.name


class TestClassify:
    def test_with_artifact_path(self, workspace, tmp_path, capsys):
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text(
            "http://www.news.example.com/story\n"
            "http://203.0.113.9/xx%41!!/9178263549871?q=1&r=2\n",
            encoding="utf-8",
        )
        artifact = workspace["out_dir"] / "models" / "LR.json"
        assert main(["classify", "--artifact", str(artifact), str(urls_file)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "url,label,score"
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[1] in {"0", "1"}
            assert 0.0 <= float(cells[2]) <= 1.0

    def test_stdin_input(self, workspace, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"http://www.shop.example.org/\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        artifact = workspace["out_dir"] / "models" / "KNN.json"
        assert main(["classify", "--artifact", str(artifact)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2

    def test_out_file_flag(self, workspace, tmp_path):
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text("http://www.blog.example.net/a\n", encoding="utf-8")
        out_file = tmp_path / "preds.csv"
        artifact = workspace["out_dir"] / "models" / "DT.json"
        code = main(
            ["classify", "--artifact", str(artifact), "--out-file", str(out_file), str(urls_file)]
        )
        assert code == 0
        assert len(read_csv(out_file)) == 1

    def test_blank_lines_skipped(self, workspace, tmp_path, capsys):
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text("\nhttp://www.x.example/\n\n  \n", encoding="utf-8")
        artifact = workspace["out_dir"] / "models" / "LR.json"
        assert main(["classify", "--artifact", str(artifact), str(urls_file)]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 2

    def test_bom_prefixed_input_reads_like_plain(self, workspace, tmp_path, monkeypatch):
        text = "http://a.com/x\nhttps://b.org/\u00e9?q=1\n".encode("utf-8")
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_bytes(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text)
        artifact = str(workspace["out_dir"] / "models" / "LR.json")
        outputs = []
        for name, source in (("plain", [str(plain)]), ("bom", [str(bom)]), ("stdin", [])):
            if not source:
                stdin = io.TextIOWrapper(io.BytesIO(bom.read_bytes()), encoding="utf-8")
                monkeypatch.setattr(sys, "stdin", stdin)
            out_file = tmp_path / f"{name}.csv"
            assert main(["classify", "--artifact", artifact, "--out-file", str(out_file), *source]) == 0
            outputs.append(out_file.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert outputs[0].split(b"\n")[1].startswith(b"http://a.com/x,")

    def test_only_newline_ends_a_url(self, workspace, tmp_path, capsys):
        urls = ["http://a.com/x\x0by", "http://b.com/p\x85q", "http://c.com/\u2028r\rs"]
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text(f"{urls[0]}\n{urls[1]}\r\n {urls[2]} \n", encoding="utf-8")
        artifact = workspace["out_dir"] / "models" / "LR.json"
        assert main(["classify", "--artifact", str(artifact), str(urls_file)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
        assert [row[0] for row in rows[1:]] == urls

    def test_csv_reads_back_one_row_per_url(self, workspace, tmp_path):
        urls = ["http://a.com/x\ry", "http://b.com/\r\r/", 'http://c.com/"q",r', "http://d.com/"]
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text("".join(url + "\n" for url in urls), encoding="utf-8")
        out_file = tmp_path / "preds.csv"
        artifact = workspace["out_dir"] / "models" / "LR.json"
        argv = ["classify", "--artifact", str(artifact), "--out-file", str(out_file)]
        assert main([*argv, str(urls_file)]) == 0
        with open(out_file, encoding="utf-8", newline="") as handle:
            text = handle.read()
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0] == ["url", "label", "score"]
        assert [row[0] for row in rows[1:]] == urls
        assert all(len(row) == 3 for row in rows)
        assert '\n"http://a.com/x\ry",' in text
        assert "\nhttp://d.com/," in text

    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["chunk-1", "chunk", "chunk+1"])
    def test_chunked_csv_equals_one_table(self, extra, workspace, tmp_path, capsys, monkeypatch):
        """The CSV written a chunk at a time is the one-string table of
        every URL, from a file, from stdin and into ``--out-file``."""
        urls = [r.url for r in generate_dataset("c", CSV_CHUNK_ROWS + extra, 0.3, seed=3).records]
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text("".join(url + "\n" for url in urls), encoding="utf-8")
        artifact = workspace["out_dir"] / "models" / "LR.json"
        labels, scores = load_pipeline(artifact).predict(urls)
        table = csv_text(
            ["url", "label", "score"],
            ([u, int(y), repr(float(p))] for u, y, p in zip(urls, labels, scores)),
        ).encode("utf-8")
        argv = ["classify", "--artifact", str(artifact)]
        assert main([*argv, str(urls_file)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == table
        stdin = io.TextIOWrapper(io.BytesIO(urls_file.read_bytes()), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == table
        out_file = tmp_path / "preds.csv"
        assert main([*argv, "--out-file", str(out_file), str(urls_file)]) == 0
        assert out_file.read_bytes() == table

    def test_input_text_is_not_held_while_scoring(self, workspace, tmp_path, monkeypatch):
        """From N to 2N URLs, the memory alive when ``predict`` is entered
        grows by the URL list's growth alone, not also by the decoded text."""
        urls = [r.url for r in generate_dataset("m", 6000, 0.3, seed=5).records]
        seen = {}
        predict = PipelineArtifact.predict

        def traced(self, batch):
            gc.collect()  # unreachable cycles are not held input
            seen[len(batch)] = (
                tracemalloc.get_traced_memory()[0],
                sys.getsizeof(batch) + sum(map(sys.getsizeof, batch)),
            )
            return predict(self, batch)

        monkeypatch.setattr(PipelineArtifact, "predict", traced)
        artifact = str(workspace["out_dir"] / "models" / "LR.json")
        tracemalloc.start()
        try:
            for n in (100, 3000, 6000):  # the first call fills the caches
                urls_file = tmp_path / f"urls{n}.txt"
                urls_file.write_text("".join(u + "\n" for u in urls[:n]), encoding="utf-8")
                out_file = str(tmp_path / "preds.csv")
                assert main(["classify", "--artifact", artifact, "--out-file", out_file,
                             str(urls_file)]) == 0
        finally:
            tracemalloc.stop()
        (held_n, list_n), (held_2n, list_2n) = seen[3000], seen[6000]
        text_growth = sum(map(len, urls[3000:]))
        assert text_growth > 128 * 1024
        assert held_2n - held_n <= list_2n - list_n + 32 * 1024

    def test_failed_write_leaves_no_file(self, workspace, tmp_path, capsys, monkeypatch):
        """A write that fails after the first chunk leaves neither the
        target nor its temp file."""
        urls = [r.url for r in generate_dataset("c", CSV_CHUNK_ROWS + 1, 0.3, seed=3).records]
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text("".join(url + "\n" for url in urls), encoding="utf-8")
        out_dir = tmp_path / "preds"
        out_dir.mkdir()
        fdopen = os.fdopen

        class FullDisk:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(os, "fdopen", lambda fd, mode: FullDisk(fdopen(fd, mode)))
        artifact = workspace["out_dir"] / "models" / "LR.json"
        argv = ["classify", "--artifact", str(artifact), "--out-file", str(out_dir / "p.csv")]
        assert main([*argv, str(urls_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --out-file") and "No space left" in err
        assert list(out_dir.iterdir()) == []


class TestErrorPaths:
    def test_unmapped_label_names_the_value(self, tmp_path, capsys):
        write_csv(tmp_path / "bad.csv", [("http://a.com", "weird")])
        config = {
            "datasets": [
                {"id": f"d{i}", "path": "bad.csv", "label_map": {"benign": 0, "malicious": 1}}
                for i in range(3)
            ],
            "partition": {"train": 1, "val": 1, "test": 1},
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["ingest", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "weird" in err

    def test_dataset_field_over_csv_limit_reported(self, tmp_path, capsys):
        write_csv(tmp_path / "big.csv", [("http://a.com/" + "x" * 140_000, "benign")])
        config = {
            "datasets": [
                {"id": f"d{i}", "path": "big.csv", "label_map": {"benign": 0}} for i in range(3)
            ],
            "partition": {"train": 1, "val": 1, "test": 1},
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["ingest", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "big.csv: line 2" in err
        assert "Traceback" not in err

    def test_dataset_url_holding_a_line_break_reported(self, tmp_path, capsys):
        write_csv(tmp_path / "nl.csv", [("http://a.com/", "benign"), ("http://b.com/\nx", "benign")])
        config = {
            "datasets": [
                {"id": f"d{i}", "path": "nl.csv", "label_map": {"benign": 0}} for i in range(3)
            ],
            "partition": {"train": 1, "val": 1, "test": 1},
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["ingest", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nl.csv: line 3: URL holds a line break" in err
        assert "Traceback" not in err

    def test_evaluate_before_train(self, tmp_path, capsys):
        config_path = materialize_run(tmp_path, n_datasets=3, n_records=30, counts=(1, 1, 1))
        assert main(["evaluate", "--config", str(config_path)]) == 1
        assert "train" in capsys.readouterr().err

    def test_classify_missing_artifact(self, tmp_path, capsys):
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text("http://a.com\n", encoding="utf-8")
        assert main(["classify", "--artifact", str(tmp_path / "absent.json"), str(urls_file)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_classify_missing_urls_file(self, workspace, capsys):
        artifact = workspace["out_dir"] / "models" / "KNN.json"
        missing = workspace["root"] / "no_such_urls.txt"
        assert main(["classify", "--artifact", str(artifact), str(missing)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "no_such_urls.txt" in err

    def test_classify_without_artifact_exits_2(self, tmp_path, capsys):
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text("http://a.com\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["classify", str(urls_file)])
        assert exc.value.code == 2
        assert "the following arguments are required: --artifact" in capsys.readouterr().err

    def test_classify_empty_input(self, workspace, tmp_path, capsys):
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text("\n\n", encoding="utf-8")
        artifact = workspace["out_dir"] / "models" / "LR.json"
        assert main(["classify", "--artifact", str(artifact), str(urls_file)]) == 1
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["artifact", "urls", "stdin", "dataset", "config"])
    def test_non_utf8_file_reported(self, target, workspace, tmp_path, capsys, monkeypatch):
        # 0xff never occurs in UTF-8 text.
        bad = tmp_path / f"bad_{target}"
        name = bad.name
        if target == "dataset":
            bad.write_bytes(b"url,label\nhttp://a.com/\xff,benign\n")
            config = {
                "datasets": [
                    {"id": f"d{i}", "path": bad.name, "label_map": {"benign": 0}}
                    for i in range(3)
                ],
                "partition": {"train": 1, "val": 1, "test": 1},
            }
            config_path = tmp_path / "run.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            argv = ["ingest", "--config", str(config_path)]
        elif target == "config":
            bad.write_bytes(b'{"datasets": "\xff"}')
            argv = ["ingest", "--config", str(bad)]
        else:
            bad.write_bytes(b"\xffhttp://a.com\n")
            artifact = workspace["out_dir"] / "models" / "LR.json"
            urls_file = tmp_path / "urls.txt"
            urls_file.write_text("http://a.com\n", encoding="utf-8")
            if target == "artifact":
                argv = ["classify", "--artifact", str(bad), str(urls_file)]
            elif target == "urls":
                argv = ["classify", "--artifact", str(artifact), str(bad)]
            else:
                stdin = io.TextIOWrapper(io.BytesIO(bad.read_bytes()), encoding="utf-8")
                monkeypatch.setattr(sys, "stdin", stdin)
                argv, name = ["classify", "--artifact", str(artifact)], "<stdin>"
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert name in err

    @pytest.mark.parametrize("target", ["artifact", "config", "out-file"])
    def test_directory_path_reported(self, target, workspace, tmp_path, capsys):
        directory = tmp_path / f"dir_{target}"
        directory.mkdir()
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text("http://a.com\n", encoding="utf-8")
        if target == "artifact":
            argv = ["classify", "--artifact", str(directory), str(urls_file)]
        elif target == "config":
            argv = ["ingest", "--config", str(directory)]
        else:
            artifact = workspace["out_dir"] / "models" / "LR.json"
            argv = [
                "classify", "--artifact", str(artifact), "--out-file", str(directory),
                str(urls_file),
            ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert directory.name in err

    @pytest.mark.parametrize(
        "family, cut, reason",
        [
            ("LR", lambda s: s.update(weights=s["weights"][:3]), "'weights' has shape"),
            (
                "KNN",
                lambda s: s.update(train_X=columns_record(columns_matrix(s["train_X"])[:, :3])),
                "'train_X.offsets' has shape",
            ),
            (
                "KNN",
                lambda s: s.update(train_y=array_record(np.uint8(s["train_y"][:3]))),
                "'train_y' has shape",
            ),
            (
                "KNN",
                lambda s: s["train_X"]["values"].__setitem__(0, float("nan")),
                "'train_X.values' contains NaN",
            ),
            ("KNN", lambda s: s["train_y"].__setitem__(0, 0.6), "'train_y' has dtype '<f8'"),
            (
                "KNN",
                lambda s: s.update(train_y=array_record(np.uint8([7] * len(s["train_y"])))),
                "labels 0 or 1",
            ),
            ("GNB", lambda s: s.update(means=[row[:3] for row in s["means"]]), "'means' has shape"),
            ("MLP", lambda s: s.update(params=s["params"][:5]), "'params' has shape"),
            ("DT", lambda s: s["trees"]["feature"].__setitem__(0, 999), "splits outside"),
            (
                "DT",
                lambda s: s["trees"]["left"].__setitem__(0, len(s["trees"]["left"])),
                "does not follow its parent",
            ),
        ],
        ids=[
            "LR-weights", "KNN-train_X", "KNN-train_y", "KNN-train_X-nan",
            "KNN-train_y-fraction", "KNN-train_y-label", "GNB-means",
            "MLP-params", "DT-feature", "DT-child",
        ],
    )
    def test_malformed_model_state_reported(
        self, family, cut, reason, workspace, tmp_path, capsys
    ):
        path = workspace["out_dir"] / "models" / f"{family}.json"
        payload, chain = read_artifact(path)
        edit_arrays(payload["model"]["state"], cut)
        edited = tmp_path / f"{family}.json"
        write_artifact(payload, chain, edited)
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text("http://a.com\nhttps://b.org/x?q=1\n", encoding="utf-8")
        assert main(["classify", "--artifact", str(edited), str(urls_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert reason in err

    @pytest.mark.parametrize(
        "family, edit, in_chain, reason",
        [
            ("LR", lambda m, c: c["lm"].pop("benign"), True, "lacks the benign language model"),
            (
                "LR",
                lambda m, c: c["scaler"].update(
                    mean=coded_record(records_to_lists(c["scaler"]["mean"]), "<i8")
                ),
                True,
                "'mean' has dtype '<i8'",
            ),
            (
                "LR",
                lambda m, c: m["state"].update(
                    weights=coded_record(records_to_lists(m["state"]["weights"]), "<i8")
                ),
                False,
                "'weights' has dtype '<i8'",
            ),
            (
                "LR",
                lambda m, c: m["spec"]["hyperparameters"].update(n_iters=0),
                False,
                "n_iters must be",
            ),
            ("LR", lambda m, c: m.pop("state"), False, "'state'"),
            (
                "KNN",
                lambda m, c: m["state"].update(
                    train_y=coded_record(records_to_lists(m["state"]["train_y"]), "<f8")
                ),
                False,
                "'train_y' has dtype '<f8'",
            ),
        ],
        ids=["chain-no-benign", "chain-mean-i8", "LR-weights-i8", "LR-n_iters-0",
             "LR-no-state", "KNN-train_y-f8"],
    )
    def test_artifact_error_names_its_file(
        self, family, edit, in_chain, reason, workspace, tmp_path, capsys
    ):
        payload, chain = read_artifact(workspace["out_dir"] / "models" / f"{family}.json")
        edit(payload["model"], chain)
        edited = tmp_path / f"{family}.json"
        write_artifact(payload, chain, edited)
        if in_chain:
            edited = tmp_path / "chains" / f"{read_artifact(edited)[0]['chain']}.json"
        err = self._classify_fails(tmp_path / f"{family}.json", tmp_path, capsys)
        assert str(edited) in err
        assert reason in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda keys, counts: keys.__setitem__((0, -1), 97),
            lambda keys, counts: keys.__setitem__((0, 0), 200),
            lambda keys, counts: keys.__setitem__(1, keys[0]),
            lambda keys, counts: counts.__setitem__(0, 0),
            lambda keys, counts: counts.__setitem__(0, 2**64 - 1),
        ],
        ids=["symbol-begin", "context-non-ascii", "keys-duplicate", "count-zero",
             "count-2**64-1"],
    )
    def test_malformed_lm_counts_reported(self, edit, workspace, tmp_path, capsys):
        # The selector of this run keeps only the benign score, so only that
        # side is saved.
        payload, chain = read_artifact(workspace["out_dir"] / "models" / "LR.json")
        lm = chain["lm"]
        model = CharGramModel.from_dict(lm["order"], lm["k"], lm["benign"])
        keys, counts = model.keys, model.counts.astype(np.uint64)
        edit(keys, counts)
        lm["benign"] = {"keys": array_record(keys), "counts": array_record(counts)}
        edited = tmp_path / "LR.json"
        write_artifact(payload, chain, edited)
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text("http://a.com\n", encoding="utf-8")
        assert main(["classify", "--artifact", str(edited), str(urls_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "benign" in err

    @pytest.mark.parametrize(
        "field, value",
        [("k", True), ("order", True), ("k", float("inf")), ("k", float("nan")), ("k", "1")],
        ids=["k-true", "order-true", "k-Infinity", "k-NaN", "k-str"],
    )
    def test_malformed_lm_order_or_k_reported(self, field, value, workspace, tmp_path, capsys):
        payload, chain = read_artifact(workspace["out_dir"] / "models" / "LR.json")
        chain["lm"][field] = value
        edited = tmp_path / "LR.json"
        write_artifact(payload, chain, edited)  # writes Infinity, NaN
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text("http://a.com\n", encoding="utf-8")
        assert main(["classify", "--artifact", str(edited), str(urls_file)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_selector_index_out_of_range_reported(self, workspace, tmp_path, capsys):
        payload, chain = read_artifact(workspace["out_dir"] / "models" / "LR.json")
        edit_arrays(chain["selector"], lambda s: s["retained_indices"].__setitem__(-1, 99))
        edited = tmp_path / "LR.json"
        write_artifact(payload, chain, edited)
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text("http://a.com\n", encoding="utf-8")
        assert main(["classify", "--artifact", str(edited), str(urls_file)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def _classify_fails(self, artifact, tmp_path, capsys) -> str:
        """Run classify with ``artifact``; it must exit 1 with an ``error:`` line."""
        urls_file = tmp_path / "urls.txt"
        urls_file.write_text("http://a.com\n", encoding="utf-8")
        assert main(["classify", "--artifact", str(artifact), str(urls_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize(
        "edit, name",
        [
            (lambda m: m.update(n_features=m["n_features"] + 0.9), "n_features"),
            (lambda m: m.update(n_features=str(m["n_features"])), "n_features"),
            (lambda m: m.update(n_features=True), "n_features"),
            (lambda m: m["spec"].update(seed=2.5), "seed"),
            (lambda m: m["spec"].update(seed=-1), "seed"),
        ],
        ids=["n_features-fraction", "n_features-str", "n_features-true", "seed-fraction",
             "seed-negative"],
    )
    def test_model_count_not_an_integer_reported(
        self, edit, name, workspace, tmp_path, capsys
    ):
        payload, chain = read_artifact(workspace["out_dir"] / "models" / "LR.json")
        edit(payload["model"])
        edited = tmp_path / "LR.json"
        write_artifact(payload, chain, edited)
        assert f"{name} must be an integer" in self._classify_fails(edited, tmp_path, capsys)

    @pytest.mark.parametrize("projected", [False, True], ids=["plain", "projected"])
    def test_model_width_other_than_its_chain_reported_before_input_is_read(
        self, projected, workspace, tmp_path, capsys, monkeypatch
    ):
        """A model taking fewer features than its chain gives is refused at
        load, naming the model file and both widths; stdin is never read."""
        urls, labels = _run_data(load_run_config(workspace["config_path"]))[1][workspace["test_id"]]
        variance = 0.95 if projected else None
        chain, X = fit_chain(urls, labels, top_k=40, projection_variance=variance)
        model = fit_model(ModelSpec("LR", {"n_iters": 20}), X, labels)
        path = tmp_path / "LR.json"
        save_pipeline(PipelineArtifact(chain, model), path)
        payload, chain_payload = read_artifact(path)
        width = X.shape[1]
        payload["model"]["n_features"] = width - 1
        edit_arrays(payload["model"]["state"], lambda s: s.update(weights=s["weights"][:-1]))
        write_artifact(payload, chain_payload, path)

        class Unread:
            @property
            def buffer(self):
                raise AssertionError("the URLs were read before the model was checked")

        monkeypatch.setattr(sys, "stdin", Unread())
        assert main(["classify", "--artifact", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert str(path) in err and f"takes {width - 1} features" in err
        assert f"its chain gives {width}" in err

    @pytest.mark.parametrize(
        "reference", ["../../x", "", "UPPER", 12345], ids=["path", "empty", "uppercase", "number"]
    )
    def test_chain_reference_not_a_digest_reported(
        self, reference, workspace, tmp_path, capsys
    ):
        models_dir = workspace["out_dir"] / "models"
        shutil.copytree(models_dir / "chains", tmp_path / "chains")
        payload = json.loads((models_dir / "LR.json").read_text(encoding="utf-8"))
        payload["chain"] = payload["chain"].upper() if reference == "UPPER" else reference
        edited = tmp_path / "LR.json"
        edited.write_text(json.dumps(payload), encoding="utf-8")
        assert "64 lowercase hex digits" in self._classify_fails(edited, tmp_path, capsys)

    def test_artifact_without_its_chain_file_reported(self, workspace, tmp_path, capsys):
        alone = tmp_path / "LR.json"
        shutil.copy(workspace["out_dir"] / "models" / "LR.json", alone)
        digest = json.loads(alone.read_text(encoding="utf-8"))["chain"]
        err = self._classify_fails(alone, tmp_path, capsys)
        assert "not found" in err
        assert digest in err

    def test_chain_file_not_matching_its_name_reported(self, workspace, tmp_path, capsys):
        shutil.copytree(workspace["out_dir"] / "models", tmp_path / "models")
        (chain_file,) = (tmp_path / "models" / "chains").iterdir()
        chain_file.write_bytes(chain_file.read_bytes().replace(b'"k"', b'"k" ', 1))
        err = self._classify_fails(tmp_path / "models" / "LR.json", tmp_path, capsys)
        assert "SHA-256" in err

    def test_format_3_artifact_reported(self, workspace, tmp_path, capsys):
        payload, chain = read_artifact(workspace["out_dir"] / "models" / "LR.json")
        del payload["chain"]
        old = tmp_path / "LR.json"
        old.write_text(json.dumps({**payload, **chain, "format_version": 3}), encoding="utf-8")
        err = self._classify_fails(old, tmp_path, capsys)
        assert "unsupported pipeline artifact version 3" in err

    def test_format_4_artifact_reported(self, workspace, tmp_path, capsys):
        # Format 4 had the same two files, with every array as decimal lists.
        payload, chain = read_artifact(workspace["out_dir"] / "models" / "LR.json")
        payload = records_to_lists({**payload, "format_version": 4})
        old = tmp_path / "LR.json"
        write_artifact(payload, records_to_lists(chain), old)
        err = self._classify_fails(old, tmp_path, capsys)
        assert "unsupported pipeline artifact version 4" in err

    def test_format_5_artifact_reported(self, workspace, tmp_path, capsys):
        # Format 5 had the same two files, with each LM's counts as a
        # context -> symbol -> count map and a forest's trees one by one.
        payload, chain = read_artifact(workspace["out_dir"] / "models" / "RF.json")
        for side in SIDES:
            if side not in chain["lm"]:  # a side this run's selector drops
                continue
            model = CharGramModel.from_dict(chain["lm"]["order"], chain["lm"]["k"], chain["lm"][side])
            chain["lm"][side] = DictGramModel.from_model(model).counts
        trees = records_to_lists(payload["model"]["state"]["trees"])
        offsets = trees.pop("offsets")
        payload["model"]["state"]["trees"] = [
            {name: array_record(np.array(values[lo:hi])) for name, values in trees.items()}
            for lo, hi in zip(offsets, offsets[1:])
        ]
        old = tmp_path / "RF.json"
        write_artifact({**payload, "format_version": 5}, chain, old)
        err = self._classify_fails(old, tmp_path, capsys)
        assert "unsupported pipeline artifact version 5; this build reads version 9" in err

    def test_format_6_artifact_reported(self, workspace, tmp_path, capsys):
        # Format 6 saved KNN's training matrix as one float64 record and
        # its labels as int64.
        payload, chain = read_artifact(workspace["out_dir"] / "models" / "KNN.json")
        state = payload["model"]["state"]
        state["train_X"] = array_record(columns_matrix(records_to_lists(state["train_X"])))
        state["train_y"] = array_record(np.int64(records_to_lists(state["train_y"])))
        old = tmp_path / "KNN.json"
        write_artifact({**payload, "format_version": 6}, chain, old)
        err = self._classify_fails(old, tmp_path, capsys)
        assert "unsupported pipeline artifact version 6; this build reads version 9" in err

    def test_format_7_artifact_reported(self, workspace, tmp_path, capsys):
        # Format 7 saved a scalar as a JSON number, a decision tree as one
        # record per node field and every signed integer array as int64.
        payload, chain = read_artifact(workspace["out_dir"] / "models" / "LR.json")
        state = payload["model"]["state"]
        state["bias"] = records_to_lists(state["bias"])
        kept = records_to_lists(chain["selector"]["retained_indices"])
        chain["selector"]["retained_indices"] = coded_record(kept, "<i8")
        old = tmp_path / "LR.json"
        write_artifact({**payload, "format_version": 7}, chain, old)
        err = self._classify_fails(old, tmp_path, capsys)
        assert "unsupported pipeline artifact version 7; this build reads version 9" in err

    def test_format_8_artifact_reported(self, workspace, tmp_path, capsys):
        # Format 8 saved KNN's codes as one record for all columns and both
        # language models whatever the selector kept.
        payload, chain = read_artifact(workspace["out_dir"] / "models" / "KNN.json")
        train_X = payload["model"]["state"]["train_X"]
        codes = np.array(records_to_lists(train_X["codes"])).T
        train_X["codes"] = array_record(codes)
        chain["lm"] = {**{side: chain["lm"]["benign"] for side in SIDES}, **chain["lm"]}
        old = tmp_path / "KNN.json"
        write_artifact({**payload, "format_version": 8}, chain, old)
        err = self._classify_fails(old, tmp_path, capsys)
        assert "unsupported pipeline artifact version 8; this build reads version 9" in err

    @pytest.mark.parametrize(
        "model, key", [("LR", "bias"), ("LINEAR_SVM", "bias"), ("GBT", "f0")]
    )
    @pytest.mark.parametrize(
        "value, reason",
        [
            (array_record(np.float64(np.nan)), "contains NaN or infinite values"),
            (array_record(np.float64(np.inf)), "contains NaN or infinite values"),
            ("0.5", "must be an object with keys b64, dtype, shape"),
            (0.5, "must be an object with keys b64, dtype, shape"),
        ],
        ids=["NaN", "inf", "str", "format-7-number"],
    )
    def test_non_finite_model_scalar_reported(
        self, model, key, value, reason, workspace, tmp_path, capsys
    ):
        payload, chain = read_artifact(workspace["out_dir"] / "models" / f"{model}.json")
        payload["model"]["state"][key] = value
        edited = tmp_path / f"{model}.json"
        write_artifact(payload, chain, edited)
        err = self._classify_fails(edited, tmp_path, capsys)
        assert f"saved array '{key}' {reason}" in err

    @pytest.mark.parametrize(
        "family, grid",
        [
            ("KNN", {"k": ["five"]}),
            ("DT", {"max_depth": ["x"]}),
            ("RF", {"max_features": ["log2"]}),
            ("RF", {"max_features": [0, -3, 2.5, True], "n_trees": [2]}),
            ("DT", {"max_depth": [-1], "min_samples_split": [2, -1]}),
            ("RF", {"bootstrap": ["false"], "n_trees": [3]}),
            ("MLP", {"n_iters": [float("inf")]}),
            ("LR", {"learning_rate": ["0.1"]}),
            ("GBT", {"learning_rate": ["0.1"], "n_trees": [3]}),
            ("KNN", {"k": [2.5]}),
        ],
        ids=["KNN-k", "DT-max_depth", "RF-max_features", "RF-max_features-range", "DT-ranges",
             "RF-bootstrap-str", "MLP-n_iters-Infinity", "LR-learning_rate-str",
             "GBT-learning_rate-str", "KNN-k-float"],
    )
    def test_grid_value_of_wrong_type_reported(
        self, family, grid, workspace, tmp_path, capsys
    ):
        config = json.loads(workspace["config_path"].read_text(encoding="utf-8"))
        config["grids"] = {family: grid}
        # Dataset paths are relative to the config, so it sits beside run.json.
        config_path = workspace["root"] / f"grid_{family}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")  # writes Infinity
        argv = ["train", "--config", str(config_path), "--out", str(tmp_path), "--model", family]
        with pytest.warns(UserWarning, match="failed to fit"):
            assert main(argv) == 1
        err = capsys.readouterr().err
        name = next(iter(grid))
        assert err.startswith(f"error: invalid {family} hyperparameters: {name} must be")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "family, grid, bad, chosen",
        [
            (
                "RF", {"max_features": ["log2", 2], "n_trees": [3]}, "'log2'",
                {"max_features": 2, "n_trees": 3},
            ),
            ("MLP", {"hidden_units": [-1, 4]}, "-1", {"hidden_units": 4}),
        ],
        ids=["RF-max_features", "MLP-hidden_units"],
    )
    def test_grid_point_out_of_range_skipped(
        self, family, grid, bad, chosen, workspace, tmp_path, capsys
    ):
        config = json.loads(workspace["config_path"].read_text(encoding="utf-8"))
        config["grids"] = {family: grid}
        config_path = workspace["root"] / f"grid_{family}_mixed.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["train", "--config", str(config_path), "--out", str(tmp_path), "--model", family]
        with pytest.warns(UserWarning, match=f"{bad}.*failed to fit"):
            assert main(argv) == 0
        summary = json.loads((tmp_path / "train_summary.json").read_text(encoding="utf-8"))
        assert summary["chosen"][family]["hyperparameters"] == chosen

    @pytest.mark.parametrize("command", ["train", "audit"])
    def test_negative_seed_refused_before_out_is_made(self, command, workspace, tmp_path, capsys):
        config = variant_config(workspace, "negative_seed.json", lambda c: c.update(seed=-1))
        out = tmp_path / "fresh"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("use_projection", True), ("variance_target", 0.9)])
    def test_old_projection_key_refused(self, key, value, workspace, tmp_path, capsys):
        """The keys ``projection_variance`` replaced are unknown, so an old
        config stops before any work instead of training unprojected."""
        config = variant_config(workspace, f"old_{key}.json", lambda c: c.update(features={key: value}))
        out = tmp_path / "fresh"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: unknown keys in features: {key}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "rank"])
    def test_failing_command_leaves_no_out_directory(self, command, workspace, tmp_path, capsys):
        out = tmp_path / "typo_out"
        assert main([command, "--config", str(workspace["config_path"]), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: no model artifacts found under")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["ingest", "audit", "featurize", "train", "evaluate", "rank", "classify"]
    )
    def test_no_subcommand_takes_seed(self, command, workspace, capsys):
        # The config's seed is the only one.
        if command == "classify":
            argv = ["--artifact", str(workspace["out_dir"] / "models" / "LR.json"), "urls.txt"]
        else:
            argv = ["--config", str(workspace["config_path"])]
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, "--seed", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--config", "--model", "--out"])
    def test_classify_takes_only_an_artifact(self, flag, workspace, tmp_path, capsys):
        value = {"--config": workspace["config_path"], "--model": "LR", "--out": tmp_path}[flag]
        artifact = workspace["out_dir"] / "models" / "LR.json"
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--artifact", str(artifact), "urls.txt", flag, str(value)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["ingest", "--conf", "{config}"],
        ["audit", "--config", "{config}", "--o", "{out}"],
        ["featurize", "--confi", "{config}"],
        ["train", "--conf", "{config}", "--out", "{out}"],
        ["train", "--config", "{config}", "--mod", "RF"],
        ["train", "--config", "{config}", "--ou", "{out}"],
        ["evaluate", "--config", "{config}", "--part", "val"],
        ["rank", "--config", "{config}", "--partition", "val", "--ou", "{out}"],
        ["classify", "--art", "{artifact}", "urls.txt"],
        ["classify", "--artifact", "{artifact}", "--out", "{out}", "urls.txt"],
    ])
    def test_abbreviated_option_exits_2(self, argv, workspace, tmp_path, capsys):
        values = {"config": workspace["config_path"], "out": tmp_path / "out",
                  "artifact": workspace["out_dir"] / "models" / "LR.json"}
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**values) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "arguments are required" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, expected", [
        (["train", "--config", "c", "--out", "o", "--model", "RF"],
         {"config": "c", "out": "o", "model": "RF"}),
        (["evaluate", "--config", "c", "--partition", "val"], {"partition": "val", "out": None}),
        (["rank", "--config", "c", "--out", "o", "--partition", "train"], {"partition": "train"}),
        (["featurize", "--config", "c", "--out", "o"], {"config": "c", "out": "o"}),
        (["classify", "--artifact", "a", "--out-file", "p", "u"],
         {"artifact": "a", "out_file": "p", "urls_file": "u"}),
    ])
    def test_full_spellings_parse(self, argv, expected):
        args = cli.build_parser().parse_args(argv)
        assert {key: getattr(args, key) for key in expected} == expected

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["ingest", "--config", str(tmp_path / "absent.json")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_family_flag_exits_2(self, workspace):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(workspace["config_path"]), "--model", "NOPE"])
        assert exc.value.code == 2
