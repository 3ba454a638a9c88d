"""Tests for run-config parsing and validation."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from urlsleuth.config import (
    DEFAULT_GRIDS,
    FeatureConfig,
    LmConfig,
    load_run_config,
    parse_run_config,
)
from urlsleuth.errors import ConfigError
from urlsleuth.models import FAMILIES, HYPERPARAMETER_SCHEMA

BASE = Path("/tmp")


def minimal_raw() -> dict:
    return {
        "datasets": [
            {"id": "d0", "path": "d0.csv", "label_map": {"benign": 0, "malicious": 1}},
            {"id": "d1", "path": "d1.csv", "label_map": {"0": 0, "1": 1}},
            {"id": "d2", "path": "d2.csv", "label_map": {"good": 0, "bad": 1}},
        ],
        "partition": {"train": 1, "val": 1, "test": 1, "seed": 7},
    }


class TestParsing:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_run_config(minimal_raw(), BASE)
        assert [e.id for e in cfg.datasets] == ["d0", "d1", "d2"]
        assert cfg.datasets[0].path == (BASE / "d0.csv").resolve()
        assert cfg.partition.seed == 7
        assert cfg.lm == LmConfig(order=3, smoothing_k=1.0)
        assert cfg.features == FeatureConfig(selector_top_k=40, projection_variance=None)
        assert cfg.grids == {}
        assert cfg.tuning_metric == "f1"
        assert cfg.seed == 0
        assert cfg.output_dir == (BASE / "out").resolve()

    def test_full_config_round_trip(self):
        raw = minimal_raw()
        raw["language_model"] = {"order": 4, "smoothing_k": 0.5}
        raw["features"] = {"selector_top_k": 25, "projection_variance": 0.9}
        raw["grids"] = {"KNN": {"k": [1, 3, 5]}, "DT": {"max_depth": [None, 8]}}
        raw["tuning_metric"] = "auc"
        raw["seed"] = 99
        raw["output_dir"] = "results"
        cfg = parse_run_config(raw, BASE)
        assert cfg.lm.order == 4
        assert cfg.features.selector_top_k == 25
        assert cfg.features.projection_variance == 0.9
        assert cfg.grids["KNN"] == {"k": [1, 3, 5]}
        assert cfg.tuning_metric == "auc"
        assert cfg.seed == 99
        assert cfg.output_dir == (BASE / "results").resolve()

    def test_grid_for_falls_back_to_defaults(self):
        raw = minimal_raw()
        raw["grids"] = {"KNN": {"k": [9]}}
        cfg = parse_run_config(raw, BASE)
        assert cfg.grid_for("KNN") == {"k": [9]}
        assert cfg.grid_for("RF") == DEFAULT_GRIDS["RF"]

    def test_default_grids_cover_every_family_with_valid_names(self):
        assert set(DEFAULT_GRIDS) == set(FAMILIES)
        for family, grid in DEFAULT_GRIDS.items():
            assert set(grid) <= set(HYPERPARAMETER_SCHEMA[family])


class TestRejection:
    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="object"):
            parse_run_config(["nope"], BASE)

    @pytest.mark.parametrize("key", ["datasets", "partition"])
    def test_missing_required_section(self, key):
        raw = minimal_raw()
        del raw[key]
        with pytest.raises(ConfigError, match=key):
            parse_run_config(raw, BASE)

    def test_unknown_top_level_key(self):
        raw = minimal_raw()
        raw["modles"] = {}
        with pytest.raises(ConfigError, match="modles"):
            parse_run_config(raw, BASE)

    def test_unknown_dataset_key(self):
        raw = minimal_raw()
        raw["datasets"][0]["format"] = "csv"
        with pytest.raises(ConfigError, match="format"):
            parse_run_config(raw, BASE)

    def test_unknown_partition_key(self):
        raw = minimal_raw()
        raw["partition"]["holdout"] = 1
        with pytest.raises(ConfigError, match="holdout"):
            parse_run_config(raw, BASE)

    def test_unknown_feature_key(self):
        raw = minimal_raw()
        raw["features"] = {"use_pca": True}
        with pytest.raises(ConfigError, match="use_pca"):
            parse_run_config(raw, BASE)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: raw["datasets"][0].update(name="demo"), "datasets[0]: name"),
            (lambda raw: raw.update(features={"use_selector": False}), "features: use_selector"),
            (lambda raw: raw.update(features={"use_projection": True}), "features: use_projection"),
            (lambda raw: raw.update(features={"variance_target": 0.9}), "features: variance_target"),
        ],
        ids=["dataset-name", "use_selector", "use_projection", "variance_target"],
    )
    def test_removed_key_is_unknown(self, edit, message):
        raw = minimal_raw()
        edit(raw)
        with pytest.raises(ConfigError) as exc:
            parse_run_config(raw, BASE)
        assert str(exc.value) == f"unknown keys in {message}"

    def test_duplicate_dataset_ids(self):
        raw = minimal_raw()
        raw["datasets"][1]["id"] = "d0"
        with pytest.raises(ConfigError, match="unique"):
            parse_run_config(raw, BASE)

    def test_partition_must_cover_datasets(self):
        raw = minimal_raw()
        raw["partition"]["train"] = 2
        with pytest.raises(ConfigError, match="sum"):
            parse_run_config(raw, BASE)

    def test_partition_counts_must_be_positive(self):
        raw = minimal_raw()
        raw["partition"]["val"] = 0
        with pytest.raises(ConfigError, match="partition.val"):
            parse_run_config(raw, BASE)

    def test_label_map_values_checked(self):
        raw = minimal_raw()
        raw["datasets"][0]["label_map"] = {"benign": 0, "malicious": 2}
        with pytest.raises(ConfigError, match="0 or 1"):
            parse_run_config(raw, BASE)

    def test_boolean_label_value_rejected(self):
        raw = minimal_raw()
        raw["datasets"][0]["label_map"] = {"benign": False, "malicious": 1}
        with pytest.raises(ConfigError, match="0 or 1"):
            parse_run_config(raw, BASE)

    def test_unknown_grid_family(self):
        raw = minimal_raw()
        raw["grids"] = {"SVM": {"learning_rate": [0.1]}}
        with pytest.raises(ConfigError, match="SVM"):
            parse_run_config(raw, BASE)

    def test_unknown_grid_hyperparameter(self):
        raw = minimal_raw()
        raw["grids"] = {"KNN": {"n_neighbors": [3]}}
        with pytest.raises(ConfigError, match="n_neighbors"):
            parse_run_config(raw, BASE)

    def test_empty_grid_values_rejected(self):
        raw = minimal_raw()
        raw["grids"] = {"KNN": {"k": []}}
        with pytest.raises(ConfigError, match="non-empty"):
            parse_run_config(raw, BASE)

    def test_bad_tuning_metric(self):
        raw = minimal_raw()
        raw["tuning_metric"] = "mcc"
        with pytest.raises(ConfigError, match="tuning_metric"):
            parse_run_config(raw, BASE)

    def test_bad_lm_order(self):
        raw = minimal_raw()
        raw["language_model"] = {"order": 0}
        with pytest.raises(ConfigError, match="order"):
            parse_run_config(raw, BASE)

    def test_nonpositive_smoothing_rejected(self):
        raw = minimal_raw()
        raw["language_model"] = {"smoothing_k": 0}
        with pytest.raises(ConfigError, match="smoothing_k"):
            parse_run_config(raw, BASE)

    @pytest.mark.parametrize("value", [None, 0.5, 1.0], ids=["null", "0.5", "1.0"])
    def test_projection_variance_accepted(self, value):
        raw = minimal_raw()
        raw["features"] = {"projection_variance": value}
        assert parse_run_config(raw, BASE).features.projection_variance == value

    @pytest.mark.parametrize("value", [0, 1.5, True, "0.9"], ids=["0", "1.5", "true", "str"])
    def test_projection_variance_range(self, value):
        raw = minimal_raw()
        raw["features"] = {"projection_variance": value}
        with pytest.raises(ConfigError) as exc:
            parse_run_config(raw, BASE)
        assert str(exc.value) == (
            "features.projection_variance must be None or a finite number > 0.0 and <= 1.0, "
            f"got {value!r}"
        )

    def test_bool_not_accepted_as_int(self):
        raw = minimal_raw()
        raw["seed"] = True
        with pytest.raises(ConfigError, match="seed"):
            parse_run_config(raw, BASE)


class TestLoadRunConfig:
    def test_loads_and_resolves_relative_paths(self, tmp_path):
        raw = minimal_raw()
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        cfg = load_run_config(path)
        assert cfg.datasets[0].path == (tmp_path / "d0.csv").resolve()
        assert cfg.output_dir == (tmp_path / "out").resolve()

    # random.Random seeds with the absolute value, so a partition seed of
    # -1 would give seed 1's partition under another recorded seed.
    @pytest.mark.parametrize("key", ["seed", "partition.seed"])
    def test_negative_seed_rejected(self, tmp_path, key):
        raw = minimal_raw()
        (raw["partition"] if key == "partition.seed" else raw)["seed"] = -1
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_run_config(path)
        assert str(exc.value) == f"{key} must be an integer >= 0, got -1"

    @pytest.mark.parametrize(
        "section, key, rule",
        [
            ("language_model", "smoothing_k", "a finite number > 0.0"),
            ("features", "projection_variance", "None or a finite number > 0.0 and <= 1.0"),
        ],
        ids=["language_model-smoothing_k", "features-projection_variance"],
    )
    @pytest.mark.parametrize(
        "text", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["NaN", "Infinity", "-Infinity", "1e400", "10**400"],
    )
    def test_non_finite_number_rejected(self, tmp_path, section, key, rule, text):
        # Python's json reads NaN, Infinity and 1e400 (an infinity).
        raw = {**minimal_raw(), section: {key: "VALUE"}}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw).replace('"VALUE"', text), encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_run_config(path)
        assert str(exc.value) == f"{section}.{key} must be {rule}, got {json.loads(text)!r}"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            load_run_config(path)
