"""Run configuration: a strict JSON schema parsed fully before any work.

Unknown keys are rejected everywhere so a typo cannot silently disable a
stage.  Dataset paths are resolved relative to the config file location.
All randomness in a run flows from the seeds declared here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .evaluation import METRIC_NAMES
from .models import FAMILIES, HYPERPARAMETER_SCHEMA

# Small per-family default grids: broad enough for the search to have
# something to choose, small enough that a full run stays fast.
DEFAULT_GRIDS: dict[str, dict[str, list]] = {
    "BASELINE": {},
    "LR": {"learning_rate": [0.1, 0.5], "n_iters": [400]},
    "LINEAR_SVM": {"learning_rate": [0.1, 0.5], "n_iters": [400]},
    "DT": {"max_depth": [None, 12]},
    "RF": {"n_trees": [50]},
    "GBT": {"n_trees": [30], "learning_rate": [0.3]},
    "KNN": {"k": [3, 5]},
    "GNB": {},
    "MLP": {"hidden_units": [16], "learning_rate": [0.5], "n_iters": [300]},
    "KMEANS": {"n_clusters": [2, 4]},
    "GMM": {"n_components": [2]},
}


@dataclass(frozen=True)
class DatasetEntry:
    id: str
    path: Path
    label_map: dict[str, int]
    name: str | None = None


@dataclass(frozen=True)
class PartitionConfig:
    train: int
    val: int
    test: int
    seed: int


@dataclass(frozen=True)
class LmConfig:
    order: int = 3
    smoothing_k: float = 1.0


@dataclass(frozen=True)
class FeatureConfig:
    use_selector: bool = True
    selector_top_k: int = 40
    use_projection: bool = False
    variance_target: float = 0.95


@dataclass(frozen=True)
class RunConfig:
    datasets: tuple[DatasetEntry, ...]
    partition: PartitionConfig
    lm: LmConfig = field(default_factory=LmConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    grids: dict[str, dict[str, list]] = field(default_factory=dict)
    tuning_metric: str = "f1"
    seed: int = 0
    output_dir: Path = Path("out")

    def grid_for(self, family: str) -> dict[str, list]:
        """Configured grid for a family, falling back to the default."""
        return self.grids.get(family, DEFAULT_GRIDS[family])


def _require_keys(section: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = sorted(required - set(section))
    if missing:
        raise ConfigError(f"missing keys in {where}: {', '.join(missing)}")


def _check_int(value, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {value}")
    return value


def _check_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _check_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _parse_dataset_entry(raw: dict, index: int, base_dir: Path) -> DatasetEntry:
    where = f"datasets[{index}]"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    _require_keys(raw, {"id", "path", "label_map", "name"}, {"id", "path", "label_map"}, where)
    if not isinstance(raw["id"], str) or not raw["id"]:
        raise ConfigError(f"{where}.id must be a non-empty string")
    if not isinstance(raw["path"], str) or not raw["path"]:
        raise ConfigError(f"{where}.path must be a non-empty string")
    label_map = raw["label_map"]
    if not isinstance(label_map, dict) or not label_map:
        raise ConfigError(f"{where}.label_map must be a non-empty object")
    for k, v in label_map.items():
        if v not in (0, 1) or isinstance(v, bool):
            raise ConfigError(
                f"{where}.label_map[{k!r}] must map to 0 or 1, got {v!r}"
            )
    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise ConfigError(f"{where}.name must be a string")
    return DatasetEntry(
        id=raw["id"],
        path=(base_dir / raw["path"]).resolve(),
        label_map=dict(label_map),
        name=name,
    )


def parse_run_config(raw: dict, base_dir: Path) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("run config must be a JSON object")
    _require_keys(
        raw,
        {
            "datasets",
            "partition",
            "language_model",
            "features",
            "grids",
            "tuning_metric",
            "seed",
            "output_dir",
        },
        {"datasets", "partition"},
        "run config",
    )

    raw_datasets = raw["datasets"]
    if not isinstance(raw_datasets, list) or not raw_datasets:
        raise ConfigError("datasets must be a non-empty list")
    entries = tuple(
        _parse_dataset_entry(e, i, base_dir) for i, e in enumerate(raw_datasets)
    )
    ids = [e.id for e in entries]
    if len(set(ids)) != len(ids):
        raise ConfigError("dataset ids must be unique")

    part = raw["partition"]
    if not isinstance(part, dict):
        raise ConfigError("partition must be an object")
    _require_keys(part, {"train", "val", "test", "seed"}, {"train", "val", "test"}, "partition")
    partition = PartitionConfig(
        train=_check_int(part["train"], "partition.train", 1),
        val=_check_int(part["val"], "partition.val", 1),
        test=_check_int(part["test"], "partition.test", 1),
        seed=_check_int(part.get("seed", 0), "partition.seed"),
    )
    if partition.train + partition.val + partition.test != len(entries):
        raise ConfigError(
            f"partition counts sum to {partition.train + partition.val + partition.test}, "
            f"but {len(entries)} datasets are configured"
        )

    lm_raw = raw.get("language_model", {})
    if not isinstance(lm_raw, dict):
        raise ConfigError("language_model must be an object")
    _require_keys(lm_raw, {"order", "smoothing_k"}, set(), "language_model")
    lm = LmConfig(
        order=_check_int(lm_raw.get("order", 3), "language_model.order", 1),
        smoothing_k=_check_number(lm_raw.get("smoothing_k", 1.0), "language_model.smoothing_k"),
    )
    if lm.smoothing_k <= 0:
        raise ConfigError(f"language_model.smoothing_k must be > 0, got {lm.smoothing_k}")

    feat_raw = raw.get("features", {})
    if not isinstance(feat_raw, dict):
        raise ConfigError("features must be an object")
    _require_keys(
        feat_raw,
        {"use_selector", "selector_top_k", "use_projection", "variance_target"},
        set(),
        "features",
    )
    features = FeatureConfig(
        use_selector=_check_bool(feat_raw.get("use_selector", True), "features.use_selector"),
        selector_top_k=_check_int(feat_raw.get("selector_top_k", 40), "features.selector_top_k", 1),
        use_projection=_check_bool(
            feat_raw.get("use_projection", False), "features.use_projection"
        ),
        variance_target=_check_number(
            feat_raw.get("variance_target", 0.95), "features.variance_target"
        ),
    )
    if not 0.0 < features.variance_target <= 1.0:
        raise ConfigError(
            f"features.variance_target must be in (0, 1], got {features.variance_target}"
        )

    grids_raw = raw.get("grids", {})
    if not isinstance(grids_raw, dict):
        raise ConfigError("grids must be an object keyed by model family")
    grids: dict[str, dict[str, list]] = {}
    for family, grid in grids_raw.items():
        if family not in FAMILIES:
            raise ConfigError(f"grids contains unknown family {family!r}")
        if not isinstance(grid, dict):
            raise ConfigError(f"grids.{family} must be an object")
        for hp_name, values in grid.items():
            if hp_name not in HYPERPARAMETER_SCHEMA[family]:
                raise ConfigError(
                    f"grids.{family} names unknown hyperparameter {hp_name!r}"
                )
            if not isinstance(values, list) or not values:
                raise ConfigError(
                    f"grids.{family}.{hp_name} must be a non-empty list of values"
                )
        grids[family] = {k: list(v) for k, v in grid.items()}

    tuning_metric = raw.get("tuning_metric", "f1")
    if tuning_metric not in METRIC_NAMES:
        raise ConfigError(
            f"tuning_metric must be one of {', '.join(METRIC_NAMES)}; got {tuning_metric!r}"
        )

    seed = _check_int(raw.get("seed", 0), "seed", 0)
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir must be a non-empty string")

    return RunConfig(
        datasets=entries,
        partition=partition,
        lm=lm,
        features=features,
        grids=grids,
        tuning_metric=tuning_metric,
        seed=seed,
        output_dir=(base_dir / output_dir).resolve(),
    )


def load_run_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_run_config(raw, path.parent)
