"""Run configuration: a strict JSON schema parsed fully before any work.

Unknown keys are rejected everywhere so a typo cannot silently disable a
stage.  Every accepted key can change an output, and no two keys set the
same thing, so each run setting has one spelling.  A key left out takes
its dataclass field's default, and each number is range-checked by
``models.base``'s ``check_int`` or ``check_real``.  Dataset paths are
resolved relative to the config file location.  All randomness in a run
flows from the seeds declared here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

from .errors import ConfigError, ModelError
from .evaluation import METRIC_NAMES
from .models import FAMILIES, HYPERPARAMETER_SCHEMA
from .models.base import check_int, check_real

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


@dataclass(frozen=True)
class PartitionConfig:
    train: int
    val: int
    test: int
    seed: int = 0


@dataclass(frozen=True)
class LmConfig:
    order: int = 3
    smoothing_k: float = 1.0


@dataclass(frozen=True)
class FeatureConfig:
    selector_top_k: int = 40
    # The share of variance the projection keeps; None projects nothing.
    projection_variance: float | None = None


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


def _tuning_metric(where: str, value) -> str:
    if value not in METRIC_NAMES:
        raise ConfigError(f"{where} must be one of {', '.join(METRIC_NAMES)}; got {value!r}")
    return value


def _output_dir(where: str, value) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where} must be a non-empty string")
    return value


# Each scalar key's check, as ``check(key, value) -> value``, by section;
# ``models.base``'s checks raise ``ModelError``, the others ``ConfigError``.
_PARTITION_KEYS = {
    "train": partial(check_int, low=1),
    "val": partial(check_int, low=1),
    "test": partial(check_int, low=1),
    "seed": partial(check_int, low=0),
}
_LM_KEYS = {
    "order": partial(check_int, low=1),
    "smoothing_k": partial(check_real, low=0.0, strict=True),
}
_FEATURE_KEYS = {
    "selector_top_k": partial(check_int, low=1),
    "projection_variance": partial(check_real, low=0.0, strict=True, high=1.0, allow_none=True),
}
_RUN_KEYS = {
    "tuning_metric": _tuning_metric,
    "seed": partial(check_int, low=0),
    "output_dir": _output_dir,
}


def _require_keys(section: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = sorted(required - set(section))
    if missing:
        raise ConfigError(f"missing keys in {where}: {', '.join(missing)}")


def _checked(section: dict, checks: dict, prefix: str = "") -> dict:
    """Each key of ``section`` that ``checks`` names, with the value its
    check returns; the check names the key as ``prefix`` + key, and a
    ``ModelError`` it raises is raised as a ``ConfigError``.  An absent
    key stays absent, so the dataclass built from the result gives it
    its field's default."""
    try:
        return {
            key: check(prefix + key, section[key]) for key, check in checks.items() if key in section
        }
    except ModelError as exc:
        raise ConfigError(str(exc)) from None


def _section(raw: dict, where: str, checks: dict, required: tuple[str, ...] = ()) -> dict:
    """The object ``raw[where]`` (``{}`` when absent), holding only keys
    of ``checks`` and every ``required`` one, through ``_checked``."""
    section = raw.get(where, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    _require_keys(section, set(checks), set(required), where)
    return _checked(section, checks, f"{where}.")


def _parse_dataset_entry(raw: dict, index: int, base_dir: Path) -> DatasetEntry:
    where = f"datasets[{index}]"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    keys = {"id", "path", "label_map"}
    _require_keys(raw, keys, keys, where)
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
    return DatasetEntry(
        id=raw["id"],
        path=(base_dir / raw["path"]).resolve(),
        label_map=dict(label_map),
    )


def parse_run_config(raw: dict, base_dir: Path) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("run config must be a JSON object")
    sections = {"datasets", "partition", "language_model", "features", "grids"}
    _require_keys(raw, sections | set(_RUN_KEYS), {"datasets", "partition"}, "run config")

    raw_datasets = raw["datasets"]
    if not isinstance(raw_datasets, list) or not raw_datasets:
        raise ConfigError("datasets must be a non-empty list")
    entries = tuple(
        _parse_dataset_entry(e, i, base_dir) for i, e in enumerate(raw_datasets)
    )
    ids = [e.id for e in entries]
    if len(set(ids)) != len(ids):
        raise ConfigError("dataset ids must be unique")

    partition = PartitionConfig(
        **_section(raw, "partition", _PARTITION_KEYS, ("train", "val", "test"))
    )
    if partition.train + partition.val + partition.test != len(entries):
        raise ConfigError(
            f"partition counts sum to {partition.train + partition.val + partition.test}, "
            f"but {len(entries)} datasets are configured"
        )
    lm = LmConfig(**_section(raw, "language_model", _LM_KEYS))
    features = FeatureConfig(**_section(raw, "features", _FEATURE_KEYS))

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

    cfg = RunConfig(
        datasets=entries, partition=partition, lm=lm, features=features, grids=grids,
        **_checked(raw, _RUN_KEYS),
    )
    return replace(cfg, output_dir=(base_dir / cfg.output_dir).resolve())


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
