"""Lexical malicious-URL detection toolkit.

Feature extraction straight from URL text, benign/malicious character
language models, eleven classifier families on one contract, a fitted
preprocessing pipeline, cross-dataset evaluation with rank tables, and a
CLI that binds the workflow end to end.
"""

from .charlm import CharGramModel, LmScorePair
from .corpus import Dataset, PartitionPlan, UrlRecord, load_dataset, partition
from .errors import (
    ArtifactError,
    CatalogMismatchError,
    ConfigError,
    DataError,
    ModelError,
    UrlsleuthError,
)
from .evaluation import (
    MetricReport,
    RankTable,
    aggregate_rank_table,
    baseline_report,
    beats_baseline,
    compute_metrics,
    per_dataset_ranks,
)
from .models import FAMILIES, ModelSpec, TrainedModel, fit_model
from .pipeline import PipelineArtifact, grid_search, load_pipeline, save_pipeline
from .urlfeat import CATALOG_VERSION, catalog, extract_matrix

__version__ = "0.1.0"

__all__ = [
    "CATALOG_VERSION",
    "FAMILIES",
    "ArtifactError",
    "CatalogMismatchError",
    "CharGramModel",
    "ConfigError",
    "DataError",
    "Dataset",
    "LmScorePair",
    "MetricReport",
    "ModelError",
    "ModelSpec",
    "PartitionPlan",
    "PipelineArtifact",
    "RankTable",
    "TrainedModel",
    "UrlRecord",
    "UrlsleuthError",
    "aggregate_rank_table",
    "baseline_report",
    "beats_baseline",
    "catalog",
    "compute_metrics",
    "extract_matrix",
    "fit_model",
    "grid_search",
    "load_dataset",
    "load_pipeline",
    "partition",
    "per_dataset_ranks",
    "save_pipeline",
]
