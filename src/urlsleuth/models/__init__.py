"""Eleven classifier families behind one train/predict contract.

``ModelSpec`` names a family, its hyperparameters, and a seed;
``fit_model`` turns a spec plus a feature matrix into an immutable
``TrainedModel`` that scores matrices of the same layout.  Its JSON form
(``to_dict``/``from_dict``) is the ``model`` entry of a pipeline artifact.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import ModelError
from .base import AlwaysMaliciousBaseline, BinaryClassifier, check_int
from .bayes import GaussianNaiveBayes
from .clustering import GaussianMixtureDetector, KMeansDetector
from .linear import LinearSvmSubgradient, LogisticRegressionGD
from .neighbors import KNearestNeighbors
from .neural import MlpClassifier
from .trees import DecisionTreeCART, GradientBoostedTrees, RandomForest

# Each class is the one declaration of its family: the roster is this
# tuple, a family's hyperparameters are its constructor's keyword
# arguments, and a family whose constructor takes ``seed`` consumes
# random numbers and receives the spec seed.
_REGISTRY: dict[str, type[BinaryClassifier]] = {
    cls.family: cls
    for cls in (
        AlwaysMaliciousBaseline,
        LogisticRegressionGD,
        LinearSvmSubgradient,
        DecisionTreeCART,
        RandomForest,
        GradientBoostedTrees,
        KNearestNeighbors,
        GaussianNaiveBayes,
        MlpClassifier,
        KMeansDetector,
        GaussianMixtureDetector,
    )
}
FAMILIES = tuple(_REGISTRY)
_PARAMETERS = {f: frozenset(inspect.signature(cls).parameters) for f, cls in _REGISTRY.items()}
HYPERPARAMETER_SCHEMA: dict[str, frozenset[str]] = {
    f: names - {"seed"} for f, names in _PARAMETERS.items()
}
STOCHASTIC_FAMILIES = frozenset(f for f, names in _PARAMETERS.items() if "seed" in names)


@dataclass(frozen=True)
class ModelSpec:
    """A family plus hyperparameters plus the seed that fixes its randomness."""

    family: str
    hyperparameters: dict[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in _REGISTRY:
            raise ModelError(
                f"unknown model family {self.family!r}; known: {', '.join(FAMILIES)}"
            )
        allowed = HYPERPARAMETER_SCHEMA[self.family]
        unknown = sorted(set(self.hyperparameters) - allowed)
        if unknown:
            raise ModelError(
                f"unknown hyperparameters for {self.family}: {', '.join(unknown)}"
            )
        # Checked for every family, not only the seeded ones, so that any
        # spec that trains also loads.
        check_int("seed", self.seed, 0)


def make_classifier(spec: ModelSpec) -> BinaryClassifier:
    """Instantiate the family named by the spec, unfitted; a hyperparameter
    value of the wrong type or out of range raises ``ModelError`` naming
    the family."""
    kwargs = dict(spec.hyperparameters)
    if spec.family in STOCHASTIC_FAMILIES:
        kwargs["seed"] = spec.seed
    try:
        return _REGISTRY[spec.family](**kwargs)
    except ModelError as exc:
        raise ModelError(f"invalid {spec.family} hyperparameters: {exc}") from exc


@dataclass(frozen=True)
class TrainedModel:
    """A fitted classifier and the spec it was fitted from."""

    spec: ModelSpec
    classifier: BinaryClassifier

    def predict_scores(self, X) -> np.ndarray:
        return self.classifier.score_batch(X)

    def to_dict(self) -> dict:
        return {
            "spec": {
                "family": self.spec.family,
                "hyperparameters": dict(self.spec.hyperparameters),
                "seed": self.spec.seed,
            },
            "n_features": self.classifier.n_features_,
            "state": self.classifier.state_to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainedModel":
        spec = ModelSpec(
            family=d["spec"]["family"],
            hyperparameters=dict(d["spec"]["hyperparameters"]),
            seed=d["spec"]["seed"],
        )
        clf = make_classifier(spec)
        clf._restore(check_int("n_features", d["n_features"], 0), d["state"])
        return cls(spec=spec, classifier=clf)


def fit_model(spec: ModelSpec, X, y) -> TrainedModel:
    """Fit one family on a feature matrix."""
    clf = make_classifier(spec)
    clf.fit(X, y)
    return TrainedModel(spec=spec, classifier=clf)


__all__ = [
    "FAMILIES",
    "STOCHASTIC_FAMILIES",
    "HYPERPARAMETER_SCHEMA",
    "ModelSpec",
    "TrainedModel",
    "BinaryClassifier",
    "AlwaysMaliciousBaseline",
    "LogisticRegressionGD",
    "LinearSvmSubgradient",
    "DecisionTreeCART",
    "RandomForest",
    "GradientBoostedTrees",
    "KNearestNeighbors",
    "GaussianNaiveBayes",
    "MlpClassifier",
    "KMeansDetector",
    "GaussianMixtureDetector",
    "make_classifier",
    "fit_model",
]
