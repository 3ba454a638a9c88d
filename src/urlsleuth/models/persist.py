"""Versioned JSON form of a trained model, embedded in pipeline artifacts.

The container is self-describing: an artifact tag, a format version, the
model spec, the catalog version, and the family-specific fitted state.
Floats survive the round trip exactly because JSON serialization uses
shortest round-trip decimal forms.  No file is written here: the pipeline
artifact (``pipeline.save_pipeline``) carries this dict as its ``model``.
"""

from __future__ import annotations

from ..errors import ArtifactError
from . import ModelSpec, TrainedModel, make_classifier

MODEL_ARTIFACT_TAG = "urlsleuth-model"
MODEL_ARTIFACT_VERSION = 1


def model_to_dict(model: TrainedModel) -> dict:
    label_map = None
    if model.cluster_label_map is not None:
        label_map = {str(c): int(l) for c, l in model.cluster_label_map.items()}
    return {
        "artifact": MODEL_ARTIFACT_TAG,
        "format_version": MODEL_ARTIFACT_VERSION,
        "catalog_version": model.catalog_version,
        "spec": {
            "family": model.spec.family,
            "hyperparameters": dict(model.spec.hyperparameters),
            "seed": model.spec.seed,
        },
        "n_features": model.classifier.n_features_,
        "cluster_label_map": label_map,
        "state": model.classifier.state_to_dict(),
    }


def model_from_dict(payload: dict) -> TrainedModel:
    try:
        tag = payload["artifact"]
        version = payload["format_version"]
    except KeyError as exc:
        raise ArtifactError(f"artifact is missing the {exc.args[0]!r} field") from exc
    if tag != MODEL_ARTIFACT_TAG:
        raise ArtifactError(f"expected a {MODEL_ARTIFACT_TAG!r} artifact, got {tag!r}")
    if version != MODEL_ARTIFACT_VERSION:
        raise ArtifactError(
            f"unsupported model artifact version {version!r}; "
            f"this build reads version {MODEL_ARTIFACT_VERSION}"
        )
    try:
        spec = ModelSpec(
            family=payload["spec"]["family"],
            hyperparameters=dict(payload["spec"]["hyperparameters"]),
            seed=int(payload["spec"]["seed"]),
        )
        clf = make_classifier(spec)
        clf._restore(int(payload["n_features"]), payload["state"])
        raw_map = payload["cluster_label_map"]
        label_map = None
        if raw_map is not None:
            label_map = {int(c): int(l) for c, l in raw_map.items()}
        return TrainedModel(
            spec=spec,
            classifier=clf,
            catalog_version=payload["catalog_version"],
            cluster_label_map=label_map,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"model artifact is malformed: {exc}") from exc
