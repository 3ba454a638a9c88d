"""Fitted feature chain, pipeline artifacts and hyperparameter grid search.

Stage order is fixed: extract the 78 lexical features, append the two
language-model scores (80 columns), z-scale, select by mutual
information, optionally project onto principal components, then hand the
matrix to a model.  ``fit_chain`` fits every stage on training rows only
and returns them as one ``FeatureChain``, a pure function afterwards
that computes only the columns its selector keeps.  A
``PipelineArtifact`` is that chain plus one trained model; ``train``
shares a single chain across every family of a run.  An artifact is
saved as two files: the chain's saved form (``FeatureChain.to_dict``:
the language-model pair as its order, k and each model's count arrays,
then each stage's arrays, all as base64 records) in
``chains/<sha256>.json`` beside the model file, named by the SHA-256 of
its bytes, and the model file itself: a tag, a format version, the
feature catalog version, that digest and the model (spec, feature
count, state).  Every family of a run names the same chain file.  ``grid_search`` fits each grid point
once and returns the best fitted model; an empty grid is the defaults,
a failed fit is never chosen.
"""

from __future__ import annotations

import hashlib
import itertools
import re
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .charlm import SIDES, LmScorePair
from .errors import ArtifactError, CatalogMismatchError, ConfigError, DataError, ModelError
from .evaluation import compute_metrics
from .fileio import (
    json_text, parse_json, read_artifact_bytes, read_json, write_json_atomic,
    write_text_atomic,
)
from .models import ModelSpec, TrainedModel, fit_model
from .models.base import array_record, state_array
from .urlfeat import CATALOG_VERSION, catalog, extract_matrix

PIPELINE_ARTIFACT_TAG = "urlsleuth-pipeline"
PIPELINE_ARTIFACT_VERSION = 8
CHAIN_DIR = "chains"  # beside the model files; one chain file per distinct chain
_DIGEST = re.compile(r"[0-9a-f]{64}")

MI_BIN_COUNT = 10
LEXICAL_COLUMNS = len(catalog().names)
CHAIN_INPUT_COLUMNS = LEXICAL_COLUMNS + len(SIDES)  # lexical features, then both LM scores


@dataclass(frozen=True)
class Scaler:
    """Per-column z-normalization; constant columns keep std 1."""

    mean: np.ndarray
    std: np.ndarray


def fit_scaler(X) -> Scaler:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) < 2:
        raise DataError("scaler fitting requires a matrix with at least 2 rows")
    mean = X.mean(axis=0)
    std = X.std(axis=0)  # population std
    std = np.where(std > 0, std, 1.0)
    return Scaler(mean=mean, std=std)


def apply_scaler(scaler: Scaler, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != len(scaler.mean):
        raise DataError(
            f"scaler expects {len(scaler.mean)} columns, got {X.shape[-1]}"
        )
    out = X - scaler.mean
    out /= scaler.std  # in place: no second temporary, the same bits
    return out


@dataclass(frozen=True)
class Selector:
    """Top-k columns by mutual information with the label (in nats)."""

    retained_indices: np.ndarray
    score_per_feature: np.ndarray


def _quantile_bins(X: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-frequency bin ids of each column; equal values always share a
    bin.  A value's bin is the number of its column's inner edges at or
    below it, as ``searchsorted(edges, col, side="right")`` gives it."""
    edges = np.quantile(X, np.linspace(0.0, 1.0, n_bins + 1)[1:-1], axis=0)
    bins = np.zeros(X.shape, np.intp)
    for edge in edges:
        bins += edge <= X
    return bins


def _mutual_information(bins: np.ndarray, labels: np.ndarray, n_bins: int) -> np.ndarray:
    """I(bin; label) in nats of every column of ``bins``, from the empirical
    joint frequencies: one ``bincount`` over (column, bin, label)."""
    n, d = bins.shape
    classes, labels = np.unique(labels, return_inverse=True)
    cells = (np.arange(d) * n_bins + bins) * len(classes) + labels.reshape(-1, 1)
    joint = np.bincount(cells.reshape(-1), minlength=d * n_bins * len(classes))
    p_joint = joint.reshape(d, n_bins, len(classes)) / n
    p_bin = p_joint.sum(axis=2, keepdims=True)
    p_label = p_joint.sum(axis=1, keepdims=True)
    seen = p_joint > 0
    terms = np.zeros_like(p_joint)
    terms[seen] = p_joint[seen] * np.log(p_joint[seen] / (p_bin * p_label)[seen])
    return np.maximum(terms.sum(axis=(1, 2)), 0.0)


def fit_selector(X, y, top_k: int) -> Selector:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    d = X.shape[1]
    if top_k > d:
        warnings.warn(
            f"top_k={top_k} exceeds the {d} available features; clamping to {d}",
            stacklevel=2,
        )
        top_k = d
    scores = _mutual_information(_quantile_bins(X, MI_BIN_COUNT), y, MI_BIN_COUNT)
    # highest score first; equal scores prefer the lower index
    order = np.lexsort((np.arange(d), -scores))
    kept = np.sort(order[:top_k])
    return Selector(retained_indices=kept, score_per_feature=scores)


def apply_selector(selector: Selector, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return X[:, selector.retained_indices]


@dataclass(frozen=True)
class Projection:
    """Principal components kept up to a cumulative variance target."""

    mean: np.ndarray
    components: np.ndarray  # (k, d), orthonormal rows
    explained_variance: np.ndarray  # non-increasing


def fit_projection(X, variance_target: float = 0.95) -> Projection:
    X = np.asarray(X, dtype=np.float64)
    if not 0.0 < variance_target <= 1.0:
        raise ConfigError(f"variance_target must be in (0, 1], got {variance_target}")
    mean = X.mean(axis=0)
    centered = X - mean
    _, singulars, vt = np.linalg.svd(centered, full_matrices=False)
    variances = singulars**2 / len(X)
    total = float(variances.sum())
    if total <= 0.0:
        warnings.warn(
            "projection input has zero variance; keeping a single zero component",
            stacklevel=2,
        )
        return Projection(
            mean=mean,
            components=np.zeros((1, X.shape[1])),
            explained_variance=np.zeros(1),
        )
    # deterministic sign: the largest-magnitude entry of each component is positive
    for row in range(len(vt)):
        pivot = int(np.argmax(np.abs(vt[row])))
        if vt[row, pivot] < 0:
            vt[row] = -vt[row]
    cumulative = np.cumsum(variances) / total
    k = int(np.searchsorted(cumulative, variance_target - 1e-12) + 1)
    k = min(k, len(variances))
    return Projection(
        mean=mean, components=vt[:k], explained_variance=variances[:k]
    )


def apply_projection(projection: Projection, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return (X - projection.mean) @ projection.components.T


@dataclass(frozen=True)
class FeatureChain:
    """The fitted stages from raw URLs to a model's input: both language
    models, the scaler, the selector and the optional projection."""

    lm_pair: LmScorePair
    scaler: Scaler
    selector: Selector
    projection: Projection | None

    @cached_property
    def _retained(self) -> tuple[np.ndarray, tuple[str, ...], Scaler]:
        """(columns, sides, scaler) of the columns the selector keeps,
        derived once per chain.  ``sides`` names the kept language models
        in column order; ``columns`` indexes the kept columns in the 78
        lexical columns followed by those sides' scores; the scaler is the
        fitted one sliced to the kept columns."""
        kept = self.selector.retained_indices
        lexical = kept[kept < LEXICAL_COLUMNS]
        sides = tuple(SIDES[i - LEXICAL_COLUMNS] for i in kept[len(lexical) :].tolist())
        columns = np.concatenate((lexical, LEXICAL_COLUMNS + np.arange(len(sides))))
        return columns, sides, Scaler(self.scaler.mean[kept], self.scaler.std[kept])

    def transform(self, urls) -> np.ndarray:
        """Raw URLs to the model's input space: the kept lexical columns and
        kept LM scores, scaled, then projected.  A language model the
        selector drops is never scored.  Gathering and scaling are
        elementwise, so this gives the bits of building all 80 columns,
        selecting and scaling.  The gather is a fancy index, as the
        selector's is, so the matrix keeps that memory layout too: the
        bits of a product with it (a projection, a model) can follow the
        layout."""
        columns, sides, scaler = self._retained
        X = extract_matrix(urls)
        if sides:
            X = np.concatenate((X, self.lm_pair.transform(urls, sides)), axis=1)
        X = apply_scaler(scaler, X[:, columns])
        if self.projection is not None:
            X = apply_projection(self.projection, X)
        return X

    def to_dict(self) -> dict:
        """The language-model pair's dict, then each stage's fields as
        ``array_record``s (``None`` for no projection)."""

        def stage(obj) -> dict | None:
            if obj is None:
                return None
            return {f.name: array_record(getattr(obj, f.name)) for f in fields(obj)}

        return {
            "lm": self.lm_pair.to_dict(),
            "scaler": stage(self.scaler),
            "selector": stage(self.selector),
            "projection": stage(self.projection),
        }

    @cached_property
    def _saved(self) -> tuple[str, str]:
        """(SHA-256 hex digest, text) of the chain file, built once per chain."""
        text = json_text(self.to_dict())
        return hashlib.sha256(text.encode("ascii")).hexdigest(), text

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureChain":
        """Rebuild a chain saved by ``to_dict``; every stage must fit the
        80 input columns and the stage before it."""
        width = CHAIN_INPUT_COLUMNS
        lm_pair = LmScorePair.from_dict(d["lm"])
        scaler = Scaler(
            mean=state_array(d["scaler"], "mean", (width,)),
            std=state_array(d["scaler"], "std", (width,)),
        )
        kept = state_array(d["selector"], "retained_indices", (None,), dtype=np.int64)
        if kept.size == 0 or kept[0] < 0 or kept[-1] >= width or (np.diff(kept) <= 0).any():
            raise ArtifactError(f"selector must retain increasing column indices in [0, {width})")
        selector = Selector(
            retained_indices=kept,
            score_per_feature=state_array(d["selector"], "score_per_feature", (width,)),
        )
        projection = None
        if d["projection"] is not None:
            p = d["projection"]
            components = state_array(p, "components", (None, len(kept)))
            projection = Projection(
                mean=state_array(p, "mean", (len(kept),)),
                components=components,
                explained_variance=state_array(p, "explained_variance", (len(components),)),
            )
        return cls(lm_pair, scaler, selector, projection)


def fit_chain(
    urls,
    labels,
    *,
    lm_order: int = 3,
    lm_smoothing: float = 1.0,
    top_k: int | None = None,
    use_projection: bool = False,
    variance_target: float = 0.95,
) -> tuple[FeatureChain, np.ndarray]:
    """Fit every stage on the given training rows only; returns the chain
    and the training matrix it produced along the way.

    ``top_k=None`` keeps all features (the selector still reports its
    scores, so the chain shape never changes with the toggle).
    """
    urls = list(urls)
    y = np.asarray(labels)
    lm_pair = LmScorePair(order=lm_order, k=lm_smoothing).fit(urls, y)
    X = np.hstack([extract_matrix(urls), lm_pair.transform(urls)])
    scaler = fit_scaler(X)
    X = apply_scaler(scaler, X)
    selector = fit_selector(X, y, top_k if top_k is not None else X.shape[1])
    X = apply_selector(selector, X)
    projection = None
    if use_projection:
        projection = fit_projection(X, variance_target)
        X = apply_projection(projection, X)
    return FeatureChain(lm_pair, scaler, selector, projection), X


@dataclass(frozen=True)
class PipelineArtifact:
    """Everything needed to score a raw URL: the fitted feature chain and
    the model trained on its output."""

    chain: FeatureChain
    model: TrainedModel

    def featurize(self, urls) -> np.ndarray:
        """Raw URLs to this artifact's model input (``chain.transform``)."""
        return self.chain.transform(urls)

    def predict(self, urls) -> tuple[np.ndarray, np.ndarray]:
        """(labels, scores) for raw URLs."""
        X = self.featurize(urls)
        scores = self.model.predict_scores(X)
        return (scores >= 0.5).astype(np.int64), scores


def grid_search(
    family: str,
    grid: dict[str, list],
    train_pool: tuple[np.ndarray, np.ndarray],
    val_sets,
    target_metric: str = "f1",
    seed: int = 0,
) -> TrainedModel:
    """Exhaustive search, scored by the mean of ``target_metric`` over the
    validation sets; ties keep the earlier enumeration point.  Returns the
    winning model as the search fitted it, so its ``spec`` is the choice.
    An empty grid is one point, the family's defaults.  A point whose fit
    fails, or diverges to non-finite validation scores, warns and is never
    chosen; if every point fails, the first point's ``ModelError`` is raised.
    """
    val_sets = list(val_sets)
    if not val_sets:
        raise ConfigError("grid search requires at least one validation set")
    X_train, y_train = train_pool
    names = list(grid.keys())
    best: TrainedModel | None = None
    best_score = -np.inf
    first_error: ModelError | None = None
    for values in itertools.product(*(grid[name] for name in names)):
        spec = ModelSpec(family=family, hyperparameters=dict(zip(names, values)), seed=seed)
        try:
            model = fit_model(spec, X_train, y_train)
            per_set = []
            for X_val, y_val in val_sets:
                scores = model.predict_scores(X_val)
                if not np.all(np.isfinite(scores)):  # a diverged fit
                    raise ModelError("validation scores contain non-finite values")
                report = compute_metrics(y_val, (scores >= 0.5).astype(np.int64), scores)
                per_set.append(getattr(report, target_metric))
            mean_score = float(np.mean(per_set))
        except ModelError as exc:
            warnings.warn(
                f"grid point {spec.hyperparameters} failed to fit: {exc}; skipped",
                stacklevel=2,
            )
            first_error = first_error or exc
            continue
        if mean_score > best_score:
            best, best_score = model, mean_score
        del model  # keep only the best fit alive while the next point fits
    if best is None:
        raise first_error
    return best


def save_pipeline(artifact: PipelineArtifact, path) -> None:
    """Write the chain to ``chains/<sha256>.json`` beside ``path`` (the same
    bytes, so the same name, for every artifact sharing the chain), then
    the model file naming it; missing directories are made first."""
    path = Path(path)
    digest, text = artifact.chain._saved
    chain_dir = path.parent / CHAIN_DIR
    chain_dir.mkdir(parents=True, exist_ok=True)
    write_text_atomic(text, chain_dir / f"{digest}.json")
    write_json_atomic(
        {
            "artifact": PIPELINE_ARTIFACT_TAG,
            "format_version": PIPELINE_ARTIFACT_VERSION,
            "catalog_version": CATALOG_VERSION,
            "chain": digest,
            "model": artifact.model.to_dict(),
        },
        path,
    )


def remove_other_chains(models_dir, chain: FeatureChain) -> list[str]:
    """Delete every chain file in ``models_dir/chains`` except ``chain``'s
    own, once every model file in ``models_dir`` names ``chain``.  Works
    from the directory listing alone; no model file is read.  Returns the
    deleted file names."""
    keep = f"{chain._saved[0]}.json"
    removed = []
    for path in sorted((Path(models_dir) / CHAIN_DIR).glob("*.json")):
        if path.name != keep:
            path.unlink()
            removed.append(path.name)
    return removed


def _load_chain(path: Path, digest: str) -> FeatureChain:
    """Parse the chain file after checking its bytes hash to ``digest``."""
    data = read_artifact_bytes(path)
    if hashlib.sha256(data).hexdigest() != digest:
        raise ArtifactError(f"chain file {path} does not match the SHA-256 in its name")
    try:
        return FeatureChain.from_dict(parse_json(data, path))
    except (AttributeError, KeyError, TypeError, ValueError, ModelError) as exc:
        raise ArtifactError(f"feature chain {path} is malformed: {exc}") from exc


def load_pipeline(path, *, chains: dict[str, FeatureChain] | None = None) -> PipelineArtifact:
    """Rebuild an artifact from its model file and the chain file it names.

    ``chains`` maps digests to chains already built; a caller loading
    several artifacts passes one dict so that each distinct chain is read,
    checked and built once.  An artifact whose features come from another
    catalog version raises ``CatalogMismatchError``.
    """
    path = Path(path)
    payload = read_json(path)
    try:
        tag = payload["artifact"]
        version = payload["format_version"]
    except KeyError as exc:
        raise ArtifactError(f"artifact is missing the {exc.args[0]!r} field") from exc
    if tag != PIPELINE_ARTIFACT_TAG:
        raise ArtifactError(f"expected a {PIPELINE_ARTIFACT_TAG!r} artifact, got {tag!r}")
    if version != PIPELINE_ARTIFACT_VERSION:
        raise ArtifactError(
            f"unsupported pipeline artifact version {version!r}; "
            f"this build reads version {PIPELINE_ARTIFACT_VERSION}"
        )
    digest = payload.get("chain")
    if not isinstance(digest, str) or not _DIGEST.fullmatch(digest):
        raise ArtifactError(
            f"artifact {path} must name its chain by 64 lowercase hex digits, got {digest!r}"
        )
    chains = {} if chains is None else chains
    if digest not in chains:
        chains[digest] = _load_chain(path.parent / CHAIN_DIR / f"{digest}.json", digest)
    chain = chains[digest]
    try:
        model = TrainedModel.from_dict(payload["model"])
        catalog_version = payload["catalog_version"]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"pipeline artifact is malformed: {exc}") from exc
    if catalog_version != CATALOG_VERSION:
        raise CatalogMismatchError(
            f"artifact was built for feature catalog {catalog_version!r}; "
            f"this build extracts {CATALOG_VERSION!r}"
        )
    return PipelineArtifact(chain, model)
