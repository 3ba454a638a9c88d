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
the language-model pair as its order, k and the count arrays of each
model whose score the selector keeps, then each stage's arrays, all as
base64 records) in
``chains/<sha256>.json`` beside the model file, named by the SHA-256 of
its bytes, and the model file itself: a tag, a format version, the
feature catalog version, that digest and the model (spec, feature
count, state).  Every family of a run names the same chain file, and
the artifacts loaded in one process from model files naming one digest
share one chain object.  ``grid_search`` fits each grid point once and
returns the best fitted model; an empty grid is the defaults, a failed
fit is never chosen.
"""

from __future__ import annotations

import hashlib
import itertools
import re
import warnings
import weakref
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .charlm import SIDES, LmScorePair, _blocks
from .errors import ArtifactError, CatalogMismatchError, ConfigError, DataError, ModelError
from .evaluation import check_metric, compute_metrics
from .fileio import (
    json_text, parse_json, read_artifact_bytes, read_json, write_json_atomic,
    write_text_atomic,
)
from .models import ModelSpec, TrainedModel, fit_model
from .models.base import array_record, check_int, check_real, state_array
from .urlfeat import CATALOG_VERSION, catalog, extract_matrix

PIPELINE_ARTIFACT_TAG = "urlsleuth-pipeline"
PIPELINE_ARTIFACT_VERSION = 9
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
    joint frequencies: one ``bincount`` over (column, bin, label).  The
    cell indices are formed in ``bins`` itself, which is overwritten."""
    n, d = bins.shape
    classes, labels = np.unique(labels, return_inverse=True)
    cells = bins  # in place: no n x d temporaries beside it
    cells += np.arange(d) * n_bins
    cells *= len(classes)
    cells += labels.reshape(-1, 1)
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
    top_k = check_int("top_k", top_k, 1)
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


def fit_projection(X, projection_variance: float) -> Projection:
    X = np.asarray(X, dtype=np.float64)
    projection_variance = check_real(
        "projection_variance", projection_variance, 0.0, strict=True, high=1.0
    )
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
    k = int(np.searchsorted(cumulative, projection_variance - 1e-12) + 1)
    k = min(k, len(variances))
    return Projection(
        mean=mean, components=vt[:k], explained_variance=variances[:k]
    )


def apply_projection(projection: Projection, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return (X - projection.mean) @ projection.components.T


def _kept_sides(kept: np.ndarray) -> tuple[str, ...]:
    """The language models whose score columns the rising column indices
    ``kept`` (into the 80 chain inputs) hold, in column order."""
    return tuple(SIDES[i - LEXICAL_COLUMNS] for i in kept[kept >= LEXICAL_COLUMNS].tolist())


@dataclass(frozen=True)
class FeatureChain:
    """The fitted stages from raw URLs to a model's input: the language
    models (a fitted chain holds both, a loaded one only those whose
    score the selector keeps), the scaler, the selector and the optional
    projection."""

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
        sides = _kept_sides(kept)
        lexical = kept[: len(kept) - len(sides)]
        columns = np.concatenate((lexical, LEXICAL_COLUMNS + np.arange(len(sides))))
        return columns, sides, Scaler(self.scaler.mean[kept], self.scaler.std[kept])

    def transform(self, urls) -> np.ndarray:
        """Raw URLs to the model's input space: the kept lexical columns and
        kept LM scores, scaled, then projected.  A language model the
        selector drops is never scored.

        Two or more URLs are worked through one block of whole URLs at a
        time (``charlm._blocks``), each block's scaled columns written
        into one preallocated matrix, so that beyond its input and output
        only one block's working set is alive; the projection then runs
        once on the whole matrix.  Extraction, the LM scores, gathering
        and scaling give a row the same bits whatever block it is in, so
        this gives the bits of building all 80 columns, selecting and
        scaling.  The matrix also keeps that path's memory layout, the
        F order of the selector's fancy index, since the bits of a
        product with it (a projection, a model) can follow the layout."""
        if len(urls) < 2:
            X = self._block(urls)
        else:
            # The F order of the selector's gather of one whole matrix, as
            # the scaler keeps it (a lone column, both C- and F-contiguous,
            # comes out C-ordered).
            kept = len(self._retained[0])
            X = np.empty((kept, len(urls))).T if kept > 1 else np.empty((len(urls), 1))
            positions = np.fromiter(map(len, urls), np.int64, len(urls))
            positions += self.lm_pair.order  # each URL's padded LM windows
            for lo, hi in _blocks(positions):
                X[lo:hi] = self._block(urls[lo:hi])
        if self.projection is not None:
            X = apply_projection(self.projection, X)
        return X

    def _block(self, urls) -> np.ndarray:
        """The kept columns of ``urls``, scaled: one block of ``transform``."""
        columns, sides, scaler = self._retained
        X = extract_matrix(urls)
        if sides:
            X = np.concatenate((X, self.lm_pair.transform(urls, sides)), axis=1)
        return apply_scaler(scaler, X[:, columns])

    def to_dict(self) -> dict:
        """The dict of the language-model pair cut to the sides the
        selector keeps, then each stage's fields as ``array_record``s
        (``None`` for no projection)."""

        def stage(obj) -> dict | None:
            if obj is None:
                return None
            return {f.name: array_record(getattr(obj, f.name)) for f in fields(obj)}

        dropped = {side: None for side in SIDES if side not in self._retained[1]}
        return {
            "lm": replace(self.lm_pair, **dropped).to_dict(),
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
        80 input columns and the stage before it, and the language-model
        pair must hold exactly the sides the selector keeps."""
        width = CHAIN_INPUT_COLUMNS
        scaler = Scaler(
            mean=state_array(d["scaler"], "mean", (width,)),
            std=state_array(d["scaler"], "std", (width,)),
        )
        kept = state_array(d["selector"], "retained_indices", (None,), dtype=np.int64)
        if kept.size == 0 or kept[0] < 0 or kept[-1] >= width or (np.diff(kept) <= 0).any():
            raise ArtifactError(f"selector must retain increasing column indices in [0, {width})")
        sides = _kept_sides(kept)
        for side in SIDES:
            if (side in d["lm"]) != (side in sides):
                state = "holds" if side in d["lm"] else "lacks"
                verb = "keeps" if side in sides else "drops"
                raise ArtifactError(
                    f"chain {state} the {side} language model, whose column its selector {verb}"
                )
        lm_pair = LmScorePair.from_dict(d["lm"])
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
    top_k: int = CHAIN_INPUT_COLUMNS,
    projection_variance: float | None = None,
) -> tuple[FeatureChain, np.ndarray]:
    """Fit every stage on the given training rows only; returns the chain
    and the training matrix it produced along the way.

    The selector keeps the ``top_k`` best-scoring features; the default
    keeps all ``CHAIN_INPUT_COLUMNS`` of them, and so both LM sides.  A
    ``projection_variance`` projects them onto the principal components
    that keep that share of their variance; ``None`` projects nothing.
    """
    check_int("top_k", top_k, 1)
    check_real(
        "projection_variance", projection_variance, 0.0, strict=True, high=1.0, allow_none=True
    )
    urls = list(urls)
    y = np.asarray(labels)
    lm_pair = LmScorePair(order=lm_order, k=lm_smoothing).fit(urls, y)
    X = np.hstack([extract_matrix(urls), lm_pair.transform(urls)])
    scaler = fit_scaler(X)
    X = apply_scaler(scaler, X)
    selector = fit_selector(X, y, top_k)
    X = apply_selector(selector, X)
    projection = None
    if projection_variance is not None:
        projection = fit_projection(X, projection_variance)
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
    check_metric("target_metric", target_metric)
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


# Every chain built in this process, by the SHA-256 of its file.  A chain
# is dropped with the last artifact that holds it.
_CHAINS: weakref.WeakValueDictionary[str, FeatureChain] = weakref.WeakValueDictionary()


def _load_chain(path: Path, digest: str) -> FeatureChain:
    """The chain in ``path``, once its bytes hash to ``digest``: the one
    already built from those bytes if one is alive, else parsed and built
    now.  The file is read and checked on every call."""
    data = read_artifact_bytes(path)
    if hashlib.sha256(data).hexdigest() != digest:
        raise ArtifactError(f"chain file {path} does not match the SHA-256 in its name")
    chain = _CHAINS.get(digest)
    if chain is None:
        payload = parse_json(data, path)
        try:
            chain = FeatureChain.from_dict(payload)
        except (AttributeError, KeyError, TypeError, ValueError, ModelError, ArtifactError) as exc:
            raise ArtifactError(f"feature chain {path} is malformed: {exc}") from exc
        _CHAINS[digest] = chain
    return chain


def load_pipeline(path) -> PipelineArtifact:
    """Rebuild an artifact from its model file and the chain file it names.

    The chain file is read and hash-checked on every load, but artifacts
    loaded in one process whose model files name the same digest share
    one ``FeatureChain``, built on the first of those loads and kept while
    any of them is alive.  An artifact whose features come from another
    catalog version raises ``CatalogMismatchError``, and a model whose
    feature count is not the width of its chain's output ``ArtifactError``.
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
    chain = _load_chain(path.parent / CHAIN_DIR / f"{digest}.json", digest)
    try:
        model = TrainedModel.from_dict(payload["model"])
        catalog_version = payload["catalog_version"]
    except (AttributeError, KeyError, TypeError, ValueError, ModelError, ArtifactError) as exc:
        raise ArtifactError(f"model file {path} is malformed: {exc}") from exc
    if catalog_version != CATALOG_VERSION:
        raise CatalogMismatchError(
            f"artifact was built for feature catalog {catalog_version!r}; "
            f"this build extracts {CATALOG_VERSION!r}"
        )
    width = len(chain.selector.retained_indices)  # the chain's output columns
    if chain.projection is not None:
        width = len(chain.projection.components)
    if model.classifier.n_features_ != width:
        raise ArtifactError(
            f"model file {path} takes {model.classifier.n_features_} features, "
            f"but its chain gives {width}"
        )
    return PipelineArtifact(chain, model)
