"""Span recorder that times urlsleuth's layers from outside the program.

``install`` wraps the public entry points of each module listed in
``TARGETS``.  A module that imported a function with ``from ... import``
holds its own reference, so every attribute of every loaded ``urlsleuth``
module that binds the original function is replaced by the same wrapper.
A target that no longer exists is reported as missing instead of raising.

Each call records one span: name, start, end, parent span, request id and
a few counts taken from the call's arguments or result.  Spans stay in
memory until ``Recorder.dump`` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
import sys
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_UNK = re.compile(r"[^\x20-\x7e]")


def _rows(args, kwargs, result):
    urls = args[0]
    return {"rows": len(urls), "chars": sum(len(u) for u in urls)}


def _method_rows(args, kwargs, result):
    urls = args[1]
    return {"rows": len(urls), "unk": sum(len(_UNK.findall(u)) for u in urls)}


def _dataset_rows(args, kwargs, result):
    return {"rows": len(result)}


def _artifact_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else args[0]
    return {"bytes": os.path.getsize(path), "artifact": os.path.basename(path)}


def _model_family(args, kwargs, result):
    return {"family": args[0].family}


def _scored_family(args, kwargs, result):
    return {"family": args[0].spec.family, "rows": len(args[1])}


def _grid_family(args, kwargs, result):
    return {"family": args[0]}


# span name -> (module, attribute path, function giving the span's counts)
TARGETS = {
    "corpus.load": ("urlsleuth.corpus", "load_dataset", _dataset_rows),
    "urlfeat.extract": ("urlsleuth.urlfeat", "extract_matrix", _rows),
    "charlm.fit": ("urlsleuth.charlm", "LmScorePair.fit", None),
    "charlm.transform": ("urlsleuth.charlm", "LmScorePair.transform", _method_rows),
    "pipeline.scaler_fit": ("urlsleuth.pipeline", "fit_scaler", None),
    "pipeline.selector_fit": ("urlsleuth.pipeline", "fit_selector", None),
    "pipeline.apply_scaler": ("urlsleuth.pipeline", "apply_scaler", None),
    "pipeline.apply_selector": ("urlsleuth.pipeline", "apply_selector", None),
    "pipeline.apply_projection": ("urlsleuth.pipeline", "apply_projection", None),
    "pipeline.featurize": ("urlsleuth.pipeline", "PipelineArtifact.featurize", None),
    "pipeline.predict": ("urlsleuth.pipeline", "PipelineArtifact.predict", None),
    "pipeline.save": ("urlsleuth.pipeline", "save_pipeline", _artifact_bytes),
    "pipeline.load": ("urlsleuth.pipeline", "load_pipeline", _artifact_bytes),
    "grid": ("urlsleuth.pipeline", "grid_search", _grid_family),
    "models.fit": ("urlsleuth.models", "fit_model", _model_family),
    "models.score": ("urlsleuth.models", "TrainedModel.predict_scores", _scored_family),
    "evaluation.metrics": ("urlsleuth.evaluation", "compute_metrics", None),
    "evaluation.per_dataset_ranks": ("urlsleuth.evaluation", "per_dataset_ranks", None),
    "evaluation.aggregate": ("urlsleuth.evaluation", "aggregate_rank_table", None),
    "cli.train": ("urlsleuth.cli", "cmd_train", None),
    "cli.evaluate": ("urlsleuth.cli", "cmd_evaluate", None),
    "cli.rank": ("urlsleuth.cli", "cmd_rank", None),
    "cli.classify": ("urlsleuth.cli", "cmd_classify", None),
}


class Recorder:
    """In-memory spans: [name, start, end, parent index, request id, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request: str | None = None
        self.missing: list[str] = []

    @contextmanager
    def request(self, request_id: str):
        """Tag every span opened inside the block with ``request_id``."""
        previous, self._request = self._request, request_id
        try:
            yield
        finally:
            self._request = previous

    def call(self, name, fn, describe, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent, self._request, {}]
        self.spans.append(span)
        self._stack.append(index)
        # grid search reports a failed fit only as a warning: count them here
        watch = warnings.catch_warnings(record=True) if name == "grid" else nullcontext()
        try:
            with watch as caught:
                if caught is not None:
                    warnings.simplefilter("always")
                span[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
        finally:
            self._stack.pop()
        for w in caught or ():
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        if describe is not None:
            try:
                span[5] = describe(args, kwargs, result)
            except (TypeError, IndexError, AttributeError, OSError) as exc:
                span[5] = {"describe_error": repr(exc)}
        if caught:
            span[5]["failed"] = sum("failed to fit" in str(w.message) for w in caught)
        return result

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request", "counts"],
                       "spans": self.spans, "missing": self.missing}, fh)


def _wrap(recorder: Recorder, name: str, fn, describe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, describe, args, kwargs)

    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every target; record the names of those that cannot be found."""
    importlib.import_module("urlsleuth.cli")
    for name, (module_name, path, describe) in TARGETS.items():
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            recorder.missing.append(name)
            continue
        wrapper = _wrap(recorder, name, original, describe)
        if outer:  # a method: the class attribute is the only binding
            setattr(owner, attr, wrapper)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "urlsleuth" or mod_name.startswith("urlsleuth.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def self_time(spans, index_children, i) -> float:
    """Span duration minus the time its direct children cover."""
    start, end = spans[i][1], spans[i][2]
    covered = sum(spans[c][2] - spans[c][1] for c in index_children.get(i, ()))
    return (end - start) - covered


def children_of(spans) -> dict[int, list[int]]:
    out: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            out[span[3]].append(i)
    return out
