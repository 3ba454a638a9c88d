"""Per-layer metrics derived from recorded spans.

``RULES`` maps each span name to the metrics it adds to.  Times are
inclusive span durations, except ``cli.<command>.self_s``, which is each
command span minus the time covered by its child spans.  Every value is
per pass of the workload, except the sizes in ``PER_RUN``.
"""

from __future__ import annotations

from collections import defaultdict

from spans import TARGETS, children_of, self_time

FAMILIES = ("BASELINE", "LR", "LINEAR_SVM", "DT", "RF", "GBT", "KNN", "GNB", "MLP",
            "KMEANS", "GMM")
COMMANDS = ("train", "evaluate", "rank", "classify")

# what a span adds to a metric: its duration, its self time, 1, the number
# of model fits inside it, the size of an artifact file whose name was not
# counted yet, or one of the counts its wrapper recorded
DURATION, SELF, ONE, FITS, ARTIFACT = "duration", "self", "one", "fits", "artifact"
RULES: dict[str, dict[str, str]] = {
    "corpus.load": {"corpus.load_s": DURATION, "corpus.rows": "rows"},
    "urlfeat.extract": {"urlfeat.extract_s": DURATION, "urlfeat.calls": ONE,
                        "urlfeat.rows": "rows", "urlfeat.chars": "chars"},
    "charlm.fit": {"charlm.fit_s": DURATION},
    "charlm.transform": {"charlm.transform_s": DURATION, "charlm.calls": ONE,
                         "charlm.rows": "rows", "charlm.unk_chars": "unk"},
    "pipeline.scaler_fit": {"pipeline.scaler_fit_s": DURATION},
    "pipeline.selector_fit": {"pipeline.selector_fit_s": DURATION},
    "pipeline.apply_scaler": {"pipeline.apply_s": DURATION},
    "pipeline.apply_selector": {"pipeline.apply_s": DURATION},
    "pipeline.apply_projection": {"pipeline.apply_s": DURATION},
    "pipeline.featurize": {"pipeline.featurize_calls": ONE},
    "pipeline.save": {"pipeline.save_s": DURATION, "pipeline.artifact_bytes": ARTIFACT},
    "pipeline.load": {"pipeline.load_s": DURATION, "pipeline.load_calls": ONE,
                      "pipeline.artifact_bytes": ARTIFACT},
    "grid": {"grid.{family}.s": DURATION, "grid.{family}.points": FITS,
             "grid.{family}.failed": "failed"},
    "models.fit": {"models.{family}.fit_s": DURATION},
    "models.score": {"models.{family}.score_s": DURATION,
                     "models.{family}.score_rows": "rows"},
    "evaluation.metrics": {"evaluation.metrics_s": DURATION,
                           "evaluation.metrics_calls": ONE},
    "evaluation.per_dataset_ranks": {"evaluation.rank_s": DURATION},
    "evaluation.aggregate": {"evaluation.rank_s": DURATION},
    **{f"cli.{c}": {f"cli.{c}.self_s": SELF} for c in COMMANDS},
}
# the total size of the distinct artifacts (by file name) a run saved or
# loaded, the figure ``artifact_mb`` reports: not a sum over passes
PER_RUN = {"pipeline.artifact_bytes"}


def _unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


def _sources() -> dict[str, tuple[str, list[str]]]:
    """metric -> (unit, span names it is derived from), in reporting order."""
    out: dict[str, tuple[str, list[str]]] = {}
    for span, rules in RULES.items():
        for template, source in rules.items():
            for family in FAMILIES if "{family}" in template else (None,):
                names = out.setdefault(template.format(family=family), (_unit(template), []))[1]
                names.append(span)
                if source == FITS:
                    names.append("models.fit")
    return out


SOURCES = _sources()
assert all(name in TARGETS for _, names in SOURCES.values() for name in names)


def layer_totals(spans, keep=lambda span: True) -> dict[str, float]:
    """Sum every metric over the spans that ``keep`` accepts."""
    out: dict[str, float] = defaultdict(float)
    kids = children_of(spans)
    artifacts: set = set()
    for i, span in enumerate(spans):
        name, start, end, _, _, counts = span
        if name not in RULES or not keep(span):
            continue
        for template, source in RULES[name].items():
            if source == DURATION:
                value = end - start
            elif source == SELF:
                value = self_time(spans, kids, i)
            elif source == ONE:
                value = 1
            elif source == FITS:
                value = sum(1 for c in kids.get(i, ()) if spans[c][0] == "models.fit")
            elif source == ARTIFACT:
                value = 0 if counts.get("artifact") in artifacts else counts.get("bytes", 0)
                artifacts.add(counts.get("artifact"))
            else:
                value = counts.get(source, 0)
            out[template.format(family=counts.get("family"))] += value
    return out


def per_layer_metrics(spans, missing_targets, passes: int):
    """All per-layer metrics (per pass), plus the names that are missing
    (a wrapped target no longer exists) or were never exercised."""
    totals = layer_totals(spans)
    metrics, missing, idle = {}, [], []
    for name, (unit, sources) in SOURCES.items():
        value = totals.get(name, 0)
        if any(src in missing_targets for src in sources):
            missing.append(name)
        elif name not in totals:
            idle.append(name)
        per = 1 if name in PER_RUN else passes
        if unit != "s" and value % per == 0:
            value = int(value) // per
        else:
            value = value / per
        metrics[name] = {"value": value, "unit": unit}
    return metrics, missing, idle
