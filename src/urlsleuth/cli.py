"""Command-line front end.

Subcommands follow the workflow: ``ingest`` standardizes and audits
source CSVs, ``audit`` reports cross-dataset overlap and exports label
samples, ``featurize`` dumps lexical feature matrices, ``train`` fits
the preprocessing chain plus every model family with grid search,
``evaluate`` scores saved artifacts on a partition, ``rank`` emits the
cross-dataset rank table, and ``classify`` labels URLs with one saved
artifact.  Every output is written atomically, into an output directory
made only at a command's first write, and is byte-identical across
repeat runs with the same config and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
import warnings
from contextlib import closing
from pathlib import Path

import numpy as np

from . import corpus
from .config import RunConfig, load_run_config
from .errors import ConfigError, DataError, ModelError, UrlsleuthError
from .evaluation import (
    MetricReport,
    aggregate_rank_table,
    baseline_report,
    compute_metrics,
    metric_reports_to_csv,
    per_dataset_ranks,
    rank_table_to_csv,
)
from .fileio import atomic_file, csv_text, json_text, read_json, write_text_atomic
from .models import FAMILIES
from .pipeline import (
    PipelineArtifact,
    fit_chain,
    grid_search,
    load_pipeline,
    remove_other_chains,
    save_pipeline,
)
from .synth import records_to_csv
from .urlfeat import catalog, extract_matrix

OVERLAP_FLAG_THRESHOLD = 0.20
# classify formats and writes its CSV this many rows at a time.
CSV_CHUNK_ROWS = 1024
# train fits at most this many families at once, each in a child process:
# two CPUs is the widest host its speed and memory were measured on.
FIT_PROCESSES = 2
# The families whose grid searches run longest on the default grids
# (in-process seconds on 4 x 2000 URLs: MLP 0.33, RF 0.21, KNN 0.13,
# GBT 0.13, LR 0.10, LINEAR_SVM 0.06, every other family under 0.03),
# in that order.  train starts their children first, so that no long
# search starts last; the order children start in changes no output.
LONGEST_FITS = ("MLP", "RF", "KNN", "GBT", "LR", "LINEAR_SVM")


def _add_common(parser: argparse.ArgumentParser, *, seed: bool = False) -> None:
    parser.add_argument("--config", required=True, help="run configuration JSON file")
    parser.add_argument("--out", help="output directory (overrides the config)")
    if seed:  # only train and audit draw random numbers
        parser.add_argument("--seed", type=int, help="seed override for this command")


def _resolve(args) -> tuple[RunConfig, Path, int]:
    cfg = load_run_config(args.config)
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:  # checked before anything is made or fitted
        raise ConfigError(f"seed must be an integer >= 0, got {seed}")
    out_dir = Path(args.out) if args.out else cfg.output_dir
    return cfg, out_dir, cfg.seed if seed is None else seed


def _write(text: str, path: Path) -> None:
    """Write ``path`` atomically, making its directory first, so that a
    command which fails before its first write leaves no directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(text, path)


def _load_datasets(cfg: RunConfig) -> list[corpus.Dataset]:
    """Load, standardize, and deduplicate every configured dataset."""
    out = []
    for entry in cfg.datasets:
        ds = corpus.load_dataset(str(entry.path), entry.label_map, entry.id, entry.name)
        out.append(corpus.deduplicate(ds))
    return out


def _run_data(cfg: RunConfig) -> tuple[corpus.PartitionPlan, dict]:
    """The partition plan, and ``{dataset id: (urls, labels)}`` for every
    configured dataset in config order."""
    datasets = _load_datasets(cfg)
    plan = corpus.partition(
        datasets, (cfg.partition.train, cfg.partition.val, cfg.partition.test),
        cfg.partition.seed,
    )
    data = {
        d.id: ([r.url for r in d.records], np.array([r.label for r in d.records], dtype=np.int64))
        for d in datasets
    }
    return plan, data


def _partition_record(plan: corpus.PartitionPlan) -> dict:
    return {
        "train": list(plan.train_ids),
        "val": list(plan.val_ids),
        "test": list(plan.test_ids),
        "seed": plan.seed,
    }


def _recorded_summary(out_dir: Path, plan: corpus.PartitionPlan) -> dict | None:
    """``out_dir``'s train summary, or None when it holds none.  Models
    trained on another partition would be scored on their own training
    datasets, so a plan other than the recorded one is refused."""
    path = out_dir / "train_summary.json"
    if not path.exists():
        return None
    summary = read_json(path)
    if "partition" not in summary or not isinstance(summary.get("chosen"), dict):
        raise ConfigError(f"train summary {path} is malformed: needs 'partition' and 'chosen'")
    recorded, planned = summary["partition"], _partition_record(plan)
    if recorded != planned:
        raise ConfigError(
            f"the models in {out_dir} were trained on partition "
            f"{json.dumps(recorded, sort_keys=True)}, but this config gives partition "
            f"{json.dumps(planned, sort_keys=True)}; train again, or use another --out"
        )
    return summary


def fit_run(cfg: RunConfig, plan: corpus.PartitionPlan, data, families, seed: int):
    """Fit the feature chain on the pooled training datasets once, then
    yield one in-memory ``PipelineArtifact`` per family, in ``families``
    order, grid-searched on the validation datasets.  The families' grid
    searches run in forked child processes, a few at once, so models
    finished ahead of their turn wait in memory (``_fitted_models``)."""
    train_urls = [url for ds_id in plan.train_ids for url in data[ds_id][0]]
    train_labels = np.concatenate([data[ds_id][1] for ds_id in plan.train_ids])
    chain, train_matrix = fit_chain(
        train_urls, train_labels, lm_order=cfg.lm.order, lm_smoothing=cfg.lm.smoothing_k,
        top_k=cfg.features.selector_top_k if cfg.features.use_selector else None,
        use_projection=cfg.features.use_projection, variance_target=cfg.features.variance_target,
    )
    val_sets = [(chain.transform(data[ds_id][0]), data[ds_id][1]) for ds_id in plan.val_ids]

    def fit(family):
        return grid_search(
            family, cfg.grid_for(family), (train_matrix, train_labels), val_sets,
            target_metric=cfg.tuning_metric, seed=seed,
        )

    with closing(_fitted_models(fit, families)) as models:
        for model in models:
            yield PipelineArtifact(chain, model)


def _fit_in_child(conn, fit, family: str) -> None:
    """A forked child's whole work: send back ``fit(family)``, or the
    exception it raised with its traceback as text, and the warnings it
    recorded instead of printing."""
    import signal  # here, not at module level, as multiprocessing is

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    with warnings.catch_warnings(record=True) as caught:
        try:
            model, error = fit(family), None
        except Exception as exc:
            model, error = None, (exc, traceback.format_exc())
    conn.send((model, error, [(w.message, w.category, w.filename, w.lineno) for w in caught]))


class ChildTraceback(Exception):
    """The traceback, as text, of an exception raised in a child process;
    the cause of that exception when it is raised again in the parent,
    which receives the exception without its frames."""


def _reissue(message, category, filename: str, lineno: int) -> None:
    """Issue a warning recorded in a child as ``warnings.warn`` would have
    issued it here: under the module that ``filename`` holds and in that
    module's registry, so filters by module and printing once per
    location both apply."""
    module = next((m for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), None)
    if module is None:
        warnings.warn_explicit(message, category, filename, lineno)
    else:
        registry = vars(module).setdefault("__warningregistry__", {})
        warnings.warn_explicit(message, category, filename, lineno, module.__name__, registry)


def _fitted_models(fit, families):
    """``fit(family)`` for each of ``families``, yielded in order.

    With several families and several usable CPUs, each family fits in a
    forked child process, at most ``FIT_PROCESSES`` alive at once, started
    longest first (``LONGEST_FITS``), so finished models wait here for
    their turn.  The children's pipes are read in the calling thread; a
    family's warnings are re-issued here, and its exception raised here,
    when its turn comes.  Every child is ended and joined before this
    returns, raises, or is closed.  Otherwise (one family, one usable CPU,
    or no ``os.sched_getaffinity`` on the platform) each family fits in
    this process when its turn comes."""
    import multiprocessing  # here, not at module level: classify never forks
    from multiprocessing.connection import wait

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if len(families) < 2 or cpus < 2:
        for family in families:
            yield fit(family)
        return
    context = multiprocessing.get_context("fork")  # children inherit the matrices unpickled
    first = {family: rank for rank, family in enumerate(LONGEST_FITS)}
    queued = iter(sorted(enumerate(families), key=lambda item: first.get(item[1], len(first))))
    running = {}  # the parent's end of a child's pipe -> (position, family, child)
    done = {}  # position -> (model, error, warnings) as the child sent them

    def start_next() -> None:
        position, family = next(queued, (None, None))
        if family is None:
            return
        reader, writer = context.Pipe(duplex=False)
        child = context.Process(target=_fit_in_child, args=(writer, fit, family), daemon=True)
        child.start()
        writer.close()  # the child holds the only writer, so its death reads as EOF
        running[reader] = (position, family, child)

    try:
        for _ in range(min(cpus, FIT_PROCESSES)):
            start_next()
        for position in range(len(families)):
            while position not in done:
                for reader in wait(list(running)):
                    finished, family, child = running.pop(reader)
                    try:
                        done[finished] = reader.recv()
                    except EOFError:
                        error = ModelError(f"the process fitting {family} ended without a model")
                        done[finished] = None, (error, None), []
                    reader.close()
                    child.join()
                    start_next()
            model, error, caught = done.pop(position)
            for message, category, filename, lineno in caught:
                _reissue(message, category, filename, lineno)
            if error is not None:
                exc, text = error
                raise exc from (ChildTraceback(text) if text else None)
            yield model
    finally:
        for _, _, child in running.values():
            child.terminate()
        for reader, (_, _, child) in running.items():
            child.join()
            reader.close()


def score_datasets(artifacts: dict[str, PipelineArtifact], data, ids) -> list[MetricReport]:
    """One metric report per dataset in ``ids`` and family in ``artifacts``,
    dataset by dataset.  Artifacts sharing a chain object featurize each
    dataset once."""
    reports = []
    for ds_id in ids:
        urls, labels = data[ds_id]
        features = {}  # id(chain) -> matrix; the artifacts keep each chain alive
        for family, artifact in artifacts.items():
            key = id(artifact.chain)
            if key not in features:
                features[key] = artifact.featurize(urls)
            scores = artifact.model.predict_scores(features[key])
            predictions = (scores >= 0.5).astype(np.int64)
            reports.append(
                compute_metrics(labels, predictions, scores, dataset_id=ds_id, family=family)
            )
    return reports


def _saved_artifacts(out_dir: Path, plan: corpus.PartitionPlan) -> dict[str, PipelineArtifact]:
    """Every family's saved artifact under ``out_dir/models``, once the
    recorded partition, if any, matches ``plan``.  Artifacts naming the
    same chain digest share one chain object (``load_pipeline``), so each
    distinct chain is built once and ``score_datasets`` featurizes each
    dataset once per chain."""
    _recorded_summary(out_dir, plan)
    models_dir = out_dir / "models"
    artifacts = {}
    for family in FAMILIES:
        path = models_dir / f"{family}.json"
        if path.exists():
            artifacts[family] = load_pipeline(path)
    if not artifacts:
        raise ConfigError(f"no model artifacts found under {models_dir}; run train first")
    return artifacts


def cmd_ingest(args) -> int:
    cfg, out_dir, _ = _resolve(args)
    report = {}
    for entry in cfg.datasets:
        raw = corpus.load_dataset(str(entry.path), entry.label_map, entry.id, entry.name)
        deduped, removed, conflicts = corpus.dedup_stats(raw)
        report[entry.id] = {
            "rows_loaded": len(raw),
            "duplicates_removed": removed,
            "label_conflicts": conflicts,
            "records_kept": len(deduped),
            "malicious_fraction": corpus.class_balance(deduped),
        }
        _write(records_to_csv(deduped.records), out_dir / f"ingested_{entry.id}.csv")
    _write(json_text(report), out_dir / "ingest_report.json")
    print(f"ingested {len(cfg.datasets)} datasets into {out_dir}")
    return 0


def cmd_audit(args) -> int:
    cfg, out_dir, seed = _resolve(args)
    datasets = _load_datasets(cfg)
    rows = []
    for a in datasets:
        for b in datasets:
            if a.id == b.id:
                continue
            frac = corpus.overlap_fraction(a, b)
            rows.append([a.id, b.id, repr(frac), int(frac > OVERLAP_FLAG_THRESHOLD)])
    _write(
        csv_text(["from_id", "to_id", "overlap_fraction", "flagged"], rows),
        out_dir / "audit_overlap.csv",
    )
    for ds in datasets:
        sample = corpus.sample_for_audit(ds, min(100, len(ds)), seed)
        _write(records_to_csv(sample), out_dir / f"audit_sample_{ds.id}.csv")
    print(f"audit reports written to {out_dir}")
    return 0


def cmd_featurize(args) -> int:
    cfg, out_dir, _ = _resolve(args)
    _, data = _run_data(cfg)
    feature_names = list(catalog().names)
    for ds_id, (urls, labels) in data.items():
        matrix = extract_matrix(urls)
        rows = (
            [url, int(label), *[repr(v) for v in row.tolist()]]
            for url, label, row in zip(urls, labels, matrix)
        )
        _write(csv_text(["url", "label", *feature_names], rows), out_dir / f"features_{ds_id}.csv")
    print(f"feature matrices for {len(data)} datasets written to {out_dir}")
    return 0


def cmd_train(args) -> int:
    cfg, out_dir, seed = _resolve(args)
    plan, data = _run_data(cfg)
    chosen = {}
    if args.model:  # the other families' model files stay, and so do their entries
        summary = _recorded_summary(out_dir, plan)
        chosen = summary["chosen"] if summary else {}
    families = [args.model] if args.model else list(FAMILIES)
    models_dir = out_dir / "models"  # save_pipeline makes it with the first model file
    for artifact in fit_run(cfg, plan, data, families, seed):
        spec = artifact.model.spec
        save_pipeline(artifact, models_dir / f"{spec.family}.json")
        chosen[spec.family] = {"hyperparameters": spec.hyperparameters, "seed": spec.seed}
        print(f"trained {spec.family}: {spec.hyperparameters}")
    if not args.model:
        # All 11 model files now name this chain; a chain file left by an
        # earlier train with another config is named by none of them.
        # ``--model`` keeps them: other model files may still name one.
        for name in remove_other_chains(models_dir, artifact.chain):
            print(f"removed unused chain {name}")
    _write(
        json_text({"partition": _partition_record(plan), "chosen": chosen}),
        out_dir / "train_summary.json",
    )
    print(f"artifacts written to {models_dir}")
    return 0


def cmd_evaluate(args) -> int:
    cfg, out_dir, _ = _resolve(args)
    plan, data = _run_data(cfg)
    ids = getattr(plan, f"{args.partition}_ids")
    reports = score_datasets(_saved_artifacts(out_dir, plan), data, ids)
    path = out_dir / f"metrics_{args.partition}.csv"
    _write(metric_reports_to_csv(reports), path)
    print(f"metric reports written to {path}")
    return 0


def cmd_rank(args) -> int:
    cfg, out_dir, _ = _resolve(args)
    plan, data = _run_data(cfg)
    ids = getattr(plan, f"{args.partition}_ids")
    family_reports = {ds_id: {} for ds_id in ids}
    for report in score_datasets(_saved_artifacts(out_dir, plan), data, ids):
        if report.family != "BASELINE":
            family_reports[report.dataset_id][report.family] = report
    table = aggregate_rank_table({
        ds_id: per_dataset_ranks(by_family, baseline_report(data[ds_id][1], dataset_id=ds_id))
        for ds_id, by_family in family_reports.items()
    })
    path = out_dir / f"rank_{args.partition}.csv"
    _write(rank_table_to_csv(table), path)
    print(f"rank table written to {path}")
    return 0


def _csv_chunks(urls, labels, scores):
    """classify's CSV, ``CSV_CHUNK_ROWS`` rows at a time, the header first."""
    for lo in range(0, len(urls), CSV_CHUNK_ROWS):
        hi = lo + CSV_CHUNK_ROWS
        rows = zip(urls[lo:hi], labels[lo:hi].tolist(), map(repr, scores[lo:hi].tolist()))
        yield csv_text(None if lo else ["url", "label", "score"], rows)


def cmd_classify(args) -> int:
    if args.artifact:
        artifact_path = Path(args.artifact)
    elif args.config and args.model:
        cfg = load_run_config(args.config)
        out_dir = Path(args.out) if args.out else cfg.output_dir
        artifact_path = out_dir / "models" / f"{args.model}.json"
    else:
        raise ConfigError("classify needs --artifact, or --config together with --model")
    artifact = load_pipeline(artifact_path)
    if args.urls_file:
        source = Path(args.urls_file)
        if not source.is_file():
            raise DataError(f"URL list not found: {source}")
        read = source.read_bytes
    else:
        source, read = "<stdin>", sys.stdin.buffer.read
    try:
        text = read().decode("utf-8-sig")  # a leading BOM is not part of a URL
    except UnicodeDecodeError as exc:
        raise DataError(f"URL list {source} is not UTF-8 text: {exc}") from exc
    # One URL per "\n"-terminated line: the other characters splitlines()
    # breaks at (\x0b, \x85, U+2028, a lone \r, ...) stay inside the URL.
    urls = [line.strip() for line in text.split("\n") if line.strip()]
    del text  # the URLs are the only copy of the input kept while scoring
    if not urls:
        raise ConfigError("no URLs to classify: input is empty")
    labels, scores = artifact.predict(urls)  # one batch; only the CSV is chunked
    chunks = _csv_chunks(urls, labels, scores)
    if args.out_file:
        try:
            with atomic_file(args.out_file) as fh:
                for chunk in chunks:
                    fh.write(chunk.encode("utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot write --out-file {args.out_file}: {exc}") from exc
        print(f"predictions for {len(urls)} URLs written to {args.out_file}")
    else:
        for chunk in chunks:
            sys.stdout.write(chunk)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urlsleuth",
        description="Lexical malicious-URL detection: corpus tools, training, "
        "evaluation, and classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="standardize, deduplicate, and report balance")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("audit", help="cross-dataset overlap matrix and label samples")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("featurize", help="export lexical feature matrices as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="fit preprocessing and all model families")
    _add_common(p, seed=True)
    p.add_argument("--model", choices=FAMILIES, help="train only this family")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metric reports for saved artifacts")
    _add_common(p)
    p.add_argument(
        "--partition", choices=("train", "val", "test"), default="test",
        help="which partition's datasets to evaluate (default: test)",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank", help="cross-dataset rank table for saved artifacts")
    _add_common(p)
    p.add_argument(
        "--partition", choices=("train", "val", "test"), default="test",
        help="which partition's datasets to rank on (default: test)",
    )
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("classify", help="label URLs with a saved artifact")
    p.add_argument("--artifact", help="path to a saved pipeline artifact")
    p.add_argument("--config", help="run config (with --model, locates the artifact)")
    p.add_argument("--model", choices=FAMILIES, help="family whose artifact to use")
    p.add_argument("--out", help="output directory holding models/ (with --config)")
    p.add_argument("--out-file", help="write predictions CSV here instead of stdout")
    p.add_argument("urls_file", nargs="?", help="file of URLs, one per line (default: stdin)")
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UrlsleuthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
