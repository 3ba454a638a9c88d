"""Command-line front end.

Subcommands follow the workflow: ``ingest`` standardizes and audits
source CSVs, ``audit`` reports cross-dataset overlap and exports label
samples, ``featurize`` dumps lexical feature matrices, ``train`` fits
the preprocessing chain plus every model family with grid search,
``evaluate`` scores saved artifacts on a partition, ``rank`` emits the
cross-dataset rank table, and ``classify`` labels URLs with one saved
artifact.  Every output is written atomically and is byte-identical
across repeat runs with the same config and seeds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import corpus
from .config import RunConfig, load_run_config
from .errors import ConfigError, DataError, UrlsleuthError
from .evaluation import (
    METRIC_NAMES,
    aggregate_rank_table,
    baseline_report,
    compute_metrics,
    metric_reports_to_csv,
    per_dataset_ranks,
    rank_table_to_csv,
)
from .fileio import csv_text, write_json_atomic, write_text_atomic
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="run configuration JSON file")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, help="seed override for this command")


def _resolve(args) -> tuple[RunConfig, Path, int]:
    cfg = load_run_config(args.config)
    if args.seed is not None and args.seed < 0:  # checked before anything is made or fitted
        raise ConfigError(f"seed must be an integer >= 0, got {args.seed}")
    out_dir = Path(args.out) if args.out else cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else cfg.seed
    return cfg, out_dir, seed


def _load_datasets(cfg: RunConfig) -> list[corpus.Dataset]:
    """Load, standardize, and deduplicate every configured dataset."""
    out = []
    for entry in cfg.datasets:
        ds = corpus.load_dataset(str(entry.path), entry.label_map, entry.id, entry.name)
        out.append(corpus.deduplicate(ds))
    return out


def _partition(cfg: RunConfig, datasets: list[corpus.Dataset]):
    plan = corpus.partition(
        datasets, (cfg.partition.train, cfg.partition.val, cfg.partition.test),
        cfg.partition.seed,
    )
    by_id = {d.id: d for d in datasets}
    return plan, by_id


def _urls_and_labels(records) -> tuple[list[str], np.ndarray]:
    return [r.url for r in records], np.array([r.label for r in records], dtype=np.int64)


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
        write_text_atomic(records_to_csv(deduped.records), out_dir / f"ingested_{entry.id}.csv")
    write_json_atomic(report, out_dir / "ingest_report.json")
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
    write_text_atomic(
        csv_text(["from_id", "to_id", "overlap_fraction", "flagged"], rows),
        out_dir / "audit_overlap.csv",
    )
    for ds in datasets:
        sample = corpus.sample_for_audit(ds, min(100, len(ds)), seed)
        write_text_atomic(records_to_csv(sample), out_dir / f"audit_sample_{ds.id}.csv")
    print(f"audit reports written to {out_dir}")
    return 0


def cmd_featurize(args) -> int:
    cfg, out_dir, _ = _resolve(args)
    datasets = _load_datasets(cfg)
    feature_names = list(catalog().names)
    for ds in datasets:
        urls, labels = _urls_and_labels(ds.records)
        matrix = extract_matrix(urls)
        rows = (
            [url, int(label), *[repr(v) for v in row.tolist()]]
            for url, label, row in zip(urls, labels, matrix)
        )
        write_text_atomic(
            csv_text(["url", "label", *feature_names], rows), out_dir / f"features_{ds.id}.csv"
        )
    print(f"feature matrices for {len(datasets)} datasets written to {out_dir}")
    return 0


def cmd_train(args) -> int:
    cfg, out_dir, seed = _resolve(args)
    datasets = _load_datasets(cfg)
    plan, by_id = _partition(cfg, datasets)
    train_urls, train_labels = _urls_and_labels(
        corpus.pool_records([by_id[i] for i in plan.train_ids])
    )
    chain, train_matrix = fit_chain(
        train_urls,
        train_labels,
        lm_order=cfg.lm.order,
        lm_smoothing=cfg.lm.smoothing_k,
        top_k=cfg.features.selector_top_k if cfg.features.use_selector else None,
        use_projection=cfg.features.use_projection,
        variance_target=cfg.features.variance_target,
    )
    val_sets = []
    for ds_id in plan.val_ids:
        urls, labels = _urls_and_labels(by_id[ds_id].records)
        val_sets.append((chain.transform(urls), labels))

    families = [args.model] if args.model else list(FAMILIES)
    models_dir = out_dir / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    chosen = {}
    for family in families:
        model = grid_search(
            family, cfg.grid_for(family), (train_matrix, train_labels), val_sets,
            target_metric=cfg.tuning_metric, seed=seed,
        )
        save_pipeline(PipelineArtifact(chain, model), models_dir / f"{family}.json")
        chosen[family] = {"hyperparameters": model.spec.hyperparameters, "seed": model.spec.seed}
        print(f"trained {family}: {model.spec.hyperparameters}")
    if not args.model:
        # All 11 model files now name this chain; a chain file left by an
        # earlier train with another config is named by none of them.
        # ``--model`` keeps them: other model files may still name one.
        for name in remove_other_chains(models_dir, chain):
            print(f"removed unused chain {name}")
    write_json_atomic(
        {
            "partition": {
                "train": list(plan.train_ids),
                "val": list(plan.val_ids),
                "test": list(plan.test_ids),
                "seed": plan.seed,
            },
            "chosen": chosen,
        },
        out_dir / "train_summary.json",
    )
    print(f"artifacts written to {models_dir}")
    return 0


def _partition_ids(plan: corpus.PartitionPlan, which: str) -> tuple[str, ...]:
    return {"train": plan.train_ids, "val": plan.val_ids, "test": plan.test_ids}[which]


def _evaluate_partition(cfg: RunConfig, out_dir: Path, which: str):
    datasets = _load_datasets(cfg)
    plan, by_id = _partition(cfg, datasets)
    models_dir = out_dir / "models"
    # Artifacts naming the same chain digest share one chain object, so each
    # distinct chain is read and built once, and featurizes each dataset once.
    chains = {}
    artifacts = {}
    for family in FAMILIES:
        path = models_dir / f"{family}.json"
        if path.exists():
            artifacts[family] = load_pipeline(path, chains=chains)
    if not artifacts:
        raise ConfigError(f"no model artifacts found under {models_dir}; run train first")
    digest_of = {id(chain): digest for digest, chain in chains.items()}
    reports = []
    per_dataset = {}
    for ds_id in _partition_ids(plan, which):
        urls, labels = _urls_and_labels(by_id[ds_id].records)
        features = {}
        family_reports = {}
        for family, artifact in artifacts.items():
            digest = digest_of[id(artifact.chain)]
            if digest not in features:
                features[digest] = artifact.featurize(urls)
            scores = artifact.model.predict_scores(features[digest])
            predictions = (scores >= 0.5).astype(np.int64)
            report = compute_metrics(
                labels, predictions, scores, dataset_id=ds_id, family=family
            )
            reports.append(report)
            if family != "BASELINE":
                family_reports[family] = report
        per_dataset[ds_id] = (family_reports, baseline_report(labels, dataset_id=ds_id))
    return reports, per_dataset


def cmd_evaluate(args) -> int:
    cfg, out_dir, _ = _resolve(args)
    reports, _ = _evaluate_partition(cfg, out_dir, args.partition)
    path = out_dir / f"metrics_{args.partition}.csv"
    write_text_atomic(metric_reports_to_csv(reports), path)
    print(f"metric reports written to {path}")
    return 0


def cmd_rank(args) -> int:
    cfg, out_dir, _ = _resolve(args)
    _, per_dataset = _evaluate_partition(cfg, out_dir, args.partition)
    rank_maps = {
        ds_id: per_dataset_ranks(family_reports, baseline)
        for ds_id, (family_reports, baseline) in per_dataset.items()
    }
    table = aggregate_rank_table(rank_maps)
    path = out_dir / f"rank_{args.partition}.csv"
    write_text_atomic(rank_table_to_csv(table), path)
    print(f"rank table written to {path}")
    return 0


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
        text = read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"URL list {source} is not UTF-8 text: {exc}") from exc
    # One URL per "\n"-terminated line: the other characters splitlines()
    # breaks at (\x0b, \x85, U+2028, a lone \r, ...) stay inside the URL.
    urls = [line.strip() for line in text.split("\n") if line.strip()]
    if not urls:
        raise ConfigError("no URLs to classify: input is empty")
    labels, scores = artifact.predict(urls)
    table = csv_text(
        ["url", "label", "score"],
        ([url, int(label), repr(float(score))] for url, label, score in zip(urls, labels, scores)),
    )
    if args.out_file:
        try:
            write_text_atomic(table, args.out_file)
        except OSError as exc:
            raise ConfigError(f"cannot write --out-file {args.out_file}: {exc}") from exc
        print(f"predictions for {len(urls)} URLs written to {args.out_file}")
    else:
        sys.stdout.write(table)
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
    _add_common(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("featurize", help="export lexical feature matrices as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="fit preprocessing and all model families")
    _add_common(p)
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
