"""Dataset ingestion, standardization, deduplication, and partitioning.

Every URL dataset is reduced to one canonical shape: a URL string plus a
binary label (0 = benign, 1 = malicious) tagged with the dataset it came
from.  Datasets are immutable after construction and all operations here
are pure functions, so they are safe to run concurrently over distinct
datasets.
"""

from __future__ import annotations

import csv
import logging
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import DataError

logger = logging.getLogger(__name__)

CSV_HEADER = ("url", "label")


@dataclass(frozen=True)
class UrlRecord:
    """One standardized observation: URL text, binary label, dataset id."""

    url: str
    label: int
    source_id: str


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of standardized records.

    Duplicate URLs may be present straight after loading; ``deduplicate``
    establishes uniqueness.  Records all carry this dataset's id.
    """

    id: str
    name: str
    records: tuple[UrlRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def urls(self) -> set[str]:
        return {r.url for r in self.records}


@dataclass(frozen=True)
class PartitionPlan:
    """Disjoint train/validation/test groups of dataset identifiers."""

    train_ids: tuple[str, ...]
    val_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    seed: int


def load_dataset(path: str, label_map: Mapping[str, int], id: str, name: str | None = None) -> Dataset:
    """Read a ``url,label`` CSV and standardize it to binary labels.

    ``label_map`` translates every source-specific label string (e.g.
    ``"bad"``, ``"1"``, ``"malicious"``) to 0 or 1.  Cells are trimmed of
    surrounding whitespace, and a leading UTF-8 BOM and empty lines are
    skipped.  Row order is preserved.  Raises ``DataError``
    naming the file and the line a record starts on for a malformed
    record, for a URL that holds a line break (``classify`` reads one URL
    per line, so it could not be sent back) and, naming the offending
    value, for a label missing from ``label_map``; and naming the file
    when it is not UTF-8 text or the CSV reader rejects it (a field longer
    than ``csv.field_size_limit()``, say), with the line it stopped at.
    """
    for raw, mapped in label_map.items():
        if mapped not in (0, 1):
            raise DataError(f"label_map entry {raw!r} maps to {mapped!r}; labels must be 0 or 1")
    records: list[UrlRecord] = []
    try:
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataError(f"cannot open dataset file {path!r}: {exc}") from exc
    try:
        with handle:
            reader = csv.reader(handle)
            try:
                header = next(row for row in reader if row)
            except StopIteration:
                raise DataError(f"{path}: empty file, expected header 'url,label'") from None
            if tuple(cell.strip() for cell in header) != CSV_HEADER:
                raise DataError(f"{path}: bad header {header!r}, expected 'url,label'")
            # A quoted field may span lines, so a record starts on the line
            # after the last one the reader consumed, not at its own count.
            end = reader.line_num
            for row in reader:
                line, end = end + 1, reader.line_num
                if not row:  # an empty line
                    continue
                if len(row) != 2:
                    raise DataError(f"{path}: line {line}: expected 2 fields, got {len(row)}")
                url = row[0].strip()
                raw_label = row[1].strip()
                if not url:
                    raise DataError(f"{path}: line {line}: empty URL")
                if "\n" in url:  # classify reads one URL per line
                    raise DataError(f"{path}: line {line}: URL holds a line break")
                if raw_label not in label_map:
                    raise DataError(
                        f"{path}: line {line}: unmapped label {raw_label!r} (not in label map)"
                    )
                records.append(UrlRecord(url=url, label=label_map[raw_label], source_id=id))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise DataError(f"{path}: line {reader.line_num}: malformed CSV: {exc}") from exc
    return Dataset(id=id, name=name if name is not None else id, records=tuple(records))


def dedup_stats(d: Dataset) -> tuple[Dataset, int, int]:
    """Like ``deduplicate`` but also returns (removed, label_conflicts)."""
    first_label: dict[str, int] = {}
    kept: list[UrlRecord] = []
    removed = 0
    conflicts = 0
    for rec in d.records:
        if rec.url in first_label:
            removed += 1
            if rec.label != first_label[rec.url]:
                conflicts += 1
            continue
        first_label[rec.url] = rec.label
        kept.append(rec)
    return Dataset(id=d.id, name=d.name, records=tuple(kept)), removed, conflicts


def deduplicate(d: Dataset) -> Dataset:
    """Drop exact-string duplicate URLs, keeping the first occurrence.

    Lexical variants of the same site (with/without scheme or leading
    ``www.``) are deliberately retained.  When duplicates carry conflicting
    labels the first occurrence wins and a warning with the conflict count
    is logged.
    """
    deduped, removed, conflicts = dedup_stats(d)
    if conflicts:
        logger.warning(
            "dataset %s: %d duplicate URL(s) carried a conflicting label; kept first occurrence",
            d.id,
            conflicts,
        )
    if removed:
        logger.info("dataset %s: removed %d duplicate URL(s)", d.id, removed)
    return deduped


def overlap_fraction(a: Dataset, b: Dataset) -> float:
    """Fraction of ``a``'s unique URLs that also appear in ``b``.

    Directional: the denominator is ``a``'s URL set, so swap the arguments
    to measure the other direction.
    """
    if len(a.records) == 0 or len(b.records) == 0:
        raise DataError("overlap_fraction requires two non-empty datasets")
    urls_a = a.urls()
    return len(urls_a & b.urls()) / len(urls_a)


def partition(
    datasets: Sequence[Dataset], counts: tuple[int, int, int], seed: int
) -> PartitionPlan:
    """Split datasets (not rows) into train/validation/test groups.

    Dataset ids are shuffled with a seeded uniform shuffle and split by
    ``counts = (n_train, n_val, n_test)``.  Deterministic given the seed.
    """
    n_train, n_val, n_test = counts
    ids = [d.id for d in datasets]
    if len(set(ids)) != len(ids):
        raise DataError("partition: dataset ids must be unique")
    if n_train + n_val + n_test != len(ids):
        raise DataError(
            f"partition counts {counts} sum to {n_train + n_val + n_test}, "
            f"but {len(ids)} datasets were supplied"
        )
    rng = random.Random(seed)
    shuffled = list(ids)
    rng.shuffle(shuffled)
    return PartitionPlan(
        train_ids=tuple(shuffled[:n_train]),
        val_ids=tuple(shuffled[n_train : n_train + n_val]),
        test_ids=tuple(shuffled[n_train + n_val :]),
        seed=seed,
    )


def sample_for_audit(d: Dataset, n: int = 100, seed: int = 0) -> list[UrlRecord]:
    """Draw a seeded uniform sample without replacement for label review.

    The sample is meant to be exported for a human to verify labels; the
    verification itself happens outside this toolkit.
    """
    if n > len(d.records):
        raise DataError(f"audit sample size {n} exceeds dataset size {len(d.records)}")
    rng = random.Random(seed)
    return rng.sample(list(d.records), n)


def class_balance(d: Dataset) -> float:
    """Fraction of records labeled malicious (label 1)."""
    if len(d.records) == 0:
        raise DataError("class_balance requires a non-empty dataset")
    return sum(r.label for r in d.records) / len(d.records)

