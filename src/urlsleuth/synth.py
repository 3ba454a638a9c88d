"""Seeded synthetic URL corpora for end-to-end exercises.

Real labeled URL corpora cannot ship with the repository, so experiments
run on generated pseudo-datasets whose malicious URLs are lexically
separable by construction: dense special characters, long digit runs,
and high-entropy machine-generated hosts.  Benign URLs are built from a
small dictionary, so they are short, word-shaped, and low-entropy.  All
draws come from one ``random.Random(seed)`` per dataset; the same seed
always yields the same corpus, character for character.
"""

from __future__ import annotations

import json
import random
import string
from pathlib import Path

from .corpus import Dataset, UrlRecord
from .errors import DataError
from .fileio import csv_text, write_text_atomic

BENIGN_LABEL_NAME = "benign"
MALICIOUS_LABEL_NAME = "malicious"
LABEL_MAP = {BENIGN_LABEL_NAME: 0, MALICIOUS_LABEL_NAME: 1}

_WORDS = (
    "news", "shop", "blog", "mail", "cloud", "photo", "music", "video",
    "store", "media", "world", "daily", "home", "garden", "travel", "green",
    "river", "mountain", "coffee", "book", "paper", "light", "stone", "craft",
    "market", "health", "sport", "game", "study", "learn", "space", "ocean",
    "forest", "bridge", "castle", "window", "silver", "golden", "rapid", "quiet",
    "simple", "modern", "classic", "prime", "first", "north", "south", "east",
    "west", "central", "city", "village", "island", "harbor", "garden", "field",
)
_BENIGN_TLDS = ("com", "org", "net", "io", "edu")
_SUSPICIOUS_TLDS = ("top", "xyz", "club", "info", "biz")
_SPECIAL_FILLER = "!$~*()[],'\";"


def _benign_url(rng: random.Random) -> str:
    scheme = "https" if rng.random() < 0.8 else "http"
    host_words = rng.sample(_WORDS, rng.randint(1, 2))
    host = "www." + "".join(host_words) + "." + rng.choice(_BENIGN_TLDS)
    parts = [f"{scheme}://{host}"]
    for _ in range(rng.randint(0, 3)):
        parts.append("/" + rng.choice(_WORDS))
    url = "".join(parts)
    if rng.random() < 0.2:
        url += f"?id={rng.randint(1, 999)}"
    return url


def _random_chars(rng: random.Random, alphabet: str, low: int, high: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(low, high)))


def _malicious_url(rng: random.Random) -> str:
    scheme = "http" if rng.random() < 0.7 else "https"
    if rng.random() < 0.2:
        host = ".".join(str(rng.randint(1, 254)) for _ in range(4))
    else:
        host = (
            _random_chars(rng, string.ascii_lowercase + string.digits, 14, 24)
            + "."
            + rng.choice(_SUSPICIOUS_TLDS)
        )
    url = f"{scheme}://"
    if rng.random() < 0.1:
        url += rng.choice(_WORDS) + "@"
    url += host
    for _ in range(rng.randint(2, 5)):
        url += "/" + _random_chars(
            rng, string.ascii_letters + string.digits + _SPECIAL_FILLER, 4, 12
        )
        if rng.random() < 0.5:
            url += "%" + rng.choice("0123456789abcdef") + rng.choice("0123456789abcdef")
    url += "/" + _random_chars(rng, string.digits, 8, 18)  # long digit run
    params = [
        f"{_random_chars(rng, string.ascii_lowercase, 1, 3)}="
        + _random_chars(rng, string.ascii_lowercase + string.digits + "!$~*", 2, 8)
        for _ in range(rng.randint(2, 6))
    ]
    url += "?" + "&".join(params)
    return url


def generate_dataset(
    dataset_id: str,
    n_records: int = 2000,
    malicious_fraction: float = 0.3,
    seed: int = 0,
) -> Dataset:
    """One pseudo-dataset, with id ``dataset_id``, of unique URLs and the
    exact requested balance (malicious count = round(n_records *
    malicious_fraction))."""
    if n_records < 1:
        raise DataError(f"n_records must be >= 1, got {n_records}")
    if not 0.0 <= malicious_fraction <= 1.0:
        raise DataError(
            f"malicious_fraction must be in [0, 1], got {malicious_fraction}"
        )
    rng = random.Random(seed)
    n_malicious = round(n_records * malicious_fraction)
    n_benign = n_records - n_malicious
    seen: set[str] = set()
    records: list[UrlRecord] = []
    for label, count, make in (
        (0, n_benign, _benign_url),
        (1, n_malicious, _malicious_url),
    ):
        produced = 0
        while produced < count:
            url = make(rng)
            if url in seen:
                continue
            seen.add(url)
            records.append(UrlRecord(url=url, label=label))
            produced += 1
    rng.shuffle(records)
    return Dataset(id=dataset_id, records=tuple(records))


def generate_corpus(
    n_datasets: int = 4,
    n_records: int = 2000,
    malicious_fraction: float = 0.3,
    seed: int = 0,
) -> list[Dataset]:
    """Independent pseudo-datasets; each gets its own derived seed."""
    return [
        generate_dataset(
            dataset_id=f"synth{i:02d}",
            n_records=n_records,
            malicious_fraction=malicious_fraction,
            seed=seed * 1_000_003 + i,
        )
        for i in range(n_datasets)
    ]


def materialize_run(
    directory,
    n_datasets: int = 4,
    n_records: int = 2000,
    malicious_fraction: float = 0.3,
    seed: int = 0,
    counts: tuple[int, int, int] = (2, 1, 1),
    output_dir: str = "out",
):
    """Write a ready-to-run experiment into ``directory``: one CSV per
    pseudo-dataset plus a run config with a train/val/test split.

    Returns the config path.  The same arguments always produce the same
    files byte for byte.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if sum(counts) != n_datasets:
        raise DataError(
            f"partition counts {counts} sum to {sum(counts)}, need {n_datasets}"
        )
    datasets = generate_corpus(
        n_datasets=n_datasets,
        n_records=n_records,
        malicious_fraction=malicious_fraction,
        seed=seed,
    )
    entries = []
    for ds in datasets:
        write_dataset_csv(ds, directory / f"{ds.id}.csv")
        entries.append(
            {"id": ds.id, "path": f"{ds.id}.csv", "label_map": dict(LABEL_MAP)}
        )
    config = {
        "datasets": entries,
        "partition": {
            "train": counts[0],
            "val": counts[1],
            "test": counts[2],
            "seed": seed,
        },
        "seed": seed,
        "output_dir": output_dir,
    }
    config_path = directory / "run.json"
    write_text_atomic(json.dumps(config, indent=1, sort_keys=True) + "\n", config_path)
    return config_path


def records_to_csv(records) -> str:
    """CSV text in the standard ingest schema (url,label header)."""
    names = {label: name for name, label in LABEL_MAP.items()}
    return csv_text(["url", "label"], ([r.url, names[r.label]] for r in records))


def write_dataset_csv(dataset: Dataset, path) -> None:
    write_text_atomic(records_to_csv(dataset.records), path)
