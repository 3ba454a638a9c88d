"""Tests for the seeded synthetic URL corpus generator."""

from __future__ import annotations

import json

import numpy as np
import pytest

from urlsleuth.corpus import class_balance, load_dataset
from urlsleuth.errors import DataError
from urlsleuth.synth import (
    LABEL_MAP,
    generate_corpus,
    generate_dataset,
    materialize_run,
    records_to_csv,
    write_dataset_csv,
)
from urlsleuth.urlfeat import _split


def host(url: str) -> str:
    host_lo, host_hi = _split(url)[2:4]
    return url[host_lo:host_hi]


class TestGenerateDataset:
    def test_same_seed_identical(self):
        a = generate_dataset("d", n_records=200, seed=5)
        b = generate_dataset("d", n_records=200, seed=5)
        assert a.records == b.records

    def test_different_seed_differs(self):
        a = generate_dataset("d", n_records=200, seed=5)
        b = generate_dataset("d", n_records=200, seed=6)
        assert a.records != b.records

    def test_exact_class_balance(self):
        ds = generate_dataset("d", n_records=1000, malicious_fraction=0.3, seed=0)
        assert sum(r.label for r in ds.records) == 300
        assert class_balance(ds) == pytest.approx(0.3)

    def test_urls_unique(self):
        ds = generate_dataset("d", n_records=2000, seed=1)
        assert len({r.url for r in ds.records}) == 2000

    def test_labels_are_shuffled_not_blocked(self):
        ds = generate_dataset("d", n_records=400, malicious_fraction=0.5, seed=2)
        first_half = sum(r.label for r in ds.records[:200])
        assert 30 < first_half < 170  # a label block would be 0 or 200

    def test_urls_parse_and_look_like_their_class(self):
        ds = generate_dataset("d", n_records=300, malicious_fraction=0.5, seed=3)
        for rec in ds.records:
            assert host(rec.url)
        benign_hosts = {host(r.url) for r in ds.records if r.label == 0}
        assert all(h.startswith("www.") for h in benign_hosts)

    def test_classes_are_lexically_separable(self):
        # A split on URL length alone should do far better than chance.
        ds = generate_dataset("d", n_records=600, malicious_fraction=0.5, seed=4)
        lengths = np.array([len(r.url) for r in ds.records])
        labels = np.array([r.label for r in ds.records])
        threshold = np.median(lengths)
        acc = float(np.mean((lengths > threshold).astype(int) == labels))
        assert acc > 0.8


class TestGenerateCorpus:
    def test_ids_and_child_seeds(self):
        corpus = generate_corpus(n_datasets=3, n_records=100, seed=9)
        assert [d.id for d in corpus] == ["synth00", "synth01", "synth02"]
        assert corpus[0].records != corpus[1].records

    def test_deterministic(self):
        a = generate_corpus(n_datasets=2, n_records=100, seed=9)
        b = generate_corpus(n_datasets=2, n_records=100, seed=9)
        for da, db in zip(a, b):
            assert da.records == db.records


class TestCsvMaterialization:
    def test_csv_round_trips_through_loader(self, tmp_path):
        ds = generate_dataset("d", n_records=150, seed=7)
        path = tmp_path / "d.csv"
        write_dataset_csv(ds, path)
        loaded = load_dataset(str(path), LABEL_MAP, id="d")
        assert [r.url for r in loaded.records] == [r.url for r in ds.records]
        assert [r.label for r in loaded.records] == [r.label for r in ds.records]

    def test_csv_text_deterministic(self):
        ds = generate_dataset("d", n_records=50, seed=8)
        assert records_to_csv(ds.records) == records_to_csv(ds.records)

    def test_materialize_run_layout(self, tmp_path):
        config_path = materialize_run(
            tmp_path, n_datasets=4, n_records=60, seed=11, counts=(2, 1, 1)
        )
        config = json.loads(config_path.read_text(encoding="utf-8"))
        assert len(config["datasets"]) == 4
        assert config["partition"] == {"train": 2, "val": 1, "test": 1, "seed": 11}
        for entry in config["datasets"]:
            assert (tmp_path / entry["path"]).exists()
            assert entry["label_map"] == LABEL_MAP

    def test_materialize_run_is_byte_deterministic(self, tmp_path):
        p1 = materialize_run(tmp_path / "a", n_datasets=2, n_records=40, seed=3, counts=(1, 1, 0))
        p2 = materialize_run(tmp_path / "b", n_datasets=2, n_records=40, seed=3, counts=(1, 1, 0))
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a" / "synth00.csv").read_bytes() == (
            tmp_path / "b" / "synth00.csv"
        ).read_bytes()

    def test_counts_must_cover_datasets(self, tmp_path):
        with pytest.raises(DataError, match="counts"):
            materialize_run(tmp_path, n_datasets=4, n_records=20, counts=(1, 1, 1))
