"""Tests for CSV ingestion, dedup, overlap, and dataset partitioning."""

from __future__ import annotations

import logging

import pytest

from urlsleuth.corpus import (
    Dataset,
    class_balance,
    dedup_stats,
    deduplicate,
    load_dataset,
    overlap_fraction,
    partition,
    sample_for_audit,
)
from urlsleuth.errors import DataError

from conftest import make_dataset, write_csv

LABEL_MAP = {"benign": 0, "malicious": 1, "0": 0, "1": 1}


class TestLoadDataset:
    def test_loads_rows_in_order(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            [("http://a.com", "benign"), ("http://b.biz/x", "malicious"), ("c.org", "0")],
        )
        ds = load_dataset(path, LABEL_MAP, id="d1", name="demo")
        assert ds.id == "d1"
        assert ds.name == "demo"
        assert [r.url for r in ds.records] == ["http://a.com", "http://b.biz/x", "c.org"]
        assert [r.label for r in ds.records] == [0, 1, 0]
        assert all(r.source_id == "d1" for r in ds.records)

    def test_name_defaults_to_id(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [("http://a.com", "benign")])
        assert load_dataset(path, LABEL_MAP, id="dx").name == "dx"

    def test_cells_are_stripped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("url,label\n  http://a.com , benign \n", encoding="utf-8")
        ds = load_dataset(str(path), LABEL_MAP, id="d")
        assert ds.records[0].url == "http://a.com"
        assert ds.records[0].label == 0

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("link,tag\nhttp://a.com,benign\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            load_dataset(str(path), LABEL_MAP, id="d")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty file"):
            load_dataset(str(path), LABEL_MAP, id="d")

    def test_wrong_field_count_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("url,label\nhttp://a.com,benign\nhttp://b.com\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"d\.csv: line 3: expected 2 fields, got 1"):
            load_dataset(str(path), LABEL_MAP, id="d")

    @pytest.mark.parametrize(
        "first, message",
        [
            ('"http://a.com/\nx",0', "line 2: URL holds a line break"),
            ('"http://a.com/\n",0', "line 4: unmapped label 'zzz'"),
            ('http://a.com/,"0\n"', "line 4: unmapped label 'zzz'"),
        ],
        ids=["break-inside-url", "break-trimmed-from-url", "break-in-label"],
    )
    def test_errors_name_the_line_a_record_starts_on(self, tmp_path, first, message):
        # The first record spans lines 2 and 3, so the 'zzz' record starts on
        # line 4; a URL that keeps its line break is refused on line 2.
        path = tmp_path / "d.csv"
        path.write_text(f"url,label\n{first}\nhttp://b.com/,zzz\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf"d\.csv: {message}"):
            load_dataset(str(path), {"0": 0}, id="d")

    @pytest.mark.parametrize(
        "rows, line",
        [
            ('"http://a.com/\nx",0\n', 2),
            ('http://a.com/,0\n"http://b.com/\r\nx",0\n', 3),
            ('"http://a.com/\n\nx",0\n', 2),
            ('"http://a.com/\nx",0\n"http://b.com/\ny",0\n', 2),
            ('"a\nb",0\n', 2),
        ],
        ids=["lf", "crlf-second-row", "blank-line-inside", "two-such-rows", "short"],
    )
    def test_url_holding_a_line_break_rejected(self, tmp_path, rows, line):
        path = tmp_path / "d.csv"
        path.write_text("url,label\n" + rows, encoding="utf-8", newline="")
        with pytest.raises(DataError, match=rf"d\.csv: line {line}: URL holds a line break"):
            load_dataset(str(path), {"0": 0}, id="d")

    def test_line_break_at_the_ends_of_a_url_is_trimmed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('url,label\n"\nhttp://a.com/\n",0\nhttp://b.com/,1\n', encoding="utf-8")
        ds = load_dataset(str(path), {"0": 0, "1": 1}, id="d")
        assert [r.url for r in ds.records] == ["http://a.com/", "http://b.com/"]

    def test_lines_counted_after_a_multiline_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"url\n",label\nhttp://a.com/,0\nhttp://b.com\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"line 4: expected 2 fields"):
            load_dataset(str(path), {"0": 0}, id="d")

    def test_bom_prefixed_file_loads_the_same_records(self, tmp_path):
        rows = [("http://a.com", "benign"), ("http://b.biz/é", "malicious")]
        plain = write_csv(tmp_path / "d.csv", rows)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + bom.with_name("d.csv").read_bytes())
        assert load_dataset(str(bom), LABEL_MAP, id="d") == load_dataset(plain, LABEL_MAP, id="d")

    @pytest.mark.parametrize(
        "text",
        [
            "url,label\nhttp://a.com/,0\nhttp://b.com/,1\n\n",
            "url,label\nhttp://a.com/,0\n\nhttp://b.com/,1\n",
            "\nurl,label\nhttp://a.com/,0\n\n\nhttp://b.com/,1\n\n",
            "url,label\r\nhttp://a.com/,0\r\n\r\nhttp://b.com/,1\r\n\r\n",
        ],
        ids=["trailing", "mid-file", "several-and-before-header", "crlf"],
    )
    def test_empty_lines_skipped(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        ds = load_dataset(str(path), {"0": 0, "1": 1}, id="d")
        assert [(r.url, r.label) for r in ds.records] == [("http://a.com/", 0), ("http://b.com/", 1)]

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("http://a.com/,0\n\nhttp://b.com\n", "line 4: expected 2 fields, got 1"),
            ("http://a.com/,0\n\n\nhttp://b.com/,zzz\n", "line 5: unmapped label 'zzz'"),
            ('"http://a.com/\n",0\n\nhttp://b.com/,zzz\n', "line 5: unmapped label 'zzz'"),
        ],
        ids=["one-empty-line", "two-empty-lines", "after-a-two-line-record"],
    )
    def test_error_after_an_empty_line_names_its_line(self, tmp_path, rows, message):
        path = tmp_path / "d.csv"
        path.write_text("url,label\n" + rows, encoding="utf-8")
        with pytest.raises(DataError, match=rf"d\.csv: {message}"):
            load_dataset(str(path), {"0": 0}, id="d")

    def test_empty_url_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [("", "benign")])
        with pytest.raises(DataError, match="empty URL"):
            load_dataset(path, LABEL_MAP, id="d")

    def test_unmapped_label_names_value(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [("http://a.com", "phish")])
        with pytest.raises(DataError, match="'phish'"):
            load_dataset(path, LABEL_MAP, id="d")

    def test_label_map_values_must_be_binary(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [("http://a.com", "benign")])
        with pytest.raises(DataError, match="0 or 1"):
            load_dataset(path, {"benign": 2}, id="d")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_dataset(str(tmp_path / "absent.csv"), LABEL_MAP, id="d")

    def test_field_over_csv_limit_names_file_and_line(self, tmp_path):
        # The csv module refuses fields longer than field_size_limit(), 131072.
        rows = [("http://a.com", "benign"), ("http://b.com/" + "x" * 140_000, "benign")]
        path = write_csv(tmp_path / "d.csv", rows)
        with pytest.raises(DataError, match=r"d\.csv: line 3: malformed CSV"):
            load_dataset(path, LABEL_MAP, id="d")


class TestDedup:
    def test_first_occurrence_wins(self):
        ds = make_dataset([("u1", 0), ("u2", 1), ("u1", 1), ("u3", 0), ("u2", 1)])
        deduped, removed, conflicts = dedup_stats(ds)
        assert [r.url for r in deduped.records] == ["u1", "u2", "u3"]
        assert [r.label for r in deduped.records] == [0, 1, 0]
        assert removed == 2
        assert conflicts == 1

    def test_conflict_logged(self, caplog):
        ds = make_dataset([("u1", 0), ("u1", 1)])
        with caplog.at_level(logging.WARNING, logger="urlsleuth.corpus"):
            deduped = deduplicate(ds)
        assert len(deduped) == 1
        assert any("conflicting label" in rec.message for rec in caplog.records)

    def test_no_duplicates_is_identity(self):
        ds = make_dataset([("u1", 0), ("u2", 1)])
        assert deduplicate(ds).records == ds.records


class TestOverlap:
    def test_directional(self):
        a = make_dataset([("u1", 0), ("u2", 0), ("u3", 0), ("u4", 0)], id="a")
        b = make_dataset([("u1", 1), ("u2", 1)], id="b")
        assert overlap_fraction(a, b) == pytest.approx(0.5)
        assert overlap_fraction(b, a) == pytest.approx(1.0)

    def test_lexical_variants_do_not_count(self):
        a = make_dataset([("http://a.com", 0)], id="a")
        b = make_dataset([("a.com", 1), ("www.a.com", 1)], id="b")
        assert overlap_fraction(a, b) == 0.0

    def test_empty_rejected(self):
        a = make_dataset([("u1", 0)], id="a")
        b = Dataset(id="b", name="b", records=())
        with pytest.raises(DataError):
            overlap_fraction(a, b)
        with pytest.raises(DataError):
            overlap_fraction(b, a)


class TestPartition:
    def _datasets(self, n):
        return [make_dataset([(f"u{i}", 0)], id=f"d{i}") for i in range(n)]

    def test_disjoint_cover(self):
        plan = partition(self._datasets(4), (2, 1, 1), seed=3)
        ids = plan.train_ids + plan.val_ids + plan.test_ids
        assert sorted(ids) == ["d0", "d1", "d2", "d3"]
        assert len(plan.train_ids) == 2
        assert len(plan.val_ids) == 1
        assert len(plan.test_ids) == 1

    def test_deterministic_given_seed(self):
        a = partition(self._datasets(6), (3, 2, 1), seed=9)
        b = partition(self._datasets(6), (3, 2, 1), seed=9)
        assert a == b

    def test_seed_changes_assignment(self):
        plans = {partition(self._datasets(6), (3, 2, 1), seed=s).train_ids for s in range(20)}
        assert len(plans) > 1

    def test_counts_must_sum(self):
        with pytest.raises(DataError, match="sum"):
            partition(self._datasets(4), (2, 1, 2), seed=0)

    def test_duplicate_ids_rejected(self):
        ds = [make_dataset([("u", 0)], id="same"), make_dataset([("v", 0)], id="same")]
        with pytest.raises(DataError, match="unique"):
            partition(ds, (1, 1, 0), seed=0)


class TestAuditAndStats:
    def test_sample_is_seeded_and_without_replacement(self):
        ds = make_dataset([(f"u{i}", i % 2) for i in range(50)])
        s1 = sample_for_audit(ds, n=10, seed=4)
        s2 = sample_for_audit(ds, n=10, seed=4)
        assert s1 == s2
        assert len({r.url for r in s1}) == 10

    def test_sample_too_large_rejected(self):
        ds = make_dataset([("u1", 0)])
        with pytest.raises(DataError, match="exceeds"):
            sample_for_audit(ds, n=2)

    def test_class_balance(self):
        ds = make_dataset([("u1", 0), ("u2", 1), ("u3", 1), ("u4", 1)])
        assert class_balance(ds) == pytest.approx(0.75)
        with pytest.raises(DataError):
            class_balance(Dataset(id="e", name="e", records=()))
