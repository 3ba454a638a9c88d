"""Atomic file writing, the one CSV dialect, and guarded JSON reading.

Writers go through a temp file plus rename so concurrent readers never
observe a partial artifact; JSON uses sorted keys so equal payloads are
byte-identical, and every CSV table ends its lines with a bare newline.
Artifact reads are split into bytes then parse, so a reader can hash the
exact bytes it parses.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

from .errors import ArtifactError


@contextmanager
def atomic_file(path):
    """A binary file, written in a temp file beside ``path``, that replaces
    ``path`` when the block ends; on any error the temp file is deleted
    and ``path`` is left as it was."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:  # no newline translation: the bytes are the caller's
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(text: str, path) -> None:
    with atomic_file(path) as fh:
        fh.write(text.encode("utf-8"))


def csv_text(header, rows) -> str:
    """CSV text of a header row (none when ``header`` is None) then
    ``rows``, each line ending in a bare newline.

    A field holding ``\\r`` is quoted, so ``csv.reader`` reads its row back
    whole and every Python version writes the same bytes (3.13's writer
    quotes it even with a bare-newline terminator, earlier ones do not).
    """
    lines = []
    # "\r" in the terminator makes the writer quote fields holding it; each
    # row's "\r\n" is then cut back to "\n".
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def json_text(payload: dict) -> str:
    """The text ``write_json_atomic`` writes for ``payload`` (ASCII only)."""
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def write_json_atomic(payload: dict, path) -> None:
    write_text_atomic(json_text(payload), path)


def read_artifact_bytes(path) -> bytes:
    path = Path(path)
    if not path.is_file():
        raise ArtifactError(f"artifact file not found: {path}")
    return path.read_bytes()


def parse_json(data: bytes, path) -> dict:
    """The JSON object in ``data``, read from the artifact file ``path``."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"artifact file {path} is truncated or corrupt: {exc}") from exc
    if not isinstance(payload, dict):
        raise ArtifactError(f"artifact file {path} does not hold an object")
    return payload


def read_json(path) -> dict:
    return parse_json(read_artifact_bytes(path), path)
