"""Atomic file writing, the one CSV dialect, and guarded JSON reading.

Writers go through a temp file plus rename so concurrent readers never
observe a partial artifact; JSON uses sorted keys so equal payloads are
byte-identical, and every CSV table ends its lines with a bare newline.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path
from types import SimpleNamespace

from .errors import ArtifactError


def write_text_atomic(text: str, path) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header, rows) -> str:
    """CSV text of a header row then ``rows``, each line ending in a bare newline.

    A field holding ``\\r`` is quoted, so ``csv.reader`` reads its row back
    whole and every Python version writes the same bytes (3.13's writer
    quotes it even with a bare-newline terminator, earlier ones do not).
    """
    lines = []
    # "\r" in the terminator makes the writer quote fields holding it; each
    # row's "\r\n" is then cut back to "\n".
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def write_json_atomic(payload: dict, path) -> None:
    write_text_atomic(json.dumps(payload, sort_keys=True, indent=1) + "\n", path)


def read_json(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ArtifactError(f"artifact file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"artifact file {path} is truncated or corrupt: {exc}") from exc
    if not isinstance(payload, dict):
        raise ArtifactError(f"artifact file {path} does not hold an object")
    return payload
