"""README's run-configuration example and command lines parse as written."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

from urlsleuth.cli import build_parser
from urlsleuth.config import parse_run_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def first_block(heading: str, language: str) -> str:
    """The first ``language`` code block after the README line ``heading``."""
    after = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"^```{language}\n(.*?)^```", after, re.M | re.S).group(1)


def argv_variants(line: str) -> list[list[str]]:
    """The arguments of one ``urlsleuth …`` line: without its optional
    ``[--flag a|b]`` group, and with each of the group's values."""
    line = line.split("#", 1)[0]
    group = re.search(r"\[(\S+) (\S+)\]", line)
    base = shlex.split(re.sub(r"\[[^\]]*\]", "", line))[1:]
    if group is None:
        return [base]
    flag, values = group.groups()
    return [base] + [[*base, flag, value] for value in values.split("|")]


def test_run_configuration_example_parses(tmp_path):
    cfg = parse_run_config(json.loads(first_block("### Run configuration", "json")), tmp_path)
    assert [e.id for e in cfg.datasets] == ["ds0", "ds1", "ds2", "ds3"]
    assert cfg.features.selector_top_k == 40
    assert cfg.grid_for("KNN") == {"k": [3, 5, 7]}


def test_command_lines_parse():
    lines = [
        line for line in first_block("## Command-line interface", "sh").splitlines()
        if line.startswith("urlsleuth ")
    ]
    parser = build_parser()  # parse_args only parses: no command runs
    commands = set()
    for line in lines:
        for argv in argv_variants(line):
            commands.add(parser.parse_args(argv).command)
    assert commands == {"ingest", "audit", "featurize", "train", "evaluate", "rank", "classify"}
