"""The benchmark's layer trace must still find every entry point it wraps.

``perfbench/spans.py`` reports a vanished target as missing instead of
failing, so a rename or deletion under ``src/`` would silently drop a
layer from the benchmark's per-layer metrics.  This test fails instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_targets() -> dict:
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    missing = []
    for name, (module_name, path, _) in _load_targets().items():
        owner = importlib.import_module(module_name)
        try:
            for part in path.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{name} ({module_name}.{path})")
            continue
        assert callable(owner), f"{module_name}.{path} is not callable"
    assert missing == []
