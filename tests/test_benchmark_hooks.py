"""The benchmark's per-layer spans wrap names of the program; a renamed or
deleted name silently drops its layer from traced runs, so every hooked
name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_benchmark_hook_resolves():
    if not SPANS.exists():
        pytest.skip("perfbench/ is not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.HOOKS
    missing = []
    for module_name, path, _, _ in spans.HOOKS:
        owner = importlib.import_module(f"deeptrees.{module_name}")
        for name in path.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert missing == []
