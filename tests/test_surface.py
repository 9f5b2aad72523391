"""The public surface, and the names the benchmark's tracer wraps, resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import conjpr

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_export_is_an_attribute():
    assert len(set(conjpr.__all__)) == len(conjpr.__all__)
    assert [name for name in conjpr.__all__ if not hasattr(conjpr, name)] == []


@pytest.mark.parametrize("table", ["BINDINGS", "COUNTERS"])
def test_every_traced_name_resolves(table):
    # a dropped name would crash a traced benchmark run at install time
    entries = getattr(load_tracing(), table)
    assert entries
    missing = [
        (module, attr)
        for module, attr, *_ in entries
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
