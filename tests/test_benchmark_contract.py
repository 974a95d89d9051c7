"""The benchmark's span tracer (perfbench/spans.py) wraps package functions
by name.  Every name it lists must still exist, or a traced benchmark run
fails long after the change that removed the name."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _resolve(span_name):
    """The function a span name points at (a classmethod's underlying one)."""
    module_name, _, qualname = span_name.partition(".")
    owner = sys.modules["ionmodes." + module_name]
    *classes, attr = qualname.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    fn = vars(owner)[attr]
    return getattr(fn, "__func__", fn)


def test_tracer_wraps_every_traced_name(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name in spans.TRACED:
        importlib.import_module("ionmodes." + module_name)
    originals = {name: _resolve(name) for name in spans.SPAN_NAMES}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, original in originals.items():
            assert getattr(_resolve(name), "__wrapped__", None) is original, name
    finally:
        tracer.uninstall()
    assert {name: _resolve(name) for name in spans.SPAN_NAMES} == originals
