"""What the benchmark (perfbench/) relies on in the package.  A change that
breaks it fails only in a later benchmark run, long after the change."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from ionmodes import experiments, fock, gaussian

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_perfbench(monkeypatch, name):
    """A perfbench/ script loaded as a module, leaving no bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    spans = _load_perfbench(monkeypatch, "spans")
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


@pytest.mark.parametrize("system", ["ion", "scalar"])
def test_negativity_cell_hands_log_negativity_one_interleaved_cm(monkeypatch, system):
    """The negativity evidence (perfbench/worker.py, negativity_evidence)
    replaces the module attribute gaussian.log_negativity to keep every CM
    it is handed; the correctness check (perfbench/checks.py,
    check_negativity) recomputes each value from that CM as a 4d x 4d
    interleaved CM with region A as its first d modes."""
    calls = []
    original = gaussian.log_negativity

    def keep(sigma, region_a, region_b):
        calls.append((np.array(sigma, dtype=float), list(region_a), list(region_b)))
        return original(sigma, region_a, region_b)

    monkeypatch.setattr(gaussian, "log_negativity", keep)
    d = 2
    for treatment in experiments.TREATMENTS:
        calls.clear()
        value = experiments.negativity_cell(system, 30, d, 1, treatment)
        assert len(calls) == 1, treatment
        cm, region_a, region_b = calls[0]
        assert cm.shape == (4 * d, 4 * d)
        assert (region_a, region_b) == (list(range(d)), list(range(d, 2 * d)))
        signs = np.ones(4 * d)
        signs[2 * d + 1::2] = -1.0  # the momenta of region B
        nu = gaussian.symplectic_spectrum(cm * np.outer(signs, signs))
        again = sum(-np.log2(v) for v in nu if v < 1.0 - gaussian.NU_UNIT_TOL)
        assert value > 0.0
        assert abs(again - value) <= 1e-12 * value, treatment


def test_worker_package_calls(monkeypatch, tmp_path):
    """The package calls of perfbench/worker.py: the negativity scan of one
    seed, and one rotated two-ion state through the deficit at every
    dimension the Fock workload asks for."""
    inputs = _load_perfbench(monkeypatch, "inputs")
    monkeypatch.setitem(sys.modules, "inputs", inputs)  # the worker imports it by that name
    worker = _load_perfbench(monkeypatch, "worker")
    values = worker.run_negativity(1, tmp_path)["values"]
    assert len(values) == len(inputs.negativity_cells(1))
    assert all(isinstance(v, float) and 0.0 <= v < np.inf for v in values)
    state = next(worker._rotated_states(1))
    deficits = [fock.qudit_subspace_deficit(state, d) for d in inputs.QUDIT_DIMS]
    assert all(0.0 <= p < 1.0 for p in deficits)
    assert deficits == sorted(deficits, reverse=True)


def test_worker_deficit_call_returns_a_float(monkeypatch):
    """perfbench/worker.py asks qudit_subspace_deficit for one dimension per
    call and stores the result as a number; a sequence of dimensions gives a
    list, one int a float."""
    inputs = _load_perfbench(monkeypatch, "inputs")
    monkeypatch.setitem(sys.modules, "inputs", inputs)
    worker = _load_perfbench(monkeypatch, "worker")
    state = next(worker._rotated_states(1))
    for d in inputs.QUDIT_DIMS:
        assert type(fock.qudit_subspace_deficit(state, d)) is float, d
