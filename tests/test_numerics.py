"""Numerical kernels: the index reader and the entries it guards, the BLAS
thread pin, deterministic eigendecomposition, symmetric matrix square root,
oscillatory quadrature, bounded Brent search."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag

from conftest import loop_panel_edges, panel_loop_quad
from ionmodes import experiments, fock, gaussian, ion_chain, numerics, scalar_field
from ionmodes.numerics import (
    NumericalError,
    maximize_1d,
    principal_sqrt,
    quad_oscillatory,
    sym_eigen,
)


def _four_mode_cm():
    return experiments.chain_model(4).cm


def _case(label, name, entry):
    return pytest.param(entry, name, id="%s-%s" % (label, name))


# (entry, argument name): each entry takes the guarded argument as x and
# holds every other argument fixed; x = 3 is a valid value for each
INDEX_ENTRIES = [
    _case("negativity_cell-ion", "region_size",
          lambda x: experiments.negativity_cell("ion", 10, x, 1, "trace")),
    _case("negativity_cell-ion", "separation",
          lambda x: experiments.negativity_cell("ion", 10, 1, x, "phi")),
    _case("negativity_cell-ion", "chain_size",
          lambda x: experiments.negativity_cell("ion", x, 1, 1, "pi")),
    _case("negativity_cell-scalar", "region_size",
          lambda x: experiments.negativity_cell("scalar", 0, x, 1, "trace")),
    _case("negativity_cell-scalar", "separation",
          lambda x: experiments.negativity_cell("scalar", 0, 1, x, "phi")),
    _case("negativity_rows", "chain_size",
          lambda x: experiments.negativity_rows("ion", x, 1, [1], ["trace"])),
    _case("negativity_rows", "region_size",
          lambda x: experiments.negativity_rows("ion", 10, x, [1], ["trace"])),
    _case("negativity_rows", "separations",
          lambda x: experiments.negativity_rows("ion", 10, 1, [0, x], ["trace"])),
    _case("fidelity_cell", "chain_size", lambda x: experiments.fidelity_cell(x, 2)),
    _case("fidelity_cell", "window", lambda x: experiments.fidelity_cell(10, x)),
    _case("fidelity_rows", "chain_size", lambda x: experiments.fidelity_rows(x, [2])),
    _case("fidelity_rows", "windows", lambda x: experiments.fidelity_rows(10, [2, x])),
    _case("fock_cell", "dim", lambda x: experiments.fock_cell(x)),
    _case("fock_rows", "dims", lambda x: experiments.fock_rows([2, x])),
    _case("chain_model", "n_ions", lambda x: experiments.chain_model(x)),
    _case("chain_report", "n_ions", lambda x: experiments.chain_report(x)),
    _case("solve_equilibrium", "n_ions", lambda x: ion_chain.solve_equilibrium(x)),
    _case("IonChainModel.build", "n_ions", lambda x: ion_chain.IonChainModel.build(x)),
    _case("restrict", "modes", lambda x: gaussian.restrict(_four_mode_cm(), [0, x])),
    _case("condition_homodyne", "measured",
          lambda x: gaussian.condition_homodyne(_four_mode_cm(), [x], "phi")),
    _case("log_negativity", "region_a",
          lambda x: gaussian.log_negativity(_four_mode_cm(), [x], [0, 1, 2])),
    _case("log_negativity", "region_b",
          lambda x: gaussian.log_negativity(_four_mode_cm(), [0, 1, 2], [x])),
    _case("single_mode_squeeze", "targets",
          lambda x: gaussian.single_mode_squeeze(4, 1.5, [0, x])),
    _case("single_mode_rotation", "targets",
          lambda x: gaussian.single_mode_rotation(4, 0.3, [x])),
    _case("check_fock_index", "occupations", lambda x: fock.check_fock_index((1, x), 2)),
    _case("qudit_subspace_deficit", "dim",
          lambda x: fock.qudit_subspace_deficit(experiments.chain_model(2).cm, x)),
    _case("phi_entry", "separation", lambda x: scalar_field.ScalarFieldSpec().phi_entry(x)),
    _case("pi_entry", "separation", lambda x: scalar_field.ScalarFieldSpec().pi_entry(x)),
    _case("phi_block", "sites", lambda x: scalar_field.ScalarFieldSpec().phi_block([0, x])),
    _case("scalar_vacuum_cm", "window", lambda x: scalar_field.scalar_vacuum_cm(x)),
    _case("measured_vacuum_cm", "sites",
          lambda x: scalar_field.measured_vacuum_cm([0, x], "pi")),
]


# (entry, argument name): each entry takes the guarded sequence of indices
# as x and holds every other argument fixed
INDEX_LIST_ENTRIES = [
    _case("measured_vacuum_cm", "sites", lambda x: scalar_field.measured_vacuum_cm(x, "phi")),
    _case("phi_block", "sites", lambda x: scalar_field.ScalarFieldSpec().phi_block(x)),
    _case("scalar_vacuum_cm", "window", lambda x: scalar_field.scalar_vacuum_cm(x)),
    _case("restrict", "modes", lambda x: gaussian.restrict(_four_mode_cm(), x)),
    _case("condition_homodyne", "measured",
          lambda x: gaussian.condition_homodyne(_four_mode_cm(), x, "phi")),
    _case("log_negativity", "region_a",
          lambda x: gaussian.log_negativity(_four_mode_cm(), x, [1, 2, 3])),
    _case("log_negativity", "region_b",
          lambda x: gaussian.log_negativity(_four_mode_cm(), [0, 1, 2], x)),
    _case("single_mode_squeeze", "targets", lambda x: gaussian.single_mode_squeeze(2, 1.1, x)),
    _case("single_mode_rotation", "targets",
          lambda x: gaussian.single_mode_rotation(2, 0.3, x)),
    _case("check_fock_index", "occupations", lambda x: fock.check_fock_index(x, 2)),
    _case("negativity_rows", "separations",
          lambda x: experiments.negativity_rows("ion", 10, 1, x, ["trace"])),
    _case("fidelity_rows", "windows", lambda x: experiments.fidelity_rows(10, x)),
    _case("fock_rows", "dims", lambda x: experiments.fock_rows(x)),
]


def _same(a, b):
    """Whether two results are equal down to the types of their parts."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return _same(vars(a), vars(b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


class TestIndexReader:
    @pytest.mark.parametrize("entry,name", INDEX_ENTRIES)
    def test_non_integer_index_rejected(self, entry, name):
        # no value is truncated (2.5 used to read as 2); integer-valued
        # numbers of any type give exactly the result of the int
        want = entry(3)
        for same in (3.0, np.int64(3)):
            assert _same(entry(same), want), same
        for bad in (2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^%s must be integer-valued" % re.escape(name)):
                entry(bad)

    @pytest.mark.parametrize("entry,name", INDEX_LIST_ENTRIES)
    def test_index_list_refuses_other_shapes(self, entry, name):
        # a single number (where scalar_vacuum_cm reads a count) or a nested
        # list used to die with a bare TypeError
        single = [] if name == "window" else [0]
        for bad in single + [[[0], [1]]]:
            with pytest.raises(ValueError,
                               match=r"^%s must be a sequence of integers" % re.escape(name)):
                entry(bad)

    def test_single_index_refuses_a_sequence(self):
        with pytest.raises(ValueError, match="separation must be a single integer"):
            scalar_field.ScalarFieldSpec().phi_entry([1, 2])

    def test_reader_values(self):
        assert numerics.integer(np.float32(7.0), "n") == 7
        assert type(numerics.integer(np.int64(-2), "n")) is int
        got = numerics.integers([1, 2.0, np.int64(3)], "sites")
        assert got.dtype == np.int64 and got.tolist() == [1, 2, 3]
        assert numerics.integers([], "sites").shape == (0,)
        for bad in (1e30, 2**64, None, "abc", [[1, 2], [3]], [0, 0.5]):
            with pytest.raises(ValueError, match="^sites must be integer-valued"):
                numerics.integers(bad, "sites")


# runs in a fresh process: the 300-ion CM, the seed-3 negativity scan of
# perfbench/worker.py and golden-check --table 3, at full precision
_PIN_PROBE = """
import contextlib, hashlib, io, json, sys
sys.path[:0] = sys.argv[1:]
import worker
from ionmodes import cli, experiments, numerics
def golden_check(table):
    rows = io.StringIO()
    with contextlib.redirect_stdout(rows), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["golden-check", "--table", table, "--format", "json"])
    return [code, json.loads(rows.getvalue())["rows"]]
print(json.dumps({
    "blas_threads": numerics.blas_threads(),
    "cm": hashlib.sha256(experiments.chain_model(300).cm.tobytes()).hexdigest(),
    "scan": worker.run_negativity(3, None)["values"],
    "golden_check": golden_check("3"),
    "fidelity_check": golden_check("4"),
}))
"""


@pytest.mark.skipif(numerics._OPENBLAS_THREADS is None,
                    reason="numpy.linalg has no known OpenBLAS thread setter")
def test_outputs_independent_of_openblas_threads():
    # unpinned, two OpenBLAS threads changed 191 of the 504 scan values in
    # the last bits and table-3 cells in the 9th printed digit; table 4
    # covers the fidelity route
    root = Path(__file__).resolve().parent.parent
    paths = [str(root / "src"), str(root / "perfbench")]
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONDONTWRITEBYTECODE"] = "1"  # nothing cached inside perfbench/
    procs = [subprocess.Popen([sys.executable, "-c", _PIN_PROBE] + paths,
                              env=dict(base, **extra), stdout=subprocess.PIPE, text=True)
             for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"})]
    outputs = [proc.communicate(timeout=300)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0, 0]
    unset, one, two = map(json.loads, outputs)
    assert unset["blas_threads"] == 1
    assert unset["golden_check"][0] == 0 and len(unset["scan"]) == 504
    assert unset["fidelity_check"][0] == 0 and len(unset["fidelity_check"][1]) == 45
    assert one == unset
    assert two == unset


class TestSymEigen:
    def test_known_2x2(self):
        vals, vecs = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(vals, [1.0, 3.0], atol=1e-14)
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(vecs[:, 0], [r, -r], atol=1e-14)
        assert np.allclose(vecs[:, 1], [r, r], atol=1e-14)

    def test_deterministic_and_sign_fixed(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.normal(size=(6, 6))
            m = m + m.T
            vals1, vecs1 = sym_eigen(m)
            vals2, vecs2 = sym_eigen(m.copy())
            assert np.array_equal(vals1, vals2)
            assert np.array_equal(vecs1, vecs2)
            for k in range(6):
                lead = int(np.argmax(np.abs(vecs1[:, k])))
                assert vecs1[lead, k] > 0.0

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(8, 8))
        m = m + m.T
        vals, vecs = sym_eigen(m)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, m, atol=1e-12)

    def test_direct_sum(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(3, 3))
        a = a + a.T
        b = rng.normal(size=(4, 4))
        b = b + b.T
        vals, _ = sym_eigen(block_diag(a, b))
        expect = np.sort(np.concatenate([np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)]))
        assert np.allclose(vals, expect, atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eigen([[0.0, 1.0], [0.0, 0.0]])


class TestPrincipalSqrt:
    def test_diagonal(self):
        root = principal_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(root, np.diag([2.0, 3.0]), atol=1e-14)

    def test_random_spd(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(6, 6))
            m = a @ a.T + 0.1 * np.eye(6)
            root = principal_sqrt(m)
            assert np.allclose(root @ root, m, atol=1e-10 * np.abs(m).max())
            assert np.allclose(root, root.T, atol=1e-10)
            assert np.all(np.linalg.eigvalsh(0.5 * (root + root.T)) > 0.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            principal_sqrt([[4.0, 1.0], [0.0, 9.0]])


def _phi_integrand(delta, mass):
    return lambda k: np.cos(k * delta) / np.sqrt(mass**2 + 4.0 * np.sin(0.5 * k) ** 2)


def _pi_integrand(delta, mass):
    return lambda k: np.cos(k * delta) * np.sqrt(mass**2 + 4.0 * np.sin(0.5 * k) ** 2)


def _odd_part_integrand(delta, mass):
    # not even in k, so the +k and -k halves contribute differently
    return lambda k: np.cos(k * delta) + np.sin(k) * k**2


class TestQuadOscillatory:
    def test_orthogonality_of_harmonics(self):
        for delta in range(0, 7):
            got = quad_oscillatory(lambda k: np.cos(k * delta), delta)
            want = 1.0 if delta == 0 else 0.0
            assert abs(got - want) < 1e-13

    def test_kinked_integrand_closed_form(self):
        # (1 / 2 pi) Int 2|sin(k/2)| cos(k delta) dk = 4 / (pi (1 - 4 delta^2))
        for delta in range(0, 8):
            f = lambda k: 2.0 * np.abs(np.sin(0.5 * k)) * np.cos(k * delta)
            want = 4.0 / (np.pi * (1.0 - 4.0 * delta * delta))
            assert abs(quad_oscillatory(f, delta) - want) < 1e-12

    def test_inner_scale_resolves_sharp_feature(self):
        # 1 / sqrt(k^2 + m^2) integrates to 2 asinh(pi / m) / (2 pi)
        m = 1e-6
        f = lambda k: 1.0 / np.sqrt(k * k + m * m)
        want = np.arcsinh(np.pi / m) / np.pi
        got = quad_oscillatory(f, 0, inner_scale=m)
        assert abs(got - want) < 1e-10

    @pytest.mark.parametrize("integrand", [_phi_integrand, _pi_integrand, _odd_part_integrand])
    @pytest.mark.parametrize("inner_scale", [None, 1e-10, 1e-3, 1.0])
    @pytest.mark.parametrize("delta", [0, 1, 7, 20, 150, 298, 300])
    def test_matches_panel_loop(self, delta, inner_scale, integrand):
        # the per-panel loop this kernel replaced: same nodes and weights,
        # summed in another order
        f = integrand(delta, 1e-10 if inner_scale is None else inner_scale)
        want = panel_loop_quad(f, delta, inner_scale)
        got = quad_oscillatory(f, delta, inner_scale)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("delta", [0, 1, 150, 298])
    def test_integrand_called_at_most_twice(self, delta):
        calls = []
        f = _pi_integrand(delta, 1e-10)

        def counted(k):
            calls.append(k.size)
            return f(k)

        quad_oscillatory(counted, delta, inner_scale=1e-10)
        assert len(calls) <= 2
        # every node of the panel layout is still evaluated
        panels = len(numerics._panel_edges(delta, 1e-10)) - 1
        assert sum(calls) == 2 * 24 * panels


class TestHalfZoneNodes:
    @pytest.mark.parametrize("inner_scale", [None, 1e-20, 1e-10, 3.7e-7, 1e-3, 0.05, 1.0, 10.0])
    def test_panel_edges_match_linspace_loop(self, inner_scale):
        # the one-expression edges reproduce every np.linspace cut bit for bit
        for delta in (*range(-3, 320), 599, 1000):
            want = loop_panel_edges(delta, inner_scale)
            got = numerics._panel_edges(delta, inner_scale)
            assert got.shape == want.shape and np.array_equal(got, want), delta

    @pytest.mark.parametrize("delta", [0, 1, 7, 150, 300])
    @pytest.mark.parametrize("inner_scale", [None, 1e-10, 0.5])
    def test_nodes_fill_the_half_zone(self, delta, inner_scale):
        k, weights = numerics.half_zone_nodes(delta, inner_scale)
        panels = len(numerics._panel_edges(delta, inner_scale)) - 1
        assert k.shape == weights.shape == (24 * panels,)
        assert 0.0 < k.min() and k.max() < np.pi
        assert np.all(weights > 0.0)
        assert abs(weights.sum() - np.pi) < 1e-13


class TestMaximize1d:
    def test_parabola(self):
        x, fx = maximize_1d(lambda x: -(x - 2.5) ** 2, 0.0, 10.0, tol=1e-9)
        assert abs(x - 2.5) < 1e-6
        assert fx <= 0.0

    @pytest.mark.parametrize("f,lo,hi,argmax", [
        (lambda x: x * np.exp(-x), 0.0, 5.0, 1.0),
        (lambda x: 3.0 * x - np.exp(x), -2.0, 4.0, np.log(3.0)),
        (lambda x: -np.cosh(x - 0.3) - 0.1 * (x - 0.3) ** 4, -5.0, 1.0, 0.3),
    ])
    def test_argmax_within_tol(self, f, lo, hi, argmax):
        tol = 1e-7
        calls = []
        x, fx = maximize_1d(lambda t: calls.append(t) or f(t), lo, hi, tol=tol)
        assert abs(x - argmax) <= tol
        assert fx == f(x)
        assert len(calls) < 40  # golden section alone needs ~40 at this tol

    def test_widens_bracket_once(self):
        x, _ = maximize_1d(lambda x: -(x - 1.2) ** 2, 0.0, 1.0, tol=1e-9)
        assert abs(x - 1.2) < 1e-6
        x, _ = maximize_1d(lambda x: -(x + 0.3) ** 2, 0.0, 1.0, tol=1e-9)
        assert abs(x + 0.3) < 1e-6

    def test_monotone_function_fails(self):
        with pytest.raises(NumericalError, match="even after widening"):
            maximize_1d(lambda x: x, 0.0, 1.0, tol=1e-9)

    def test_maximum_beyond_widened_bracket_fails(self):
        with pytest.raises(NumericalError, match="even after widening"):
            maximize_1d(lambda x: -(x - 2.5) ** 2, 0.0, 1.0, tol=1e-9)

    def test_non_convergence_within_max_iter(self, monkeypatch):
        monkeypatch.setattr(numerics, "BRENT_MAX_ITER", 5)
        with pytest.raises(NumericalError, match="did not converge in 5 iterations"):
            maximize_1d(lambda x: -np.cosh(x - 0.37), 0.0, 1.0, tol=1e-12)

    def test_empty_bracket(self):
        with pytest.raises(ValueError):
            maximize_1d(lambda x: -x * x, 1.0, 1.0)
