"""Numerical kernels: deterministic eigendecomposition, symmetric matrix
square root, oscillatory quadrature, bounded Brent search."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from conftest import loop_panel_edges, panel_loop_quad
from ionmodes import numerics
from ionmodes.numerics import (
    NumericalError,
    maximize_1d,
    principal_sqrt,
    quad_oscillatory,
    sym_eigen,
)


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

    def test_non_convergence_within_max_iter(self):
        with pytest.raises(NumericalError, match="did not converge"):
            maximize_1d(lambda x: -np.cosh(x - 0.37), 0.0, 1.0, tol=1e-12, max_iter=5)

    def test_empty_bracket(self):
        with pytest.raises(ValueError):
            maximize_1d(lambda x: -x * x, 1.0, 1.0)
