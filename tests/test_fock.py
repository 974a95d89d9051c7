"""Fock-basis machinery: Husimi data, repeated-row hafnians, density
matrix elements, su(1,1) disentanglement, and qudit subspace deficits."""

import gc
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (
    hafnian_deficit,
    random_local_symplectic,
    random_physical_cm,
    recursive_hafnian,
    tmsv_cm,
)
from ionmodes import experiments, fock
from ionmodes.fock import (
    MAX_QUDIT_DIM,
    check_fock_index,
    husimi_data,
    matrix_element,
    qudit_subspace_deficit,
    subspace_sweep,
    tmsv_disentangle,
    _haf_recurse,
    _pure_amplitudes,
)
from ionmodes.gaussian import apply_symplectic, single_mode_rotation, single_mode_squeeze
from ionmodes.numerics import NumericalError


def expand_matrix(a, reps):
    """Explicitly repeat row/column j of a symmetric matrix reps[j] times."""
    idx = [j for j, r in enumerate(reps) for _ in range(r)]
    return a[np.ix_(idx, idx)]


def disentangle_oracle(v0, v_plus, v_minus):
    """Factor the 2x2 group element: with M = [[v0/2, v+], [-v-, -v0/2]],
    expm(M) = [[*, t+ / sqrt(t0)], [-t- / sqrt(t0), 1 / sqrt(t0)]]."""
    e = expm(np.array([[0.5 * v0, v_plus], [-v_minus, -0.5 * v0]]))
    dn = e[1, 1]
    return 1.0 / dn**2, e[0, 1] / dn, -e[1, 0] / dn, dn


class TestHusimiData:
    def test_vacuum(self):
        h = husimi_data(np.eye(4))
        assert h.n_modes == 2
        assert np.allclose(h.sigma_q, np.eye(4), atol=1e-14)
        assert np.allclose(h.a_mat, 0.0, atol=1e-14)
        assert abs(h.sqrt_det_sigma_q - 1.0) < 1e-14

    def test_vacuum_elements(self):
        h = husimi_data(np.eye(4))
        assert abs(matrix_element(h, (0, 0), (0, 0)) - 1.0) < 1e-12
        assert abs(matrix_element(h, (1, 0), (0, 0))) < 1e-15
        assert abs(matrix_element(h, (1, 1), (1, 1))) < 1e-15

    def test_rejects_unphysical(self):
        with pytest.raises(NumericalError):
            husimi_data(0.1 * np.eye(4))


def plain_hafnian(b):
    """Hafnian of a symmetric matrix through the repeated-row recursion,
    every row taken once."""
    b = np.asarray(b)
    return _haf_recurse(b, {}, (1,) * len(b))


class TestRepeatedHafnian:
    def test_base_cases(self):
        assert plain_hafnian(np.zeros((0, 0))) == 1.0
        assert plain_hafnian(np.array([[5.0]])) == 0.0
        b = np.array([[1.0, 7.0], [7.0, 2.0]])
        assert plain_hafnian(b) == 7.0

    def test_4x4_closed_form(self):
        rng = np.random.default_rng(5)
        b = rng.normal(size=(4, 4))
        b = b + b.T
        expect = b[0, 1] * b[2, 3] + b[0, 2] * b[1, 3] + b[0, 3] * b[1, 2]
        assert np.isclose(plain_hafnian(b), expect, atol=1e-13)

    def test_against_recursive_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            b = b + b.T
            got = plain_hafnian(b)
            want = recursive_hafnian(b)
            assert np.isclose(got, want, atol=1e-10 * max(1.0, abs(want)))

    def test_row_scaling_multilinearity(self):
        rng = np.random.default_rng(19)
        b = rng.normal(size=(6, 6))
        b = b + b.T
        scaled = b.copy()
        scaled[2, :] *= 3.0
        scaled[:, 2] *= 3.0
        scaled[2, 2] /= 3.0  # diagonal entries never enter a matching
        assert np.isclose(plain_hafnian(scaled), 3.0 * plain_hafnian(b), atol=1e-10)


class TestMatrixElements:
    def test_tmsv_closed_form(self):
        r = 0.55
        lam = math.tanh(r)
        h = husimi_data(tmsv_cm(r))
        for n in range(4):
            for m in range(4):
                got = matrix_element(h, (m, m), (n, n))
                want = (1.0 - lam * lam) * lam ** (n + m)
                assert abs(got - want) < 1e-12
        # anything off the twin diagonal vanishes
        assert abs(matrix_element(h, (1, 0), (1, 0))) < 1e-14
        assert abs(matrix_element(h, (2, 1), (2, 1))) < 1e-14

    def test_repeated_hafnian_equals_expanded(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            sigma, _, _ = random_physical_cm(rng, 2)
            h = husimi_data(sigma)
            reps = tuple(int(k) for k in rng.integers(0, 3, size=4))
            if sum(reps) > 8:
                continue
            got = _haf_recurse(h.a_mat, h._haf_cache, reps)
            want = recursive_hafnian(expand_matrix(h.a_mat, reps))
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_memo_freed_without_cycle_collector(self, two_ion_cm):
        gc.collect()
        gc.disable()
        try:
            matrix_element(husimi_data(two_ion_cm), (3, 2), (3, 2))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_hermiticity_on_rotated_states(self, two_ion_cm):
        rng = np.random.default_rng(59)
        for _ in range(5):
            s = random_local_symplectic(rng, 2)
            h = husimi_data(apply_symplectic(two_ion_cm, s))
            for _ in range(10):
                bra = tuple(int(k) for k in rng.integers(0, 4, size=2))
                ket = tuple(int(k) for k in rng.integers(0, 4, size=2))
                forward = matrix_element(h, bra, ket)
                backward = matrix_element(h, ket, bra)
                assert abs(forward - np.conj(backward)) < 1e-11

    def test_two_ion_trace_normalized(self, two_ion_cm):
        h = husimi_data(two_ion_cm)
        total = math.fsum(
            matrix_element(h, (m1, m2), (m1, m2), cap=None).real
            for m1 in range(21) for m2 in range(21))
        assert abs(total - 1.0) < 1e-12

    def test_two_ion_purity(self, two_ion_cm):
        h = husimi_data(two_ion_cm)
        purity = math.fsum(
            abs(matrix_element(h, (m1, m2), (n1, n2))) ** 2
            for m1 in range(9) for m2 in range(9)
            for n1 in range(9) for n2 in range(9))
        assert abs(purity - 1.0) < 1e-4  # truncation only; the state is pure

    def test_odd_total_elements_vanish_structurally(self, two_ion_cm):
        h = husimi_data(two_ion_cm)
        for bra, ket in (((0, 0), (0, 1)), ((1, 0), (0, 0)), ((1, 1), (2, 1))):
            assert matrix_element(h, bra, ket) == 0.0

    def test_occupancy_cap(self, two_ion_cm):
        h = husimi_data(two_ion_cm)
        with pytest.raises(ValueError):
            matrix_element(h, (13, 0), (0, 0))
        assert isinstance(matrix_element(h, (13, 0), (13, 0), cap=None), complex)

    def test_check_fock_index_errors(self):
        with pytest.raises(ValueError):
            check_fock_index((0, 1, 2), 2)
        with pytest.raises(ValueError):
            check_fock_index((-1, 0), 2)
        with pytest.raises(ValueError):
            check_fock_index((13, 0), 2)


class TestDisentangle:
    def test_pure_raising_lowering(self):
        for r in (0.2, 0.7, 1.3):
            t0, tp, tm = tmsv_disentangle(0.0, r, -r)
            assert abs(t0 - 1.0 / math.cosh(r) ** 2) < 1e-12
            assert abs(tp - math.tanh(r)) < 1e-12
            assert abs(tm + math.tanh(r)) < 1e-12

    def test_against_matrix_exponential_oracle(self):
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 100:
            v0, vp, vm = rng.uniform(-1.5, 1.5, size=3)
            _, _, _, dn = disentangle_oracle(v0, vp, vm)
            if dn < 0.05:
                continue
            t0, tp, tm = tmsv_disentangle(v0, vp, vm)
            want_t0, want_tp, want_tm, _ = disentangle_oracle(v0, vp, vm)
            assert abs(t0 - want_t0) < 1e-10 * max(1.0, abs(want_t0))
            assert abs(tp - want_tp) < 1e-11
            assert abs(tm - want_tm) < 1e-11
            checked += 1

    def test_taylor_branch_matches_oracle(self):
        for v in ((1e-5, 2e-5, -1e-5), (-3e-5, 1e-5, 1e-5), (0.0, 0.0, 0.0)):
            t0, tp, tm = tmsv_disentangle(*v)
            want_t0, want_tp, want_tm, _ = disentangle_oracle(*v)
            assert abs(t0 - want_t0) < 1e-13
            assert abs(tp - want_tp) < 1e-13
            assert abs(tm - want_tm) < 1e-13

    def test_trigonometric_branch(self):
        v0, vp, vm = 0.4, 1.2, 1.1  # f^2 = 0.04 - 1.32 < 0
        t0, tp, tm = tmsv_disentangle(v0, vp, vm)
        want_t0, want_tp, want_tm, _ = disentangle_oracle(v0, vp, vm)
        assert abs(t0 - want_t0) < 1e-12
        assert abs(tp - want_tp) < 1e-12
        assert abs(tm - want_tm) < 1e-12

    def test_no_normal_form_raises(self):
        with pytest.raises(NumericalError):
            tmsv_disentangle(2.0, 2.0, 2.0)  # rotation past the pole


class TestQuditDeficit:
    def test_vacuum_has_no_deficit(self):
        for dim in (1, 2, 5):
            assert abs(qudit_subspace_deficit(np.eye(4), dim)) < 1e-15

    def test_tmsv_closed_form(self):
        r = 0.35
        lam = math.tanh(r)
        sigma = tmsv_cm(r)
        for dim in range(1, MAX_QUDIT_DIM + 1):
            got = qudit_subspace_deficit(sigma, dim)
            want = lam ** (2 * dim)
            assert abs(got - want) < 1e-10 * want

    def test_decreasing_in_dimension(self, two_ion_cm):
        values = [qudit_subspace_deficit(two_ion_cm, d) for d in range(1, 9)]
        assert all(a > b > 0.0 for a, b in zip(values, values[1:]))

    def test_rows_match_fresh_deficits(self):
        rows = experiments.fock_rows(range(2, MAX_QUDIT_DIM + 1))
        raw, squeezed = experiments.two_ion_states()
        for dim, p_raw, p_squeezed in rows:
            assert p_raw == qudit_subspace_deficit(raw, dim)
            assert p_squeezed == qudit_subspace_deficit(squeezed, dim)

    def test_dimension_bounds(self, two_ion_cm):
        with pytest.raises(ValueError):
            qudit_subspace_deficit(two_ion_cm, 0)
        with pytest.raises(ValueError):
            qudit_subspace_deficit(two_ion_cm, MAX_QUDIT_DIM + 1)

    def test_mixed_state_rejected(self):
        with pytest.raises(ValueError, match="pure states"):
            qudit_subspace_deficit(1.5 * np.eye(4), 2)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), base=st.sampled_from(["two_ion", "tmsv"]),
           dim=st.integers(1, MAX_QUDIT_DIM))
    def test_matches_hafnian_oracle(self, two_ion_cm, seed, base, dim):
        rng = np.random.default_rng(seed)
        sigma = two_ion_cm if base == "two_ion" else tmsv_cm(rng.uniform(0.0, 0.5))
        sigma = apply_symplectic(sigma, random_local_symplectic(rng, 2))
        norm = math.fsum((np.abs(_pure_amplitudes(husimi_data(sigma))) ** 2).ravel())
        assert abs(norm - 1.0) <= 1e-13
        got = qudit_subspace_deficit(sigma, dim)
        want = hafnian_deficit(sigma, dim)
        assert abs(got - want) <= 1e-9 * want

    def test_strong_squeeze_converges_below_cap(self, two_ion_cm):
        # the far edge of the squeezes the deficit is asked for: the tail
        # decays slowly, and the direct complement of the oracle is exact
        s = single_mode_squeeze(2, 2.5) @ single_mode_rotation(2, 0.7)
        sigma = apply_symplectic(two_ion_cm, s)
        for dim in range(1, MAX_QUDIT_DIM + 1):
            want = hafnian_deficit(sigma, dim)
            assert abs(qudit_subspace_deficit(sigma, dim) - want) <= 1e-9 * want

    @pytest.mark.parametrize("z,theta", [(2.49, 1.18), (2.5, 0.5 * math.pi), (2.4, 0.6)])
    def test_every_shell_against_wider_grid(self, two_ion_cm, monkeypatch, z, theta):
        # stopping after two shells below 1e-13 of the total missed the
        # first state by 2.8e-13 against the same sum to shell 300
        s = single_mode_squeeze(2, z) @ single_mode_rotation(2, theta)
        sigma = apply_symplectic(two_ion_cm, s)
        dims = range(1, MAX_QUDIT_DIM + 1)
        got = [qudit_subspace_deficit(sigma, dim) for dim in dims]
        monkeypatch.setattr(fock, "TAIL_OCCUPANCY_CAP", 300)
        prob = np.abs(_pure_amplitudes(husimi_data(sigma))) ** 2
        occupancy = np.arange(301)
        shell = np.maximum.outer(occupancy, occupancy)
        for dim, value in zip(dims, got):
            want = math.fsum(prob[shell >= dim])
            assert abs(value - want) <= 1e-13 * want

    def test_tail_beyond_cap_raises(self, two_ion_cm):
        s = single_mode_squeeze(2, 4.0) @ single_mode_rotation(2, 0.5 * math.pi)
        with pytest.raises(NumericalError, match="beyond shell"):
            qudit_subspace_deficit(apply_symplectic(two_ion_cm, s), MAX_QUDIT_DIM)


def mp_deficit(sigma, dim, size=60):
    """P_out from the same recurrence at the working mpmath precision,
    started from the float64 ket block B and det(sigma_q), summed over every
    shell max(m1, m2) >= D below `size`."""
    h = husimi_data(sigma)
    b = [[mpmath.mpc(complex(h.a_mat[i, j])) for j in range(2)] for i in range(2)]
    root = [mpmath.sqrt(k) for k in range(size)]
    psi = [[mpmath.mpc(0)] * size for _ in range(size)]
    psi[0][0] = mpmath.mpf(h.sqrt_det_sigma_q) ** mpmath.mpf(-0.5)
    for m1 in range(1, size - 1):
        psi[m1 + 1][0] = b[0][0] * root[m1] * psi[m1 - 1][0] / root[m1 + 1]
    for m2 in range(size - 1):
        for m1 in range(size):
            value = b[1][0] * root[m1] * psi[m1 - 1][m2] if m1 else mpmath.mpc(0)
            if m2:
                value += b[1][1] * root[m2] * psi[m1][m2 - 1]
            psi[m1][m2 + 1] = value / root[m2 + 1]
    return mpmath.fsum(abs(psi[m1][m2]) ** 2
                       for m1 in range(size) for m2 in range(size) if max(m1, m2) >= dim)


class TestDeficitAgainstMpmath:
    # squeezed at 7 and 8: the ~1e-13 and ~1e-14 cells table 7 checks at
    # their printed 3 figures
    @pytest.mark.parametrize("state,dim", [("raw", 5), ("raw", 6), ("squeezed", 3),
                                           ("squeezed", 7), ("squeezed", 8)])
    def test_table_cells(self, state, dim):
        raw, squeezed = experiments.two_ion_states()
        sigma = raw if state == "raw" else squeezed
        with mpmath.workdps(30):
            want = mp_deficit(sigma, dim)
            got = qudit_subspace_deficit(sigma, dim)
            assert abs(got - want) <= 1e-14 * want

    def test_direct_complement_cancels(self):
        # why the deficit left 1 - sum_inside: it misses by 1.7e-11 here
        raw, _ = experiments.two_ion_states()
        with mpmath.workdps(30):
            want = mp_deficit(raw, 6)
            assert abs(hafnian_deficit(raw, 6) - want) > 1e-12 * want


class TestSubspaceSweep:
    def test_minimum_at_variance_balancing_squeeze(self, two_ion_cm):
        z_star = 3.0 ** 0.125
        z_values = [0.9 * z_star, z_star, 1.1 * z_star]
        phi_values = [-0.25, 0.0, 0.25]
        grid = subspace_sweep(two_ion_cm, z_values, phi_values, 2)
        assert grid.shape == (3, 3)
        assert np.all(grid > 0.0)
        # the balancing squeeze minimizes the deficit along every rotation
        # column, and the post-squeeze rotation is a phase shifter, so the
        # deficit is exactly flat along the rotation axis
        for j in range(3):
            assert grid[1, j] < grid[0, j]
            assert grid[1, j] < grid[2, j]
        assert float(np.ptp(grid, axis=1).max()) < 1e-14 * float(grid.max())

    def test_balanced_point_is_tmsv_tail(self, two_ion_cm):
        # balancing squeezes turn the two-ion state into an exact two-mode
        # squeezed vacuum with cosh 2r = sqrt((3 + 2 sqrt(3)) / 6)
        c2r = np.sqrt((3.0 + 2.0 * np.sqrt(3.0)) / 6.0)
        lam = np.sqrt(c2r * c2r - 1.0) / (1.0 + c2r)
        grid = subspace_sweep(two_ion_cm, [3.0 ** 0.125], [0.0], 2)
        want = lam ** 4
        assert abs(grid[0, 0] - want) < 1e-10 * want

    def test_requires_two_modes(self):
        with pytest.raises(ValueError):
            subspace_sweep(np.eye(2), [1.0], [0.0], 2)
