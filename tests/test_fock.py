"""Fock-basis machinery: Husimi data, repeated-row hafnians, density
matrix elements, su(1,1) disentanglement, and qudit subspace deficits."""

import gc
import importlib.util
import itertools
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (
    haf_element,
    haf_recurse,
    hafnian_deficit,
    random_local_symplectic,
    random_physical_cm,
    recursive_hafnian,
    tmsv_cm,
)
from ionmodes import experiments, fock
from ionmodes.fock import (
    MAX_QUDIT_DIM,
    TAIL_OCCUPANCY_CAP,
    check_fock_index,
    husimi_data,
    matrix_element,
    qudit_subspace_deficit,
    tmsv_disentangle,
    _hafnian_grid,
    _ket_block,
)
from ionmodes.gaussian import apply_symplectic, single_mode_rotation, single_mode_squeeze
from ionmodes.numerics import NumericalError


def expand_matrix(a, reps):
    """Explicitly repeat row/column j of a symmetric matrix reps[j] times."""
    idx = [j for j, r in enumerate(reps) for _ in range(r)]
    return a[np.ix_(idx, idx)]


def pure_amplitudes(sigma):
    """psi(m1, m2), up to a global phase, of a pure two-mode state on the
    grid the qudit deficit reads: psi(0) times the hafnian grid of its ket
    block to TAIL_OCCUPANCY_CAP quanta per mode."""
    b, psi0 = _ket_block(sigma)
    return psi0 * _hafnian_grid(b, (TAIL_OCCUPANCY_CAP,) * 2)


def husimi_grid(sigma, size):
    """|psi(m1, m2)|^2 on the size x size grid, from the ket block and
    det(sigma_q) of husimi_data, one m2 column at a time (the route the
    deficit took before it read the (Phi, Pi) blocks)."""
    h = husimi_data(sigma)
    b = h.a_mat[:2, :2]
    root = np.sqrt(np.arange(size))
    psi_t = np.zeros((size, size), dtype=complex)  # psi_t[m2] is the m2 column
    psi_t[0, 0] = h.sqrt_det_sigma_q ** -0.5
    for m1 in range(1, size - 1):
        psi_t[0, m1 + 1] = b[0, 0] * root[m1] * psi_t[0, m1 - 1] / root[m1 + 1]
    for m2 in range(size - 1):
        column = psi_t[m2 + 1]
        column[1:] = b[1, 0] * root[1:] * psi_t[m2, :-1]
        if m2:
            column += b[1, 1] * root[m2] * psi_t[m2 - 1]
        column /= root[m2 + 1]
    return np.abs(psi_t.T) ** 2


def husimi_route_accepts(sigma):
    """Whether the deficit's Husimi route took sigma as a pure state: a
    physical CM whose pair matrix has an off-diagonal block below 1e-12."""
    try:
        h = husimi_data(sigma)
    except NumericalError:
        return False
    return float(np.abs(h.a_mat[:2, 2:]).max()) <= 1e-12


def rotated_states(monkeypatch, seed=1):
    """The states of the benchmark's fock-rotated workload at a seed."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing cached in perfbench/
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    base = experiments.chain_model(2).cm
    points, _ = inputs.fock_grid(seed)
    states = [apply_symplectic(base, single_mode_squeeze(2, z) @ single_mode_rotation(2, theta))
              for z, theta in points]
    return states, list(inputs.QUDIT_DIMS)


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
    """Hafnian of a symmetric matrix through the repeated-row recursion
    (conftest.haf_recurse), every row taken once."""
    b = np.asarray(b)
    return haf_recurse(b, (1,) * len(b))


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
            got = haf_recurse(h.a_mat, reps)
            want = recursive_hafnian(expand_matrix(h.a_mat, reps))
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("n_modes, quanta, seed", [(2, 3, 61), (2, 3, 62), (3, 2, 63)])
    def test_grid_matches_recursion_on_mixed_states(self, n_modes, quanta, seed):
        rng = np.random.default_rng(seed)
        sigma, _, _ = random_physical_cm(rng, n_modes)
        assert np.abs(sigma[0::2, 1::2]).max() > 0.1  # phi-pi cross correlations
        h = husimi_data(sigma)
        memo = {}
        occupations = list(itertools.product(range(quanta + 1), repeat=n_modes))
        for bra in occupations:
            for ket in occupations:
                want = haf_element(h, bra, ket, memo)
                assert abs(matrix_element(h, bra, ket) - want) <= 1e-15, (bra, ket)

    @pytest.mark.parametrize("n_modes, small, large", [
        (2, ((2, 0), (0, 1)), ((1, 4), (3, 2))),
        (3, ((0, 1, 0), (2, 0, 1)), ((1, 0, 2), (0, 3, 1))),
    ])
    def test_grown_grid_keeps_every_element(self, n_modes, small, large):
        sigma, _, _ = random_physical_cm(np.random.default_rng(67), n_modes)
        grown, fresh = husimi_data(sigma), husimi_data(sigma)
        first = matrix_element(grown, *small)
        matrix_element(grown, *large)
        again = matrix_element(grown, *small)
        top_bra, top_ket = tuple(map(max, small[0], large[0])), tuple(map(max, small[1], large[1]))
        matrix_element(fresh, top_bra, top_ket)
        assert first == again == matrix_element(fresh, *small)
        for bra in itertools.product(*(range(k + 1) for k in top_bra)):
            for ket in itertools.product(*(range(k + 1) for k in top_ket)):
                assert matrix_element(grown, bra, ket) == matrix_element(fresh, bra, ket)
        assert grown._grid.shape == fresh._grid.shape

    def test_refused_request_leaves_grid(self, two_ion_cm):
        h = husimi_data(two_ion_cm)
        matrix_element(h, (1, 2), (2, 1))
        grid = h._grid
        for bra, ket in (((13, 0), (0, 0)), ((0, 0), (13, 0)), ((0, 0, 0), (5, 5))):
            with pytest.raises(ValueError):
                matrix_element(h, bra, ket)
            assert h._grid is grid and grid.shape == (3, 3, 3, 3)

    def test_occupation_at_the_cap_is_accepted(self, two_ion_cm):
        # check_fock_index refuses k > cap: an element at exactly the cap, bra
        # or ket, is served as the uncapped request serves it
        cap = fock.DEFAULT_OCCUPANCY_CAP
        h = husimi_data(two_ion_cm)
        for bra, ket in (((cap, 0), (0, 1)), ((1, 0), (2, cap))):
            want = matrix_element(husimi_data(two_ion_cm), bra, ket, cap=None)
            assert matrix_element(h, bra, ket) == want
        for bra, ket in (((cap + 1, 0), (0, 1)), ((1, 0), (2, cap + 1))):
            with pytest.raises(ValueError, match="exceeds the cap %d" % cap):
                matrix_element(h, bra, ket)

    def test_failed_fill_leaves_grid(self, two_ion_cm, monkeypatch):
        h = husimi_data(two_ion_cm)
        want = matrix_element(h, (1, 0), (1, 0))
        axes, grid = h._axes, h._grid

        def no_memory(a, top):
            raise MemoryError

        monkeypatch.setattr(fock, "_hafnian_grid", no_memory)
        with pytest.raises(MemoryError):
            matrix_element(h, (0, 1), (2, 1))
        assert h._axes == axes and h._grid is grid
        assert matrix_element(h, (1, 0), (1, 0)) == want

    def test_grid_dtype_follows_the_matrix(self, two_ion_cm):
        # a real ket block fills a real grid, bit-equal to the real part of
        # its complex fill; Husimi grids and their elements stay complex
        top = (TAIL_OCCUPANCY_CAP,) * 2
        for sigma in list(experiments.two_ion_states()) + [np.eye(4), tmsv_cm(0.35)]:
            b, _ = _ket_block(sigma)
            grid, full = _hafnian_grid(b, top), _hafnian_grid(b.astype(complex), top)
            assert grid.dtype == np.float64 and full.dtype == complex
            assert grid.tobytes() == np.ascontiguousarray(full.real).tobytes()
        rotated = apply_symplectic(two_ion_cm, single_mode_rotation(2, 0.7))
        assert _hafnian_grid(_ket_block(rotated)[0], top).dtype == complex
        h = husimi_data(two_ion_cm)
        assert type(matrix_element(h, (2, 1), (1, 2))) is complex
        assert h._grid.dtype == complex

    def test_requests_within_the_grid_modes_reuse_it(self, two_ion_cm):
        h = husimi_data(two_ion_cm)
        matrix_element(h, (2, 1), (1, 2))
        grid = h._grid
        for bra, ket in (((0, 1), (0, 1)), ((2, 0), (0, 0)), ((1, 2), (2, 1))):
            matrix_element(h, bra, ket)
            assert h._grid is grid

    def test_sparse_requests_keep_the_grid_small(self):
        # one-mode and neighbouring-pair elements of a 12-mode state: the grid
        # spans the modes of one request, never all 24 indices at once
        n = 12
        sigma, _, _ = random_physical_cm(np.random.default_rng(73), n)
        h = husimi_data(sigma)
        memo = {}
        for i in range(n - 1):
            for occupied in ({i: 1}, {i: 1, i + 1: 1}):
                occ = tuple(occupied.get(j, 0) for j in range(n))
                want = haf_element(h, occ, occ, memo)
                assert abs(matrix_element(h, occ, occ) - want) <= 1e-15, occ
                assert h._grid.size <= 2 ** 4

    def test_many_mode_states(self):
        # no array over all 2n indices: 40 modes have 80, beyond numpy's 32
        # (1.x) and 64 (2.x) array dimensions
        assert husimi_data(np.eye(80)).n_modes == 40
        sigma, _, _ = random_physical_cm(np.random.default_rng(71), 40, strength=0.1)
        h = husimi_data(sigma)
        memo = {}
        for bra, ket in (({0: 1}, {0: 1}), ({17: 2}, {17: 1, 39: 1}), ({0: 1, 39: 2}, {17: 1, 39: 2})):
            bra, ket = (tuple(occ.get(j, 0) for j in range(40)) for occ in (bra, ket))
            want = haf_element(h, bra, ket, memo)
            assert abs(matrix_element(h, bra, ket) - want) <= 1e-15, (bra, ket)
            assert h._grid.ndim <= 6

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

    def test_dims_equal_per_dim_calls_on_table_states(self):
        dims = list(range(1, MAX_QUDIT_DIM + 1))
        for sigma in experiments.two_ion_states():
            got = qudit_subspace_deficit(sigma, dims)
            assert type(got) is list
            assert got == [qudit_subspace_deficit(sigma, dim) for dim in dims]
            assert qudit_subspace_deficit(sigma, dims[::-1]) == got[::-1]

    def test_dims_equal_per_dim_calls_on_rotated_states(self, monkeypatch):
        states, dims = rotated_states(monkeypatch)
        for k, sigma in enumerate(states):
            want = [qudit_subspace_deficit(sigma, dim) for dim in dims]
            assert qudit_subspace_deficit(sigma, dims) == want, k

    def test_rows_fill_one_grid_per_state(self, monkeypatch):
        fills = []

        def counted(a, top, fill=_hafnian_grid):
            fills.append(a)
            return fill(a, top)

        monkeypatch.setattr(fock, "_hafnian_grid", counted)
        rows = experiments.fock_rows(range(1, 9))
        assert len(fills) == 2 and len(rows) == 8
        fills.clear()
        assert experiments.fock_cell(3) == rows[2][1:]
        assert len(fills) == 2

    def test_one_dim_gives_a_float(self, two_ion_cm):
        for dim in (3, 3.0, np.int64(3)):
            assert type(qudit_subspace_deficit(two_ion_cm, dim)) is float
        assert qudit_subspace_deficit(two_ion_cm, [3]) == [qudit_subspace_deficit(two_ion_cm, 3)]
        assert qudit_subspace_deficit(two_ion_cm, []) == []

    def test_dims_refused_before_the_fill(self, two_ion_cm, monkeypatch):
        def no_fill(a, top):
            raise AssertionError("an amplitude grid was filled")

        monkeypatch.setattr(fock, "_hafnian_grid", no_fill)
        with pytest.raises(ValueError, match="qudit dimension must lie in"):
            qudit_subspace_deficit(two_ion_cm, [2, MAX_QUDIT_DIM + 1])
        with pytest.raises(ValueError, match="dim must be one integer or a sequence"):
            qudit_subspace_deficit(two_ion_cm, [[2, 3]])
        with pytest.raises(ValueError, match="dim must be integer-valued"):
            qudit_subspace_deficit(two_ion_cm, [2, 2.5])

    def test_dimension_bounds(self, two_ion_cm):
        with pytest.raises(ValueError):
            qudit_subspace_deficit(two_ion_cm, 0)
        with pytest.raises(ValueError):
            qudit_subspace_deficit(two_ion_cm, MAX_QUDIT_DIM + 1)

    def test_mixed_state_rejected(self):
        with pytest.raises(ValueError, match="pure states"):
            qudit_subspace_deficit(1.5 * np.eye(4), 2)

    def test_slightly_mixed_rotated_state_rejected(self, two_ion_cm):
        s = single_mode_squeeze(2, 2.0) @ single_mode_rotation(2, 0.7)
        sigma = apply_symplectic(two_ion_cm, s)
        assert qudit_subspace_deficit(sigma, 2) > 0.0
        for noisy in (sigma * (1.0 + 1e-8), sigma + 1e-8 * np.diag([1.0, 1.0, 0.0, 0.0])):
            assert not husimi_route_accepts(noisy)
            with pytest.raises(ValueError, match="pure states"):
                qudit_subspace_deficit(noisy, 2)

    def test_antisymmetric_cross_block_rejected(self):
        # Pi = Phi^-1 + C^T Phi^-1 C holds, but Phi^-1 C is antisymmetric:
        # det sigma = 1 and yet a symplectic eigenvalue is below 1
        c = 0.3 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        sigma = np.block([[np.eye(2), c], [c.T, (1.0 + 0.09) * np.eye(2)]])
        sigma = sigma[np.ix_([0, 2, 1, 3], [0, 2, 1, 3])]  # to (phi1, pi1, phi2, pi2)
        assert not husimi_route_accepts(sigma)
        with pytest.raises(ValueError, match="pure states"):
            qudit_subspace_deficit(sigma, 2)

    def test_states_the_husimi_route_accepted_still_accepted(self, two_ion_cm, monkeypatch):
        # pure states, and each mixed by just less than that route let pass
        states, dims = rotated_states(monkeypatch)
        pure = (states[::16] + list(experiments.two_ion_states())
                + [np.eye(4), tmsv_cm(0.35), two_ion_cm])
        noises = (np.eye(4), np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0]),
                  np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([0.0, 0.0, 0.0, 1.0]))
        checked = 0
        for sigma in pure:
            for noise in noises:
                off = float(np.abs(husimi_data(sigma + 1e-9 * noise).a_mat[:2, 2:]).max())
                noisy = sigma + 0.95e-12 * (1e-9 / off) * noise
                assert husimi_route_accepts(sigma) and husimi_route_accepts(noisy)
                for accepted in (sigma, noisy):
                    values = qudit_subspace_deficit(accepted, dims)
                    assert all(0.0 <= p < 1.0 for p in values)
                    checked += 1
        assert checked == 2 * len(pure) * len(noises)

    def test_shape_refused_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("the state was read past its shape")

        monkeypatch.setattr(fock, "validate_cm", no_work)
        monkeypatch.setattr(fock, "_hafnian_grid", no_work)
        for sigma, dims in ((np.eye(6), 2), (np.eye(3), 2), (np.eye(2), []), (np.ones(16), 2)):
            with pytest.raises(ValueError, match="two-mode states"):
                qudit_subspace_deficit(sigma, dims)

    def test_empty_dims_validate_the_state_without_a_fill(self, two_ion_cm, monkeypatch):
        def no_fill(a, top):
            raise AssertionError("an amplitude grid was filled")

        monkeypatch.setattr(fock, "_hafnian_grid", no_fill)
        assert qudit_subspace_deficit(two_ion_cm, []) == []
        with pytest.raises(ValueError, match="pure states"):
            qudit_subspace_deficit(1.5 * np.eye(4), [])
        with pytest.raises(NumericalError, match="unphysical"):
            qudit_subspace_deficit(-np.eye(4), [])

    def test_real_states_fill_float_grids_without_husimi(self, monkeypatch):
        # the table-7 states, the vacuum and a two-mode squeezed vacuum have
        # no phi-pi correlation, so B and the grid stay real
        def no_husimi(sigma):
            raise AssertionError("husimi_data was called")

        grids = []

        def kept(a, top, fill=_hafnian_grid):
            grids.append(fill(a, top))
            return grids[-1]

        monkeypatch.setattr(fock, "husimi_data", no_husimi)
        monkeypatch.setattr(fock, "_hafnian_grid", kept)
        raw, squeezed = experiments.two_ion_states()
        for sigma in (raw, squeezed, np.eye(4), tmsv_cm(0.35)):
            qudit_subspace_deficit(sigma, list(range(1, MAX_QUDIT_DIM + 1)))
        assert [grid.dtype for grid in grids] == [np.float64] * 4
        assert [grid.shape for grid in grids] == [(TAIL_OCCUPANCY_CAP + 1,) * 2] * 4
        assert np.array_equal(experiments.fock_rows(range(1, 9)),
                              [(d,) + tuple(qudit_subspace_deficit(s, d) for s in (raw, squeezed))
                               for d in range(1, 9)])

    def test_ket_block_matches_husimi_data(self, monkeypatch):
        states, _ = rotated_states(monkeypatch)
        for sigma in list(experiments.two_ion_states()) + states:
            h = husimi_data(sigma)
            b, psi0 = _ket_block(sigma)
            assert np.abs(b - h.a_mat[:2, :2]).max() <= 2e-15
            assert abs(psi0 - h.sqrt_det_sigma_q ** -0.5) <= 1e-15 * psi0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), base=st.sampled_from(["two_ion", "tmsv"]),
           dim=st.integers(1, MAX_QUDIT_DIM))
    def test_matches_hafnian_oracle(self, two_ion_cm, seed, base, dim):
        rng = np.random.default_rng(seed)
        sigma = two_ion_cm if base == "two_ion" else tmsv_cm(rng.uniform(0.0, 0.5))
        sigma = apply_symplectic(sigma, random_local_symplectic(rng, 2))
        prob = np.abs(pure_amplitudes(sigma)) ** 2
        assert abs(math.fsum(prob.ravel()) - 1.0) <= 1e-13
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

    @pytest.mark.parametrize("state", [
        pytest.param((2.49, 1.18), id="2.49-1.18"),
        pytest.param((2.5, 0.5 * math.pi), id="2.5-1.5707963267948966"),
        pytest.param((2.4, 0.6), id="2.4-0.6"),
        pytest.param((2.0, 0.7, [0]), id="2.0-0.7-first-mode"),
        "raw", "squeezed"])
    def test_every_shell_against_wider_grid(self, two_ion_cm, state):
        # a fill that stopped after two shells below 1e-13 of the total
        # missed the first state by 2.8e-13 against the same sum to shell
        # 300; a state acted on in its first mode alone has no mode-swap
        # symmetry
        if state in ("raw", "squeezed"):
            sigma = experiments.two_ion_states()[state == "squeezed"]
        else:
            z, theta, *targets = state
            s = single_mode_squeeze(2, z, *targets) @ single_mode_rotation(2, theta, *targets)
            sigma = apply_symplectic(two_ion_cm, s)
        dims = range(1, MAX_QUDIT_DIM + 1)
        got = [qudit_subspace_deficit(sigma, dim) for dim in dims]
        prob = husimi_grid(sigma, 301)
        occupancy = np.arange(301)
        shell = np.maximum.outer(occupancy, occupancy)
        for dim, value in zip(dims, got):
            want = math.fsum(prob[shell >= dim])
            assert abs(value - want) <= 1e-13 * want
        # entry by entry over the whole grid, so that a row/column mix-up
        # cannot hide in a shell sum; absolute, since some entries vanish in
        # exact arithmetic
        amplitudes = pure_amplitudes(sigma)
        size = TAIL_OCCUPANCY_CAP + 1
        assert amplitudes.shape == (size, size)
        assert np.abs(np.abs(amplitudes) ** 2 - prob[:size, :size]).max() <= 1e-15

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
    # every table-7 cell; squeezed at 7 and 8 are the ~1e-13 and ~1e-14
    # cells table 7 checks at their printed 3 figures, and raw at 8 read
    # 1.2e-14 low from a grid that stopped at shell 24
    @pytest.mark.parametrize("state,dim", list(itertools.product(("raw", "squeezed"),
                                                                 range(1, MAX_QUDIT_DIM + 1))))
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
