"""Ion chain: equilibrium solver, its derivative kernel and compensated
gradient, mode structure, local-mode covariance matrix, and physical trap
scales."""

import dataclasses
import functools
import math
import re
import sys
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.constants
from scipy.constants import elementary_charge, pi

from conftest import (
    build_hessian,
    damped_solve_equilibrium,
    fidelity_pair,
    fsum_gradient_compensated,
    full_chain_blocks,
    full_chain_modes,
    full_hessian_split,
    full_solve_equilibrium,
    hessian_rows,
    loop_gradient_compensated,
    parity_mode_vectors,
    plain_gradient,
)
from ionmodes import experiments, ion_chain
from ionmodes.gaussian import from_blocks, restrict, symplectic_spectrum
from ionmodes.ion_chain import (
    GRADIENT_TOL,
    MAX_IONS,
    PURITY_TOL,
    IonChainModel,
    _gradient_compensated,
    compute_scales,
    local_mode_blocks,
    solve_equilibrium,
    ytterbium_mass,
)
from ionmodes.numerics import NumericalError


class TestEquilibrium:
    def test_single_ion(self):
        assert np.array_equal(solve_equilibrium(1), [0.0])

    def test_two_ions_closed_form(self):
        a = 0.25 ** (1.0 / 3.0)
        assert np.allclose(solve_equilibrium(2), [-a, a], atol=1e-12)

    def test_three_ions_closed_form(self):
        a = 1.25 ** (1.0 / 3.0)
        assert np.allclose(solve_equilibrium(3), [-a, 0.0, a], atol=1e-12)

    def test_four_ions_against_mpmath_force_balance(self):
        # the chain is (-b, -a, a, b), so the trap force on the ions at a
        # and b balancing their Coulomb forces fixes it: two equations,
        # solved independently of the implementation to 30 digits
        with mpmath.workdps(30):
            a, b = mpmath.findroot(
                [lambda a, b: 1 / (2 * a) ** 2 + 1 / (a + b) ** 2 - 1 / (b - a) ** 2 - a,
                 lambda a, b: 1 / (2 * b) ** 2 + 1 / (a + b) ** 2 + 1 / (b - a) ** 2 - b],
                (0.5, 1.5))
        want = [float(-b), float(-a), float(a), float(b)]
        assert np.abs(solve_equilibrium(4) - want).max() <= 1e-14

    def test_gradient_tolerance_met_where_representable(self):
        # over every ion, not only the upper half the solver iterates
        for n in range(2, 35):
            z = solve_equilibrium(n)
            assert np.abs(_gradient_compensated(z, np.arange(n))).max() <= GRADIENT_TOL, n

    def test_large_chain_at_float_floor(self):
        # beyond ~100 ions the gradient floor is stiffness times one ulp
        # of the edge position, slightly above the nominal tolerance
        z = solve_equilibrium(150)
        assert np.abs(_gradient_compensated(z, np.arange(150))).max() < 1e-11

    def test_ordering_and_odd_symmetry(self):
        for n in (2, 5, 10, 37):
            z = solve_equilibrium(n)
            assert np.all(np.diff(z) > 0.0)
            assert np.array_equal(z, -z[::-1])

    def test_spacing_grows_towards_edges(self):
        for n in (5, 8, 15, 40):
            gaps = np.diff(solve_equilibrium(n))
            mid = len(gaps) // 2
            assert np.all(np.diff(gaps[:mid + 1]) <= 0.0)
            assert np.all(np.diff(gaps[mid:]) >= 0.0)

    @pytest.mark.parametrize("n", [2, 3, 10, 50, 100, 150, 200, 300])
    def test_positions_bit_equal_to_loop_gradient(self, n, monkeypatch):
        # the terms come from one array; with exact fsum per ion over the
        # same rows the converged positions must not move by a single bit
        want = solve_equilibrium(n)
        monkeypatch.setattr(ion_chain, "_gradient_compensated", loop_gradient_compensated)
        assert np.array_equal(solve_equilibrium(n), want)

    def test_positions_bit_equal_to_damped_newton(self):
        # no admissible chain takes a damped step from the uniform start, so
        # on the full-matrix route dropping the line search moves not a
        # single bit; the mirror-half route rounds differently, by at most
        # one ulp of the edge position (measured exactly 1.00 ulp)
        for n in (*range(1, 41), *range(50, MAX_IONS + 1, 10), 299):
            full = full_solve_equilibrium(n)
            assert np.array_equal(damped_solve_equilibrium(n), full), n
            ulp = np.spacing(np.abs(full).max())
            assert np.abs(solve_equilibrium(n) - full).max() <= ulp, n

    def test_non_ascending_positions_raise(self, monkeypatch):
        # a first step that negates the upper half, so the mirrored chain
        # descends, then gradients that accept that iterate at once; the
        # kernel's Hessian rows pass through
        derivatives = ion_chain._derivatives

        def mirroring(z, rows):
            _, hess = derivatives(z, rows)
            if z[0] > z[-1]:
                return np.zeros(len(rows)), hess
            return 2.0 * (hess[:, rows] - hess[:, len(z) - 1 - rows]) @ (2.0 * z[rows]), hess

        monkeypatch.setattr(ion_chain, "_derivatives", mirroring)
        monkeypatch.setattr(ion_chain, "_gradient_compensated", lambda z, rows: np.zeros(len(rows)))
        with pytest.raises(NumericalError, match="not strictly ascending"):
            solve_equilibrium(5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            solve_equilibrium(0)
        with pytest.raises(ValueError):
            solve_equilibrium(MAX_IONS + 1)


@functools.lru_cache(maxsize=None)
def _equilibria():
    """Equilibrium positions of every chain of 2..MAX_IONS ions."""
    return tuple(solve_equilibrium(n) for n in range(2, MAX_IONS + 1))


class TestDerivatives:
    def test_bit_equal_to_separate_gradient_and_hessian(self):
        # one difference array gives both, each term rounded as the two
        # separate oracles round it: at every equilibrium, at the uniform
        # start and off the equilibrium by an odd-symmetric shift
        rng = np.random.default_rng(31)
        for z in _equilibria():
            n = len(z)
            half = 0.5 * n ** (2.0 / 3.0)
            shift = rng.uniform(-0.2, 0.2, n) * np.diff(z).min()
            rows = np.arange(n)
            for point in (z, np.linspace(-half, half, n), z + 0.5 * (shift - shift[::-1])):
                grad, hess = ion_chain._derivatives(point, rows)
                assert grad.tobytes() == plain_gradient(point, rows).tobytes(), n
                assert hess.tobytes() == hessian_rows(point, rows).tobytes(), n


def _cascade_bound(row):
    """u |S| + gamma(2 L)^2 sum |p_i|, exactly, for the row's exact sum S,
    u = 2^-53 and L = ceil(log2 n): the bound stated beside GRADIENT_TOL."""
    u = Fraction(2) ** -53
    k = 2 * (len(row) - 1).bit_length()
    gamma = k * u / (1 - k * u)
    exact = sum(map(Fraction, row))
    return exact, u * abs(exact) + gamma**2 * sum(abs(Fraction(p)) for p in row)


class TestCompensatedSum:
    def test_exactly_rounded_at_every_equilibrium(self):
        # over every ion, not only the upper half the solver sums
        for z in _equilibria():
            rows = np.arange(len(z))
            want = fsum_gradient_compensated(z, rows)
            assert ion_chain._gradient_compensated(z, rows).tobytes() == want.tobytes(), len(z)

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 64, 300, 1001])
    def test_within_bound_under_cancellation(self, width):
        # a third of each row is pairs +-p with |p| from 2^-60 to 2^60, which
        # cancel exactly, the rest terms of 2^-40 to 2^-20 that carry the
        # sum, shuffled: sum |p_i| / |S| up to 2.4e25
        rng = np.random.default_rng(width)
        pairs = width // 3
        rows = []
        for _ in range(16):
            big = rng.standard_normal(pairs) * 2.0 ** rng.integers(-60, 61, pairs)
            small = rng.standard_normal(width - 2 * pairs) * 2.0 ** rng.integers(-40, -19, width - 2 * pairs)
            rows.append(rng.permutation(np.concatenate((big, -big, small))))
        got = ion_chain._compensated_row_sums(np.array(rows))
        plain_misses = 0
        for row, value in zip(rows, got):
            exact, bound = _cascade_bound(row)
            assert abs(Fraction(value) - exact) <= bound, (width, value, float(exact))
            plain_misses += abs(Fraction(float(np.sum(row))) - exact) > bound
        if width >= 64:
            assert plain_misses  # rows a plain pairwise sum gets wrong


class TestModes:
    def test_two_ion_mode_frequencies(self):
        freqs = IonChainModel.build(2).frequencies
        assert np.allclose(freqs**2, [1.0, 3.0], atol=1e-12)

    def test_three_ion_mode_frequencies(self):
        freqs = IonChainModel.build(3).frequencies
        assert np.allclose(freqs**2, [1.0, 3.0, 29.0 / 5.0], atol=1e-12)

    def test_matches_full_matrix_route(self):
        # against one eigh of the full Hessian at the full-route positions;
        # measured 1.9e-13 (frequencies), 6.3e-15 (Phi) and 5.5e-13 (Pi) at
        # 300 ions
        n = MAX_IONS
        freqs, phi, pi_block = full_chain_blocks(n)
        model = experiments.chain_model(n)
        assert np.abs(model.frequencies - freqs).max() <= 1e-12
        assert np.abs(model.phi_block - phi).max() <= 2e-14
        assert np.abs(model.pi_block - pi_block).max() <= 2e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 30, 31, 150, 151, 299, 300])
    def test_bytes_equal_full_hessian_split(self, n, monkeypatch):
        # the parity blocks come from the upper and centre Hessian rows; the
        # split of the full matrix gives the same frequencies, Phi and Pi
        # down to the last bit
        model = IonChainModel.build(n)
        assert model.positions.tobytes() == solve_equilibrium(n).tobytes()
        monkeypatch.setattr(ion_chain, "_mirror_modes", full_hessian_split)
        want = ion_chain._ground_state(model.positions)
        got = (model.frequencies, model.phi_block, model.pi_block)
        for name, a, b in zip(("frequencies", "phi", "pi"), got, want):
            assert a.tobytes() == b.tobytes(), name

    def test_rejects_positions_without_odd_symmetry(self):
        # exact odd symmetry is what makes the split of the upper rows exact
        z = solve_equilibrium(5)
        for k in (0, 2):
            bad = z.copy()
            bad[k] = np.nextafter(bad[k], np.inf)
            with pytest.raises(ValueError, match="odd-symmetric"):
                ion_chain._mirror_modes(bad)
        for bad in (np.zeros(0), np.zeros((2, 2)), z[:4]):
            with pytest.raises(ValueError, match="odd-symmetric"):
                ion_chain._mirror_modes(bad)


class TestLocalModeCM:
    def test_two_ion_closed_form(self, two_ion_cm):
        r3 = np.sqrt(3.0)
        phi = np.array([[3.0 + r3, 3.0 - r3], [3.0 - r3, 3.0 + r3]]) / 6.0
        pi_block = np.array([[1.0 + r3, 1.0 - r3], [1.0 - r3, 1.0 + r3]]) / 2.0
        want = np.zeros((4, 4))
        want[0::2, 0::2] = phi
        want[1::2, 1::2] = pi_block
        assert np.allclose(two_ion_cm, want, atol=1e-12)

    def test_three_ion_center_momentum_variance(self, three_ion_model):
        want = (2.0 * np.sqrt(145.0) + 5.0) / 15.0
        assert abs(three_ion_model.cm[3, 3] - want) < 1e-12

    def test_global_state_is_pure(self):
        model = IonChainModel.build(10)
        nu = symplectic_spectrum(model.cm)
        assert np.allclose(nu, 1.0, atol=1e-9)
        sign, logdet = np.linalg.slogdet(model.cm)
        assert sign > 0 and abs(logdet) < 1e-9

    def test_cm_blocks_from_modes(self):
        freqs, modes = full_chain_modes(build_hessian(solve_equilibrium(5)))
        phi, pi_block = local_mode_blocks(freqs, modes)
        # phi-phi block carries inverse frequency weights, pi-pi direct
        want_phi = modes.T @ np.diag(1.0 / freqs) @ modes
        want_pi = modes.T @ np.diag(freqs) @ modes
        assert np.allclose(phi, want_phi, atol=1e-13)
        assert np.allclose(pi_block, want_pi, atol=1e-13)


    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 30, 31, 151])
    def test_blocks_by_parity_match_mode_sum(self, n):
        # the build assembles Phi and Pi from the even and odd blocks (the
        # centre ion's row and column too, for odd n); the plain sum over
        # the assembled modes gives the same matrices to round-off
        model = IonChainModel.build(n)
        assert np.all(np.diff(model.frequencies) > 0.0)
        phi, pi_block = local_mode_blocks(*parity_mode_vectors(model.positions))
        assert np.abs(model.phi_block - phi).max() <= 1e-15
        assert np.abs(model.pi_block - pi_block).max() <= 1e-14 * model.frequencies[-1]
        for block in (model.phi_block, model.pi_block):
            assert np.array_equal(block, block[::-1, ::-1])


class TestSharedModel:
    def test_cm_assembles_the_stored_blocks(self):
        for n in (3, 300):
            model = experiments.chain_model(n)
            want = np.zeros((2 * n, 2 * n))
            want[0::2, 0::2] = model.phi_block
            want[1::2, 1::2] = model.pi_block
            assert model.cm.tobytes() == want.tobytes()
            for block in (model.phi_block, model.pi_block):
                assert block.shape == (n, n) and block.flags.c_contiguous
            # the model keeps the frequencies and the two n x n blocks, no
            # mode vectors and no 2n x 2n array
            assert [f.name for f in dataclasses.fields(model)] == [
                "n_ions", "positions", "frequencies", "phi_block", "pi_block"]
            assert not any(np.shape(value) == (2 * n, 2 * n) for value in vars(model).values())

    def test_arrays_are_read_only(self, three_ion_model):
        model = experiments.chain_model(3)
        assert model is three_ion_model  # the cached model every caller shares
        for array in (model.positions, model.frequencies, model.cm,
                      model.phi_block, model.pi_block):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert model.cm[0, 0] != 0.0

    def test_concurrent_builds_agree_then_one_model_is_shared(self, monkeypatch):
        # a cache of its own, so every thread misses it; more threads than
        # cores, switching often
        monkeypatch.setattr(experiments, "_chain_model",
                            functools.lru_cache(maxsize=None)(experiments._chain_model.__wrapped__))
        n, count = 40, 6
        start = threading.Barrier(count)
        models = []

        def build():
            start.wait(timeout=60)
            models.append(experiments.chain_model(n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        want = IonChainModel.build(n)
        assert len(models) == count
        for model in models:
            for name in ("positions", "frequencies", "cm"):
                assert np.array_equal(getattr(model, name), getattr(want, name)), name
        assert experiments.chain_model(n) is experiments.chain_model(n)

    def test_integer_valued_counts_share_one_build(self, monkeypatch):
        model = experiments.chain_model(3)
        assert experiments.chain_model(3.0) is model
        assert experiments.chain_model(np.int64(3)) is model
        # a cache of its own: one build for all three spellings
        monkeypatch.setattr(experiments, "_chain_model",
                            functools.lru_cache(maxsize=None)(experiments._chain_model.__wrapped__))
        for n in (3, 3.0, np.int64(3)):
            experiments.chain_model(n)
        assert experiments._chain_model.cache_info().misses == 1
        with pytest.raises(ValueError, match="n_ions must be integer-valued"):
            experiments.chain_model(2.5)

    @pytest.mark.parametrize("window", [1, 10, 50, 150])
    def test_fidelity_window_sliced_from_blocks(self, window):
        model = experiments.chain_model(150)
        left = (150 - window) // 2
        want = restrict(model.cm, range(left, left + window))
        got, _ = fidelity_pair(150, window)
        assert [block.shape for block in got] == [(window, window)] * 2
        assert from_blocks(*got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("window", [0, 151])
    def test_fidelity_window_must_fit(self, window):
        with pytest.raises(ValueError, match="window must fit"):
            experiments.fidelity_cell(150, window)

    @pytest.mark.parametrize("n", [2, 150, 300])
    def test_ground_state_passes_purity_check(self, n):
        model = experiments.chain_model(n)
        residual = np.abs(model.phi_block @ model.pi_block - np.eye(n)).max()
        assert residual <= PURITY_TOL / 10  # measured 3.6e-15 at 300 ions

    @pytest.mark.parametrize("n", [10, 20, 30, 31, 50])
    def test_small_chains_pure_to_round_off(self, n):
        # one Newton-Schulz step on each parity block's eigenvectors keeps
        # max |Phi Pi - 1| at 5.6e-16 to 1.1e-15 here; without it the
        # residual read 1.4e-15 to 3.4e-15, and 2.0e-15 to 4.7e-15 on the
        # full-matrix route
        model = experiments.chain_model(n)
        assert np.abs(model.phi_block @ model.pi_block - np.eye(n)).max() <= 1.5e-15

    def test_perturbed_momentum_block_fails_purity_check(self, monkeypatch):
        def perturbed(frequencies, modes):
            phi, pi_block = local_mode_blocks(frequencies, modes)
            return phi, pi_block * (1.0 + 1e-10)

        monkeypatch.setattr(ion_chain, "local_mode_blocks", perturbed)
        with pytest.raises(NumericalError, match="not pure"):
            IonChainModel.build(10)


class TestPhysicalScales:
    def test_ytterbium_at_one_megahertz(self):
        scales = compute_scales(mass=ytterbium_mass(171),
                                axial_frequency=2.0 * pi * 1.0e6)
        assert abs(scales.spacing_scale - 2.74e-6) < 0.01e-6
        assert abs(scales.ground_state_scale - 7.69e-9) < 0.01e-9
        assert abs(scales.scale_ratio - 2.8e-3) < 0.05e-3

    def test_curvature_and_frequency_routes_agree(self):
        mass = ytterbium_mass(171)
        by_freq = compute_scales(mass=mass, axial_frequency=2.0 * pi * 1.0e6)
        by_curv = compute_scales(mass=mass, curvature=by_freq.curvature)
        assert np.isclose(by_curv.axial_frequency, by_freq.axial_frequency, rtol=1e-12)
        assert np.isclose(by_curv.spacing_scale, by_freq.spacing_scale, rtol=1e-12)

    def test_charge_scaling_at_fixed_curvature(self):
        mass = ytterbium_mass(171)
        base = compute_scales(mass=mass, curvature=1.0e8)
        quad = compute_scales(charge=4.0 * elementary_charge, mass=mass, curvature=1.0e8)
        assert np.isclose(quad.spacing_scale / base.spacing_scale,
                          4.0 ** (1.0 / 3.0), rtol=1e-12)

    @pytest.mark.parametrize("name", ["atomic_mass", "elementary_charge", "epsilon_0", "hbar"])
    def test_constants_match_scipy(self, name):
        # literals copied from scipy.constants (CODATA 2022); a later CODATA
        # release that moves one shows up here
        assert getattr(ion_chain, name) == pytest.approx(getattr(scipy.constants, name), rel=1e-12)

    def test_requires_exactly_one_confinement_parameter(self):
        mass = ytterbium_mass(171)
        with pytest.raises(ValueError):
            compute_scales(mass=mass)
        with pytest.raises(ValueError):
            compute_scales(mass=mass, curvature=1.0e8, axial_frequency=1.0e6)
        with pytest.raises(ValueError):
            compute_scales(mass=-1.0, curvature=1.0e8)

    @pytest.mark.parametrize("kwargs,given", [
        ({"mass": 1e-25, "axial_frequency": 1e200}, "mass = 1e-25 and axial_frequency = 1e+200"),
        ({"mass": 1e-300, "axial_frequency": 1e-200}, "mass = 1e-300 and axial_frequency = 1e-200"),
        ({"mass": 1e300, "curvature": 1e-300}, "mass = 1e+300 and curvature = 1e-300"),
        ({"mass": 1e-300, "curvature": 1e300}, "mass = 1e-300 and curvature = 1e+300"),
    ])
    def test_scales_outside_float_range_rejected(self, kwargs, given):
        # each argument is finite, but their combination overflows or
        # underflows a scale; omega_z**2 used to raise a bare OverflowError
        with pytest.raises(ValueError,
                           match=r"^charge = .*, %s give trap scales outside the float range"
                           % re.escape(given)):
            compute_scales(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, "1"])
    @pytest.mark.parametrize("name", ["charge", "mass", "curvature", "axial_frequency"])
    def test_non_finite_or_non_numeric_argument_rejected(self, name, bad):
        # a NaN mass or curvature, or an infinite one, used to give NaN scales
        good = {"charge": elementary_charge, "mass": ytterbium_mass(171), "curvature": 1.0e8}
        if name == "axial_frequency":
            del good["curvature"]
        with pytest.raises(ValueError, match="^%s must be positive and finite" % name):
            compute_scales(**dict(good, **{name: bad}))
