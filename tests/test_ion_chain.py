"""Ion chain: equilibrium solver, mode structure, local-mode covariance
matrix, and physical trap scales."""

import functools
import sys
import threading

import mpmath
import numpy as np
import pytest
import scipy.constants
from scipy.constants import elementary_charge, pi

from conftest import damped_solve_equilibrium, loop_gradient_compensated
from ionmodes import experiments, ion_chain
from ionmodes.gaussian import from_blocks, restrict, symplectic_spectrum
from ionmodes.ion_chain import (
    GRADIENT_TOL,
    MAX_IONS,
    PURITY_TOL,
    IonChainModel,
    _gradient_compensated,
    build_hessian,
    compute_scales,
    local_mode_blocks,
    normal_modes,
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
        for n in (2, 3, 5, 8, 13, 21, 34):
            z = solve_equilibrium(n)
            assert np.abs(_gradient_compensated(z)).max() <= GRADIENT_TOL

    def test_large_chain_at_float_floor(self):
        # beyond ~100 ions the gradient floor is stiffness times one ulp
        # of the edge position, slightly above the nominal tolerance
        z = solve_equilibrium(150)
        assert np.abs(_gradient_compensated(z)).max() < 1e-11

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
        # the terms now come from one array; with exact fsum per ion the
        # converged positions must not move by a single bit
        want = solve_equilibrium(n)
        monkeypatch.setattr(ion_chain, "_gradient_compensated", loop_gradient_compensated)
        assert np.array_equal(solve_equilibrium(n), want)

    def test_positions_bit_equal_to_damped_newton(self):
        # no admissible chain takes a damped step from the uniform start, so
        # dropping the line search must not move a single bit
        for n in (*range(1, 41), *range(50, MAX_IONS + 1, 10), 299):
            assert np.array_equal(solve_equilibrium(n), damped_solve_equilibrium(n)), n

    def test_non_ascending_positions_raise(self, monkeypatch):
        # a first step that mirrors the chain, then gradients that accept
        # the mirrored (descending) iterate at once
        def mirroring(z):
            if z[0] > z[-1]:
                return np.zeros_like(z)
            return 2.0 * build_hessian(z) @ (2.0 * z)

        monkeypatch.setattr(ion_chain, "_gradient", mirroring)
        monkeypatch.setattr(ion_chain, "_gradient_compensated", np.zeros_like)
        with pytest.raises(NumericalError, match="not strictly ascending"):
            solve_equilibrium(5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            solve_equilibrium(0)
        with pytest.raises(ValueError):
            solve_equilibrium(MAX_IONS + 1)


class TestModes:
    def test_two_ion_mode_frequencies(self):
        hess = build_hessian(solve_equilibrium(2))
        freqs, _ = normal_modes(hess)
        assert np.allclose(freqs**2, [1.0, 3.0], atol=1e-12)

    def test_three_ion_mode_frequencies(self):
        hess = build_hessian(solve_equilibrium(3))
        freqs, _ = normal_modes(hess)
        assert np.allclose(freqs**2, [1.0, 3.0, 29.0 / 5.0], atol=1e-12)

    def test_mode_rows_orthonormal(self):
        freqs, modes = normal_modes(build_hessian(solve_equilibrium(7)))
        assert np.allclose(modes @ modes.T, np.eye(7), atol=1e-12)
        assert np.all(np.diff(freqs) > 0.0)

    def test_com_mode_is_uniform(self):
        _, modes = normal_modes(build_hessian(solve_equilibrium(6)))
        assert np.allclose(np.abs(modes[0]), 1.0 / np.sqrt(6.0), atol=1e-12)


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
        freqs, modes = normal_modes(build_hessian(solve_equilibrium(5)))
        phi, pi_block = local_mode_blocks(freqs, modes)
        # phi-phi block carries inverse frequency weights, pi-pi direct
        want_phi = modes.T @ np.diag(1.0 / freqs) @ modes
        want_pi = modes.T @ np.diag(freqs) @ modes
        assert np.allclose(phi, want_phi, atol=1e-13)
        assert np.allclose(pi_block, want_pi, atol=1e-13)


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
            # the model keeps the two n x n blocks and no 2n x 2n array
            assert not any(np.shape(value) == (2 * n, 2 * n) for value in vars(model).values())

    def test_arrays_are_read_only(self, three_ion_model):
        model = experiments.chain_model(3)
        assert model is three_ion_model  # the cached model every caller shares
        for array in (model.positions, model.frequencies, model.modes, model.cm,
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
            for name in ("positions", "frequencies", "modes", "cm"):
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
        got = experiments._window_blocks(model, window)
        assert [block.shape for block in got] == [(window, window)] * 2
        assert from_blocks(*got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("window", [0, 151])
    def test_fidelity_window_must_fit(self, window):
        with pytest.raises(ValueError, match="window must fit"):
            experiments._window_blocks(experiments.chain_model(150), window)

    @pytest.mark.parametrize("n", [2, 150, 300])
    def test_ground_state_passes_purity_check(self, n):
        model = experiments.chain_model(n)
        residual = np.abs(model.phi_block @ model.pi_block - np.eye(n)).max()
        assert residual <= PURITY_TOL / 10  # measured 6e-15 at 300 ions

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
