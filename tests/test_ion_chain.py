"""Ion chain: equilibrium solver, mode structure, local-mode covariance
matrix, and physical trap scales."""

import numpy as np
import pytest
import scipy.constants
from scipy.constants import elementary_charge, pi

from ionmodes import ion_chain

from ionmodes.gaussian import symplectic_spectrum
from ionmodes.ion_chain import (
    GRADIENT_TOL,
    MAX_IONS,
    IonChainModel,
    _gradient_compensated,
    build_hessian,
    compute_scales,
    local_mode_cm,
    normal_modes,
    solve_equilibrium,
    ytterbium_mass,
)


def chain_energy(z):
    """Dimensionless potential: quadratic trap plus pairwise Coulomb
    (mutual term counted once per ordered pair)."""
    diff = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(np.dot(z, z) + np.sum(1.0 / diff))


def descend(z, steps=40000, tol=1e-9):
    """Independent check: plain gradient descent with backtracking on the
    energy itself, no Newton structure shared with the implementation."""
    energy = chain_energy(z)
    rate = 0.05
    for _ in range(steps):
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        grad = 2.0 * z - 2.0 * np.sum(np.sign(diff) / diff**2, axis=1)
        if np.abs(grad).max() < tol:
            break
        rate = min(2.0 * rate, 0.05)
        while rate > 1e-12:
            trial = z - rate * grad
            if np.all(np.diff(np.sort(trial)) > 1e-6):
                trial_energy = chain_energy(trial)
                if trial_energy < energy:
                    break
            rate *= 0.5
        z = z - rate * grad
        energy = chain_energy(z)
    return np.sort(z)


class TestEquilibrium:
    def test_single_ion(self):
        assert np.array_equal(solve_equilibrium(1), [0.0])

    def test_two_ions_closed_form(self):
        a = 0.25 ** (1.0 / 3.0)
        assert np.allclose(solve_equilibrium(2), [-a, a], atol=1e-12)

    def test_three_ions_closed_form(self):
        a = 1.25 ** (1.0 / 3.0)
        assert np.allclose(solve_equilibrium(3), [-a, 0.0, a], atol=1e-12)

    def test_four_ions_against_gradient_descent(self):
        rng = np.random.default_rng(23)
        z = solve_equilibrium(4)
        for _ in range(3):
            start = np.sort(rng.uniform(-3.0, 3.0, size=4))
            start += np.arange(4) * 1e-3  # break accidental coincidences
            assert np.allclose(descend(start), z, atol=1e-6)

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
        cm = local_mode_cm(freqs, modes)
        # phi-phi block carries inverse frequency weights, pi-pi direct
        want_phi = modes.T @ np.diag(1.0 / freqs) @ modes
        want_pi = modes.T @ np.diag(freqs) @ modes
        assert np.allclose(cm[0::2, 0::2], want_phi, atol=1e-13)
        assert np.allclose(cm[1::2, 1::2], want_pi, atol=1e-13)
        assert np.allclose(cm[0::2, 1::2], 0.0, atol=1e-15)


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
