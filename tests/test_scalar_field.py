"""Lattice scalar vacuum: dispersion integrals, Toeplitz correlation
blocks, and exact infinite-exterior homodyne conditioning."""

import math

import numpy as np
import pytest

from ionmodes import experiments, gaussian, scalar_field
from ionmodes.scalar_field import ScalarFieldSpec, measured_vacuum_cm, scalar_vacuum_cm


class TestCorrelationEntries:
    def test_momentum_entries_closed_form(self, field_spec):
        # (1 / 2 pi) Int 2|sin(k/2)| cos(k d) dk = 4 / (pi (1 - 4 d^2)), out
        # to the far separations of a 300-site scan
        for delta in (*range(0, 7), 50, 150, 298):
            want = 4.0 / (math.pi * (1.0 - 4.0 * delta * delta))
            assert abs(field_spec.pi_entry(delta) - want) < 1e-12, delta

    def test_field_entry_differences_closed_form(self, field_spec):
        # phi(d) - phi(0) = -(2 / pi) sum_{j=1..d} 1 / (2 j - 1); the
        # absolute entries diverge logarithmically as the mass goes to zero
        # but differences have a massless limit
        base = field_spec.phi_entry(0)
        for delta in range(1, 7):
            want = -(2.0 / math.pi) * sum(1.0 / (2 * j - 1) for j in range(1, delta + 1))
            assert abs(field_spec.phi_entry(delta) - base - want) < 1e-9

    def test_momentum_quadratic_decay(self, field_spec):
        for delta in (5, 12, 25, 40):
            ratio = field_spec.pi_entry(delta) * (-math.pi * delta * delta)
            assert 0.95 < ratio < 1.05

    def test_entries_cached(self, field_spec):
        first = field_spec.pi_entry(3)
        assert field_spec.pi_entry(3) is first or field_spec.pi_entry(3) == first

    def test_negative_delta_symmetric(self, field_spec):
        assert field_spec.pi_entry(-4) == field_spec.pi_entry(4)
        assert field_spec.phi_entry(-2) == field_spec.phi_entry(2)


class TestVacuumCM:
    def test_toeplitz_structure(self, field_spec):
        block = field_spec.pi_block(range(5))
        for i in range(5):
            for j in range(5):
                assert block[i, j] == field_spec.pi_entry(abs(i - j))

    def test_gapped_block_looks_up_each_distinct_gap_once(self, monkeypatch):
        spec = ScalarFieldSpec()
        sites = [0, 1, 40, 41]
        lookups = []
        real = spec.phi_entry
        monkeypatch.setattr(spec, "phi_entry", lambda d: lookups.append(d) or real(d))
        block = spec.phi_block(sites)
        assert sorted(lookups) == [0, 1, 39, 40, 41]
        assert sorted(spec._phi_cache) == [0, 1, 39, 40, 41]  # no gap 2..38 integrated
        assert np.array_equal(block, [[real(a - b) for b in sites] for a in sites])

    def test_window_count_equals_site_list(self, field_spec):
        assert np.array_equal(scalar_vacuum_cm(4, field_spec),
                              scalar_vacuum_cm([0, 1, 2, 3], field_spec))

    def test_gapped_sites_equal_restricted_contiguous(self, field_spec):
        full = scalar_vacuum_cm(6, field_spec)
        gapped = scalar_vacuum_cm([0, 1, 4, 5], field_spec)
        assert np.allclose(gapped, gaussian.restrict(full, [0, 1, 4, 5]), atol=1e-14)

    @pytest.mark.parametrize("window", [0, -2, []])
    def test_empty_window_rejected(self, field_spec, window):
        with pytest.raises(ValueError, match="at least one site"):
            scalar_vacuum_cm(window, field_spec)

    def test_physical(self, field_spec):
        gaussian.assert_physical(scalar_vacuum_cm(8, field_spec))

    def test_no_cross_correlations(self, field_spec):
        sigma = scalar_vacuum_cm(5, field_spec)
        assert np.allclose(sigma[0::2, 1::2], 0.0, atol=1e-15)


class TestMassArgument:
    def test_zero_mass_rejected_by_cells(self):
        with pytest.raises(ValueError, match="mass must be positive"):
            experiments.negativity_cell("scalar", 150, 1, 2, "trace", mass=0.0)
        with pytest.raises(ValueError, match="mass must be positive"):
            experiments.fidelity_cell(30, 4, mass=0.0)

    def test_no_mass_means_default(self):
        assert (experiments.negativity_cell("scalar", 150, 1, 2, "phi")
                == experiments.negativity_cell("scalar", 150, 1, 2, "phi",
                                               mass=scalar_field.DEFAULT_MASS))


class TestMeasuredVacuum:
    def test_measured_states_are_pure(self, field_spec):
        for quad in ("phi", "pi"):
            for sites in ([0, 1], [0, 3], [0, 1, 2, 7, 8, 9]):
                sigma = measured_vacuum_cm(sites, quad, field_spec)
                nu = gaussian.symplectic_spectrum(sigma)
                assert np.allclose(nu, 1.0, atol=1e-9), (quad, sites)

    def test_field_measurement_keeps_momentum_block(self, field_spec):
        sites = [0, 1, 5]
        sigma = measured_vacuum_cm(sites, "phi", field_spec)
        assert np.allclose(sigma[1::2, 1::2], field_spec.pi_block(sites), atol=1e-14)

    def test_momentum_measurement_keeps_field_block(self, field_spec):
        sites = [0, 2]
        sigma = measured_vacuum_cm(sites, "pi", field_spec)
        assert np.allclose(sigma[0::2, 0::2], field_spec.phi_block(sites), atol=1e-14)

    def test_single_site_field_measured_negativity(self, field_spec):
        # adjacent sites after measuring the field everywhere else carry
        # exactly half an ebit of logarithmic negativity
        sigma = measured_vacuum_cm([0, 1], "phi", field_spec)
        assert abs(gaussian.log_negativity(sigma, [0], [1]) - 0.5) < 1e-9

    def test_rejects_unknown_quadrature(self, field_spec):
        with pytest.raises(ValueError):
            measured_vacuum_cm([0, 1], "x", field_spec)


class TestFiniteWindowCrossCheck:
    """The exact conditioning (Toeplitz symbol inversion over the infinite
    exterior) must be the limit of measuring all sites of a growing finite
    window around the regions."""

    def _window_error(self, spec, quad, length):
        center = length // 2
        sites = [center, center + 1]
        outside = [i for i in range(length) if i not in sites]
        window = scalar_vacuum_cm(length, spec)
        conditioned = gaussian.condition_homodyne(window, outside, quad)
        exact = measured_vacuum_cm([0, 1], quad, spec)
        return float(np.abs(conditioned - exact).max())

    def test_both_quadratures_converge_at_moderate_mass(self):
        spec = ScalarFieldSpec(mass=0.05)
        for quad, final_tol in (("phi", 1e-8), ("pi", 1e-5)):
            errors = [self._window_error(spec, quad, length) for length in (41, 81, 161)]
            assert errors[0] > errors[1] > errors[2], (quad, errors)
            assert errors[2] < final_tol, (quad, errors)

    def test_field_quadrature_converges_at_default_mass(self, field_spec):
        errors = [self._window_error(field_spec, "phi", length) for length in (41, 161)]
        assert errors[1] < errors[0]
        assert errors[1] < 1e-4

    def test_momentum_buffering_stalls_at_default_mass(self, field_spec):
        # the infrared scale 1/mass dwarfs any usable window, so finite
        # buffers cannot approximate the momentum measurement; this is why
        # the implementation conditions on the infinite exterior exactly
        assert self._window_error(field_spec, "pi", 161) > 1e-2
