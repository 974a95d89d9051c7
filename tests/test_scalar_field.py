"""Lattice scalar vacuum: dispersion integrals, Toeplitz correlation
blocks, and exact infinite-exterior homodyne conditioning."""

import collections
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quad_entries
from ionmodes import gaussian, scalar_field
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


class TestHalfZoneFill:
    """Each gap's phi and pi entries come from one half-zone pass that shares
    omega_k and cos(k d); the two-quadrature route it replaced is the
    oracle, and the entries must equal it exactly."""

    def test_entries_to_gap_300_equal_two_quadratures(self):
        spec = ScalarFieldSpec()
        phi = spec.phi_block(range(301))[0]
        pi = spec.pi_block(range(301))[0]
        for d in range(301):
            assert (phi[d], pi[d]) == quad_entries(spec.mass, d), d

    @settings(max_examples=25, deadline=None)
    @given(log_mass=st.floats(-10.0, 0.0),
           steps=st.lists(st.tuples(
               st.sampled_from(["phi_entry", "pi_entry", "phi_block", "pi_block"]),
               st.lists(st.integers(0, 300), min_size=1, max_size=5)),
               min_size=1, max_size=4))
    def test_any_route_and_order_equals_two_quadratures(self, log_mass, steps):
        spec = ScalarFieldSpec(10.0**log_mass)
        oracle = {}

        def want(d, column):
            if d not in oracle:
                oracle[d] = quad_entries(spec.mass, d)
            return oracle[d][column]

        for route, sites in steps:
            column = 0 if route.startswith("phi") else 1
            if route.endswith("entry"):
                for d in sites:
                    assert getattr(spec, route)(d) == want(d, column)
            else:
                block = getattr(spec, route)(sites)
                assert np.array_equal(block, [[want(abs(a - b), column) for b in sites]
                                              for a in sites])
        for d, entry in spec._entries.items():
            assert entry == (want(d, 0), want(d, 1)), d

    def test_phi_then_pi_block_integrates_each_gap_once(self, monkeypatch):
        spec = ScalarFieldSpec()
        sites = [0, 2, 3, 9, 30, 31, 150]
        integrated = collections.Counter()
        real = scalar_field.half_zone_nodes
        monkeypatch.setattr(scalar_field, "half_zone_nodes",
                            lambda d, **kw: integrated.update([d]) or real(d, **kw))
        spec.phi_block(sites)
        spec.pi_block(sites)
        spec.phi_entry(-148)
        gaps = {abs(a - b) for a in sites for b in sites}
        assert integrated == collections.Counter(gaps)

    def test_concurrent_fills_equal_serial(self):
        # more threads than cores, switching often, over overlapping gap sets:
        # a torn or lost (phi, pi) store would leave an entry unequal to the
        # serial fill's, or a gap missing
        site_sets = ([0, 1, 5, 40, 120, 121], [1, 5, 41, 119, 200],
                     [0, 2, 40, 160], [3, 5, 120, 203])
        serial = ScalarFieldSpec()
        for sites in site_sets:
            serial.phi_block(sites)
        shared = ScalarFieldSpec()
        start = threading.Barrier(len(site_sets))
        blocks = {}

        def fill(sites):
            start.wait(timeout=60)
            blocks[tuple(sites)] = (shared.pi_block(sites), shared.phi_block(sites))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=(sites,)) for sites in site_sets]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert shared._entries == serial._entries
        for sites in site_sets:
            pi, phi = blocks[tuple(sites)]
            assert np.array_equal(pi, serial.pi_block(sites))
            assert np.array_equal(phi, serial.phi_block(sites))


class TestDefaultSpec:
    def test_calls_without_spec_share_one_cache(self, monkeypatch):
        sites = [0, 3, 7, 8]
        explicit = ScalarFieldSpec()
        want = [scalar_vacuum_cm(sites, explicit),
                measured_vacuum_cm(sites, "phi", explicit),
                measured_vacuum_cm(sites, "pi", explicit)]
        scalar_vacuum_cm(sites)

        def integrate(*args, **kwargs):
            raise AssertionError("a gap was integrated again")

        monkeypatch.setattr(scalar_field, "half_zone_nodes", integrate)
        got = [scalar_vacuum_cm(sites),
               measured_vacuum_cm(sites, "phi"),
               measured_vacuum_cm(sites, "pi")]
        for cm, expected in zip(got, want):
            assert np.array_equal(cm, expected)


class TestVacuumCM:
    def test_toeplitz_structure(self, field_spec):
        block = field_spec.pi_block(range(5))
        for i in range(5):
            for j in range(5):
                assert block[i, j] == field_spec.pi_entry(abs(i - j))

    def test_gapped_block_looks_up_each_distinct_gap_once(self, monkeypatch):
        spec = ScalarFieldSpec()
        sites = [0, 1, 40, 41]
        integrated = []
        real = scalar_field.half_zone_nodes
        monkeypatch.setattr(scalar_field, "half_zone_nodes",
                            lambda d, **kw: integrated.append(d) or real(d, **kw))
        block = spec.phi_block(sites)
        assert sorted(integrated) == [0, 1, 39, 40, 41]
        assert sorted(spec._entries) == [0, 1, 39, 40, 41]  # no gap 2..38 integrated
        assert np.array_equal(block, [[spec.phi_entry(a - b) for b in sites] for a in sites])
        assert len(integrated) == 5  # the lookups above integrated nothing more

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
    # zero would leave the phi-phi zero mode unregulated
    @pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_mass_rejected(self, mass):
        with pytest.raises(ValueError, match="mass must be positive and finite"):
            ScalarFieldSpec(mass)


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
