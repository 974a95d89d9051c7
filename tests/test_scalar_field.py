"""Lattice scalar vacuum: closed-form correlator rows, Toeplitz correlation
blocks, and exact infinite-exterior homodyne conditioning."""

import collections
import functools
import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quad_entries
from ionmodes import gaussian, scalar_field
from ionmodes.scalar_field import (
    CORRELATOR_ABS_ERROR,
    DEFAULT_MASS,
    FORWARD_LIMIT,
    MASS_RANGE,
    MAX_GAP,
    ScalarFieldSpec,
    _row_size,
    _vacuum_entries,
    _vacuum_row,
    measured_vacuum_cm,
    scalar_vacuum_cm,
)

# every entry against 40-digit Legendre Q, at every tested mass; those read
# from Miller rows are held tighter, because its positive-term form has no
# cancellation (measured 1.5e-17; the plain ratio recurrence misses by 1e-13)
ENTRY_TOL = 1e-13
MILLER_ENTRY_TOL = 1e-15

# the half-zone quadrature oracle's own error against the closed form,
# measured: 3.7e-13 at DEFAULT_MASS and 2.46e-12 at mass 0.05 (gaps 0-300),
# 4.04e-12 over 3,000 masses from 1e-10 to 1 (gaps from 0 to 300)
QUAD_ERROR = {DEFAULT_MASS: 4e-13, 0.05: 2.5e-12}
QUAD_ERROR_ANY_MASS = 5e-12

# up to this mass the row of 512 entries (gaps 256-511) runs forward;
# above it, Miller's recurrence
CROSSOVER_MASS = FORWARD_LIMIT / 1024


@pytest.fixture
def computed_rows(monkeypatch):
    """Sizes of the rows computed from an empty cache on."""
    computed = collections.Counter()
    monkeypatch.setattr(scalar_field, "_vacuum_row",
                        lambda mass, size: computed.update([size]) or _vacuum_row(mass, size))
    _vacuum_entries.cache_clear()
    return computed


def legendre_entries(mass, gaps):
    """40-digit (phi, pi) entries from Heine's integral:
    phi_d = Q_{d-1/2}(1 + mass^2/2) / pi, and from omega_k^2 =
    mass^2 + 2 - 2 cos k, pi_d = (2 + mass^2) phi_d - phi_{d-1} - phi_{d+1}
    with phi_{-1} = phi_1."""
    with mpmath.workdps(40):
        m2 = mpmath.mpf(mass) ** 2
        x = 1 + m2 / 2

        @functools.lru_cache(maxsize=None)
        def phi(d):
            return mpmath.re(mpmath.legenq(abs(d) - mpmath.mpf(1) / 2, 0, x, type=3)) / mpmath.pi

        return {d: (float(phi(d)), float((2 + m2) * phi(d) - phi(d - 1) - phi(d + 1)))
                for d in gaps}


def runs_forward(mass, gap):
    """Whether the row that gap is read from runs the forward recurrence."""
    return 2.0 * _row_size(gap) * mass <= FORWARD_LIMIT


def crossover_gaps(mass):
    """The last gap read from a forward row and the first read from a
    Miller row, if both lie below 1024 (rows change at powers of two)."""
    miller = [d for d in (1 << j for j in range(10)) if not runs_forward(mass, d)]
    return (miller[0] - 1, miller[0]) if miller else ()


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

    def test_default_mass_entries_against_legendre_q(self):
        # a tenth of the manifests' correlator_abs_error
        tol = CORRELATOR_ABS_ERROR / 10
        want = legendre_entries(DEFAULT_MASS, (0, 1, 2, 7, 40, 150, 300))
        spec = ScalarFieldSpec()
        for d, (phi, pi) in want.items():
            assert abs(spec.phi_entry(d) - phi) < tol, d
            assert abs(spec.pi_entry(d) - pi) < tol, d

    @pytest.mark.parametrize("mass", [1e-10, 1e-4, 1e-2, CROSSOVER_MASS * (1 - 1e-3),
                                      CROSSOVER_MASS, CROSSOVER_MASS * (1 + 1e-3),
                                      0.05, 0.5, 1.0])
    def test_mass_sweep_against_legendre_q(self, mass):
        # both recurrences and their crossover: the half-zone quadrature
        # that came before missed 1e-12 here (2.4e-12 at 0.05, 1.0e-12 at 1e-4)
        gaps = sorted({0, 1, 2, 7, 40, 150, 300, *crossover_gaps(mass)})
        want = legendre_entries(mass, gaps)
        spec = ScalarFieldSpec(mass)
        for d, (phi, pi) in want.items():
            tol = ENTRY_TOL if runs_forward(mass, d) else MILLER_ENTRY_TOL
            assert abs(spec.phi_entry(d) - phi) < tol, (mass, d)
            assert abs(spec.pi_entry(d) - pi) < tol, (mass, d)

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
    """The half-zone quadrature that filled each gap before the closed form
    is the oracle, held to its own error.  Each row of a mass is computed
    once, and every route to an entry, in any order, gives the float of the
    entry's own row."""

    @pytest.mark.parametrize("mass", sorted(QUAD_ERROR))
    def test_entries_to_gap_300_within_quadrature_error(self, mass):
        spec = ScalarFieldSpec(mass)
        phi = spec.phi_block(range(301))[0]
        pi = spec.pi_block(range(301))[0]
        for d in range(301):
            want_phi, want_pi = quad_entries(mass, d)
            assert abs(phi[d] - want_phi) < QUAD_ERROR[mass], d
            assert abs(pi[d] - want_pi) < QUAD_ERROR[mass], d

    @settings(max_examples=25, deadline=None)
    @given(log_mass=st.floats(-10.0, 0.0),
           steps=st.lists(st.tuples(
               st.sampled_from(["phi_entry", "pi_entry", "phi_block", "pi_block"]),
               st.lists(st.integers(0, 300), min_size=1, max_size=5)),
               min_size=1, max_size=4))
    def test_any_route_and_order_gives_one_float_per_entry(self, log_mass, steps):
        _vacuum_entries.cache_clear()
        spec = ScalarFieldSpec(10.0**log_mass)
        oracle = {}

        def want(d, column):
            # the entry's own row, computed afresh outside the cache
            if d not in oracle:
                oracle[d] = tuple(row[d] for row in _vacuum_row(spec.mass, _row_size(d)))
                quad = quad_entries(spec.mass, d)
                assert max(abs(a - b) for a, b in zip(oracle[d], quad)) < QUAD_ERROR_ANY_MASS
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
        # only the rows up to the largest gap visited were cached
        assert _vacuum_entries.cache_info().currsize == max(map(_row_size, oracle)).bit_length()

    def test_phi_then_pi_block_computes_each_row_once(self, computed_rows):
        spec = ScalarFieldSpec()
        sites = [0, 2, 3, 9, 30, 31, 150]
        rows = collections.Counter(1 << j for j in range(9))  # 1 .. 256 entries
        phi = spec.phi_block(sites)
        spec.pi_block(sites)
        assert computed_rows == rows
        # each entry read alone is the block's, and computes nothing more
        assert np.array_equal(phi, [[spec.phi_entry(a - b) for b in sites] for a in sites])
        assert spec.pi_entry(-148) == spec.pi_block([2, 150])[0, 1]
        assert computed_rows == rows

    def test_concurrent_fills_equal_serial(self):
        # more threads than cores, switching often, over overlapping gap sets:
        # a torn or lost row would leave an entry unequal to the serial
        # fill's, or a row missing
        site_sets = ([0, 1, 5, 40, 120, 121], [1, 5, 41, 119, 200],
                     [0, 2, 40, 160], [3, 5, 120, 203])
        spec = ScalarFieldSpec()
        _vacuum_entries.cache_clear()
        serial_blocks = {tuple(sites): (spec.pi_block(sites), spec.phi_block(sites))
                         for sites in site_sets}
        top = _row_size(max(max(sites) - min(sites) for sites in site_sets))
        serial = _vacuum_entries(spec.mass, top)
        _vacuum_entries.cache_clear()
        start = threading.Barrier(len(site_sets))
        blocks = {}

        def fill(sites):
            start.wait(timeout=60)
            blocks[tuple(sites)] = (spec.pi_block(sites), spec.phi_block(sites))

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
        # every row of 1 .. top entries cached, and reading them back
        # computes none again
        assert _vacuum_entries.cache_info().currsize == top.bit_length()
        misses = _vacuum_entries.cache_info().misses
        for got, want in zip(_vacuum_entries(spec.mass, top), serial):
            assert np.array_equal(got, want)
        assert _vacuum_entries.cache_info().misses == misses
        for sites in site_sets:
            pi, phi = blocks[tuple(sites)]
            want_pi, want_phi = serial_blocks[tuple(sites)]
            assert np.array_equal(pi, want_pi)
            assert np.array_equal(phi, want_phi)


class TestDefaultSpec:
    def test_calls_without_spec_share_one_cache(self):
        sites = [0, 3, 7, 8]
        explicit = ScalarFieldSpec()
        want = [scalar_vacuum_cm(sites, explicit),
                measured_vacuum_cm(sites, "phi", explicit),
                measured_vacuum_cm(sites, "pi", explicit)]
        misses = _vacuum_entries.cache_info().misses
        got = [scalar_vacuum_cm(sites),
               measured_vacuum_cm(sites, "phi"),
               measured_vacuum_cm(sites, "pi")]
        assert _vacuum_entries.cache_info().misses == misses, "a row was computed again"
        for cm, expected in zip(got, want):
            assert np.array_equal(cm, expected)


class TestVacuumCM:
    def test_toeplitz_structure(self, field_spec):
        block = field_spec.pi_block(range(5))
        for i in range(5):
            for j in range(5):
                assert block[i, j] == field_spec.pi_entry(abs(i - j))

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

    # mass^2 overflows (1e300), or the complementary modulus mass / 2
    # rounds to zero (5e-324), beyond the accepted range
    @pytest.mark.parametrize("mass", [1e300, 1.0001e100, 9.999e-101, 5e-324])
    def test_mass_outside_range_rejected(self, mass):
        with pytest.raises(ValueError, match="mass must be positive and finite, from 1e-100"):
            ScalarFieldSpec(mass)

    @pytest.mark.parametrize("mass", MASS_RANGE)
    def test_range_ends_give_finite_entries(self, mass):
        spec = ScalarFieldSpec(mass)
        for d in (0, 1, 2, 300, 600):
            assert math.isfinite(spec.phi_entry(d)) and math.isfinite(spec.pi_entry(d)), d
        sigma = scalar_vacuum_cm(4, spec)
        assert np.all(np.isfinite(sigma))
        # the massless and the heavy limits: pi_0 = 4 / pi, and phi_0 = 1 / mass
        if mass < 1.0:
            assert abs(spec.pi_entry(0) - 4.0 / math.pi) < 1e-12
        else:
            assert spec.phi_entry(0) == pytest.approx(1.0 / mass, rel=1e-15)


class TestSiteArguments:
    """A separation, window or site list must hold integers; none is
    truncated (2.5 used to read as 2)."""

    @pytest.mark.parametrize("lookup", ["phi_entry", "pi_entry"])
    def test_non_integer_separation_rejected(self, field_spec, lookup):
        for separation in (2.5, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="separation must be integer-valued"):
                getattr(field_spec, lookup)(separation)
        assert getattr(field_spec, lookup)(2.0) == getattr(field_spec, lookup)(2)

    def test_non_integer_window_rejected(self, field_spec):
        with pytest.raises(ValueError, match="window must be integer-valued"):
            scalar_vacuum_cm(2.5, field_spec)
        with pytest.raises(ValueError, match="window must be integer-valued"):
            scalar_vacuum_cm([0, 1.5], field_spec)
        assert np.array_equal(scalar_vacuum_cm(3.0, field_spec), scalar_vacuum_cm(3, field_spec))

    @pytest.mark.parametrize("route", ["phi_block", "pi_block", "phi", "pi"])
    def test_non_integer_sites_rejected(self, field_spec, route):
        with pytest.raises(ValueError, match="sites must be integer-valued"):
            if route.endswith("block"):
                getattr(field_spec, route)([0, 0.5])
            else:
                measured_vacuum_cm([0, 0.5], route, field_spec)

    @pytest.mark.parametrize("route", ["phi_block", "pi_block"])
    def test_single_site_number_rejected(self, field_spec, route):
        # a block needs a sequence of sites; scalar_vacuum_cm alone reads a
        # number, as a window of that many sites
        with pytest.raises(ValueError, match="sites must be a sequence of integers, got 3"):
            getattr(field_spec, route)(3)
        assert getattr(field_spec, route)([3]).shape == (1, 1)
        assert scalar_vacuum_cm(3, field_spec).shape == (6, 6)

    def test_gap_bound(self):
        # every gap in use (299 in the tables and scan, 600 in tests) is
        # admitted; the row of the largest admitted gap has 2^16 entries
        assert _row_size(600) == 1024
        assert _row_size(MAX_GAP) == 1 << 16
        with pytest.raises(ValueError, match="gap 65536 exceeds the largest supported gap, 65535"):
            _row_size(MAX_GAP + 1)


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
