"""Gaussian-state toolbox: region bookkeeping, restriction and homodyne
conditioning, symplectic operations, entanglement measures, fidelity, and
the global squeeze optimizer."""

import functools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    block_state,
    cm_blocks,
    fidelity_pair,
    interleaved_fidelity,
    outside,
    partial_transpose,
    random_local_symplectic,
    random_physical_cm,
    sqrt_spectrum,
    sqrtm_fidelity,
    tmsv_cm,
    transposed_negativity,
    two_cholesky_objective,
    two_pencil_objective,
)
from ionmodes import experiments, gaussian, golden, ion_chain, scalar_field
from ionmodes.experiments import _region_sites as region_sites
from ionmodes.gaussian import (
    apply_symplectic,
    assert_physical,
    assert_symplectic,
    condition_homodyne,
    entanglement_entropy,
    fidelity,
    from_blocks,
    log_negativity,
    measure_pure_complement,
    optimize_global_squeeze,
    restrict,
    single_mode_rotation,
    single_mode_squeeze,
    symplectic_form,
    symplectic_spectrum,
    validate_cm,
)
from ionmodes.numerics import NumericalError


class TestRegionSites:
    """experiments._region_sites: the two regions of a negativity cell."""

    def test_even_fit_centered(self):
        sites = region_sites(10, 2, 3)
        assert sites == [1, 2, 6, 7]  # one site of margin on each side
        assert outside(10, sites) == [0, 3, 4, 5, 8, 9]

    def test_uneven_fit_leaves_extra_site_right(self):
        sites = region_sites(11, 2, 3)
        assert sites[0] == 2 and sites[-1] == 8  # two sites of margin left, three right

    def test_tight_fit(self):
        sites = region_sites(4, 2, 0)
        assert sites == [0, 1, 2, 3]
        assert outside(4, sites) == []

    def test_rejects_bad_geometry(self):
        assert region_sites(5, 3, 0) is None  # does not fit
        with pytest.raises(ValueError, match="region size must be >= 1"):
            region_sites(5, 0, 1)
        with pytest.raises(ValueError, match="separation >= 0"):
            region_sites(5, 1, -1)
        # checked before the fit: a size of 0 or less is refused at any separation
        for size, separation in ((0, 6), (-1, 0), (1, -9)):
            with pytest.raises(ValueError, match="region size must be >= 1"):
                region_sites(5, size, separation)


class TestBasics:
    def test_symplectic_form_squares_to_minus_identity(self):
        omega = symplectic_form(3)
        assert np.array_equal(omega @ omega, -np.eye(6))

    def test_from_blocks_layout(self):
        phi = np.array([[1.0, 0.25], [0.25, 1.0]])
        pi = np.array([[2.0, -0.5], [-0.5, 2.0]])
        sigma = from_blocks(phi, pi)
        assert np.array_equal(sigma[0::2, 0::2], phi)
        assert np.array_equal(sigma[1::2, 1::2], pi)
        assert not sigma[0::2, 1::2].any()
        assert not sigma[1::2, 0::2].any()

    def test_validate_cm_rejects_odd_and_asymmetric(self):
        with pytest.raises(ValueError):
            validate_cm(np.eye(3))
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            validate_cm(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_validate_cm_rejects_non_finite(self, bad):
        sigma = np.eye(4)
        sigma[2, 2] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            validate_cm(sigma)
        with pytest.raises(NumericalError, match="non-finite"):
            log_negativity(sigma, [0], [1])

    def test_validate_cm_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one mode"):
            validate_cm(np.zeros((0, 0)))

    def test_assert_physical(self):
        assert_physical(np.eye(4))
        with pytest.raises(NumericalError):
            assert_physical(0.5 * np.eye(4))

    def test_restrict_reorders_modes(self):
        sigma = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        swapped = restrict(sigma, [2, 0])
        assert np.array_equal(np.diag(swapped), [5.0, 6.0, 1.0, 2.0])


class TestConditioning:
    def test_product_state_unaffected(self):
        sigma = np.diag([2.0, 0.5, 3.0, 1.0 / 3.0])
        for quad in ("phi", "pi"):
            kept = condition_homodyne(sigma, [1], quad)
            assert np.allclose(kept, np.diag([2.0, 0.5]), atol=1e-14)

    def test_conditioned_pure_state_stays_pure(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(3, 6))
            sigma, _, _ = random_physical_cm(rng, n, thermal_max=1.0)  # pure
            measured = [0] if n == 3 else [0, n - 1]
            for quad in ("phi", "pi"):
                kept = condition_homodyne(sigma, measured, quad)
                nu = symplectic_spectrum(kept)
                assert np.allclose(nu, 1.0, atol=1e-8)

    def test_conditioning_never_beats_tracing_in_volume(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            sigma, _, _ = random_physical_cm(rng, 4)
            traced = restrict(sigma, [1, 2])
            for quad in ("phi", "pi"):
                kept = condition_homodyne(sigma, [0, 3], quad)
                assert np.linalg.det(kept) <= np.linalg.det(traced) + 1e-9

    def test_measuring_nothing_is_identity(self):
        sigma = tmsv_cm(0.4)
        assert np.allclose(condition_homodyne(sigma, [], "phi"), sigma, atol=1e-14)

    def test_rejects_bad_quadrature(self):
        with pytest.raises(ValueError):
            condition_homodyne(np.eye(4), [0], "q")


@functools.lru_cache(maxsize=None)
def _mp_chain_blocks(n_ions, dps):
    """phi and pi blocks of the chain ground state at dps digits: the
    Hessian of the float64 equilibrium positions, diagonalized by mpmath."""
    z = [mpmath.mpf(float(x)) for x in ion_chain.solve_equilibrium(n_ions)]
    with mpmath.workdps(dps):
        hess = mpmath.matrix(n_ions, n_ions)
        for i in range(n_ions):
            hess[i, i] = 1
            for j in range(n_ions):
                if j != i:
                    coupling = 2 / abs(z[i] - z[j]) ** 3
                    hess[i, j] = -coupling
                    hess[i, i] += coupling
        vals, vecs = mpmath.eigsy(hess)
        freqs = [mpmath.sqrt(v) for v in vals]
        phi = vecs * mpmath.diag([1 / w for w in freqs]) * vecs.T
        pi = vecs * mpmath.diag(freqs) * vecs.T
    return phi, pi


def _mp_measured_negativity(phi, pi, sites, quadrature):
    """E_N at the working precision of two equal regions (`sites`, region A
    first) after measuring one quadrature on the rest of a pure state, by
    the same closed form, with the partially transposed spectrum from the
    symmetric L^T P Pi P L (phi block = L L^T, P the momentum sign flip on
    region B)."""
    size = len(sites) // 2
    source = pi if quadrature == "phi" else phi
    kept = mpmath.matrix([[source[i, j] for j in sites] for i in sites])
    inverse = mpmath.inverse(kept)
    phi_k, pi_k = (inverse, kept) if quadrature == "phi" else (kept, inverse)
    flip = mpmath.diag([1] * size + [-1] * size)
    chol = mpmath.cholesky(phi_k)
    nu_sq = mpmath.eigsy(chol.T * flip * pi_k * flip * chol, eigvals_only=True)
    nu = [mpmath.sqrt(v) for v in nu_sq]
    return -mpmath.fsum(mpmath.log(v, 2) for v in nu if v < 1 - gaussian.NU_UNIT_TOL)


def _random_pure_blocks(rng, n):
    """Random SPD phi block with eigenvalues in [0.3, 3] and pi = phi^-1."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    vals = rng.uniform(0.3, 3.0, size=n)
    phi = (q * vals) @ q.T
    pi = (q / vals) @ q.T
    return 0.5 * (phi + phi.T), 0.5 * (pi + pi.T)


def _negativity_table_cells():
    """negativity_cell arguments of every cell of tables 1-3: ion and
    scalar, all three treatments (510 in all)."""
    for table in (1, 2, 3):
        params = golden.TABLES[table][1]
        for row in golden.load_table(table):
            for system in ("ion", "scalar"):
                for treatment in experiments.TREATMENTS:
                    yield (system, params["chain_size"], params["region_size"],
                           int(row["separation"]), treatment)


class TestPureConditioning:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7),
           quadrature=st.sampled_from(["phi", "pi"]))
    def test_closed_form_matches_schur_complement(self, seed, n, quadrature):
        rng = np.random.default_rng(seed)
        phi, pi = _random_pure_blocks(rng, n)
        kept = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        measured = [m for m in range(n) if m not in kept]
        pair = np.ix_(kept, kept)
        want = condition_homodyne(from_blocks(phi, pi), measured, quadrature)
        got = from_blocks(*measure_pure_complement(phi[pair], pi[pair], quadrature))
        assert np.abs(got - want).max() <= 1e-9

    def test_rejects_bad_quadrature_and_singular_block(self):
        with pytest.raises(ValueError, match="quadrature must be 'phi' or 'pi'"):
            measure_pure_complement(np.eye(2), np.eye(2), "x")
        with pytest.raises(NumericalError, match="pi-correlator restriction is singular"):
            measure_pure_complement(np.eye(2), np.zeros((2, 2)), "phi")
        with pytest.raises(NumericalError, match="phi-correlator restriction is singular"):
            measure_pure_complement(np.zeros((2, 2)), np.eye(2), "pi")

    def test_rejects_asymmetric_block(self):
        # a non-symmetric kept block used to come back as a non-symmetric state
        with pytest.raises(ValueError, match="phi block is not symmetric"):
            measure_pure_complement([[2.0, 1.0], [0.0, 1.0]], np.eye(2), "pi")

    def test_rejects_non_finite_block(self):
        # a NaN in the kept block used to come back as a non-finite state
        with pytest.raises(NumericalError, match="phi block has non-finite entries"):
            measure_pure_complement([[np.nan, 0.0], [0.0, 1.0]], np.eye(2), "pi")

    def test_rejects_non_square_block(self):
        # a usage error, not the "restriction is singular" numerical failure
        with pytest.raises(ValueError, match="must be square"):
            measure_pure_complement(np.ones((2, 3)), np.ones((2, 3)), "pi")

    def test_table_geometries_match_schur_route(self):
        # every ion_phi / ion_pi cell of tables 1-3 (150 ions)
        cm = experiments.chain_model(150).cm
        worst = 0.0
        for table in (1, 2, 3):
            d = golden.TABLES[table][1]["region_size"]
            for row in golden.load_table(table):
                separation = int(row["separation"])
                measured = outside(150, region_sites(150, d, separation))
                for quadrature in ("phi", "pi"):
                    schur = log_negativity(condition_homodyne(cm, measured, quadrature),
                                           range(d), range(d, 2 * d))
                    closed = experiments.negativity_cell("ion", 150, d, separation, quadrature)
                    worst = max(worst, abs(closed - schur))
        assert worst < 1e-12

    @pytest.mark.parametrize("quadrature", ["phi", "pi"])
    @pytest.mark.parametrize("size,separation", [(1, 20), (1, 26), (3, 12), (3, 20)])
    def test_chain_cells_against_mpmath(self, size, separation, quadrature):
        # 30 ions from a 40-digit Hessian; the reference applies the same
        # 1e-9 window on nu as log_negativity
        with mpmath.workdps(40):
            want = _mp_measured_negativity(*_mp_chain_blocks(30, 40),
                                           region_sites(30, size, separation),
                                           quadrature)
        got = experiments.negativity_cell("ion", 30, size, separation, quadrature)
        assert abs(got / float(want) - 1.0) < 1e-12


class TestSymplectics:
    def test_generators_are_symplectic(self):
        assert_symplectic(single_mode_squeeze(3, 1.7, [1]))
        assert_symplectic(single_mode_rotation(3, 0.9, [2]))
        assert_symplectic(single_mode_squeeze(2, 0.4) @ single_mode_rotation(2, 1.2))

    def test_assert_symplectic_rejects(self):
        with pytest.raises(NumericalError):
            assert_symplectic(2.0 * np.eye(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_assert_symplectic_rejects_non_finite(self, bad):
        # a NaN residual used to pass `residual > tol`
        with pytest.raises(NumericalError, match="non-finite"):
            assert_symplectic(np.full((4, 4), bad))
        s = np.eye(4)
        s[0, 1] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            apply_symplectic(np.eye(4), s)

    @pytest.mark.parametrize("z", [math.nan, math.inf, 0.0, -1.0, "2", None])
    def test_squeeze_needs_positive_finite_parameter(self, z):
        # nan or inf used to build a non-finite S that turned every CM it
        # was applied to into NaN
        with pytest.raises(ValueError, match="^squeeze parameter z must be positive and finite"):
            single_mode_squeeze(2, z)

    @pytest.mark.parametrize("z", [5e-324, 1e-310])
    def test_squeeze_needs_finite_reciprocal(self, z):
        # a subnormal z passes the positive-and-finite check, but 1/z
        # overflowed to an infinite entry
        with pytest.raises(ValueError, match=r"^squeeze parameter z = %s has no finite reciprocal"
                           % re.escape(repr(z))):
            single_mode_squeeze(1, z)
        assert np.isfinite(single_mode_squeeze(1, 1e-308)).all()

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_rotation_needs_finite_angle(self, angle):
        with pytest.raises(ValueError, match="^rotation angle phi must be finite"):
            single_mode_rotation(2, angle)

    def test_squeeze_on_vacuum(self):
        z = 1.9
        sigma = apply_symplectic(np.eye(2), single_mode_squeeze(1, z))
        assert np.allclose(sigma, np.diag([z * z, 1.0 / (z * z)]), atol=1e-12)

    def test_rotation_preserves_vacuum(self):
        sigma = apply_symplectic(np.eye(4), single_mode_rotation(2, 0.7))
        assert np.allclose(sigma, np.eye(4), atol=1e-12)

    def test_spectrum_invariant_under_symplectics(self):
        rng = np.random.default_rng(37)
        sigma, _, nu = random_physical_cm(rng, 3)
        s = random_local_symplectic(rng, 3)
        got = symplectic_spectrum(apply_symplectic(sigma, s))
        assert np.allclose(got, np.sort(nu), atol=1e-9)

    def test_spectrum_matches_construction(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            sigma, _, nu = random_physical_cm(rng, n)
            assert np.allclose(symplectic_spectrum(sigma), np.sort(nu), atol=1e-9)


class TestSpectrumRoutes:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), transpose=st.booleans())
    def test_cholesky_and_sqrt_routes_agree(self, seed, n, transpose):
        rng = np.random.default_rng(seed)
        sigma, _, _ = random_physical_cm(rng, n)
        if transpose:
            sigma = partial_transpose(sigma, rng.choice(n, size=int(rng.integers(1, n + 1)),
                                                        replace=False))
        assert np.abs(symplectic_spectrum(sigma) - sqrt_spectrum(sigma)).max() <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
    def test_negativity_matches_transposed_copy(self, seed, n):
        # crossed states, random A|B splits (either side may be empty)
        rng = np.random.default_rng(seed)
        sigma, _, _ = random_physical_cm(rng, n)
        in_b = rng.random(n) < 0.5
        region_a, region_b = np.flatnonzero(~in_b), np.flatnonzero(in_b)
        got = log_negativity(sigma, region_a, region_b)
        assert abs(got - transposed_negativity(sigma, region_b)) <= 1e-14

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
    def test_cross_free_negativity_matches_transposed_copy(self, seed, n):
        # the n x n route: no phi-pi cross block, random A|B splits (either
        # side may be empty)
        rng = np.random.default_rng(seed)
        sigma = block_state(rng, n, rng.uniform(0.0, 1.0))
        in_b = rng.random(n) < 0.5
        region_a, region_b = np.flatnonzero(~in_b), np.flatnonzero(in_b)
        got = log_negativity(sigma, region_a, region_b)
        assert abs(got - transposed_negativity(sigma, region_b)) <= 1e-13

    def test_table_cells_match_transposed_copy(self, monkeypatch):
        handed = []
        original = gaussian.log_negativity

        def keep(sigma, region_a, region_b):
            handed.append((sigma, list(region_b)))
            return original(sigma, region_a, region_b)

        monkeypatch.setattr(gaussian, "log_negativity", keep)
        cells = 0
        for cell in _negativity_table_cells():
            handed.clear()
            value = experiments.negativity_cell(*cell)
            (sigma, region_b), = handed
            # the n x n route rounds differently from the 2n x 2n oracle
            assert abs(value - transposed_negativity(sigma, region_b)) <= 2e-14
            cells += 1
        assert cells == 510

    def test_table_cells_skip_the_interleaved_kernel(self, monkeypatch):
        calls = []
        original = gaussian._spectrum

        def count(sigma, signs):
            calls.append(sigma.shape)
            return original(sigma, signs)

        monkeypatch.setattr(gaussian, "_spectrum", count)
        values = [experiments.negativity_cell(*cell) for cell in _negativity_table_cells()]
        assert len(values) == 510
        assert calls == []

    @pytest.mark.parametrize("sigma", [np.diag([1.0, 0.0]), np.diag([2.0, -1.0, 1.0, 1.0])])
    def test_rejects_non_positive_definite(self, sigma):
        with pytest.raises(NumericalError, match="not positive definite"):
            symplectic_spectrum(sigma)
        # no cross block: log_negativity's n x n route
        with pytest.raises(NumericalError, match="covariance matrix is not positive definite"):
            log_negativity(sigma, [0], range(1, sigma.shape[0] // 2))

    def test_near_separable_table_cell_against_mpmath(self):
        # table 3, ion_trace: E_N ~ 1.2e-7 and 4.5e-8 hang on the smallest
        # partially transposed nu_k, within 1e-7 of 1; the squared-spectrum
        # oracle misses by ~2e-13 on such cells, but by luck of round-off
        # only 5.9e-15 at separation 28 with one BLAS thread
        oracle_miss = 0.0
        for separation in (28, 29):
            state = restrict(experiments.chain_model(150).cm, region_sites(150, 5, separation))
            flipped = partial_transpose(state, range(5, 10))
            with mpmath.workdps(40):
                omega = mpmath.matrix(symplectic_form(10).tolist())
                vals = mpmath.eig(omega * mpmath.matrix(flipped.tolist()), left=False, right=False)
                nu = [mpmath.im(v) for v in vals if mpmath.im(v) > 0]
                want = float(-mpmath.fsum(mpmath.log(v, 2) for v in nu if v < 1))
            got = experiments.negativity_cell("ion", 150, 5, separation, "trace")
            oracle = -sum(np.log2(v) for v in sqrt_spectrum(flipped) if v < 1.0)
            assert abs(got - want) < 1e-15, separation
            oracle_miss = max(oracle_miss, abs(oracle - want))
        assert oracle_miss > 1e-13


class TestEntanglementMeasures:
    def test_partial_transpose_flips_momentum_signs(self):
        sigma = tmsv_cm(0.3)
        flipped = partial_transpose(sigma, [1])
        assert flipped[3, 3] == sigma[3, 3]  # pi-pi inside B x B flips twice
        assert flipped[1, 3] == -sigma[1, 3]  # pi_A pi_B flips once
        assert flipped[0, 2] == sigma[0, 2]  # phi-phi untouched
        assert np.array_equal(partial_transpose(flipped, [1]), sigma)

    def test_tmsv_negativity_closed_form(self):
        for r in (0.1, 0.3, 0.8):
            got = log_negativity(tmsv_cm(r), [0], [1])
            assert abs(got - 2.0 * r / np.log(2.0)) < 1e-10

    def test_vacuum_not_entangled(self):
        assert log_negativity(np.eye(8), [0, 1], [2, 3]) == 0.0

    def test_requires_exact_disjoint_cover(self):
        sigma = np.eye(6)
        with pytest.raises(ValueError):
            log_negativity(sigma, [0], [1])  # mode 2 unassigned
        with pytest.raises(ValueError):
            log_negativity(sigma, [0, 1], [1, 2])

    def test_local_symplectic_invariance(self):
        rng = np.random.default_rng(43)
        sigma, _, _ = random_physical_cm(rng, 4, thermal_max=1.0)
        base = log_negativity(sigma, [0, 1], [2, 3])
        assert base > 1e-3  # meaningful test needs actual entanglement
        for _ in range(100):
            s = random_local_symplectic(rng, 4)
            got = log_negativity(apply_symplectic(sigma, s), [0, 1], [2, 3])
            assert abs(got - base) < 1e-8

    def test_vacuum_entropy_zero(self):
        assert entanglement_entropy(np.eye(6)) == 0.0

    def test_entropy_near_unit_eigenvalue_is_finite(self):
        nu = 1.0 + 1e-12
        assert entanglement_entropy(np.diag([nu, nu])) < 1e-9

    def test_tmsv_reduced_entropy_matches_fock_sum(self):
        for r in (0.25, 0.6, 1.1):
            reduced = restrict(tmsv_cm(r), [0])
            got = entanglement_entropy(reduced)
            lam = np.tanh(r)
            p = (1.0 - lam**2) * lam ** (2.0 * np.arange(200))
            want = -np.sum(p * np.log2(p))
            assert abs(got - want) < 1e-10

    def test_entropy_additive_over_direct_sum(self):
        a = restrict(tmsv_cm(0.5), [0])
        b = restrict(tmsv_cm(0.9), [0])
        combined = np.zeros((4, 4))
        combined[:2, :2] = a
        combined[2:, 2:] = b
        want = entanglement_entropy(a) + entanglement_entropy(b)
        assert abs(entanglement_entropy(combined) - want) < 1e-12


class TestFidelity:
    def test_squeezed_vacuum_oracle(self):
        for z in (0.5, 0.9, 1.0, 1.7, 4.0):
            squeezed = apply_symplectic(np.eye(2), single_mode_squeeze(1, z))
            want = np.sqrt(2.0 * z / (z * z + 1.0))
            assert abs(fidelity(cm_blocks(np.eye(2)), cm_blocks(squeezed)) - want) < 1e-8

    def test_product_states_factorize(self):
        z1, z2 = 1.4, 0.7
        s = single_mode_squeeze(2, z1, [0]) @ single_mode_squeeze(2, z2, [1])
        squeezed = apply_symplectic(np.eye(4), s)
        want = np.sqrt(2.0 * z1 / (z1**2 + 1.0)) * np.sqrt(2.0 * z2 / (z2**2 + 1.0))
        assert abs(fidelity(cm_blocks(np.eye(4)), cm_blocks(squeezed)) - want) < 1e-8

    def test_self_fidelity_and_symmetry(self):
        rng = np.random.default_rng(48)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            sigma1 = cm_blocks(block_state(rng, n, rng.uniform(0.0, 1.0)))
            sigma2 = cm_blocks(block_state(rng, n, rng.uniform(0.0, 1.0)))
            assert abs(fidelity(sigma1, sigma1) - 1.0) < 1e-7
            f12 = fidelity(sigma1, sigma2)
            f21 = fidelity(sigma2, sigma1)
            assert abs(f12 - f21) < 1e-9
            assert 0.0 <= f12 <= 1.0

    def test_thermal_against_vacuum_closed_form(self):
        # F(vacuum, thermal nu) = sqrt(2 / (1 + nu))
        for nu in (1.5, 3.0):
            thermal = np.diag([nu, nu])
            want = np.sqrt(2.0 / (1.0 + nu))
            assert abs(fidelity(cm_blocks(np.eye(2)), cm_blocks(thermal)) - want) < 1e-10

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            fidelity(cm_blocks(np.eye(2)), cm_blocks(np.eye(4)))

    def test_states_must_be_block_pairs(self):
        vacuum = (np.eye(2), np.eye(2))
        for bad in (np.eye(4), (np.eye(2), np.eye(3)), (np.eye(2), [[1.0, 1.0], [0.0, 1.0]])):
            for pair in ((bad, vacuum), (vacuum, bad)):
                for call in (fidelity, optimize_global_squeeze):
                    with pytest.raises(ValueError):
                        call(*pair)


# the squeeze bracket after one widening on either side: ln z within
# ln(0.5) - ln(40) ... ln(20) + ln(40)
WIDENED_Z = np.geomspace(0.5 / 40.0, 20.0 * 40.0, 8)


class TestFidelityRoutes:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           mix_1=st.floats(0.05, 1.0), mix_2=st.floats(0.05, 1.0),
           angle=st.floats(0.1, 1.4))
    def test_block_general_and_sqrtm_routes_agree(self, seed, n, mix_1, mix_2, angle):
        rng = np.random.default_rng(seed)
        sigma_1 = block_state(rng, n, mix_1)
        sigma_2 = block_state(rng, n, mix_2)
        block = fidelity(cm_blocks(sigma_1), cm_blocks(sigma_2))
        # a common phase rotation keeps F; the interleaved and sqrtm routes
        # take the turned pair whether or not it has a phi-pi cross block
        rot = single_mode_rotation(n, angle)
        turned_1, turned_2 = apply_symplectic(sigma_1, rot), apply_symplectic(sigma_2, rot)
        general = interleaved_fidelity(turned_1, turned_2)
        oracle = sqrtm_fidelity(turned_1, turned_2)
        assert abs(general - block) <= 1e-6 * block
        assert abs(oracle - block) <= 1e-6 * block

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), mix=st.floats(0.0, 1.0))
    def test_pure_state_overlap(self, seed, n, mix):
        # with sigma_1 pure, F^2 = <psi|rho_2|psi> = det((sigma_1 + sigma_2) / 2)^(-1/2)
        rng = np.random.default_rng(seed)
        sigma_1 = block_state(rng, n, 0.0)
        sigma_2 = block_state(rng, n, mix)
        want = np.linalg.det(0.5 * (sigma_1 + sigma_2)) ** -0.25
        assert abs(fidelity(cm_blocks(sigma_1), cm_blocks(sigma_2)) - want) <= 1e-10 * want
        rot = single_mode_rotation(n, 0.7)
        turned = [apply_symplectic(sigma, rot) for sigma in (sigma_1, sigma_2)]
        assert abs(interleaved_fidelity(*turned) - want) <= 1e-6 * want

    def test_unphysical_pair_rejected(self):
        # Pi < Phi^-1: a negative eigenvalue of the defect, source or target
        bad = (np.eye(2), 0.5 * np.eye(2))
        good = (2.0 * np.eye(2), np.eye(2))
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(NumericalError, match="unphysical"):
                fidelity(*pair)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           mix_1=st.floats(0.05, 1.0), mix_2=st.floats(0.05, 1.0),
           ln_z=st.floats(*np.log(WIDENED_Z[[0, -1]])), angle=st.floats(0.1, 1.4))
    def test_squeezed_objective_matches_interleaved_route(self, seed, n, mix_1, mix_2,
                                                          ln_z, angle):
        # the objective squeezes the source S_z^-1 sigma_1 S_z^-T back to
        # sigma_1, so the squeezed pair is (sigma_1, sigma_2) itself, which the
        # interleaved route takes, turned by a common rotation, at its
        # unsqueezed conditioning (squeezing in float64 instead cost that
        # route up to 1.5e-2 and made it raise on one draw in ten).  Over
        # 60,000 draws the interleaved route was within 1.1e-9 of 40-digit
        # mpmath, the two-pencil objective within 1.2e-11; over 3,000 draws
        # with n = 2...4 the Gram-form objective was within 3.1e-12
        rng = np.random.default_rng(seed)
        sigma_1 = block_state(rng, n, mix_1)
        sigma_2 = block_state(rng, n, mix_2)
        d = np.tile([np.exp(-ln_z), np.exp(ln_z)], n)
        objective = gaussian._cross_free_fidelity(cm_blocks(sigma_1 * np.outer(d, d)),
                                                  cm_blocks(sigma_2))
        got = np.exp(objective(ln_z))
        rot = single_mode_rotation(n, angle)
        turned = [apply_symplectic(sigma, rot) for sigma in (sigma_1, sigma_2)]
        want = interleaved_fidelity(*turned)
        assert abs(got - want) <= 1e-8 * want


def _mp_log_fidelity(phi_1, pi_1, phi_2, pi_2):
    """ln F at the working precision from 4 P Q - 1 = Y^-1 (1 + Pi_2 Phi_1)
    X^-1 (1 + Phi_2 Pi_1) - 1, the auxiliary matrix of Banchi, Braunstein &
    Pirandola with no block algebra beyond the phi/pi split."""
    eye = mpmath.eye(phi_1.rows)
    x, y = phi_1 + phi_2, pi_1 + pi_2
    excess = mpmath.eig(mpmath.inverse(y) * (eye + pi_2 * phi_1) * mpmath.inverse(x)
                        * (eye + phi_2 * pi_1) - eye, left=False, right=False)
    assert max(abs(mpmath.im(e)) for e in excess) < mpmath.mpf(10) ** (4 - mpmath.mp.dps)
    total = 2 * mpmath.fsum(mpmath.asinh(mpmath.sqrt(max(mpmath.re(e), 0))) for e in excess)
    return (total - mpmath.log(mpmath.det(x / 2)) - mpmath.log(mpmath.det(y / 2))) / 4


def _mp_blocks(state, sectors):
    """The (Phi, Pi) blocks of a state, float64 arrays or mpmath matrices, as
    mpmath matrices; with sectors, the even and odd parts under the mode
    reversal of a centrosymmetric state."""
    out = []
    for block in state:
        block = mpmath.matrix(block)
        if not sectors:
            out.append((block,))
            continue
        m = block.rows // 2
        near = mpmath.matrix([[block[i, j] for j in range(m)] for i in range(m)])
        far = mpmath.matrix([[block[i, 2 * m - 1 - j] for j in range(m)] for i in range(m)])
        out.append((near + far, near - far))
    return list(zip(*out))


def _mp_fidelity(state_1, state_2, sectors=True):
    """Fidelity at 30 digits of two exact (Phi, Pi) states.

    For centrosymmetric states of an even number of modes, the mode reversal
    is a passive symplectic that splits both states into even and odd
    sectors, so F is the product of two half-size fidelities (8x less work
    for mpmath's eigensolver)."""
    with mpmath.workdps(30):
        pairs = zip(_mp_blocks(state_1, sectors), _mp_blocks(state_2, sectors))
        return mpmath.exp(mpmath.fsum(_mp_log_fidelity(p1, q1, p2, q2)
                                      for (p1, q1), (p2, q2) in pairs))


def _reversal(n):
    return np.arange(2 * n).reshape(n, 2)[::-1].ravel()


@functools.lru_cache(maxsize=None)
def _table_pair(chain_size, window, z):
    """Centered chain window squeezed by z and the lattice vacuum window,
    both made exactly centrosymmetric in float64, with the 30-digit F."""
    left = (chain_size - window) // 2
    source = restrict(experiments.chain_model(chain_size).cm, range(left, left + window))
    d = np.tile([z, 1.0 / z], window)
    flip = _reversal(window)
    pair = []
    for sigma in (source * np.outer(d, d), scalar_field.scalar_vacuum_cm(window)):
        pair.append(0.5 * (sigma + sigma[np.ix_(flip, flip)]))
    return pair[0], pair[1], _mp_fidelity(cm_blocks(pair[0]), cm_blocks(pair[1]))


@functools.lru_cache(maxsize=None)
def _mp_chain_window_fidelity(chain_size, window, z):
    """30-digit F of the centered window of the exactly pure chain
    (`_mp_chain_blocks` at 40 digits) squeezed by z, against the float64
    lattice vacuum window that `fidelity_cell` hands its search."""
    phi, pi = _mp_chain_blocks(chain_size, 40)
    sites = range((chain_size - window) // 2, (chain_size + window) // 2)
    with mpmath.workdps(40):
        s = mpmath.mpf(z) ** 2
        source = [mpmath.matrix([[block[i, j] for j in sites] for i in sites])
                  for block in (phi * s, pi / s)]
    return _mp_fidelity(source, fidelity_pair(chain_size, window)[1])


MP_CASES = [(30, 10), (30, 30), (50, 50), (150, 50)]


def _mp_bound(chain_size, window):
    """Relative bound against the 30-digit F: 1e-12 on strict sub-windows.

    A full-chain window is the whole pure chain state, pure only to
    round-off in float64: at 40 digits the D_1 of 30/30 has eigenvalues from
    -9.2e-14 to 2.8e-14.  F is then fixed only up to where round-off is
    cut, at the ~5e-9 level.  The package keeps the eigenvalues of each
    defect D_i in the pencil basis above the rank cutoff n eps mu_max, but
    for these windows mu_max is itself round-off, so round-off columns
    stay; the reference clips negative w_k^2 - 1 of the auxiliary spectrum.
    Those windows keep 1e-8.  (The near-full windows 24/30 to 28/30, whose
    round-off the cutoff does remove, meet the exactly pure chain to 1e-12:
    `test_near_full_window_meets_exact_chain`.)
    """
    return 1e-12 if window < chain_size else 1e-8


class TestFidelityAgainstMpmath:
    def test_sector_split_matches_full_computation(self):
        source, target, want = _table_pair(30, 10, 6.0)
        full = _mp_fidelity(cm_blocks(source), cm_blocks(target), sectors=False)
        assert abs(full / want - 1) < 1e-20

    @pytest.mark.parametrize("z", [1.0, 6.0])
    @pytest.mark.parametrize("chain_size,window", MP_CASES)
    def test_table_window_within_1e8(self, chain_size, window, z):
        source, target, want = _table_pair(chain_size, window, z)
        got = fidelity(cm_blocks(source), cm_blocks(target))
        assert abs(got / float(want) - 1.0) < _mp_bound(chain_size, window)

    @pytest.mark.parametrize("z", [1.0, 6.0])
    @pytest.mark.parametrize("window", [24, 26, 28])
    def test_near_full_window_meets_exact_chain(self, window, z):
        # against the exactly pure chain, not its float64 CM: the defect of a
        # near-full window holds positive round-off eigenvalues, and keeping
        # those at or below the rank cutoff of `_defect_factor` left the
        # window off by 6e-12 (24/30) to 1.3e-9 (28/30); the cutoff leaves
        # at most 1.7e-14
        source, target = fidelity_pair(30, window)
        got = fidelity(_squeezed(source, z), target)
        assert abs(got / float(_mp_chain_window_fidelity(30, window, z)) - 1.0) < 1e-12

    def test_sqrtm_route_misses_on_large_windows(self):
        # the route the package used before, off by ~sqrt(eps) per near-unit w_k
        misses = [abs(sqrtm_fidelity(s, t) / float(f) - 1.0)
                  for s, t, f in (_table_pair(c, w, z) for c, w in MP_CASES for z in (1.0, 6.0))]
        assert max(misses) > 1e-7


def _table_window_cells():
    """fidelity_cell arguments (chain_size, window) of every window of
    tables 4-6 (65 in all)."""
    for table in (4, 5, 6):
        chain_size = golden.TABLES[table][1]["chain_size"]
        for row in golden.load_table(table):
            yield chain_size, int(row["region_size"])


def _table_windows():
    """(source, target) (Phi, Pi) pairs of every window of tables 4-6, as
    fidelity_cell hands them to its search."""
    for cell in _table_window_cells():
        yield fidelity_pair(*cell)


def test_every_table_cell_gathers_one_blocks_call_per_source(monkeypatch):
    # every negativity cell of tables 1-3 reads its one source, and every
    # fidelity window of tables 4-6 the chain and the lattice, through one
    # blocks call each: no cell slices a source's arrays itself
    calls = []
    for source in (ion_chain.IonChainModel, scalar_field.ScalarFieldSpec):
        def counted(self, sites, read=source.blocks, name=source.__name__):
            calls.append(name)
            return read(self, sites)

        monkeypatch.setattr(source, "blocks", counted)
    monkeypatch.setattr(gaussian, "optimize_global_squeeze", lambda source, target: None)
    sources = {"ion": ["IonChainModel"], "scalar": ["ScalarFieldSpec"]}
    cells = 0
    for cell in _negativity_table_cells():
        calls.clear()
        experiments.negativity_cell(*cell)
        assert calls == sources[cell[0]], cell
        cells += 1
    for cell in _table_window_cells():
        calls.clear()
        experiments.fidelity_cell(*cell)
        assert calls == ["IonChainModel", "ScalarFieldSpec"], cell
        cells += 1
    assert cells == 510 + 65


@pytest.mark.parametrize("system", ["ion", "scalar"])
def test_negativity_rows_gather_one_blocks_call_per_separation(monkeypatch, system):
    # the three treatments of a separation share one gather; an ion
    # separation that does not fit the chain gathers nothing
    source = {"ion": ion_chain.IonChainModel, "scalar": scalar_field.ScalarFieldSpec}[system]
    calls = []

    def counted(self, sites, read=source.blocks):
        calls.append(list(sites))
        return read(self, sites)

    monkeypatch.setattr(source, "blocks", counted)
    separations = [0, 3, 1, 26, 3, 40]
    rows = experiments.negativity_rows(system, 30, 2, separations)
    fits = [sep for sep in separations if system == "scalar" or sep <= 26]
    length = {"ion": lambda sep: 30, "scalar": lambda sep: 4 + sep}[system]
    assert calls == [experiments._region_sites(length(sep), 2, sep) for sep in fits]
    assert len(rows) == 3 * len(separations)
    assert sum(row[5] is None for row in rows) == 3 * (len(separations) - len(fits))


@pytest.mark.parametrize("region_size", [ion_chain.MAX_IONS // 2 + 1, 10**9])
@pytest.mark.parametrize("system", ["ion", "scalar"])
def test_negativity_rows_refuse_oversized_region_before_any_gather(monkeypatch, system,
                                                                    region_size):
    # a scalar region of d sites built a (2d)^2 gap matrix before any check
    # (29.1 TiB at d = 10^6); no chain holds two regions above MAX_IONS / 2
    def no_gather(*args):
        raise AssertionError("a region was gathered")

    monkeypatch.setattr(experiments, "_region_sites", no_gather)
    monkeypatch.setattr(scalar_field.ScalarFieldSpec, "blocks", no_gather)
    monkeypatch.setattr(ion_chain.IonChainModel, "blocks", no_gather)
    with pytest.raises(ValueError, match="^region size must be at most 150, half the longest"):
        experiments.negativity_rows(system, ion_chain.MAX_IONS, region_size, [0, 1])
    assert len(experiments.negativity_rows(system, ion_chain.MAX_IONS, 150, [])) == 0


@pytest.mark.parametrize("system", ["ion", "scalar"])
def test_negativity_cell_is_its_one_row(system):
    rows = experiments.negativity_rows(system, 30, 2, [0, 5, 26, 40])
    for _, _, _, separation, treatment, value in rows:
        cell = experiments.negativity_cell(system, 30, 2, separation, treatment)
        assert type(cell) is type(value) and repr(cell) == repr(value), (separation, treatment)


def _squeezed(state, z):
    """S_z = diag(z, 1/z) on every mode of a (Phi, Pi) state: (z^2 Phi, Pi / z^2)."""
    return state[0] * (z * z), state[1] / (z * z)


class TestSqueezeObjective:
    def test_matches_fidelity_on_table_windows(self):
        pairs = 0
        for source, target in _table_windows():
            objective = gaussian._cross_free_fidelity(source, target)
            old_objective = two_pencil_objective(source, target)
            for z in WIDENED_Z:
                want = fidelity(_squeezed(source, z), target)
                got = np.exp(objective(np.log(z)))
                assert abs(got / want - 1.0) <= 1e-8
                assert abs(old_objective(np.log(z)) / got - 1.0) <= 1e-8
            pairs += 1
        assert pairs == 65

    def test_matches_two_cholesky_objective_on_table_windows(self):
        # dropping the zero columns of the defect eigenvalues at or below the
        # rank cutoff and stacking the two Gram matrices into one moved no
        # table window by more than 1.4e-14 relative
        pairs = 0
        for source, target in _table_windows():
            objective = gaussian._cross_free_fidelity(source, target)
            old_objective = two_cholesky_objective(source, target)
            for z in WIDENED_Z:
                got = np.exp(objective(np.log(z)))
                assert abs(got / old_objective(np.log(z)) - 1.0) <= 1e-12
            pairs += 1
        assert pairs == 65

    def test_defect_factor_keeps_positive_columns(self):
        # a column is kept when its eigenvalue is above numpy.linalg.matrix_rank's
        # default cutoff, n eps max(mu_max, 0); the positive eigenvalues at or
        # below it are round-off too, and dropping them moved the near-full
        # windows towards the exact chain (test_near_full_window_meets_exact_chain)
        dropped = positive_dropped = 0
        for source, target in _table_windows():
            n = source[0].shape[0]
            basis = np.linalg.cholesky(target[0])  # any congruence will do
            for phi, pi in (source, target):
                defect = gaussian._defect(phi, pi)
                factor = gaussian._defect_factor(defect, basis, "table")
                mu, vecs = np.linalg.eigh(basis.T @ defect @ basis)
                keep = mu > n * np.finfo(float).eps * max(mu[-1], 0.0)
                assert factor.shape == (n, int(keep.sum()))
                assert np.array_equal(factor, vecs[:, keep] * np.sqrt(mu[keep]))
                assert (np.abs(factor).max(axis=0) > 0.0).all()
                dropped += n - factor.shape[1]
                positive_dropped += int((mu > 0.0).sum()) - factor.shape[1]
        # the larger windows drop round-off eigenvalues of either sign
        assert positive_dropped > 0 and dropped > positive_dropped

    def test_overshoot_is_clamped_up_to_its_tolerance(self):
        # ln F = -logdet / 4 with no roots: log1p(1e-6) exactly is clamped to
        # 0, one ulp more raises, however far (no exp to overflow)
        edge = math.log1p(1e-6)
        assert gaussian._log_fidelity_from_aux(np.zeros(0), -4.0 * edge) == 0.0
        for ln_f in (np.nextafter(edge, 1.0), 1e3):
            with pytest.raises(NumericalError, match="exceeds 1 beyond tolerance"):
                gaussian._log_fidelity_from_aux(np.zeros(0), -4.0 * ln_f)
        assert gaussian._log_fidelity_from_aux(np.zeros(0), 4.0) == -1.0

    def test_pure_pairs_have_unit_fidelity(self, two_ion_cm, chain30, monkeypatch):
        ranks = []
        factor = gaussian._defect_factor

        def recorded(*args):
            out = factor(*args)
            ranks.append(out.shape[1])
            return out

        monkeypatch.setattr(gaussian, "_defect_factor", recorded)
        whole_chain = chain30.blocks(range(30))
        exact = (np.diag([2.0, 4.0]), np.diag([0.5, 0.25]))
        for sigma in (cm_blocks(two_ion_cm), whole_chain, exact):
            assert abs(fidelity(sigma, sigma) - 1.0) <= 1e-15
            z_star, f_raw, f_star = optimize_global_squeeze(sigma, sigma)
            assert abs(f_raw - 1.0) <= 1e-15
            # z_star is 1 only to the search tolerance, where F falls quadratically
            assert abs(np.log(z_star)) <= 10 * gaussian.LN_Z_TOL
            assert 1.0 - 1e-12 <= f_star <= 1.0
        # the two-ion chain and the exact pair come with a 0 x 0 Gram
        # matrix; the whole 30-ion chain is pure only to round-off
        assert ranks[:4] == [0, 0, 0, 0] and ranks[-4:] == [0, 0, 0, 0]

    @pytest.mark.parametrize("z", [1.0, 6.0])
    @pytest.mark.parametrize("chain_size,window", MP_CASES)
    def test_table_window_within_1e8_of_mpmath(self, chain_size, window, z):
        source, target, _ = _table_pair(chain_size, window, 1.0)
        want = _table_pair(chain_size, window, z)[2]
        objective = gaussian._cross_free_fidelity(cm_blocks(source), cm_blocks(target))
        got = np.exp(objective(np.log(z)))
        assert abs(got / float(want) - 1.0) < _mp_bound(chain_size, window)

    def test_f_star_is_objective_at_z_star(self, monkeypatch):
        found = []
        search = gaussian.maximize_1d

        def recorded(*args, **kwargs):
            found.append(search(*args, **kwargs))
            return found[-1]

        monkeypatch.setattr(gaussian, "maximize_1d", recorded)
        for window in (4, 10):
            source, target = fidelity_pair(30, window)
            z_star, f_raw, f_star = optimize_global_squeeze(source, target)
            ln_star = found[-1][0]
            assert z_star == np.exp(ln_star)
            objective = gaussian._cross_free_fidelity(source, target)
            assert found[-1][1] == objective(ln_star)  # the search runs on ln F
            assert f_star == np.exp(objective(ln_star))
            assert f_raw == np.exp(objective(0.0))
            # the squeezed source factored afresh rounds differently
            assert abs(fidelity(_squeezed(source, z_star), target) / f_star - 1.0) <= 1e-8
        assert len(found) == 2


class TestGlobalSqueezeOptimizer:
    def test_evaluations_per_search_on_tables(self, monkeypatch):
        # counted per search, not per factorization: `fidelity` factors too
        counts = []
        search = gaussian.maximize_1d

        def counted(objective, *args, **kwargs):
            counts.append(0)

            def step(ln_z):
                counts[-1] += 1
                return objective(ln_z)

            return search(step, *args, **kwargs)

        monkeypatch.setattr(gaussian, "maximize_1d", counted)
        for table in (4, 5, 6):
            chain_size = golden.TABLES[table][1]["chain_size"]
            for row in golden.load_table(table):
                experiments.fidelity_cell(chain_size, int(row["region_size"]))
        # on ln F, 9 or 10 per window and 594 in all (722 and up to 12 on F)
        assert len(counts) == 65
        assert 3 <= min(counts) and max(counts) <= 10 and sum(counts) <= 600

    def test_one_factorization_per_window(self, monkeypatch):
        # the raw F comes from the search's own objective at ln z = 0, so
        # each window factors once (twice while `fidelity` factored again)
        built = []
        kernel = gaussian._cross_free_fidelity

        def counted(*args):
            built.append(1)
            return kernel(*args)

        monkeypatch.setattr(gaussian, "_cross_free_fidelity", counted)
        cells = [experiments.fidelity_cell(golden.TABLES[table][1]["chain_size"],
                                           int(row["region_size"]))
                 for table in (4, 5, 6) for row in golden.load_table(table)]
        assert len(built) == len(cells) == 65
        monkeypatch.undo()
        for (_, raw, _), (source, target) in zip(cells, _table_windows()):
            assert raw == fidelity(source, target)

    def test_self_target_recovers_unit_squeeze(self, chain30):
        source = cm_blocks(restrict(chain30.cm, range(10, 20)))
        z_star, _, f_star = optimize_global_squeeze(source, source)
        # the fidelity plateau is flat to round-off within ~1e-4 of z = 1
        assert abs(z_star - 1.0) < 1e-3
        assert f_star > 1.0 - 1e-9

    def test_beats_raw_fidelity(self, chain30, field_spec):
        from ionmodes import scalar_field
        source = cm_blocks(restrict(chain30.cm, range(13, 17)))
        target = cm_blocks(scalar_field.scalar_vacuum_cm(4, field_spec))
        raw = fidelity(source, target)
        z_star, f_raw, f_star = optimize_global_squeeze(source, target)
        assert f_raw == raw
        assert f_star >= raw
        assert z_star > 1.0  # chain modes need positive squeeze towards the lattice vacuum

    def test_optimum_is_stationary(self, chain30, field_spec):
        from ionmodes import scalar_field
        source = restrict(chain30.cm, range(13, 17))
        target = cm_blocks(scalar_field.scalar_vacuum_cm(4, field_spec))
        z_star, _, f_star = optimize_global_squeeze(cm_blocks(source), target)
        n = 4
        for eps in (1e-3, -1e-3):
            s = single_mode_squeeze(n, z_star * (1.0 + eps))
            perturbed = fidelity(cm_blocks(apply_symplectic(source, s)), target)
            assert perturbed <= f_star + 1e-12
