"""Gaussian-state toolbox: region bookkeeping, restriction and homodyne
conditioning, symplectic operations, entanglement measures, fidelity, and
the global squeeze optimizer."""

import functools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_local_symplectic, random_physical_cm, sqrtm_fidelity, tmsv_cm
from ionmodes import experiments, gaussian, golden, scalar_field
from ionmodes.gaussian import (
    RegionSpec,
    apply_symplectic,
    assert_physical,
    assert_symplectic,
    condition_homodyne,
    entanglement_entropy,
    fidelity,
    from_blocks,
    log_negativity,
    optimize_global_squeeze,
    partial_transpose,
    restrict,
    single_mode_rotation,
    single_mode_squeeze,
    symplectic_form,
    symplectic_spectrum,
    validate_cm,
)
from ionmodes.numerics import NumericalError


class TestRegionSpec:
    def test_even_fit_centered(self):
        spec = RegionSpec(10, 2, 3)
        assert spec.left_margin == 1
        assert spec.region_a == [1, 2]
        assert spec.region_b == [6, 7]
        assert spec.outside == [0, 3, 4, 5, 8, 9]

    def test_uneven_fit_leaves_extra_site_right(self):
        spec = RegionSpec(11, 2, 3)
        assert spec.left_margin == 2
        assert spec.region_b[-1] == 8  # two sites of margin left, three right

    def test_tight_fit(self):
        spec = RegionSpec(4, 2, 0)
        assert spec.region_a == [0, 1]
        assert spec.region_b == [2, 3]
        assert spec.outside == []

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            RegionSpec(5, 3, 0)
        with pytest.raises(ValueError):
            RegionSpec(5, 0, 1)
        with pytest.raises(ValueError):
            RegionSpec(5, 1, -1)


class TestBasics:
    def test_symplectic_form_squares_to_minus_identity(self):
        omega = symplectic_form(3)
        assert np.array_equal(omega @ omega, -np.eye(6))

    def test_from_blocks_layout(self):
        phi = np.array([[1.0, 0.25], [0.25, 1.0]])
        pi = np.array([[2.0, -0.5], [-0.5, 2.0]])
        cross = np.array([[0.0, 0.1], [0.2, 0.0]])
        sigma = from_blocks(phi, pi, cross)
        assert np.array_equal(sigma[0::2, 0::2], phi)
        assert np.array_equal(sigma[1::2, 1::2], pi)
        assert np.array_equal(sigma[0::2, 1::2], cross)
        assert np.array_equal(sigma, sigma.T)

    def test_validate_cm_rejects_odd_and_asymmetric(self):
        with pytest.raises(ValueError):
            validate_cm(np.eye(3))
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            validate_cm(bad)

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


class TestSymplectics:
    def test_generators_are_symplectic(self):
        assert_symplectic(single_mode_squeeze(3, 1.7, [1]))
        assert_symplectic(single_mode_rotation(3, 0.9, [2]))
        assert_symplectic(single_mode_squeeze(2, 0.4) @ single_mode_rotation(2, 1.2))

    def test_assert_symplectic_rejects(self):
        with pytest.raises(NumericalError):
            assert_symplectic(2.0 * np.eye(4))

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
            assert abs(fidelity(np.eye(2), squeezed) - want) < 1e-8

    def test_product_states_factorize(self):
        z1, z2 = 1.4, 0.7
        s = single_mode_squeeze(2, z1, [0]) @ single_mode_squeeze(2, z2, [1])
        squeezed = apply_symplectic(np.eye(4), s)
        want = np.sqrt(2.0 * z1 / (z1**2 + 1.0)) * np.sqrt(2.0 * z2 / (z2**2 + 1.0))
        assert abs(fidelity(np.eye(4), squeezed) - want) < 1e-8

    def test_self_fidelity_and_symmetry(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            sigma1, _, _ = random_physical_cm(rng, n)
            sigma2, _, _ = random_physical_cm(rng, n)
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
            assert abs(fidelity(np.eye(2), thermal) - want) < 1e-10

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            fidelity(np.eye(2), np.eye(4))


def _block_state(rng, n, mix):
    """Random physical CM with no phi-pi cross block: Pi >= Phi^-1, with
    equality (a pure state) when mix is 0."""
    a = rng.normal(size=(n, n))
    phi = a @ a.T + 0.2 * np.eye(n)
    b = rng.normal(size=(n, n))
    return from_blocks(phi, np.linalg.inv(phi) + mix * (b @ b.T))


class TestFidelityRoutes:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           mix_1=st.floats(0.05, 1.0), mix_2=st.floats(0.05, 1.0),
           angle=st.floats(0.1, 1.4))
    def test_block_general_and_sqrtm_routes_agree(self, seed, n, mix_1, mix_2, angle):
        rng = np.random.default_rng(seed)
        sigma_1 = _block_state(rng, n, mix_1)
        sigma_2 = _block_state(rng, n, mix_2)
        block = fidelity(sigma_1, sigma_2)
        # a common phase rotation keeps F but adds a phi-pi cross block,
        # which sends the pair through the interleaved route
        rot = single_mode_rotation(n, angle)
        turned_1, turned_2 = apply_symplectic(sigma_1, rot), apply_symplectic(sigma_2, rot)
        assert np.abs(turned_1[0::2, 1::2]).max() > 1e-3
        general = fidelity(turned_1, turned_2)
        oracle = sqrtm_fidelity(sigma_1, sigma_2)
        assert abs(general - block) <= 1e-6 * block
        assert abs(oracle - block) <= 1e-6 * block

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), mix=st.floats(0.0, 1.0))
    def test_pure_state_overlap(self, seed, n, mix):
        # with sigma_1 pure, F^2 = <psi|rho_2|psi> = det((sigma_1 + sigma_2) / 2)^(-1/2)
        rng = np.random.default_rng(seed)
        sigma_1 = _block_state(rng, n, 0.0)
        sigma_2 = _block_state(rng, n, mix)
        want = np.linalg.det(0.5 * (sigma_1 + sigma_2)) ** -0.25
        assert abs(fidelity(sigma_1, sigma_2) - want) <= 1e-10 * want
        rot = single_mode_rotation(n, 0.7)
        turned = fidelity(apply_symplectic(sigma_1, rot), apply_symplectic(sigma_2, rot))
        assert abs(turned - want) <= 1e-6 * want

    def test_unphysical_pair_rejected(self):
        # Pi < Phi^-1: an auxiliary eigenvalue below 1
        bad = from_blocks(np.eye(2), 0.5 * np.eye(2))
        with pytest.raises(NumericalError):
            fidelity(bad, from_blocks(2.0 * np.eye(2), np.eye(2)))


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


def _mp_blocks(sigma, sectors):
    """phi and pi blocks of sigma as mpmath matrices; with sectors, the even
    and odd parts under the mode reversal of a centrosymmetric state."""
    out = []
    for block in (sigma[0::2, 0::2], sigma[1::2, 1::2]):
        if not sectors:
            out.append((mpmath.matrix(block.tolist()),))
            continue
        m = block.shape[0] // 2
        near = mpmath.matrix(block[:m, :m].tolist())
        far = mpmath.matrix(block[:m, m:][:, ::-1].tolist())
        out.append((near + far, near - far))
    return list(zip(*out))


def _mp_fidelity(sigma_1, sigma_2, sectors=True):
    """Fidelity at 30 digits of two exact float64 CMs with no phi-pi block.

    For centrosymmetric states of an even number of modes, the mode reversal
    is a passive symplectic that splits both states into even and odd
    sectors, so F is the product of two half-size fidelities (8x less work
    for mpmath's eigensolver)."""
    with mpmath.workdps(30):
        pairs = zip(_mp_blocks(sigma_1, sectors), _mp_blocks(sigma_2, sectors))
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
    return pair[0], pair[1], _mp_fidelity(pair[0], pair[1])


MP_CASES = [(30, 10), (30, 30), (50, 50), (150, 50)]


class TestFidelityAgainstMpmath:
    def test_sector_split_matches_full_computation(self):
        source, target, want = _table_pair(30, 10, 6.0)
        full = _mp_fidelity(source, target, sectors=False)
        assert abs(full / want - 1) < 1e-20

    @pytest.mark.parametrize("z", [1.0, 6.0])
    @pytest.mark.parametrize("chain_size,window", MP_CASES)
    def test_table_window_within_1e8(self, chain_size, window, z):
        source, target, want = _table_pair(chain_size, window, z)
        got = fidelity(source, target)
        assert abs(got / float(want) - 1.0) < 1e-8

    def test_sqrtm_route_misses_on_large_windows(self):
        # the route the package used before, off by ~sqrt(eps) per near-unit w_k
        misses = [abs(sqrtm_fidelity(s, t) / float(f) - 1.0)
                  for s, t, f in (_table_pair(c, w, z) for c, w in MP_CASES for z in (1.0, 6.0))]
        assert max(misses) > 1e-7


class TestGlobalSqueezeOptimizer:
    def test_evaluations_per_search_on_tables(self, monkeypatch):
        counts = []
        real = gaussian.fidelity

        def counted(*args):
            counts[-1] += 1
            return real(*args)

        monkeypatch.setattr(gaussian, "fidelity", counted)
        for table in (4, 5, 6):
            chain_size = golden.TABLES[table][1]["chain_size"]
            for row in golden.load_table(table):
                counts.append(-1)  # fidelity_cell's raw fidelity is no search step
                experiments.fidelity_cell(chain_size, int(row["region_size"]))
        assert len(counts) == 65
        assert max(counts) <= 32

    def test_self_target_recovers_unit_squeeze(self, chain30):
        source = restrict(chain30.cm, range(10, 20))
        z_star, f_star = optimize_global_squeeze(source, source)
        # the fidelity plateau is flat to round-off within ~1e-4 of z = 1
        assert abs(z_star - 1.0) < 1e-3
        assert f_star > 1.0 - 1e-9

    def test_beats_raw_fidelity(self, chain30, field_spec):
        from ionmodes import scalar_field
        source = restrict(chain30.cm, range(13, 17))
        target = scalar_field.scalar_vacuum_cm(4, field_spec)
        raw = fidelity(source, target)
        z_star, f_star = optimize_global_squeeze(source, target)
        assert f_star >= raw
        assert z_star > 1.0  # chain modes need positive squeeze towards the lattice vacuum

    def test_optimum_is_stationary(self, chain30, field_spec):
        from ionmodes import scalar_field
        source = restrict(chain30.cm, range(13, 17))
        target = scalar_field.scalar_vacuum_cm(4, field_spec)
        z_star, f_star = optimize_global_squeeze(source, target)
        n = 4
        for eps in (1e-3, -1e-3):
            s = single_mode_squeeze(n, z_star * (1.0 + eps))
            perturbed = fidelity(apply_symplectic(source, s), target)
            assert perturbed <= f_star + 1e-12
