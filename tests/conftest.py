"""Shared fixtures and random-state helpers for the test suite."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm, sqrtm

from ionmodes import experiments, fock, gaussian, ion_chain, numerics, scalar_field


def random_physical_cm(rng, n_modes, thermal_max=2.0, strength=0.6):
    """Random physical covariance matrix S diag(nu) S^T with nu >= 1.

    S = expm(Omega H) for a random symmetric H is symplectic, so the
    symplectic spectrum of the result is exactly the chosen nu vector.
    """
    h = rng.normal(scale=strength, size=(2 * n_modes, 2 * n_modes))
    h = 0.5 * (h + h.T)
    s = expm(gaussian.symplectic_form(n_modes) @ h)
    nu = rng.uniform(1.0, thermal_max, size=n_modes)
    return s @ np.diag(np.repeat(nu, 2)) @ s.T, s, nu


def random_local_symplectic(rng, n_modes, z_max=1.8):
    """Block-diagonal (mode-local) symplectic: rotation, squeeze, rotation."""
    s = np.eye(2 * n_modes)
    for j in range(n_modes):
        for factor in (
                gaussian.single_mode_rotation(n_modes, rng.uniform(0, 2 * np.pi), [j]),
                gaussian.single_mode_squeeze(n_modes, rng.uniform(1.0 / z_max, z_max), [j]),
                gaussian.single_mode_rotation(n_modes, rng.uniform(0, 2 * np.pi), [j])):
            s = factor @ s
    return s


def recursive_hafnian(b):
    """Textbook recursion: pair index 0 with every partner."""
    n = b.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n % 2 == 1:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    rest = list(range(1, n))
    for t, j in enumerate(rest):
        keep = rest[:t] + rest[t + 1:]
        total += b[0, j] * recursive_hafnian(b[np.ix_(keep, keep)])
    return total


def haf_recurse(a, r, memo=None):
    """Hafnian of a with row/column j repeated r[j] times, for a tuple of
    ints r, by the memoized recursion fock.matrix_element ran before its
    hafnian grid.

    Pair-expansion recursion on the multiplicity vector, memoized on memo
    (a new dict per call unless one is passed): expanding the first
    occupied index i over its partners, the same-index branch carries
    weight (r_i - 1) a_ii and each cross branch weight r_j a_ij.  Identical
    to the hafnian of the explicitly expanded matrix, at polynomial cost in
    max(r).
    """
    if memo is None:
        memo = {}
    if not any(r):
        return 1.0 + 0.0j
    hit = memo.get(r)
    if hit is not None:
        return hit
    i = next(k for k, c in enumerate(r) if c > 0)
    total = 0.0 + 0.0j
    if r[i] >= 2:
        reduced = list(r)
        reduced[i] -= 2
        total += (r[i] - 1) * a[i, i] * haf_recurse(a, tuple(reduced), memo)
    for j in range(len(r)):
        if j != i and r[j] > 0:
            reduced = list(r)
            reduced[i] -= 1
            reduced[j] -= 1
            total += r[j] * a[i, j] * haf_recurse(a, tuple(reduced), memo)
    memo[r] = total
    return total


def haf_element(h, bra, ket, memo=None):
    """<bra| rho |ket> of the state behind a fock.HusimiData by haf_recurse,
    as fock.matrix_element computed it before its hafnian grid."""
    norm = h.sqrt_det_sigma_q * math.sqrt(
        math.prod(math.factorial(k) for k in bra) * math.prod(math.factorial(k) for k in ket))
    return haf_recurse(h.a_mat, tuple(ket) + tuple(bra), memo) / norm


def hafnian_deficit(sigma, dim):
    """Qudit subspace deficit by the route fock.qudit_subspace_deficit took
    before its pure-state amplitude recurrence, for mixed states too: the
    direct complement 1 - (sum of the D^2 diagonal elements from
    haf_element, one memo for all), and, once that falls below 1e-6, a sum of
    diagonal elements over occupancy shells max(m1, m2) >= D up to shell 32
    that stops after two shells below fock.TAIL_RELATIVE_TOL of the total.

    The complement cancels: it misses a 30-digit reference by 1.7e-11
    relative on the raw two-ion state at D = 6.
    """
    h = fock.husimi_data(sigma)
    memo = {}

    def probability(occ):
        value = haf_element(h, occ, occ, memo)
        assert abs(value.imag) <= 1e-10 * max(1.0, abs(value.real))
        return value.real

    deficit = 1.0 - math.fsum(
        probability((m1, m2)) for m1 in range(dim) for m2 in range(dim))
    if deficit >= 1e-6:
        return deficit
    total = 0.0
    quiet_shells = 0
    for shell in range(dim, 33):
        contribution = probability((shell, shell))
        for other in range(shell):
            contribution += probability((shell, other))
            contribution += probability((other, shell))
        total += contribution
        if abs(contribution) <= max(1e-30, fock.TAIL_RELATIVE_TOL * abs(total)):
            quiet_shells += 1
            if quiet_shells >= 2:
                return total
        else:
            quiet_shells = 0
    raise numerics.NumericalError("occupancy tail failed to converge by shell 32")


def outside(length, sites):
    """Sites of a lattice of `length` sites that are not in `sites`, in order."""
    inside = set(sites)
    return [i for i in range(length) if i not in inside]


def sqrtm_fidelity(sigma_1, sigma_2):
    """Uhlmann fidelity by the matrix-square-root route that gaussian.fidelity
    used before its auxiliary-spectrum form: F^4 = det(2 (sqrt(1 +
    (V_aux Omega)^-2 / 4) + 1) V_aux) / det(V_1 + V_2), hbar = 1 units.

    Loses ~sqrt(eps) per auxiliary eigenvalue w_k near 1, and sqrtm meets a
    singular matrix when either state is pure, so compare it on mixed pairs
    only.
    """
    n = sigma_1.shape[0] // 2
    v1 = 0.5 * np.asarray(sigma_1, dtype=float)
    v2 = 0.5 * np.asarray(sigma_2, dtype=float)
    omega = gaussian.symplectic_form(n)
    vsum = v1 + v2
    vaux = omega.T @ np.linalg.solve(vsum, 0.25 * omega + v2 @ omega @ v1)
    t = vaux @ omega
    root = sqrtm(np.eye(2 * n) + 0.25 * np.linalg.inv(t @ t))
    if np.iscomplexobj(root):
        root = root.real
    _, logdet_n = np.linalg.slogdet(2.0 * (root + np.eye(2 * n)) @ vaux)
    _, logdet_d = np.linalg.slogdet(vsum)
    return float(np.exp(0.25 * (logdet_n - logdet_d)))


def cm_blocks(sigma):
    """The (Phi, Pi) pair of an interleaved CM with no phi-pi cross block."""
    sigma = np.asarray(sigma, dtype=float)
    assert not (sigma[0::2, 1::2].any() or sigma[1::2, 0::2].any())
    return sigma[0::2, 0::2], sigma[1::2, 1::2]


def fidelity_pair(chain_size, window):
    """The (source, target) (Phi, Pi) pairs `experiments.fidelity_cell` hands
    its squeeze search: the centered chain window and the lattice vacuum
    window of the same size.  The search itself does not run."""
    handed = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gaussian, "optimize_global_squeeze", lambda *pair: handed.append(pair))
        experiments.fidelity_cell(chain_size, window)
    (pair,) = handed
    return pair


def block_state(rng, n, mix):
    """Random physical CM with no phi-pi cross block: Pi >= Phi^-1, with
    equality (a pure state) when mix is 0."""
    a = rng.normal(size=(n, n))
    phi = a @ a.T + 0.2 * np.eye(n)
    b = rng.normal(size=(n, n))
    return gaussian.from_blocks(phi, np.linalg.inv(phi) + mix * (b @ b.T))


# largest imaginary part of a float64 auxiliary spectrum from `eigvals`,
# relative to its largest magnitude, still taken for round-off
AUX_IMAG_TOL = 1e-6


def _fidelity_from_excess(excess, logdet):
    """F from the w_k^2 - 1 as a non-symmetric eigensolver returns them,
    after checking that they are real and not below -gaussian.AUX_UNIT_TOL,
    by the formula of gaussian._log_fidelity_from_aux."""
    scale = max(1.0, float(np.abs(excess).max()))
    if float(np.abs(excess.imag).max()) > AUX_IMAG_TOL * scale:
        raise numerics.NumericalError("auxiliary symplectic spectrum is not real")
    excess = excess.real
    low = float(excess.min())
    if low < -gaussian.AUX_UNIT_TOL:
        raise numerics.NumericalError(
            "auxiliary symplectic eigenvalue below 1: w^2 - 1 = %.3e" % low)
    return float(np.exp(gaussian._log_fidelity_from_aux(np.sqrt(np.clip(excess, 0.0, None)),
                                                         logdet)))


def interleaved_fidelity(sigma_1, sigma_2):
    """Fidelity of any two states, with or without a phi-pi cross block, by
    the route gaussian.fidelity took for crossed pairs before it required
    cross-free ones: the auxiliary matrix V_aux of Banchi, Braunstein &
    Pirandola, whose 2n x 2n V_aux Omega has eigenvalues +-i w_k / 2
    (hbar = 1 convention, vacuum CM 1/2).

    The error of the non-symmetric `eigvals` scales with the largest w_k^2,
    so pairs squeezed far apart miss by up to 1e-2 or raise; compare it on
    pairs at their unsqueezed conditioning.
    """
    n = sigma_1.shape[0] // 2
    v1 = 0.5 * np.asarray(sigma_1, dtype=float)
    v2 = 0.5 * np.asarray(sigma_2, dtype=float)
    omega = gaussian.symplectic_form(n)
    vsum = v1 + v2
    solved = np.linalg.solve(vsum, 0.25 * omega + v2 @ omega @ v1)
    sign, logdet = np.linalg.slogdet(vsum)
    assert sign > 0.0
    vals = np.linalg.eigvals(omega.T @ solved @ omega)
    # the upper member i w_k / 2 of each conjugate pair
    w = -2j * vals[np.argsort(vals.imag)[n:]]
    return _fidelity_from_excess(w * w - 1.0, float(logdet))


def two_pencil_objective(source, target):
    """F(S_z source S_z^T, target) of two (Phi, Pi) states as a function of
    ln z, as gaussian._cross_free_fidelity computed it before its Gram form
    (`two_cholesky_objective`).

    With X, Y the sums of the phi and pi blocks, D_i = Pi_i - Phi_i^-1 and
    R = Phi_1 X^-1 Phi_2, the w_k^2 - 1 are the eigenvalues of
    Y^-1 D_2 R D_1.  The congruences C_X, C_Y that take the pencils
    (Phi_1, Phi_2) to (diag(alpha), 1) and (Pi_1, Pi_2) to (diag(beta), 1)
    give, with s = z^2,

        w_k^2 - 1 = eig(diag(alpha / (s alpha + 1)) F diag(s / (beta + s)) E),
        E = C_Y^T D_2 C_X^-T,  F = C_X^-1 D_1 C_Y,
        ln det X Y = ln det Phi_2 Pi_2 + sum log1p(s alpha) + sum log1p(beta / s).

    Float64 `eigvals` returns the many near-zero w_k^2 - 1 as +-1e-18
    noise, and the square roots of the positive half bias F upwards by up
    to 4.7e-9 on 50-mode table windows.
    """
    (phi_1, pi_1), (phi_2, pi_2) = source, target
    n = phi_1.shape[0]

    def pencil(source_block, target_block):
        chol = np.linalg.cholesky(target_block)
        half = np.linalg.solve(chol, source_block)
        lam, vecs = np.linalg.eigh(np.linalg.solve(chol, half.T))
        return lam, vecs, chol

    alpha, u, chol_x = pencil(phi_1, phi_2)
    beta, v, chol_y = pencil(pi_1, pi_2)

    def in_bases(defect):
        # C_Y^T D C_X^-T = V^T L_Y^-1 D L_X U; F is this form of D_1, transposed
        return v.T @ np.linalg.solve(chol_y, defect @ chol_x) @ u

    e_mat = in_bases(pi_2 - np.linalg.inv(phi_2))
    f_mat = in_bases(pi_1 - np.linalg.inv(phi_1)).T
    logdet_0 = 2.0 * float(np.log(np.diag(chol_x)).sum() + np.log(np.diag(chol_y)).sum())
    logdet_0 -= 2 * n * np.log(2.0)

    def objective(ln_z):
        s = np.exp(2.0 * ln_z)
        scale_e = s / (beta + s)
        scale_f = alpha / (s * alpha + 1.0)
        excess = np.linalg.eigvals((scale_f[:, None] * f_mat * scale_e) @ e_mat)
        logdet = logdet_0 + float(np.log1p(s * alpha).sum() + np.log1p(beta / s).sum())
        return _fidelity_from_excess(excess, logdet)

    return objective


def two_cholesky_objective(source, target):
    """F(S_z source S_z^T, target) of two (Phi, Pi) states as a function of
    ln z, as gaussian._cross_free_fidelity computed it before its stacked
    Gram matrix: full n-column defect factors F_i, whose eigenvalues at or
    below the rank cutoff of `gaussian._defect_factor` leave zero columns,
    and per step two n x n Choleskys,

        G = 1 + g_1^T g_1 = L_G L_G^T,  W = L_G^-1 g_1^T g_2,
        H = 1 + g_2^T g_2 - W^T W = L_H L_H^T,
        sqrt(w_k^2 - 1) = singular values of L_H^-1 W^T,
        det(1 + d_1 + d_2) = det G det H,

    with g_1, g_2 and ln det X Y as in the package kernel.
    """
    (phi_1, pi_1), (phi_2, pi_2) = source, target
    n = phi_1.shape[0]
    chol = np.linalg.cholesky(phi_2)
    half = np.linalg.solve(chol, phi_1)
    alpha, u = np.linalg.eigh(np.linalg.solve(chol, half.T))
    basis = chol @ u  # C_X^-T

    def full_factor(phi, pi):
        mu, vecs = np.linalg.eigh(basis.T @ gaussian._defect(phi, pi) @ basis)
        assert mu[0] >= -gaussian.AUX_UNIT_TOL * max(1.0, float(np.abs(mu).max()))
        mu[mu <= n * np.finfo(float).eps * max(float(mu[-1]), 0.0)] = 0.0
        return vecs * np.sqrt(mu)

    f_1, f_2 = full_factor(phi_1, pi_1), full_factor(phi_2, pi_2)
    eye = np.eye(n)

    def objective(ln_z):
        s_alpha = np.exp(2.0 * ln_z) * alpha
        g_1 = np.sqrt(alpha / (1.0 + s_alpha))[:, None] * f_1
        g_2 = np.sqrt(s_alpha / (1.0 + s_alpha))[:, None] * f_2
        chol_g = np.linalg.cholesky(eye + g_1.T @ g_1)
        w = np.linalg.solve(chol_g, g_1.T @ g_2)
        chol_h = np.linalg.cholesky(eye + g_2.T @ g_2 - w.T @ w)
        roots = np.linalg.svd(np.linalg.solve(chol_h, w.T), compute_uv=False)
        logdet = float(np.log1p(s_alpha).sum() + np.log1p(1.0 / s_alpha).sum())
        logdet += 2.0 * float(np.log(np.diag(chol_g)).sum() + np.log(np.diag(chol_h)).sum())
        return float(np.exp(gaussian._log_fidelity_from_aux(roots, logdet - 2 * n * np.log(2.0))))

    return objective


def sqrt_spectrum(sigma):
    """Symplectic spectrum by the route gaussian.symplectic_spectrum took
    before its Cholesky form: the ordinary eigenvalues of sigma^(1/2)
    Omega^T sigma Omega sigma^(1/2) are the nu_k^2, each doubled, with
    sigma^(1/2) from numerics.principal_sqrt.

    Squaring the spectrum costs it ~1e-13 absolute near nu = 1, where the
    Cholesky route keeps ~1e-16.
    """
    sigma, n = gaussian.validate_cm(sigma)
    if np.linalg.eigvalsh(sigma)[0] <= 0.0:
        raise numerics.NumericalError("covariance matrix is not positive definite")
    root = numerics.principal_sqrt(sigma)
    omega = gaussian.symplectic_form(n)
    nu = np.sort(np.sqrt(np.abs(np.linalg.eigvalsh(root @ omega.T @ sigma @ omega @ root))))
    assert np.abs(nu[0::2] - nu[1::2]).max() <= 1e-6 * max(1.0, nu[-1])
    return 0.5 * (nu[0::2] + nu[1::2])


def partial_transpose(sigma, region_b):
    """Momentum-sign flip on the modes of region B, as a 2n x 2n copy: the
    route gaussian.log_negativity took before it applied the flip as a sign
    on Omega (may leave the matrix unphysical, which is the point)."""
    sigma, n = gaussian.validate_cm(sigma)
    signs = np.ones(2 * n)
    for b in set(int(m) for m in region_b):
        if b < 0 or b >= n:
            raise ValueError("region-B mode index out of range")
        signs[2 * b + 1] = -1.0
    return sigma * np.outer(signs, signs)


def transposed_negativity(sigma, region_b):
    """Log-negativity (base 2) from the symplectic spectrum of the partially
    transposed copy, nu_k within gaussian.NU_UNIT_TOL of 1 counted as 1."""
    total = 0.0
    for v in gaussian.symplectic_spectrum(partial_transpose(sigma, region_b)):
        if v < 1.0 - gaussian.NU_UNIT_TOL:
            total -= np.log2(v)
    return total


def plain_gradient(z, rows):
    """Potential gradient at the given ions as ion_chain._gradient computed
    it before ion_chain._derivatives took it and the Hessian rows from one
    difference array (round-off floor ~1e-11 for large N)."""
    diff = z[rows, None] - z[None, :]
    diff[np.arange(len(rows)), rows] = np.inf
    return 2.0 * z[rows] - 2.0 * np.sum(np.sign(diff) / diff**2, axis=1)


def hessian_rows(z, rows):
    """The given rows of the potential Hessian as ion_chain._hessian_rows
    computed them before ion_chain._derivatives."""
    dist = np.abs(z[rows, None] - z[None, :])
    diagonal = np.arange(len(rows)), rows
    dist[diagonal] = np.inf
    coupling = 2.0 / dist**3
    hess = -coupling
    hess[diagonal] = 1.0 + np.sum(coupling, axis=1)
    return hess


def build_hessian(positions):
    """Full n x n Hessian of the dimensionless potential at the given
    positions (twice the dynamical matrix; the mutual Coulomb term counted
    once per ordered pair): every row of `hessian_rows`, for the
    full-matrix oracles."""
    z = np.asarray(positions, dtype=float)
    return hessian_rows(z, np.arange(len(z)))


def fsum_gradient_compensated(z, rows):
    """Potential gradient at the given ions as ion_chain._gradient_compensated
    computed it before its TwoSum cascade: the same array of terms, each row
    summed exactly rounded by math.fsum."""
    diff = z[rows, None] - z[None, :]
    diff[np.arange(len(rows)), rows] = np.inf
    terms = -np.copysign(2.0, diff) / diff**2
    terms[np.arange(len(rows)), rows] = 2.0 * z[rows]
    return np.array([math.fsum(row) for row in terms.tolist()])


def loop_gradient_compensated(z, rows):
    """Potential gradient at the given ions as ion_chain._gradient_compensated
    computed it before it built its terms in one array: a loop over ion
    pairs, one exactly rounded math.fsum per ion.  Its scalar d**2 goes
    through pow, which misses the array's d * d by an ulp now and then, so
    its sums differ from fsum_gradient_compensated's in the last bits at 230
    of the 299 equilibria of 2..300 ions."""
    out = np.empty(len(rows))
    for k, i in enumerate(rows):
        terms = [2.0 * z[i]]
        for j in range(len(z)):
            if j == i:
                continue
            d = z[i] - z[j]
            terms.append(-math.copysign(2.0, d) / d**2)
        out[k] = math.fsum(terms)
    return out


def _full_newton_finish(z):
    """The exactly summed second phase of the full-matrix equilibrium route:
    Newton on all n positions with the full Hessian, symmetrizing the
    iterate before each gradient."""
    rows = np.arange(len(z))
    for _ in range(10):
        z = 0.5 * (z - z[::-1])
        grad = ion_chain._gradient_compensated(z, rows)
        if float(np.abs(grad).max()) <= ion_chain.GRADIENT_TOL:
            return z
        step = np.linalg.solve(2.0 * build_hessian(z), grad)
        if float(np.abs(step).max()) <= 4.0 * np.spacing(np.abs(z).max()):
            return z
        z = z - step
    raise numerics.NumericalError("full equilibrium iteration did not converge")


def full_solve_equilibrium(n_ions):
    """Equilibrium positions as ion_chain.solve_equilibrium found them before
    it reduced the chain to its upper half: full Newton steps on all n
    positions, with the full n x n Hessian."""
    n = int(n_ions)
    if n == 1:
        return np.zeros(1)
    rows = np.arange(n)
    half = 0.5 * n ** (2.0 / 3.0)
    z = np.linspace(-half, half, n)
    for _ in range(100):
        grad = plain_gradient(z, rows)
        if float(np.abs(grad).max()) < 1e-9:
            break
        z = z - np.linalg.solve(2.0 * build_hessian(z), grad)
    return _full_newton_finish(z)


def full_chain_modes(hessian):
    """(frequencies, modes) of a chain Hessian by one eigh of the full
    matrix, without the split by mirror parity; modes[k] is the k-th mode
    vector, of either sign."""
    vals, vecs = np.linalg.eigh(hessian)
    return np.sqrt(vals), vecs.T


def full_hessian_split(positions):
    """Eigenpairs of the even and odd blocks of the chain Hessian as
    ion_chain._mirror_modes found them before it read only the upper and
    centre rows: split from the full n x n matrix of build_hessian, with
    the same eigh and Newton-Schulz step, in the same layout."""
    h = build_hessian(positions)
    n = len(h)
    upper = np.arange(n - n // 2, n)
    lower = n - 1 - upper
    rows = h[upper]
    even = rows[:, upper] + rows[:, lower]
    if n % 2:
        coupling = math.sqrt(2.0) * rows[:, n // 2]
        even = np.block([[h[n // 2, n // 2], coupling], [coupling[:, None], even]])
    pairs = []
    for block in (even, rows[:, upper] - rows[:, lower]):
        vals, vecs = np.linalg.eigh(block)
        pairs.append((vals, 0.5 * vecs @ (3.0 * np.eye(len(vals)) - vecs.T @ vecs)))
    return pairs


def parity_mode_vectors(positions):
    """(frequencies, modes) of the chain at the given positions from the
    even and odd eigenpairs of ion_chain._mirror_modes, the even modes
    first, in no order of frequency and of either sign: an even vector v
    puts v / sqrt 2 on the upper ions and on their mirror images, an odd
    one v / sqrt 2 and -v / sqrt 2, and for odd n an even vector's first
    entry is the centre ion's."""
    (even_vals, even_vecs), (odd_vals, odd_vecs) = ion_chain._mirror_modes(positions)
    n, k = len(positions), len(even_vals)
    centred = k - len(odd_vals)
    upper = np.arange(n - n // 2, n)
    lower = n - 1 - upper
    modes = np.zeros((n, n))
    modes[:k, upper] = modes[:k, lower] = even_vecs[centred:].T / math.sqrt(2.0)
    modes[k:, upper] = odd_vecs.T / math.sqrt(2.0)
    modes[k:, lower] = -modes[k:, upper]
    if centred:
        modes[:k, n // 2] = even_vecs[0]
    return np.sqrt(np.concatenate((even_vals, odd_vals))), modes


def full_chain_blocks(n_ions):
    """(frequencies, Phi, Pi) of the n-ion ground state by the full-matrix
    route."""
    freqs, modes = full_chain_modes(build_hessian(full_solve_equilibrium(n_ions)))
    return (freqs, *ion_chain.local_mode_blocks(freqs, modes))


def damped_solve_equilibrium(n_ions):
    """Equilibrium positions as the full-matrix route found them when its
    first phase backtracked: each Newton step halved until the iterate
    stayed ascending and its plain gradient fell, stopping at a 1e-8
    scale."""
    n = int(n_ions)
    if n == 1:
        return np.zeros(1)
    rows = np.arange(n)
    half = 0.5 * n ** (2.0 / 3.0)
    z = np.linspace(-half, half, n)
    for _ in range(100):
        grad = plain_gradient(z, rows)
        norm = float(np.abs(grad).max())
        if norm < 1e-9:
            break
        step = np.linalg.solve(2.0 * build_hessian(z), grad)
        scale = 1.0
        while scale > 1e-8:
            trial = z - scale * step
            if (np.all(np.diff(trial) > 0.0)
                    and float(np.abs(plain_gradient(trial, rows)).max()) < norm):
                break
            scale *= 0.5
        if scale <= 1e-8:
            break
        z = trial
    return _full_newton_finish(z)


def panel_loop_quad(f, delta, inner_scale=None, nodes_per_panel=24):
    """Brillouin-zone quadrature as numerics.quad_oscillatory computed it
    before it went to whole arrays: the same panels and Gauss-Legendre
    rule, with f called once per panel and sign of k, summed in that
    order."""
    edges = numerics._panel_edges(delta, inner_scale)
    x, w = leggauss(nodes_per_panel)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        for sign in (1.0, -1.0):
            k = sign * (half * x + mid)
            total += half * float(np.dot(w, f(k)))
    return total / (2.0 * np.pi)


def loop_panel_edges(delta, inner_scale):
    """Panel boundaries as numerics._panel_edges built them before its single
    array expression: one np.linspace per coarse panel wider than the cap."""
    edges = [np.pi]
    if inner_scale is not None:
        floor = max(float(inner_scale), 1e-13)
        e = np.pi
        while e > 8.0 * floor:
            e *= 0.5
            edges.append(e)
    edges.append(0.0)
    edges = np.array(sorted(set(edges)))
    width_cap = np.pi / (2.0 * max(1, abs(int(delta))))
    refined = [0.0]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo <= width_cap:
            refined.append(hi)
        else:
            pieces = int(np.ceil((hi - lo) / width_cap))
            refined.extend(np.linspace(lo, hi, pieces + 1)[1:])
    return np.array(refined)


def quad_entries(mass, separation):
    """(<phi_0 phi_d>, <pi_0 pi_d>) by the Brillouin-zone quadrature that
    gave the lattice entries before their closed form in scalar_field: one
    numerics.quad_oscillatory each over cos(k d) / omega_k and
    cos(k d) * omega_k, both halves of the zone, with omega_k recomputed in
    every integrand call (the one half-zone pass that followed it gave the
    same floats).  It is off the closed form by up to 4.04e-12
    (test_scalar_field.QUAD_ERROR)."""
    d = abs(int(separation))

    def omega(k):
        return np.sqrt(mass**2 + 4.0 * np.sin(0.5 * k) ** 2)

    phi = numerics.quad_oscillatory(lambda k: np.cos(k * d) / omega(k), d, inner_scale=mass)
    pi = numerics.quad_oscillatory(lambda k: np.cos(k * d) * omega(k), d, inner_scale=mass)
    return phi, pi


def tmsv_cm(r):
    """Two-mode squeezed vacuum CM in the interleaved basis."""
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    phi = np.array([[c, s], [s, c]])
    pi = np.array([[c, -s], [-s, c]])
    return gaussian.from_blocks(phi, pi)


@pytest.fixture(scope="session")
def two_ion_cm():
    return experiments.chain_model(2).cm


@pytest.fixture(scope="session")
def three_ion_model():
    return experiments.chain_model(3)


@pytest.fixture(scope="session")
def field_spec():
    return scalar_field.ScalarFieldSpec()


@pytest.fixture(scope="session")
def chain30():
    return experiments.chain_model(30)
