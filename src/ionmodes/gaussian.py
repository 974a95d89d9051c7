"""Gaussian-state operations on covariance matrices.

Covariance matrices are real symmetric 2n x 2n arrays over the interleaved
quadrature basis (phi_1, pi_1, ..., phi_n, pi_n), normalized so the vacuum
is the identity, with the symplectic form the direct sum of n copies of
[[0, 1], [-1, 0]].  The cross-free routes (`measure_pure_complement`,
`fidelity`, `optimize_global_squeeze`) take and return a state with no
phi-pi cross block as its (Phi, Pi) pair of n x n blocks instead.
"""

import math

import numpy as np

from ionmodes.numerics import SYMMETRY_TOL, NumericalError, integer_list, maximize_1d, positive

__all__ = [
    "symplectic_form",
    "from_blocks",
    "validate_cm",
    "assert_physical",
    "restrict",
    "condition_homodyne",
    "measure_pure_complement",
    "apply_symplectic",
    "assert_symplectic",
    "single_mode_squeeze",
    "single_mode_rotation",
    "symplectic_spectrum",
    "log_negativity",
    "entanglement_entropy",
    "fidelity",
    "optimize_global_squeeze",
]

# symplectic eigenvalues within this window of 1 are treated as exactly 1
NU_UNIT_TOL = 1e-9

# max-norm residual allowed in S Omega S^T = Omega
SYMPLECTIC_TOL = 1e-10

# physicality margin for sigma + i Omega >= 0
PHYSICALITY_TOL = 1e-9

# Brent tolerance in ln z for the global squeeze optimization;
# tight enough that reported argmax inherits no optimizer wobble at the
# 1e-4 level where golden values are printed
LN_Z_TOL = 1e-7

SQUEEZE_BRACKET = (0.5, 20.0)

# fidelity: an eigenvalue of a defect Pi - Phi^-1 in the pencil basis below
# -AUX_UNIT_TOL times max(1, the largest) means an unphysical state, whose
# auxiliary symplectic eigenvalues could fall below 1
AUX_UNIT_TOL = 1e-9


def symplectic_form(n_modes):
    """The 2n x 2n symplectic form in the interleaved basis."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    return omega


def from_blocks(phi_block, pi_block):
    """Assemble an interleaved CM with no phi-pi cross block from its two blocks."""
    phi_block = np.asarray(phi_block, dtype=float)
    pi_block = np.asarray(pi_block, dtype=float)
    n = phi_block.shape[0]
    sigma = np.zeros((2 * n, 2 * n))
    sigma[0::2, 0::2] = phi_block
    sigma[1::2, 1::2] = pi_block
    return sigma


def _check_finite_symmetric(mat, what):
    """Require finite entries and symmetry to SYMMETRY_TOL max(1, largest entry)."""
    largest = float(np.abs(mat).max())
    if not math.isfinite(largest):
        raise NumericalError("%s has non-finite entries" % what)
    if float(np.abs(mat - mat.T).max()) > SYMMETRY_TOL * max(1.0, largest):
        raise ValueError("%s is not symmetric" % what)


def validate_cm(sigma):
    """Check shape, finiteness and symmetry; return (sigma, n_modes)."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise ValueError("covariance matrix must be square of even dimension")
    if not sigma.size:
        raise ValueError("covariance matrix needs at least one mode")
    _check_finite_symmetric(sigma, "covariance matrix")
    return sigma, sigma.shape[0] // 2


def _validate_blocks(*named):
    """Check (name, block) pairs: square blocks of one mode count, finite and
    symmetric; return the blocks as float arrays."""
    blocks = [np.asarray(block, dtype=float) for _, block in named]
    shape = blocks[0].shape
    for (name, _), block in zip(named, blocks):
        if block.ndim != 2 or block.shape != shape or shape[0] != shape[1] or not block.size:
            raise ValueError("phi and pi blocks must be square and of one mode count")
        _check_finite_symmetric(block, name + " block")
    return blocks


def assert_physical(sigma):
    """Require sigma + i Omega >= 0 (up to -PHYSICALITY_TOL on its minimum eigenvalue)."""
    sigma, n = validate_cm(sigma)
    omega = symplectic_form(n)
    # the real form of the Hermitian sigma + i Omega: same eigenvalues, each twice
    low = float(np.linalg.eigvalsh(np.block([[sigma, -omega], [omega, sigma]]))[0])
    if low < -PHYSICALITY_TOL:
        raise NumericalError("state is unphysical: min eig(sigma + i Omega) = %.3e" % low)


def _phase_space_indices(modes):
    out = []
    for m in modes:
        out.extend((2 * m, 2 * m + 1))
    return out


def restrict(sigma, modes):
    """Reduced state on the given modes, in the given order (partial trace
    of the rest)."""
    sigma, n = validate_cm(sigma)
    modes = integer_list(modes, "modes")
    if len(set(modes)) != len(modes):
        raise ValueError("duplicate mode indices")
    if not modes or min(modes) < 0 or max(modes) >= n:
        raise ValueError("mode indices out of range")
    idx = _phase_space_indices(modes)
    return sigma[np.ix_(idx, idx)]


def condition_homodyne(sigma, measured, quadrature):
    """State of the unmeasured modes after ideal homodyne measurement of one
    quadrature on each measured mode.

    The conditioned CM is the Schur complement of the measured-quadrature
    block; homodyne outcomes do not enter the covariance.  `quadrature` is
    "phi" or "pi".
    """
    sigma, n = validate_cm(sigma)
    measured = sorted(set(integer_list(measured, "measured")))
    if not measured:
        return sigma.copy()
    if measured[0] < 0 or measured[-1] >= n:
        raise ValueError("measured mode indices out of range")
    measured_set = set(measured)
    kept = [m for m in range(n) if m not in measured_set]
    if not kept:
        raise ValueError("cannot measure every mode")
    if quadrature == "phi":
        offset = 0
    elif quadrature == "pi":
        offset = 1
    else:
        raise ValueError("quadrature must be 'phi' or 'pi'")
    keep_idx = _phase_space_indices(kept)
    meas_idx = [2 * m + offset for m in measured]
    block = sigma[np.ix_(meas_idx, meas_idx)]
    cross = sigma[np.ix_(keep_idx, meas_idx)]
    try:
        solved = np.linalg.solve(block, cross.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("measured-quadrature block is singular") from exc
    out = sigma[np.ix_(keep_idx, keep_idx)] - cross @ solved
    return 0.5 * (out + out.T)


def measure_pure_complement(phi_block, pi_block, quadrature):
    """(Phi, Pi) of the kept modes of a pure state with no phi-pi cross
    block after homodyne measurement of one quadrature on every other mode.

    Such a state has Pi = Phi^-1, so the Schur complement of
    `condition_homodyne` has a closed form in the kept block of the
    unmeasured quadrature alone: measuring phi leaves the pi block Pi_K
    and replaces the phi block by Pi_K^-1; measuring pi leaves Phi_K and
    replaces the pi block by Phi_K^-1.  `phi_block` and `pi_block` are
    Phi_K and Pi_K over the kept modes; only the unmeasured one is read and
    validated.
    """
    kept_name = {"phi": "pi", "pi": "phi"}.get(quadrature)
    if kept_name is None:
        raise ValueError("quadrature must be 'phi' or 'pi'")
    kept, = _validate_blocks((kept_name, {"phi": phi_block, "pi": pi_block}[kept_name]))
    try:
        conditioned = np.linalg.inv(kept)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("%s-correlator restriction is singular" % kept_name) from exc
    conditioned = 0.5 * (conditioned + conditioned.T)
    return (conditioned, kept) if quadrature == "phi" else (kept, conditioned)


def assert_symplectic(s):
    """Require S Omega S^T = Omega up to SYMPLECTIC_TOL in the max norm."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
        raise ValueError("symplectic matrix must be square of even dimension")
    if not np.isfinite(s).all():
        raise NumericalError("symplectic matrix has non-finite entries")
    omega = symplectic_form(s.shape[0] // 2)
    residual = float(np.abs(s @ omega @ s.T - omega).max())
    if not residual <= SYMPLECTIC_TOL:
        raise NumericalError("matrix is not symplectic: residual %.3e" % residual)


def apply_symplectic(sigma, s):
    """Transform sigma -> S sigma S^T after validating that S is symplectic."""
    sigma, _ = validate_cm(sigma)
    assert_symplectic(s)
    out = s @ sigma @ s.T
    return 0.5 * (out + out.T)


def _embed_single_mode(n_modes, block, targets):
    targets = range(n_modes) if targets is None else integer_list(targets, "targets")
    s = np.eye(2 * n_modes)
    for t in targets:
        if t < 0 or t >= n_modes:
            raise ValueError("target mode out of range")
        s[2 * t:2 * t + 2, 2 * t:2 * t + 2] = block
    return s


def single_mode_squeeze(n_modes, z, targets=None):
    """diag(z, 1/z) on each target mode (all modes when targets is None); a
    z whose reciprocal overflows raises ValueError."""
    z = positive(z, "squeeze parameter z")
    if not 1.0 / z < math.inf:
        raise ValueError("squeeze parameter z = %r has no finite reciprocal" % z)
    return _embed_single_mode(n_modes, np.diag([z, 1.0 / z]), targets)


def single_mode_rotation(n_modes, phi, targets=None):
    """Passive phase-space rotation by phi on each target mode."""
    if not math.isfinite(phi):
        raise ValueError("rotation angle phi must be finite, got %r" % phi)
    c, s = np.cos(phi), np.sin(phi)
    return _embed_single_mode(n_modes, np.array([[c, s], [-s, c]]), targets)


def symplectic_spectrum(sigma):
    """Symplectic eigenvalues nu_k >= 0 of a positive-definite CM, ascending.

    With the Cholesky factor sigma = L L^T, the antisymmetric L^T Omega L is
    similar to sigma Omega, so its singular values are the nu_k, each twice.
    """
    sigma, n = validate_cm(sigma)
    return _spectrum(sigma, np.ones((n, 1)))


def _spectrum(sigma, signs):
    """Symplectic spectrum of D sigma D for a validated sigma, where D = -1 on
    the momenta of the modes j with signs[j] = -1, an n x 1 column of +-1
    (a partial transpose on those modes).

    D sigma D = (D L D)(D L D)^T, so its nu_k are the singular values of
    L^T (D Omega D) L: Omega with the flipped modes' 2 x 2 blocks negated.
    """
    chol = _cholesky(sigma, "covariance matrix")
    # Omega_D L: each row pair (2j, 2j+1) of L becomes signs[j] (row 2j+1, -row 2j)
    omega_chol = np.stack((signs * chol[1::2], -signs * chol[0::2]), axis=1).reshape(chol.shape)
    nu = np.linalg.svd(chol.T @ omega_chol, compute_uv=False)[::-1]  # svd sorts descending
    pair_gap = float(np.abs(nu[0::2] - nu[1::2]).max())
    if pair_gap > 1e-6 * max(1.0, nu[-1]):
        raise NumericalError("symplectic spectrum failed to pair up (gap %.3e)" % pair_gap)
    return 0.5 * (nu[0::2] + nu[1::2])


def log_negativity(sigma, region_a, region_b):
    """Logarithmic negativity (base 2) across the A|B split.

    sigma must cover exactly the modes of A and B; trace out or condition
    away everything else first.  Partially transposed symplectic eigenvalues
    within 1e-9 of 1 are treated as exactly 1.

    A state with no phi-pi cross block (every table state) takes n x n
    factors: with Phi = L_Phi L_Phi^T and Pi = L_Pi L_Pi^T, the partial
    transpose replaces Pi by S_B Pi S_B, S_B = -1 on B's modes, and the
    nu_k are the n singular values of L_Phi^T S_B L_Pi, each once.  Any
    other state goes through the 2n x 2n kernel of `symplectic_spectrum`
    with the flip as a sign on Omega.
    """
    sigma, n = validate_cm(sigma)
    set_a = set(integer_list(region_a, "region_a"))
    set_b = set(integer_list(region_b, "region_b"))
    if set_a & set_b:
        raise ValueError("regions A and B overlap")
    if set_a | set_b != set(range(n)):
        raise ValueError("regions A and B must cover every mode of sigma")
    flipped = sorted(set_b)
    if _has_cross_block(sigma):
        signs = np.ones((n, 1))
        signs[flipped] = -1.0
        nu = _spectrum(sigma, signs)
    else:
        chol_phi = _cholesky(sigma[0::2, 0::2], "covariance matrix")
        chol_pi = _cholesky(sigma[1::2, 1::2], "covariance matrix")
        chol_pi[flipped] *= -1.0
        nu = np.linalg.svd(chol_phi.T @ chol_pi, compute_uv=False)
    return float(np.sum(-np.log2(nu[nu < 1.0 - NU_UNIT_TOL])))


def entanglement_entropy(sigma):
    """Von Neumann entropy (base 2) of a Gaussian state from its CM."""
    nu = symplectic_spectrum(sigma)
    total = 0.0
    for v in nu:
        if v < 1.0 - NU_UNIT_TOL:
            raise NumericalError("symplectic eigenvalue %.12g below 1" % v)
        if v <= 1.0 + NU_UNIT_TOL:
            continue
        up, down = 0.5 * (v + 1.0), 0.5 * (v - 1.0)
        total += up * np.log2(up) - down * np.log2(down)
    return total


def _cholesky(mat, what):
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("%s is not positive definite" % what) from exc


def _has_cross_block(sigma):
    """Whether an interleaved CM has any nonzero phi-pi cross entry."""
    return bool(sigma[0::2, 1::2].any() or sigma[1::2, 0::2].any())


def _defect(phi, pi):
    """Pi - Phi^-1, zero for a pure state with no phi-pi cross block."""
    try:
        return pi - np.linalg.inv(phi)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("phi block of a state is singular") from exc


def _validate_pair(source, target):
    """Validate two (Phi, Pi) states of one mode count."""
    (phi_1, pi_1), (phi_2, pi_2) = source, target
    blocks = _validate_blocks(("phi", phi_1), ("pi", pi_1), ("phi", phi_2), ("pi", pi_2))
    return blocks[:2], blocks[2:]


def _fidelity_from_aux(roots, logdet):
    """F from the sqrt(w_k^2 - 1) and ln det((sigma_1 + sigma_2) / 2), after
    checking that F does not exceed 1 beyond round-off; clamped to [0, 1]."""
    f = np.exp(0.25 * (2.0 * float(np.arcsinh(roots).sum()) - logdet))
    if f > 1.0 + 1e-6:
        raise NumericalError("fidelity %.6f exceeds 1 beyond tolerance" % f)
    return float(min(max(f, 0.0), 1.0))


def fidelity(state_1, state_2):
    """Uhlmann fidelity of two zero-mean Gaussian states with no phi-pi
    cross block, each given as its (Phi, Pi) pair of n x n blocks.

    Evaluated from the auxiliary symplectic spectrum w_k (Banchi, Braunstein
    & Pirandola, PRL 115, 260501, 2015) in the hbar = 1 convention (vacuum
    CM = 1/2):

        ln F = (1/4) [2 sum_k asinh sqrt(w_k^2 - 1) - ln det((sigma_1 + sigma_2) / 2)]

    by the squeeze search's objective at ln z = 0 (`_cross_free_fidelity`).
    Every table pair is of this kind.  No matrix square root is taken; the
    result is clamped to [0, 1].
    """
    return _cross_free_fidelity(*_validate_pair(state_1, state_2))(0.0)


def _defect_factor(defect, basis, what):
    """F with basis^T D basis = F F^T for the defect D = Pi - Phi^-1 >= 0 of a
    physical state, one column per positive eigenvalue; negative round-off is
    dropped, and an eigenvalue below -AUX_UNIT_TOL max(1, the largest) raises."""
    mu, vecs = np.linalg.eigh(basis.T @ defect @ basis)
    low = float(mu[0])
    if low < -AUX_UNIT_TOL * max(1.0, float(np.abs(mu).max())):
        raise NumericalError("%s state is unphysical: Pi - Phi^-1 has eigenvalue %.3e "
                             "in the pencil basis" % (what, low))
    return vecs[:, mu > 0.0] * np.sqrt(mu[mu > 0.0])


def _cross_free_fidelity(source, target):
    """F(S_z source S_z^T, target) as a function of ln z, for two validated
    (Phi, Pi) states of n modes: `fidelity` evaluates it at ln z = 0, the
    squeeze search at 0 and across its bracket.

    For such a pair, with D_i = Pi_i - Phi_i^-1 >= 0 (zero for a pure state)
    and R = (Phi_1^-1 + Phi_2^-1)^-1 = L L^T, the sum of the pi blocks is
    Y = R^-1 + D_1 + D_2, and the w_k^2 - 1 are the eigenvalues of
    (1 + d_1 + d_2)^-1 d_2 d_1 with d_i = L^T D_i L = g_i g_i^T, g_i of
    r_i = rank D_i columns.  Woodbury and push-through give them in Gram
    form, real and non-negative by construction, with no 1 to cancel: one
    Cholesky factorization of the Gram matrix K of M = [g_1 | g_2] gives all,

        K = 1 + M^T M = L_K L_K^T,  L_K = [[L_G, 0], [W^T, L_H]],  W = L_G^-1 g_1^T g_2,
        sqrt(w_k^2 - 1) = singular values of L_H^-1 W^T,  det(1 + d_1 + d_2) = det K.

    The squeeze rescales only the source: Phi_1 -> s Phi_1 and
    D_1 -> D_1 / s with s = z^2.  The congruence C_X that takes the pencil
    (Phi_1, Phi_2) to (diag(alpha), 1) gives L = C_X^-T diag(c) with
    c^2 = s alpha / (1 + s alpha), so with C_X^-1 D_i C_X^-T = F_i F_i^T,
    factored once,

        g_1 = diag(sqrt(alpha / (1 + s alpha))) F_1,  g_2 = diag(c) F_2,
        ln det X Y = sum [log1p(s alpha) + log1p(1 / (s alpha))] + ln det K,

    where X is the sum of the phi blocks.  A step costs one Cholesky of the
    (r_1 + r_2)-square K (0 x 0 for a pure pair), one solve and one svd.
    """
    (phi_1, pi_1), (phi_2, pi_2) = source, target
    n = phi_1.shape[0]
    chol = _cholesky(phi_2, "phi block of the target")
    half = np.linalg.solve(chol, phi_1)
    alpha, u = np.linalg.eigh(np.linalg.solve(chol, half.T))
    if not alpha[0] > 0.0:
        raise NumericalError("phi block of the source is not positive definite")
    basis = chol @ u  # C_X^-T
    f_1 = _defect_factor(_defect(phi_1, pi_1), basis, "source")
    f_2 = _defect_factor(_defect(phi_2, pi_2), basis, "target")
    rank_1 = f_1.shape[1]
    eye = np.eye(rank_1 + f_2.shape[1])

    def objective(ln_z):
        s_alpha = np.exp(2.0 * ln_z) * alpha
        m = np.hstack((np.sqrt(alpha / (1.0 + s_alpha))[:, None] * f_1,
                       np.sqrt(s_alpha / (1.0 + s_alpha))[:, None] * f_2))
        chol_k = _cholesky(eye + m.T @ m, "Gram matrix")
        w_t, chol_h = chol_k[rank_1:, :rank_1], chol_k[rank_1:, rank_1:]
        roots = np.linalg.svd(np.linalg.solve(chol_h, w_t), compute_uv=False)
        logdet = float(np.log1p(s_alpha).sum() + np.log1p(1.0 / s_alpha).sum())
        logdet += 2.0 * float(np.log(np.diag(chol_k)).sum())
        return _fidelity_from_aux(roots, logdet - 2 * n * np.log(2.0))

    return objective


def optimize_global_squeeze(source, target):
    """Best uniform single-mode squeeze of the source towards the target.

    Maximizes F(S_z source S_z^T, target) over z in SQUEEZE_BRACKET
    (widened once if the maximum sits at an edge), with S_z = diag(z, 1/z)
    on every mode, by bounded Brent search on ln z.  Both states are
    (Phi, Pi) pairs, as `fidelity` takes them; S_z maps the source to
    (z^2 Phi, Pi / z^2).  The objective is `fidelity`'s own route, factored
    once per search (`_cross_free_fidelity`): f_raw, its value at
    ln z = 0, is `fidelity`'s, and f_star is its value at ln z_star.

    Returns:
        (z_star, f_raw, f_star)
    """
    objective = _cross_free_fidelity(*_validate_pair(source, target))
    ln_star, f_star = maximize_1d(objective, *np.log(SQUEEZE_BRACKET), tol=LN_Z_TOL)
    return float(np.exp(ln_star)), objective(0.0), f_star
