"""Gaussian-state operations on covariance matrices.

All covariance matrices are real symmetric 2n x 2n arrays over the
interleaved quadrature basis (phi_1, pi_1, ..., phi_n, pi_n), normalized so
the vacuum is the identity.  The symplectic form in this basis is the
direct sum of n copies of [[0, 1], [-1, 0]].
"""

from dataclasses import dataclass

import numpy as np

from ionmodes.numerics import NumericalError, maximize_1d, principal_sqrt

__all__ = [
    "RegionSpec",
    "symplectic_form",
    "from_blocks",
    "validate_cm",
    "assert_physical",
    "restrict",
    "condition_homodyne",
    "apply_symplectic",
    "assert_symplectic",
    "single_mode_squeeze",
    "single_mode_rotation",
    "symplectic_spectrum",
    "partial_transpose",
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

# fidelity: largest imaginary part of the auxiliary spectrum, relative to
# its largest magnitude, still taken for round-off
AUX_IMAG_TOL = 1e-6

# fidelity: w_k^2 - 1 below -AUX_UNIT_TOL means an auxiliary symplectic
# eigenvalue fell below 1, which no pair of physical states allows
AUX_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class RegionSpec:
    """Two equal regions of `size` sites separated by `separation` sites,
    centered in a lattice of `length` sites (extra site of margin on the
    right when the fit is uneven)."""

    length: int
    size: int
    separation: int

    def __post_init__(self):
        if self.size < 1 or self.separation < 0:
            raise ValueError("region size must be >= 1 and separation >= 0")
        if 2 * self.size + self.separation > self.length:
            raise ValueError(
                "regions of size %d separated by %d do not fit in %d sites"
                % (self.size, self.separation, self.length))

    @property
    def left_margin(self):
        return (self.length - 2 * self.size - self.separation) // 2

    @property
    def region_a(self):
        start = self.left_margin
        return list(range(start, start + self.size))

    @property
    def region_b(self):
        start = self.left_margin + self.size + self.separation
        return list(range(start, start + self.size))

    @property
    def outside(self):
        inside = set(self.region_a) | set(self.region_b)
        return [i for i in range(self.length) if i not in inside]


def symplectic_form(n_modes):
    """The 2n x 2n symplectic form in the interleaved basis."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    return omega


def from_blocks(phi_block, pi_block, cross_block=None):
    """Assemble an interleaved CM from phi-phi, pi-pi and optional phi-pi blocks."""
    phi_block = np.asarray(phi_block, dtype=float)
    pi_block = np.asarray(pi_block, dtype=float)
    n = phi_block.shape[0]
    sigma = np.zeros((2 * n, 2 * n))
    sigma[0::2, 0::2] = phi_block
    sigma[1::2, 1::2] = pi_block
    if cross_block is not None:
        cross_block = np.asarray(cross_block, dtype=float)
        sigma[0::2, 1::2] = cross_block
        sigma[1::2, 0::2] = cross_block.T
    return sigma


def validate_cm(sigma):
    """Check shape and symmetry; return (sigma, n_modes)."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise ValueError("covariance matrix must be square of even dimension")
    scale = max(1.0, float(np.abs(sigma).max()))
    if float(np.abs(sigma - sigma.T).max()) > 1e-12 * scale:
        raise ValueError("covariance matrix is not symmetric")
    return sigma, sigma.shape[0] // 2


def assert_physical(sigma, tol=PHYSICALITY_TOL):
    """Require sigma + i Omega >= 0 (up to -tol on the minimum eigenvalue)."""
    sigma, n = validate_cm(sigma)
    herm = sigma + 1j * symplectic_form(n)
    low = float(np.linalg.eigvalsh(herm)[0])
    if low < -tol:
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
    modes = [int(m) for m in modes]
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
    measured = sorted(set(int(m) for m in measured))
    if not measured:
        return sigma.copy()
    if measured[0] < 0 or measured[-1] >= n:
        raise ValueError("measured mode indices out of range")
    kept = [m for m in range(n) if m not in set(measured)]
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


def assert_symplectic(s, tol=SYMPLECTIC_TOL):
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
        raise ValueError("symplectic matrix must be square of even dimension")
    omega = symplectic_form(s.shape[0] // 2)
    residual = float(np.abs(s @ omega @ s.T - omega).max())
    if residual > tol:
        raise NumericalError("matrix is not symplectic: residual %.3e" % residual)


def apply_symplectic(sigma, s):
    """Transform sigma -> S sigma S^T after validating that S is symplectic."""
    sigma, _ = validate_cm(sigma)
    assert_symplectic(s)
    out = s @ sigma @ s.T
    return 0.5 * (out + out.T)


def _embed_single_mode(n_modes, block, targets):
    if targets is None:
        targets = range(n_modes)
    s = np.eye(2 * n_modes)
    for t in targets:
        t = int(t)
        if t < 0 or t >= n_modes:
            raise ValueError("target mode out of range")
        s[2 * t:2 * t + 2, 2 * t:2 * t + 2] = block
    return s


def single_mode_squeeze(n_modes, z, targets=None):
    """diag(z, 1/z) on each target mode (all modes when targets is None)."""
    if z <= 0:
        raise ValueError("squeeze parameter must be positive")
    return _embed_single_mode(n_modes, np.diag([z, 1.0 / z]), targets)


def single_mode_rotation(n_modes, phi, targets=None):
    """Passive phase-space rotation by phi on each target mode."""
    c, s = np.cos(phi), np.sin(phi)
    return _embed_single_mode(n_modes, np.array([[c, s], [-s, c]]), targets)


def symplectic_spectrum(sigma):
    """Symplectic eigenvalues nu_k >= 0 of a positive-definite CM, ascending.

    Computed from the symmetric product sigma^(1/2) Omega^T sigma Omega
    sigma^(1/2), whose ordinary eigenvalues are the nu_k^2, each doubled.
    """
    sigma, n = validate_cm(sigma)
    vals = np.linalg.eigvalsh(sigma)
    if vals[0] <= 0.0:
        raise NumericalError("covariance matrix is not positive definite")
    root = principal_sqrt(sigma)
    omega = symplectic_form(n)
    squared = np.linalg.eigvalsh(root @ omega.T @ sigma @ omega @ root)
    nu = np.sqrt(np.abs(squared))
    nu.sort()
    pair_gap = float(np.abs(nu[0::2] - nu[1::2]).max())
    if pair_gap > 1e-6 * max(1.0, nu[-1]):
        raise NumericalError("symplectic spectrum failed to pair up (gap %.3e)" % pair_gap)
    return 0.5 * (nu[0::2] + nu[1::2])


def partial_transpose(sigma, region_b):
    """Momentum-sign flip on the modes of region B (may leave the matrix
    unphysical, which is the point)."""
    sigma, n = validate_cm(sigma)
    signs = np.ones(2 * n)
    for b in set(int(m) for m in region_b):
        if b < 0 or b >= n:
            raise ValueError("region-B mode index out of range")
        signs[2 * b + 1] = -1.0
    return sigma * np.outer(signs, signs)


def log_negativity(sigma, region_a, region_b):
    """Logarithmic negativity (base 2) across the A|B split.

    sigma must cover exactly the modes of A and B; trace out or condition
    away everything else first.  Partially transposed symplectic eigenvalues
    within 1e-9 of 1 are treated as exactly 1.
    """
    sigma, n = validate_cm(sigma)
    set_a = set(int(m) for m in region_a)
    set_b = set(int(m) for m in region_b)
    if set_a & set_b:
        raise ValueError("regions A and B overlap")
    if set_a | set_b != set(range(n)):
        raise ValueError("regions A and B must cover every mode of sigma")
    nu = symplectic_spectrum(partial_transpose(sigma, set_b))
    total = 0.0
    for v in nu:
        if v < 1.0 - NU_UNIT_TOL:
            total -= np.log2(v)
    return total


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


def _aux_spectrum_blocks(sigma_1, sigma_2):
    """(w_k^2 - 1, ln det((sigma_1 + sigma_2) / 2)) for two states with no
    phi-pi cross block, from n x n phi and pi blocks.

    With X and Y the sums of the phi and pi blocks, D_i = Pi_i - Phi_i^-1
    (zero for a pure state) and R = Phi_1 X^-1 Phi_2, the w_k^2 - 1 are the
    eigenvalues of Y^-1 D_2 R D_1.  That product is 4 P Q - 1 of the
    auxiliary matrix V_aux = diag(P, Q) with the identity cancelled
    exactly, so w_k near 1 lose no digits.
    """
    n = sigma_1.shape[0] // 2
    phi_1, pi_1 = sigma_1[0::2, 0::2], sigma_1[1::2, 1::2]
    phi_2, pi_2 = sigma_2[0::2, 0::2], sigma_2[1::2, 1::2]
    phi_sum = phi_1 + phi_2
    pi_sum = pi_1 + pi_2
    chol_x = _cholesky(phi_sum, "sum of the phi blocks")
    chol_y = _cholesky(pi_sum, "sum of the pi blocks")
    try:
        defect_1 = pi_1 - np.linalg.inv(phi_1)
        defect_2 = pi_2 - np.linalg.inv(phi_2)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("phi block of a state is singular") from exc
    parallel = phi_1 @ np.linalg.solve(phi_sum, phi_2)
    excess = np.linalg.eigvals(np.linalg.solve(pi_sum, defect_2 @ parallel @ defect_1))
    logdet = 2.0 * float(np.log(np.diag(chol_x)).sum() + np.log(np.diag(chol_y)).sum())
    return excess, logdet - 2 * n * np.log(2.0)


def _aux_spectrum_interleaved(sigma_1, sigma_2):
    """(w_k^2 - 1, ln det((sigma_1 + sigma_2) / 2)) for any two states, from
    the auxiliary matrix V_aux, whose V_aux Omega has eigenvalues
    +-i w_k / 2 (hbar = 1 convention, vacuum CM 1/2)."""
    n = sigma_1.shape[0] // 2
    v1 = 0.5 * sigma_1
    v2 = 0.5 * sigma_2
    omega = symplectic_form(n)
    vsum = v1 + v2
    try:
        solved = np.linalg.solve(vsum, 0.25 * omega + v2 @ omega @ v1)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("sigma_1 + sigma_2 is singular") from exc
    sign, logdet = np.linalg.slogdet(vsum)
    if sign <= 0.0:
        raise NumericalError("sigma_1 + sigma_2 has non-positive determinant")
    vals = np.linalg.eigvals(omega.T @ solved @ omega)
    # the upper member i w_k / 2 of each conjugate pair
    w = -2j * vals[np.argsort(vals.imag)[n:]]
    return w * w - 1.0, float(logdet)


def fidelity(sigma_1, sigma_2):
    """Uhlmann fidelity of two zero-mean Gaussian states.

    Evaluated from the auxiliary symplectic spectrum w_k (Banchi, Braunstein
    & Pirandola, PRL 115, 260501, 2015) in the hbar = 1 convention (vacuum
    CM = 1/2):

        ln F = (1/4) [2 sum_k asinh sqrt(w_k^2 - 1) - ln det((sigma_1 + sigma_2) / 2)]

    States with no phi-pi cross block go through n x n phi and pi blocks
    (`_aux_spectrum_blocks`); any other pair through the 2n x 2n auxiliary
    matrix.  No matrix square root is taken.  Result is clamped to [0, 1].
    """
    sigma_1, n = validate_cm(sigma_1)
    sigma_2, n2 = validate_cm(sigma_2)
    if n != n2:
        raise ValueError("states have different mode counts")
    if any(s[0::2, 1::2].any() or s[1::2, 0::2].any() for s in (sigma_1, sigma_2)):
        excess, logdet = _aux_spectrum_interleaved(sigma_1, sigma_2)
    else:
        excess, logdet = _aux_spectrum_blocks(sigma_1, sigma_2)
    scale = max(1.0, float(np.abs(excess).max()))
    if float(np.abs(excess.imag).max()) > AUX_IMAG_TOL * scale:
        raise NumericalError("auxiliary symplectic spectrum is not real")
    excess = excess.real
    low = float(excess.min())
    if low < -AUX_UNIT_TOL:
        raise NumericalError("auxiliary symplectic eigenvalue below 1: w^2 - 1 = %.3e" % low)
    ln_total = 2.0 * float(np.arcsinh(np.sqrt(np.clip(excess, 0.0, None))).sum())
    f = np.exp(0.25 * (ln_total - logdet))
    if f > 1.0 + 1e-6:
        raise NumericalError("fidelity %.6f exceeds 1 beyond tolerance" % f)
    return float(min(max(f, 0.0), 1.0))


def optimize_global_squeeze(sigma_source, sigma_target, bracket=SQUEEZE_BRACKET):
    """Best uniform single-mode squeeze of the source towards the target.

    Maximizes F(S_z sigma_source S_z^T, sigma_target) over z in the bracket,
    with S_z = diag(z, 1/z) on every mode, by bounded Brent search on ln z.
    S_z is diagonal, so S_z sigma S_z^T is sigma scaled elementwise by
    d d^T with d = (z, 1/z, z, 1/z, ...).

    Returns:
        (z_star, f_star)
    """
    sigma_source, n = validate_cm(sigma_source)
    sigma_target, n2 = validate_cm(sigma_target)
    if n != n2:
        raise ValueError("states have different mode counts")
    exponents = np.tile([1.0, -1.0], n)

    def objective(ln_z):
        d = np.exp(ln_z * exponents)
        return fidelity(sigma_source * np.outer(d, d), sigma_target)

    ln_lo, ln_hi = np.log(bracket[0]), np.log(bracket[1])
    ln_star, f_star = maximize_1d(objective, ln_lo, ln_hi, tol=LN_Z_TOL)
    return float(np.exp(ln_star)), float(f_star)
