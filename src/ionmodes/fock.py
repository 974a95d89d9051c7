"""Fock-space structure of zero-mean Gaussian states: Husimi-function data,
density-matrix elements from a hafnian grid filled one axis at a time, the
su(1,1) disentanglement behind two-mode squeezed vacua, and the probability
weight outside finite qudit subspaces of a pure two-mode state, from an
amplitude recurrence started from the state's (Phi, Pi) blocks in real
arithmetic when its phi-pi cross block vanishes, and filled one row at a
time until the occupancy shells beyond it no longer matter."""

import math
from dataclasses import dataclass, field

import numpy as np

from ionmodes.gaussian import assert_physical, validate_cm
from ionmodes.numerics import NumericalError, integer_list, integers

__all__ = [
    "DEFAULT_OCCUPANCY_CAP",
    "HusimiData",
    "check_fock_index",
    "husimi_data",
    "matrix_element",
    "tmsv_disentangle",
    "qudit_subspace_deficit",
]

# default per-mode occupancy bound for externally supplied Fock indices
DEFAULT_OCCUPANCY_CAP = 12

# the shells beyond the occupancy cap may hold at most this share of a deficit
TAIL_RELATIVE_TOL = 1e-13

# the amplitude grid stops filling rows once the shells beyond are estimated
# at no more than this share of the deficit at MAX_QUDIT_DIM, the smallest
# a caller can ask for; the estimate runs low, but a grid stopped here is
# within 1e-13 of the same sums to shell 300 on the test states
TAIL_STOP_TOL = 1e-14

# last occupancy shell the amplitude grid may reach: on the two-ion state
# rotated by any equal angle and squeezed by z <= 2.5, the geometric
# estimate of the shells beyond it stays below 1e-14 of a deficit (at 128
# it exceeded TAIL_RELATIVE_TOL near a quarter turn); the table-7 states
# stop by shell 24
TAIL_OCCUPANCY_CAP = 144

MAX_QUDIT_DIM = 8

# a state is taken as pure when Pi - C^T Phi^-1 C - Phi^-1 and the
# asymmetry of Phi^-1 C stay within this share of max|Pi|: on the test
# states, pure ones read below 1e-15, and those the earlier Husimi pair test
# (an off-diagonal block below 1e-12) accepted below 3e-11
PURE_STATE_TOL = 1e-10


def check_fock_index(occupations, n_modes, cap=DEFAULT_OCCUPANCY_CAP):
    """Validate a tuple of per-mode occupation numbers."""
    occ = tuple(integer_list(occupations, "occupations"))
    if len(occ) != n_modes:
        raise ValueError("expected %d occupation numbers, got %d" % (n_modes, len(occ)))
    if any(k < 0 for k in occ):
        raise ValueError("occupation numbers must be non-negative")
    if cap is not None and any(k > cap for k in occ):
        raise ValueError("occupation number exceeds the cap %d" % cap)
    return occ


@dataclass
class HusimiData:
    """Husimi covariance sigma_q and pair-correlation matrix a_mat of a
    Gaussian state, and matrix_element's hafnian grid of a_mat over _axes."""

    n_modes: int
    sigma_q: np.ndarray
    a_mat: np.ndarray
    sqrt_det_sigma_q: float
    _axes: tuple = field(default=(), init=False, repr=False)
    _grid: np.ndarray = field(default_factory=lambda: np.ones((), complex), init=False, repr=False)


def husimi_data(sigma):
    """Husimi-function data of the Gaussian state with CM sigma.

    With U the quadrature-to-ladder transform on the mode-grouped (xxpp)
    ordering, sigma_q = (U sigma_xxpp U^dagger + 1) / 2 and
    a_mat = X (1 - sigma_q^{-1}) with X the block swap.  a_mat is complex
    symmetric; its repeated-row hafnians give Fock matrix elements.
    """
    sigma, n = validate_cm(sigma)
    assert_physical(sigma)
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    sigma_xxpp = sigma[np.ix_(order, order)]
    eye = np.eye(n)
    u = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / np.sqrt(2.0)
    sigma_q = 0.5 * (u @ sigma_xxpp @ u.conj().T + np.eye(2 * n))
    herm_resid = float(np.abs(sigma_q - sigma_q.conj().T).max())
    if herm_resid > 1e-12 * max(1.0, float(np.abs(sigma_q).max())):
        raise NumericalError("sigma_q is not Hermitian (residual %.3e)" % herm_resid)
    sigma_q = 0.5 * (sigma_q + sigma_q.conj().T)
    low = float(np.linalg.eigvalsh(sigma_q)[0])
    if low <= 0.0:
        raise NumericalError("sigma_q is not positive definite")
    det = np.linalg.det(sigma_q)
    if det.real <= 0.0 or abs(det.imag) > 1e-10 * max(1.0, det.real):
        raise NumericalError("det sigma_q = %s is not a positive real" % det)
    swap = np.block([[np.zeros((n, n)), eye], [eye, np.zeros((n, n))]])
    a_mat = swap @ (np.eye(2 * n) - np.linalg.inv(sigma_q))
    sym_resid = float(np.abs(a_mat - a_mat.T).max())
    if sym_resid > 1e-10 * max(1.0, float(np.abs(a_mat).max())):
        raise NumericalError("pair-correlation matrix is not symmetric (residual %.3e)" % sym_resid)
    a_mat = 0.5 * (a_mat + a_mat.T)
    return HusimiData(n, sigma_q, a_mat, math.sqrt(det.real))


def _hafnian_grid(a, top):
    """G(k) = haf(a with row and column j repeated k_j times) / sqrt(prod k_j!)
    for every k <= top, indexed by k: G(k + e_i) = [sum_j a_ij sqrt(k_j)
    G(k - e_j)] / sqrt(k_i + 1) (Quesada et al. 2019), one axis at a time from
    the last, vectorized over the later ones.  An entry's terms depend on k
    alone (an index at 0 adds none): it is one float in any grid holding it."""
    grid = np.zeros(tuple(t + 1 for t in top), dtype=complex)
    grid[(0,) * len(top)] = 1.0
    root = np.sqrt(np.arange(max(top) + 1))
    for i in reversed(range(len(top))):
        sub = grid[(0,) * i]
        cross = [(a[i, j] * root[1:top[j] + 1], np.moveaxis(sub, j - i, -1))
                 for j in range(i + 1, len(top)) if top[j]]
        for s in range(1, top[i] + 1):
            if s >= 2:
                sub[s] += a[i, i] * root[s - 1] * sub[s - 2]
            for weight, view in cross:
                view[s, ..., 1:] += weight * view[s - 1, ..., :-1]
            sub[s] /= root[s]
    return grid


def matrix_element(h, bra, ket, cap=DEFAULT_OCCUPANCY_CAP):
    """Fock-basis density matrix element <bra| rho |ket> of the state
    behind a HusimiData: G(ket + bra) / sqrt(det sigma_q), the ket indexing
    the first mode block of a_mat and the bra the second; complex in
    general, real for states whose a_mat is real.

    Both tuples are checked first.  A request outside h's grid refills it
    over the ket and bra indices of the grid's modes if they hold all the
    request occupies, else of the request's, both indices of each mode to the
    larger of their old extent and the request's ket or bra occupation of it:
    at most (cap + 1)^(2m) entries, for m the most modes one request occupied."""
    bra = check_fock_index(bra, h.n_modes, cap)
    ket = check_fock_index(ket, h.n_modes, cap)
    index, n = ket + bra, h.n_modes
    key = tuple(map(index.__getitem__, h._axes))
    if sum(key) < sum(index) or not all(map(int.__lt__, key, h._grid.shape)):
        held = dict(zip(h._axes, h._grid.shape))
        occupied = sorted({j % n for j, k in enumerate(index) if k})
        axes = (h._axes if set(occupied) <= set(h._axes)
                else tuple(occupied + [n + m for m in occupied]))
        top = [max(index[j % n], index[j % n + n], held.get(j, 1) - 1) for j in axes]
        h._grid, h._axes = _hafnian_grid(h.a_mat[np.ix_(axes, axes)], top), axes
        key = tuple(map(index.__getitem__, axes))
    return complex(h._grid[key] / h.sqrt_det_sigma_q)


def tmsv_disentangle(v0, v_plus, v_minus):
    """Normal-order an su(1,1) exponential: factor exp(v+ K+ + v- K- + v0 K0)
    as exp(t+ K+) exp(ln(t0) K0) exp(t- K-).

    With f^2 = v0^2/4 - v+ v-, the coefficients are t0 = 1/Dn^2 and
    t+- = v+- sinhc(f) / Dn where Dn = cosh(f) - (v0/2) sinhc(f); for
    f^2 < 0 the hyperbolic pair turns trigonometric, and |f| < 1e-4 uses
    the fourth-order Taylor series in f^2 (both branches at once).

    Returns:
        (t0, t_plus, t_minus)
    """
    f_squared = 0.25 * v0 * v0 - v_plus * v_minus
    if abs(f_squared) < 1e-8:
        cosh_f = 1.0 + f_squared / 2.0 + f_squared**2 / 24.0
        sinhc_f = 1.0 + f_squared / 6.0 + f_squared**2 / 120.0
    elif f_squared > 0.0:
        f = math.sqrt(f_squared)
        cosh_f = math.cosh(f)
        sinhc_f = math.sinh(f) / f
    else:
        f = math.sqrt(-f_squared)
        cosh_f = math.cos(f)
        sinhc_f = math.sin(f) / f
    denom = cosh_f - 0.5 * v0 * sinhc_f
    if abs(denom) < 1e-12:
        raise NumericalError("disentanglement denominator vanished")
    if denom < 0.0:
        raise NumericalError("disentanglement denominator is negative; no normal form")
    return 1.0 / denom**2, v_plus * sinhc_f / denom, v_minus * sinhc_f / denom


def _ket_block(sigma):
    """Ket block B and psi(0) > 0 of a pure two-mode state, from its Phi, Pi
    and phi-pi cross block C by 2 x 2 closed forms (no LAPACK call).

    The wave function is psi(x) ~ exp(-x^T Gamma x / 2) with
    Gamma = Phi^-1 (1 - iC), so B = conj((1 - Gamma)(1 + Gamma)^-1) and
    |psi(0)|^2 = det(Re Gamma)^(1/2) / |det((1 + Gamma) / 2)|.  With
    M = Phi + 1 - iC = Phi (1 + Gamma), that is B = conj(M^-1 (Phi - 1 + iC))
    and |psi(0)|^2 = 4 det(Phi)^(1/2) / |det M|, which needs no Phi^-1 and
    keeps B within 3e-16 of a 40-digit value on the 256 seed-1 fock-rotated
    states (the Husimi route: 1e-15).  When C = 0 everything stays real.

    The state must be pure: Pi - C^T Phi^-1 C = Phi^-1 with Phi^-1 C
    symmetric, which with Phi > 0 also makes it physical.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (4, 4):
        raise ValueError("qudit subspace deficit is defined for two-mode states "
                         "(a 4 x 4 CM), got shape %s" % (sigma.shape,))
    sigma, _ = validate_cm(sigma)
    phi, pi, cross = sigma[::2, ::2], sigma[1::2, 1::2], sigma[::2, 1::2]
    (p00, p01), (_, p11) = phi.tolist()
    det_phi = p00 * p11 - p01 * p01
    if p00 <= 0.0 or det_phi <= 0.0:
        raise NumericalError("state is unphysical: its phi block is not positive definite")
    inv_phi = np.array([[p11, -p01], [-p01, p00]]) / det_phi
    inv_phi_cross = inv_phi @ cross
    resid = max(float(np.abs(pi - inv_phi - cross.T @ inv_phi_cross).max()),
                float(np.abs(inv_phi_cross - inv_phi_cross.T).max()))
    if resid > PURE_STATE_TOL * float(np.abs(pi).max()):
        raise ValueError("qudit subspace deficit is defined for pure states")
    i_cross = 1j * cross if cross.any() else cross
    (m00, m01), (m10, m11) = (phi + np.eye(2) - i_cross).tolist()
    (n00, n01), (n10, n11) = (phi - np.eye(2) + i_cross).tolist()
    det_m = m00 * m11 - m01 * m10
    b00 = (m11 * n00 - m01 * n10) / det_m
    b11 = (m00 * n11 - m10 * n01) / det_m
    b01 = (m11 * n01 - m01 * n11 + m00 * n10 - m10 * n00) / (2.0 * det_m)
    b = np.array([[b00, b01], [b01, b11]]).conj()
    return b, 2.0 * det_phi ** 0.25 / math.sqrt(abs(det_m))


def _tail_estimate(shells):
    """Geometric estimate of the shells beyond the last one, from the ratio
    of its last two pairs (pairs, since states of definite parity fill every
    other shell)."""
    last, before_last = shells[-1] + shells[-2], shells[-3] + shells[-4]
    if last == 0.0:
        return 0.0
    if last < before_last:
        return last * last / (before_last - last)
    return math.inf


def _pure_amplitudes(b, psi0):
    """Fock amplitudes psi(m1, m2), up to a global phase, of the pure
    two-mode state with ket block B and vacuum amplitude psi0, and the
    probability of each occupancy shell max(m1, m2) they fill.

    A pure state has a Husimi pair matrix B (+) conj(B), so its hafnians are
    loop-free in B: psi(m + e_i) = sum_j B_ij sqrt(m_j) psi(m - e_j) /
    sqrt(m_i + 1) (Quesada et al., J. Chem. Phys. 150, 164113 (2019)).
    Row 0 raises mode 2 alone, so it holds the powers of B_11, one cumprod.
    Row s raises mode 1 from rows s - 1 and s - 2 over the grid's full width:
    the cross term B_01 sqrt(m2) psi(s - 1, m2 - 1), then
    B_00 sqrt(s - 1) psi(s - 2, m2), then a division by sqrt(s).  Shell s is
    row s up to the corner and column s above it, all filled by then.  Rows
    are filled until the shells beyond are estimated at TAIL_STOP_TOL of the
    deficit at MAX_QUDIT_DIM, or to shell TAIL_OCCUPANCY_CAP; no later row
    is read.  The grid is float64 when B is.

    Returns:
        (the filled square psi[m1, m2] up to the last shell, shell probabilities)
    """
    (b00, b01), (_, b11) = b.tolist()
    size = TAIL_OCCUPANCY_CAP + 1
    root = np.sqrt(np.arange(size))
    cross = b01 * root[1:]
    psi = np.empty((size, size), dtype=b.dtype)
    psi[0] = 0.0
    psi[0, ::2] = np.cumprod(np.concatenate(([psi0], b11 * root[1:-1:2] / root[2::2])))
    shells = [psi0 * psi0]
    deficit = 0.0  # of the shells from MAX_QUDIT_DIM on
    for s in range(1, size):
        row = psi[s]
        row[0] = 0.0
        np.multiply(cross, psi[s - 1, :-1], out=row[1:])
        if s > 1:
            row += (b00 * root[s - 1]) * psi[s - 2]
        row /= root[s]
        to_corner, above = row[:s + 1], psi[:s, s]
        shells.append(float(np.vdot(to_corner, to_corner).real + np.vdot(above, above).real))
        if s >= MAX_QUDIT_DIM:
            deficit += shells[-1]
        if s >= MAX_QUDIT_DIM + 3 and _tail_estimate(shells) <= TAIL_STOP_TOL * deficit:
            break
    return psi[:s + 1, :s + 1], shells


def qudit_subspace_deficit(sigma, dim):
    """Probability that a pure two-mode Gaussian state lies outside the
    D x D lowest-Fock subspace, P_out = sum_{max(m1, m2) >= D} |psi(m1, m2)|^2:
    a float for one D, a list in the given order for a sequence of them,
    all from one amplitude grid.

    The dimensions and the state are checked before any grid is filled:
    a state that is not two-mode, or is mixed, raises ValueError
    (matrix_element covers mixed states), and an empty sequence of D then
    gives [].  The sum runs over every occupancy shell of the grid from D
    on; it has no cancellation, so small deficits keep their relative
    accuracy.  The grid is filled row by row, each row completing a shell,
    until the shells beyond are estimated at TAIL_STOP_TOL of the deficit
    at MAX_QUDIT_DIM, so every D reads the same grid however it is asked
    for.  The estimate is an extrapolation: a geometric series with the
    ratio of the last two pairs of shells, which assumes that ratio holds
    for every later pair.  A state that reaches shell TAIL_OCCUPANCY_CAP
    first raises NumericalError unless the estimate is within
    TAIL_RELATIVE_TOL of the smallest requested deficit.  The ratio of a
    squeezed state's pairs still rises slowly towards its limit at the cap,
    so the estimate is low: on the two-ion state rotated and squeezed by
    z <= 2.5, the tail beyond the cap (from a 301-shell grid) exceeds it by
    at most 0.06%.
    """
    dims = integers(dim, "dim")
    if dims.ndim > 1:
        raise ValueError("dim must be one integer or a sequence of them, got %r" % (dim,))
    if np.any((dims < 1) | (dims > MAX_QUDIT_DIM)):
        raise ValueError("qudit dimension must lie in [1, %d]" % MAX_QUDIT_DIM)
    b, psi0 = _ket_block(sigma)
    if not dims.size:
        return []
    _, shells = _pure_amplitudes(b, psi0)
    totals = [math.fsum(shells[d:]) for d in dims.ravel().tolist()]
    if _tail_estimate(shells) > TAIL_RELATIVE_TOL * min(totals):
        raise NumericalError("occupancy tail beyond shell %d exceeds %.0e of the deficit"
                             % (TAIL_OCCUPANCY_CAP, TAIL_RELATIVE_TOL))
    return totals if dims.ndim else totals[0]
