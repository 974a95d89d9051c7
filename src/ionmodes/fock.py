"""Fock-space structure of zero-mean Gaussian states: Husimi-function data,
density-matrix elements through repeated-row hafnians, the su(1,1)
disentanglement behind two-mode squeezed vacua, and, from a pure-state
amplitude recurrence, the probability weight outside finite qudit
subspaces."""

import math
from dataclasses import dataclass, field

import numpy as np

from ionmodes.gaussian import (
    apply_symplectic,
    assert_physical,
    single_mode_rotation,
    single_mode_squeeze,
    validate_cm,
)
from ionmodes.numerics import NumericalError, integer, integer_list

__all__ = [
    "DEFAULT_OCCUPANCY_CAP",
    "HusimiData",
    "check_fock_index",
    "husimi_data",
    "matrix_element",
    "tmsv_disentangle",
    "qudit_subspace_deficit",
    "subspace_sweep",
]

# default per-mode occupancy bound for externally supplied Fock indices
DEFAULT_OCCUPANCY_CAP = 12

# the shells beyond the occupancy cap may hold at most this share of a deficit
TAIL_RELATIVE_TOL = 1e-13

# per-mode occupancy bound of the amplitude grid: on the two-ion state
# rotated by any equal angle and squeezed by z <= 2.5, the geometric
# estimate of the shells beyond it stays below 1e-14 of a deficit (at 128
# it exceeded TAIL_RELATIVE_TOL near a quarter turn)
TAIL_OCCUPANCY_CAP = 144

MAX_QUDIT_DIM = 8


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
    Gaussian state, with a shared cache for repeated-row hafnians."""

    n_modes: int
    sigma_q: np.ndarray
    a_mat: np.ndarray
    sqrt_det_sigma_q: float
    _haf_cache: dict = field(default_factory=dict, repr=False)


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


def _haf_recurse(a, cache, r):
    """Hafnian of a with row/column j repeated r[j] times, for a tuple of
    ints r.

    Pair-expansion recursion on the multiplicity vector, memoized on
    cache: expanding the first occupied index i over its partners, the
    same-index branch carries weight (r_i - 1) a_ii and each cross branch
    weight r_j a_ij.  Identical to the hafnian of the explicitly expanded
    matrix, at polynomial cost in max(r).
    """
    # a module-level function, not a closure: a closure that calls itself
    # is a reference cycle, which would keep the memo alive until the
    # cyclic garbage collector runs
    if not any(r):
        return 1.0 + 0.0j
    hit = cache.get(r)
    if hit is not None:
        return hit
    i = next(k for k, c in enumerate(r) if c > 0)
    total = 0.0 + 0.0j
    if r[i] >= 2:
        reduced = list(r)
        reduced[i] -= 2
        total += (r[i] - 1) * a[i, i] * _haf_recurse(a, cache, tuple(reduced))
    for j in range(len(r)):
        if j != i and r[j] > 0:
            reduced = list(r)
            reduced[i] -= 1
            reduced[j] -= 1
            total += r[j] * a[i, j] * _haf_recurse(a, cache, tuple(reduced))
    cache[r] = total
    return total


def matrix_element(h, bra, ket, cap=DEFAULT_OCCUPANCY_CAP):
    """Fock-basis density matrix element <bra| rho |ket> of the state
    behind a HusimiData.

    The repetition vector stacks the ket occupations on the first mode
    block and the bra occupations on the second.  The result is complex in
    general and real for states whose a_mat is real.
    """
    bra = check_fock_index(bra, h.n_modes, cap)
    ket = check_fock_index(ket, h.n_modes, cap)
    haf = _haf_recurse(h.a_mat, h._haf_cache, ket + bra)
    norm = h.sqrt_det_sigma_q * math.sqrt(
        math.prod(math.factorial(k) for k in bra) * math.prod(math.factorial(k) for k in ket))
    return haf / norm


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


def _pure_amplitudes(h):
    """Fock amplitudes psi[m1, m2], up to a global phase, of a pure two-mode
    state on the (TAIL_OCCUPANCY_CAP + 1)^2 grid.

    A pure state has a_mat = B (+) conj(B), so its hafnians are loop-free in
    the ket block B: psi(0) = det(sigma_q)^(-1/4) and psi(m + e_i) =
    sum_j B_ij sqrt(m_j) psi(m - e_j) / sqrt(m_i + 1) (Quesada et al.,
    J. Chem. Phys. 150, 164113 (2019)), filled one m2 column at a time.
    """
    if h.n_modes != 2:
        raise ValueError("qudit subspace deficit is defined for two-mode states")
    if float(np.abs(h.a_mat[:2, 2:]).max()) > 1e-12:
        raise ValueError("qudit subspace deficit is defined for pure states")
    b = h.a_mat[:2, :2]
    size = TAIL_OCCUPANCY_CAP + 1
    root = np.sqrt(np.arange(size))
    # psi_t[m2] is the m2 column of psi, stored as a contiguous row
    psi_t = np.zeros((size, size), dtype=complex)
    psi_t[0, 0] = h.sqrt_det_sigma_q ** -0.5
    for m1 in range(1, size - 1):
        psi_t[0, m1 + 1] = b[0, 0] * root[m1] * psi_t[0, m1 - 1] / root[m1 + 1]
    raise_m1 = b[1, 0] * root[1:]
    for m2 in range(size - 1):
        column = psi_t[m2 + 1]
        column[1:] = raise_m1 * psi_t[m2, :-1]
        if m2:
            column += b[1, 1] * root[m2] * psi_t[m2 - 1]
        column /= root[m2 + 1]
    return psi_t.T


def qudit_subspace_deficit(sigma, dim):
    """Probability that a pure two-mode Gaussian state lies outside the
    D x D lowest-Fock subspace, P_out = sum_{max(m1, m2) >= D} |psi(m1, m2)|^2.

    A mixed state raises ValueError (matrix_element covers it).  The sum
    runs over every occupancy shell of the grid from D on; it has no
    cancellation, so small deficits keep their relative accuracy.  The
    shells beyond the grid are estimated by extrapolation: a geometric
    series with the ratio of its last two pairs of shells, which assumes
    that ratio holds for every later pair.  NumericalError is raised unless
    the estimate is within TAIL_RELATIVE_TOL of the total.  The ratio of a
    squeezed state's pairs still rises slowly towards its limit at the cap,
    so the estimate is low: on the two-ion state rotated and squeezed by
    z <= 2.5, the tail beyond the cap (from a 301-shell grid) exceeds it by
    at most 0.06%.
    """
    dim = integer(dim, "dim")
    if dim < 1 or dim > MAX_QUDIT_DIM:
        raise ValueError("qudit dimension must lie in [1, %d]" % MAX_QUDIT_DIM)
    prob = np.abs(_pure_amplitudes(husimi_data(sigma))) ** 2
    occupancy = np.arange(TAIL_OCCUPANCY_CAP + 1)
    shells = np.bincount(np.maximum.outer(occupancy, occupancy).ravel(), prob.ravel())
    total = float(shells[dim:].sum())
    # shells taken in pairs, since states of definite parity fill every
    # other shell
    last, before_last = float(shells[-2:].sum()), float(shells[-4:-2].sum())
    if last == 0.0:
        beyond = 0.0
    elif last < before_last:
        beyond = last * last / (before_last - last)
    else:
        beyond = np.inf
    if beyond > TAIL_RELATIVE_TOL * total:
        raise NumericalError("occupancy tail beyond shell %d exceeds %.0e of the deficit"
                             % (TAIL_OCCUPANCY_CAP, TAIL_RELATIVE_TOL))
    return total


def subspace_sweep(sigma, z_values, phi_values, dim):
    """Deficit P_out over a grid of uniform single-mode operations.

    Applies S = O(phi) Z(z) identically to both modes (the second passive
    angle of the one-mode decomposition is acceptance-neutral here and held
    at zero) and evaluates qudit_subspace_deficit at every grid point.

    Returns:
        array of shape (len(z_values), len(phi_values)).
    """
    sigma, n = validate_cm(sigma)
    if n != 2:
        raise ValueError("subspace sweep is defined for two-mode states")
    out = np.empty((len(z_values), len(phi_values)))
    for i, z in enumerate(z_values):
        squeeze = single_mode_squeeze(2, float(z))
        for j, phi in enumerate(phi_values):
            s = single_mode_rotation(2, float(phi)) @ squeeze
            transformed = apply_symplectic(sigma, s)
            out[i, j] = qudit_subspace_deficit(transformed, dim)
    return out
