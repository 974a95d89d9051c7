"""Fock-space structure of zero-mean Gaussian states: Husimi-function data,
density-matrix elements through repeated-row hafnians, the su(1,1)
disentanglement behind two-mode squeezed vacua, and probability weight
outside finite qudit subspaces."""

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
from ionmodes.numerics import NumericalError

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

# occupancy shells are added to a tail sum until this relative accuracy
TAIL_RELATIVE_TOL = 1e-13

# hard per-mode occupancy bound for internal tail summation
TAIL_OCCUPANCY_CAP = 32

MAX_QUDIT_DIM = 8


def check_fock_index(occupations, n_modes, cap=DEFAULT_OCCUPANCY_CAP):
    """Validate a tuple of per-mode occupation numbers."""
    occ = tuple(int(k) for k in occupations)
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


def _repeated_hafnian(h, reps):
    """Hafnian of h.a_mat with row/column j repeated reps[j] times.

    Pair-expansion recursion on the multiplicity vector, memoized on
    h._haf_cache: expanding the first occupied index i over its partners,
    the same-index branch carries weight (reps_i - 1) a_ii and each
    cross branch weight reps_j a_ij.  Identical to the hafnian of the
    explicitly expanded matrix, at polynomial cost in max(reps).
    """
    return _haf_recurse(h.a_mat, h._haf_cache, tuple(int(k) for k in reps))


def _haf_recurse(a, cache, r):
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
    haf = _repeated_hafnian(h, tuple(ket) + tuple(bra))
    norm = h.sqrt_det_sigma_q * math.sqrt(
        math.prod(math.factorial(k) for k in bra) * math.prod(math.factorial(k) for k in ket))
    return haf / norm


def _real_probability(h, occ):
    value = matrix_element(h, occ, occ, cap=None)
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise NumericalError("diagonal element has imaginary residue %s" % value)
    return value.real


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


def qudit_subspace_deficit(sigma, dim, hdata=None):
    """Probability that a two-mode Gaussian state lies outside the D x D
    lowest-Fock subspace, P_out = 1 - sum_{m1, m2 < D} <m1 m2| rho |m1 m2>.

    When the direct complement cancels below 1e-6 the sum is re-done over
    occupancy shells with max(m1, m2) >= D (unit trace makes the two
    expressions equal, the shell form has no cancellation), so the squeezed
    tail values stay accurate in a relative sense.
    """
    dim = int(dim)
    if dim < 1 or dim > MAX_QUDIT_DIM:
        raise ValueError("qudit dimension must lie in [1, %d]" % MAX_QUDIT_DIM)
    if hdata is None:
        hdata = husimi_data(sigma)
    if hdata.n_modes != 2:
        raise ValueError("qudit subspace deficit is defined for two-mode states")
    inside = math.fsum(
        _real_probability(hdata, (m1, m2)) for m1 in range(dim) for m2 in range(dim))
    deficit = 1.0 - inside
    if deficit >= 1e-6:
        return deficit
    return _tail_sum(hdata, dim)


def _tail_sum(hdata, dim):
    """Direct sum of diagonal elements over occupancy shells max(m1,m2) = s,
    s >= dim, stopping once two consecutive shells are negligible."""
    total = 0.0
    quiet_shells = 0
    for shell in range(dim, TAIL_OCCUPANCY_CAP + 1):
        contribution = _real_probability(hdata, (shell, shell))
        for other in range(shell):
            contribution += _real_probability(hdata, (shell, other))
            contribution += _real_probability(hdata, (other, shell))
        total += contribution
        if abs(contribution) <= max(1e-30, TAIL_RELATIVE_TOL * abs(total)):
            quiet_shells += 1
            if quiet_shells >= 2:
                return total
        else:
            quiet_shells = 0
    raise NumericalError("occupancy tail failed to converge by shell %d" % TAIL_OCCUPANCY_CAP)


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
