"""Vacuum correlations of a free massive scalar field on an infinite 1D
lattice, with dispersion omega_k = sqrt(mass^2 + 4 sin^2(k/2)).

Correlators are Toeplitz in the site separation d:

    phi_d = <phi_0 phi_d> = (1/2pi) integral dk cos(k d) / omega_k
    pi_d  = <pi_0  pi_d > = (1/2pi) integral dk cos(k d) * omega_k

Since omega_k^2 = 2 (x - cos k) with x = 1 + mass^2/2, Heine's integral
gives them in closed form: phi_d = Q_{d-1/2}(x) / pi (Legendre Q), and
pi_d = (2 + mass^2) phi_d - phi_{d-1} - phi_{d+1}.  Q_{-1/2} and Q_{1/2} are
complete elliptic integrals, and the Legendre recurrence gives the rest
(_vacuum_row).  Against 40-digit mpmath every entry is within 1e-13 at
each tested mass from 1e-10 to 1, a tenth of CORRELATOR_ABS_ERROR, the
bound the run manifests state as correlator_abs_error.

The small default mass only regulates the phi-phi zero mode; every quantity
with a massless limit is within O(mass^2 log mass) of it.

The tables read the vacuum by ScalarFieldSpec.blocks alone, so the interleaved
scalar_vacuum_cm and measured_vacuum_cm have no package caller (library API).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ionmodes.gaussian import from_blocks, measure_pure_complement
from ionmodes.numerics import integer, integer_list, integers, positive

__all__ = ["DEFAULT_MASS", "MASS_RANGE", "CORRELATOR_ABS_ERROR", "MAX_GAP", "ScalarFieldSpec",
           "scalar_vacuum_cm", "measured_vacuum_cm"]

DEFAULT_MASS = 1e-10

# absolute error bound of every closed-form correlator entry against
# 40-digit mpmath
CORRELATOR_ABS_ERROR = 1e-12

# accepted masses: mass^2 and 1 / mass^2 stay normal floats, so every entry
# is finite
MASS_RANGE = (1e-100, 1e100)

# a row of n entries recurs forward while 2 n mass <= FORWARD_LIMIT, where
# the dominant solution P_{n-1/2}(x) has grown by at most ~e^7 against Q;
# heavier rows run Miller's backward recurrence
FORWARD_LIMIT = 7.0

# Miller's recurrence starts this many e-folds of Q_{d-1/2} past a row's
# end, so the dominant solution it lets in is down by exp(-40) there
MILLER_EFOLDS = 20.0

# largest site gap served: its cached rows, up to 2^16 entries, take ~0.08 s;
# the cost grows linearly, so a gap of 1e8 would take ~2 min and ~10 GB
MAX_GAP = (1 << 16) - 1


def _elliptic_k_e(k2, k_comp):
    """Complete elliptic integrals K(k) and E(k) of modulus k = sqrt(k2), by
    the arithmetic-geometric mean started from the complementary modulus
    k_comp = sqrt(1 - k2), which the caller computes without cancellation."""
    a, b = 1.0, k_comp
    weight, lost = 0.5, 0.5 * k2  # sum of 2^(n-1) c_n^2 from c_0 = k
    while a - b > math.ulp(a):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        weight *= 2.0
        lost += weight * c * c
    big_k = math.pi / (2.0 * a)
    return big_k, big_k * (1.0 - lost)


def _vacuum_row(mass, size):
    """(phi, pi) entries at gaps 0 .. size - 1.

    With q_n = Q_{n-1/2}(x) and the differences delta_n = q_n - q_{n+1}:
    q_0 = k K(k) and delta_0 = sqrt(2 (x + 1)) E(k) - (mass^2 / 2) k K(k),
    where k^2 = 2 / (x + 1).  Q is the recessive solution of its recurrence,
    so a light row runs forward on the differences,
    (n + 1/2) delta_n = (n - 1/2) delta_{n-1} - n mass^2 q_n, and a heavy one
    runs Miller's backward recurrence normalized by q_0.  Then
    pi_d = mass^2 phi_d + (delta_d - delta_{d-1}) / pi with delta_{-1} =
    -delta_0, which keeps the massless cancellation in exact differences.
    """
    m2 = mass * mass
    root = math.sqrt(4.0 + m2)  # sqrt(2 (x + 1))
    big_k, big_e = _elliptic_k_e(4.0 / (4.0 + m2), mass / root)
    q0 = 2.0 / root * big_k
    if 2.0 * size * mass <= FORWARD_LIMIT:
        q = [q0]
        delta = [root * big_e - 0.5 * m2 * q0]
        for n in range(1, size):
            q.append(q[-1] - delta[-1])
            delta.append(((n - 0.5) * delta[-1] - n * m2 * q[-1]) / (n + 0.5))
        q, delta = np.array(q), np.array(delta)
    else:
        # Miller's recurrence on the ratios q_n / q_{n-1} = 1 - s_n, so
        # nothing overflows, from s = 0 far past the row's end down, in a
        # form whose terms are all positive (no cancellation as mass -> 0):
        # s_n = a / (a + n - 1/2) with a = n mass^2 + (n + 1/2) s_{n+1}
        keep, drop = np.empty(size), np.empty(size)
        mu = 2.0 * math.asinh(0.5 * mass)  # q_n ~ exp(-mu n)
        s = 0.0
        for n in range(size + math.ceil(MILLER_EFOLDS / mu), 0, -1):
            a = n * m2 + (n + 0.5) * s
            s = a / (a + (n - 0.5))
            if n <= size:
                keep[n - 1], drop[n - 1] = (n - 0.5) / (a + (n - 0.5)), s
        q = q0 * np.cumprod(np.concatenate(([1.0], keep[:-1])))
        delta = q * drop
    phi = q / math.pi
    pi = m2 * phi + np.diff(delta, prepend=-delta[0]) / math.pi
    return phi, pi


@functools.lru_cache(maxsize=None)
def _vacuum_entries(mass, size):
    """Read-only (phi, pi) entries at gaps 0 .. size - 1 for a power of two
    size, each gap d read from the row of _row_size(d) entries, so an entry
    is the same float whatever was asked before it.  Each row of a mass is
    computed once."""
    row = _vacuum_row(mass, size)
    if size > 1:
        lower = _vacuum_entries(mass, size // 2)
        row = tuple(np.concatenate((head, tail[size // 2:])) for head, tail in zip(lower, row))
    for entries in row:
        entries.flags.writeable = False
    return row


def _row_size(gap):
    """The power of two above gap (at most MAX_GAP): the row it is read from."""
    if gap > MAX_GAP:
        raise ValueError("site gap %d exceeds the largest supported gap, %d" % (gap, MAX_GAP))
    return 1 << int(gap).bit_length()


@dataclass(frozen=True)
class ScalarFieldSpec:
    """Lattice scalar field vacuum at one validated mass; every spec of a
    mass shares that mass's cached rows."""

    mass: float = DEFAULT_MASS

    def __post_init__(self):
        if not MASS_RANGE[0] <= positive(self.mass, "mass") <= MASS_RANGE[1]:
            raise ValueError("mass must be positive and finite, from %g to %g (it regulates "
                             "the zero mode), got %r" % (*MASS_RANGE, self.mass))

    def phi_entry(self, separation):
        """<phi_0 phi_separation> in the vacuum."""
        return self._entry(separation, 0)

    def pi_entry(self, separation):
        """<pi_0 pi_separation> in the vacuum."""
        return self._entry(separation, 1)

    def blocks(self, sites):
        """(Phi, Pi): <phi_i phi_j> and <pi_i pi_j> over pairs of the given
        sites, in their order, from the rows up to the largest gap."""
        index = np.array(integer_list(sites, "sites"), dtype=np.int64)
        gap = np.abs(index[:, None] - index)
        phi, pi = _vacuum_entries(self.mass, _row_size(gap.max(initial=0)))
        return phi[gap], pi[gap]

    def _entry(self, separation, column):
        gap = abs(integer(separation, "separation"))
        return _vacuum_entries(self.mass, _row_size(gap))[column][gap]


def scalar_vacuum_cm(window, spec=None):
    """Vacuum CM of a window of lattice sites (interleaved basis).

    `window` is either a site count (contiguous window, Toeplitz blocks) or
    an explicit list of site indices; the infinite rest of the lattice is
    traced out.  Without a spec, DEFAULT_MASS is used.
    """
    spec = spec or ScalarFieldSpec()
    count = integers(window, "window")
    sites = range(count) if count.ndim == 0 else sorted(set(integer_list(window, "window")))
    if not sites:
        raise ValueError("window must contain at least one site")
    return from_blocks(*spec.blocks(sites))


def measured_vacuum_cm(sites, quadrature, spec=None):
    """Vacuum CM of the given sites after homodyne measurement of one
    quadrature on every other site of the infinite lattice.

    Because phi-phi and pi-pi correlations are the kernels of mutually
    inverse Toeplitz operators (symbols 1/omega_k and omega_k), the vacuum
    is pure with no phi-pi cross block, so the Schur complement against the
    infinite measured exterior is the closed form of
    `gaussian.measure_pure_complement` on the two blocks over the sites.
    Without a spec, DEFAULT_MASS is used.
    """
    spec = spec or ScalarFieldSpec()
    sites = sorted(set(integer_list(sites, "sites")))
    if not sites:
        raise ValueError("need at least one retained site")
    return from_blocks(*measure_pure_complement(*spec.blocks(sites), quadrature))
