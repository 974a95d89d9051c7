"""Vacuum correlations of a free massive scalar field on an infinite 1D
lattice, with dispersion omega_k = sqrt(mass^2 + 4 sin^2(k/2)).

Correlators are Toeplitz in the site separation:

    <phi_i phi_j> = (1/2pi) integral dk cos(k (i-j)) / omega_k
    <pi_i  pi_j > = (1/2pi) integral dk cos(k (i-j)) * omega_k

The small default mass only regulates the phi-phi zero mode; every quantity
with a massless limit is within O(mass^2 log mass) of it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ionmodes.gaussian import from_blocks, measure_pure_complement
from ionmodes.numerics import half_zone_nodes

__all__ = ["DEFAULT_MASS", "ScalarFieldSpec", "scalar_vacuum_cm", "measured_vacuum_cm"]

DEFAULT_MASS = 1e-10


@dataclass(frozen=True)
class ScalarFieldSpec:
    """Lattice scalar field vacuum at a fixed mass, with cached correlator
    entries: one half-zone quadrature per separation gives both its phi and
    its pi entry.  Frozen: the mass must stay that of the cached entries."""

    mass: float = DEFAULT_MASS
    _entries: dict = field(default_factory=dict, repr=False)  # gap -> (phi, pi)

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError("mass must be positive and finite (it regulates the zero mode), "
                             "got %r" % (self.mass,))

    def _fill(self, gaps):
        """Integrate every gap not yet cached.  omega_k and cos(k d) are
        computed once per node and shared by the phi and pi sums; both
        integrands are even in k, so the k < 0 half of the zone repeats the
        k > 0 sum exactly.  Each gap is stored in one assignment, so a
        concurrent reader sees either no entry or both; two threads that
        miss the same gap both integrate it and store equal values."""
        entries = self._entries
        for d in gaps:
            if d in entries:
                continue
            k, weights = half_zone_nodes(d, inner_scale=self.mass)
            omega = np.sqrt(self.mass**2 + 4.0 * np.sin(0.5 * k) ** 2)
            wave = np.cos(k * d)
            phi = float(np.dot(weights, wave / omega))
            pi = float(np.dot(weights, wave * omega))
            entries[d] = ((phi + phi) / (2.0 * np.pi), (pi + pi) / (2.0 * np.pi))

    def phi_entry(self, separation):
        """<phi_0 phi_separation> in the vacuum."""
        d = abs(int(separation))
        self._fill((d,))
        return self._entries[d][0]

    def pi_entry(self, separation):
        """<pi_0 pi_separation> in the vacuum."""
        d = abs(int(separation))
        self._fill((d,))
        return self._entries[d][1]

    def phi_block(self, sites):
        return self._toeplitz_block(sites, 0)

    def pi_block(self, sites):
        return self._toeplitz_block(sites, 1)

    def _toeplitz_block(self, sites, column):
        """Entries over pairs of sites; one fill integrates each distinct gap
        |a - b| the cache lacks, then every entry is read from the cache."""
        sites = np.array([int(s) for s in sites])
        gap = np.abs(sites[:, None] - sites)
        counts = np.bincount(gap.ravel())
        present = np.flatnonzero(counts).tolist()
        self._fill(present)
        row = np.zeros(counts.size)
        row[present] = [self._entries[d][column] for d in present]
        return row[gap]


# the spec behind every call that names none, so the entries it integrates
# serve all later calls at DEFAULT_MASS
_DEFAULT_SPEC = ScalarFieldSpec()


def scalar_vacuum_cm(window, spec=None):
    """Vacuum CM of a window of lattice sites (interleaved basis).

    `window` is either a site count (contiguous window, Toeplitz blocks) or
    an explicit list of site indices; the infinite rest of the lattice is
    traced out.  Without a spec the shared DEFAULT_MASS spec is used.
    """
    if spec is None:
        spec = _DEFAULT_SPEC
    sites = range(int(window)) if np.isscalar(window) else sorted(set(int(s) for s in window))
    if not sites:
        raise ValueError("window must contain at least one site")
    return from_blocks(spec.phi_block(sites), spec.pi_block(sites))


def measured_vacuum_cm(sites, quadrature, spec=None):
    """Vacuum CM of the given sites after homodyne measurement of one
    quadrature on every other site of the infinite lattice.

    Because phi-phi and pi-pi correlations are the kernels of mutually
    inverse Toeplitz operators (symbols 1/omega_k and omega_k), the Schur
    complement against the infinite measured exterior has a closed form:
    measuring phi leaves the pi block untouched and replaces the phi block
    by the inverse of the pi-correlator restriction (and dually for pi).
    Without a spec the shared DEFAULT_MASS spec is used.
    """
    if spec is None:
        spec = _DEFAULT_SPEC
    sites = sorted(set(int(s) for s in sites))
    if not sites:
        raise ValueError("need at least one retained site")
    if quadrature not in ("phi", "pi"):
        raise ValueError("quadrature must be 'phi' or 'pi'")
    kept = spec.pi_block(sites) if quadrature == "phi" else spec.phi_block(sites)
    return measure_pure_complement(kept, quadrature)
