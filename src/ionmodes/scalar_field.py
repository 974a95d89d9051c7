"""Vacuum correlations of a free massive scalar field on an infinite 1D
lattice, with dispersion omega_k = sqrt(mass^2 + 4 sin^2(k/2)).

Correlators are Toeplitz in the site separation:

    <phi_i phi_j> = (1/2pi) integral dk cos(k (i-j)) / omega_k
    <pi_i  pi_j > = (1/2pi) integral dk cos(k (i-j)) * omega_k

The small default mass only regulates the phi-phi zero mode; every quantity
with a massless limit is within O(mass^2 log mass) of it.  The entries meet
the manifests' 1e-12 quadrature_abs_error (against Legendre Q) only at
DEFAULT_MASS, the mass every command uses: mass 0.05 misses it by 2.4e-12.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ionmodes.gaussian import from_blocks, measure_pure_complement
from ionmodes.numerics import half_zone_nodes

__all__ = ["DEFAULT_MASS", "ScalarFieldSpec", "scalar_vacuum_cm", "measured_vacuum_cm"]

DEFAULT_MASS = 1e-10


@functools.lru_cache(maxsize=None)
def _vacuum_entries(mass, gap):
    """(phi, pi) vacuum entries at one separation gap >= 0, from one
    half-zone quadrature: omega_k and cos(k d) are computed once per node
    and shared by the phi and pi sums; both integrands are even in k, so the
    k < 0 half of the zone repeats the k > 0 sum exactly."""
    k, weights = half_zone_nodes(gap, inner_scale=mass)
    omega = np.sqrt(mass**2 + 4.0 * np.sin(0.5 * k) ** 2)
    wave = np.cos(k * gap)
    phi = float(np.dot(weights, wave / omega))
    pi = float(np.dot(weights, wave * omega))
    return phi / np.pi, pi / np.pi


@dataclass(frozen=True)
class ScalarFieldSpec:
    """Lattice scalar field vacuum at one validated mass; every spec of a
    mass shares that mass's cached entries."""

    mass: float = DEFAULT_MASS

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError("mass must be positive and finite (it regulates the zero mode), "
                             "got %r" % (self.mass,))

    def phi_entry(self, separation):
        """<phi_0 phi_separation> in the vacuum."""
        return _vacuum_entries(self.mass, abs(int(separation)))[0]

    def pi_entry(self, separation):
        """<pi_0 pi_separation> in the vacuum."""
        return _vacuum_entries(self.mass, abs(int(separation)))[1]

    def phi_block(self, sites):
        return self._toeplitz_block(sites, 0)

    def pi_block(self, sites):
        return self._toeplitz_block(sites, 1)

    def _toeplitz_block(self, sites, column):
        """Entries over pairs of sites; each distinct gap |a - b| is looked
        up once, and only the gaps present are ever integrated."""
        sites = np.array([int(s) for s in sites])
        gap = np.abs(sites[:, None] - sites)
        counts = np.bincount(gap.ravel())
        present = np.flatnonzero(counts).tolist()
        row = np.zeros(counts.size)
        row[present] = [_vacuum_entries(self.mass, d)[column] for d in present]
        return row[gap]


def scalar_vacuum_cm(window, spec=None):
    """Vacuum CM of a window of lattice sites (interleaved basis).

    `window` is either a site count (contiguous window, Toeplitz blocks) or
    an explicit list of site indices; the infinite rest of the lattice is
    traced out.  Without a spec, DEFAULT_MASS is used.
    """
    spec = spec or ScalarFieldSpec()
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
    Without a spec, DEFAULT_MASS is used.
    """
    spec = spec or ScalarFieldSpec()
    sites = sorted(set(int(s) for s in sites))
    if not sites:
        raise ValueError("need at least one retained site")
    if quadrature not in ("phi", "pi"):
        raise ValueError("quadrature must be 'phi' or 'pi'")
    kept = spec.pi_block(sites) if quadrature == "phi" else spec.phi_block(sites)
    return measure_pure_complement(kept, quadrature)
