"""Vacuum correlations of a free massive scalar field on an infinite 1D
lattice, with dispersion omega_k = sqrt(mass^2 + 4 sin^2(k/2)).

Correlators are Toeplitz in the site separation:

    <phi_i phi_j> = (1/2pi) integral dk cos(k (i-j)) / omega_k
    <pi_i  pi_j > = (1/2pi) integral dk cos(k (i-j)) * omega_k

The small default mass only regulates the phi-phi zero mode; every quantity
with a massless limit is within O(mass^2 log mass) of it.
"""

from dataclasses import dataclass, field

import numpy as np

from ionmodes.gaussian import from_blocks, measure_pure_complement
from ionmodes.numerics import quad_oscillatory

__all__ = ["DEFAULT_MASS", "ScalarFieldSpec", "scalar_vacuum_cm", "measured_vacuum_cm"]

DEFAULT_MASS = 1e-10


@dataclass
class ScalarFieldSpec:
    """Lattice scalar field vacuum at a fixed mass, with cached correlator
    entries (one Brillouin-zone integral per separation and block)."""

    mass: float = DEFAULT_MASS
    _phi_cache: dict = field(default_factory=dict, repr=False)
    _pi_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive (it regulates the zero mode)")

    def _omega(self, k):
        return np.sqrt(self.mass**2 + 4.0 * np.sin(0.5 * k) ** 2)

    def phi_entry(self, separation):
        """<phi_0 phi_separation> in the vacuum."""
        d = abs(int(separation))
        if d not in self._phi_cache:
            self._phi_cache[d] = quad_oscillatory(
                lambda k: np.cos(k * d) / self._omega(k), d, inner_scale=self.mass)
        return self._phi_cache[d]

    def pi_entry(self, separation):
        """<pi_0 pi_separation> in the vacuum."""
        d = abs(int(separation))
        if d not in self._pi_cache:
            self._pi_cache[d] = quad_oscillatory(
                lambda k: np.cos(k * d) * self._omega(k), d, inner_scale=self.mass)
        return self._pi_cache[d]

    def phi_block(self, sites):
        return self._toeplitz_block(self.phi_entry, sites)

    def pi_block(self, sites):
        return self._toeplitz_block(self.pi_entry, sites)

    @staticmethod
    def _toeplitz_block(entry, sites):
        """entry(a - b) over pairs of sites, looked up once per distinct gap |a - b|."""
        sites = np.array([int(s) for s in sites])
        gap = np.abs(sites[:, None] - sites)
        row = [entry(g) if count else 0.0 for g, count in enumerate(np.bincount(gap.ravel()))]
        return np.array(row)[gap]


def scalar_vacuum_cm(window, spec=None):
    """Vacuum CM of a window of lattice sites (interleaved basis).

    `window` is either a site count (contiguous window, Toeplitz blocks) or
    an explicit list of site indices; the infinite rest of the lattice is
    traced out.
    """
    if spec is None:
        spec = ScalarFieldSpec()
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
    """
    if spec is None:
        spec = ScalarFieldSpec()
    sites = sorted(set(int(s) for s in sites))
    if not sites:
        raise ValueError("need at least one retained site")
    if quadrature not in ("phi", "pi"):
        raise ValueError("quadrature must be 'phi' or 'pi'")
    kept = spec.pi_block(sites) if quadrature == "phi" else spec.phi_block(sites)
    return measure_pure_complement(kept, quadrature)
