"""Gaussian ground-state entanglement of local motional modes in trapped-ion
chains and of the vacuum of a massive scalar field on a 1D lattice.

Covariance matrices are in the interleaved quadrature basis (phi_1, pi_1,
..., phi_n, pi_n) with the vacuum equal to the identity; cross-free routes
take a state with no phi-pi cross block as its (Phi, Pi) blocks instead.
"""

from ionmodes.numerics import NumericalError

__version__ = "0.1.0"

__all__ = ["NumericalError", "__version__"]
