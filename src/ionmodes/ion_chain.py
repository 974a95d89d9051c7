"""Axial modes of a chain of ions in a harmonic trap, in the dimensionless
units where the center-of-mass frequency and the equilibrium length scale
are both 1.  The dimensionless potential is

    u(z) = sum_i z_i^2 + sum_{i != j} 1 / |z_i - z_j|

so its Hessian is twice the usual dynamical matrix of the quadratic form.
"""

import math
from dataclasses import dataclass

import numpy as np

from ionmodes.gaussian import from_blocks
from ionmodes.numerics import NumericalError, integer, sym_eigen

__all__ = [
    "PhysicalScales",
    "IonChainModel",
    "solve_equilibrium",
    "build_hessian",
    "normal_modes",
    "local_mode_blocks",
    "compute_scales",
]

MAX_IONS = 300

# infinity-norm of the potential gradient at convergence, measured with
# compensated summation (plain accumulation bottoms out near 1e-11 for
# N = 300, far above the true gradient at the converged point)
GRADIENT_TOL = 1e-12

COM_FREQUENCY_TOL = 1e-10

# max-norm of Phi Pi - 1 for the local-mode ground state: a pure state with
# no phi-pi cross block has Pi = Phi^-1 (measured 4e-15 at N = 150 and
# 6e-15 at N = 300), which homodyne conditioning by
# gaussian.measure_pure_complement relies on
PURITY_TOL = 1e-12

# SI constants, CODATA 2022 as in scipy.constants 1.17.1 (kept as literals
# so importing the package does not load scipy)
atomic_mass = 1.66053906892e-27  # kg
elementary_charge = 1.602176634e-19  # C
epsilon_0 = 8.8541878188e-12  # F / m
hbar = 1.0545718176461565e-34  # J s


def _gradient(z):
    """Potential gradient, vectorized (round-off floor ~1e-11 for large N)."""
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, np.inf)
    return 2.0 * z - 2.0 * np.sum(np.sign(diff) / diff**2, axis=1)


def _gradient_compensated(z):
    """Potential gradient with exact (fsum) term accumulation."""
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, np.inf)
    terms = -np.copysign(2.0, diff) / diff**2
    terms[np.diag_indices(len(z))] = 2.0 * z  # the trap term, in place of the diagonal's -0.0
    return np.array([math.fsum(row.tolist()) for row in terms])


def solve_equilibrium(n_ions):
    """Dimensionless equilibrium positions of n ions, ascending.

    Newton iteration on the potential gradient from a uniformly spread
    initial guess.  Converged when the exactly summed gradient
    infinity-norm reaches 1e-12, or the float64 representation floor for
    large chains: positions are quantized at one ulp (about 2e-15 here),
    so the gradient cannot drop below stiffness times ulp, about 2e-12 at
    n = 150.  In that regime the iterate is accepted once the Newton step
    falls below a few ulp, meaning no representable point does better.
    The result is exactly odd-symmetric about the origin and strictly
    ascending (NumericalError otherwise).
    """
    n = integer(n_ions, "n_ions")
    if n < 1 or n > MAX_IONS:
        raise ValueError("ion count must be between 1 and %d" % MAX_IONS)
    if n == 1:
        return np.zeros(1)
    half = 0.5 * n ** (2.0 / 3.0)
    z = np.linspace(-half, half, n)
    # phase 1: Newton with fast gradients down to 1e-9, where plain
    # summation is still accurate (its round-off floor is a few 1e-12).
    # From this start no chain of 2..MAX_IONS ions needs a damped step; it
    # takes 3-7 full steps.
    for _ in range(100):
        grad = _gradient(z)
        if float(np.abs(grad).max()) < 1e-9:
            break
        z = z - np.linalg.solve(2.0 * build_hessian(z), grad)
    # phase 2: Newton on the exactly summed gradient, so the final
    # tolerance is checked free of accumulation round-off
    for _ in range(10):
        z = 0.5 * (z - z[::-1])
        grad = _gradient_compensated(z)
        if float(np.abs(grad).max()) <= GRADIENT_TOL:
            break
        step = np.linalg.solve(2.0 * build_hessian(z), grad)
        if float(np.abs(step).max()) <= 4.0 * np.spacing(np.abs(z).max()):
            break  # stalled at the position representation floor
        z = z - step
    else:
        raise NumericalError("equilibrium Newton iteration failed to reach the gradient tolerance")
    if not np.all(np.diff(z) > 0.0):
        raise NumericalError("equilibrium positions are not strictly ascending")
    return z


def build_hessian(positions):
    """Hessian of the dimensionless potential at the given positions
    (equals twice the dynamical matrix; the mutual Coulomb term is counted
    once per ordered pair)."""
    z = np.asarray(positions, dtype=float)
    dist = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(dist, np.inf)
    coupling = 2.0 / dist**3
    hess = -coupling
    np.fill_diagonal(hess, 1.0 + np.sum(coupling, axis=1))
    return hess


def normal_modes(hessian):
    """Normal-mode frequencies and mode vectors of the chain.

    Returns (frequencies, modes) with frequencies ascending in units of the
    center-of-mass frequency and modes[k] the k-th orthonormal eigenvector
    (sign fixed by sym_eigen).
    """
    vals, vecs = sym_eigen(hessian)
    if vals[0] <= 0.0:
        raise NumericalError("hessian is not positive definite")
    return np.sqrt(vals), vecs.T


def local_mode_blocks(frequencies, modes):
    """(Phi, Pi) blocks of the ground state in the site-local mode basis.

    sigma_phiphi(i, j) = sum_k modes[k, i] modes[k, j] / frequencies[k] and
    sigma_pipi with weight frequencies[k] instead; the cross block vanishes.
    Vacuum = identity.
    """
    freqs = np.asarray(frequencies, dtype=float)
    e = np.asarray(modes, dtype=float)
    return (e.T / freqs) @ e, (e.T * freqs) @ e


@dataclass(frozen=True)
class IonChainModel:
    """Equilibrium structure and local-mode ground state of an ion chain.

    The ground state has no phi-pi cross block, so it is kept as its two
    n x n blocks over all sites.  Built models are shared between callers,
    so their arrays are read-only.
    """

    n_ions: int
    positions: np.ndarray
    frequencies: np.ndarray
    modes: np.ndarray
    phi_block: np.ndarray
    pi_block: np.ndarray

    @classmethod
    def build(cls, n_ions):
        positions = solve_equilibrium(n_ions)
        frequencies, modes = normal_modes(build_hessian(positions))
        if abs(frequencies[0] - 1.0) > COM_FREQUENCY_TOL:
            raise NumericalError(
                "lowest mode frequency %.12f is not the center-of-mass mode" % frequencies[0])
        model = cls(len(positions), positions, frequencies, modes,
                    *local_mode_blocks(frequencies, modes))
        for array in (positions, frequencies, modes, model.phi_block, model.pi_block):
            array.flags.writeable = False
        residual = float(np.abs(model.phi_block @ model.pi_block - np.eye(model.n_ions)).max())
        if residual > PURITY_TOL:
            raise NumericalError("chain ground state is not pure: max |Phi Pi - 1| = %.3e"
                                 % residual)
        return model

    @property
    def cm(self):
        """The interleaved 2n x 2n CM, assembled from the blocks on each
        call and read-only like them."""
        cm = from_blocks(self.phi_block, self.pi_block)
        cm.flags.writeable = False
        return cm


@dataclass(frozen=True)
class PhysicalScales:
    """Physical trap scales for a given ion species and axial confinement.

    spacing_scale is the Coulomb equilibrium length (the unit of the
    dimensionless positions); ground_state_scale is the zero-point spread
    of the center-of-mass mode (the unit of the local phase-space
    coordinates).  Both in meters.
    """

    charge: float
    mass: float
    curvature: float
    axial_frequency: float
    spacing_scale: float
    ground_state_scale: float

    @property
    def scale_ratio(self):
        return self.ground_state_scale / self.spacing_scale


def compute_scales(charge=elementary_charge, mass=None, curvature=None, axial_frequency=None):
    """Physical length scales of the axial trap.

    Exactly one of curvature (electric potential curvature, V/m^2) or
    axial_frequency (omega_z, rad/s) must be given, along with the ion mass
    in kg.  The two are related by omega_z^2 = 2 q kappa_2 / m; the spacing
    scale obeys l^3 = q / (8 pi epsilon_0 kappa_2) and the ground-state
    scale is sqrt(hbar / (m omega_z)).
    """
    if mass is None or mass <= 0 or charge <= 0:
        raise ValueError("charge and mass must be positive")
    if (curvature is None) == (axial_frequency is None):
        raise ValueError("supply exactly one of curvature or axial_frequency")
    if curvature is not None:
        if curvature <= 0:
            raise ValueError("curvature must be positive")
        omega_z = math.sqrt(2.0 * charge * curvature / mass)
    else:
        if axial_frequency <= 0:
            raise ValueError("axial_frequency must be positive")
        omega_z = float(axial_frequency)
        curvature = mass * omega_z**2 / (2.0 * charge)
    spacing = (charge / (8.0 * math.pi * epsilon_0 * curvature)) ** (1.0 / 3.0)
    ground = math.sqrt(hbar / (mass * omega_z))
    return PhysicalScales(charge, mass, curvature, omega_z, spacing, ground)


def ytterbium_mass(isotope=171):
    """Convenience: ion mass in kg from the mass number (2 s.f. accuracy)."""
    return isotope * atomic_mass
