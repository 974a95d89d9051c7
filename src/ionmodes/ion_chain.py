"""Axial modes of a chain of ions in a harmonic trap, in the dimensionless
units where the center-of-mass frequency and the equilibrium length scale
are both 1.  The dimensionless potential is

    u(z) = sum_i z_i^2 + sum_{i != j} 1 / |z_i - z_j|

so its Hessian is twice the usual dynamical matrix of the quadratic form.
The trap and the repulsion are mirror-symmetric, so the chain is solved
on its upper half and its Hessian diagonalized in its even and odd
blocks, each about half the size (James, Appl. Phys. B 66, 181 (1998)).
A built chain keeps its mode frequencies and the (Phi, Pi) blocks of its
local-mode ground state, not the mode vectors.
"""

import math
from dataclasses import dataclass

import numpy as np

from ionmodes.gaussian import from_blocks
from ionmodes.numerics import NumericalError, integer, integer_list, positive

__all__ = [
    "PhysicalScales",
    "IonChainModel",
    "solve_equilibrium",
    "local_mode_blocks",
    "compute_scales",
]

MAX_IONS = 300

# infinity-norm of the potential gradient at convergence, measured with
# compensated summation (plain accumulation bottoms out near 1e-11 for
# N = 300, far above the true gradient at the converged point).  For n
# terms p_i with exact sum S, _compensated_row_sums returns S within
# u |S| + gamma(2 L)^2 sum |p_i|, with u = 2^-53, L = ceil(log2 n) and
# gamma(k) = k u / (1 - k u): at N = 300 (L = 9, sum |p_i| <= 1.1e3 at the
# equilibrium) the second term is below 5e-27, far under this tolerance
GRADIENT_TOL = 1e-12

COM_FREQUENCY_TOL = 1e-10

# max-norm of Phi Pi - 1 for the local-mode ground state: a pure state with
# no phi-pi cross block has Pi = Phi^-1 (measured 3.3e-15 at N = 150 and
# 3.6e-15 at N = 300), which homodyne conditioning by
# gaussian.measure_pure_complement relies on
PURITY_TOL = 1e-12

# SI constants, CODATA 2022 as in scipy.constants 1.17.1 (kept as literals
# so importing the package does not load scipy)
atomic_mass = 1.66053906892e-27  # kg
elementary_charge = 1.602176634e-19  # C
epsilon_0 = 8.8541878188e-12  # F / m
hbar = 1.0545718176461565e-34  # J s


def _derivatives(z, rows):
    """Potential gradient and Hessian rows at the given ions, both from one
    array of differences d = z_i - z_j: the force terms sign(d) / d^2 and
    the couplings 2 / |d|^3, each rounded as sign(d) / d**2 and 2 / |d|**3
    round.  The converged positions rest on these roundings to the bit:
    taken from r = 1 / d instead (r |r|, 2 |r|^3) the terms are cheaper
    but round differently, and move the positions by ulps."""
    d = z[rows, None] - z[None, :]
    diagonal = np.arange(len(rows)), rows
    d[diagonal] = np.inf
    size = np.abs(d)
    force = np.multiply(d, size)  # sign(d) d^2
    np.reciprocal(force, out=force)  # 0 on the self pair
    grad = 2.0 * z[rows] - 2.0 * force.sum(axis=1)
    np.power(size, 3.0, out=size)
    hess = np.divide(-2.0, size, out=size)
    hess[diagonal] = 1.0 - hess.sum(axis=1)
    return grad, hess


def _compensated_row_sums(terms):
    """Sum of each row of a 2-D array by a pairwise TwoSum cascade: every
    level adds the two halves of the row and keeps the exact rounding error
    of each addition (Knuth's TwoSum), the errors summed alongside and added
    at the end (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 1955 (2005),
    with pairwise in place of sequential order).  Its error bound is given
    beside GRADIENT_TOL."""
    s = np.array(terms, dtype=float)
    c = np.zeros_like(s)
    while s.shape[1] > 1:
        width = s.shape[1]
        half, odd = width // 2, width % 2
        a, b = s[:, :half], s[:, half:2 * half]
        total = a + b
        back = total - a
        error = (a - (total - back)) + (b - back)
        error += c[:, :half]
        error += c[:, half:2 * half]
        s[:, :half], c[:, :half] = total, error
        if odd:  # the unpaired last column moves up a level
            s[:, half], c[:, half] = s[:, -1], c[:, -1]
        s, c = s[:, :half + odd], c[:, :half + odd]
    return s[:, 0] + c[:, 0]


def _gradient_compensated(z, rows):
    """Potential gradient at the given ions, each row of terms summed by
    _compensated_row_sums (equal to the exactly rounded sum at every
    equilibrium of 2..MAX_IONS ions)."""
    diff = z[rows, None] - z[None, :]
    diagonal = np.arange(len(rows)), rows
    diff[diagonal] = np.inf
    terms = np.abs(diff)
    terms *= diff
    np.divide(-2.0, terms, out=terms)  # -2 sign(d) / d^2, to the bit
    terms[diagonal] = 2.0 * z[rows]  # the trap term, in place of the self term's -0.0
    return _compensated_row_sums(terms)


def _mirror_halves(n):
    """Indices of the upper floor(n / 2) ions, and of their mirror images
    (the lower ions, in reverse order)."""
    upper = np.arange(n - n // 2, n)
    return upper, n - 1 - upper


def solve_equilibrium(n_ions):
    """Dimensionless equilibrium positions of n ions, ascending.

    The trap and the Coulomb repulsion are mirror-symmetric, so the chain
    is odd-symmetric about the origin.  Newton runs on the floor(n / 2)
    upper positions U only: each lower position is the negative of its
    mirror image, and for odd n the centre ion stays at 0.  The gradient is
    taken over the rows U, and the step matrix is the reduced Hessian
    H[U, U] - H[U, J U], where J reverses the ion order.

    Newton starts from a uniform spread and is converged when the
    compensated gradient infinity-norm reaches 1e-12, or the float64
    representation floor for large chains: positions are quantized at one
    ulp (about 2e-15 here), so the gradient cannot drop below stiffness
    times ulp, about 2e-12 at n = 150.  In that regime the iterate is
    accepted once the Newton step falls below a few ulp, meaning no
    representable point does better.  The result is exactly odd-symmetric
    by construction and strictly ascending (NumericalError otherwise).
    """
    n = integer(n_ions, "n_ions")
    if n < 1 or n > MAX_IONS:
        raise ValueError("ion count must be between 1 and %d" % MAX_IONS)
    if n == 1:
        return np.zeros(1)
    upper, lower = _mirror_halves(n)
    half = 0.5 * n ** (2.0 / 3.0)
    z = np.zeros(n)
    z[upper] = np.linspace(-half, half, n)[upper]

    def mirrored_derivatives():
        z[lower] = -z[upper]
        return _derivatives(z, upper)

    def newton_step(grad, hess):
        return np.linalg.solve(2.0 * (hess[:, upper] - hess[:, lower]), grad)

    # phase 1: Newton with fast gradients down to 1e-9, where plain
    # summation is still accurate (its round-off floor is a few 1e-12).
    # From this start no chain of 2..MAX_IONS ions needs a damped step; it
    # takes 3-7 full steps.
    grad, hess = mirrored_derivatives()
    for _ in range(100):
        if float(np.abs(grad).max()) < 1e-9:
            break
        z[upper] -= newton_step(grad, hess)
        grad, hess = mirrored_derivatives()
    # phase 2: Newton on the compensated gradient, so the final tolerance
    # is checked free of accumulation round-off; the step matrix is the
    # Hessian at the current iterate, the first one phase 1's last
    for _ in range(10):
        grad = _gradient_compensated(z, upper)
        if float(np.abs(grad).max()) <= GRADIENT_TOL:
            break
        step = newton_step(grad, hess)
        if float(np.abs(step).max()) <= 4.0 * np.spacing(np.abs(z).max()):
            break  # stalled at the position representation floor
        z[upper] -= step
        _, hess = mirrored_derivatives()
    else:
        raise NumericalError("equilibrium Newton iteration failed to reach the gradient tolerance")
    if not np.all(np.diff(z) > 0.0):
        raise NumericalError("equilibrium positions are not strictly ascending")
    return z


def _mirror_modes(positions):
    """Eigenpairs (values, vectors in columns) of the even and odd blocks
    of the chain Hessian at the given positions, H[U, U] + H[U, J U] and
    H[U, U] - H[U, J U] over the upper ions U, J reversing the ion order;
    for odd n the even block also holds the centre ion, first, coupled by
    sqrt 2.

    The blocks are taken from the upper rows of the Hessian and, for odd
    n, the centre row; the full matrix is never formed.  The positions must
    be exactly odd-symmetric (z = -J z; ValueError otherwise): then every
    distance, and so every coupling, equals that of the mirror-image pair
    exactly, which makes the Hessian symmetric and centrosymmetric, each
    diagonal entry up to the rounding of its row sum.

    Each block's vectors get one Newton-Schulz step, X (3 - X^T X) / 2,
    which makes them orthonormal to round-off rather than to the ~n ulp
    of eigh: the chain state's purity (Pi = Phi^-1) rests on it.
    """
    z = np.asarray(positions, dtype=float)
    if z.ndim != 1 or not z.size or not np.array_equal(z, -z[::-1]):
        raise ValueError("positions must be a non-empty, exactly odd-symmetric chain")
    n = len(z)
    upper, lower = _mirror_halves(n)
    centre = n // 2
    _, rows = _derivatives(z, np.arange(centre, n))  # for odd n the centre row first
    upper_rows = rows[n % 2:]
    even = upper_rows[:, upper] + upper_rows[:, lower]
    if n % 2:
        coupling = math.sqrt(2.0) * upper_rows[:, centre]
        even = np.block([[rows[0, centre], coupling], [coupling[:, None], even]])
    pairs = []
    for block in (even, upper_rows[:, upper] - upper_rows[:, lower]):
        vals, vecs = np.linalg.eigh(block)
        pairs.append((vals, 0.5 * vecs @ (3.0 * np.eye(len(vals)) - vecs.T @ vecs)))
    return pairs


def _mirror_join(even, odd):
    """The centrosymmetric matrix with the given even and odd blocks, in the
    layout of _mirror_modes: the inverse of its block split."""
    m, centred = len(odd), len(even) - len(odd)
    inner = even[centred:, centred:]
    same, cross = 0.5 * (inner + odd), 0.5 * (inner - odd)  # [U, U] and [U, J U]
    top = m + centred  # the first upper ion
    out = np.empty((top + m, top + m))
    out[top:, top:], out[:m, :m] = same, same[::-1, ::-1]
    out[top:, :m], out[:m, top:] = cross[:, ::-1], cross[::-1]
    if centred:
        out[m, m] = even[0, 0]
        out[top:, m] = out[m, top:] = even[1:, 0] / math.sqrt(2.0)
        out[:m, m] = out[m, :m] = out[top:, m][::-1]
    return out


def _ground_state(positions):
    """(frequencies, Phi, Pi) of the local-mode ground state of the chain
    at the given equilibrium positions, the frequencies ascending.

    The blocks are assembled from those of the even and odd modes, so that
    no 1 / sqrt 2 rounds the mirror-pair components of a mode first.
    """
    parity = _mirror_modes(positions)
    squares = np.sort(np.concatenate([vals for vals, _ in parity]), kind="stable")
    if squares[0] <= 0.0:
        raise NumericalError("hessian is not positive definite")
    (phi_even, pi_even), (phi_odd, pi_odd) = (
        local_mode_blocks(np.sqrt(vals), vecs.T) for vals, vecs in parity)
    del parity  # free the mode vectors before the two n x n joins
    return np.sqrt(squares), _mirror_join(phi_even, phi_odd), _mirror_join(pi_even, pi_odd)


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
    phi_block: np.ndarray
    pi_block: np.ndarray

    @classmethod
    def build(cls, n_ions):
        positions = solve_equilibrium(n_ions)
        frequencies, phi, pi = _ground_state(positions)
        if abs(frequencies[0] - 1.0) > COM_FREQUENCY_TOL:
            raise NumericalError(
                "lowest mode frequency %.12f is not the center-of-mass mode" % frequencies[0])
        model = cls(len(positions), positions, frequencies, phi, pi)
        for array in (positions, frequencies, phi, pi):
            array.flags.writeable = False
        product = model.phi_block @ model.pi_block
        product[np.diag_indices(model.n_ions)] -= 1.0
        residual = float(np.abs(product, out=product).max())
        if residual > PURITY_TOL:
            raise NumericalError("chain ground state is not pure: max |Phi Pi - 1| = %.3e"
                                 % residual)
        return model

    def blocks(self, sites):
        """(Phi, Pi) over pairs of the given sites, in their order."""
        index = integer_list(sites, "sites")
        if index and not 0 <= min(index) <= max(index) < self.n_ions:  # numpy wraps -1
            raise ValueError("sites must lie in 0..%d, got %r" % (self.n_ions - 1, sites))
        pair = np.ix_(index, index)
        return self.phi_block[pair], self.pi_block[pair]

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
    if (curvature is None) == (axial_frequency is None):
        raise ValueError("supply exactly one of curvature or axial_frequency")
    charge, mass = positive(charge, "charge"), positive(mass, "mass")
    if curvature is not None:
        curvature, omega_z = positive(curvature, "curvature"), None
        given = "curvature = %r" % curvature
    else:
        omega_z = positive(axial_frequency, "axial_frequency")
        given = "axial_frequency = %r" % omega_z
    try:
        if omega_z is None:
            omega_z = math.sqrt(2.0 * charge * curvature / mass)
        else:
            curvature = mass * omega_z**2 / (2.0 * charge)
        spacing = (charge / (8.0 * math.pi * epsilon_0 * curvature)) ** (1.0 / 3.0)
        ground = math.sqrt(hbar / (mass * omega_z))
        scales = (curvature, omega_z, spacing, ground)
    except (OverflowError, ZeroDivisionError):
        scales = (math.inf,)
    if not all(0.0 < value < math.inf for value in scales):
        raise ValueError("charge = %r, mass = %r and %s give trap scales outside the float range"
                         % (charge, mass, given))
    return PhysicalScales(charge, mass, *scales)


def ytterbium_mass(isotope=171):
    """Convenience: ion mass in kg from the mass number (2 s.f. accuracy)."""
    return isotope * atomic_mass
