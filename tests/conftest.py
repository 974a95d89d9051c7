"""Shared fixtures and random-state helpers for the test suite."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm, sqrtm

from ionmodes import experiments, fock, gaussian, numerics, scalar_field


def random_physical_cm(rng, n_modes, thermal_max=2.0, strength=0.6):
    """Random physical covariance matrix S diag(nu) S^T with nu >= 1.

    S = expm(Omega H) for a random symmetric H is symplectic, so the
    symplectic spectrum of the result is exactly the chosen nu vector.
    """
    h = rng.normal(scale=strength, size=(2 * n_modes, 2 * n_modes))
    h = 0.5 * (h + h.T)
    s = expm(gaussian.symplectic_form(n_modes) @ h)
    nu = rng.uniform(1.0, thermal_max, size=n_modes)
    return s @ np.diag(np.repeat(nu, 2)) @ s.T, s, nu


def random_local_symplectic(rng, n_modes, z_max=1.8):
    """Block-diagonal (mode-local) symplectic: rotation, squeeze, rotation."""
    s = np.eye(2 * n_modes)
    for j in range(n_modes):
        for factor in (
                gaussian.single_mode_rotation(n_modes, rng.uniform(0, 2 * np.pi), [j]),
                gaussian.single_mode_squeeze(n_modes, rng.uniform(1.0 / z_max, z_max), [j]),
                gaussian.single_mode_rotation(n_modes, rng.uniform(0, 2 * np.pi), [j])):
            s = factor @ s
    return s


def recursive_hafnian(b):
    """Textbook recursion: pair index 0 with every partner."""
    n = b.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n % 2 == 1:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    rest = list(range(1, n))
    for t, j in enumerate(rest):
        keep = rest[:t] + rest[t + 1:]
        total += b[0, j] * recursive_hafnian(b[np.ix_(keep, keep)])
    return total


def hafnian_deficit(sigma, dim):
    """Qudit subspace deficit by the route fock.qudit_subspace_deficit took
    before its pure-state amplitude recurrence, for mixed states too: the
    direct complement 1 - (sum of the D^2 diagonal elements from
    fock.matrix_element), and, once that falls below 1e-6, a sum of
    diagonal elements over occupancy shells max(m1, m2) >= D up to shell 32
    that stops after two shells below fock.TAIL_RELATIVE_TOL of the total.

    The complement cancels: it misses a 30-digit reference by 1.7e-11
    relative on the raw two-ion state at D = 6.
    """
    h = fock.husimi_data(sigma)

    def probability(occ):
        value = fock.matrix_element(h, occ, occ, cap=None)
        assert abs(value.imag) <= 1e-10 * max(1.0, abs(value.real))
        return value.real

    deficit = 1.0 - math.fsum(
        probability((m1, m2)) for m1 in range(dim) for m2 in range(dim))
    if deficit >= 1e-6:
        return deficit
    total = 0.0
    quiet_shells = 0
    for shell in range(dim, 33):
        contribution = probability((shell, shell))
        for other in range(shell):
            contribution += probability((shell, other))
            contribution += probability((other, shell))
        total += contribution
        if abs(contribution) <= max(1e-30, fock.TAIL_RELATIVE_TOL * abs(total)):
            quiet_shells += 1
            if quiet_shells >= 2:
                return total
        else:
            quiet_shells = 0
    raise numerics.NumericalError("occupancy tail failed to converge by shell 32")


def outside(region):
    """Sites of the region's lattice that lie in neither region, in order."""
    inside = set(region.region_a) | set(region.region_b)
    return [i for i in range(region.length) if i not in inside]


def sqrtm_fidelity(sigma_1, sigma_2):
    """Uhlmann fidelity by the matrix-square-root route that gaussian.fidelity
    used before its auxiliary-spectrum form: F^4 = det(2 (sqrt(1 +
    (V_aux Omega)^-2 / 4) + 1) V_aux) / det(V_1 + V_2), hbar = 1 units.

    Loses ~sqrt(eps) per auxiliary eigenvalue w_k near 1, and sqrtm meets a
    singular matrix when either state is pure, so compare it on mixed pairs
    only.
    """
    n = sigma_1.shape[0] // 2
    v1 = 0.5 * np.asarray(sigma_1, dtype=float)
    v2 = 0.5 * np.asarray(sigma_2, dtype=float)
    omega = gaussian.symplectic_form(n)
    vsum = v1 + v2
    vaux = omega.T @ np.linalg.solve(vsum, 0.25 * omega + v2 @ omega @ v1)
    t = vaux @ omega
    root = sqrtm(np.eye(2 * n) + 0.25 * np.linalg.inv(t @ t))
    if np.iscomplexobj(root):
        root = root.real
    _, logdet_n = np.linalg.slogdet(2.0 * (root + np.eye(2 * n)) @ vaux)
    _, logdet_d = np.linalg.slogdet(vsum)
    return float(np.exp(0.25 * (logdet_n - logdet_d)))


def sqrt_spectrum(sigma):
    """Symplectic spectrum by the route gaussian.symplectic_spectrum took
    before its Cholesky form: the ordinary eigenvalues of sigma^(1/2)
    Omega^T sigma Omega sigma^(1/2) are the nu_k^2, each doubled, with
    sigma^(1/2) from numerics.principal_sqrt.

    Squaring the spectrum costs it ~1e-13 absolute near nu = 1, where the
    Cholesky route keeps ~1e-16.
    """
    sigma, n = gaussian.validate_cm(sigma)
    if np.linalg.eigvalsh(sigma)[0] <= 0.0:
        raise numerics.NumericalError("covariance matrix is not positive definite")
    root = numerics.principal_sqrt(sigma)
    omega = gaussian.symplectic_form(n)
    nu = np.sort(np.sqrt(np.abs(np.linalg.eigvalsh(root @ omega.T @ sigma @ omega @ root))))
    assert np.abs(nu[0::2] - nu[1::2]).max() <= 1e-6 * max(1.0, nu[-1])
    return 0.5 * (nu[0::2] + nu[1::2])


def loop_gradient_compensated(z):
    """Potential gradient as ion_chain._gradient_compensated computed it
    before it built its terms in one array: a double loop over ion pairs,
    one exactly rounded math.fsum per ion."""
    n = len(z)
    out = np.empty(n)
    for i in range(n):
        terms = [2.0 * z[i]]
        for j in range(n):
            if j == i:
                continue
            d = z[i] - z[j]
            terms.append(-math.copysign(2.0, d) / d**2)
        out[i] = math.fsum(terms)
    return out


def panel_loop_quad(f, delta, inner_scale=None, nodes_per_panel=24):
    """Brillouin-zone quadrature as numerics.quad_oscillatory computed it
    before it went to whole arrays: the same panels and Gauss-Legendre
    rule, with f called once per panel and sign of k, summed in that
    order."""
    edges = numerics._panel_edges(delta, inner_scale)
    x, w = leggauss(nodes_per_panel)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        for sign in (1.0, -1.0):
            k = sign * (half * x + mid)
            total += half * float(np.dot(w, f(k)))
    return total / (2.0 * np.pi)


def loop_panel_edges(delta, inner_scale):
    """Panel boundaries as numerics._panel_edges built them before its single
    array expression: one np.linspace per coarse panel wider than the cap."""
    edges = [np.pi]
    if inner_scale is not None:
        floor = max(float(inner_scale), 1e-13)
        e = np.pi
        while e > 8.0 * floor:
            e *= 0.5
            edges.append(e)
    edges.append(0.0)
    edges = np.array(sorted(set(edges)))
    width_cap = np.pi / (2.0 * max(1, abs(int(delta))))
    refined = [0.0]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo <= width_cap:
            refined.append(hi)
        else:
            pieces = int(np.ceil((hi - lo) / width_cap))
            refined.extend(np.linspace(lo, hi, pieces + 1)[1:])
    return np.array(refined)


def quad_entries(mass, separation):
    """(<phi_0 phi_d>, <pi_0 pi_d>) by the route ScalarFieldSpec took before
    its half-zone fill: one numerics.quad_oscillatory each over
    cos(k d) / omega_k and cos(k d) * omega_k, both halves of the zone, with
    omega_k recomputed in every integrand call."""
    d = abs(int(separation))

    def omega(k):
        return np.sqrt(mass**2 + 4.0 * np.sin(0.5 * k) ** 2)

    phi = numerics.quad_oscillatory(lambda k: np.cos(k * d) / omega(k), d, inner_scale=mass)
    pi = numerics.quad_oscillatory(lambda k: np.cos(k * d) * omega(k), d, inner_scale=mass)
    return phi, pi


def tmsv_cm(r):
    """Two-mode squeezed vacuum CM in the interleaved basis."""
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    phi = np.array([[c, s], [s, c]])
    pi = np.array([[c, -s], [-s, c]])
    return gaussian.from_blocks(phi, pi)


@pytest.fixture(scope="session")
def two_ion_cm():
    return experiments.chain_model(2).cm


@pytest.fixture(scope="session")
def three_ion_model():
    return experiments.chain_model(3)


@pytest.fixture(scope="session")
def field_spec():
    return scalar_field.ScalarFieldSpec()


@pytest.fixture(scope="session")
def chain30():
    return experiments.chain_model(30)
