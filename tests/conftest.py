"""Shared fixtures and random-state helpers for the test suite."""

import numpy as np
import pytest
from scipy.linalg import expm, sqrtm

from ionmodes import experiments, gaussian, scalar_field


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
