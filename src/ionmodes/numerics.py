"""Shared numerical kernels: symmetric eigendecomposition with a fixed sign
convention, principal matrix square roots, oscillatory Brillouin-zone
quadrature, and bracketed 1D maximization."""

import numpy as np
import scipy.linalg
from numpy.polynomial.legendre import leggauss

__all__ = [
    "NumericalError",
    "sym_eigen",
    "principal_sqrt",
    "quad_oscillatory",
    "maximize_1d",
]

# relative tolerance below which a matrix counts as symmetric
SYMMETRY_TOL = 1e-12

# residual bound for principal_sqrt, relative to the max-norm of the input
SQRT_RESIDUAL_TOL = 1e-10


class NumericalError(RuntimeError):
    """An iterative or numerical routine failed to meet its tolerance."""


def _check_square(m):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix, got shape %s" % (m.shape,))


def sym_eigen(mat):
    """Eigendecomposition of a real symmetric matrix, deterministically signed.

    Eigenvalues are returned in ascending order.  Each eigenvector is
    normalized and its sign is fixed so that the component of largest
    magnitude (first such component on ties) is positive.

    Returns:
        (eigenvalues, eigenvectors) with eigenvectors in columns.
    """
    m = np.asarray(mat, dtype=float)
    _check_square(m)
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    vals, vecs = np.linalg.eigh(m)
    for k in range(vecs.shape[1]):
        lead = int(np.argmax(np.abs(vecs[:, k])))
        if vecs[lead, k] < 0.0:
            vecs[:, k] = -vecs[:, k]
    return vals, vecs


def principal_sqrt(mat):
    """Principal square root R of a real matrix, with R @ R = mat.

    Symmetric positive-semidefinite input goes through the eigenvalue route;
    anything else falls back to the Schur method.  The reconstruction
    residual ||R @ R - mat||_max must not exceed 1e-10 * ||mat||_max.
    """
    m = np.asarray(mat, dtype=float)
    _check_square(m)
    scale = float(np.abs(m).max())
    if scale == 0.0:
        return np.zeros_like(m)
    if float(np.abs(m - m.T).max()) <= SYMMETRY_TOL * scale:
        vals, vecs = np.linalg.eigh(m)
        if vals[0] < -SQRT_RESIDUAL_TOL * scale:
            raise NumericalError(
                "symmetric input has negative eigenvalue %g" % vals[0])
        root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    else:
        root = scipy.linalg.sqrtm(m)
        if np.iscomplexobj(root):
            if float(np.abs(root.imag).max()) > SQRT_RESIDUAL_TOL * np.sqrt(scale):
                raise NumericalError("input has no real principal square root")
            root = root.real
    residual = float(np.abs(root @ root - m).max())
    if residual > SQRT_RESIDUAL_TOL * scale:
        raise NumericalError(
            "square-root residual %.3e exceeds %.3e" % (residual, SQRT_RESIDUAL_TOL * scale))
    return root


def _panel_edges(delta, inner_scale):
    """Panel boundaries on (0, pi] for the Brillouin-zone quadrature.

    Panels are graded geometrically towards k = 0 when an inner feature
    scale is supplied (dispersion regularized by a small mass), and are
    everywhere no wider than a quarter period of cos(k * delta).
    """
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


def quad_oscillatory(f, delta, inner_scale=None, nodes_per_panel=24):
    """Integrate f over [-pi, pi] normalized by 2*pi, to ~1e-12 absolute.

    Composite Gauss-Legendre quadrature split at k = 0 (where the lattice
    dispersion has a derivative kink), with panels sized to resolve the
    cos(k * delta) oscillation and optionally graded towards k = 0 down to
    inner_scale.  Uses at least 32 * max(1, |delta|) nodes.

    Args:
        f: vectorized integrand over k.
        delta: integer harmonic index of the oscillation.
        inner_scale: optional width of the sharpest feature near k = 0.
    """
    edges = _panel_edges(delta, inner_scale)
    x, w = leggauss(nodes_per_panel)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        for sign in (1.0, -1.0):
            k = sign * (half * x + mid)
            total += half * float(np.dot(w, f(k)))
    return total / (2.0 * np.pi)


def maximize_1d(f, lo, hi, tol=1e-6, max_iter=200):
    """Golden-section maximization of a unimodal function on [lo, hi].

    If the maximizer lands within tol of a bracket edge, the bracket is
    widened once on that side and the search retried; hitting an edge again
    raises NumericalError.  Returns (argmax, max).
    """
    if not hi > lo:
        raise ValueError("empty bracket")

    def search(a, b):
        inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(max_iter):
            if b - a <= tol:
                break
            if fc < fd:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = f(d)
            else:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = f(c)
        else:
            raise NumericalError("golden-section search did not converge in %d iterations" % max_iter)
        x = 0.5 * (a + b)
        return x, f(x)

    width = hi - lo
    x, fx = search(lo, hi)
    if x - lo > tol and hi - x > tol:
        return x, fx
    # widen once towards the edge that was hit, then give up
    if x - lo <= tol:
        lo2, hi2 = lo - width, hi
    else:
        lo2, hi2 = lo, hi + width
    x, fx = search(lo2, hi2)
    if x - lo2 <= tol or hi2 - x <= tol:
        raise NumericalError("maximizer pinned to the bracket edge even after widening")
    return x, fx
