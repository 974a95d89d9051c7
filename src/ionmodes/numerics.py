"""Shared numerical kernels and policy: the package's one reader of counts
and indices, symmetric eigendecomposition with a fixed sign convention,
Brillouin-zone quadrature, bracketed 1D maximization, and one BLAS thread.

Importing the package sets the OpenBLAS behind numpy.linalg to one thread,
for the whole process, including any other numpy code it runs.  The
package's kernels are small (chains of up to 300 ions, regions of up to 50
modes), where a second BLAS thread saved no wall time but spun on the
second core and doubled the CPU time; and a thread count that follows the
core count changes the last bits of the results, so pinned, every output
is the same float whatever the core count.  It is not the same float on
every CPU: numpy's wheels ship an OpenBLAS that picks its kernels by CPU,
and under other kernels (OPENBLAS_CORETYPE) the bits of 572-582 of the
719 golden-check cells changed, all 719 still passing and the printed 9
digits moving in at most 18.  The OpenBLAS is found through numpy's own
LAPACK extension (numpy >= 2 and 1.x wheels); any other BLAS is left
as it is, and blas_threads() then reads None.

principal_sqrt, half_zone_nodes and quad_oscillatory have no package caller
(the lattice correlators are closed forms in scalar_field).  They stay only
because the benchmark's span tracer (perfbench/spans.py) names
principal_sqrt and quad_oscillatory, and the tests' oracles use all three;
the benchmark refresh (ROADMAP item 2) moves them into tests/conftest.py."""

import ctypes
import functools

import numpy as np
from numpy.polynomial.legendre import leggauss

# principal_sqrt, half_zone_nodes and quad_oscillatory: for the benchmark
# tracer and the tests' oracles only (see the module docstring)
__all__ = [
    "NumericalError",
    "integers",
    "integer",
    "integer_list",
    "blas_threads",
    "sym_eigen",
    "principal_sqrt",
    "half_zone_nodes",
    "quad_oscillatory",
    "maximize_1d",
]

# relative tolerance below which a matrix counts as symmetric
SYMMETRY_TOL = 1e-12

# residual bound for principal_sqrt, relative to the max-norm of the input
SQRT_RESIDUAL_TOL = 1e-10

# Brent steps per search before it gives up (NumericalError)
BRENT_MAX_ITER = 200

# golden-section fraction (3 - sqrt 5) / 2: where Brent's search places its
# first point, and the share of the larger side a fallback step covers
_GOLDEN_SECTION = 0.5 * (3.0 - np.sqrt(5.0))

# (setter, getter) of the OpenBLAS thread count: numpy >= 2 wheels, numpy
# 1.x wheels, then a plain OpenBLAS build
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


class NumericalError(RuntimeError):
    """An iterative or numerical routine failed to meet its tolerance."""


def integers(values, what):
    """A count, index or sequence of them as int64 (0-d for one value).

    Integer-valued numbers such as 3.0 are accepted; anything int() would
    truncate (2.5), cannot read, or that overflows int64 raises ValueError
    naming `what`.
    """
    try:
        raw = np.asarray(values)
        if raw.dtype.kind != "i":
            raw = raw.astype(float)
            if not np.all((np.abs(raw) < 2.0**63) & (raw == np.round(raw))):
                raise ValueError
    except (TypeError, ValueError):
        raise ValueError("%s must be integer-valued, got %r" % (what, values)) from None
    return raw.astype(np.int64)


def integer(value, what):
    """One count or index as an int, read by `integers`."""
    read = integers(value, what)
    if read.ndim:
        raise ValueError("%s must be a single integer, got %r" % (what, value))
    return int(read)


def integer_list(values, what):
    """A sequence of counts or indices as a list of ints, read by `integers`;
    a single number or a nested list raises ValueError naming `what`."""
    read = integers(values, what)
    if read.ndim != 1:
        raise ValueError("%s must be a sequence of integers, got %r" % (what, values))
    return read.tolist()


def _pin_blas_threads():
    """Set numpy's OpenBLAS to one thread, process-wide (see the module
    docstring); returns its thread-count getter, None for any other BLAS."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for setter, getter in _OPENBLAS_THREAD_CALLS:
        if hasattr(lib, setter) and hasattr(lib, getter):
            set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads(1)
            return get_threads
    return None


_OPENBLAS_THREADS = _pin_blas_threads()


def blas_threads():
    """The thread count of numpy's OpenBLAS, or None for any other BLAS."""
    return None if _OPENBLAS_THREADS is None else _OPENBLAS_THREADS()


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
    """Principal square root R of a real symmetric positive-semidefinite
    matrix, with R @ R = mat, by the eigenvalue route.

    Raises ValueError on non-symmetric input.  The reconstruction residual
    ||R @ R - mat||_max must not exceed 1e-10 * ||mat||_max.
    """
    m = np.asarray(mat, dtype=float)
    _check_square(m)
    scale = float(np.abs(m).max())
    if scale == 0.0:
        return np.zeros_like(m)
    if float(np.abs(m - m.T).max()) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    vals, vecs = np.linalg.eigh(m)
    if vals[0] < -SQRT_RESIDUAL_TOL * scale:
        raise NumericalError("symmetric input has negative eigenvalue %g" % vals[0])
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    residual = float(np.abs(root @ root - m).max())
    if residual > SQRT_RESIDUAL_TOL * scale:
        raise NumericalError(
            "square-root residual %.3e exceeds %.3e" % (residual, SQRT_RESIDUAL_TOL * scale))
    return root


@functools.lru_cache(maxsize=None)
def _gauss_legendre():
    """The 24-node Gauss-Legendre rule on [-1, 1], built on first use."""
    x, w = leggauss(24)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _panel_edges(delta, inner_scale):
    """Panel boundaries on (0, pi] for the Brillouin-zone quadrature.

    Panels are graded geometrically towards k = 0 when an inner feature
    scale is supplied (dispersion regularized by a small mass), and are
    everywhere no wider than a quarter period of cos(k * delta).  A coarse
    panel [lo, hi] too wide for that is cut into equal pieces with the
    arithmetic of np.linspace(lo, hi, pieces + 1), so its inner edges are
    lo + i * (hi - lo) / pieces and its last edge is hi exactly.
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
    lo, hi = edges[:-1], edges[1:]
    width_cap = np.pi / (2.0 * max(1, abs(integer(delta, "delta"))))
    pieces = np.ceil((hi - lo) / width_cap).astype(np.intp)
    first = np.cumsum(pieces) - pieces
    index = np.arange(1, int(pieces.sum()) + 1) - np.repeat(first, pieces)
    refined = np.empty(index.size + 1)
    refined[0] = 0.0
    refined[1:] = index * np.repeat((hi - lo) / pieces, pieces) + np.repeat(lo, pieces)
    refined[first + pieces] = hi
    return refined


def half_zone_nodes(delta, inner_scale=None):
    """Composite Gauss-Legendre nodes k and weights on the half-zone (0, pi].

    The panels resolve the cos(k * delta) oscillation and are optionally
    graded towards k = 0 down to inner_scale (see _panel_edges), with 24
    nodes each; there are at least 16 * max(1, |delta|) nodes.  Integrating
    over [-pi, pi] takes the nodes -k as well, with the same weights.
    """
    edges = _panel_edges(delta, inner_scale)
    x, w = _gauss_legendre()
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (half[:, None] * x + mid[:, None]).ravel(), (half[:, None] * w).ravel()


def quad_oscillatory(f, delta, inner_scale=None):
    """Integrate f over [-pi, pi] normalized by 2*pi, to ~1e-12 absolute.

    Composite Gauss-Legendre quadrature split at k = 0 (where the lattice
    dispersion has a derivative kink), on the nodes of half_zone_nodes and
    their mirror images.  Uses at least 32 * max(1, |delta|) nodes.  All
    nodes of one half of the zone go to f in a single array, so f is called
    twice.

    Args:
        f: vectorized integrand over k.
        delta: integer harmonic index of the oscillation.
        inner_scale: optional width of the sharpest feature near k = 0.
    """
    k, weights = half_zone_nodes(delta, inner_scale)
    total = float(np.dot(weights, f(k))) + float(np.dot(weights, f(-k)))
    return total / (2.0 * np.pi)


def _brent_max(f, a, b, tol):
    """Bounded Brent search for the maximum of f on [a, b].

    Parabolic interpolation through the three best points so far, with a
    golden-section step whenever the parabola leaves the bracket or fails
    to halve the step before last (Forsythe, Malcolm & Moler, `fmin`).
    Every step moves at least tol/2 from the best point.  Stops once the
    best point lies within tol of both bracket ends, so it is within tol of
    the maximizer.
    """
    step_min = 0.5 * tol
    x = w = v = a + _GOLDEN_SECTION * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    for _ in range(BRENT_MAX_ITER):
        if max(x - a, b - x) <= tol:
            return x, fx
        mid = 0.5 * (a + b)
        parabolic = False
        if abs(e) > step_min:
            # vertex of the parabola through (v, fv), (w, fw), (x, fx)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                parabolic = True
                if x + d - a < tol or b - (x + d) < tol:
                    d = step_min if mid >= x else -step_min
        if not parabolic:
            e = (b - x) if x < mid else (a - x)
            d = _GOLDEN_SECTION * e
        u = x + (d if abs(d) >= step_min else np.copysign(step_min, d))
        fu = f(u)
        if fu >= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    raise NumericalError("Brent search did not converge in %d iterations" % BRENT_MAX_ITER)


def maximize_1d(f, lo, hi, tol=1e-6):
    """Bounded Brent maximization of a unimodal function on [lo, hi].

    The returned argmax is within tol of the maximizer.  If it lands within
    tol of a bracket edge, the bracket is widened once on that side and the
    search retried; hitting an edge again raises NumericalError, as does a
    search that needs more than BRENT_MAX_ITER steps.  Returns (argmax, max).
    """
    if not hi > lo:
        raise ValueError("empty bracket")
    width = hi - lo
    x, fx = _brent_max(f, lo, hi, tol)
    if x - lo > tol and hi - x > tol:
        return x, fx
    # widen once towards the edge that was hit, then give up
    if x - lo <= tol:
        lo2, hi2 = lo - width, hi
    else:
        lo2, hi2 = lo, hi + width
    x, fx = _brent_max(f, lo2, hi2, tol)
    if x - lo2 <= tol or hi2 - x <= tol:
        raise NumericalError("maximizer pinned to the bracket edge even after widening")
    return x, fx
