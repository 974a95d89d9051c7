"""Workload inputs, made from the seed alone (standard library only, so the
runner and its correctness checks can rebuild them without the package)."""

import math
import random

WORKLOADS = ("tables", "negativity-scan", "fock-rotated")

# negativity-scan: both systems, three region sizes, separations on a
# stride-10 grid whose offset comes from the seed.  The separation count
# per region size is the largest that fits for every offset, so every seed
# attempts the same number of values.
MAX_IONS = 300  # ionmodes.ion_chain.MAX_IONS, the longest chain the package builds
SYSTEMS = ("ion", "scalar")
REGION_SIZES = (1, 5, 20)
SEPARATION_STRIDE = 10
TREATMENTS = ("trace", "phi", "pi")

# fock-rotated: the two-ion state after an equal rotation theta and then an
# equal squeeze z on both modes.  The variance-balancing point (theta = 0,
# z = 3^(1/8)) gives an exact two-mode squeezed vacuum, where the deficit
# falls below 1e-6 from dimension 4 on and the shell tail sum runs.  A
# quarter turn swaps the phi and pi variances, so (1/z, pi/2) and
# (1/z, 3 pi/2) balance as well, and so does the half turn (z, pi).  The
# other points are drawn from two bands far from these, where the deficit
# at dimension 8 stays above 3e-5 and only the direct complement runs; they
# take about two thirds of the time.
BALANCE_Z = 3.0 ** 0.125
BALANCING_POINTS = ((BALANCE_Z, 0.0), (1.0 / BALANCE_Z, 0.5 * math.pi),
                    (BALANCE_Z, math.pi), (1.0 / BALANCE_Z, 1.5 * math.pi))
FAR_POINTS = 252
FAR_Z_BANDS = ((0.5, 0.65), (1.6, 2.5))
FAR_THETA = (0.05, 1.5)
AFTER_ROTATION = (0.3, 1.2)
QUDIT_DIMS = tuple(range(2, 9))


def negativity_grid(seed):
    """[(region_size, [separation, ...]), ...]"""
    offset = random.Random(seed).randrange(SEPARATION_STRIDE)
    grid = []
    for d in REGION_SIZES:
        count = (MAX_IONS - 2 * d - (SEPARATION_STRIDE - 1)) // SEPARATION_STRIDE + 1
        grid.append((d, [offset + SEPARATION_STRIDE * k for k in range(count)]))
    return grid


def negativity_cells(seed):
    """(system, region_size, separation, treatment) in the order the
    workload reports its values."""
    return [(system, d, sep, treatment)
            for system in SYSTEMS
            for d, separations in negativity_grid(seed)
            for sep in separations
            for treatment in TREATMENTS]


def fock_grid(seed):
    """([(z, theta), ...], extra rotation angle for the invariance check);
    the balancing points come first."""
    rng = random.Random(seed)
    points = list(BALANCING_POINTS)
    for k in range(FAR_POINTS):
        lo, hi = FAR_Z_BANDS[k % 2]
        z = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        points.append((z, rng.uniform(*FAR_THETA)))
    return points, rng.uniform(*AFTER_ROTATION)
