"""End-to-end computations behind the command-line tables: negativity decay
sweeps, scalar-vacuum fidelity scans with squeezing optimization, and
qudit-subspace occupation deficits."""

import functools

import numpy as np

from ionmodes import fock, gaussian, scalar_field
from ionmodes.ion_chain import IonChainModel
from ionmodes.numerics import integer, integer_list

__all__ = [
    "chain_model",
    "negativity_cell",
    "negativity_rows",
    "fidelity_cell",
    "fidelity_rows",
    "fock_cell",
    "fock_rows",
    "chain_report",
]

TREATMENTS = ("trace", "phi", "pi")


def chain_model(n_ions):
    """Cached IonChainModel, keyed on n_ions read as an integer, so 3 and
    3.0 share one build (builds are deterministic and models read-only, so
    sharing is safe)."""
    return _chain_model(integer(n_ions, "n_ions"))


@functools.lru_cache(maxsize=None)
def _chain_model(n_ions):
    return IonChainModel.build(n_ions)


def _region_sites(length, size, separation):
    """Sites of two equal regions of `size` sites, `separation` sites apart
    and centered in a lattice of `length` sites (the extra site of an uneven
    margin on the right), region A first; None when they do not fit."""
    if size < 1 or separation < 0:
        raise ValueError("region size must be >= 1 and separation >= 0")
    span = 2 * size + separation
    if span > length:
        return None
    start = (length - span) // 2
    return list(range(start, start + size)) + list(range(start + size + separation, start + span))


def negativity_cell(system, chain_size, region_size, separation, treatment):
    """One log-negativity value, or None when the geometry does not fit.

    system "ion": regions of `region_size` ions centered in a chain of
    `chain_size`, everything else traced out or phi/pi-homodyned.
    system "scalar": same regions on the infinite lattice (chain_size is
    ignored); measurements cover the whole infinite exterior.  Both states
    are pure with no phi-pi cross block, so one step builds either from its
    (Phi, Pi) blocks over the regions' sites.
    """
    if treatment not in TREATMENTS:
        raise ValueError("treatment must be one of %s" % (TREATMENTS,))
    d = integer(region_size, "region_size")
    sep = integer(separation, "separation")
    if system == "ion":
        model = chain_model(integer(chain_size, "chain_size"))  # validated even when nothing fits
        sites = _region_sites(model.n_ions, d, sep)
        if sites is None:
            return None
        pair = np.ix_(sites, sites)
        phi, pi = model.phi_block[pair], model.pi_block[pair]
    elif system == "scalar":
        sites = _region_sites(2 * d + sep, d, sep)
        spec = scalar_field.ScalarFieldSpec()
        phi, pi = spec.phi_block(sites), spec.pi_block(sites)
    else:
        raise ValueError("system must be 'ion' or 'scalar'")
    if treatment != "trace":
        phi, pi = gaussian.measure_pure_complement(phi, pi, treatment)
    return gaussian.log_negativity(gaussian.from_blocks(phi, pi), range(d), range(d, 2 * d))


def negativity_rows(system, chain_size, region_size, separations, treatments=TREATMENTS):
    """Rows (system, chain_size, region_size, separation, treatment, value),
    value None for infeasible geometry, sorted by separation then treatment."""
    n, d = integer(chain_size, "chain_size"), integer(region_size, "region_size")
    rows = [(system, n, d, sep, treatment, negativity_cell(system, n, d, sep, treatment))
            for sep in integer_list(separations, "separations") for treatment in treatments]
    order = {t: i for i, t in enumerate(TREATMENTS)}
    rows.sort(key=lambda r: (r[3], order[r[4]]))
    return rows


def _window_blocks(model, window):
    """(Phi, Pi) of the centered window of `window` ions."""
    if window > model.n_ions or window < 1:
        raise ValueError("window must fit inside the chain")
    left = (model.n_ions - window) // 2
    sites = slice(left, left + window)
    return model.phi_block[sites, sites], model.pi_block[sites, sites]


def fidelity_cell(chain_size, window, self_test=False):
    """(z_star, raw fidelity, squeezed fidelity) for the centered window of
    the chain against the same-size scalar vacuum window.

    self_test replaces the scalar target by the ion source itself, which
    must drive z_star to 1 and both fidelities to 1.
    """
    window = integer(window, "window")
    source = _window_blocks(chain_model(integer(chain_size, "chain_size")), window)
    spec, sites = scalar_field.ScalarFieldSpec(), range(window)
    target = source if self_test else (spec.phi_block(sites), spec.pi_block(sites))
    return gaussian.optimize_global_squeeze(source, target)


def fidelity_rows(chain_size, windows, self_test=False):
    """Rows (chain_size, window, z_star, fidelity_raw, fidelity_squeezed),
    sorted by window."""
    n = integer(chain_size, "chain_size")
    rows = [(n, w) + fidelity_cell(n, w, self_test) for w in integer_list(windows, "windows")]
    rows.sort(key=lambda r: r[1])
    return rows


def two_ion_states():
    """Raw two-ion local-mode state and its variance-balanced squeeze.

    The balancing squeeze z_j = (sigma_pipi(j,j) / sigma_phiphi(j,j))^(1/4)
    equalizes the phi and pi variances per mode; for the two-ion chain it
    turns the state into an exact two-mode squeezed vacuum.
    """
    model = chain_model(2)
    raw = squeezed = model.cm
    for j in range(2):
        z = (model.pi_block[j, j] / model.phi_block[j, j]) ** 0.25
        s = gaussian.single_mode_squeeze(2, z, [j])
        squeezed = gaussian.apply_symplectic(squeezed, s)
    return raw, squeezed


def fock_cell(dim):
    """(P_out raw, P_out squeezed) for the two-ion state at qudit dim."""
    return tuple(fock.qudit_subspace_deficit(cm, dim) for cm in two_ion_states())


def fock_rows(dims):
    """Rows (dim, p_out_raw, p_out_squeezed), sorted by dim."""
    rows = [(d,) + fock_cell(d) for d in integer_list(dims, "dims")]
    rows.sort(key=lambda r: r[0])
    return rows


def chain_report(n_ions):
    """Equilibrium summary of a chain: positions, frequencies, and (for
    small chains) the full local-mode CM."""
    model = chain_model(integer(n_ions, "n_ions"))
    report = {
        "n_ions": model.n_ions,
        "positions": model.positions.tolist(),
        "frequencies": model.frequencies.tolist(),
    }
    if model.n_ions <= 6:
        report["cm"] = model.cm.tolist()
    return report
