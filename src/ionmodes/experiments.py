"""End-to-end computations behind the command-line tables: negativity decay
sweeps, scalar-vacuum fidelity scans with squeezing optimization, and
qudit-subspace occupation deficits."""

import threading

from ionmodes import fock, gaussian, scalar_field
from ionmodes.ion_chain import IonChainModel

__all__ = [
    "chain_model",
    "field_spec",
    "negativity_cell",
    "negativity_rows",
    "fidelity_cell",
    "fidelity_rows",
    "fock_cell",
    "fock_rows",
    "chain_report",
]

TREATMENTS = ("trace", "phi", "pi")

_cache_lock = threading.Lock()
_chain_cache = {}
_field_cache = {}


def chain_model(n_ions):
    """Cached IonChainModel (builds are deterministic, so sharing is safe)."""
    with _cache_lock:
        model = _chain_cache.get(n_ions)
    if model is None:
        model = IonChainModel.build(n_ions)
        with _cache_lock:
            _chain_cache.setdefault(n_ions, model)
    return model


def field_spec(mass=scalar_field.DEFAULT_MASS):
    with _cache_lock:
        spec = _field_cache.get(mass)
        if spec is None:
            spec = scalar_field.ScalarFieldSpec(mass)
            _field_cache[mass] = spec
    return spec


def negativity_cell(system, chain_size, region_size, separation, treatment, mass=None):
    """One log-negativity value, or None when the geometry does not fit.

    system "ion": regions of `region_size` ions centered in a chain of
    `chain_size`, everything else traced out or phi/pi-homodyned.
    system "scalar": same regions on the infinite lattice (chain_size is
    ignored); measurements cover the whole infinite exterior.
    """
    if treatment not in TREATMENTS:
        raise ValueError("treatment must be one of %s" % (TREATMENTS,))
    d = int(region_size)
    sep = int(separation)
    if system == "ion":
        n = int(chain_size)
        cm = chain_model(n).cm  # validates n even when the geometry does not fit
        if 2 * d + sep > n:
            return None
        region = gaussian.RegionSpec(n, d, sep)
        if treatment == "trace":
            state = gaussian.restrict(cm, region.region_a + region.region_b)
        else:
            state = gaussian.condition_homodyne(cm, region.outside, treatment)
        return gaussian.log_negativity(state, range(d), range(d, 2 * d))
    if system == "scalar":
        spec = field_spec(mass) if mass else field_spec()
        region = gaussian.RegionSpec(2 * d + sep, d, sep)
        sites = region.region_a + region.region_b
        if treatment == "trace":
            state = scalar_field.scalar_vacuum_cm(sites, spec)
        else:
            state = scalar_field.measured_vacuum_cm(sites, treatment, spec)
        return gaussian.log_negativity(state, range(d), range(d, 2 * d))
    raise ValueError("system must be 'ion' or 'scalar'")


def negativity_rows(system, chain_size, region_size, separations, treatments=TREATMENTS,
                    mass=None):
    """Rows (system, chain_size, region_size, separation, treatment, value),
    value None for infeasible geometry, sorted by separation then treatment."""
    rows = [(system, int(chain_size), int(region_size), int(sep), treatment,
             negativity_cell(system, chain_size, region_size, sep, treatment, mass))
            for sep in separations for treatment in treatments]
    order = {t: i for i, t in enumerate(TREATMENTS)}
    rows.sort(key=lambda r: (r[3], order[r[4]]))
    return rows


def _window_cm(model, window):
    if window > model.n_ions or window < 1:
        raise ValueError("window must fit inside the chain")
    left = (model.n_ions - window) // 2
    return gaussian.restrict(model.cm, range(left, left + window))


def fidelity_cell(chain_size, window, self_test=False, mass=None):
    """(z_star, raw fidelity, squeezed fidelity) for the centered window of
    the chain against the same-size scalar vacuum window.

    self_test replaces the scalar target by the ion source itself, which
    must drive z_star to 1 and both fidelities to 1.
    """
    model = chain_model(int(chain_size))
    source = _window_cm(model, int(window))
    if self_test:
        target = source
    else:
        spec = field_spec(mass) if mass else field_spec()
        target = scalar_field.scalar_vacuum_cm(int(window), spec)
    raw = gaussian.fidelity(source, target)
    z_star, f_star = gaussian.optimize_global_squeeze(source, target)
    return z_star, raw, f_star


def fidelity_rows(chain_size, windows, self_test=False, mass=None):
    """Rows (chain_size, window, z_star, fidelity_raw, fidelity_squeezed),
    sorted by window."""
    rows = [(int(chain_size), int(w)) + fidelity_cell(chain_size, w, self_test, mass)
            for w in windows]
    rows.sort(key=lambda r: r[1])
    return rows


def two_ion_states():
    """Raw two-ion local-mode state and its variance-balanced squeeze.

    The balancing squeeze z_j = (sigma_pipi(j,j) / sigma_phiphi(j,j))^(1/4)
    equalizes the phi and pi variances per mode; for the two-ion chain it
    turns the state into an exact two-mode squeezed vacuum.
    """
    raw = chain_model(2).cm
    squeezed = raw
    for j in range(2):
        z = (raw[2 * j + 1, 2 * j + 1] / raw[2 * j, 2 * j]) ** 0.25
        s = gaussian.single_mode_squeeze(2, z, [j])
        squeezed = gaussian.apply_symplectic(squeezed, s)
    return raw, squeezed


def fock_cell(dim, states=None):
    """(P_out raw, P_out squeezed) for the two-ion state at qudit dim.

    states: HusimiData of the raw and squeezed states.  Passing the same
    pair for every dimension shares their hafnian memos, so each shell tail
    sum reuses the recursion of the dimensions before it.
    """
    if states is None:
        states = [fock.husimi_data(cm) for cm in two_ion_states()]
    return tuple(fock.qudit_subspace_deficit(None, dim, hdata=h) for h in states)


def fock_rows(dims):
    """Rows (dim, p_out_raw, p_out_squeezed), sorted by dim."""
    states = [fock.husimi_data(cm) for cm in two_ion_states()]
    rows = [(int(d),) + fock_cell(int(d), states) for d in dims]
    rows.sort(key=lambda r: r[0])
    return rows


def chain_report(n_ions):
    """Equilibrium summary of a chain: positions, frequencies, and (for
    small chains) the full local-mode CM."""
    model = chain_model(int(n_ions))
    report = {
        "n_ions": model.n_ions,
        "positions": model.positions.tolist(),
        "frequencies": model.frequencies.tolist(),
    }
    if model.n_ions <= 6:
        report["cm"] = model.cm.tolist()
    return report
