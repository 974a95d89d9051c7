"""Golden regression tables (reference values shipped as package data) and
the significant-figure tolerance policy used to check recomputed values
against them."""

import csv
import math
from dataclasses import dataclass
from importlib import resources

from ionmodes import experiments

__all__ = [
    "TABLES",
    "load_table",
    "significant_figures",
    "cell_tolerance",
    "check_table",
    "CellCheck",
    "TableReport",
]

# printed-value slack: |computed - golden| <= slack * 10^(floor(log10 |golden|) - s + 1)
POLICY_SLACK = {"default": 0.6, "strict": 0.5}

# squeeze arguments are compared at the table contract of +-0.002: the
# printed optima carry the source optimizer's own ln-z discretization
# (about 1e-4 relative, i.e. up to 7e-4 at z near 7), so print precision
# is not a faithful bound for this one column.  Fidelities themselves are
# flat at the optimum and stay under print precision.
Z_STAR_TOL = 2e-3

# table number -> (kind, fixed parameters)
TABLES = {
    1: ("negativity", {"chain_size": 150, "region_size": 1}),
    2: ("negativity", {"chain_size": 150, "region_size": 3}),
    3: ("negativity", {"chain_size": 150, "region_size": 5}),
    4: ("fidelity", {"chain_size": 30}),
    5: ("fidelity", {"chain_size": 50}),
    6: ("fidelity", {"chain_size": 150}),
    7: ("fock", {}),
}

NEGATIVITY_COLUMNS = {
    "ion_trace": ("ion", "trace"),
    "ion_phi": ("ion", "phi"),
    "ion_pi": ("ion", "pi"),
    "scalar_trace": ("scalar", "trace"),
    "scalar_phi": ("scalar", "phi"),
    "scalar_pi": ("scalar", "pi"),
}


def _read_csv(fh):
    reader = csv.DictReader(fh)
    rows = list(reader)
    return reader.fieldnames or [], rows


def load_table(table, data_dir=None):
    """Rows of the golden CSV as string dicts (strings keep the printed
    precision, which sets the tolerance).

    A CSV read from data_dir must have every column of the shipped table,
    at least one row, no short row, an integer in the first (key) column
    and a finite number in every other; otherwise a ValueError names the
    file, and the line and column of a bad cell.
    """
    if table not in TABLES:
        raise ValueError("table number must be in 1..7")
    name = "table%d.csv" % table
    with resources.files("ionmodes.data").joinpath(name).open(newline="") as fh:
        columns, rows = _read_csv(fh)
    if data_dir is None:
        return rows
    path = "%s/%s" % (data_dir, name)
    with open(path, newline="") as fh:
        present, rows = _read_csv(fh)
    missing = [c for c in columns if c not in present]
    if missing:
        raise ValueError("%s lacks column(s) %s" % (path, ", ".join(missing)))
    if not rows:
        raise ValueError("%s has no rows" % path)
    for number, row in enumerate(rows, start=2):
        if None in row.values():
            raise ValueError("%s line %d has too few fields" % (path, number))
        for column in columns:
            key, text = column == columns[0], row[column]
            try:
                if key:
                    int(text)
                readable = key or math.isfinite(float(text))
            except ValueError:
                readable = False
            if not readable:
                raise ValueError("%s line %d column %s: %r is not %s" % (
                    path, number, column, text, "an integer" if key else "a finite number"))
    return rows


def significant_figures(printed):
    """Number of significant figures in a printed decimal like '5.00e-1'."""
    mantissa = printed.lower().split("e")[0]
    digits = mantissa.replace("-", "").replace(".", "").lstrip("0")
    if not digits:
        raise ValueError("cannot count significant figures of %r" % printed)
    return len(digits)


def cell_tolerance(printed, policy="default", figures=None):
    """Absolute tolerance for a printed golden value, or None for '0'
    (a golden zero must be reproduced as exact separability)."""
    slack = POLICY_SLACK[policy]
    value = float(printed)
    if value == 0.0:
        return None
    s = figures if figures is not None else significant_figures(printed)
    return slack * 10.0 ** (math.floor(math.log10(abs(value))) - s + 1)


@dataclass(frozen=True)
class CellCheck:
    table: int
    row: str
    column: str
    golden: str
    computed: float
    tolerance: float  # None for golden zeros
    passed: bool

    @property
    def margin(self):
        """|computed - golden| / tolerance; zero cells report 0 or inf."""
        if self.tolerance is None:
            return 0.0 if self.passed else math.inf
        return abs(self.computed - float(self.golden)) / self.tolerance


@dataclass(frozen=True)
class TableReport:
    table: int
    policy: str
    cells: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.cells)

    @property
    def failures(self):
        return [c for c in self.cells if not c.passed]

    @property
    def worst(self):
        return max(self.cells, key=lambda c: c.margin)


def _check_cell(table, row, column, printed, computed, policy, figures=None, floor=None):
    tol = cell_tolerance(printed, policy, figures)
    if tol is not None and floor is not None:
        tol = max(tol, floor)
    if tol is None:
        ok = computed == 0.0
    else:
        ok = abs(computed - float(printed)) <= tol
    return CellCheck(table, row, column, printed, float(computed), tol, ok)


def check_table(table, policy="default", data_dir=None):
    """Recompute one golden table and compare every cell under the policy."""
    golden_rows = load_table(table, data_dir)
    if policy not in POLICY_SLACK:
        raise ValueError("policy must be one of %s" % sorted(POLICY_SLACK))
    kind, params = TABLES[table]
    cells = []
    if kind == "negativity":
        separations = [int(r["separation"]) for r in golden_rows]
        computed = {}
        for system in ("ion", "scalar"):
            rows = experiments.negativity_rows(
                system, params["chain_size"], params["region_size"], separations)
            for _, _, _, sep, treatment, value in rows:
                computed[("%s_%s" % (system, treatment), sep)] = value
        for row in golden_rows:
            sep = int(row["separation"])
            for column in NEGATIVITY_COLUMNS:
                cells.append(_check_cell(
                    table, "separation=%d" % sep, column, row[column],
                    computed[(column, sep)], policy))
    elif kind == "fidelity":
        windows = [int(r["region_size"]) for r in golden_rows]
        rows = experiments.fidelity_rows(params["chain_size"], windows)
        by_window = {r[1]: r for r in rows}
        for row in golden_rows:
            w = int(row["region_size"])
            _, _, z_star, raw, squeezed = by_window[w]
            key = "region_size=%d" % w
            cells.append(_check_cell(
                table, key, "squeeze_z", row["squeeze_z"], z_star, policy, floor=Z_STAR_TOL))
            cells.append(_check_cell(table, key, "fidelity_raw", row["fidelity_raw"], raw, policy))
            cells.append(_check_cell(
                table, key, "fidelity_squeezed", row["fidelity_squeezed"], squeezed, policy))
    else:
        dims = [int(r["qudit_dim"]) for r in golden_rows]
        rows = experiments.fock_rows(dims)
        by_dim = {r[0]: r for r in rows}
        for row in golden_rows:
            dim = int(row["qudit_dim"])
            _, raw, squeezed = by_dim[dim]
            key = "qudit_dim=%d" % dim
            cells.append(_check_cell(table, key, "p_out_raw", row["p_out_raw"], raw, policy))
            # the squeezed tail at dim >= 7 is checked to 2 significant
            # figures under the default policy (documented relaxation);
            # measured headroom is recorded by the acceptance suite
            figures = 2 if (policy == "default" and dim >= 7) else None
            cells.append(_check_cell(
                table, key, "p_out_squeezed", row["p_out_squeezed"], squeezed, policy, figures))
    return TableReport(table, policy, tuple(cells))
