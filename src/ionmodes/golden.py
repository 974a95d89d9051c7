"""Golden regression tables (reference values shipped as package data) and
the significant-figure tolerance policy used to check recomputed values
against them."""

import csv
import math
from dataclasses import dataclass
from importlib import resources

from ionmodes import experiments, fock

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


def _read_csv(fh):
    reader = csv.DictReader(fh)
    rows = list(reader)
    return reader.fieldnames or [], rows


def load_table(table, data_dir=None):
    """Rows of the golden CSV as string dicts (strings keep the printed
    precision, which sets the tolerance).

    A CSV read from data_dir must have every column of the shipped table,
    at least one row, no short row, a finite number in every non-key cell,
    and in the first (key) column an integer that the table admits (keys)
    and no other row repeats; otherwise a ValueError names the file, and
    the line and column of a bad cell.
    """
    return _load(table, data_dir)[1]


def _load(table, data_dir):
    """(columns of the shipped CSV, key column first; rows as load_table)."""
    if table not in TABLES:
        raise ValueError("table number must be in 1..7")
    name = "table%d.csv" % table
    with resources.files("ionmodes.data").joinpath(name).open(newline="") as fh:
        columns, rows = _read_csv(fh)
    if data_dir is None:
        return columns, rows
    path = "%s/%s" % (data_dir, name)
    with open(path, newline="") as fh:
        present, rows = _read_csv(fh)
    missing = [c for c in columns if c not in present]
    if missing:
        raise ValueError("%s lacks column(s) %s" % (path, ", ".join(missing)))
    if not rows:
        raise ValueError("%s has no rows" % path)
    kind, params = TABLES[table]
    keys = (range(params["chain_size"] - 2 * params["region_size"] + 1) if kind == "negativity"
            else range(1, params["chain_size"] + 1) if kind == "fidelity"
            else range(1, fock.MAX_QUDIT_DIM + 1))
    seen = {}
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
        value = int(row[columns[0]])
        if value not in keys or value in seen:
            problem = ("%d repeats line %d" % (value, seen[value]) if value in seen
                       else "%d is outside %d..%d" % (value, keys[0], keys[-1]))
            raise ValueError("%s line %d column %s: %s" % (path, number, columns[0], problem))
        seen[value] = number
    return columns, rows


def significant_figures(printed):
    """Number of significant figures in a printed decimal like '5.00e-1'."""
    mantissa = printed.lower().split("e")[0]
    digits = mantissa.replace("-", "").replace(".", "").lstrip("0")
    if not digits:
        raise ValueError("cannot count significant figures of %r" % printed)
    return len(digits)


def cell_tolerance(printed, policy="default"):
    """Absolute tolerance for a printed golden value, or None for '0'
    (a golden zero must be reproduced as exact separability)."""
    value = float(printed)
    if value == 0.0:
        return None
    exponent = math.floor(math.log10(abs(value))) - significant_figures(printed) + 1
    return POLICY_SLACK[policy] * 10.0 ** exponent


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


def _check_cell(table, row, column, printed, computed, policy):
    tol = cell_tolerance(printed, policy)
    if tol is not None and column == "squeeze_z":
        tol = max(tol, Z_STAR_TOL)
    ok = computed == 0.0 if tol is None else abs(computed - float(printed)) <= tol
    return CellCheck(table, row, column, printed, float(computed), tol, ok)


def _recompute(table, columns, keys):
    """{(key, column): value} of one table at the given keys.  Negativity
    columns are named <system>_<treatment>; the other kinds' rows give their
    values in the order of `columns`, the shipped CSV's value columns."""
    kind, params = TABLES[table]
    if kind == "negativity":
        return {(sep, "%s_%s" % (system, treatment)): value
                for system in ("ion", "scalar")
                for _, _, _, sep, treatment, value in experiments.negativity_rows(
                    system, params["chain_size"], params["region_size"], keys)}
    if kind == "fidelity":
        rows = [row[1:] for row in experiments.fidelity_rows(params["chain_size"], keys)]
    else:
        rows = experiments.fock_rows(keys)
    return {(row[0], column): value for row in rows for column, value in zip(columns, row[1:])}


def check_table(table, policy="default", data_dir=None):
    """Recompute one golden table and compare every cell under the policy:
    each golden row in file order, each value column of the shipped CSV in
    its order, the row labelled <key column>=<key>."""
    (key, *columns), golden_rows = _load(table, data_dir)
    if policy not in POLICY_SLACK:
        raise ValueError("policy must be one of %s" % sorted(POLICY_SLACK))
    keys = [int(row[key]) for row in golden_rows]
    computed = _recompute(table, columns, keys)
    cells = tuple(_check_cell(table, "%s=%d" % (key, k), column, row[column],
                              computed[(k, column)], policy)
                  for k, row in zip(keys, golden_rows) for column in columns)
    return TableReport(table, policy, cells)
