"""Golden tables: table lookup, argument checks and the checked cell grid."""

import csv
from importlib import resources

import numpy as np
import pytest

from ionmodes import gaussian, golden, ion_chain, scalar_field


@pytest.mark.parametrize("table", [0, 8])
def test_unknown_table_rejected(table):
    with pytest.raises(ValueError, match="table number must be in 1..7"):
        golden.check_table(table)


@pytest.mark.parametrize("table", sorted(golden.TABLES))
def test_cells_are_the_shipped_grid_at_printed_figures(table):
    """Every non-key cell of the shipped CSV, in file order and labelled
    <key column>=<key>, computed alike under both policies, and each held
    to its printed figures (squeeze factors to at least +-0.002)."""
    name = "table%d.csv" % table
    with resources.files("ionmodes.data").joinpath(name).open(newline="") as fh:
        reader = csv.DictReader(fh)
        key, *columns = reader.fieldnames
        grid = [("%s=%s" % (key, row[key]), column, row[column])
                for row in reader for column in columns]
    reports = {policy: golden.check_table(table, policy) for policy in golden.POLICY_SLACK}
    for policy, report in reports.items():
        assert [(c.row, c.column, c.golden) for c in report.cells] == grid, policy
        for cell in report.cells:
            tolerance = golden.cell_tolerance(cell.golden, policy)
            if cell.column == "squeeze_z":
                tolerance = max(tolerance, golden.Z_STAR_TOL)
            assert cell.tolerance == tolerance, (policy, cell.row, cell.column)
    computed = [[c.computed for c in report.cells] for report in reports.values()]
    assert computed[0] == computed[1]
    if table == 7:
        squeezed = {c.row: c.tolerance for c in reports["default"].cells
                    if c.column == "p_out_squeezed"}
        assert squeezed["qudit_dim=7"] == pytest.approx(6e-16, rel=1e-12)
        assert squeezed["qudit_dim=8"] == pytest.approx(6e-17, rel=1e-12)


@pytest.mark.parametrize("policy,tolerance", [("default", 6.0), ("strict", 5.0)])
def test_cell_exactly_at_its_tolerance_passes(policy, tolerance):
    # a one-figure "3e1" has the tolerance slack x 10, exact in float64, so
    # |computed - printed| meets it exactly; one ulp beyond fails
    assert golden.cell_tolerance("3e1", policy) == tolerance
    for computed in (30.0 + tolerance, 30.0 - tolerance):
        cell = golden._check_cell(5, "region_size=2", "fidelity_raw", "3e1", computed, policy)
        assert cell.passed and cell.margin == 1.0
        beyond = np.nextafter(computed, 30.0 + 2.0 * (computed - 30.0))
        assert not golden._check_cell(5, "region_size=2", "fidelity_raw", "3e1", beyond,
                                      policy).passed


def test_fidelity_table_builds_no_interleaved_cm(monkeypatch):
    # chain windows and lattice targets go to the squeeze search as their
    # (Phi, Pi) blocks
    def refused(*args, **kwargs):
        raise AssertionError("an interleaved CM was built")

    for module, name in ((gaussian, "from_blocks"), (ion_chain, "from_blocks"),
                         (scalar_field, "from_blocks"), (scalar_field, "scalar_vacuum_cm")):
        monkeypatch.setattr(module, name, refused)
    report = golden.check_table(4)
    assert report.passed and len(report.cells) == 45
