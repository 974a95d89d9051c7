"""End-to-end command line tests, run in process through cli.main."""

import csv
import importlib
import io
import json
import os
import pkgutil
import shutil
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

import ionmodes
from ionmodes import experiments, numerics, scalar_field
from ionmodes.cli import UsageError, main, parse_int_range
from ionmodes.numerics import NumericalError


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def set_field(lines, line, field, text):
    """CSV lines with one field of line `line` (the header is line 1)
    replaced by text."""
    fields = lines[line - 1].split(",")
    fields[field] = text
    return lines[:line - 1] + [",".join(fields)] + lines[line:]


class TestParseIntRange:
    def test_single(self):
        assert parse_int_range("5") == [5]

    def test_inclusive_range(self):
        assert parse_int_range("2:5") == [2, 3, 4, 5]

    def test_stepped_range(self):
        assert parse_int_range("0:10:2") == [0, 2, 4, 6, 8, 10]

    def test_comma_list(self):
        assert parse_int_range("1,4,9") == [1, 4, 9]

    @pytest.mark.parametrize("bad", ["nope", "3:1", "1:9:0", "1:2:3:4", ""])
    def test_rejects(self, bad):
        with pytest.raises(UsageError):
            parse_int_range(bad)


class TestChain:
    def test_text_report(self, capsys):
        code, out, err = run_cli(capsys, ["chain", "3"])
        assert code == 0
        assert "N = 3" in out
        assert "equilibrium positions" in out
        manifest = json.loads(err)
        assert manifest["command"] == "chain"
        assert manifest["params"]["n_ions"] == 3

    def test_csv_positions(self, capsys):
        code, out, err = run_cli(capsys, ["chain", "3", "--format", "csv"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["ion", "position", "frequency"]
        assert len(rows) == 3
        edge = (5.0 / 4.0) ** (1.0 / 3.0)
        positions = [float(r[1]) for r in rows]
        # CSV carries 9 significant digits
        assert abs(positions[0] + edge) < 1e-7
        assert abs(positions[1]) < 1e-12
        assert abs(positions[2] - edge) < 1e-7


class TestNegativity:
    def test_ion_csv(self, capsys):
        code, out, err = run_cli(capsys, [
            "negativity", "--system", "ion", "--chain-size", "30",
            "--region-size", "1", "--separations", "0,1",
            "--treatment", "trace"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["system", "chain_size", "region_size", "separation",
                          "treatment", "log_negativity"]
        assert [r[:5] for r in rows] == [
            ["ion", "30", "1", "0", "trace"],
            ["ion", "30", "1", "1", "trace"]]
        values = [float(r[5]) for r in rows]
        assert values[0] > values[1] > 0.0

    def test_scalar_rows_report_chain_size_zero(self, capsys):
        code, out, err = run_cli(capsys, [
            "negativity", "--system", "scalar", "--chain-size", "150",
            "--region-size", "1", "--separations", "1",
            "--treatment", "phi"])
        assert code == 0
        header, rows = parse_csv(out)
        assert rows[0][0] == "scalar"
        assert rows[0][1] == "0"
        assert float(rows[0][5]) > 0.0

    def test_infeasible_separation_left_empty(self, capsys):
        for treatment, n_treatments in (("trace", 1), ("all", 3)):
            code, out, err = run_cli(capsys, [
                "negativity", "--system", "ion", "--chain-size", "10",
                "--region-size", "4", "--separations", "1,3,4",
                "--treatment", treatment])
            assert code == 0
            header, rows = parse_csv(out)
            assert len(rows) == 3 * n_treatments
            for row in rows:
                assert (row[5] == "") == (row[3] in ("3", "4"))
            # one warning and one manifest entry per separation, not per row
            assert err.count("warning: separation 3 does not fit") == 1
            assert err.count("warning: separation 4 does not fit") == 1
            manifest = json.loads(err[err.index("{"):])
            assert manifest["metadata"]["skipped_separations"] == [3, 4]

    def test_json_embeds_manifest_and_rows(self, capsys):
        code, out, err = run_cli(capsys, [
            "negativity", "--system", "ion", "--chain-size", "20",
            "--region-size", "1", "--separations", "1",
            "--treatment", "pi", "--format", "json"])
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["manifest"]["command"] == "negativity"
        assert payload["manifest"]["version"] == ionmodes.__version__
        (row,) = payload["rows"]
        assert row["system"] == "ion"
        assert row["separation"] == 1
        assert row["treatment"] == "pi"
        assert row["log_negativity"] > 0.0


class TestFidelity:
    def test_self_test_csv(self, capsys):
        code, out, err = run_cli(capsys, [
            "fidelity", "--chain-size", "30", "--region-sizes", "2",
            "--self-test"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["chain_size", "region_size", "squeeze_z",
                          "fidelity_raw", "fidelity_squeezed"]
        (row,) = rows
        assert row[0] == "30" and row[1] == "2"
        assert abs(float(row[2]) - 1.0) < 1e-3
        assert float(row[3]) > 1.0 - 1e-9
        assert float(row[4]) > 1.0 - 1e-9


class TestFock:
    def test_deficit_csv(self, capsys):
        code, out, err = run_cli(capsys, ["fock", "--dims", "2:3"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["qudit_dim", "p_out_raw", "p_out_squeezed"]
        assert [r[0] for r in rows] == ["2", "3"]
        raw = float(rows[0][1])
        assert abs(raw - 1.93e-2) < 1e-4
        assert float(rows[0][2]) < raw


class TestGoldenCheck:
    def test_fock_table_passes(self, capsys):
        code, out, err = run_cli(capsys, ["golden-check", "--table", "7"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["table", "row", "column", "golden", "computed",
                          "tolerance", "status"]
        assert rows and all(r[6] == "pass" for r in rows)
        assert "table 7:" in err and "pass" in err

    def test_perturbed_golden_fails(self, capsys, tmp_path):
        src = resources.files("ionmodes.data").joinpath("table7.csv")
        lines = src.read_text().splitlines()
        parts = lines[1].split(",")
        parts[1] = "2.9e-2"  # true value 1.93e-2
        lines[1] = ",".join(parts)
        (tmp_path / "table7.csv").write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, [
            "golden-check", "--table", "7", "--golden-dir", str(tmp_path)])
        assert code == 3
        header, rows = parse_csv(out)
        failing = [r for r in rows if r[6] == "FAIL"]
        assert len(failing) == 1
        assert failing[0][2] == "p_out_raw"
        assert "FAIL table 7" in err and "p_out_raw" in err

    @pytest.mark.parametrize("table,edit,message", [
        (1, lambda lines: ["separation,ion_trace", "0,3.66e-1"],
         "lacks column(s) ion_phi, ion_pi, scalar_trace, scalar_phi, scalar_pi"),
        (1, lambda lines: lines[:1], "has no rows"),
        (1, lambda lines: lines[:2] + ["1,3.66e-1"], "line 3 has too few fields"),
        (1, lambda lines: set_field(lines, 2, 1, "inf"),
         "line 2 column ion_trace: 'inf' is not a finite number"),
        (1, lambda lines: set_field(lines, 3, 6, "nan"),
         "line 3 column scalar_pi: 'nan' is not a finite number"),
        (7, lambda lines: set_field(lines, 2, 0, "x"),
         "line 2 column qudit_dim: 'x' is not an integer"),
        (7, lambda lines: lines + lines[1:2], "line 9 column qudit_dim: 2 repeats line 2"),
        (1, lambda lines: set_field(lines, 3, 0, "200"),
         "line 3 column separation: 200 is outside 0..148"),
        (3, lambda lines: set_field(lines, 2, 0, "-1"),
         "line 2 column separation: -1 is outside 0..140"),
        (5, lambda lines: set_field(lines, 2, 0, "60"),
         "line 2 column region_size: 60 is outside 1..50"),
        (4, lambda lines: set_field(lines, 2, 0, "0"),
         "line 2 column region_size: 0 is outside 1..30"),
        (7, lambda lines: set_field(lines, 2, 0, "-1"),
         "line 2 column qudit_dim: -1 is outside 1..8"),
    ], ids=["missing-columns", "no-rows", "short-row", "inf", "nan", "key-not-integer",
            "repeated-key", "separation-too-large", "separation-negative", "window-too-large",
            "window-zero", "qudit-dim-negative"])
    def test_malformed_golden_csv_is_usage_error(self, capsys, tmp_path, table, edit, message):
        name = "table%d.csv" % table
        lines = resources.files("ionmodes.data").joinpath(name).read_text().splitlines()
        (tmp_path / name).write_text("\n".join(edit(lines)) + "\n")
        code, out, err = run_cli(capsys, [
            "golden-check", "--table", str(table), "--golden-dir", str(tmp_path)])
        assert code == 1
        assert out == ""
        assert err == "error: %s %s\n" % (tmp_path / name, message)

    def test_missing_golden_dir_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "absent"
        code, out, err = run_cli(capsys, [
            "golden-check", "--table", "7", "--golden-dir", str(missing)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(missing / "table7.csv") in err
        assert "Traceback" not in err


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["negativity", "--system", "ion", "--region-size", "1", "--separations", "1"],
        ["fidelity", "--chain-size", "10", "--region-sizes", "2"],
        ["fock", "--dims", "2"],
        ["golden-check", "--table", "7"],
    ])
    def test_text_format_only_on_chain(self, capsys, argv):
        code, out, err = run_cli(capsys, argv + ["--format", "text"])
        assert code == 1
        assert out == ""
        assert "invalid choice: 'text'" in err

    @pytest.mark.parametrize("argv", [
        ["chain", "2"],
        ["negativity", "--system", "ion", "--region-size", "1", "--separations", "1"],
        ["fidelity", "--chain-size", "10", "--region-sizes", "2"],
        ["fock", "--dims", "2"],
    ])
    def test_tol_policy_only_on_golden_check(self, capsys, argv):
        code, out, err = run_cli(capsys, argv + ["--tol-policy", "strict"])
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --tol-policy strict" in err

    @pytest.mark.parametrize("argv", [
        ["chain", "2"],
        ["negativity", "--system", "ion", "--region-size", "1", "--separations", "1"],
        ["fidelity", "--chain-size", "10", "--region-sizes", "2"],
        ["fock", "--dims", "2"],
        ["golden-check", "--table", "7"],
    ])
    def test_unknown_argument_shows_command_usage(self, capsys, argv):
        code, out, err = run_cli(capsys, argv + ["--bogus"])
        assert code == 1
        assert out == ""
        assert err.startswith("usage: ionmodes %s [-h]" % argv[0])
        assert "unrecognized arguments: --bogus" in err

    def test_unknown_argument_before_command_shows_top_level_usage(self, capsys):
        code, out, err = run_cli(capsys, ["--bogus", "fock"])
        assert code == 1
        assert err.startswith("usage: ionmodes [-h] {chain,")
        assert "unrecognized arguments: --bogus" in err

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, [])
        assert code == 1
        assert "error:" in err

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, [
            "negativity", "--region-size", "1", "--separations", "1"])
        assert code == 1

    def test_bad_range_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, [
            "negativity", "--system", "ion", "--region-size", "1",
            "--separations", "one"])
        assert code == 1
        assert "cannot parse integer range" in err

    @pytest.mark.parametrize("separation", ["3", "11"])
    def test_region_size_zero_is_usage_error(self, capsys, separation):
        # refused before the fit check: separation 3 fits in 10 ions, 11 does not
        code, out, err = run_cli(capsys, [
            "negativity", "--system", "ion", "--chain-size", "10",
            "--region-size", "0", "--separations", separation])
        assert code == 1
        assert out == ""
        assert "error: region size must be >= 1" in err
        assert "does not fit" not in err

    @pytest.mark.parametrize("separation", ["65535", "100000000"])
    def test_scalar_gap_beyond_bound_is_usage_error(self, capsys, monkeypatch, separation):
        # one site of each region is separation + 1 sites from the other: the
        # gap is refused before any correlator row is built
        def no_row(*args):
            raise AssertionError("a correlator row was built")

        monkeypatch.setattr(scalar_field, "_vacuum_entries", no_row)
        code, out, err = run_cli(capsys, [
            "negativity", "--system", "scalar", "--region-size", "1",
            "--separations", separation])
        assert code == 1
        assert out == ""
        assert "exceeds the largest supported gap, %d" % scalar_field.MAX_GAP in err

    def test_numerical_failure_exit(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(experiments, "negativity_rows", boom)
        code, out, err = run_cli(capsys, [
            "negativity", "--system", "ion", "--chain-size", "10",
            "--region-size", "1", "--separations", "1"])
        assert code == 2
        assert "numerical failure: synthetic failure" in err

    def test_linalg_failure_exit(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(experiments, "negativity_rows", boom)
        code, out, err = run_cli(capsys, [
            "negativity", "--system", "ion", "--chain-size", "10",
            "--region-size", "1", "--separations", "1"])
        assert code == 2
        assert "numerical failure: Singular matrix" in err


class TestManifestFile:
    def test_out_writes_manifest_sibling(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, out, err = run_cli(capsys, [
            "fock", "--dims", "2", "--out", str(out_path)])
        assert code == 0
        assert out == ""
        header, rows = parse_csv(out_path.read_text())
        assert header == ["qudit_dim", "p_out_raw", "p_out_squeezed"]
        manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
        assert manifest["command"] == "fock"
        assert manifest["version"] == ionmodes.__version__
        assert manifest["wall_ms"] > 0.0
        assert manifest["tolerances"]["golden_slack_default"] == 0.6
        assert manifest["params"]["dims"] == "2"
        # numpy's OpenBLAS, pinned to one thread when the package is imported
        pinned = None if numerics._OPENBLAS_THREADS is None else 1
        assert manifest["metadata"]["blas_threads"] == pinned

    @pytest.mark.parametrize("argv,params", [
        (["chain", "3"], {"n_ions": 3, "format": "text"}),
        (["negativity", "--system", "ion", "--chain-size", "6", "--region-size", "1",
          "--separations", "0:1", "--treatment", "phi", "--format", "json"],
         {"system": "ion", "chain_size": 6, "region_size": 1, "separations": "0:1",
          "treatment": "phi", "format": "json"}),
        (["fidelity", "--chain-size", "4", "--region-sizes", "2", "--self-test"],
         {"chain_size": 4, "region_sizes": "2", "self_test": True, "format": "csv"}),
        (["fock", "--dims", "2"], {"dims": "2", "format": "csv"}),
        (["golden-check", "--table", "7", "--tol-policy", "strict", "--golden-dir", "GOLDEN"],
         {"table": "7", "tol_policy": "strict", "golden_dir": "GOLDEN", "format": "csv"}),
    ], ids=["chain", "negativity", "fidelity", "fock", "golden-check"])
    def test_params_hold_every_option(self, capsys, tmp_path, argv, params):
        shutil.copy(resources.files("ionmodes.data").joinpath("table7.csv"), tmp_path)
        out_path = str(tmp_path / "out")
        code, _, _ = run_cli(capsys, [str(tmp_path) if arg == "GOLDEN" else arg
                                      for arg in argv] + ["--out", out_path])
        assert code == 0
        if params["format"] == "json":
            manifest = json.loads(open(out_path).read())["manifest"]
        else:
            manifest = json.loads(open(out_path + ".manifest.json").read())
        assert manifest["command"] == argv[0]
        assert manifest["params"] == dict(
            {key: str(tmp_path) if value == "GOLDEN" else value for key, value in params.items()},
            out=out_path)


def test_every_exported_name_resolves():
    modules = [ionmodes] + [importlib.import_module("ionmodes." + info.name)
                            for info in pkgutil.iter_modules(ionmodes.__path__)]
    assert len(modules) > 1
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_cli_import_loads_no_heavy_scipy_modules():
    src = os.path.dirname(os.path.dirname(ionmodes.__file__))
    code = ("import sys, ionmodes.cli; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.constants', 'scipy.optimize') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
