"""Command-line interface: chain reports, negativity / fidelity / fock
table sweeps, and golden-table regression checks.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 golden-check
mismatch.  Every output comes with a JSON run manifest: embedded in JSON
output, otherwise written next to the file, or to stderr when printing to
stdout.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

import ionmodes
from ionmodes import experiments, gaussian, golden, scalar_field
from ionmodes.fock import TAIL_RELATIVE_TOL
from ionmodes.ion_chain import GRADIENT_TOL
from ionmodes.numerics import NumericalError, blas_threads

__all__ = ["main", "RunManifest"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_GOLDEN = 3

# scalar rows report chain_size 0: the lattice is infinite
SCALAR_CHAIN_SIZE = 0

TOLERANCES = {
    "newton_gradient_inf_norm": GRADIENT_TOL,
    "correlator_abs_error": scalar_field.CORRELATOR_ABS_ERROR,
    "symplectic_residual": gaussian.SYMPLECTIC_TOL,
    "nu_unit_window": gaussian.NU_UNIT_TOL,
    "squeeze_search_ln_z": gaussian.LN_Z_TOL,
    "fock_tail_relative": TAIL_RELATIVE_TOL,
    "golden_slack_default": golden.POLICY_SLACK["default"],
    "golden_slack_strict": golden.POLICY_SLACK["strict"],
}


@dataclass
class RunManifest:
    """Reproducibility record serialized with every output."""

    command: str
    params: dict
    version: str = ionmodes.__version__
    tolerances: dict = field(default_factory=lambda: dict(TOLERANCES))
    metadata: dict = field(default_factory=dict)
    wall_ms: float = 0.0

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        # a command's leftover arguments are reported with its own usage
        args, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: %s" % " ".join(extras))
        return args, extras


class UsageError(ValueError):
    pass


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def parse_int_range(spec):
    """Integer list from 'a', 'a:b' (inclusive), 'a:b:step', or 'a,b,c'."""
    try:
        if "," in spec:
            return [int(tok) for tok in spec.split(",")]
        if ":" in spec:
            parts = [int(tok) for tok in spec.split(":")]
            if len(parts) == 2:
                lo, hi, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                lo, hi, step = parts
            else:
                raise ValueError
            if step <= 0 or hi < lo:
                raise ValueError
            return list(range(lo, hi + 1, step))
        return [int(spec)]
    except ValueError:
        raise UsageError("cannot parse integer range %r" % spec) from None


def _emit(args, manifest, body):
    """Stamp wall_ms and blas_threads (None for a BLAS other than numpy's
    OpenBLAS) and write one command's output to --out or stdout.

    A dict body is a JSON payload and carries the manifest inside it.  A
    text body gets its manifest next to the file (PATH.manifest.json), or
    on stderr when printing to stdout.
    """
    manifest.wall_ms = (time.monotonic() - args._start) * 1000.0
    manifest.metadata["blas_threads"] = blas_threads()
    embedded = isinstance(body, dict)
    if embedded:
        body = json.dumps(dict(body, manifest=asdict(manifest)), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
        if not embedded:
            with open(args.out + ".manifest.json", "w") as fh:
                fh.write(manifest.to_json())
    else:
        sys.stdout.write(body)
        if not embedded:
            sys.stderr.write(manifest.to_json())


def _manifest(args, **metadata):
    """The run manifest of one command: its params are every argument the
    command's parser read."""
    params = {key: value for key, value in vars(args).items()
              if key not in ("command", "run", "_start")}
    return RunManifest(args.command, params, metadata=metadata)


def _rows_body(args, header, rows):
    """Table rows as a JSON payload for --format json, else as CSV text."""
    if args.format == "json":
        return {"rows": [dict(zip(header, row)) for row in rows]}
    lines = [",".join(header)]
    lines.extend(",".join(_format_value(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _run_chain(args):
    report = experiments.chain_report(args.n_ions)
    manifest = _manifest(args)
    if args.format == "json":
        body = {"report": report}
    elif args.format == "csv":
        header = ("ion", "position", "frequency")
        rows = [(i, p, f) for i, (p, f) in
                enumerate(zip(report["positions"], report["frequencies"]))]
        body = _rows_body(args, header, rows)
    else:
        lines = ["ion chain, N = %d (dimensionless units)" % report["n_ions"],
                 "equilibrium positions:",
                 "  " + "  ".join("%.9g" % p for p in report["positions"]),
                 "mode frequencies (units of the center-of-mass mode):",
                 "  " + "  ".join("%.9g" % f for f in report["frequencies"])]
        if "cm" in report:
            lines.append("local-mode covariance matrix (phi_1, pi_1, ...):")
            lines.extend("  " + "  ".join("% .9g" % v for v in row) for row in report["cm"])
        body = "\n".join(lines) + "\n"
    _emit(args, manifest, body)
    return EXIT_OK


def _run_negativity(args):
    separations = parse_int_range(args.separations)
    treatments = experiments.TREATMENTS if args.treatment == "all" else (args.treatment,)
    rows = experiments.negativity_rows(
        args.system, args.chain_size, args.region_size, separations, treatments)
    # a geometry that does not fit leaves every treatment's row empty
    skipped = list(dict.fromkeys(r[3] for r in rows if r[5] is None))
    for sep in skipped:
        sys.stderr.write(
            "warning: separation %d does not fit (2*%d + %d > %d), row left empty\n"
            % (sep, args.region_size, sep, args.chain_size))
    out_rows = []
    for system, chain_size, region_size, sep, treatment, value in rows:
        if system == "scalar":
            chain_size = SCALAR_CHAIN_SIZE
        out_rows.append((system, chain_size, region_size, sep, treatment, value))
    manifest = _manifest(
        args,
        scalar_measurement="exact infinite-exterior homodyne (Toeplitz symbol inversion)",
        scalar_mass=scalar_field.DEFAULT_MASS,
        skipped_separations=skipped)
    header = ("system", "chain_size", "region_size", "separation", "treatment", "log_negativity")
    _emit(args, manifest, _rows_body(args, header, out_rows))
    return EXIT_OK


def _run_fidelity(args):
    windows = parse_int_range(args.region_sizes)
    rows = experiments.fidelity_rows(args.chain_size, windows, args.self_test)
    manifest = _manifest(args, squeeze_bracket=list(gaussian.SQUEEZE_BRACKET),
                         scalar_mass=scalar_field.DEFAULT_MASS)
    header = ("chain_size", "region_size", "squeeze_z", "fidelity_raw", "fidelity_squeezed")
    _emit(args, manifest, _rows_body(args, header, rows))
    return EXIT_OK


def _run_fock(args):
    dims = parse_int_range(args.dims)
    rows = experiments.fock_rows(dims)
    manifest = _manifest(
        args, tail_sum="occupancy shells max(m1, m2) >= D of pure-state amplitudes")
    header = ("qudit_dim", "p_out_raw", "p_out_squeezed")
    _emit(args, manifest, _rows_body(args, header, rows))
    return EXIT_OK


def _run_golden_check(args):
    tables = sorted(golden.TABLES) if args.table == "all" else [int(args.table)]
    reports = [golden.check_table(table, args.tol_policy, data_dir=args.golden_dir)
               for table in tables]
    header = ("table", "row", "column", "golden", "computed", "tolerance", "status")
    rows = []
    for report in reports:
        for cell in report.cells:
            rows.append((cell.table, cell.row, cell.column, cell.golden, cell.computed,
                         cell.tolerance if cell.tolerance is not None else "exact-zero",
                         "pass" if cell.passed else "FAIL"))
    n_fail = sum(1 for r in reports for c in r.failures)
    manifest = _manifest(args, cells=len(rows), failures=n_fail,
                         worst_margin=max((r.worst.margin for r in reports), default=0.0))
    _emit(args, manifest, _rows_body(args, header, rows))
    for report in reports:
        worst = report.worst
        sys.stderr.write(
            "table %d: %d cells, %s, worst margin %.3f (%s %s)\n"
            % (report.table, len(report.cells),
               "pass" if report.passed else "%d FAILURES" % len(report.failures),
               worst.margin, worst.row, worst.column))
        for cell in report.failures:
            sys.stderr.write(
                "  FAIL table %d %s %s: golden %s computed %.9g tol %s\n"
                % (cell.table, cell.row, cell.column, cell.golden, cell.computed,
                   cell.tolerance))
    return EXIT_OK if n_fail == 0 else EXIT_GOLDEN


def build_parser():
    parser = _Parser(prog="ionmodes", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    # only the chain report has a text form; tables are CSV or JSON
    tabular = argparse.ArgumentParser(add_help=False, parents=[common])
    tabular.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chain", parents=[common], help="chain equilibrium report")
    p.add_argument("n_ions", type=int)
    p.add_argument("--format", choices=("csv", "json", "text"), default="text",
                   help="output format")
    p.set_defaults(run=_run_chain)

    p = sub.add_parser("negativity", parents=[tabular], help="negativity decay sweep")
    p.add_argument("--system", choices=("ion", "scalar"), required=True)
    p.add_argument("--chain-size", type=int, default=150)
    p.add_argument("--region-size", type=int, required=True)
    p.add_argument("--separations", required=True,
                   help="integer range like 0:10, 0:10:2 or 0,1,5")
    p.add_argument("--treatment", choices=("trace", "phi", "pi", "all"), default="all")
    p.set_defaults(run=_run_negativity)

    p = sub.add_parser("fidelity", parents=[tabular],
                       help="scalar-window fidelity scan with squeeze optimization")
    p.add_argument("--chain-size", type=int, required=True)
    p.add_argument("--region-sizes", required=True, help="integer range like 2:30:2")
    p.add_argument("--self-test", action="store_true",
                   help="diagnostic: target = source, so z* = 1 and F = 1")
    p.set_defaults(run=_run_fidelity)

    p = sub.add_parser("fock", parents=[tabular], help="qudit subspace deficits")
    p.add_argument("--dims", default="2:8", help="integer range like 2:8")
    p.set_defaults(run=_run_fock)

    p = sub.add_parser("golden-check", parents=[tabular],
                       help="recompute golden tables and compare cell by cell")
    p.add_argument("--table", default="all",
                   choices=[str(k) for k in sorted(golden.TABLES)] + ["all"])
    p.add_argument("--tol-policy", choices=("default", "strict"), default="default",
                   help="significant-figure tolerance policy")
    p.add_argument("--golden-dir", default=None,
                   help="read golden CSVs from this directory instead of package data")
    p.set_defaults(run=_run_golden_check)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    args._start = time.monotonic()
    try:
        return args.run(args)
    # LinAlgError subclasses ValueError, so it must be caught first
    except (NumericalError, np.linalg.LinAlgError) as exc:
        sys.stderr.write("numerical failure: %s\n" % exc)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
