#!/usr/bin/env python3
"""Shows that each workload's correctness check rejects a perturbed output.

    python3 perfbench/selftest.py [--seed N]

Run from the repository root.  Confirms that BENCHMARK.json names the
metrics, with the units, that run.py prints.  Then runs one untraced round
of each workload, confirms that its check accepts the real output, applies
each perturbation below to a copy of that output and confirms that the
check rejects it.  Exits with code 1 if any of this fails.
"""

import argparse
import copy
import csv
import json
import os
import shutil
import sys

import numpy as np

import checks
import run
from inputs import BALANCING_POINTS


def _rewrite_csv(src, dst, edit):
    with open(src, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(dst, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _cell(rows, table, label, column):
    return next(r for r in rows
                if r["table"] == str(table) and r["row"] == label and r["column"] == column)


def tables_perturbations(out_dir, outputs):
    def variant(name, edit):
        path = os.path.join(out_dir, name + ".csv")
        _rewrite_csv(outputs["csv"], path, edit)
        return dict(outputs, csv=path)

    def past_tolerance(rows):
        cell = _cell(rows, 1, "separation=0", "ion_phi")
        golden = float(cell["golden"])
        cell["computed"] = repr(golden + 1.5 * checks.cell_tolerance(cell["golden"]))

    def zero_not_exact(rows):
        _cell(rows, 1, "separation=2", "ion_trace")["computed"] = "1e-12"

    def raw_above_squeezed(rows):
        raw = _cell(rows, 5, "region_size=2", "fidelity_raw")
        squeezed = _cell(rows, 5, "region_size=2", "fidelity_squeezed")
        raw["computed"], squeezed["computed"] = squeezed["computed"], raw["computed"]

    def z_outside_bracket(rows):
        _cell(rows, 6, "region_size=2", "squeeze_z")["computed"] = "20.5"

    return [
        ("table 1 cell moved by 1.5 tolerances", "against", variant("moved", past_tolerance)),
        ("reference zero returned as 1e-12", "against", variant("zero", zero_not_exact)),
        ("F_raw and F_squeezed swapped", "F_raw", variant("swapped", raw_above_squeezed)),
        ("z* outside the squeeze bracket", "z* =", variant("bracket", z_outside_bracket)),
        ("golden-check exit code 3", "exited", dict(outputs, exit_code=3)),
    ]


def negativity_perturbations(seed, outputs, evidence, states):
    # the same value moved in the timed run and in the repeat that captured the states
    moved, moved_repeat = copy.deepcopy(outputs), copy.deepcopy(evidence)
    k = next(i for i, v in enumerate(moved["values"]) if v and v > 0.1)
    moved["values"][k] += 1e-7
    moved_repeat["repeat_values"][k] += 1e-7
    # a phi-measured state made mixed: scale its first mode's CM block
    mixed = dict(states)
    k = next(i for i, (_, _, _, t) in enumerate(checks.negativity_cells(seed)) if t == "phi")
    cm = np.array(mixed["cm%d" % k])
    cm[:2, :2] *= 1.01
    mixed["cm%d" % k] = cm
    return [
        ("one value moved by 1e-7", "partial-transpose", moved, moved_repeat, states),
        ("phi-measured state made mixed", "not pure", outputs, evidence, mixed),
    ]


def fock_perturbations(outputs, evidence):
    def both(point, dim, new):
        """One deficit changed alike with and without the further rotation."""
        out, ev = copy.deepcopy(outputs), copy.deepcopy(evidence)
        out["deficits"][point][dim] = new(out["deficits"][point])
        ev["rotated_deficits"][point][dim] = new(ev["rotated_deficits"][point])
        return out, ev

    far = len(BALANCING_POINTS)
    rotated = copy.deepcopy(evidence)
    rotated["rotated_deficits"][far + 2][2] *= 1.0 + 1e-6
    return [
        ("balancing point D=5 moved by 1e-6 relative", "closed form",
         *both(0, 3, lambda row: row[3] * (1.0 + 1e-6))),
        ("deficit rising from D=7 to D=8", "rises", *both(far, 6, lambda row: row[5] * 1.01)),
        ("deficit below 0", "outside [0, 1]", *both(far + 1, 0, lambda row: -1e-3)),
        ("deficit changed by a further rotation", "further rotation", outputs, rotated),
    ]


def report(name, verdict, expect=None):
    """expect None: the check must accept; otherwise it must reject with a
    problem that contains the expected text."""
    if expect is None:
        passed = not verdict.problems
        detail = "accepted" if passed else "rejected: " + verdict.problems[0]
    else:
        hits = [p for p in verdict.problems if expect in p]
        passed = bool(hits)
        detail = "rejected: " + hits[0] if hits else "not rejected for %r" % expect
    print("%-4s %-45s %s" % ("ok" if passed else "FAIL", name, detail))
    return passed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args().seed
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    all_passed = True
    for key, printed in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        same = declared == printed
        print("%-4s BENCHMARK.json %s metrics and units match run.py" % ("ok" if same else "FAIL", key))
        all_passed &= same
    work = os.path.join(run.ROOT, ".bench_build", "perfbench-selftest-%d" % os.getpid())
    try:
        for workload in run.WORKLOADS:
            out_dir = os.path.join(work, workload)
            result = run.spawn(out_dir, "--workload", workload, "--seed", str(seed), "--evidence")
            print("%s (wall_s %.2f):" % (workload, result["wall_s"]))
            outputs, evidence = result["outputs"], result.get("evidence")
            all_passed &= report("real output", run.check(workload, seed, out_dir, result))
            if workload == "tables":
                for name, expect, bad in tables_perturbations(out_dir, outputs):
                    all_passed &= report(name, checks.check_tables(bad, run.DATA), expect)
            elif workload == "negativity-scan":
                with np.load(os.path.join(out_dir, "evidence.npz")) as npz:
                    states = dict(npz)
                for name, expect, bad, ev, st in negativity_perturbations(
                        seed, outputs, evidence, states):
                    all_passed &= report(name, checks.check_negativity(seed, bad, ev, st), expect)
            else:
                for name, expect, bad, ev in fock_perturbations(outputs, evidence):
                    all_passed &= report(name, checks.check_fock(seed, bad, ev), expect)
            if workload != "tables":
                # a later round of a run is held to the first round's values
                if workload == "negativity-scan":
                    values, close = outputs["values"], checks.negativity_close
                else:
                    values, close = sum(outputs["deficits"], []), checks.deficit_close
                later = list(values)
                k = next(i for i, v in enumerate(later) if v)
                later[k] *= 1.0 + 1e-6
                all_passed &= report("later round moved by 1e-6 relative",
                                     checks.check_repeat(values, later, close), "first round gave")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
