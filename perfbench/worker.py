"""One benchmark round in a fresh Python process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR
        [--trace] [--evidence] [--import-only]

Times the import of ionmodes.cli (which brings numpy and scipy), then the
workload through the package's public API, with empty caches as in every
CLI call.  With --evidence it then gathers, outside the timed span, what
the full correctness checks need beyond the outputs.  Everything goes to
DIR/result.json (arrays to DIR/evidence.npz, spans of a traced round to
DIR/spans.npz).  Run with PYTHONPATH pointing at the package sources.
"""

import argparse
import json
import os
import resource
import sys
import time

from inputs import MAX_IONS, QUDIT_DIMS, SYSTEMS, TREATMENTS, fock_grid, negativity_grid

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_tables(seed, out_dir):
    import ionmodes.cli

    csv_path = os.path.join(out_dir, "golden.csv")
    code = ionmodes.cli.main(["golden-check", "--table", "all", "--out", csv_path])
    return {"exit_code": code, "csv": csv_path}


def _negativity_values(seed):
    from ionmodes import experiments
    from ionmodes.numerics import NumericalError

    values = []
    for system in SYSTEMS:
        for d, separations in negativity_grid(seed):
            try:
                rows = experiments.negativity_rows(system, MAX_IONS, d, separations)
            except NumericalError:
                values.extend([None] * (len(separations) * len(TREATMENTS)))
                continue
            values.extend(row[5] for row in rows)
    return values


def run_negativity(seed, out_dir):
    return {"values": _negativity_values(seed)}


def negativity_evidence(seed, out_dir):
    """Repeat the scan with log_negativity wrapped, keeping every state it
    is handed, so the checks can recompute each value from its CM."""
    import numpy as np
    from ionmodes import gaussian

    states = []
    original = gaussian.log_negativity

    def keep(sigma, region_a, region_b):
        states.append(np.array(sigma, dtype=float))
        return original(sigma, region_a, region_b)

    gaussian.log_negativity = keep
    try:
        repeat = _negativity_values(seed)
    finally:
        gaussian.log_negativity = original
    np.savez(os.path.join(out_dir, "evidence.npz"),
             **{"cm%d" % k: cm for k, cm in enumerate(states)})
    return {"repeat_values": repeat}


def _rotated_states(seed):
    from ionmodes import experiments, gaussian

    base = experiments.chain_model(2).cm
    points, _ = fock_grid(seed)
    for z, theta in points:
        s = gaussian.single_mode_squeeze(2, z) @ gaussian.single_mode_rotation(2, theta)
        yield gaussian.apply_symplectic(base, s)


def run_fock(seed, out_dir):
    from ionmodes import fock

    return {"deficits": [[fock.qudit_subspace_deficit(state, d) for d in QUDIT_DIMS]
                         for state in _rotated_states(seed)]}


def fock_evidence(seed, out_dir):
    """Deficits after one more equal rotation of both modes."""
    from ionmodes import fock, gaussian

    _, angle = fock_grid(seed)
    after = gaussian.single_mode_rotation(2, angle)
    return {"rotated_deficits": [
        [fock.qudit_subspace_deficit(gaussian.apply_symplectic(state, after), d)
         for d in QUDIT_DIMS]
        for state in _rotated_states(seed)]}


RUNS = {"tables": run_tables, "negativity-scan": run_negativity, "fock-rotated": run_fock}
EVIDENCE = {"negativity-scan": negativity_evidence, "fock-rotated": fock_evidence}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RUNS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--evidence", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import ionmodes.cli  # noqa: F401
    setup_s = time.perf_counter() - start
    if not os.path.abspath(ionmodes.cli.__file__).startswith(SRC + os.sep):
        sys.exit("ionmodes was imported from %s, not from %s" % (ionmodes.cli.__file__, SRC))
    result = {"setup_s": setup_s}

    if not args.import_only:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            outputs = RUNS[args.workload](args.seed, args.out)
        finally:
            wall_s = time.perf_counter() - start
            cpu_s = time.process_time() - cpu_start
            if tracer is not None:
                tracer.uninstall()
        result.update(
            wall_s=wall_s,
            cpu_s=cpu_s,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            outputs=outputs)
        if tracer is not None:
            tracer.save(os.path.join(args.out, "spans.npz"))
            result["layers"] = tracer.summary()
        if args.evidence and args.workload in EVIDENCE:
            result["evidence"] = EVIDENCE[args.workload](args.seed, args.out)

    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
