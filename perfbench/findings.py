"""Reproduce the program's known failures; run from the repository root:

    python3 perfbench/findings.py [--seeds 3]

For each seed 1..N, runs the whole acceptance-criterion-9 mix that
``sampled_geometry`` takes its operations from: the 7 generic triples times
the 5 sampled checks, 35 operations, with the same verdicts as run.py. It
prints ``failed_ratio`` of the mix with a breakdown by kind, and compares the
failures with ``findings.json``. ``sampled_geometry`` times only the 20
operations that pass on every seed, because a timed run must have no failed
operation; the other 15 are the failures listed there.

Exits with code 1 when a failure is not listed, or when a finding that is not
marked seed-dependent did not show on some seed: findings.json is then out of
date. Takes about 25 s per seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args(argv)

    run.load_program()
    listed = json.loads((run.HERE / "findings.json").read_text())["failures"]
    known = {(f["check"], tuple(f["triple"])): f for f in listed}
    mix = [(check, triple) for triple in run.GENERIC
           for check in run.SAMPLED_CHECKS]
    meter = run.Meter()
    stale = []
    for seed in range(1, args.seeds + 1):
        ops: list[run.Op] = []
        run.run_cycle(run.sampled_op, mix, seed, ops, False, run.NullTracer(),
                      meter)
        failed = [op for op in ops if op.kind]
        print(f"seed {seed}: failed_ratio {len(failed) / len(ops):.4f} "
              f"({len(failed)} of {len(ops)})")
        run.print_breakdown(failed)
        got = {(op.check, op.triple): op.kind for op in failed}
        for key, kind in got.items():
            if key not in known or known[key]["kind"] != kind:
                stale.append(f"seed {seed}: {key} failed as {kind}, "
                             "which findings.json does not list")
        for key, f in known.items():
            if key not in got and not f.get("seed_dependent"):
                stale.append(f"seed {seed}: {key} did not fail as listed")
    for line in stale:
        print("STALE " + line)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
