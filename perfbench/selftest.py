"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

1. A short run of every workload, untraced and traced, must print every
   metric that BENCHMARK.json names, with the unit it declares, and be
   correct. Their summaries together show every metric of every workload.
2. A deliberately wrong expected output must be counted as a failed
   operation and make the run incorrect: a wrong symbolic order in the BFS
   oracle, and a wrong number of checks per signature in the catalog check.
3. The program's known failures (findings.json) still show, each with its
   kind, and no other operation of the criterion-9 mix fails, on one seed.

Takes about two minutes; exits with code 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import findings
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def short_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        sys.exit(f"FAIL: {workload} trace {trace} exited {proc.returncode}:"
                 f"\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def in_process_run(workload: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", workload, "--seed", "3", "--seconds", "1"])
    return json.loads(out.getvalue().splitlines()[-1])


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def main() -> None:
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = short_run(workload, trace)
            want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{workload} trace {trace}: every {key} "
                   "metric, with its unit")
            expect(result["correct"] and result["attempted"] >= 1,
                   f"{workload} trace {trace}: correct")

    run.load_program()
    run.BFS_SPECIAL = {**run.BFS_SPECIAL, ((3, 3, 4), "2d^2"): 289}
    result = in_process_run("bfs_oracle")
    expect(not result["correct"]
           and result["failed"] == result["attempted"] >= 1,
           "a wrong symbolic order fails every bfs_oracle operation")

    run.CHECKS_PER_SIGNATURE -= 1
    result = in_process_run("catalog_check")
    expect(not result["correct"]
           and result["failed"] == result["attempted"] >= 1,
           "a wrong check count fails every catalog_check operation")

    expect(findings.main(["--seeds", "1"]) == 0,
           "the criterion-9 mix fails exactly as findings.json lists")


if __name__ == "__main__":
    main()
