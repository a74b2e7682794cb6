"""Benchmark of the dmlat verifier, end to end and layer by layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload catalog_check --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``catalog_check``: one fresh process per operation running
  ``dmlat --json --seed S check --all``;
* ``sampled_geometry``: in process, whole cycles of the 20 sampled checks at
  acceptance-criterion-9 sizes that pass on the 7 generic triples (the 15
  that fail are in findings.json and reproduced by perfbench/findings.py);
* ``bfs_oracle``: in process, one operation is one pass of the BFS
  stabiliser-order oracle over every orbit row of order <= 400.

Each workload is a closed loop with one client. With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` every second cycle of
operations is traced and the run reports the per-layer metrics. The readable summary comes
first on standard output; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Per-operation
records, spans and the environment go to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is imported here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
CHILD_TIMEOUT = 60

# The console entry point of pyproject.toml, without needing an install.
ENTRY = "import sys; from dmlat.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import dmlat.cli; "
                "print(time.perf_counter() - t)")
SETUP_REPS = 7
LAYER_PROBES = 3
# Time of reference_loop() at the reference speed: the fast phase of the
# 2-vCPU Xeon the benchmark was defined on (see README, "Machine speed").
REFERENCE_LOOP_S = 0.0013

CATALOG = [(6, 6, 3), (10, 10, 5), (12, 12, 6), (18, 18, 9), (4, 4, 3),
           (4, 4, 5), (4, 4, 6), (3, 3, 4), (3, 3, 3), (2, 6, 6), (2, 4, 3),
           (2, 3, 3), (3, 4, 4)]
CHECKS_PER_SIGNATURE = 36  # per `check` report at the defining commit

GENERIC = [(4, 4, 5), (4, 4, 6), (3, 3, 4), (2, 6, 6), (2, 4, 3), (2, 3, 3),
           (3, 4, 4)]
SAMPLED_CHECKS = ("tessellate_lagrangian", "tessellate_giraud", "bisector8",
                  "bisD12", "glue_samelines")
# The (check, triple) pairs of GENERIC x SAMPLED_CHECKS that pass on every
# seed at the defining commit. The other 15 fail there, some only on some
# seeds; a timed run must have no failures, so they are left to findings.py.
PASSING = {
    "tessellate_lagrangian": [(4, 4, 5), (4, 4, 6)],
    "tessellate_giraud": [(4, 4, 5), (4, 4, 6), (3, 3, 4), (2, 6, 6)],
    "bisector8": [(4, 4, 5), (4, 4, 6), (3, 3, 4)],
    "bisD12": [(4, 4, 5), (4, 4, 6), (3, 3, 4), (3, 4, 4)],
    "glue_samelines": GENERIC,
}
RIDGES = {"tessellate_lagrangian": "F(K,R'1)",
          "tessellate_giraud": "F(K,K^-1)"}
TESS_SAMPLES = 500   # acceptance criterion 9
BULLET_SAMPLES = 1000

BFS_MAX_ORDER = 400  # acceptance criterion 8
BFS_GROUPS = 480
BFS_ELEMENTS = 7067
BFS_SPECIAL = {((3, 3, 4), "2d^2"): 288, ((10, 10, 5), "2k'^2"): 50}
BFS_LARGE = 100


@dataclass
class Op:
    """One operation and its verdict: ``kind`` is None when it passed."""

    check: str
    triple: tuple | None
    seed: int
    traced: bool
    seconds: float = 0.0
    ref_seconds: float = 0.0
    kind: str | None = None
    detail: str = ""
    work: int = 0

    def fail(self, kind: str, detail: str = "") -> None:
        if self.kind is None:
            self.kind, self.detail = kind, detail


_REF = np.array([[0.6, 0.8j, 0.0], [-0.8j, 0.6, 0.0], [0.0, 0.0, 1.0]])


def reference_loop() -> None:
    """Fixed work like the program's: 3x3 complex products, Python ints."""
    m = _REF
    total = 0
    for i in range(300):
        m = _REF @ m
        m = m / np.abs(m).sum()
        total += sum(range(i % 17))


def slowness() -> float:
    """How much slower than the reference speed the CPU runs right now."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / REFERENCE_LOOP_S


class Meter:
    """Wall time of the work inside ``timed`` and the same in reference time.

    The machine's speed changes by up to 1.8x within seconds (README,
    "Machine speed"). After each timed stretch the reference loop runs
    once more; the stretch's wall time divided by the mean slowness before
    and after it is its reference time. The loop runs outside the stretch.
    """

    def __init__(self) -> None:
        self.slow = slowness()
        self.factors: list[float] = [self.slow]
        self.wall = self.ref = 0.0

    @contextlib.contextmanager
    def timed(self):
        before = self.slow
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            self.slow = slowness()
            self.factors.append(self.slow)
            self.wall += wall
            self.ref += wall * 2 / (before + self.slow)


def load_program() -> None:
    """Import dmlat from this checkout's src, or exit without a result."""
    if not (SRC / "dmlat" / "cli.py").is_file():
        sys.exit(f"error: no dmlat sources under {SRC}; run the benchmark "
                 "from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import dmlat
    if Path(dmlat.__file__).resolve().parent != SRC / "dmlat":
        sys.exit(f"error: imported dmlat from {dmlat.__file__}, not {SRC}")


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dmlat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit, "src_sha256": digest.hexdigest()}


def child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          env=CHILD_ENV, timeout=CHILD_TIMEOUT)


def measure_setup(meter: Meter) -> tuple[list, list, list]:
    """Fresh interpreters importing dmlat.cli: wall, reference and import
    times (the last as the child measures it)."""
    child([sys.executable, "-c", "import dmlat.cli"]).check_returncode()
    walls, refs, imports = [], [], []
    for _ in range(SETUP_REPS):
        meter.wall = meter.ref = 0.0
        with meter.timed():
            proc = child([sys.executable, "-c", IMPORT_PROBE])
        walls.append(meter.wall)
        refs.append(meter.ref)
        proc.check_returncode()
        imports.append(float(proc.stdout))
    return walls, refs, imports


def split_spans(stdout: str) -> tuple[list[str], list[dict]]:
    """Program output lines and the spans line that perfbench/layers.py adds."""
    lines = stdout.splitlines()
    if not lines:
        return lines, []
    return lines[:-1], json.loads(lines[-1])["spans"]


# --- catalog_check ---------------------------------------------------------

def catalog_op(op: Op, tracer, meter: Meter) -> None:
    if op.traced:
        argv = [sys.executable, str(HERE / "layers.py"), "main", str(op.seed)]
    else:
        argv = [sys.executable, "-c", ENTRY, "--json", "--seed", str(op.seed),
                "check", "--all"]
    with meter.timed():
        proc = child(argv)
    lines = proc.stdout.splitlines()
    if op.traced:
        lines, spans = split_spans(proc.stdout)
        tracer.adopt(spans)
    reports = [json.loads(line) for line in lines]
    signatures = [tuple(r["signature"]) for r in reports]
    if signatures != CATALOG:
        op.fail("mismatch", f"signatures {signatures}")
    for r in reports:
        failed = [c["name"] for c in r["checks"] if not c["passed"]]
        if failed or not r["all_passed"]:
            op.fail("mismatch", f"{r['signature']}: {failed}")
        if len(r["checks"]) != CHECKS_PER_SIGNATURE:
            op.fail("mismatch", f"{r['signature']}: {len(r['checks'])} "
                    f"checks, expected {CHECKS_PER_SIGNATURE}")
        op.work += len(r["checks"]) - len(failed)
    if proc.returncode != 0:
        op.fail("exit_code", f"exit {proc.returncode}: {proc.stderr[-300:]}")


# --- sampled_geometry ------------------------------------------------------

@contextlib.contextmanager
def traced_tessellation(cli, tracer, ridge: str):
    """Span the CLI's call into verification.tessellation_sign_table."""
    original = cli.tessellation_sign_table

    def call(*args, **kwargs):
        with tracer.span("verification.tessellation_sign_table",
                         ridge=ridge, request=TESS_SAMPLES,
                         samples=0) as record:
            report = original(*args, **kwargs)
            record["samples"] = report.samples_used
        return report

    cli.tessellation_sign_table = call
    try:
        yield
    finally:
        cli.tessellation_sign_table = original


def sampled_op(op: Op, tracer, meter: Meter) -> None:
    from dmlat import cli
    from dmlat.catalog import LatticeSignature
    from dmlat.domain import bisD_check, build_domain, glueing_check, \
        samelines_check
    from dmlat.moves import configurations_of
    from dmlat.polyhedron import bisector_equivalence_sample

    sig = LatticeSignature(*op.triple)
    if op.check in RIDGES:
        ridge = RIDGES[op.check]
        argv = ["--json", "--seed", str(op.seed), "tessellate",
                *map(str, op.triple), "--ridge", ridge,
                "--samples", str(TESS_SAMPLES)]
        out = io.StringIO()
        patch = (traced_tessellation(cli, tracer, ridge) if op.traced
                 else contextlib.nullcontext())
        with meter.timed(), tracer.span("cli.main", command="tessellate"), \
                patch, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        report = json.loads(out.getvalue())
        op.work = report.get("samples_used", 0)
        rows = {r["copy"]: r["agreement"] for r in report.get("rows", [])}
        if not rows or any(a != 1.0 for a in rows.values()):
            op.fail("mismatch", f"rows {rows}")
        if op.work != TESS_SAMPLES:
            op.fail("shortfall", f"{op.work} of {TESS_SAMPLES} samples")
        if code != 0:
            op.fail("exit_code", f"exit {code}")
        return
    if op.check == "glue_samelines":
        with meter.timed():
            dom = build_domain(sig)
            with tracer.span("domain.glueing_check"):
                glued = glueing_check(dom, seed=op.seed)
            with tracer.span("domain.samelines_check"):
                same = samelines_check(dom, seed=op.seed)
        if not (glued and same):
            op.fail("mismatch", f"glueing {glued}, samelines {same}")
        return
    if op.check == "bisector8":
        with meter.timed():
            c3 = configurations_of(sig)[2]
            with tracer.span("polyhedron.bisector_equivalence_sample",
                             samples=0) as record:
                report = bisector_equivalence_sample(
                    c3, n_samples=BULLET_SAMPLES, seed=op.seed, neutral=1e-8)
                record["samples"] = sum(report.samples_used)
    else:
        with meter.timed():
            dom = build_domain(sig)
            with tracer.span("domain.bisD_check", samples=0) as record:
                report = bisD_check(dom, n_samples=BULLET_SAMPLES,
                                    seed=op.seed, neutral=1e-8)
                record["samples"] = sum(report.samples_used)
    op.work = sum(report.samples_used)
    if not report.all_agree:
        op.fail("mismatch", f"agreement {report.per_bullet_agreement}")
    if min(report.samples_used) != BULLET_SAMPLES:
        op.fail("shortfall", f"samples used {report.samples_used}")


# --- bfs_oracle ------------------------------------------------------------

def stabilizer_words(dom) -> dict:
    """The stabiliser words of the orbit table, from public pairings."""
    from dmlat.domain import side_pairings
    from dmlat.moves import move_A1

    inv = np.linalg.inv
    w = {name: m.matrix for name, m in side_pairings(dom).as_dict().items()}
    w["A1"] = move_A1(dom.c3).matrix
    w["Q^2"] = w["Q"] @ w["Q"]
    w["R'0K"] = w["R'0"] @ w["K"]
    w["KR'0"] = w["K"] @ w["R'0"]
    w["QK^-1"] = w["Q"] @ inv(w["K"])
    w["A'0R'2R'1"] = w["A'0"] @ w["R'2"] @ w["R'1"]
    w["R'1A'0R'2"] = w["R'1"] @ w["A'0"] @ w["R'2"]
    w["R'2^-1K"] = inv(w["R'2"]) @ w["K"]
    return w


def bfs_op(op: Op, tracer, meter: Meter) -> None:
    """One oracle pass, timed triple by triple. Each triple's generators
    are conjugated by a random diagonal unitary, so every pass gets new
    matrices with the same entry moduli (the same BFS work) and the same
    group orders."""
    from dmlat.catalog import LatticeSignature, derive_params
    from dmlat.domain import build_domain
    from dmlat.verification import (apply_degenerations, base_orbit_table,
                                    order_value, stabilizer_bfs,
                                    stabilizer_generators)

    rng = np.random.default_rng(op.seed)
    results = []  # (triple, order expression, symbolic order, BFS order)
    for triple in CATALOG:
        phases = np.exp(2j * np.pi * rng.random(3))
        conj = np.outer(phases, phases.conj())
        with meter.timed():
            sig = LatticeSignature(*triple)
            params = derive_params(sig)
            words = stabilizer_words(build_domain(sig))
            rows, _, _ = apply_degenerations(base_orbit_table(), params)
            for row in rows:
                value = order_value(row.order_expr, sig, params)
                if value is None or value > BFS_MAX_ORDER:
                    continue
                gens = [conj * g for g in
                        stabilizer_generators(row.stabilizer, words)]
                with tracer.span("verification.stabilizer_bfs",
                                 order=int(value), elements=0) as record:
                    n = stabilizer_bfs(gens, max_size=2000)
                    record["elements"] = n
                results.append((triple, row.order_expr, value, n))
    op.work = sum(n for *_, n in results)
    for triple, expr, value, n in results:
        if n != value:
            op.fail("mismatch", f"{triple} {expr}: BFS {n}, symbolic {value}")
    seen = {(triple, expr): n for triple, expr, _, n in results}
    for key, want in BFS_SPECIAL.items():
        if seen.get(key) != want:
            op.fail("mismatch", f"{key}: BFS {seen.get(key)}, expected {want}")
    if (len(results), op.work) != (BFS_GROUPS, BFS_ELEMENTS):
        op.fail("mismatch", f"{len(results)} groups, {op.work} elements; "
                f"expected {BFS_GROUPS}, {BFS_ELEMENTS}")


# workload -> (operation, one cycle of (check, triple), what work_per_s counts)
WORKLOADS = {
    "catalog_check": (catalog_op, [("check_all", None)], "checks_per_s"),
    "sampled_geometry": (sampled_op, [(check, triple) for triple in GENERIC
                                      for check in SAMPLED_CHECKS
                                      if triple in PASSING[check]],
                         "samples_per_s"),
    "bfs_oracle": (bfs_op, [("oracle_pass", None)], "elements_per_s"),
}


def run_cycle(run_op, cycle, seed: int, ops: list[Op], trace: bool,
              tracer, meter: Meter) -> None:
    """Run each (check, triple) of ``cycle`` once, appending to ``ops``."""
    for check, triple in cycle:
        op = Op(check, triple, seed * 1_000_000 + len(ops),
                trace and len(ops) // len(cycle) % 2 == 1)
        tracer.op = len(ops)
        gc.collect()  # not inside the next operation's time
        meter.wall = meter.ref = 0.0
        try:
            run_op(op, tracer if op.traced else NullTracer(), meter)
        except Exception as exc:  # a failed operation, never dropped
            op.fail(f"exception:{type(exc).__name__}", str(exc)[:300])
        op.seconds, op.ref_seconds = meter.wall, meter.ref
        ops.append(op)


def run_loop(workload: str, seed: int, seconds: float, trace: bool,
             tracer, meter: Meter) -> tuple[list[Op], float]:
    """Closed loop over whole cycles until ``seconds`` have passed."""
    run_op, cycle, _ = WORKLOADS[workload]
    ops: list[Op] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        run_cycle(run_op, cycle, seed, ops, trace, tracer, meter)
    return ops, time.perf_counter() - start


def p50(ops: list[Op]) -> float:
    """Median operation time in reference seconds: the median over the
    operation kinds of each kind's median. A run has whole cycles, so every
    kind is equally frequent and this estimates the median of all times; it
    filters each kind's noise first, which the plain median of a mix of 20
    kinds with close times does not (README, "Steadiness")."""
    by_kind: dict = {}
    for op in ops:
        by_kind.setdefault((op.check, op.triple), []).append(op.ref_seconds)
    return statistics.median(statistics.median(v) for v in by_kind.values())


def layer_probes(tracer) -> None:
    """Fresh processes: ``check --all`` in process, then a cold layer pass."""
    for i in range(LAYER_PROBES):
        tracer.op = f"probe{i}"
        for mode in (["main", str(i)], ["layers"]):
            proc = child([sys.executable, str(HERE / "layers.py"), *mode])
            proc.check_returncode()
            tracer.adopt(split_spans(proc.stdout)[1])


def layer_metrics(spans: list[dict], ops: list[Op], imports: list[float],
                  factors: list[float]) -> dict[str, tuple[float, int]]:
    """Per-layer metrics from the spans, each as (value, sample count)."""
    def dur(s):
        return s["end"] - s["start"]

    named: dict[str, list[dict]] = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def median(values):
        return (statistics.median(values) if values else 0.0, len(values))

    def per_op(name):  # the layer's total time in one operation or probe
        totals: dict = {}
        for s in named.get(name, []):
            totals[s["op"]] = totals.get(s["op"], 0.0) + dur(s)
        return median(list(totals.values()))

    def per_call(name, **match):
        return median([dur(s) for s in named.get(name, [])
                       if all(s[k] == v for k, v in match.items())])

    def rate(name, field):
        group = named.get(name, [])
        busy = sum(dur(s) for s in group)
        done = sum(s[field] for s in group)
        return (done / busy if busy else 0.0, len(group))

    tess = "verification.tessellation_sign_table"
    tess_calls = named.get(tess, [])
    bfs = named.get("verification.stabilizer_bfs", [])
    bfs_busy = sum(dur(s) for s in bfs)
    large = sum(dur(s) for s in bfs if s["order"] >= BFS_LARGE)
    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    failed = [op for op in ops if op.kind]
    values = {
        "cli.import_s": median(imports),
        "cli.main_check_all_s": per_op("cli.main_check_all"),
        "catalog.derive_params_s": per_op("catalog.derive_params"),
        "verification.euler_characteristic_s":
            per_op("verification.euler_characteristic"),
        "arithmetic.sin_pi_per_s": rate("arithmetic.sin_pi", "calls"),
        "arithmetic.projective_order_s": per_op("arithmetic.projective_order"),
        "moves.configurations_of_s": per_op("moves.configurations_of"),
        "moves.move_build_per_s": rate("moves.move_build", "calls"),
        "domain.build_domain_s": per_op("domain.build_domain"),
        "domain.side_pairings_s": per_op("domain.side_pairings"),
        "domain.vertices_D_s": per_op("domain.vertices_D"),
        "verification.check_relations_s":
            per_op("verification.check_relations"),
        "verification.cycle_orders_s": per_op("verification.cycle_orders"),
        f"{tess}.lagrangian_s": per_call(tess, ridge="F(K,R'1)"),
        f"{tess}.giraud_s": per_call(tess, ridge="F(K,K^-1)"),
        f"{tess}.accepted_per_s": rate(tess, "samples"),
        f"{tess}.draw_cap_hits": (sum(1 for s in tess_calls
                                      if s["samples"] < s["request"]),
                                  len(tess_calls)),
        "polyhedron.bisector_equivalence_sample_s":
            per_call("polyhedron.bisector_equivalence_sample"),
        "polyhedron.bisector_equivalence_sample.accepted_per_s":
            rate("polyhedron.bisector_equivalence_sample", "samples"),
        "domain.bisD_check_s": per_call("domain.bisD_check"),
        "domain.bisD_check.accepted_per_s":
            rate("domain.bisD_check", "samples"),
        "domain.glueing_check_s": per_call("domain.glueing_check"),
        "domain.samelines_check_s": per_call("domain.samelines_check"),
        "verification.stabilizer_bfs_s": per_op("verification.stabilizer_bfs"),
        "verification.stabilizer_bfs.elements_per_s":
            rate("verification.stabilizer_bfs", "elements"),
        "verification.stabilizer_bfs.large_share":
            (large / bfs_busy if bfs_busy else 0.0, len(bfs)),
        "trace.overhead_s": (p50(traced) - p50(untraced)
                             if traced and untraced else 0.0, len(ops)),
        "failed_ratio": (len(failed) / len(ops), len(ops)),
        "calibration.slowness": median(factors),
    }
    for kind in ("mismatch", "shortfall", "exception", "exit_code"):
        values[f"failed.{kind}"] = (sum(1 for op in failed
                                        if op.kind.split(":")[0] == kind),
                                    len(ops))
    return values


def print_breakdown(failed: list[Op]) -> None:
    """Failed operations by kind and (check, triple), with a sample detail."""
    breakdown: dict = {}
    for op in failed:
        breakdown.setdefault((op.kind, op.check, op.triple), []).append(op)
    for (kind, check, triple), group in sorted(breakdown.items(), key=str):
        print(f"  failed {len(group):3d}x {kind:28s} {check} {triple or ''}: "
              f"{group[0].detail[:120]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    env = environment()
    # One CPU for this process and its children, so that the reference loop
    # measures the speed of the CPU the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    meter = Meter()
    walls, setup_refs, imports = measure_setup(meter)
    tracer = Tracer() if args.trace else NullTracer()
    ops, elapsed = run_loop(args.workload, args.seed, args.seconds,
                            bool(args.trace), tracer, meter)
    if args.workload == "catalog_check":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        layer_probes(tracer)

    failed = [op for op in ops if op.kind]
    times = [op.ref_seconds for op in ops]
    busy = sum(times)
    n = len(ops)
    if args.trace:
        values = layer_metrics(tracer.spans, ops, imports, meter.factors)
    else:
        values = {
            "setup_s": (statistics.median(setup_refs), len(setup_refs)),
            "op_s.p50": (p50(ops), n),
            "ops_per_s": (n / busy, n),
            "work_per_s": (sum(op.work for op in ops) / busy, n),
            "peak_rss_mb": (peak_kb * 1024 / 1e6, n),
        }

    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}  {n} operations in "
          f"{elapsed:.1f} s")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    work_name = WORKLOADS[args.workload][2]
    for name, (value, count) in values.items():
        label = f"{name} ({work_name})" if name == "work_per_s" else name
        print(f"  {label:54s} {value:14.6g} {units[name]:6s} n={count}")
    if not args.trace:
        if n >= 100:  # at least 10 operations beyond the 90th percentile
            p90 = statistics.quantiles(times, n=10)[-1]
            print(f"  {'op_s.p90':54s} {p90:14.6g} s      n={n}")
        else:
            print(f"  op_s.p90 omitted: {n} operations, 100 needed")
        print(f"  failed_ratio {len(failed) / n:.4f} ({len(failed)} of {n})")
        print(f"  wall clock: setup_s {statistics.median(walls):.4g} s, "
              f"op_s.p50 {statistics.median(op.seconds for op in ops):.4g} "
              f"s, ops_per_s {n / elapsed:.4g} 1/s over {elapsed:.1f} s; "
              f"slowness median {statistics.median(meter.factors):.3f}, "
              f"range {min(meter.factors):.2f}-{max(meter.factors):.2f}")
    print_breakdown(failed)

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "setup_walls": walls, "import_times": imports, "metrics": values,
        "ops": [vars(op) for op in ops], "spans": tracer.spans
        if args.trace else [],
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, default=list))
    print(json.dumps({
        "correct": not failed,
        "attempted": n,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
