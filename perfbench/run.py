"""Benchmark of setgraphs: four fixed workloads, exact output checks, per-layer trace.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Every operation runs alone in a fresh interpreter (perfbench/child.py) that
imports `setgraphs` from `src/` of the checkout, so no warm cache carries
between timed operations; one thread throughout, one operation at a time
(closed loop, one client). G(n) is unique, so the inputs are fixed: the seed
is recorded and changes nothing.

Host speed. On a shared 2-vCPU virtual machine (Intel Xeon, Python 3.11,
numpy 2.4) the same operation ran up to 2x slower, for seconds to minutes at
a time, while other tenants were busy, so raw seconds from two sets of runs
do not compare. The slowdown is mostly that of the core the operation runs
on; the other vCPU often stays fast. So each child also times a fixed
pure-Python reference loop on its own core, just before and just after the
timed call (child.py: the median of REF_CHUNKS chunks of REF_ITERS
iterations, each way), and an operation's seconds are scaled by
REF_NOMINAL_S over the mean of those two chunk times: the seconds it would
take on a host that runs a chunk in REF_NOMINAL_S, about an idle host of
that kind. Contention slows the operation and the loop alike, so it cancels.
In ten 24-second runs per workload, the interquartile range of the per-run
median over its median was, unscaled and scaled: census_n13 0.30 and 0.11,
verify_n12 0.27 and 0.06, incidence_n12 0.14 and 0.11, export_n12_csv 0.17
and 0.14. A reference loop timed at the same moment on the other vCPU did
not help (over 40 verify_n12 operations, medians of eight spread with a
coefficient of variation of 0.17 unscaled, 0.17 scaled that way and 0.06
scaled this way). The scaling assumes an operation that uses one core,
which every workload does (threads = 1). Every raw sample and its speed
factor are printed on the line before the result.

End-to-end metrics (`--trace 0`):
  wall_s        median scaled seconds of one operation, timed in the child
                around the call, after imports;
  peak_rss_mib  median peak resident set of the process that ran one
                operation (its own rusage, read with os.wait4);
  setup_s       median scaled seconds to start the interpreter and import
                setgraphs.cli (from starting child.py to the end of its
                imports), over SETUP_PROBES fresh processes spread between
                the operations of the run.
An operation fails when it raises, exits non-zero or fails its output check;
the result line reports `attempted` and `failed` (error_rate is their ratio,
printed by `--workload all`). A failure is counted, never fatal.

Per-layer metrics (`--trace 1`) come from perfbench/tracing.py, which wraps
the public functions of the library from outside. Traced and untraced
operations alternate; the traced ones give the span statistics (median per
operation, self times scaled like wall_s), each pair gives one sample of
`trace.overhead_frac` (median reported), and every output of both kinds must
be byte-identical.

Why each workload exists -- the layer it stresses, what it bypasses, and what
should stay flat when another layer changes:

  census_n13     `setgraph invariants 13 --threads 1`. Stresses the exact
                 triangle kernel (holes.triangle_count_exact, ~95%) and one
                 large core.materialize (memory). Bypasses per-vertex
                 incidence, the claims, the oracles and the exporters: a change
                 to those leaves its wall_s and peak_rss_mib flat.
  verify_n12     `setgraph verify --claims all --max-n 12 --threads 1`.
                 Stresses invariants.tightness_vector, C13/C17/C18, the
                 oracles and many small core.materialize calls. The triangle
                 kernel is ~1% here (C11 refutes at n = 3): a kernel change
                 leaves its wall_s flat; an exporter or incidence change too.
  incidence_n12  `setgraphs.hole_report(12, threads=1)`. The only path through
                 per-vertex incidence (holes.primitive_degrees, ~65%), plus
                 the kernel (~25%). Bypasses the CLI, the claims and the
                 exporters: changes there leave it flat.
  export_n12_csv `setgraph build 12 --format csv`. Stresses the edge stream
                 (core.edges_by_mask) and the CSV exporter (cli.render_csv),
                 memory-bound on the write side. Bypasses materialize, the
                 kernel, incidence and the claims: changes there leave it flat.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from time import monotonic, perf_counter, sleep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "fixtures" / "claim_verdicts.json"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 9
# Seconds of one chunk of child.py's reference loop that the reported
# seconds are scaled to (see "Host speed" above).
REF_NOMINAL_S = 0.0025
RUN_LIMIT_S = 170.0  # one workload's run, with every child it starts, ends within this
SMOKE_N = 6

# sha256 of the outputs of the seed commit, at full size and at SMOKE_N.
# Triangle counts for n <= 7 are recounted here by brute force instead.
PINNED_DIGESTS = {
    ("census_n13", 6): "81f8d3aeb8a6d8aba712667a34cf3360863704f0c56c6e7b308eedd326be3801",
    ("verify_n12", 6): "49affc8205319c00283fe3e96dcc9b338d6353de017fe22281cf01eb7623dff1",
    ("incidence_n12", 6): "2fb30a4e5527fd0f263cb8f25a495a9b6e13ad39d28c5302ab6078efedda3d7d",
    ("export_n12_csv", 6): "46972f62f80bd92be05cf2003561f63696854c5cdb0e64d59f6482a9d21a416e",
    ("census_n13", 13): "73535dadc03e9c3741a7b0e26f6de64aa6686ef91d195deaf1c434fbfb0f6462",
    ("verify_n12", 12): "72f89ab6dcda9ff81a460d300265c6477dad84e752cd5ae0b8b1f6d0ba4cc73d",
    ("incidence_n12", 12): "3317137afd57f4a782daa700f9655e912603e03fee261d234492f248d102a6d1",
    ("export_n12_csv", 12): "1262e2cf06b355ec719d73ba6ffbcd222aed4cbeb68113b4ac4dc092040c58ff",
}
PINNED_TRIANGLES = {12: 10476007542, 13: 85662034185}
PINNED_CSV_BYTES = {12: 76980011}

END_TO_END = (("wall_s", "s"), ("peak_rss_mib", "MiB"), ("setup_s", "s"))

_CLAIM_CHECKS = tuple(f"verify.C{i}.self_s" for i in range(1, 23))
PER_LAYER = (
    "holes.triangle_count_exact.self_s",
    "holes.triangle_count_exact.calls",
    "holes.triangle_count_exact.rss_growth_mib",
    "holes.primitive_degrees.self_s",
    "holes.primitive_degrees.rss_growth_mib",
    "holes.primitive_degree.calls",
    "holes.primitive_degree.self_s",
    "holes.triangle_count_corrected.self_s",
    "holes.hole_report.self_s",
    "invariants.tightness_vector.self_s",
    "invariants.tightness_vector.calls",
    "invariants.tightness_recursion_step.self_s",
    "invariants.edge_count_brute.self_s",
    "core.materialize.self_s",
    "core.materialize.calls",
    "core.materialize.rss_growth_mib",
    "core.canonical_masks.calls",
    "core.canonical_masks.hit_ratio",
    "parameters.chromatic_coloring.self_s",
    "parameters.simulate_explosions.self_s",
    "parameters.disjointness_graph.self_s",
    "parameters.max_cliques.self_s",
    "oracle.max_cliques_exact.self_s",
    "oracle.chromatic_exact.self_s",
    "oracle.mis_exact.self_s",
    "oracle.dominating_exact.self_s",
    "oracle.vertex_cover_exact.self_s",
    "oracle.enum_triangles.self_s",
    "mela.check_closure.self_s",
    "mela.check_divisibility.self_s",
    *_CLAIM_CHECKS,
    "verify.render_report.self_s",
    "cli.invariant_report.self_s",
    "cli.render_csv.self_s",
    "cli.render_csv.rss_growth_mib",
    "cli.output_bytes",
    "trace.overhead_frac",
)
SUFFIX_UNITS = {
    "self_s": "s",
    "calls": "count",
    "rss_growth_mib": "MiB",
    "hit_ratio": "ratio",
    "output_bytes": "bytes",
    "overhead_frac": "ratio",
}


@dataclass(frozen=True)
class Workload:
    name: str
    call: str  # "cli" or "hole_report"
    n: int
    argv: tuple[str, ...] = ()


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """The four workloads; `smoke` runs the same code paths at n = SMOKE_N."""
    n12, n13 = (str(SMOKE_N), str(SMOKE_N)) if smoke else ("12", "13")
    return {
        w.name: w
        for w in (
            Workload("census_n13", "cli", int(n13), ("invariants", n13, "--threads", "1")),
            Workload("verify_n12", "cli", int(n12),
                     ("verify", "--claims", "all", "--max-n", n12, "--threads", "1")),
            Workload("incidence_n12", "hole_report", int(n12)),
            Workload("export_n12_csv", "cli", int(n12), ("build", n12, "--format", "csv")),
        )
    }


# --- expected outputs, computed without the library -------------------------


def triangles(n: int) -> int:
    if n in PINNED_TRIANGLES:
        return PINNED_TRIANGLES[n]
    if n > 7:
        raise ValueError(f"no triangle count for n={n}")
    masks = range(1, 1 << n)
    return sum(1 for a, b, c in combinations(masks, 3) if a & b and a & c and b & c)


def edge_count(n: int) -> int:
    """Pairs of distinct intersecting non-empty subsets: all pairs minus disjoint ones."""
    return comb((1 << n) - 1, 2) - (3**n - (1 << (n + 1)) + 1) // 2


@dataclass
class Output:
    data: bytes | None  # None for outputs too large to keep (the CSV export)
    digest: str
    size: int
    lines: int


def read_output(path: Path, keep: bool) -> Output:
    digest = hashlib.sha256()
    size = lines = 0
    chunks = []
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            digest.update(chunk)
            size += len(chunk)
            lines += chunk.count(b"\n")
            if keep:
                chunks.append(chunk)
    return Output(b"".join(chunks) if keep else None, digest.hexdigest(), size, lines)


def check_output(w: Workload, out: Output) -> list[str]:
    """Problems with one operation's output; empty when it is exactly right."""
    problems = []
    pinned = PINNED_DIGESTS[(w.name, w.n)]
    if out.digest != pinned:
        problems.append(f"sha256 {out.digest} != pinned {pinned}")
    if w.name == "export_n12_csv":
        if out.lines != edge_count(w.n):
            problems.append(f"{out.lines} lines != {edge_count(w.n)} edges")
        if w.n in PINNED_CSV_BYTES and out.size != PINNED_CSV_BYTES[w.n]:
            problems.append(f"{out.size} bytes != {PINNED_CSV_BYTES[w.n]}")
        return problems
    try:
        doc = json.loads(out.data)
    except ValueError as exc:
        return problems + [f"output is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return problems + ["output is not a JSON object"]
    h = triangles(w.n) if w.name != "verify_n12" else None
    if w.name == "census_n13":
        got = (doc.get("triangles_exact"), doc.get("triangles_corrected"))
        if got != (h, h):
            problems.append(f"triangles (exact, corrected) = {got}, expected {h}")
    elif w.name == "incidence_n12":
        got = (doc.get("h_exact"), doc.get("h_corrected"))
        if got != (h, h):
            problems.append(f"h (exact, corrected) = {got}, expected {h}")
        hist = {int(k): c for k, c in (doc.get("primitive_degree_histogram") or {}).items()}
        if sum(hist.values()) != (1 << w.n) - 1:
            problems.append(f"histogram counts sum to {sum(hist.values())}")
        if sum(k * c for k, c in hist.items()) != 3 * h:
            problems.append("sum of k * count over the histogram != 3h")
    else:
        expected = json.loads(FIXTURE.read_text())["verdicts"]
        claims = {c["id"]: c for c in doc.get("claims", [])}
        if list(claims) != list(expected):
            problems.append(f"claim ids {list(claims)} != {list(expected)}")
        for cid, want in expected.items():
            got = claims.get(cid, {})
            if (got.get("status"), got.get("counterexample")) != (want["status"], want["counterexample"]):
                problems.append(f"{cid}: {got.get('status')} {got.get('counterexample')} != fixture")
        for cid in ("C10", "C11"):
            if claims.get(cid, {}).get("status") != "REFUTED":
                problems.append(f"{cid} is not refuted")
    return problems


# --- processes ---------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def wait_rusage(proc: subprocess.Popen, deadline: float):
    """Reap proc and return its rusage; None when it outlived `deadline` (monotonic).

    The child is killed and reaped on every way out, an interrupt included.
    """
    try:
        while monotonic() < deadline:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return rusage
            sleep(0.001)
        return None
    finally:
        if proc.returncode is None:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)


def speed(ref_s: list[float]) -> float:
    """REF_NOMINAL_S over the mean of the reference samples a child took."""
    return REF_NOMINAL_S * len(ref_s) / sum(ref_s)


def setup_seconds(work: Path, deadline: float) -> tuple[float, float]:
    """Interpreter start plus `import setgraphs.cli`, as every CLI user pays it.

    Returns the seconds as measured and the host speed factor after them.
    """
    result_path = work / "setup.json"
    spec = {"call": "setup", "result": str(result_path)}
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    if wait_rusage(proc, deadline) is None or proc.returncode != 0:
        raise RuntimeError("`import setgraphs.cli` failed in a fresh interpreter")
    result = json.loads(result_path.read_text())
    return result["t_imported"] - t0, speed(result["ref_s"])


def numpy_version() -> str:
    """Import the program once (also compiling its bytecode) and report numpy's version."""
    try:
        done = subprocess.run(
            [sys.executable, "-c", "import numpy, setgraphs.cli; print(numpy.__version__)"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError("importing setgraphs took over 60 s") from exc
    if done.returncode != 0:
        raise RuntimeError(f"cannot import setgraphs from {SRC}:\n{done.stderr[-2000:]}")
    return done.stdout.strip()


def machine(numpy: str) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model
            )
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
        "reference_nominal_s": REF_NOMINAL_S,
    }


@dataclass
class Op:
    traced: bool
    problems: list[str]
    wall_s: float | None = None  # as measured
    speed: float = 1.0  # host speed factor around the timed call (see speed())
    peak_rss_mib: float | None = None
    digest: str | None = None
    output_bytes: int = 0
    result: dict | None = None


def run_op(w: Workload, traced: bool, work: Path, deadline: float) -> Op:
    """One operation in a fresh child, checked; failures are recorded, not raised."""
    out_path, result_path, err_path = work / "out", work / "result.json", work / "stderr"
    result_path.unlink(missing_ok=True)
    spec = {"call": w.call, "argv": list(w.argv), "n": w.n, "trace": traced,
            "result": str(result_path)}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=child_env(), stdout=out, stderr=err,
        )
        rusage = wait_rusage(proc, deadline)
    op = Op(traced, [])
    if rusage is None:
        op.problems.append(f"killed: the run reached its {RUN_LIMIT_S} s limit")
        return op
    op.peak_rss_mib = rusage.ru_maxrss / 1024
    if proc.returncode != 0 or not result_path.exists():
        tail = err_path.read_text(errors="replace")[-1500:]
        op.problems.append(f"exit code {proc.returncode}: {tail}")
        return op
    op.result = json.loads(result_path.read_text())
    op.wall_s = op.result["wall_s"]
    op.speed = speed(op.result["ref_s"])
    output = read_output(out_path, keep=w.name != "export_n12_csv")
    op.digest = output.digest
    op.output_bytes = output.size if w.call == "cli" else 0
    op.problems.extend(check_output(w, output))
    return op


# --- one run -----------------------------------------------------------------


def layer_value(name: str, op: Op) -> float:
    if name == "core.canonical_masks.hit_ratio":
        return op.result["canonical_masks_hit_ratio"]
    if name == "cli.output_bytes":
        return op.output_bytes
    span, field = name.rsplit(".", 1)
    value = op.result["spans"].get(span, {}).get(field, 0)
    return value * op.speed if field == "self_s" else value


def run_workload(w: Workload, seconds: float, trace: bool) -> dict:
    """Run one workload for `seconds` and return the contract's result object."""
    deadline = monotonic() + RUN_LIMIT_S
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups: list[tuple[float, float]] = []  # (seconds as measured, speed factor)
        ops: list[Op] = []
        start = monotonic()
        while not ops or monotonic() - start < seconds:
            if not trace and len(setups) < SETUP_PROBES:
                setups.append(setup_seconds(work, deadline))
            ops.append(run_op(w, False, work, deadline))
            if trace:
                ops.append(run_op(w, True, work, deadline))
        while not trace and len(setups) < SETUP_PROBES:
            setups.append(setup_seconds(work, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    reference = next((op.digest for op in ops if not op.traced and op.digest), None)
    for op in ops:
        if op.traced and op.digest is not None and op.digest != reference:
            op.problems.append("traced output differs from untraced output")
    for op in ops:
        for problem in op.problems:
            print(f"{w.name}: {'traced' if op.traced else 'untraced'} operation failed: "
                  f"{problem}", file=sys.stderr)
    failed = sum(1 for op in ops if op.problems)
    plain = [op for op in ops if not op.traced and not op.problems]
    metrics = {}
    if trace:
        # Each traced operation with the untraced one just before it, so that
        # slow drifts of the host's speed cancel out of the overhead.
        pairs = [(u, t) for u, t in zip(ops[::2], ops[1::2]) if not u.problems and not t.problems]
        if pairs:
            for name in PER_LAYER[:-1]:
                value = statistics.median(layer_value(name, t) for _, t in pairs)
                metrics[name] = {"value": value, "unit": SUFFIX_UNITS[name.rsplit(".", 1)[1]]}
            overhead = statistics.median(
                (t.wall_s * t.speed - u.wall_s * u.speed) / (u.wall_s * u.speed) for u, t in pairs
            )
            metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    elif plain:
        metrics = {
            "wall_s": {"value": statistics.median(op.wall_s * op.speed for op in plain),
                       "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(op.peak_rss_mib for op in plain),
                             "unit": "MiB"},
            "setup_s": {"value": statistics.median(sec * factor for sec, factor in setups),
                        "unit": "s"},
        }
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "samples": {  # as measured, before scaling by the speed factor
            "wall_s": [op.wall_s for op in ops if not op.traced],
            "speed": [op.speed for op in ops if not op.traced],
            "traced_wall_s": [op.wall_s for op in ops if op.traced],
            "traced_speed": [op.speed for op in ops if op.traced],
            "peak_rss_mib": [op.peak_rss_mib for op in ops if not op.traced],
            "setup_s": [sec for sec, _ in setups],
            "setup_speed": [factor for _, factor in setups],
        },
    }


def smoke() -> int:
    """All four code paths at n = SMOKE_N, traced and untraced; 0 when all pass."""
    status = 0
    for w in workloads(smoke=True).values():
        result = run_workload(w, 0, trace=True)
        missing = [m for m in PER_LAYER if m not in result["metrics"]] if result["correct"] else []
        ok = result["correct"] and not missing
        status |= not ok
        print(f"{w.name} (n={w.n}): {'ok' if ok else 'FAILED'}, "
              f"{result['attempted']} operations, {result['failed']} failed"
              + (f", missing metrics {missing}" if missing else ""))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="recorded; the inputs are fixed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick check of all code paths")
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "setgraphs" / "__init__.py").is_file() or not FIXTURE.is_file():
        print(f"run.py: no setgraphs source checkout at {ROOT}", file=sys.stderr)
        return 2
    try:
        info = machine(numpy_version())
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    table = workloads()
    names = list(table) if args.workload == "all" else [args.workload]
    if any(name not in table for name in names):
        parser.error(f"--workload must be one of {', '.join(table)} or all")
    results = {}
    for name in names:
        result = run_workload(table[name], args.seconds, bool(args.trace))
        result.update(workload=name, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, machine=info)
        results[name] = result
        print(json.dumps(result))
    if args.workload != "all":
        last = results[names[0]]
        print(json.dumps({k: last[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    print(f"\nmachine: {json.dumps(info)}")
    for name, result in results.items():
        cells = [f"{m}={v['value']:.6g} {v['unit']}" for m, v in result["metrics"].items()]
        cells.append(f"error_rate={result['failed'] / result['attempted']:.6g} ratio")
        print(f"{name}: " + ", ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
