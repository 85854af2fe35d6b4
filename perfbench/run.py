"""Benchmark of mlk: seeded workloads, checked outputs, and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain|lattice|cli --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # every named metric

With ``--trace 0`` the workload's operations run untraced, repeated in list
order while time remains (every operation at least once; operations kept
out of ``wall_s`` run once afterwards), and the last stdout line is a JSON
object with the end-to-end metrics. With ``--trace 1``
each operation runs once untraced and once with spans around the calls into
each layer, and the last line holds the per-layer metrics. The lines before it
print every named metric with its unit, the recorded environment and, for
traced runs, per-function detail. ``--tiny`` shrinks every workload for the
benchmark's own tests.

Load comes from this one process, one operation at a time: no thread pool,
at most one child process at a time. ``MLK_THREADS`` is removed from the
environment so that mlk's default single-thread path is measured, and the
BLAS is held to one thread (``OPENBLAS_NUM_THREADS=1``, ``OMP_NUM_THREADS=1``)
in this process and its children.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from tracing import LAYERS, Tracer, install, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("chain", "lattice", "cli")
SETUP_REPEATS = 3
# Set to 1 before numpy is first imported, here and in every child: on a
# small shared machine a second BLAS thread mostly waits for a core, which
# made the batch kernels slower and their times less steady.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Layer functions reported in the per-layer metrics (as "<name>.calls" and
# "<name>.self_pct"); "bench.op" is the benchmark's own part of each operation.
TRACED_FUNCTIONS = (
    "theta.cube_norm_batch", "theta.f_series_batch", "quadrature.integrate_cube",
    "bounds.verify_chain", "bounds.archimedean_invariant", "bounds.height_lower_bound",
    "lattice.GramMatrix", "lattice.lll_reduce", "lattice.shortest_vector",
    "lattice.closest_vector", "lattice.psi_sq_batch", "lattice.mu_interval",
    "siegel.validate_period_matrix", "siegel.injectivity_diameter", "siegel.lambda_clamped",
    "oracle.log_abs_delta", "cli.import", "cli.main", "cli.process", "bench.op",
)
POINT_FUNCTIONS = (
    "theta.cube_norm_batch", "theta.f_series_batch", "quadrature.integrate_cube",
    "lattice.psi_sq_batch",
)


@dataclass
class Raised:
    """An operation that raised instead of returning."""

    message: str


@dataclass
class Execution:
    op: Any
    seconds: float
    out: Any
    traced: bool


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, or set-up failed)."""


def _execute(op, tracer) -> Execution:
    prepared = op.prepare()
    sid = tracer.begin("bench.op", {"op": op.key}) if tracer else None
    t0 = time.perf_counter()
    try:
        out = op.call(prepared, tracer)
    except Exception as exc:  # a failed operation is counted, and the run goes on
        out = Raised(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.end(sid)
    return Execution(op, seconds, out, tracer is not None)


def measure(ops, seconds: float) -> list[Execution]:
    """Every operation once, then the list again in order while the next
    operation, at its fastest time so far, still ends within ``seconds``."""
    start = time.perf_counter()
    runs = [_execute(op, None) for op in ops]
    fastest = {r.op.key: r.seconds for r in runs}
    i = 0
    while True:
        op = ops[i % len(ops)]
        if time.perf_counter() - start + fastest[op.key] > seconds:
            return runs
        runs.append(_execute(op, None))
        fastest[op.key] = min(fastest[op.key], runs[-1].seconds)
        i += 1


def measure_traced(ops, tracer) -> list[Execution]:
    """Each operation untraced and traced back to back, alternating which
    goes first so that neither side is always the colder one. The wrappers
    are installed only around the traced execution."""
    runs = []
    for i, op in enumerate(ops):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if not traced:
                runs.append(_execute(op, None))
                continue
            uninstall = install(tracer)
            try:
                runs.append(_execute(op, tracer))
            finally:
                uninstall()
    return runs


def check(workload, runs):
    """Reference checks outside the timed region.

    The first output of each operation is checked against its reference;
    every later output must equal it. An execution fails when it raised,
    its output failed the check, or it differs from the first output.
    Returns (failed executions, keys of operations that failed, problems,
    error messages with their counts).
    """
    first, verdict = {}, {}
    failed, failed_ops, problems, errors = 0, set(), [], {}
    for r in runs:
        key = r.op.key
        if isinstance(r.out, Raised):
            errors[r.out.message] = errors.get(r.out.message, 0) + 1
            bad = True
        elif key not in first:
            first[key] = r.out
            verdict[key] = workload.check(r.op, r.out)
            problems += verdict[key]
            bad = bool(verdict[key])
        elif r.out != first[key]:
            problems.append(f"{key}: output differs from its first run")
            bad = True
        else:
            bad = bool(verdict[key])
        if bad:
            failed += 1
            failed_ops.add(key)
    return failed, failed_ops, problems, errors


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{name: os.environ[name] for name in BLAS_THREAD_VARS},
        "MLK_THREADS": "removed",
        "git_revision": _git_revision(),
    }


def measure_setup(workloads, name: str, seed: int, tiny: bool, workdir: Path) -> float:
    """Median wall time of fresh interpreters that import mlk and build and
    validate the workload's inputs (``probe.py``)."""
    argv = [sys.executable, str(HERE / "probe.py"), name, str(seed)] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        res = workloads.run_child(argv, workloads.child_env(), workdir / "probe.out")
        times.append(time.perf_counter() - t0)
        if res.returncode != 0:
            raise BenchError(f"set-up probe exited with {res.returncode}")
    return statistics.median(times)


def _samples(runs) -> dict:
    out = {}
    for r in runs:
        out.setdefault(r.op.key, []).append(round(r.seconds, 6))
    return out


def named_metrics(workload, runs, failed_ops: set) -> dict:
    """The workload's named metrics, from its untraced runs: name -> (value, unit)."""
    samples = {}
    for r in runs:
        if not r.traced:
            samples.setdefault(r.op.key, []).append(r.seconds)
    per_op = {key: statistics.median(v) for key, v in samples.items()}
    ops = workload.ops
    metrics = {
        "wall_s": (sum(per_op[op.key] for op in ops if op.in_wall), "s"),
    }
    groups = {}
    for op in ops:
        groups.setdefault(op.group, []).append(per_op[op.key] / op.divisor)
    for group, values in groups.items():
        scale, unit = (1e3, "ms") if group.endswith("_ms") else (1.0, "s")
        metrics[group] = (scale * statistics.median(values), unit)
    firsts = {}
    for r in runs:
        firsts.setdefault(r.op.key, r)
    metrics["failed_frac"] = (len(failed_ops) / len(ops), "ratio")
    if workload.name == "chain":
        import workloads as wl  # imports mlk, so only once src/ is on the path

        ok = [r for r in firsts.values() if not isinstance(r.out, Raised)]
        metrics["checks_failed"] = (
            sum(1 for r in ok for e in r.out.entries if not e.passed), "count")
        ratios = [x for r in ok for x in wl.chain_oracle_ratios(r.op, r.out)]
        metrics["oracle_err_ratio"] = (max(ratios) if ratios else float("nan"), "ratio")
    if workload.name == "lattice":
        metrics["enum_cap_errors"] = (sum(
            1 for r in firsts.values()
            if isinstance(r.out, Raised) and "exceeds cap" in r.out.message), "count")
    return metrics


def per_layer_metrics(summary: dict, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and per-function detail."""
    wall = summary["wall_s"]
    fns = summary["functions"]
    metrics = {}
    for name in TRACED_FUNCTIONS:
        rec = fns.get(name, {"calls": 0, "self_s": 0.0, "points": 0})
        if name != "bench.op":
            metrics[f"{name}.calls"] = (rec["calls"], "count")
        metrics[f"{name}.self_pct"] = (100.0 * rec["self_s"] / wall, "%")
        if name in POINT_FUNCTIONS:
            metrics[f"{name}.points"] = (rec["points"], "count")
    metrics["bounds.verify_chain.checks_failed"] = (
        fns.get("bounds.verify_chain", {}).get("checks_failed", 0), "count")
    metrics["bounds.archimedean_invariant.n_clipped"] = (
        fns.get("bounds.archimedean_invariant", {}).get("n_clipped", 0), "count")
    metrics["lattice.enum_cap_errors"] = (summary["enum_cap_errors"], "count")
    metrics["siegel.injectivity_diameter.calls_per_embedding"] = (
        summary["calls_per_embedding"], "calls/embedding")
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_pct"] = (
            100.0 * summary["layers"].get(layer, 0.0) / wall, "%")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_ratio"] = (wall / untraced_wall, "ratio")
    detail = {
        "self_s": {k: v["self_s"] for k, v in fns.items()},
        "per_g": summary["per_g"],
        "calls_per_embedding_by_group": summary["calls_per_embedding_by_group"],
    }
    return metrics, detail


def _print_table(title: str, metrics: dict):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")


def run_workload(args) -> int:
    import workloads  # imports mlk, so only once src/ is on the path

    workdir = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = environment()
        setup_s = measure_setup(workloads, args.workload, args.seed, args.tiny, workdir)
        wl = workloads.build(args.workload, args.seed, args.tiny, workdir)
        tracer = None
        if args.trace:
            tracer = Tracer()
            runs = measure_traced(wl.ops, tracer)
        else:
            runs = measure([op for op in wl.ops if op.in_wall], args.seconds)
        if wl.in_process:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            peak_mb = max((r.out.maxrss_kb for r in runs if not isinstance(r.out, Raised)),
                          default=0) / 1024.0
        if not args.trace:
            runs += [_execute(op, None) for op in wl.ops if not op.in_wall]
        failed, failed_ops, problems, errors = check(wl, runs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    named = {"setup_s": (setup_s, "s"), **named_metrics(wl, runs, failed_ops),
             "peak_rss_mb": (peak_mb, "MB")}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "env": env, "executions": len(runs), "failed_executions": failed,
              "errors": errors, "problems": problems[:20],
              "op_seconds": _samples(runs),
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}}
    if tracer:
        untraced_wall = sum(r.seconds for r in runs if not r.traced)
        roots = [i for i, s in enumerate(tracer.spans) if s[3] < 0]
        groups = {i: r.op.group for i, r in zip(roots, [r for r in runs if r.traced])}
        summary = summarize(tracer.spans, groups)
        metrics, detail = per_layer_metrics(summary, untraced_wall)
        report["trace_detail"] = detail
        spans_path = OUT / f"spans-{args.workload}-s{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {k: named[k] for k in END_TO_END}

    _print_table(f"perfbench {args.workload} seed={args.seed} trace={args.trace}", named)
    if tracer:
        _print_table("per-layer (traced run)", metrics)
    for line in problems[:20]:
        print(f"  problem: {line}")
    for message, count in errors.items():
        print(f"  raised x{count}: {message}")
    print("report " + json.dumps(report, sort_keys=True))
    # attempted/failed count the seeded list's operations, not executions:
    # how often an operation repeats depends on the machine's speed, and the
    # same seed must give the same counts
    print(json.dumps({
        "correct": not problems,
        "attempted": len(wl.ops),
        "failed": len(failed_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own), then one table."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv + (["--tiny"] if args.tiny else []), cwd=ROOT,
                              capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        report = json.loads(lines[-2][len("report "):])
        results[name] = {"result": json.loads(lines[-1]), "named": report["named"]}
        _print_table(f"{name}:", {k: (v["value"], v["unit"]) for k, v in report["named"].items()})
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mlk" / "__init__.py").is_file():
        print(f"error: no mlk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("MLK_THREADS", None)
    os.environ.update({name: "1" for name in BLAS_THREAD_VARS})
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import mlk

        if Path(mlk.__file__).resolve().parent != ROOT / "src" / "mlk":
            raise BenchError(f"imported mlk from {mlk.__file__}, not from this checkout")
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
