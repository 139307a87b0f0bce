"""quadspec benchmark.

    python3 perfbench/run.py --workload {norm_sweep,edge_probe,analytic_corpus} \\
        --seed N --seconds T --trace {0,1}

Run from the root of a source tree; the package is imported from ``src/``
next to this directory and nothing else.  After set-up the workload is
repeated in passes until the next pass would end after ``--seconds``, with at
least two passes so that repetitions can be compared.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` alternates traced and untraced passes
and reports the per-layer metrics and the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 1 without a
result when the sources are missing.
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
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_PASSES = 2
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QUADSPEC_THREADS")


def import_program() -> float:
    """Import quadspec from ``ROOT/src``; returns the import time in seconds."""
    package = ROOT / "src" / "quadspec"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no quadspec sources at {package}")
    sys.path.insert(0, str(package.parent))
    start = time.perf_counter()
    import quadspec.cli  # noqa: F401  (pulls in every layer)

    elapsed = time.perf_counter() - start
    if Path(sys.modules["quadspec"].__file__).resolve().parent != package.resolve():
        raise SystemExit("perfbench: quadspec was imported from outside the source tree")
    return elapsed


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return head.stdout.strip() or None


def environment(workload) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "env": {name: os.environ.get(name) for name in ENV_VARS},
        "threads": workload.threads,
        "git_sha": git_sha(),
    }


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def measure(workload, seconds: float, tracer):
    """Passes until the next one would overrun ``seconds``; traced passes alternate when tracing."""
    from tracing import instrumented

    passes, traced = [], []
    start = time.perf_counter()
    while True:
        index = len(passes)
        if tracer is not None and index % 2 == 0:
            tracer.run = f"pass{index}"
            with instrumented(tracer):
                passes.append(workload.run_pass(index, tracer))
            traced.append(True)
        else:
            passes.append(workload.run_pass(index))
            traced.append(False)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(p.wall_s for p in passes) > seconds:
            return passes, traced


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_program()
    from stats import percentile, samples_beyond, summarize
    from tracing import EXACT_COUNTS, Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    outdir = OUT_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, outdir)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        tracer = Tracer() if args.trace else None
        passes, traced = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(workload), sort_keys=True))

    # Checks made outside any op each count as one more failed op.
    checks = list(workload.setup_problems)
    per_pass = []
    if args.trace:
        per_pass = [layer_metrics(s for s in tracer.spans if s.run == f"pass{i}")
                    for i, t in enumerate(traced) if t]
        checks += [f"count {name} differs between traced passes"
                   for name in EXACT_COUNTS if len({m[name][0] for m in per_pass}) > 1]
    problems = list(checks)
    failures = Counter()
    for p in passes:
        problems.extend(p.problems)
        failures.update(p.failures)
    attempted = sum(p.ops for p in passes) + len(checks)
    failed = sum(p.failed for p in passes) + len(checks)
    print(f"ops attempted={attempted} failed={failed} error_rate={fmt(failed / attempted)} "
          f"over {len(passes)} passes of {passes[0].ops} ops")
    for reason, count in sorted(failures.items()):
        print(f"  failed {count:4d} ops: {reason}")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")

    metrics: dict[str, dict] = {}

    def report(name, value, unit, note):
        print(f"metric {name} = {fmt(value)} {unit}  [{note}]")
        metrics[name] = {"value": float(value), "unit": unit}

    if not args.trace:
        setup = summarize(setup_times)
        report("setup_s", import_s + setup.median, "s",
               f"import {fmt(import_s)} s + median of n={setup.n} set-ups, q1 {fmt(setup.q1)} q3 {fmt(setup.q3)}")
        walls = summarize(p.wall_s for p in passes)
        report("wall_s", walls.median, "s", f"median of n={walls.n} passes, q1 {fmt(walls.q1)} q3 {fmt(walls.q3)}")
        rates = summarize(p.ops / p.wall_s for p in passes)
        report("ops_per_s", rates.median, "1/s",
               f"median of n={rates.n} passes of {passes[0].ops} ops, q1 {fmt(rates.q1)} q3 {fmt(rates.q3)}")
        report("peak_rss_mb", peak_rss_mb(), "MB", "n=1, whole process")
        latencies = [x for p in passes for x in p.op_latencies]
        extras = [("error_rate", failed / attempted, "1", f"{failed} of {attempted} ops")]
        if latencies:
            n = len(latencies)
            extras += [
                ("op_p50_s", percentile(latencies, 50), "s", f"n={n}, {samples_beyond(n, 50)} beyond"),
                ("op_p90_s", percentile(latencies, 90), "s", f"n={n}, {samples_beyond(n, 90)} beyond"),
            ]
        if passes[0].mass_err_max is not None:
            extras.append(("mass_err_max", max(p.mass_err_max for p in passes), "1",
                           f"worst |mass - 1| over n={passes[0].ops} specs, deterministic"))
        for name, value, unit, note in extras:
            print(f"metric {name} = {fmt(value)} {unit}  [{note}]")
    else:
        for name, (_, unit) in per_pass[0].items():
            values = summarize(m[name][0] for m in per_pass)
            report(name, values.median, unit, f"median of n={values.n} traced passes")
        on = summarize(p.wall_s for p, t in zip(passes, traced) if t)
        off = summarize(p.wall_s for p, t in zip(passes, traced) if not t)
        report("trace.overhead_s", on.median - off.median, "s",
               f"traced wall {fmt(on.median)} s (n={on.n}) minus untraced {fmt(off.median)} s (n={off.n})")
        OUT_ROOT.mkdir(exist_ok=True)
        spans_path = OUT_ROOT / f"spans-{args.workload}-s{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
