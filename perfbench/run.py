"""Benchmark driver for equisub.

    python3 perfbench/run.py --workload match-tu --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root.  The library is imported from ``src/`` next
to this directory; nothing is installed.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads: OpenBLAS would otherwise
# thread the least-squares solves in MPEC and the timings would depend on
# what else the machine runs.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_SAMPLES = 3   # set-ups per run: this process plus two child processes
REF_ITERATIONS = 100
REF_NOMINAL_S = 0.015  # reference_loop() time on the 2-CPU x86 VM the bounds were set on
E2E_UNITS = {"throughput": "1/s", "latency_s.p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _import_library():
    if not (SRC / "equisub" / "__init__.py").is_file():
        sys.exit(f"perfbench: no equisub sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))


def set_up(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Import equisub, generate the instance list and write the CLI configs."""
    t0 = time.perf_counter()
    _import_library()
    import workloads

    if workload_name not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {workload_name!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)} or all")
    w = workloads.WORKLOADS[workload_name]
    cycles = w.trace_cycles if trace else w.list_cycles(seconds)
    instances = workloads.generate(w, seed, workdir, cycles)
    return instances, time.perf_counter() - t0


def reference_loop() -> float:
    """Seconds for a fixed loop of small numpy/scipy operations.

    It does not call equisub, so no change to the library moves it; its time
    tracks only the speed the machine gives this process at the moment.
    """
    import numpy as np
    from scipy.special import logsumexp

    x = np.linspace(-1.0, 1.0, 6)
    t0 = time.perf_counter()
    for _ in range(REF_ITERATIONS):
        logsumexp(x)
        np.exp(x).sum()
        x.copy()
    return time.perf_counter() - t0


def run_pass(instances, tracer=None):
    """Run instances in order; return (seconds, status, detail, speed) each.

    A reference loop runs before the first instance and after each one;
    ``speed`` is REF_NOMINAL_S over the mean of the two reference times
    around the instance.  Checks run outside the timed region, with tracing
    paused.
    """
    refs = [reference_loop()]
    results = []
    for inst in instances:
        t0 = time.perf_counter()
        try:
            out = inst.run()
            status = None
        except Exception as exc:  # every library exception counts as a failed instance
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if status is None:
            if tracer is not None:
                tracer.paused = True
            try:
                status, detail = inst.check(out)
            finally:
                if tracer is not None:
                    tracer.paused = False
        refs.append(reference_loop())
        speed = 2.0 * REF_NOMINAL_S / (refs[-2] + refs[-1])
        results.append((elapsed, status, detail, speed))
    return results


def percentile(values, q):
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def summarize(kinds, results):
    """Per-kind outcome counts and the failure messages, for the log."""
    by_kind = {}
    for kind, (_, status, detail, _) in zip(kinds, results):
        entry = by_kind.setdefault(kind, {"pass": 0, "fail": 0, "wrong": 0, "errors": {}})
        entry[status] += 1
        if status != "pass":
            key = detail.split(":")[0] if status == "fail" else "wrong: " + detail
            entry["errors"][key] = entry["errors"].get(key, 0) + 1
    return by_kind


def setup_sample_in_child(args, workdir: Path) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def measure(args, workdir: Path):
    instances, first_setup = set_up(args.workload, args.seed, args.seconds, args.trace, workdir / "setup0")
    setups = [first_setup] + [
        setup_sample_in_child(args, workdir / f"setup{k}") for k in range(1, SETUP_SAMPLES)
    ]
    print("env " + json.dumps(environment()), flush=True)
    if args.trace:
        return traced(args, instances)

    # Closed loop, one caller, whole passes over the fixed list.  The first
    # pass sets how many passes fill the run; every pass measures the same
    # instances, so a slow moment on the machine changes the times but not
    # which instances are measured.
    kinds = [inst.kind for inst in instances]
    t0 = time.perf_counter()
    results = run_pass(instances)
    passes = max(1, int(args.seconds / (time.perf_counter() - t0)))
    for _ in range(passes - 1):
        results += run_pass(instances)
    wall = time.perf_counter() - t0
    kinds *= passes

    # Times at the reference speed: each instance's wall time times the speed
    # factor measured around it.  On a shared VM the speed of the host
    # drifts by tens of percent within a minute; the factor removes that
    # drift, and the raw wall-time figures are printed next to the scaled ones.
    scaled = [t * speed for t, _, _, speed in results]
    passed = [c for c, (_, status, _, _) in zip(scaled, results) if status == "pass"]
    passed_raw = [t for t, status, _, _ in results if status == "pass"]
    wrong = sum(r[1] == "wrong" for r in results)
    failed = len(results) - len(passed)
    n = len(passed)
    metrics = {
        "throughput": n / sum(scaled),
        "latency_s.p50": statistics.median(passed) if passed else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    w = args.workload
    for name, value in metrics.items():
        print(f"{w}  {name} = {value:.6g} {E2E_UNITS[name]}", flush=True)
    if passed:
        # the highest percentile with at least ten samples beyond it
        q = max(50, int(100 * (1 - 10 / n)) // 5 * 5) if n >= 20 else 50
        print(f"{w}  latency_s.p{q} = {percentile(passed, q / 100):.6g} s  (n = {n} passed instances)", flush=True)
        print(f"{w}  raw wall time: throughput = {n / sum(t for t, *_ in results):.6g} 1/s, "
              f"latency_s.p50 = {statistics.median(passed_raw):.6g} s, "
              f"mean speed factor {statistics.mean(r[3] for r in results):.3f}", flush=True)
    print(f"{w}  fail_rate = {failed / len(results):.4f} ratio  ({failed} of {len(results)}"
          f" instances failed; {wrong} returned a wrong answer)", flush=True)
    print(f"{w}  setup samples {[round(s, 4) for s in setups]} s; {passes} passes over "
          f"{len(instances)} instances in {wall:.2f} s", flush=True)
    print("outcomes " + json.dumps(summarize(kinds, results)), flush=True)
    # A wrong answer is a failed instance, as fail_rate counts it; it is
    # itemized in the log.  `correct` says whether the run could check its
    # outputs against the planted truth and at least one instance passed.
    return {
        "correct": n > 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
    }


def traced(args, instances):
    """A traced pass, an untraced pass and a second traced pass.

    All three run the same fixed instances, not a time budget, so the
    counts of the two traced passes must repeat exactly.  The untraced pass
    sits between them so that warm-up does not bias the overhead estimate.
    """
    from tracing import PER_LAYER, Tracer

    def traced_pass():
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            results = run_pass(instances, tracer)
            return tracer, results, time.perf_counter() - t0
        finally:
            tracer.uninstall()

    first = traced_pass()
    t0 = time.perf_counter()
    plain = run_pass(instances)
    plain_wall = time.perf_counter() - t0
    second = traced_pass()
    tracers, outcomes, walls = zip(first, second)

    problems = tracers[0].self_check() + tracers[1].self_check()
    counts = [t.counts() for t in tracers]
    if counts[0] != counts[1]:
        diff = sorted(k for k in set(counts[0]) | set(counts[1]) if counts[0].get(k) != counts[1].get(k))
        problems.append(f"counts differ between the two traced passes: {diff[:10]}")
    statuses = [[r[1] for r in res] for res in (plain, *outcomes)]
    if not (statuses[0] == statuses[1] == statuses[2]):
        problems.append("instance outcomes differ between passes")

    n_plain = sum(s == "pass" for s in statuses[0])
    n_traced = sum(s == "pass" for s in statuses[1])
    ratio = (n_traced * 2 / sum(walls)) / (n_plain / plain_wall) if n_plain and n_traced else 0.0
    values = tracers[0].per_layer(ratio)

    out_dir = Path(".perfbench_out")
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"trace-{args.workload}-s{args.seed}"
    tracers[0].save(stem.with_suffix(".npz"))
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump({"per_layer": values, "spans": tracers[0].summary(), "problems": problems}, fh, indent=1)

    for name, unit in PER_LAYER:
        print(f"{args.workload}  {name} = {values[name]:.6g} {unit}", flush=True)
    print(f"{args.workload}  tracing overhead: traced/untraced throughput = {ratio:.3f} "
          f"({n_traced} passed per traced pass in {walls[0]:.2f} s and {walls[1]:.2f} s, "
          f"{n_plain} untraced in {plain_wall:.2f} s)",
          flush=True)
    print("outcomes " + json.dumps(summarize([i.kind for i in instances], outcomes[0])), flush=True)
    for p in problems:
        print(f"trace self-check failed: {p}", file=sys.stderr, flush=True)
    return {
        "correct": not problems and n_traced > 0,
        "attempted": len(instances),
        "failed": len(instances) - n_traced,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_only:
        # one set-up sample, measured in a fresh interpreter
        workdir = Path(args.workdir)
        try:
            _, elapsed = set_up(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(repr(elapsed))
        return 0

    if args.workload == "all":
        # each workload in its own process, so set-up and peak RSS stay per workload
        _import_library()
        import workloads

        code = 0
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd).returncode)
        return code

    workdir = Path(".perfbench_work") / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        result = measure(args, workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
