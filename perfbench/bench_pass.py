"""One pass of one workload, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  The
first statements import kerrdeph and take the clock, so the parent can time
set-up from process start.  The pass then runs every task in order (the
timed region), reads its own peak RSS, runs the output checks, and prints
one JSON object on its last stdout line.

In an untraced pass a short task is run again, right after its first run,
until it has taken REPEAT_S in all or run MAX_RUNS times, and its latency in
the pass is the lowest of its runs: a task of a few milliseconds is
otherwise decided by whether the host happened to preempt it.  Only a task
whose first run made no call into a functools cache of the package is run
again, so that no repeat finds a cache its first run did not.
"""

import time

import kerrdeph

READY = time.perf_counter()

# everything else is imported after the set-up clock
import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile

import numpy as np
import scipy

import layers
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: a short task runs again until its runs in the pass take this long ...
REPEAT_S = 0.05
#: ... or it has run this many times
MAX_RUNS = 8


def cache_calls():
    """Hits plus misses of every functools cache on a kerrdeph module."""
    total = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "kerrdeph" or name.startswith("kerrdeph.")):
            continue
        for value in list(vars(module).values()):
            info = getattr(value, "cache_info", None)
            if callable(info):
                stats = info()
                total += stats.hits + stats.misses
    return total


def run_task(task, tracer):
    """(output, exception, latencies of its runs) of one task."""
    calls = cache_calls()
    t0 = time.perf_counter()
    output, exc = None, None
    try:
        if tracer is not None:
            output = tracer.task_span(task.id, task.run)
        else:
            output = task.run()
    except Exception as err:  # classified later, outside the timed region
        exc = err
    runs = [time.perf_counter() - t0]
    if tracer is not None or cache_calls() != calls:
        return output, exc, runs
    while len(runs) < MAX_RUNS and sum(runs) + min(runs) <= REPEAT_S:
        t0 = time.perf_counter()
        try:
            task.run()
        except Exception:  # the first run's outcome is the one checked
            pass
        runs.append(time.perf_counter() - t0)
    return output, exc, runs


def environment():
    """Versions, BLAS, CPU and the library's own thread setting."""
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):
        blas = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from kerrdeph import _parallel
        threads = _parallel.thread_count()
    except (ImportError, AttributeError):
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "parallel_thread_count": threads,
        "DDC_THREADS_set": "DDC_THREADS" in os.environ,
    }


def outcome(task, rng, output, exc):
    """(status, cause, unverifiable oracle samples) of one task.

    status is ok, refused, uncertified, known, failed or error.
    """
    if exc is not None:
        status = "refused" if workloads.typed_error(exc) else "error"
        return status, f"{type(exc).__name__}: {str(exc)[:160]}", 0
    try:
        findings = task.check(output, rng)
    except Exception as err:  # a check that cannot run is a failed check
        return "failed", f"check raised {type(err).__name__}: {str(err)[:160]}", 0
    return (*findings.verdict(), findings.unverifiable)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=tuple(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(kerrdeph.__file__).startswith(src + os.sep):
        raise SystemExit(f"kerrdeph imported from {kerrdeph.__file__}, not {src}")

    workdir = tempfile.mkdtemp(prefix="pass-", dir=os.path.join(HERE, ".work"))
    try:
        tasks, run_cli = workloads.BUILDERS[args.workload](
            args.seed, args.smoke, bool(args.trace), workdir)
        tracer = tracing.install(tracing.Tracer()) if args.trace else None

        results = []
        t_start = time.perf_counter()
        for task in tasks:
            results.append((task, *run_task(task, tracer)))
        wall = time.perf_counter() - t_start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        layer_metrics = None
        if tracer is not None:
            layer_metrics = layers.metrics(tracer, run_cli.output_bytes)
            if args.spans_out:
                tracer.write(args.spans_out)

        t_check = time.perf_counter()
        check_rng = np.random.default_rng(args.seed + 1_000_003)
        rows = []
        for task, output, exc, runs in results:
            status, cause, unverifiable = outcome(task, check_rng, output, exc)
            rows.append({"id": task.id, "latency_s": min(runs), "first_s": runs[0],
                         "runs": len(runs), "status": status, "cause": cause,
                         "unverifiable": unverifiable})
        check_s = time.perf_counter() - t_check
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "ready": READY,
        "wall_s": wall,
        "rss_mb": rss_mb,
        "check_s": check_s,
        "tasks": rows,
        "layers": layer_metrics,
        "env": environment(),
    }))


if __name__ == "__main__":
    sys.exit(main())
