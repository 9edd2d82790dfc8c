"""Benchmark driver: repeated fresh-interpreter passes of one workload.

    python3 perfbench/run.py --workload grid-sweeps --seed 1 --seconds 44 --trace 0

Each pass is a new `python3 perfbench/bench_pass.py` process with the
checkout's src/ on PYTHONPATH, started one at a time, so the package's
lru_caches start cold as they do for a CLI user and no load thread runs
beside the library's own pool.  Passes repeat while another one fits in
--seconds.  With --trace 0 the last stdout line carries the end-to-end
metrics of the run; with --trace 1 passes alternate untraced and traced,
and it carries the per-layer metrics (medians over the traced passes) plus
the tracing overhead.  Earlier stdout lines record the environment and the
failure breakdown.  Exit status is non-zero, with no result line, when the
package cannot be found or a pass does not complete.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402

#: every run must end within this many seconds, whatever --seconds says
HARD_LIMIT_S = 170.0
#: outcomes outside the package's documented behaviour
UNEXPECTED = ("failed", "error")
END_TO_END = [
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_p50_s", "s"),
    ("task_tail_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]
TAIL_BEYOND = 10
WORKLOADS = ("grid-sweeps", "dense-channel", "certify-ladders")


def quantile(xs, q):
    """Linearly interpolated q-quantile of xs (0 <= q <= 1)."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def tail_level(n):
    """Highest percentile of an n-task pass with >= 10 tasks beyond it."""
    if n <= TAIL_BEYOND:
        return 1.0
    return (n - TAIL_BEYOND - 1) / (n - 1)


def run_pass(args, trace, deadline, spans_out=None):
    cmd = [sys.executable, os.path.join(HERE, "bench_pass.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    spawn = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    total = time.perf_counter() - spawn
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"pass exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawn
    result["total_s"] = total
    result["traced"] = bool(trace)
    return result


def task_latencies(passes, pick, field="latency_s"):
    """{task id: pick(latencies of that task over the passes)}, in task order."""
    lat = {}
    for p in passes:
        for t in p["tasks"]:
            lat.setdefault(t["id"], []).append(t[field])
    return {k: pick(v) for k, v in lat.items()}


def end_to_end(passes):
    """End-to-end metrics of the untraced passes.

    A task's latency is the mean of its latencies in the run's passes (in a
    pass, the lowest of a short task's runs).  On a shared host whose speed
    moves between a fast and a slow state every few seconds, a mean over the
    passes weighs the states as the run met them, where the lowest latency
    over a few passes reads the fast state in one run and the slow one in
    the next.  The throughput, median and tail are then taken over the
    tasks of one pass.  Set-up time and peak RSS are medians over the passes.
    """
    lat = list(task_latencies(passes, statistics.fmean).values())
    level = tail_level(len(lat))
    tail_value = quantile(lat, level)
    ok = sum(t["status"] == "ok" for p in passes for t in p["tasks"])
    attempted = sum(len(p["tasks"]) for p in passes)
    out = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "tasks_per_s": len(lat) / sum(lat),
        "task_p50_s": statistics.median(lat),
        "task_tail_s": tail_value,
        "ok_frac": ok / attempted,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return out, {"tail_percentile": 100.0 * level, "tail_samples": len(lat),
                 "tail_samples_beyond": sum(x > tail_value for x in lat)}


def breakdown(passes):
    """Failure share by cause, over every task of every pass."""
    counts = {}
    total = 0
    for p in passes:
        for t in p["tasks"]:
            total += 1
            if t["status"] != "ok":
                counts[t["status"]] = counts.get(t["status"], 0) + 1
    failed = sum(counts.values())
    causes = {}
    for t in passes[0]["tasks"]:
        if t["status"] != "ok":
            causes[t["id"]] = f"{t['status']}: {t['cause']}"
    return {
        "failed_frac": failed / total,
        "typed_refusal": counts.get("refused", 0) / total,
        "uncertified": counts.get("uncertified", 0) / total,
        "failed_check_known": counts.get("known", 0) / total,
        "failed_check": counts.get("failed", 0) / total,
        "unexpected_error": counts.get("error", 0) / total,
        "tasks_per_pass": len(passes[0]["tasks"]),
        "oracle_unverifiable_samples_per_pass": sum(t["unverifiable"]
                                                    for t in passes[0]["tasks"]),
        "failed_tasks": causes,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal task sizes (the benchmark's own tests)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "kerrdeph", "__init__.py")):
        sys.stderr.write("error: src/kerrdeph not found in the checkout\n")
        return 2
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)

    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    spans_out = os.path.join(HERE, ".work", f"spans-{args.workload}.csv.gz")
    passes = []
    try:
        while True:
            # trace runs alternate untraced and traced passes, untraced first
            trace = args.trace and len(passes) % 2 == 1
            passes.append(run_pass(args, int(trace), deadline,
                                   spans_out if trace else None))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["total_s"] for p in passes)
            need = 2 if args.trace else 1
            if len(passes) >= need and elapsed + typical > args.seconds:
                break
            if elapsed + max(p["total_s"] for p in passes) > HARD_LIMIT_S:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics_e2e, tail_info = end_to_end(plain)
    unexpected = sum(t["status"] in UNEXPECTED for p in passes for t in p["tasks"])
    attempted = sum(len(p["tasks"]) for p in passes)

    with open(os.path.join(HERE, ".work", f"last-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"args": vars(args), "passes": passes}, fh)
    print(json.dumps({"env": passes[0]["env"]}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "passes": len(passes), "traced_passes": len(traced),
                      **tail_info, "breakdown": breakdown(passes)}))
    if args.trace:
        values = {}
        for name, _ in layers.PER_LAYER:
            xs = [p["layers"][name] for p in traced]
            values[name] = None if any(x is None for x in xs) else statistics.median(xs)
        # overhead over the tasks both kinds of pass run, first runs only
        base = task_latencies(plain, statistics.fmean, "first_s")
        both = [k for k in task_latencies(traced, statistics.fmean, "first_s").items()
                if k[0] in base]
        plain_s = sum(base[k] for k, _ in both)
        values["trace.overhead_s"] = sum(v for _, v in both) - plain_s
        values["trace.overhead_frac"] = values["trace.overhead_s"] / plain_s
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
    else:
        metrics = {name: {"value": metrics_e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": unexpected, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
