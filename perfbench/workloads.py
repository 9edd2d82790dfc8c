"""The three workloads, as ordered task lists built from a seed.

One task is one CLI invocation (`kerrdeph.cli.main(argv)` in-process,
writing into a work directory) or one library call.  The seed draws the
Ginibre input states, the probability vectors and a jitter of a few percent
on the lam >= 0 gamma grids of grid-sweeps; lambda values, dimensions and
the oracle grid are fixed, so the work in a pass does not depend on it.

A builder takes (seed, smoke, traced, workdir): smoke shrinks every size
for the benchmark's own tests, and traced appends the tasks that only the
per-layer metrics need.

Functions are looked up on the package at call time (`kd.apply`, not a
name bound at import), so the tracer's wrappers are reached in traced runs.
"""

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

import kerrdeph as kd
import kerrdeph.cli

import checks
from layers import SUITES


class Refusal(Exception):
    """A CLI invocation exited with a typed-error code."""


class Task:
    """run() produces the output; check(output, rng) returns checks.Findings."""

    def __init__(self, task_id, run, check):
        self.id = task_id
        self.run = run
        self.check = check


def typed_error(exc):
    """True for the package's own typed refusals (kerrdeph.errors)."""
    return isinstance(exc, Refusal) or type(exc).__module__ == "kerrdeph.errors"


def ginibre(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def jitter(rng, gammas):
    return [float(g * (1.0 + rng.uniform(-0.03, 0.03))) for g in gammas]


class Cli:
    """Runs cli.main in-process; outputs land in workdir, stdout is captured."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.output_bytes = 0

    def path(self, name):
        return os.path.join(self.workdir, name)

    def __call__(self, argv, outfile, refusals=True):
        buf_out, buf_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
            code = kd.cli.main(argv)
        self.output_bytes += len(buf_out.getvalue().encode())
        if outfile and os.path.exists(outfile):
            self.output_bytes += os.path.getsize(outfile)
        if code != 0 and refusals:
            raise Refusal(f"exit {code}: {buf_err.getvalue().strip()}")
        return code


# ---------------------------------------------------------------------------
# grid-sweeps
# ---------------------------------------------------------------------------

def _check_capacity_csv(path, N, energy=None):
    def check(_, rng):
        f = checks.Findings()
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        f.require(len(rows) > 0, "empty capacity CSV")
        for r in rows:
            if r["Q"] == "nan":
                continue
            p = kd.ChannelParams(gamma=float(r["gamma"]), lam=float(r["lambda"]))
            pvec = [float(r[f"p{i}"]) for i in range(N + 1)]
            sub = checks.check_capacity(float(r["Q"]), pvec, r["converged"] == "1",
                                        p, N, rng, energy=energy)
            f.extend(sub)
        return f
    return check


def _capacity_task(task_id, p, N, starts=None):
    def run():
        if starts is None:
            return kd.optimize_capacity(p, N)
        return kd.optimize_capacity(p, N, starts=starts)

    def check(res, rng):
        return checks.check_capacity(res.Q, res.pvec, res.converged, p, N, rng,
                                     kkt=res.kkt_residual)
    return Task(task_id, run, check)


def _kernel_matrix_task(task_id, p, dim):
    return Task(task_id, lambda: kd.kernel_matrix(p, dim),
                lambda out, rng: checks.check_kernel_matrix(out, p, rng))


def _check_kernel_map_csv(path, focus=()):
    """Rows complete and in range; focus-lambda rows plus random rows vs oracle."""
    def check(_, rng):
        f = checks.Findings()
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        valid = [r for r in rows if r["valid"] == "1"]
        for r in rows:
            p = kd.ChannelParams(gamma=float(r["gamma"]), lam=float(r["lambda"]))
            bound = kd.max_dimension(p)
            fits = bound is None or max(int(r["n"]), int(r["m"])) < bound
            f.require(fits == (r["valid"] == "1"), "valid flag disagrees with the bound")
        f.require(all(abs(float(r["K"])) <= 1.0 for r in valid), "|K| > 1 in map")
        picks = [r for r in valid if any(abs(float(r["lambda"]) - lam) < 1e-9
                                         for lam in focus)]
        picks = picks[::max(1, len(picks) // 6)]
        picks += [valid[i] for i in rng.choice(len(valid), size=min(6, len(valid)),
                                               replace=False)]
        for r in picks:
            p = kd.ChannelParams(gamma=float(r["gamma"]), lam=float(r["lambda"]))
            n, m = int(r["n"]), int(r["m"])
            value = float(r["K"])
            checks.compare_kernel(f, lambda a, b: value, [(n, m)], p, "kernel-map")
        return f
    return check


def grid_sweeps(seed, smoke, traced, workdir):
    rng = np.random.default_rng(seed)
    run_cli = Cli(workdir)
    tasks = []

    # README capacity examples
    out1 = run_cli.path("q.csv")
    g1 = jitter(rng, np.linspace(0.0, 2.0, 3 if smoke else 9))
    argv1 = ["capacity", "--N", "2", "--lambda", "0.0", "0.5",
             "--gamma-grid", ",".join(repr(g) for g in g1), "--out", out1]
    tasks.append(Task("cli.capacity.readme", lambda: run_cli(argv1, out1),
                      _check_capacity_csv(out1, 2)))
    out2 = run_cli.path("q_capped.csv")
    argv2 = ["capacity", "--N", "3", "--lambda", "-0.4", "--gamma-grid",
             "0.5" if smoke else "0.5,1.0,2.0", "--energy", "1.2", "--out", out2]
    tasks.append(Task("cli.capacity.energy", lambda: run_cli(argv2, out2),
                      _check_capacity_csv(out2, 3, energy=1.2)))

    # revival_sweep block: lam=-1, N=2, 17 points in sqrt(gamma |y|)
    for s_pi in np.linspace(0.0, 4.0, 3 if smoke else 17):
        p = kd.ChannelParams(gamma=float((s_pi * np.pi) ** 2 / 0.5), lam=-1.0)
        tasks.append(_capacity_task(f"revival.capacity[{s_pi:.2f}]", p, 2, starts=4))
        tasks.append(_kernel_matrix_task(f"revival.kernel[{s_pi:.2f}]", p, 3))

    # capacity_vs_dephasing rows at lam=0.2, plus the gamma=0 anchors
    gammas = jitter(rng, [0.5] if smoke else [0.25, 0.5, 1.0, 2.0])
    for g in gammas:
        for N in ((1, 2) if smoke else (1, 2, 3, 4)):
            p = kd.ChannelParams(gamma=g, lam=0.2)
            tasks.append(_capacity_task(f"dephasing.capacity[g={g:.3f},N={N}]",
                                        p, N, starts=4))
    for N in ((1,) if smoke else (1, 2, 3, 4)):
        p = kd.ChannelParams(gamma=0.0, lam=0.2)
        tasks.append(_capacity_task(f"dephasing.anchor[N={N}]", p, N))
    # strong dephasing at a fixed gamma: the demo footnote's KKT-floor regime
    if not smoke:
        p = kd.ChannelParams(gamma=4.0, lam=0.2)
        tasks.append(_capacity_task("dephasing.strong[g=4.0,N=3]", p, 3, starts=4))

    # kernel_phase_map grid for (0, 2), and a finer map over small negative lam
    out3 = run_cli.path("kernel_map.csv")
    argv3 = ["kernel-map", "--lambda-min", "-1", "--lambda-max", "1",
             "--lambda-steps", "5" if smoke else "21", "--gamma-min", "0",
             "--gamma-max", "12", "--gamma-steps", "5" if smoke else "25",
             "--n", "0", "--m", "2", "--out", out3]
    tasks.append(Task("cli.kernel-map.demo", lambda: run_cli(argv3, out3),
                      _check_kernel_map_csv(out3, focus=(-0.3, -0.7))))
    out4 = run_cli.path("kernel_map_fine.csv")
    argv4 = ["kernel-map", "--lambda-min", "-0.1", "--lambda-max", "-0.01",
             "--lambda-steps", "4" if smoke else "19", "--gamma-min", "0",
             "--gamma-max", "4", "--gamma-steps", "4" if smoke else "21",
             "--n", "1", "--m", "5", "--out", out4]
    tasks.append(Task("cli.kernel-map.fine", lambda: run_cli(argv4, out4),
                      _check_kernel_map_csv(out4)))
    return tasks, run_cli


# ---------------------------------------------------------------------------
# dense-channel
# ---------------------------------------------------------------------------

def _apply_task(task_id, p, rho, outputs):
    def run():
        out = kd.apply(rho, p)
        outputs[task_id] = (rho, out)
        return out
    return Task(task_id, run,
                lambda out, rng: checks.check_channel_output(out, rho, p, rng))


def _spectrum_task(task_id, p, source, outputs):
    """complementary_spectrum of the diagonal of an earlier apply output."""
    seen = {}

    def run():
        rho, out = outputs[source]
        diag = np.clip(np.real(np.diag(out.entries)), 0.0, None)
        seen["p"] = diag / diag.sum()
        seen["K"] = np.real(out.entries / rho)
        return kd.complementary_spectrum(seen["p"], p)
    return Task(task_id, run,
                lambda out, rng: checks.check_spectrum(out, seen["p"], seen["K"]))


def _check_cli_apply(path, alpha, p):
    """Output state: valid, coherent-state diagonal, sampled coherences vs
    the oracle, and the reported entropies recomputed here."""
    def check(_, rng):
        f = checks.Findings()
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        d = payload["output"]["dim"]
        M = np.array([complex(a, b) for a, b in payload["output"]["entries"]]).reshape(d, d)
        spectrum = checks.state_structure(f, M, "apply --state coherent output")
        k = np.arange(d)
        logw = k * math.log(abs(alpha) ** 2) - np.array([math.lgamma(x + 1) for x in k])
        w = np.exp(logw - logw.max())
        w /= w.sum()
        f.require(np.abs(np.real(np.diag(M)) - w).max() <= 1e-12,
                  "output diagonal is not the coherent-state distribution")
        c = np.sqrt(w)

        def ratio(n, m):
            return (M[n, m] / (c[n] * c[m])).real if c[n] * c[m] > 1e-150 else 0.0

        pairs = [q for q in checks.sample_pairs(d, p, rng) if c[q[0]] * c[q[1]] > 1e-150]
        checks.compare_kernel(f, ratio, pairs, p, "apply --state coherent")
        f.require(abs(checks.bits(spectrum) - payload["entropy_bits"]) <= 1e-8,
                  "entropy_bits mismatch")
        ce = payload["complementary_entropy_bits"]
        f.require(0.0 <= ce <= math.log2(d) + 1e-9, "complementary entropy out of range")
        return f
    return check


def dense_channel(seed, smoke, traced, workdir):
    rng = np.random.default_rng(seed)
    run_cli = Cli(workdir)
    outputs = {}
    tasks = []
    branches = [(0.0, (100, 150, 200, 250, 300)), (0.5, (100, 150, 200, 250, 300)),
                (-0.02, (101,)), (-0.01, (100,))]
    if smoke:
        branches = [(0.0, (20,)), (0.5, (20,)), (-0.2, (11,))]
    for lam, dims in branches:
        p = kd.ChannelParams(gamma=1.0, lam=lam)
        for dim in dims:
            tasks.append(_kernel_matrix_task(f"kernel_matrix[lam={lam},dim={dim}]", p, dim))

    states = [(0.0, (100, 150, 200, 300, 400)), (0.5, (100, 150, 200, 300, 400)),
              (-0.02, (101,))]
    if smoke:
        states = [(0.0, (20,)), (0.5, (20,)), (-0.2, (11,))]
    for lam, dims in states:
        p = kd.ChannelParams(gamma=1.0, lam=lam)
        for dim in dims:
            tid = f"apply[lam={lam},dim={dim}]"
            tasks.append(_apply_task(tid, p, ginibre(rng, dim), outputs))
            tasks.append(_spectrum_task(f"complementary_spectrum[lam={lam},dim={dim}]",
                                        p, tid, outputs))

    # coherent inputs; on the d=201 space the input is truncated to 100 levels
    coherent = [(-0.02, 3.0, None), (-0.01, 2.0, 100), (0.5, 3.0, None), (0.0, 3.0, None)]
    if smoke:
        coherent = [(-0.2, 1.0, None), (0.5, 1.0, None)]
    for lam, alpha, dim in coherent:
        p = kd.ChannelParams(gamma=0.2, lam=lam)
        out = run_cli.path(f"apply_{lam}.json")
        argv = ["apply", "--state", f"coherent:{alpha}", "--gamma", "0.2",
                "--lambda", str(lam), "--out", out]
        if dim is not None:
            argv += ["--dim", str(dim)]
        tasks.append(Task(f"cli.apply[coherent:{alpha},lam={lam}]",
                          lambda argv=argv, out=out: run_cli(argv, out),
                          _check_cli_apply(out, alpha, p)))
    return tasks, run_cli


# ---------------------------------------------------------------------------
# certify-ladders
# ---------------------------------------------------------------------------

def _check_validate_json(path):
    def check(code, rng):
        f = checks.Findings()
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        f.require(code == 0 and report["passed"], "validate report failed")
        return f
    return check


def _suite_task(name, max_dim):
    def check(report, rng):
        f = checks.Findings()
        f.require(report.passed, f"suite {name} failed")
        return f
    return Task(f"run_validation[{name}]",
                lambda: kd.run_validation(max_dim=max_dim, suites=[name]), check)


def _oracle_table_task(lam, gamma, nmax):
    p = kd.ChannelParams(gamma=gamma, lam=lam)
    bound = kd.max_dimension(p)
    pairs = [(n, m) for n in range(nmax) for m in range(n + 1, nmax)
             if bound is None or m < bound]
    return Task(f"kernel_oracle_table[lam={lam},gamma={gamma}]",
                lambda: kd.kernel_oracle_table(pairs, p),
                lambda cells, rng: checks.check_oracle_table(cells, pairs, p))


def _diag_state(pvec):
    return kd.DensityMatrix(np.diag(pvec).astype(complex))


def certify_ladders(seed, smoke, traced, workdir):
    rng = np.random.default_rng(seed)
    run_cli = Cli(workdir)
    tasks = []
    max_dim = 3 if smoke else 6

    out = run_cli.path("report.json")
    argv = ["validate", "--max-dim", str(max_dim), "--out", out]
    tasks.append(Task("cli.validate", lambda: run_cli(argv, out, refusals=False),
                      _check_validate_json(out)))

    # acceptance grid of the kernel-vs-oracle gate
    for lam in (-0.5, -0.1, 0.1, 0.5):
        for gamma in ((1.0,) if smoke else (0.1, 1.0, 4.0)):
            tasks.append(_oracle_table_task(lam, gamma, 3 if smoke else 8))

    # single-pair oracle values, the oracle_spot_checks demo's certified cases
    spots = [(0, 1, 0.5, 0.0), (1, 3, 1.0, 0.5), (2, 4, 0.7, -0.1), (0, 4, 1.5, 0.3)]
    for n, m, gamma, lam in spots[:1] if smoke else spots:
        p = kd.ChannelParams(gamma=gamma, lam=lam)
        tasks.append(Task(f"kernel_oracle[{n},{m},lam={lam},gamma={gamma}]",
                          lambda n=n, m=m, p=p: kd.kernel_oracle(n, m, p),
                          lambda v, r, n=n, m=m, p=p: checks.check_oracle_value(v, n, m, p)))

    # dilation evolutions on seeded dim-6 states; (0.5, 1) climbs to 4096
    evolutions = [(0.5, 1.0), (0.3, 0.3), (0.1, 0.5), (0.1, 0.1)]
    for lam, gamma in evolutions[-1:] if smoke else evolutions:
        p = kd.ChannelParams(gamma=gamma, lam=lam)
        rho = ginibre(rng, 6)
        tasks.append(Task(f"evolve_and_trace[lam={lam},gamma={gamma}]",
                          lambda p=p, rho=rho: kd.evolve_and_trace(rho, p),
                          lambda out, r, p=p, rho=rho: checks.check_evolution(out, rho, p)))
        tasks.append(Task(f"evolve_and_trace_system[lam={lam},gamma={gamma}]",
                          lambda p=p, rho=rho: kd.evolve_and_trace_system(rho, p),
                          lambda out, r, p=p, rho=rho: checks.check_env_evolution(out, rho, p)))

    # Kraus families across the branches; (1, 0.4, 8) is refused today
    kraus = [(-0.5, 2.0, 5), (0.0, 2.0, 8), (0.2, 1.0, 6), (0.4, 0.5, 6), (0.4, 0.5, 8),
             (0.4, 1.0, 8)]
    if smoke:
        kraus = [(-0.5, 2.0, 3), (0.4, 0.5, 3)]
    for lam, gamma, dim in kraus:
        p = kd.ChannelParams(gamma=gamma, lam=lam)
        tasks.append(Task(f"kraus_set[lam={lam},gamma={gamma},dim={dim}]",
                          lambda p=p, dim=dim: kd.kraus_set(p, dim),
                          lambda out, r, p=p: checks.check_kraus(out, p, r)))

    # complementary outputs of seeded diagonal inputs; (0.3, 0.5, 10) is refused
    comp = [(-0.5, 1.0, 5), (0.0, 1.0, 8), (0.0, 4.0, 8), (0.2, 0.5, 6), (0.3, 0.3, 6),
            (0.3, 0.5, 5), (0.3, 0.5, 10)]
    if smoke:
        comp = [(-0.5, 1.0, 3), (0.3, 0.5, 3)]
    for lam, gamma, dim in comp:
        p = kd.ChannelParams(gamma=gamma, lam=lam)
        pvec = rng.dirichlet(np.ones(dim))
        tasks.append(Task(f"complementary_apply[lam={lam},gamma={gamma},dim={dim}]",
                          lambda p=p, pvec=pvec: kd.complementary_apply(_diag_state(pvec), p),
                          lambda out, r, p=p, pvec=pvec: checks.check_complementary(out, pvec, p)))

    # coherent vectors across the branches
    vecs = [(-0.5, 1.0, 4), (0.0, 1.0, 3), (0.0, 2.0, 10), (0.0, 4.0, 6), (0.3, 0.5, 3),
            (0.3, 2.0, 2)]
    if smoke:
        vecs = vecs[:2]
    for lam, gamma, n in vecs:
        p = kd.ChannelParams(gamma=gamma, lam=lam)
        tasks.append(Task(f"coherent_vector[lam={lam},gamma={gamma},n={n}]",
                          lambda p=p, n=n: kd.coherent_vector(n, p),
                          lambda out, r, p=p, n=n: checks.check_coherent_vector(out, n, p)))

    # per-suite validation times for the traced run only; last, so that the
    # tasks both kinds of pass share run on the same cache state
    if traced:
        for name in SUITES:
            tasks.append(_suite_task(name, max_dim))
    return tasks, run_cli


BUILDERS = {
    "grid-sweeps": grid_sweeps,
    "dense-channel": dense_channel,
    "certify-ladders": certify_ladders,
}
