"""Per-layer metrics of one traced pass, from the tracer's spans and counts.

Names and units here are the `per_layer` list of BENCHMARK.json.  A metric
whose hook no longer exists in the package is None (null in the output).
A ratio whose base is zero on a workload (no calls into that layer) is 0.
"""

import collections

import tracing

MODULES = ("kernel", "channel", "capacity", "parallel", "oracle", "validate", "cli",
           "bench")
SUITES = ("commutators", "kernel-vs-oracle", "kraus", "gaussian-decomposition",
          "phase-covariance")

PER_LAYER = [
    ("kernel.kernel_matrix.self_s", "s"),
    ("kernel.kernel_matrix.calls", "count"),
    ("kernel.kernel_matrix.entries_per_s", "1/s"),
    ("kernel.kernel_entry.self_s", "s"),
    ("kernel.kernel_entry.calls", "count"),
    ("kernel.coherent_vector.self_s", "s"),
    ("kernel.coherent_vector.env_dim_max", "count"),
    ("channel.apply.self_s", "s"),
    ("channel.coherent_input_output.self_s", "s"),
    ("channel.complementary_spectrum.self_s", "s"),
    ("channel.kraus_set.self_s", "s"),
    ("channel.kraus_set.rank_sum", "count"),
    ("channel.kraus_set.rows_built", "count"),
    ("channel.kraus_set.useful_ratio", "ratio"),
    ("channel.complementary_apply.self_s", "s"),
    ("capacity.optimize_capacity.self_s", "s"),
    ("capacity.optimize_capacity.calls", "count"),
    ("capacity.ascent_steps", "count"),
    ("capacity.objective_evals", "count"),
    ("capacity.converged_frac", "ratio"),
    ("capacity.kkt_residual_max", "bits"),
    ("parallel.parallel_map.self_s", "s"),
    ("parallel.threads", "count"),
    ("oracle.kernel_oracle_table.self_s", "s"),
    ("oracle.kernel_oracle_table.pairs", "count"),
    ("oracle.dim_e_max", "count"),
    ("oracle.cells_converged_frac", "ratio"),
    ("oracle.evolve_and_trace.self_s", "s"),
    ("oracle.evolve_and_trace_system.self_s", "s"),
    ("oracle.eigensystem_misses", "count"),
    ("oracle.eigensystem_hits", "count"),
    ("oracle.vacuum_column_misses", "count"),
    ("oracle.w_bytes_computed", "bytes"),
] + [(f"validate.{name}.s", "s") for name in SUITES] + [
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
] + [(f"layer.{m}.self_s", "s") for m in MODULES] + [
    (f"layer.{m}.share", "ratio") for m in MODULES] + [
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def metrics(tracer, output_bytes):
    """Per-layer values of one traced pass (trace.overhead_* are filled by
    the parent, which also runs the untraced passes)."""
    spans = list(tracer.spans)
    self_ns = tracing.self_times(spans)
    fn_self = collections.Counter()
    fn_total = collections.Counter()
    fn_calls = collections.Counter()
    for s in spans:
        fn_self[s.name] += self_ns[s.id]
        fn_total[s.name] += s.t1 - s.t0
        fn_calls[s.name] += 1
    have = tracer.originals
    counts = tracer.counts

    def self_s(name):
        return fn_self[name] / 1e9 if name in have else None

    def calls(name):
        return fn_calls[name] if name in have else None

    def counted(name, hook):
        return counts[name] if hook in have else None

    def cache(hook, field):
        fn = have.get(hook)
        info = getattr(fn, "cache_info", None)
        return getattr(info(), field) if info is not None else None

    out = {}
    out["kernel.kernel_matrix.self_s"] = self_s("kernel.kernel_matrix")
    out["kernel.kernel_matrix.calls"] = calls("kernel.kernel_matrix")
    out["kernel.kernel_matrix.entries_per_s"] = (
        _ratio(counts["kernel.kernel_matrix.entries"], fn_total["kernel.kernel_matrix"] / 1e9)
        if "kernel.kernel_matrix" in have else None)
    out["kernel.kernel_entry.self_s"] = self_s("kernel.kernel_entry")
    out["kernel.kernel_entry.calls"] = calls("kernel.kernel_entry")
    out["kernel.coherent_vector.self_s"] = self_s("kernel.coherent_vector")
    out["kernel.coherent_vector.env_dim_max"] = (
        tracer.maxima.get("kernel.coherent_vector.env_dim_max", 0)
        if "kernel.coherent_vector" in have else None)
    for fn in ("apply", "coherent_input_output", "complementary_spectrum", "kraus_set",
               "complementary_apply"):
        out[f"channel.{fn}.self_s"] = self_s(f"channel.{fn}")
    rank = counts["channel.kraus_set.rank_sum"] if "channel.kraus_set" in have else None
    rows = counted("channel.kraus_set.rows_built", "channel._amp_table")
    out["channel.kraus_set.rank_sum"] = rank
    out["channel.kraus_set.rows_built"] = rows
    out["channel.kraus_set.useful_ratio"] = _ratio(rank, rows)

    out["capacity.optimize_capacity.self_s"] = self_s("capacity.optimize_capacity")
    n_opt = calls("capacity.optimize_capacity")
    out["capacity.optimize_capacity.calls"] = n_opt
    out["capacity.ascent_steps"] = (counts["capacity.ascent_steps"]
                                    if n_opt is not None else None)
    out["capacity.objective_evals"] = counted("capacity._objective_and_gradient",
                                              "capacity._objective_and_gradient")
    out["capacity.converged_frac"] = (_ratio(counts["capacity.converged"], n_opt)
                                      if n_opt is not None else None)
    out["capacity.kkt_residual_max"] = (tracer.maxima.get("capacity.kkt_residual_max", 0.0)
                                        if n_opt is not None else None)

    out["parallel.parallel_map.self_s"] = self_s("parallel.parallel_map")
    thread_count = have.get("parallel.thread_count")
    out["parallel.threads"] = thread_count() if thread_count is not None else None

    out["oracle.kernel_oracle_table.self_s"] = self_s("oracle.kernel_oracle_table")
    table = "oracle.kernel_oracle_table" in have
    pairs = counts["oracle.kernel_oracle_table.pairs"] if table else None
    out["oracle.kernel_oracle_table.pairs"] = pairs
    out["oracle.dim_e_max"] = tracer.maxima.get("oracle.dim_e_max", 0) if table else None
    out["oracle.cells_converged_frac"] = (_ratio(counts["oracle.cells_converged"], pairs)
                                          if table else None)
    out["oracle.evolve_and_trace.self_s"] = self_s("oracle.evolve_and_trace")
    out["oracle.evolve_and_trace_system.self_s"] = self_s("oracle.evolve_and_trace_system")
    out["oracle.eigensystem_misses"] = cache("oracle._env_eigensystem", "misses")
    out["oracle.eigensystem_hits"] = cache("oracle._env_eigensystem", "hits")
    out["oracle.vacuum_column_misses"] = cache("oracle._vacuum_column", "misses")
    out["oracle.w_bytes_computed"] = (counts["oracle.w_bytes_computed"]
                                      if out["oracle.eigensystem_misses"] is not None
                                      else None)

    for name in SUITES:
        if "validate.run_validation" not in have:
            out[f"validate.{name}.s"] = None
            continue
        out[f"validate.{name}.s"] = sum(
            s.t1 - s.t0 for s in spans
            if s.name == "validate.run_validation" and s.task == f"run_validation[{name}]"
        ) / 1e9

    out["cli.main.self_s"] = self_s("cli.main")
    out["cli.output_bytes"] = output_bytes

    module_ns = collections.Counter()
    for name, ns in fn_self.items():
        module_ns[name.split(".", 1)[0]] += ns
    total = sum(module_ns.values())
    for m in MODULES:
        present = m == "bench" or m not in tracer.missing
        out[f"layer.{m}.self_s"] = module_ns[m] / 1e9 if present else None
        out[f"layer.{m}.share"] = _ratio(module_ns[m], total) if present else None
    out["trace.spans"] = len(spans)
    out["trace.overhead_s"] = None
    out["trace.overhead_frac"] = None
    return out
