"""Span tracing of kerrdeph from outside the package.

`install` replaces each public function of the layer modules (and a few
private hooks that only count) at every module attribute through which
callers look it up, so `channel.kernel_matrix`, `validate.kernel_matrix`
and `kerrdeph.kernel_matrix` all reach the same wrapper and nested calls
get parent spans without any edit to `src/`.

A span is the tuple (id, parent, name, task, thread, t0_ns, t1_ns).  On a
pool thread the parent is the `parallel_map` span that launched the work.
Spans stay in memory until the pass ends.  A hook or module that no longer
exists is recorded as missing; the metrics that depend on it report null.
"""

import collections
import functools
import gzip
import importlib
import inspect
import itertools
import sys
import threading
import time

#: modules that make up the layers, as (metric prefix, import name)
LAYERS = (
    ("kernel", "kerrdeph.kernel"),
    ("channel", "kerrdeph.channel"),
    ("capacity", "kerrdeph.capacity"),
    ("parallel", "kerrdeph._parallel"),
    ("oracle", "kerrdeph.oracle"),
    ("validate", "kerrdeph.validate"),
    ("cli", "kerrdeph.cli"),
)

#: private hooks that are counted, not timed, as (module, attribute)
COUNTED = (
    ("kerrdeph.capacity", "_objective_and_gradient"),
    ("kerrdeph.channel", "_amp_table"),
    ("kerrdeph.oracle", "_env_eigensystem"),
    ("kerrdeph.oracle", "_vacuum_column"),
)

Span = collections.namedtuple("Span", "id parent name task thread t0 t1")


def union_length(intervals, lo, hi):
    """Length of the union of [a, b) intervals clipped to [lo, hi)."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the union its children cover.

    Children on two pool threads overlap in time, so their intervals are
    merged rather than summed.  Returns {span id: self time}.
    """
    children = collections.defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    return {s.id: (s.t1 - s.t0) - union_length(children.get(s.id, ()), s.t0, s.t1)
            for s in spans}


class Tracer:
    """Collects spans, call counts and observed result fields for one pass."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.maxima = {}
        self.missing = set()
        self.originals = {}
        self.bindings = []
        self.task = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._launchers = []
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    def peak(self, key, value):
        with self._lock:
            if value > self.maxima.get(key, float("-inf")):
                self.maxima[key] = value

    def timed(self, name, fn, observe=None, launcher=False):
        """Wrap fn so each call records a span named name."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            if stack:
                parent = stack[-1]
            else:
                parent = self._launchers[-1] if self._launchers else None
            stack.append(sid)
            if launcher:
                self._launchers.append(sid)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                if launcher:
                    self._launchers.remove(sid)
                self.spans.append(Span(sid, parent, name, self.task,
                                       threading.get_ident(), t0, t1))
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        return wrapper

    def counted(self, name, fn, observe=None):
        """Wrap fn so each call adds one to counts[name], without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.add(name)
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        return wrapper

    def task_span(self, task_id, fn):
        """Run one benchmark task under a root span named bench.task."""
        self.task = task_id
        try:
            return self.timed("bench.task", fn)()
        finally:
            self.task = None

    def write(self, path):
        """Write the spans as gzipped CSV (a dense pass makes ~10^6 of them)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,name,task,thread,t0_ns,t1_ns\n")
            for s in self.spans:
                fh.write(f"{s.id},{'' if s.parent is None else s.parent},{s.name},"
                         f"{s.task},{s.thread},{s.t0},{s.t1}\n")


# ---------------------------------------------------------------------------
# observers: fields read off arguments and results, tolerant of reshaping
# ---------------------------------------------------------------------------

def _obs_kernel_matrix(tr, args, kwargs, out):
    dim = getattr(out, "dim", None)
    if dim is not None:
        tr.add("kernel.kernel_matrix.entries", dim * dim)


def _obs_coherent_vector(tr, args, kwargs, out):
    env_dim = getattr(out, "env_dim", None)
    if env_dim is not None:
        tr.peak("kernel.coherent_vector.env_dim_max", env_dim)


def _obs_kraus_set(tr, args, kwargs, out):
    tr.add("channel.kraus_set.rank_sum", len(out))


def _obs_amp_table(tr, args, kwargs, out):
    rows = getattr(out, "shape", (0,))[0]
    tr.add("channel.kraus_set.rows_built", rows)


def _obs_optimize(tr, args, kwargs, out):
    tr.add("capacity.ascent_steps", len(getattr(out, "J_trace", ())))
    tr.add("capacity.converged", int(bool(getattr(out, "converged", False))))
    kkt = getattr(out, "kkt_residual", None)
    if kkt is not None and kkt == kkt:
        tr.peak("capacity.kkt_residual_max", float(kkt))


def _obs_oracle_table(tr, args, kwargs, out):
    cells = list(out)
    tr.add("oracle.kernel_oracle_table.pairs", len(cells))
    tr.add("oracle.cells_converged", sum(bool(getattr(c, "converged", False))
                                         for c in cells))
    for c in cells:
        tr.peak("oracle.dim_e_max", getattr(c, "dim_e", 0))


def _obs_evolve(tr, args, kwargs, out):
    tr.peak("oracle.dim_e_max", getattr(out, "dim_e", 0))


OBSERVERS = {
    "kernel.kernel_matrix": _obs_kernel_matrix,
    "kernel.coherent_vector": _obs_coherent_vector,
    "channel.kraus_set": _obs_kraus_set,
    "capacity.optimize_capacity": _obs_optimize,
    "oracle.kernel_oracle_table": _obs_oracle_table,
    "oracle.evolve_and_trace": _obs_evolve,
    "oracle.evolve_and_trace_system": _obs_evolve,
}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = []
    for n in names:
        obj = getattr(module, n, None)
        if inspect.isclass(obj) or not callable(obj):
            continue
        # only functions defined by this module, not re-exported helpers
        if getattr(obj, "__module__", None) == module.__name__:
            out.append((n, obj))
    return out


def _rebind(tracer, original, wrapper):
    """Point every kerrdeph module attribute that holds original at wrapper."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "kerrdeph" or modname.startswith("kerrdeph.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                tracer.bindings.append((mod, attr, original))


def _eigensystem_observer(original):
    """Adds dim_e^2 * 8 bytes of W to oracle.w_bytes_computed per cache miss."""
    seen = [original.cache_info().misses]

    def observe(tr, args, kwargs, out):
        misses = original.cache_info().misses
        if misses > seen[0]:
            seen[0] = misses
            dim_e = args[1] if len(args) > 1 else kwargs.get("dim_e", 0)
            tr.add("oracle.w_bytes_computed", int(dim_e) ** 2 * 8)
    return observe


def install(tracer):
    """Wrap the layer modules' public functions and the counted hooks."""
    for prefix, modname in LAYERS:
        try:
            module = importlib.import_module(modname)
        except ImportError:
            tracer.missing.add(prefix)
            continue
        for attr, fn in _public_functions(module):
            name = f"{prefix}.{attr}"
            wrapper = tracer.timed(name, fn, observe=OBSERVERS.get(name),
                                   launcher=(name == "parallel.parallel_map"))
            tracer.originals[name] = fn
            _rebind(tracer, fn, wrapper)
    for modname, attr in COUNTED:
        key = f"{modname.split('.')[-1]}.{attr}"
        try:
            module = importlib.import_module(modname)
        except ImportError:
            tracer.missing.add(key)
            continue
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.missing.add(key)
            continue
        if attr == "_amp_table":
            observe = _obs_amp_table
        elif attr == "_env_eigensystem" and hasattr(fn, "cache_info"):
            observe = _eigensystem_observer(fn)
        else:
            observe = None
        tracer.originals[key] = fn
        _rebind(tracer, fn, tracer.counted(key, fn, observe=observe))
    return tracer


def uninstall(tracer):
    """Put back every attribute install() replaced."""
    for mod, attr, original in reversed(tracer.bindings):
        setattr(mod, attr, original)
    tracer.bindings.clear()
