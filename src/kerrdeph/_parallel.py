"""Order-preserving map over grid points, evaluated in one thread.

With the interpreter lock a thread pool was no faster than one thread on
any measured grid (kernel maps, capacity sweeps).  Only capacity_sweep calls
it now; kernel_map evaluates a lambda row at a time.  The module stays because
perfbench traces parallel_map and thread_count by name.
"""


def thread_count() -> int:
    """Worker count: always 1."""
    return 1


def parallel_map(fn, items):
    """[fn(x) for x in items], in input order."""
    return [fn(x) for x in items]
