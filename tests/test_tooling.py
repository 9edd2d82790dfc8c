"""The benchmark harness under perfbench/ traces kerrdeph from outside, by
module and function name.  A renamed hook silently turns its metrics into
null, and a print in library code breaks the harness's last-line result, so
both are checked here against perfbench's own tables (read, never edited).
Also checked here: the lam<0 refusal lives in one module, the oracle
and the Jacobi numerics it reads import no closed form, only those
numerics (_jacobi) reach LAPACK through ctypes, and the channel reads them
without importing the oracle.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's tracing and layers modules, imported as it imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("tracing", "layers")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield tuple(importlib.import_module(name) for name in names)
    for name in names:
        sys.modules.pop(name, None)


def test_every_traced_module_and_counted_hook_exists(perfbench):
    tracing, _ = perfbench
    for _, modname in tracing.LAYERS:
        importlib.import_module(modname)
    for modname, attr in tracing.COUNTED:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (
            f"{modname}.{attr}")


def test_traced_pass_reports_no_null_metric(perfbench):
    """With no spans yet every metric is a number: only a missing hook makes
    one null.  trace.overhead_* are filled in later by the parent process."""
    tracing, layers = perfbench
    tracer = tracing.install(tracing.Tracer())
    try:
        missing = set(tracer.missing)
        out = layers.metrics(tracer, 0)
    finally:
        tracing.uninstall(tracer)
    assert missing == set()
    assert {name for name, _ in layers.PER_LAYER} == set(out)
    nulls = [k for k, v in out.items()
             if v is None and not k.startswith("trace.overhead")]
    assert nulls == []


def test_only_algebra_refuses_past_the_negative_space():
    """Which sizes and indices the lam<0 space admits is decided in one
    place, algebra's _check_dim and _check_index, in one wording."""
    for path in sorted((ROOT / "src" / "kerrdeph").glob("*.py")):
        if path.name != "algebra.py":
            assert "exceeds the lam<0" not in path.read_text(encoding="utf-8"), (
                path.name)


def test_oracle_imports_no_closed_form():
    """The oracle arbitrates the closed forms, so from kernel it takes only
    the displacement mu and the result type CoherentVector; the Jacobi
    numerics it reads take nothing from kernel."""
    for name, allowed in (("oracle.py", {"mu", "CoherentVector"}), ("_jacobi.py", set())):
        tree = ast.parse((ROOT / "src" / "kerrdeph" / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.endswith("kernel") for a in node.names), node.lineno
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[-1] == "kernel":
                    names = {a.name for a in node.names}
                    assert names <= allowed, f"{name}:{node.lineno} imports {names - allowed}"
                else:
                    assert "kernel" not in {a.name for a in node.names}, node.lineno


def test_only_the_jacobi_module_calls_lapack_through_ctypes():
    """Raw pointers into LAPACK stay in one module, behind its own checks."""
    for path in sorted((ROOT / "src" / "kerrdeph").glob("*.py")):
        if path.name != "_jacobi.py":
            text = path.read_text(encoding="utf-8")
            assert "ctypes" not in text and "cython_lapack" not in text, path.name


def test_production_reads_the_jacobi_numerics_without_the_oracle():
    """_jacobi imports no kernel, channel or oracle, and channel no oracle,
    so the channel's Gaussian check shares the numerics, not the arbiter."""
    for name, banned in (("_jacobi.py", {"kernel", "channel", "oracle"}),
                         ("channel.py", {"oracle"})):
        tree = ast.parse((ROOT / "src" / "kerrdeph" / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                mods = {(node.module or "").split(".")[-1]} | {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                mods = {a.name.split(".")[-1] for a in node.names}
            else:
                continue
            assert not mods & banned, f"{name}:{node.lineno} imports {mods & banned}"


def test_only_the_cli_writes_to_stdout():
    """perfbench reads a pass's result from its last stdout line."""
    for path in sorted((ROOT / "src" / "kerrdeph").glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "print", f"{path.name}:{node.lineno}"
            if isinstance(node, ast.Attribute) and node.attr == "stdout":
                raise AssertionError(f"{path.name}:{node.lineno} uses stdout")
