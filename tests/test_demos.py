"""Smoke tests for the capacity demos: they run and every cell is certified.

`kernel_phase_map.py` is left out because it rewrites `demos/kernel_map.csv`.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=None)
def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", ["capacity_vs_dephasing.py", "revival_sweep.py"])
def test_demo_runs_and_marks_no_cell_uncertified(name):
    out = run_demo(name)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines
    # the footnote explaining the mark starts with it; no other line holds it
    marked = [ln for ln in lines if "?" in ln and not ln.startswith("?")]
    assert marked == []


def test_dephasing_table_has_every_row():
    lines = run_demo("capacity_vs_dephasing.py").stdout.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("---")) + 1
    rows = lines[start:lines.index("", start)]
    assert len(rows) == 7
    assert all(len(row.split()) == 1 + 4 for row in rows)
