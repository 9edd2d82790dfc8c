"""Smoke tests for the demos: they run, every capacity cell is certified,
the kernel map matches kernel_entry and the oracle spot checks all print."""

import csv
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kerrdeph import ChannelParams, kernel_entry

ROOT = Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=None)
def run_demo(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


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


def test_kernel_phase_map_rows_equal_kernel_entry(tmp_path):
    out = run_demo("kernel_phase_map.py", str(tmp_path / "map.csv"))
    assert out.returncode == 0, out.stderr
    with open(tmp_path / "map.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 21 * 25
    for r in rows:
        lam, gamma = float(r["lambda"]), float(r["gamma"])
        assert (r["n"], r["m"]) == ("0", "2")
        if r["valid"] == "1":
            assert float(r["K"]) == kernel_entry(0, 2, ChannelParams(gamma, lam))
        else:
            assert r["K"] == "nan"


def test_oracle_spot_checks_print_every_case():
    out = run_demo("oracle_spot_checks.py")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    rows = lines[lines.index("-" * 78) + 1:]
    assert len(rows) == 7
    # six cells converge; the deep-tail case is reported at the cap
    assert sum("converged at dim_e=" in row for row in rows) == 6
    assert "not certified at cap 4096" in rows[-1]
