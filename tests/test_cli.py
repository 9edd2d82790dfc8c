"""Command-line surface: output formats, determinism, and exit codes."""

import json

import numpy as np
import pytest

from kerrdeph.cli import _ENTRIES, _report_text, main
from kerrdeph.validate import SuiteResult, ValidationReport


def _write_state(path, dim, matrix):
    entries = [[float(np.real(x)), float(np.imag(x))] for x in np.asarray(matrix).ravel()]
    path.write_text(json.dumps({"dim": dim, "entries": entries}))
    return str(path)


def test_kernel_map_writes_expected_grid(tmp_path):
    out = tmp_path / "map.csv"
    code = main([
        "kernel-map", "--lambda-min", "-0.5", "--lambda-max", "0.5",
        "--lambda-steps", "3", "--gamma-min", "0", "--gamma-max", "2",
        "--gamma-steps", "2", "--n", "0", "--m", "1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,gamma,n,m,K,valid"
    assert len(lines) == 7
    # rows iterate gamma fastest; lines[4] is (lambda=0, gamma=2)
    flat = dict(zip(lines[0].split(","), lines[4].split(",")))
    assert (float(flat["lambda"]), float(flat["gamma"])) == (0.0, 2.0)
    assert float(flat["K"]) == pytest.approx(np.exp(-1.0), abs=1e-12)
    # gamma=0 rows are exactly 1
    first = lines[1].split(",")
    assert first[4] == "1"


def test_kernel_map_is_byte_deterministic(tmp_path):
    args = ["kernel-map", "--lambda-steps", "5", "--gamma-steps", "4"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_capacity_anchor_row(tmp_path):
    out = tmp_path / "cap.csv"
    code = main([
        "capacity", "--N", "1", "--lambda", "0", "--gamma-grid", "0:1:2",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,gamma,N,Q,p0,p1,converged"
    zero = lines[1].split(",")
    assert float(zero[3]) == 1.0
    assert zero[6] == "1"


def test_capacity_with_energy_budget(tmp_path):
    out = tmp_path / "cap.csv"
    code = main([
        "capacity", "--N", "2", "--lambda", "0.3", "--gamma-grid", "0.5",
        "--energy", "0.6", "--out", str(out),
    ])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 2


def test_apply_coherent_to_stdout(capsys):
    code = main(["apply", "--state", "coherent:1.0", "--gamma", "0.5",
                 "--lambda", "0.3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["gamma"] == 0.5
    assert payload["entropy_bits"] == pytest.approx(
        payload["complementary_entropy_bits"], abs=1e-9)
    dim = payload["output"]["dim"]
    assert len(payload["output"]["entries"]) == dim * dim


@pytest.mark.parametrize("lam", [0.3, 0.0, -0.2])
def test_apply_builds_the_kernel_once(lam, monkeypatch, capsys):
    """The output and its complementary spectrum share one kernel matrix."""
    from kerrdeph import channel

    calls = []
    kernel_matrix = channel.kernel_matrix
    monkeypatch.setattr(channel, "kernel_matrix", lambda *a: calls.append(a) or kernel_matrix(*a))
    assert main(["apply", "--state", "coherent:1.5", "--gamma", "0.8",
                 "--lambda", str(lam)]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["complementary_entropy_bits"] > 0.0


def test_apply_state_file_roundtrip(tmp_path, capsys):
    rho = np.diag([0.6, 0.4])
    path = _write_state(tmp_path / "state.json", 2, rho)
    code = main(["apply", "--state", path, "--gamma", "2.0", "--lambda", "0",
                 "--out", str(tmp_path / "out.json")])
    assert code == 0
    payload = json.loads((tmp_path / "out.json").read_text())
    entries = payload["output"]["entries"]
    # dephasing never touches the populations
    assert entries[0][0] == pytest.approx(0.6)
    assert entries[3][0] == pytest.approx(0.4)


@pytest.mark.parametrize("entries", [
    np.array([[0.5, -0.0], [-0.0, 0.5]]),
    np.array([[5e-324, -2.2250738585072014e-308 + 1e-310j],
              [1e300 - 4.9e-324j, 1.0]]),
    np.array([[1.0, 2.0 - 3.0j, -0.0 + 7j], [0.1, 1 / 3, 1e16], [3.0, -1e-7, 2.5]]),
    np.array([[1.0]]),
], ids=["signed-zero", "subnormal-huge", "integer-valued", "dim-1"])
def test_report_text_matches_json_dumps(entries):
    params = {"gamma": 0.2, "lambda": -0.002, "omega": 1.0}
    payload = {"params": params, "output": {"dim": len(entries), "entries": _ENTRIES},
               "entropy_bits": np.float64(0.25), "complementary_entropy_bits": 0.0}
    flat = [[float(z.real), float(z.imag)] for z in entries.ravel()]
    expected = json.dumps(dict(payload, output={"dim": len(entries), "entries": flat}),
                          indent=2)
    assert _report_text(payload, entries) == expected


def test_apply_report_is_indented_json(tmp_path, rng):
    """The written report equals json.dumps(indent=2) of its own content."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    path = _write_state(tmp_path / "state.json", 4, rho / np.trace(rho).real)
    out = tmp_path / "out.json"
    assert main(["apply", "--state", path, "--gamma", "0.7", "--lambda", "-0.3",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_validate_passes_and_writes_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["validate", "--max-dim", "3", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert {s["name"] for s in report["suites"]} >= {"commutators", "kraus"}


def test_validate_fails_under_impossible_tolerance(capsys):
    assert main(["validate", "--max-dim", "3", "--tol", "1e-300"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("max_dim", ["0", "-3"])
def test_validate_refuses_an_empty_dimension(max_dim, capsys):
    assert main(["validate", "--max-dim", max_dim]) == 2
    err = capsys.readouterr().err
    assert err == f"error: max_dim must be >= 1, got {max_dim}\n"


def test_validate_runs_at_dimension_one(capsys):
    assert main(["validate", "--max-dim", "1"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_worst_case_moves_only_past_the_rounding_floor():
    """max_residual is the true maximum; the label stays on the first case
    while later residuals beat it only at rounding level."""
    suite = SuiteResult("s", 1e-8)
    suite.record(1.0e-15, "first")
    suite.record(2.6e-15, "second")
    assert (suite.worst_case, suite.max_residual) == ("first", 2.6e-15)
    assert "worst s: first (1.000e-15)" in ValidationReport([suite]).to_text()
    suite = SuiteResult("s", 1e-8)
    suite.record(1e-15, "first")
    suite.record(1e-9, "second")
    assert (suite.worst_case, suite.max_residual) == ("second", 1e-9)


class TestExitCodes:
    def test_domain_error_is_2(self, tmp_path):
        code = main(["kernel-map", "--lambda-steps", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_bad_grid_spec_is_2(self, tmp_path):
        for grid in ["1:banana:3", ","]:
            code = main(["capacity", "--N", "1", "--lambda", "0",
                         "--gamma-grid", grid, "--out", str(tmp_path / "x.csv")])
            assert code == 2, grid

    def test_nan_energy_is_2(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["capacity", "--N", "2", "--lambda", "0", "--gamma-grid", "1",
                     "--energy", "nan", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_dimension_error_is_3(self, tmp_path):
        path = _write_state(tmp_path / "big.json", 7, np.eye(7) / 7)
        code = main(["apply", "--state", path, "--gamma", "1",
                     "--lambda", "-0.5"])
        assert code == 3
        # a lam<0 space too large to index is refused before any table
        code = main(["kernel-map", "--lambda-min=-1e-300", "--lambda-max", "0",
                     "--lambda-steps", "2", "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_invalid_state_is_4(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "entries": [[1, 0]]}')
        assert main(["apply", "--state", str(bad), "--gamma", "1",
                     "--lambda", "0"]) == 4

    def test_non_finite_state_is_4(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "entries": [[NaN, 0], [0, 0], [0, 0], [1, 0]]}')
        assert main(["apply", "--state", str(bad), "--gamma", "1",
                     "--lambda", "0"]) == 4

    def test_empty_state_is_4(self, tmp_path):
        path = _write_state(tmp_path / "empty.json", 0, np.zeros((0, 0)))
        assert main(["apply", "--state", path, "--gamma", "1",
                     "--lambda", "0"]) == 4

    def test_unnormalized_state_is_4(self, tmp_path):
        path = _write_state(tmp_path / "unnorm.json", 2, np.eye(2))
        assert main(["apply", "--state", path, "--gamma", "1",
                     "--lambda", "0"]) == 4

    def test_truncation_error_is_1(self):
        # a mean-9-photon coherent state cannot be represented in 4 levels
        code = main(["apply", "--state", "coherent:3.0", "--gamma", "1",
                     "--lambda", "0.5", "--dim", "4"])
        assert code == 1
