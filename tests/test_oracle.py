"""Brute-force dilation oracle: frozen references, convergence reporting,
and agreement between the two independent channel routes."""

import csv
import math
import pathlib

import numpy as np
import pytest

from kerrdeph import (
    ChannelParams,
    ConvergenceError,
    DimensionError,
    DomainError,
    apply,
    build_unitary,
    displacement_apply,
    evolve_and_trace,
    evolve_and_trace_system,
    complementary_apply,
    kernel_entry,
    kernel_matrix,
    kernel_oracle,
    kernel_oracle_table,
)
from kerrdeph import oracle
from conftest import random_density

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "kernel_oracle_reference.csv"


def _load_reference():
    with open(FIXTURE, newline="") as fh:
        return [
            (int(r["n"]), int(r["m"]), float(r["gamma"]), float(r["lambda"]),
             float(r["omega"]), float(r["K_oracle"]))
            for r in csv.DictReader(fh)
        ]


def test_fixture_file_shape():
    rows = _load_reference()
    assert len(rows) == 60
    assert {r[2] for r in rows} == {0.5, 2.0}
    assert {r[3] for r in rows} == {-0.3, 0.3}


def test_oracle_reproduces_frozen_table():
    """Regenerating the dilation must land on the frozen values."""
    rows = _load_reference()
    groups = {}
    for n, m, gamma, lam, omega, value in rows:
        groups.setdefault((gamma, lam, omega), []).append((n, m, value))
    for (gamma, lam, omega), entries in groups.items():
        p = ChannelParams(gamma=gamma, lam=lam, omega=omega)
        pairs = [(n, m) for n, m, _v in entries]
        table = kernel_oracle_table(pairs, p)
        for (n, m, frozen), cell in zip(entries, table):
            assert cell.converged
            assert cell.value == pytest.approx(frozen, abs=1e-12), (n, m, gamma, lam)


@pytest.mark.parametrize("lam", [-0.5, -0.1, 0.1, 0.5])
def test_oracle_matches_closed_form(lam):
    # index range kept where the doubling ladder certifies 1e-8 within the
    # cap; the far tail (kernel ~1e-11) is exercised by the acceptance suite
    # with explicit masking instead.
    p = ChannelParams(gamma=1.0, lam=lam, omega=1.0)
    dim = 5 if lam in (-0.5, 0.5) else 6
    for n in range(0, dim, 2):
        for m in range(n + 1, dim, 2):
            assert abs(kernel_oracle(n, m, p) - kernel_entry(n, m, p)) < 1e-6


def test_oracle_diagonal_is_one():
    p = ChannelParams(gamma=2.0, lam=0.3, omega=1.0)
    assert kernel_oracle(2, 2, p) == pytest.approx(1.0, abs=1e-10)


def test_oracle_raises_when_ladder_is_starved():
    # gamma large enough that 8 environment levels cannot converge
    p = ChannelParams(gamma=4.0, lam=0.5, omega=1.0)
    with pytest.raises(ConvergenceError):
        kernel_oracle(4, 5, p, dim_e=8)


def test_oracle_table_reports_per_entry_convergence():
    p = ChannelParams(gamma=4.0, lam=0.5, omega=1.0)
    cells = kernel_oracle_table([(0, 1), (4, 5)], p, dim_e=8)
    assert not all(c.converged for c in cells)
    for c in cells:
        assert c.change >= 0.0


_FINITE = ChannelParams(gamma=1.0, lam=-0.5, omega=1.0)
_OPEN = ChannelParams(gamma=1.0, lam=0.5, omega=1.0)


@pytest.mark.parametrize("call, error", [
    (lambda: kernel_oracle_table([(0, 9)], _FINITE), DimensionError),
    (lambda: kernel_oracle_table([(-1, 1)], _OPEN), DomainError),
    (lambda: kernel_oracle_table([(0, 1)], _OPEN, dim_e=0), DimensionError),
    (lambda: evolve_and_trace_system(np.zeros((0, 0)), _OPEN), DimensionError),
    (lambda: displacement_apply(0.3, _OPEN, dim_e=0), DimensionError),
], ids=["index-past-lam<0-space", "negative-index", "dim_e-0", "empty-state",
        "displacement-dim_e-0"])
def test_oracle_refuses_bad_requests_before_any_eigensystem(call, error, monkeypatch):
    def no_eigensystem(*args):
        raise AssertionError("eigensystem built before the request was checked")

    monkeypatch.setattr(oracle, "_env_eigensystem", no_eigensystem)
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("lam, dim_s, dim_e", [(0.4, 4, 16), (-0.5, 5, 5)])
def test_gram_route_matches_literal_dilation(lam, dim_s, dim_e, rng):
    """Both partial traces of U (rho x |0><0|) U^dag, with U assembled block
    by block, equal the two evolutions at the same environment dimension."""
    p = ChannelParams(gamma=1.0, lam=lam, omega=1.0)
    u = build_unitary(p, dim_s=dim_s, dim_e=dim_e).matrix
    rho = random_density(rng, dim_s).entries
    vac = np.zeros((dim_e, dim_e))
    vac[0, 0] = 1.0
    joint = (u @ np.kron(rho, vac) @ u.conj().T).reshape(dim_s, dim_e, dim_s, dim_e)
    system = evolve_and_trace(rho, p, dim_e=dim_e, strict=False)
    environment = evolve_and_trace_system(rho, p, dim_e=dim_e, strict=False)
    assert system.dim_e == environment.dim_e == dim_e
    np.testing.assert_allclose(system.matrix, np.einsum("nkmk->nm", joint),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(environment.matrix, np.einsum("nknl->kl", joint),
                               rtol=0, atol=1e-12)


def test_unitary_dilation_is_unitary():
    p = ChannelParams(gamma=1.0, lam=0.4, omega=1.0)
    u = build_unitary(p, dim_s=4, dim_e=16).matrix
    np.testing.assert_allclose(u @ u.conj().T, np.eye(64), atol=1e-12)


def test_displacement_of_vacuum_is_poisson_at_flat_limit():
    """exp(-i mu (B+B^dag))|0> at lam=0 is a coherent state of amplitude
    -i*mu, i.e. Poisson magnitudes with (-i)^n phases."""
    p = ChannelParams(gamma=1.0, lam=0.0, omega=1.0)
    alpha = 0.8
    v = displacement_apply(alpha, p, dim_e=64).amplitudes
    n = np.arange(8)
    expected = np.exp(-abs(alpha) ** 2 / 2) * (-1j * alpha) ** n / np.sqrt(
        [math.factorial(int(k)) for k in n]
    )
    np.testing.assert_allclose(v[:8], expected, atol=1e-12)


def test_evolved_state_matches_hadamard_action(rng):
    """The dilation route and the closed-form kernel route must coincide."""
    p = ChannelParams(gamma=1.0, lam=0.3, omega=1.0)
    K = kernel_matrix(p, 5).entries
    for _ in range(5):
        rho = random_density(rng, 5)
        res = evolve_and_trace(rho, p)
        assert res.converged
        np.testing.assert_allclose(res.matrix, K * rho.entries, atol=1e-6)


def test_environment_route_matches_complementary_map(rng):
    p = ChannelParams(gamma=0.5, lam=-0.5, omega=1.0)
    for _ in range(3):
        rho = random_density(rng, 4)
        res = evolve_and_trace_system(rho, p)
        assert res.converged
        env = complementary_apply(rho, p, env_dim=res.matrix.shape[0]).entries
        np.testing.assert_allclose(res.matrix, env, atol=1e-6)


def test_nonconverged_entries_carry_negligible_weight():
    """Where the ladder cannot certify convergence the analytic kernel is
    already far below the comparison tolerance, so nothing is lost."""
    p = ChannelParams(gamma=4.0, lam=0.5, omega=1.0)
    rho = random_density(np.random.default_rng(3), 6)
    res = evolve_and_trace(rho, p, strict=False)
    analytic = kernel_matrix(p, 6).entries * rho.entries
    mask = res.change > 1e-8
    assert mask.any()
    assert np.max(np.abs(analytic[mask])) < 1e-6
    np.testing.assert_allclose(res.matrix[~mask], analytic[~mask], atol=1e-6)
