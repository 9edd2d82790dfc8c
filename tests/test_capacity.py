"""Capacity optimizer: anchors, KKT certificates, energy cap, conventions."""

import numpy as np
import pytest

from kerrdeph import (
    ChannelParams,
    DimensionError,
    DomainError,
    EnergyConstraint,
    capacity_sweep,
    coherent_information,
    energy,
    exhaustive_capacity,
    fock_menu,
    optimize_capacity,
    shannon_entropy,
    two_level_eigenvalues,
    write_capacity_csv,
)
from kerrdeph import capacity as capacity_module


@pytest.fixture
def ascents(monkeypatch):
    """Count the mirror ascents optimize_capacity runs."""
    calls = []
    ascend = capacity_module._ascend_simplex

    def counted(*args, **kwargs):
        calls.append(args[0])
        return ascend(*args, **kwargs)

    monkeypatch.setattr(capacity_module, "_ascend_simplex", counted)
    return calls


def test_fock_menu_offsets():
    assert fock_menu(3) == [0, 1, 2, 3]
    assert fock_menu(2, offsets=(1, 2, 2)) == [1, 3, 5]
    with pytest.raises(DomainError):
        fock_menu(0)


def test_energy_values():
    assert energy(0, 0.7) == 0.0
    assert energy(3, 0.5) == pytest.approx(3 + 0.5 * 9 / 2)
    np.testing.assert_allclose(energy(np.array([0, 1, 2]), -0.4),
                               [0.0, 1 - 0.2, 2 - 0.8])


def test_two_level_eigenvalues_against_direct_diagonalization():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p1 = rng.uniform(0.01, 0.99)
        K = rng.uniform(-1.0, 1.0)
        G = np.array([[p1, np.sqrt(p1 * (1 - p1)) * K],
                      [np.sqrt(p1 * (1 - p1)) * K, 1 - p1]])
        want = np.sort(np.linalg.eigvalsh(G))
        got = np.sort(two_level_eigenvalues(p1, K))
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_coherent_information_two_level_closed_form():
    p = ChannelParams(gamma=1.0, lam=0.5, omega=1.0)
    from kerrdeph import kernel_entry
    K = kernel_entry(0, 1, p)
    for p1 in (0.2, 0.5, 0.63):
        q = two_level_eigenvalues(p1, K)
        want = shannon_entropy([p1, 1 - p1]) - shannon_entropy(q)
        got = coherent_information([p1, 1 - p1], p)
        assert got == pytest.approx(want, abs=1e-12)


def test_identity_channel_capacity_is_max_entropy():
    for N in (1, 2, 3):
        p = ChannelParams(gamma=0.0, lam=0.3, omega=1.0)
        res = optimize_capacity(p, N, starts=2)
        assert res.converged
        assert res.Q == pytest.approx(np.log2(N + 1), abs=1e-9)
        np.testing.assert_allclose(res.pvec, np.full(N + 1, 1 / (N + 1)), atol=1e-7)


def test_capacity_decreases_with_gamma():
    values = []
    for gamma in (0.5, 1.5, 3.0):
        p = ChannelParams(gamma=gamma, lam=0.0, omega=1.0)
        values.append(optimize_capacity(p, 1, starts=2).Q)
    assert values[0] > values[1] > values[2] > 0


def test_kkt_certificate_reported():
    p = ChannelParams(gamma=0.8, lam=0.2, omega=1.0)
    res = optimize_capacity(p, 2, starts=3, tol=1e-9)
    assert res.converged
    assert res.kkt_residual < 1e-9
    assert res.active_energy_constraint is False
    assert abs(np.sum(res.pvec) - 1) < 1e-12


@pytest.mark.parametrize("lam,gamma", [(0.5, 1.0), (0.2, 2.0)])
def test_default_starts_converge_where_uniform_start_stalls(lam, gamma, ascents):
    """At these N=4 points the uniform start alone (starts=0) stops with
    KKT residual 1.8e-7 and 1.5e-8; the default fallback starts converge."""
    res = optimize_capacity(ChannelParams(gamma=gamma, lam=lam, omega=1.0), 4)
    assert res.converged
    assert res.kkt_residual < 1e-9
    assert len(ascents) > 1


def test_certified_uniform_start_runs_no_fallback(ascents):
    """A certified first ascent ends the search: the default call is the
    starts=0 call, bit for bit."""
    p = ChannelParams(gamma=1.0, lam=0.5, omega=1.0)
    res = optimize_capacity(p, 2)
    assert res.converged
    assert len(ascents) == 1
    np.testing.assert_array_equal(ascents[0], np.full(3, 1.0 / 3.0))
    alone = optimize_capacity(p, 2, starts=0)
    assert res.Q == alone.Q
    np.testing.assert_array_equal(res.pvec, alone.pvec)
    assert res.J_trace == alone.J_trace


def test_uncertified_point_runs_every_start(ascents):
    """No start certifies at (lam=1, gamma=4, N=4): all 1 + starts ascents
    run and the best-of selection keeps the multistart's result."""
    res = optimize_capacity(ChannelParams(gamma=4.0, lam=1.0, omega=1.0), 4)
    assert len(ascents) == 1 + 8
    assert not res.converged
    assert res.Q == pytest.approx(0.000125745796636, rel=0, abs=1e-15)


def test_matches_exhaustive_search():
    p = ChannelParams(gamma=1.2, lam=0.4, omega=1.0)
    res = optimize_capacity(p, 1, starts=2)
    brute_q, brute_p = exhaustive_capacity(p, 1, step=0.001)
    assert res.Q >= brute_q - 1e-9
    assert abs(res.Q - brute_q) < 1e-3
    np.testing.assert_allclose(res.pvec, brute_p, atol=2e-3)


def test_exhaustive_small_n_only():
    p = ChannelParams(gamma=1.0, lam=0.0, omega=1.0)
    with pytest.raises(DomainError):
        exhaustive_capacity(p, 3)
    for step in (0.0, -0.1, 1.5, float("nan")):
        with pytest.raises(DomainError, match="step"):
            exhaustive_capacity(p, 1, step=step)


def test_capacity_bounds_hold(rng):
    for _ in range(4):
        lam = rng.uniform(-0.3, 0.8)
        gamma = rng.uniform(0.0, 3.0)
        p = ChannelParams(gamma=gamma, lam=lam, omega=1.0)
        res = optimize_capacity(p, 2, starts=2)
        assert 0.0 <= res.Q <= np.log2(3) + 1e-15


class TestEnergyConstraint:
    def test_inactive_when_budget_is_generous(self):
        p = ChannelParams(gamma=0.5, lam=0.3, omega=1.0)
        free = optimize_capacity(p, 2, starts=2)
        capped = optimize_capacity(p, 2, constraint=EnergyConstraint(1e6), starts=2)
        assert not capped.active_energy_constraint
        assert capped.Q == pytest.approx(free.Q, abs=1e-8)

    def test_binding_budget_reduces_capacity(self):
        p = ChannelParams(gamma=0.3, lam=0.3, omega=1.0)
        free = optimize_capacity(p, 3, starts=2)
        eps = energy(np.array(fock_menu(3)), 0.3)
        budget = 0.8 * float(free.pvec @ eps)
        capped = optimize_capacity(p, 3, constraint=EnergyConstraint(budget), starts=2)
        assert capped.converged
        assert capped.active_energy_constraint
        assert capped.Q < free.Q
        assert float(capped.pvec @ eps) <= budget + 1e-9

    def test_infeasible_budget_is_rejected(self):
        p = ChannelParams(gamma=1.0, lam=0.5, omega=1.0)
        with pytest.raises(DomainError):
            optimize_capacity(p, 2, constraint=EnergyConstraint(-0.5))


class TestConventions:
    def test_proof_convention_enforces_bound(self):
        p = ChannelParams(gamma=1.0, lam=-2.0, omega=1.0)
        with pytest.raises(DimensionError):
            optimize_capacity(p, 4, convention="proof")

    def test_alternate_convention_runs_unbounded_menu(self):
        p = ChannelParams(gamma=1.0, lam=-2.0, omega=1.0)
        res = optimize_capacity(p, 4, convention="eq19", starts=2)
        assert np.isfinite(res.Q)

    def test_conventions_agree_at_flat_limit(self):
        p = ChannelParams(gamma=0.9, lam=0.0, omega=1.0)
        a = optimize_capacity(p, 2, convention="proof", starts=2).Q
        b = optimize_capacity(p, 2, convention="eq19", starts=2).Q
        assert a == pytest.approx(b, abs=1e-8)


def test_analytic_gradient_matches_finite_difference():
    """The eigendecomposition gradient used by the optimizer must agree with
    central differences of the public objective along simplex directions."""
    from kerrdeph.capacity import _objective_and_gradient
    from kerrdeph import kernel_matrix

    p = ChannelParams(gamma=0.9, lam=0.3, omega=1.0)
    K = kernel_matrix(p, 4).entries
    rng = np.random.default_rng(11)
    pv = rng.dirichlet(np.ones(4))
    J, g = _objective_and_gradient(pv, K)
    assert J == pytest.approx(coherent_information(pv, p), abs=1e-12)
    h = 1e-6
    for _ in range(5):
        d = rng.standard_normal(4)
        d -= d.mean()          # stay on the simplex
        d /= np.linalg.norm(d)
        fd = (coherent_information(pv + h * d, p)
              - coherent_information(pv - h * d, p)) / (2 * h)
        assert float(g @ d) == pytest.approx(fd, abs=1e-6)


class TestSweep:
    def test_rows_and_invalid_markers(self):
        rows = capacity_sweep([0.0, -2.0], [0.5], [4])
        assert len(rows) == 2
        by_lam = {r.lam: r for r in rows}
        assert by_lam[0.0].valid and by_lam[0.0].converged
        # N=4 menu does not fit the lam=-2 two-level space
        assert not by_lam[-2.0].valid
        assert np.isnan(by_lam[-2.0].Q)

    def test_csv_output_is_deterministic(self, tmp_path):
        rows = capacity_sweep([0.0], [0.0, 1.0], [1, 2])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_capacity_csv(rows, a)
        write_capacity_csv(rows, b)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().splitlines()
        assert lines[0].startswith("lambda,gamma,N,Q,p0")
        assert len(lines) == 5
