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
def test_uniform_start_certifies_former_stall_points(lam, gamma, ascents):
    """At these N=4 points the uniform start used to stop with KKT residual
    1.8e-7 and 1.5e-8 under a finite-difference Hessian; the closed-form
    Newton polish certifies it, so no fallback start runs."""
    res = optimize_capacity(ChannelParams(gamma=gamma, lam=lam, omega=1.0), 4)
    assert res.converged
    assert res.kkt_residual < 1e-9
    assert len(ascents) == 1


def test_uniform_start_converges_at_strong_dephasing():
    """(gamma=4, lam=0.2, N=3) parks ~2e-12 of mass on the top level."""
    res = optimize_capacity(ChannelParams(gamma=4.0, lam=0.2, omega=1.0), 3, starts=0)
    assert res.converged
    assert res.kkt_residual < 1e-9


def test_later_start_that_certifies_ends_the_search(ascents, monkeypatch):
    """When the uniform ascent is not certified, the fallback starts run in
    order only until one certifies: here the first Dirichlet start does."""
    counted = capacity_module._ascend_simplex

    def first_uncertified(*args, **kwargs):
        out = counted(*args, **kwargs)
        return out[:3] + (False,) + out[4:] if len(ascents) == 1 else out

    monkeypatch.setattr(capacity_module, "_ascend_simplex", first_uncertified)
    res = optimize_capacity(ChannelParams(gamma=1.0, lam=0.5, omega=1.0), 2)
    assert res.converged
    assert res.kkt_residual < 1e-9
    assert len(ascents) == 2


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


def test_newton_trial_certifies_former_uncertified_point(ascents):
    """At (lam=1, gamma=4, N=4) no ascent used to certify (KKT residual
    1.3e-4 after all 9); with a Newton step tried in every round the first
    ascent certifies."""
    res = optimize_capacity(ChannelParams(gamma=4.0, lam=1.0, omega=1.0), 4)
    assert res.converged
    assert res.kkt_residual < 1e-9
    assert len(ascents) < 1 + 8
    assert res.Q >= 0.000125745796636 - 1e-15


def test_uncertified_ascents_run_every_start_and_keep_the_best(monkeypatch):
    """When no ascent certifies, all 1 + starts ascents run and the
    best-of selection keeps the largest J (ties within 5e-15 go to the
    earlier start)."""
    outs = []
    ascend = capacity_module._ascend_simplex

    def uncertified(*args, **kwargs):
        out = ascend(*args, **kwargs)
        outs.append(out)
        return out[:3] + (False,) + out[4:]

    monkeypatch.setattr(capacity_module, "_ascend_simplex", uncertified)
    res = optimize_capacity(ChannelParams(gamma=1.0, lam=0.5, omega=1.0), 2, starts=4)
    assert len(outs) == 1 + 4
    assert not res.converged
    kept = [out for out in outs if out[0] is res.pvec]
    assert len(kept) == 1
    assert kept[0][1] >= max(out[1] for out in outs) - 5e-15


@pytest.mark.parametrize("gamma", [1.0, 4.0])
def test_one_eigendecomposition_per_objective_evaluation(gamma, evals, monkeypatch):
    """The Newton Hessian reuses the decomposition its objective evaluation
    made at the same point, so no Gram matrix is decomposed twice: 13 eigh
    calls for 7 evaluations at gamma=1, and 209 for 196 at gamma=4, when
    the Hessian decomposed G again."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    res = optimize_capacity(ChannelParams(gamma=gamma, lam=0.2, omega=1.0), 3)
    assert res.converged
    assert len(evals) > 0
    assert len(calls) == len(evals)


def test_hessian_with_the_objectives_decomposition_is_bit_identical():
    """On the whole menu the carried (q, V) is the eigh _hessian would make."""
    from kerrdeph.capacity import _hessian, _menu_kernel, _objective_and_gradient

    for lam, gamma, indices in [(0.3, 0.9, [0, 1, 2, 3]), (1.0, 4.0, [0, 1, 2, 3]),
                                (0.2, 0.0, [0, 1, 2]), (-0.05, 1.0, [1, 39]),
                                (-0.1, 4.0, list(range(21)))]:
        K = _menu_kernel(ChannelParams(gamma=gamma, lam=lam, omega=1.0), indices, "proof")
        rng = np.random.default_rng(len(indices))
        for pv in (np.full(len(indices), 1.0 / len(indices)),
                   rng.dirichlet(np.ones(len(indices)))):
            J, g, eig = _objective_and_gradient(pv, K, eig=True)
            J_alone, g_alone = _objective_and_gradient(pv, K)
            assert J == J_alone
            np.testing.assert_array_equal(g, g_alone)
            np.testing.assert_array_equal(_hessian(pv, K, eig), _hessian(pv, K))


class _DrawCounter:
    """Stands in for the Generator of np.random.default_rng and records its
    Dirichlet draws."""

    def __init__(self, seed, draws):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._draws = draws

    def dirichlet(self, alpha):
        self._draws.append(self._rng.dirichlet(alpha))
        return self._draws[-1]


def test_certified_first_ascent_draws_no_start(monkeypatch):
    """The Dirichlet starts are drawn only when they run: none after a
    certified first ascent, and in the generator's order when every start
    runs."""
    draws = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _DrawCounter(seed, draws))
    p = ChannelParams(gamma=1.0, lam=0.5, omega=1.0)
    assert optimize_capacity(p, 2).converged
    assert draws == []

    starts = []
    ascend = capacity_module._ascend_simplex

    def uncertified(*args, **kwargs):
        starts.append(args[0])
        out = ascend(*args, **kwargs)
        return out[:3] + (False,) + out[4:]

    monkeypatch.setattr(capacity_module, "_ascend_simplex", uncertified)
    optimize_capacity(p, 2, starts=4, seed=3)
    eager = np.random.Generator(np.random.PCG64(3))
    assert len(draws) == 4
    for drawn, ran in zip([eager.dirichlet(np.ones(3)) for _ in range(4)], starts[1:]):
        np.testing.assert_array_equal(drawn, ran)


def test_failed_newton_trial_is_discarded(monkeypatch):
    """A Newton step that is not kept hands its round to a mirror step; the
    ascent goes on from there and certifies the same optimum."""
    p = ChannelParams(gamma=0.25, lam=0.5, omega=1.0)
    want = optimize_capacity(p, 2, starts=0)
    calls = []
    newton = capacity_module._newton_step

    def first_fails(*args, **kwargs):
        calls.append(len(calls))
        return None if len(calls) == 1 else newton(*args, **kwargs)

    monkeypatch.setattr(capacity_module, "_newton_step", first_fails)
    res = optimize_capacity(p, 2, starts=0)
    assert len(calls) >= 2
    assert res.J_trace[1] != want.J_trace[1]  # the first kept step is a mirror step
    assert res.converged
    assert res.kkt_residual < 1e-9
    assert res.Q == pytest.approx(want.Q, rel=0, abs=1e-12)


@pytest.fixture
def evals(monkeypatch):
    """Count objective evaluations through the hook perfbench counts."""
    calls = []
    objective = capacity_module._objective_and_gradient

    def counted(*args, **kwargs):
        calls.append(1)
        return objective(*args, **kwargs)

    monkeypatch.setattr(capacity_module, "_objective_and_gradient", counted)
    return calls


@pytest.mark.parametrize("lam,gamma,N", [(0.2, 8.0, 3), (1.0, 4.0, 4)])
def test_strong_dephasing_certifies_from_the_uniform_start(lam, gamma, N, ascents, evals):
    """Mirror steps alone walked these optima in by J increments below one
    ulp: 13,916 and 15,630 objective evaluations; Newton steps judged on J
    take a few dozen."""
    res = optimize_capacity(ChannelParams(gamma=gamma, lam=lam, omega=1.0), N)
    assert res.converged
    assert len(ascents) == 1
    assert 0 < len(evals) <= 100


def test_full_space_ascent_ends_on_its_own_stop_rule(evals):
    """The full lam=-0.1 space (21 levels) is not certified at gamma=4, so
    the ascent ends on the stall rule; reopening every starved level at
    once cycled there until max_iter (100k rounds)."""
    res = optimize_capacity(ChannelParams(gamma=4.0, lam=-0.1, omega=1.0), 20, starts=0)
    assert 0 < len(evals) <= 1000
    assert len(res.J_trace) <= 1000
    assert res.Q >= 2.4057416461712 - 1e-12


@pytest.mark.parametrize("lam,gamma,N", [(-0.25, 4.0, 8), (-0.1, 1.0, 20)])
def test_certified_full_space_stops_after_certifying(lam, gamma, N, evals):
    """Once certified, the first mirror step that does not raise J ends the
    ascent; mirror steps run on to the stall rule took 141 and 139
    evaluations here (15 and 26 with the stop)."""
    res = optimize_capacity(ChannelParams(gamma=gamma, lam=lam, omega=1.0), N, starts=0)
    assert res.converged
    assert 0 < len(evals) <= 60


def test_last_newton_step_is_kept_through_rounding_in_J():
    """J is resolved only to a few 1e-15 here: the Newton step from KKT
    residual 3.4e-9 lands on residual 0 while J reads 2e-15 lower, and a
    1e-15 band on J turned it away and left the point uncertified."""
    p = ChannelParams(gamma=1.9564349007242192, lam=-0.584729215488122, omega=1.0)
    res = optimize_capacity(p, 2, starts=0)
    assert res.converged
    assert res.kkt_residual < 1e-12


@pytest.mark.parametrize("lam,gamma", [(0.5, 0.25), (0.0, 1.25)])
def test_newton_trial_ends_the_ascent_early(lam, gamma):
    """Run to the stall rule, these README sweep points took 335 and 319
    mirror steps; with a Newton step tried in every round the ascent ends
    within 40 kept steps."""
    res = optimize_capacity(ChannelParams(gamma=gamma, lam=lam, omega=1.0), 2)
    assert res.converged
    assert len(res.J_trace) <= 40


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


def test_menu_of_the_wrong_length_is_refused():
    """Like optimize_capacity, the two other menu entry points refuse a menu
    that does not hold one level per weight, before numpy broadcasts."""
    p = ChannelParams(gamma=1.0, lam=0.0, omega=1.0)
    with pytest.raises(DomainError, match="menu has 3 levels"):
        coherent_information([0.5, 0.5], p, indices=[0, 1, 2])
    with pytest.raises(DomainError, match="menu has 2 levels"):
        exhaustive_capacity(p, 2, indices=[0, 1])


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

    def test_capped_optimum_at_a_noisy_J_matches_a_tighter_solve(self):
        """Where J is resolved only to a few 1e-15, a 1e-15 band on J turns
        the last Newton steps of the bisection's solves away, and this call
        ended 1.0e-12 short of the tol=1e-12 solve (4e-16 with the band)."""
        p = ChannelParams(gamma=0.5, lam=0.0, omega=1.0)
        cap = EnergyConstraint(1.2)
        res = optimize_capacity(p, 3, constraint=cap)
        tight = optimize_capacity(p, 3, constraint=cap, tol=1e-12)
        assert res.converged and tight.converged
        assert res.Q == pytest.approx(tight.Q, rel=0, abs=4.7e-13)

    def test_nan_budget_is_refused(self):
        with pytest.raises(DomainError, match="nan"):
            EnergyConstraint(float("nan"))

    def test_infinite_budget_is_unconstrained(self):
        p = ChannelParams(gamma=1.0, lam=0.0, omega=1.0)
        capped = optimize_capacity(p, 2, constraint=EnergyConstraint(float("inf")))
        assert not capped.active_energy_constraint
        assert capped.Q == optimize_capacity(p, 2).Q

    def test_capped_optimum_matches_a_tighter_solve(self):
        """The bisection warm-starts each solve from the last one, so each
        ascent must run past tol (to tol * _POLISH_DEPTH): ascents that
        stopped at tol left this call 9.4e-11 short of the tol=1e-12
        solve."""
        p = ChannelParams(gamma=1.0, lam=-0.4, omega=1.0)
        cap = EnergyConstraint(0.5)
        res = optimize_capacity(p, 3, constraint=cap)
        tight = optimize_capacity(p, 3, constraint=cap, tol=1e-12)
        assert res.converged and tight.converged
        assert res.Q == pytest.approx(tight.Q, rel=0, abs=1e-11)

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


@pytest.mark.parametrize("lam,gamma,indices,uniform", [
    (0.3, 0.9, [0, 1, 2, 3], False),     # random interior point
    (1.0, 4.0, [0, 1, 2, 3], True),      # eigenvalue gap 1.4e-6
    (0.2, 0.0, [0, 1, 2], False),        # rank-one K
    (-0.05, 1.0, [1, 39], False),        # mirror pair, K = 1
])
def test_closed_form_hessian_matches_finite_difference(lam, gamma, indices, uniform):
    """_hessian against central differences of the analytic gradient."""
    from kerrdeph.capacity import _hessian, _menu_kernel, _objective_and_gradient

    K = _menu_kernel(ChannelParams(gamma=gamma, lam=lam, omega=1.0), indices, "proof")
    k = len(indices)
    pv = (np.full(k, 1.0 / k) if uniform
          else np.random.default_rng(3).dirichlet(np.ones(k)))
    h = 1e-6
    fd = np.empty((k, k))
    for a in range(k):
        e = np.zeros(k)
        e[a] = h
        fd[:, a] = (_objective_and_gradient(pv + e, K)[1]
                    - _objective_and_gradient(pv - e, K)[1]) / (2 * h)
    H = _hessian(pv, K)
    assert np.abs(H - fd).max() <= 1e-4 * np.abs(fd).max()


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

    def test_empty_sweep_writes_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_capacity_csv(capacity_sweep([0.0], [], [2]), path)
        assert path.read_text() == "lambda,gamma,N,Q,converged\n"
