"""Brute-force dilation oracle: frozen references, convergence reporting,
and agreement between the two independent channel routes."""

import csv
import decimal
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal, expm

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
    max_dimension,
)
from kerrdeph import _jacobi, oracle
from kerrdeph.algebra import _annihilator_band
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


def test_truncated_negative_branch_is_certified_by_the_ladder_alone():
    """A lam<0 environment cut below its finite space is not exact: with one
    rung there is nothing to certify it, and the whole space is needed."""
    p = ChannelParams(gamma=1.0, lam=-0.1, omega=1.0)
    cut = kernel_oracle_table([(0, 4)], p, dim_e=8)[0]
    assert (cut.dim_e, cut.converged, cut.change) == (8, False, math.inf)
    full = kernel_oracle_table([(0, 4)], p)[0]
    assert (full.dim_e, full.converged) == (21, True)
    assert full.value == pytest.approx(kernel_entry(0, 4, p), abs=1e-12)
    assert abs(cut.value - full.value) > 1e-3

    q = ChannelParams(gamma=1.0, lam=-0.13, omega=1.0)
    rho = random_density(np.random.default_rng(5), 4)
    assert not evolve_and_trace(rho, q, dim_e=8, strict=False).converged
    with pytest.raises(ConvergenceError):
        evolve_and_trace(rho, q, dim_e=8)
    assert evolve_and_trace(rho, q, dim_e=100).dim_e == 16

    assert displacement_apply(2.0, p, dim_e=4).tail_bound > 0.0
    assert displacement_apply(2.0, p).tail_bound == 0.0


def _first_row_weights(y, dim_e):
    """Nodes and W[0,:]^2 of B + B^dag from the dense eigenvector matrix."""
    theta, W = eigh_tridiagonal(np.zeros(dim_e), _annihilator_band(y, dim_e))
    return theta, W[0, :] ** 2, W


def _assert_mirrored(theta, w):
    """Nodes in exact +-theta pairs (the half-spectrum sums rely on it) with
    equal weights at +-theta."""
    np.testing.assert_array_equal(theta, -theta[::-1])
    np.testing.assert_allclose(w, w[::-1], rtol=0, atol=1e-15)


@pytest.mark.parametrize("y", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("dim_e", [64, 512])
def test_recurrence_weights_match_eigenvector_first_row(y, dim_e):
    theta, w = oracle._env_eigensystem(y, dim_e)
    _assert_mirrored(theta, w)
    ref_theta, ref_w, _ = _first_row_weights(y, dim_e)
    np.testing.assert_allclose(theta, ref_theta, rtol=1e-13, atol=1e-12)
    np.testing.assert_allclose(w, ref_w, rtol=0, atol=1e-14)


@pytest.mark.parametrize("ratio", [20.0, 20.0000001, 2 / 0.13],
                         ids=["integer", "near-integer", "non-integer"])
def test_recurrence_weights_on_the_negative_branch(ratio):
    """2 omega/|lam| = ratio.  At an integer the top level decouples (zero
    coupling) and the weights live on the block below it; its own node
    carries no vacuum weight.  The blocks have 20, 21 and 16 levels, so an
    odd one with its node at 0 is among them."""
    p = ChannelParams(gamma=1.0, lam=-2.0 / ratio, omega=1.0)
    dim_e = max_dimension(p)
    theta, w = oracle._env_eigensystem(p.y, dim_e)
    _assert_mirrored(theta, w)
    ref_theta, ref_w, W = _first_row_weights(p.y, dim_e)
    if ratio == 20.0:
        assert theta.size == dim_e - 1
        top = np.argmax(np.abs(W[-1, :]))
        assert ref_w[top] < 1e-30
        ref_theta, ref_w = np.delete(ref_theta, top), np.delete(ref_w, top)
    np.testing.assert_allclose(theta, ref_theta, rtol=1e-13, atol=1e-12)
    np.testing.assert_allclose(w, ref_w, rtol=0, atol=1e-14)


def _count_below(x, b2):
    """Sturm count: eigenvalues below x of the zero-diagonal tridiagonal with
    squared couplings b2, in the current decimal context."""
    q = -x
    count = int(q < 0)
    for b in b2:
        q = -x - b / (q if q else decimal.Decimal("1e-80"))
        count += q < 0
    return count


_REL = 1e-14


@pytest.mark.parametrize("y, dim_e", [(0.0, 255), (0.0, 256), (0.05, 255), (0.05, 256),
                                      (0.25, 255), (0.25, 256), (-0.05, 21)],
                         ids=lambda v: str(v))
def test_nodes_match_a_forty_digit_sturm_bisection(y, dim_e):
    """dqds nodes against the exact spectrum of the same float generator:
    within 1e-14 relative of a 40-digit bisection bracketed around each
    float node, and within eigvalsh_tridiagonal's 64 eps ||J||."""
    theta, _ = oracle._env_eigensystem(y, dim_e)
    off = _jacobi._vacuum_block(y, dim_e)
    n = theta.size
    assert n == off.size + 1
    with decimal.localcontext(decimal.Context(prec=40)):
        b2 = [decimal.Decimal(b) ** 2 for b in off]
        half = theta[n // 2:]
        if n % 2:
            assert half[0] == 0.0
            assert _count_below(decimal.Decimal("-1e-30"), b2) == n // 2
            assert _count_below(decimal.Decimal("1e-30"), b2) == n // 2 + 1
        worst = 0.0
        for i, node in enumerate(half[n % 2:], start=n // 2 + n % 2):
            x = decimal.Decimal(node)
            lo, hi = x * (1 - decimal.Decimal(_REL)), x * (1 + decimal.Decimal(_REL))
            assert _count_below(lo, b2) == i and _count_below(hi, b2) == i + 1, (
                f"node {i} = {node!r} is more than {_REL} off")
            for _ in range(6):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if _count_below(mid, b2) == i else (lo, mid)
            worst = max(worst, float(abs(x - (lo + hi) / 2) / x))
    assert worst <= _REL

    ref = eigvalsh_tridiagonal(np.zeros(n), off)
    norm = 2.0 * off.max()
    np.testing.assert_allclose(theta, ref, rtol=0, atol=64 * np.finfo(float).eps * norm)


@pytest.mark.parametrize("y", [0.05, 0.25])
@pytest.mark.parametrize("dim_e", [1024, 4096])
def test_weight_walk_drops_only_weightless_nodes(y, dim_e):
    """The trimmed weight walk equals the same blocked walk over every node
    bit for bit, and the half spectrum keeps exactly the nodes of nonzero
    weight."""
    theta, w = oracle._env_eigensystem(y, dim_e)
    n = theta.size
    pos = theta[n // 2:]
    off = _jacobi._vacuum_block(y, dim_e)
    b = [0.0] + off.tolist()
    carry, log_norm = np.stack((np.zeros_like(pos), np.ones_like(pos))), np.zeros_like(pos)
    for s, e, _ in _jacobi._blocks(off):
        V = np.vstack((carry, np.empty((e - s, pos.size))))
        for i in range(e - s):
            V[i + 2] = (pos * V[i + 1] - b[s - 1 + i] * V[i]) / b[s + i]
        sq = np.einsum("ij,ij->j", V[2:], V[2:])
        log_norm += 0.5 * np.log1p(sq)
        carry = V[-2:] / np.sqrt(1.0 + sq)
    np.testing.assert_array_equal(w[n // 2:], np.exp(-2.0 * log_norm))
    dropped = log_norm > _jacobi._LOG_NORM_CUT
    assert dropped.any() and (w[n // 2:][dropped] == 0.0).all()

    h_theta, h_w, mult = oracle._half_spectrum(y, dim_e)
    keep = w[n // 2:] > 0.0
    np.testing.assert_array_equal(h_theta, pos[keep])
    np.testing.assert_array_equal(h_w, w[n // 2:][keep])
    assert h_theta.size < keep.size
    assert abs(mult @ h_w - w.sum()) <= 1e-15


def _per_step_weights(pos, off):
    """The walk renormalised at every level, its log norm carried per step."""
    a, c, log_norm = np.zeros_like(pos), np.ones_like(pos), np.zeros_like(pos)
    b_prev = 0.0
    for b in off:
        u = (pos * c - b_prev * a) / b
        g = np.sqrt(1.0 + u * u)
        a, c = c / g, u / g
        log_norm += np.log(g)
        b_prev = b
    return np.exp(-2.0 * log_norm)


def _forty_digit_weight(node, off):
    """1 / sum v_j^2 of the same recurrence at the same float node and
    couplings, in 40-digit decimal arithmetic."""
    with decimal.localcontext(decimal.Context(prec=40)):
        x, a, c, total, b_prev = decimal.Decimal(node), 0, 1, 1, 0
        for b in map(decimal.Decimal, off):
            a, c = c, (x * c - b_prev * a) / b
            total += c * c
            b_prev = b
        return float(1 / total)


@pytest.mark.parametrize("y, dim_e", [(0.25, 512), (0.05, 1024)], ids=lambda v: str(v))
def test_blocked_weights_against_a_forty_digit_recurrence(y, dim_e):
    """On 40 live nodes the blocked weights are no less accurate than a walk
    renormalised at every level, in the median and at the worst node."""
    theta, w = oracle._env_eigensystem(y, dim_e)
    n = theta.size
    pos, w = theta[n // 2:], w[n // 2:]
    off = _jacobi._vacuum_block(y, dim_e)
    live = np.flatnonzero(w > 0.0)
    nodes = live[np.linspace(0, live.size - 1, 40).round().astype(int)]
    exact = np.array([_forty_digit_weight(pos[k], off) for k in nodes])
    blocked = np.abs(w[nodes] - exact) / exact
    per_step = np.abs(_per_step_weights(pos, off)[nodes] - exact) / exact
    assert np.median(blocked) <= min(np.median(per_step), 1e-13)
    assert blocked.max() <= per_step.max()


_NEG = ChannelParams(gamma=1.0, lam=-0.001, omega=1.0)


@pytest.mark.parametrize("y, dim_e", [(1.5, 4096), (0.0, 4096), (_NEG.y, max_dimension(_NEG))],
                         ids=["y=1.5", "y=0", "lam=-0.001"])
def test_blocked_walk_stays_finite_at_the_fastest_growth(y, dim_e, monkeypatch):
    """No unnormalised block overflows, not even in its sum of squares at
    the nodes that leave the walk: the weights are finite and sum to 1, and
    the vacuum columns of real mu have unit norm."""
    levels = _jacobi._levels

    def checked_levels(*args):
        V = levels(*args)
        assert np.isfinite(np.einsum("ij,ij->j", V, V)).all()
        return V

    monkeypatch.setattr(_jacobi, "_levels", checked_levels)
    theta, w = oracle._env_eigensystem.__wrapped__(y, dim_e)
    assert np.isfinite(w).all() and (w >= 0.0).all()
    np.testing.assert_array_equal(w, oracle._env_eigensystem(y, dim_e)[1])
    _, h_w, mult = oracle._half_spectrum(y, dim_e)
    assert abs(mult @ h_w - 1.0) <= 1e-14
    X = oracle._env_vectors(y, [0.0, 0.7, 2.3, 9.0], dim_e)
    np.testing.assert_allclose(np.linalg.norm(X, axis=0), 1.0, rtol=0, atol=1e-12)


def test_unconverged_dqds_is_a_typed_refusal(monkeypatch):
    """A dqds failure names the block and y; no unconverged node comes back."""
    monkeypatch.setattr(_jacobi, "_dqds", lambda d, e: 2)
    with pytest.raises(ConvergenceError, match=r"info=2 on the 64-level .*\(y=0\.25\)"):
        oracle._env_eigensystem.__wrapped__(0.25, 64)


def test_env_eigensystem_holds_no_dense_matrix():
    """The cached nodes and weights are O(dim_e) and read-only."""
    arrays = oracle._env_eigensystem(0.25, 1024)
    for a in arrays:
        assert a.ndim == 1 and a.size <= 1024
        assert not a.flags.writeable


@pytest.mark.parametrize("y, dim_e, split", [
    (0.0, 63, None), (0.25, 64, None), (ChannelParams(gamma=1.0, lam=-0.13).y, 16, None),
    (0.25, 200, None), (0.25, 200, 7)],
    ids=["y=0-odd", "y=0.25-even", "lam=-0.13", "y=0.25-two-blocks", "y=0.25-7-level-blocks"])
def test_env_vectors_match_dense_exponential(y, dim_e, split, monkeypatch):
    """The paired half-spectrum sum against expm of the same truncated
    generator, for real and complex mu, also with the blocks of the row
    recurrence cut to `split` levels."""
    oracle._half_spectrum(y, dim_e)  # weights from the unsplit walk
    blocks = list(_jacobi._blocks(_jacobi._vacuum_block(y, dim_e)))
    if dim_e == 200:
        assert len(blocks) == 2
    if split:
        monkeypatch.setattr(_jacobi, "_blocks", lambda *args: [
            (t, min(t + split, e), b[t - s:t - s + split + 1])
            for s, e, b in blocks for t in range(s, e, split)])
    mus = [0.0, 0.7, 2.3, 0.4 + 0.2j, 1.1 - 0.3j]
    X = oracle._env_vectors(y, mus, dim_e)
    off = _annihilator_band(y, dim_e)
    G = np.diag(off, 1) + np.diag(off, -1)
    for col, mu_value in zip(X.T, mus):
        np.testing.assert_allclose(col, expm(-1j * mu_value * G)[:, 0], rtol=0, atol=1e-12)


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

    monkeypatch.setattr(_jacobi, "_env_eigensystem", no_eigensystem)
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("lam, dim_s, dim_e", [(0.4, 4, 16), (-0.5, 5, 5),
                                              (-0.13, 4, 16), (0.0, 4, 16)])
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


def test_environment_side_is_certified_through_its_factor():
    """The environment output has rank <= dim_s, so rungs are compared through
    the d x dim_s factor: a refusal at the cap holds no dense d x d output,
    and a returned certificate agrees with its own per-entry changes."""
    p = ChannelParams(gamma=1.0, lam=0.5, omega=1.0)
    rho = random_density(np.random.default_rng(3), 6)
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError):
            evolve_and_trace_system(rho, p, dim_e=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 ** 2 * 16 / 2  # half of one dense 1024^2 complex output

    for q, dim_e in [(p, 256), (ChannelParams(gamma=0.5, lam=0.1, omega=1.0), None)]:
        res = evolve_and_trace_system(rho, q, dim_e=dim_e, strict=False)
        assert res.matrix.shape == (res.dim_e, res.dim_e)
        assert res.change.shape == (res.dim_e // 2, res.dim_e // 2)
        assert res.converged == (res.change < oracle.CONV_TOL).all()


def test_unitary_dilation_is_unitary():
    p = ChannelParams(gamma=1.0, lam=0.4, omega=1.0)
    u = build_unitary(p, dim_s=4, dim_e=16).matrix
    np.testing.assert_allclose(u @ u.conj().T, np.eye(64), atol=1e-12)


def test_displacement_of_vacuum_is_poisson_at_flat_limit():
    """exp(-i mu (B+B^dag))|0> at lam=0 is a coherent state of amplitude
    -i*mu: e^{-mu^2/2} (-i mu)^n / sqrt(n!), Poisson magnitudes for real mu.
    A complex mu is checked at the default (largest) environment."""
    p = ChannelParams(gamma=1.0, lam=0.0, omega=1.0)
    n = np.arange(8)
    for alpha, dim_e in [(0.8, 64), (1.0 + 0.5j, None)]:
        v = displacement_apply(alpha, p, dim_e=dim_e).amplitudes
        expected = np.exp(-alpha ** 2 / 2) * (-1j * alpha) ** n / np.sqrt(
            [math.factorial(int(k)) for k in n]
        )
        np.testing.assert_allclose(v[:8], expected, atol=1e-12)
        assert np.linalg.norm(v) == pytest.approx(np.exp(np.imag(alpha) ** 2), abs=1e-12)


def test_displacement_with_complex_mu_matches_dense_exponential():
    p = ChannelParams(gamma=1.0, lam=0.15, omega=1.0)
    mu_value = 0.4 + 0.2j
    off = _annihilator_band(p.y, 256)
    ref = expm(-1j * mu_value * (np.diag(off, 1) + np.diag(off, -1)))[:, 0]
    v = displacement_apply(mu_value, p, dim_e=256).amplitudes
    np.testing.assert_allclose(v[:64], ref[:64], rtol=0, atol=1e-12)
    assert np.all(np.isfinite(displacement_apply(mu_value, p).amplitudes))


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
