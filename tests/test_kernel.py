"""Closed-form kernel: exact limits, frozen reference values, revivals."""

import tracemalloc

import numpy as np
import pytest

from kerrdeph import (
    ChannelParams,
    DimensionError,
    DomainError,
    amplitude_table,
    coherent_vector,
    displacement_apply,
    kernel_entry,
    kernel_map,
    kernel_matrix,
    kernel_oracle_table,
    max_dimension,
    mu,
    overlap_closed_form,
    overlap_series,
    tau,
    write_kernel_map_csv,
)

# kernel_oracle(0, 1, gamma=1, lam=0.5) at convergence tolerance 1e-8,
# frozen so a regression in the closed form is caught without re-running
# the dilation.
ORACLE_K01 = 0.398953861575677


def test_flat_kernel_is_gaussian_in_index_distance():
    for gamma in (0.1, 1.0, 10.0):
        p = ChannelParams(gamma=gamma, lam=0.0, omega=1.0)
        for n in range(0, 12, 3):
            for m in range(0, 12, 3):
                expected = np.exp(-gamma * (n - m) ** 2 / 2)
                assert abs(kernel_entry(n, m, p) - expected) < 1e-15


def test_frozen_oracle_value():
    p = ChannelParams(gamma=1.0, lam=0.5, omega=1.0)
    assert kernel_entry(0, 1, p) == pytest.approx(ORACLE_K01, abs=1e-12)


@pytest.mark.parametrize("lam", [-0.5, -0.1, 0.0, 0.2, 1.0])
def test_kernel_basic_invariants(lam):
    """Diagonal is exactly one, K is exactly symmetric, and |K| <= 1: apply
    returns its output unchecked on the strength of these."""
    p = ChannelParams(gamma=1.3, lam=lam, omega=1.0)
    dim = 5 if lam == -0.5 else 8
    K = kernel_matrix(p, dim).entries
    np.testing.assert_array_equal(np.diag(K), np.ones(dim))
    np.testing.assert_array_equal(K, K.T)
    assert np.max(np.abs(K)) <= 1.0


def test_zero_gamma_is_identity_channel():
    for lam in (-0.5, 0.0, 0.7):
        p = ChannelParams(gamma=0.0, lam=lam, omega=1.0)
        K = kernel_matrix(p, 4).entries
        np.testing.assert_array_equal(K, np.ones((4, 4)))


def test_kernel_matrix_matches_entries():
    p = ChannelParams(gamma=0.8, lam=0.4, omega=1.0)
    K = kernel_matrix(p, 6).entries
    for n in range(6):
        for m in range(6):
            assert K[n, m] == kernel_entry(n, m, p)


def test_mu_tau_values():
    p = ChannelParams(gamma=2.0, lam=0.5, omega=1.0)
    for n in range(6):
        assert mu(n, p) == pytest.approx(np.sqrt(2.0) * n * (1 + 0.25 * n))
        assert tau(n, p) == pytest.approx(np.sqrt(0.25) * mu(n, p))


def test_positive_branch_monotone_decay():
    """With lam > 0 the kernel decays monotonically in gamma."""
    values = []
    for gamma in (0.5, 1.0, 2.0, 4.0):
        p = ChannelParams(gamma=gamma, lam=0.5, omega=1.0)
        values.append(kernel_entry(0, 3, p))
    assert all(a > b > 0 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("lam, period_s", [(-1.0, 4 * np.pi), (-0.5, 8 * np.pi)])
def test_negative_branch_revival(lam, period_s):
    """The finite-space kernel is periodic in s = sqrt(gamma |y|).

    All tau_n = s * n(1 - |y| n) return to themselves (mod 2 pi) when s
    advances by the commensurate period, so the whole kernel matrix does.
    """
    y = abs(lam) / 2
    dim = 3 if lam == -1.0 else 5
    gamma = 1.3
    gamma_rev = (np.sqrt(gamma * y) + period_s) ** 2 / y
    K1 = kernel_matrix(ChannelParams(gamma=gamma, lam=lam, omega=1.0), dim).entries
    K2 = kernel_matrix(ChannelParams(gamma=gamma_rev, lam=lam, omega=1.0), dim).entries
    np.testing.assert_allclose(K1, K2, atol=1e-8)
    # starting from gamma = 0 the revival is back to the identity channel
    full = ChannelParams(gamma=period_s**2 / y, lam=lam, omega=1.0)
    np.testing.assert_allclose(kernel_matrix(full, dim).entries, np.ones((dim, dim)),
                               atol=1e-8)


def test_half_period_is_phase_flip():
    """Half a period in s restores all coherences up to an alternating sign."""
    p = ChannelParams(gamma=8 * np.pi**2, lam=-1.0, omega=1.0)
    u = np.array([1.0, -1.0, 1.0])
    np.testing.assert_allclose(kernel_matrix(p, 3).entries, np.outer(u, u), atol=1e-8)


@pytest.mark.parametrize("lam", [-0.02, -0.01])
@pytest.mark.parametrize("gamma", [0.2, 1.0, 4.0])
def test_large_negative_space_matches_oracle(lam, gamma):
    """The Gram-product kernel on d = 101 and 201 levels against the dilation.

    2 omega/|lam| is an integer here, so the oracle is exact.  The pairs mix
    neighbours (K of order one), mirror pairs n + m near d - 1 (where
    mu_n = mu_m and the kernel revives to 1) and far pairs.
    """
    p = ChannelParams(gamma=gamma, lam=lam, omega=1.0)
    d = max_dimension(p)
    ns = np.random.default_rng(11).integers(0, d - 3, size=10)
    pairs = [(int(n), int(n) + 1 + i % 3) for i, n in enumerate(ns[:5])]
    pairs += [(int(n), d - 3 - int(n) + i) for i, n in enumerate(ns[5:8])]
    pairs += [(int(ns[8]), int(ns[9])), (0, d - 1)]
    K = kernel_matrix(p, d).entries
    cells = kernel_oracle_table(pairs, p)
    worst = max(abs(K[n, m] - cell.value) for (n, m), cell in zip(pairs, cells))
    assert worst <= 1e-12
    assert K[0, d - 1] == 1.0


@pytest.mark.parametrize("lam", [-5e-5, -4.9e-5])
@pytest.mark.parametrize("gamma", [0.5, 4.0, 100.0])
def test_windowed_negative_kernel_matches_full_space_table(lam, gamma):
    """Above 32768 levels the lam<0 kernel sums the Gram product over the
    columns' amplitude windows only (d = 40001 at integer 2 omega/|lam|,
    40817 off it); it must equal the product over the whole space."""
    p = ChannelParams(gamma=gamma, lam=lam, omega=1.0)
    d = max_dimension(p)
    assert d == {-5e-5: 40001, -4.9e-5: 40817}[lam]
    for n, m in [(0, 1), (3, 4), (0, 11), (5, 40), (2, 200)]:
        D = amplitude_table(p, [n, m], d)
        want = float(np.clip(D[:, 0] @ D[:, 1], -1.0, 1.0))
        assert abs(kernel_entry(n, m, p) - want) <= 1e-14


def test_kernel_entry_at_a_mirror_pair_is_clipped_to_one():
    """mu_1 = mu_39 at 2 omega/|lam| = 40, so K = 1 up to rounding; the
    unclipped Gram product reads 1.0000000000000007."""
    p = ChannelParams(gamma=1.0, lam=-0.05, omega=1.0)
    assert kernel_entry(1, 39, p) == 1.0
    assert kernel_entry(1, 39, p) == kernel_matrix(p, 40).entries[1, 39]


def test_kernel_entry_beyond_negative_bound():
    p = ChannelParams(gamma=1.0, lam=-0.5, omega=1.0)
    with pytest.raises(DimensionError):
        kernel_entry(0, 5, p)


class TestOverlap:
    ALPHAS = [0.5, 1.0, 2.5, 7.0]

    def test_closed_form_matches_series(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            z = rng.uniform(-0.7, 0.7) + 1j * rng.uniform(-0.7, 0.7)
            x, y = z, rng.uniform(0.2, 0.7)
            if abs(x * y) > 0.5:
                continue
            for alpha in self.ALPHAS:
                for sign in ("+", "-"):
                    closed = overlap_closed_form(x, y, alpha, sign)
                    series = overlap_series(x, y, alpha, sign, terms=200)
                    assert abs(closed - series) <= 1e-10 * max(1.0, abs(closed))

    def test_alpha_one_is_geometric(self):
        # (1 - xy)^{-1} is the plain geometric series
        val = overlap_closed_form(0.3, 0.5, 1.0, "-")
        assert val == pytest.approx(1 / (1 - 0.15))


def test_coherent_vector_normalization():
    p = ChannelParams(gamma=1.0, lam=0.3, omega=1.0)
    v = coherent_vector(2, p)
    assert abs(np.sum(np.abs(v.amplitudes) ** 2) - 1) < 1e-9

    q = ChannelParams(gamma=1.0, lam=-0.5, omega=1.0)
    w = coherent_vector(3, q)
    assert w.env_dim == 5
    assert abs(np.sum(np.abs(w.amplitudes) ** 2) - 1) < 1e-12


def test_kernel_map_rows_and_validity():
    rows = kernel_map([-2.0, 0.0, 0.5], [0.0, 1.0], n=0, m=2)
    assert len(rows) == 6
    by_key = {(r.lam, r.gamma): r for r in rows}
    assert by_key[(0.0, 1.0)].K == pytest.approx(np.exp(-2.0))
    # m=2 does not exist in the lam=-2 space (bound is 2)
    assert not by_key[(-2.0, 1.0)].valid
    assert by_key[(0.5, 0.0)].valid and by_key[(0.5, 0.0)].K == 1.0


def test_kernel_map_csv_round_trip(tmp_path):
    rows = kernel_map([0.0, 0.5], [0.5, 1.5], n=0, m=1)
    path = tmp_path / "map.csv"
    write_kernel_map_csv(rows, path)
    write_kernel_map_csv(rows, tmp_path / "map2.csv")
    assert path.read_bytes() == (tmp_path / "map2.csv").read_bytes()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "lambda,gamma,n,m,K,valid"
    assert len(lines) == 5


MAP_LAMBDAS = [-1.0, -0.7, -0.5, -0.13, -0.1, -0.02, 0.0, 0.3, 1.0]
MAP_GAMMAS = [0.0, 0.5, 4.0, 12.0]


def _assert_rows_equal_entries(rows, lambdas, gammas, n, m):
    assert [(r.lam, r.gamma) for r in rows] == [(lam, g) for lam in lambdas
                                                for g in gammas]
    for r in rows:
        assert (r.n, r.m) == (n, m)
        if r.valid:
            assert r.K == kernel_entry(n, m, ChannelParams(r.gamma, r.lam))
        else:
            assert np.isnan(r.K)


@pytest.mark.parametrize("n, m", [(0, 2), (1, 5)])
def test_kernel_map_equals_kernel_entry_exactly(n, m):
    """Each row of a map, evaluated a lambda row at a time, is bit for bit
    the kernel_entry of its point, on all three branches."""
    rows = kernel_map(MAP_LAMBDAS, MAP_GAMMAS, n, m)
    _assert_rows_equal_entries(rows, MAP_LAMBDAS, MAP_GAMMAS, n, m)
    assert sum(r.valid for r in rows) == (36 if m == 2 else 24)


def test_windowed_kernel_map_equals_kernel_entry_exactly():
    """d = 40001 > 32768: the map's table spans the union of the windows of
    every gamma in a chunk, kernel_entry's only those of its own pair."""
    gammas = [0.0, 0.5, 4.0, 100.0]
    rows = kernel_map([-5e-5], gammas, 2, 7)
    assert all(r.valid for r in rows)
    _assert_rows_equal_entries(rows, [-5e-5], gammas, 2, 7)


def test_kernel_map_rows_past_the_negative_space_are_nan():
    rows = kernel_map([-1.0, -0.5], [0.0, 1.0], 0, 5)
    assert [r.valid for r in rows] == [False] * 4
    assert all(np.isnan(r.K) for r in rows)


def test_kernel_map_of_an_empty_grid_is_empty():
    assert kernel_map([], [0.5, 1.0], 0, 1) == []
    assert kernel_map([0.0, 0.5], [], 0, 1) == []
    assert kernel_map(np.array([0.5]), np.array([]), 0, 1) == []


@pytest.mark.parametrize("lambdas, gammas, n, message", [
    ([0.0], [0.5, -1.0, np.nan], 0, "gamma must be finite and >= 0, got -1.0"),
    ([0.0], [np.nan], 0, "gamma must be finite and >= 0, got nan"),
    ([0.3, 0.5], [1.0, -1.0], -1, "Fock index must be >= 0, got -1"),
    ([0.3], np.array([-1.0, 2.0]), -1, "gamma must be finite and >= 0, got -1.0"),
    ([-0.5], [-2.0, 1.0], -1, "gamma must be finite and >= 0, got -2.0"),
    ([-0.5], [1.0, -2.0], -1, "Fock index must be >= 0, got -1"),
    ([-0.5], [1.0, -2.0], 0, "gamma must be finite and >= 0, got -2.0"),
])
def test_kernel_map_raises_at_the_first_invalid_point(lambdas, gammas, n, message):
    """The first invalid point in grid order decides the error, as if every
    point were built on its own: a gamma before the index at the first gamma
    of a row, the index before any later gamma.  Past the lam<0 space (pair
    (0, 7) at lam = -0.5, dim 5) the pair is not an error, the gammas still
    are.  A negative index is refused in every row, also past that space, as
    kernel_entry refuses it."""
    with pytest.raises(DomainError) as info:
        kernel_map(lambdas, gammas, n, 7)
    assert str(info.value) == message


@pytest.mark.parametrize("lam, m", [(-6.2e-5, 40), (-3e-6, 60)])
def test_kernel_map_table_memory_is_bounded(lam, m):
    """A lam<0 row builds its table a chunk of gammas at a time.  One table
    over all 21 gammas peaks near 335 MB at lam = -3e-6; chunked, these
    peak near 17 MB (d = 32259, 16 gammas a chunk) and 3 MB (d = 666667,
    one gamma a chunk)."""
    tracemalloc.start()
    try:
        rows = kernel_map([lam], np.linspace(0.0, 300.0, 21), 0, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.valid for r in rows)
    assert peak <= 32 * 2**20


@pytest.mark.parametrize("lam", [1e-10, 1e-8, 1e-6, 1e-4, 0.02, 0.5])
@pytest.mark.parametrize("gamma", [0.01, 1.0])
@pytest.mark.parametrize("dim", [40, 100])
def test_positive_kernel_is_positive_semidefinite(lam, gamma, dim):
    """Exactly symmetric, exactly unit diagonal, and PSD to rounding: apply
    relies on this to skip the check of its output.  The cancelling form
    had eigenvalues down to -6.5e-8 at lam = 1e-8."""
    K = kernel_matrix(ChannelParams(gamma=gamma, lam=lam), dim).entries
    np.testing.assert_array_equal(K, K.T)
    np.testing.assert_array_equal(np.diag(K), np.ones(dim))
    assert np.linalg.eigvalsh(K).min() >= -1e-13


@pytest.mark.parametrize("lam", [1e-4, 1e-7, 1e-10])
@pytest.mark.parametrize("gamma", [0.01, 1.0])
def test_small_positive_lambda_matches_oracle(lam, gamma):
    """kernel_entry against the dilation on the pairs n < m < 8 the oracle
    certifies, to 1e-12 rather than test_02's 1e-6: the closed form is
    within 1.2e-15 here, the cancelling form was 1.8e-6 off."""
    p = ChannelParams(gamma=gamma, lam=lam)
    pairs = [(n, m) for n in range(8) for m in range(n + 1, 8)]
    cells = kernel_oracle_table(pairs, p)
    assert all(cell.converged for cell in cells)
    worst = max(abs(kernel_entry(n, m, p) - cell.value)
                for (n, m), cell in zip(pairs, cells))
    assert worst <= 1e-12


@pytest.mark.parametrize("lam", [1e-4, 1e-7, 1e-10])
@pytest.mark.parametrize("gamma", [0.01, 1.0])
def test_small_positive_lambda_coherent_vectors_match_oracle(lam, gamma):
    """coherent_vector(n), n <= 5, against the dilation's vacuum column: the
    rising factorial as a running log1p sum is within 1.2e-14 here, the
    gammaln difference was up to 9.6e-6 off (lam = 1e-10, gamma = 1)."""
    p = ChannelParams(gamma=gamma, lam=lam)
    worst = 0.0
    for n in range(6):
        cv = coherent_vector(n, p)
        ref = displacement_apply(mu(n, p), p, dim_e=256).amplitudes
        worst = max(worst, float(np.abs(cv.amplitudes - ref[:cv.env_dim]).max()))
    assert worst <= 1e-13


@pytest.mark.parametrize("lam", [1e-13, 1e-16, 1e-300])
def test_kernel_is_continuous_into_zero_lambda(lam):
    """lam -> 0+ reaches the lam = 0 Gaussian; the cancelling form returned
    exactly 1 (no dephasing) at lam = 1e-16."""
    flat = kernel_entry(0, 1, ChannelParams(gamma=1.0, lam=0.0))
    assert abs(kernel_entry(0, 1, ChannelParams(gamma=1.0, lam=lam)) - flat) <= 1e-12
