"""Channel forms: Hadamard action, Kraus family, complementary map,
Gaussian decomposition, and the validation helpers built on them."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, expm

from kerrdeph import (
    ChannelParams,
    DensityMatrix,
    DimensionError,
    DomainError,
    InvalidStateError,
    SingularityError,
    TruncationError,
    amplitude_table,
    apply,
    coherent_input_output,
    complementary_apply,
    complementary_spectrum,
    gaussian_decomposition,
    kernel_matrix,
    kraus_set,
    phase_covariance_residual,
    shannon_entropy,
    verify_gaussian_decomposition,
    von_neumann_entropy,
)
import kerrdeph.channel as channel_module
from kerrdeph.algebra import _annihilator_band
from conftest import (eigvalsh_verdict, random_density, random_pure,
                      spectrum_with_min, state_with_spectrum, verdict)


class TestDensityMatrix:
    def test_accepts_valid_state(self, rng):
        rho = random_density(rng, 5)
        assert rho.dim == 5
        assert np.trace(rho.entries) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.ones((2, 3)) / 6)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.1, 0.5]])
        with pytest.raises(InvalidStateError):
            DensityMatrix(m)

    def test_rejects_empty_state(self):
        with pytest.raises(InvalidStateError, match="non-empty"):
            DensityMatrix(np.zeros((0, 0)))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        m = np.array([[1.2, 0.0], [0.0, -0.2]])
        with pytest.raises(InvalidStateError):
            DensityMatrix(m)

    @pytest.mark.parametrize("m", [
        np.full((2, 2), np.nan),
        np.array([[0.5, np.inf], [np.inf, 0.5]]),
        np.diag([np.nan, 1.0]),
    ], ids=["all-nan", "inf-coherence", "nan-population"])
    def test_rejects_non_finite_entries(self, m):
        with pytest.raises(InvalidStateError, match="non-finite"):
            DensityMatrix(m)


class TestPositivityCheck:
    """The Cholesky certificate gives eigvalsh's verdict and message."""

    @pytest.mark.parametrize("d", [2, 50, 400])
    @pytest.mark.parametrize("lam_min", [-1e-9, -2e-10, -1.01e-10, -0.99e-10,
                                         -1e-11, 0.0])
    def test_prescribed_spectrum_near_threshold(self, rng, d, lam_min):
        m = state_with_spectrum(rng, spectrum_with_min(rng, d, lam_min))
        expected = eigvalsh_verdict(m)
        assert (expected is None) == (lam_min >= -1e-10)
        assert verdict(m) == expected

    def _valid_states(self, rng):
        v = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        v /= np.linalg.norm(v)
        yield "rank-1", np.outer(v, v.conj())
        yield "diagonal-with-zeros", np.diag([0.5, 0.0, 0.25, 0.0, 0.25, 0.0])
        yield "ginibre-400", random_density(rng, 400).entries
        for lam_min in (-1e-11, 0.0):
            yield f"lam_min={lam_min}", state_with_spectrum(
                rng, spectrum_with_min(rng, 400, lam_min))
        p = ChannelParams(gamma=0.2, lam=-0.002, omega=1.0)
        yield "coherent-d1001", coherent_input_output(3.0, p).entries

    def test_valid_states_take_the_cholesky_path(self, rng, monkeypatch):
        """Same verdict as eigvalsh, and no eigenvalue solve for these states,
        the d=1001 coherent output of lam=-0.002 included."""
        cases = list(self._valid_states(rng))
        for name, m in cases:
            assert eigvalsh_verdict(m) is None, name
        calls = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(a.shape) or solve(a))
        for name, m in cases:
            assert verdict(m) is None, name
        assert calls == []

    def test_refusal_falls_back_to_eigvalsh(self):
        m = np.array([[1.2, 0.0], [0.0, -0.2]])
        assert verdict(m) == eigvalsh_verdict(m) == "min eigenvalue -2.000e-01 < -1e-10"


class TestStatesAreCheckedOnce:
    """apply and coherent_input_output build their outputs unchecked: the
    checked input and a positive semidefinite kernel make them states."""

    def test_uniform_pure_state_at_small_lambda(self):
        """Refused as an output with eigenvalue -1.0e-9 while the lam > 0
        kernel cancelled; now accepted, and the output is PSD to rounding."""
        out = apply(np.ones((60, 60)) / 60, ChannelParams(gamma=0.01, lam=1e-8))
        assert np.linalg.eigvalsh(out.entries).min() >= -1e-14
        assert verdict(out.entries) is None

    def test_each_state_is_checked_once(self, rng, monkeypatch):
        """One positivity check per caller matrix, none per output."""
        p = ChannelParams(gamma=1.0, lam=0.3)
        rho = random_density(rng, 6)
        calls = []
        check = channel_module._certified_psd
        monkeypatch.setattr(channel_module, "_certified_psd",
                            lambda h: calls.append(h.shape) or check(h))
        apply(rho.entries, p)
        assert calls == [(6, 6)]
        apply(rho, p)
        coherent_input_output(1.2, p)
        coherent_input_output(0.7, ChannelParams(gamma=1.0, lam=-0.1))
        assert calls == [(6, 6)]
        # its trace rests on the tail tolerance, so its output is checked,
        # but its positivity follows from its factor X diag(d) X^H, d >= 0
        complementary_apply(rho, ChannelParams(gamma=1.0, lam=0.0))
        assert calls == [(6, 6)]

    def test_checked_entries_cannot_change(self, rng):
        """A state owns read-only entries: editing the caller's matrix after
        the check, or the state's own, cannot void an unchecked output."""
        p = ChannelParams(gamma=1.0, lam=0.3)
        a = random_density(rng, 5).entries.copy()
        rho = DensityMatrix(a)
        a[0, 0] = 7.0
        assert rho.entries[0, 0] != 7.0
        env = complementary_apply(rho, ChannelParams(gamma=1.0, lam=0.0))
        for state in (rho, apply(rho, p), coherent_input_output(1.2, p), env):
            with pytest.raises(ValueError):
                state.entries[0, 0] = 7.0

    @pytest.mark.parametrize("lam", [-0.1, -0.02, 0.0, 1e-10, 1e-8, 1e-4, 0.5])
    @pytest.mark.parametrize("gamma", [0.01, 1.0, 4.0])
    def test_outputs_pass_the_full_check(self, lam, gamma, rng):
        """Ginibre, random pure, uniform and K's lowest eigenvector as inputs,
        and coherent inputs, on all three branches."""
        p = ChannelParams(gamma=gamma, lam=lam)
        dim = 21 if lam == -0.1 else 40
        V = np.linalg.eigh(kernel_matrix(p, dim).entries)[1]
        inputs = [random_density(rng, dim), random_pure(rng, dim),
                  DensityMatrix(np.ones((dim, dim)) / dim),
                  DensityMatrix(np.outer(V[:, 0], V[:, 0]))]
        outputs = [apply(rho, p) for rho in inputs]
        outputs += [coherent_input_output(a, p) for a in (1.0, 2.5 - 1.0j)]
        for out in outputs:
            assert verdict(out.entries) is None
            assert out.dim == len(out.entries)


@pytest.mark.parametrize("lam", [-0.5, 0.0, 0.3])
def test_apply_preserves_diagonal_exactly(lam, rng):
    """Dephasing: populations must come through bit-for-bit."""
    p = ChannelParams(gamma=1.7, lam=lam, omega=1.0)
    dim = 5 if lam == -0.5 else 6
    for _ in range(5):
        rho = random_density(rng, dim)
        out = apply(rho, p)
        np.testing.assert_array_equal(np.diag(out.entries), np.diag(rho.entries))


def test_apply_is_hadamard_product(rng):
    p = ChannelParams(gamma=0.9, lam=0.4, omega=1.0)
    rho = random_density(rng, 6)
    K = kernel_matrix(p, 6).entries
    np.testing.assert_array_equal(apply(rho, p).entries, K * rho.entries)


def test_flat_composition_semigroup(rng):
    """At lam=0 applying gamma1 then gamma2 equals applying gamma1+gamma2."""
    rho = random_density(rng, 6)
    a = apply(apply(rho, ChannelParams(gamma=0.4, lam=0.0, omega=1.0)),
              ChannelParams(gamma=1.1, lam=0.0, omega=1.0))
    b = apply(rho, ChannelParams(gamma=1.5, lam=0.0, omega=1.0))
    np.testing.assert_allclose(a.entries, b.entries, atol=1e-15)


class TestKraus:
    def test_negative_branch_family_is_exact_and_finite(self):
        p = ChannelParams(gamma=1.0, lam=-0.5, omega=1.0)
        ks = kraus_set(p, dim=5)
        assert len(ks) == 5
        assert ks.completeness_residual < 1e-14

    def test_completeness(self):
        for lam, gamma in [(-0.5, 2.0), (0.0, 1.0), (0.4, 0.5)]:
            p = ChannelParams(gamma=gamma, lam=lam, omega=1.0)
            dim = 5 if lam < 0 else 6
            ks = kraus_set(p, dim=dim)
            total = np.zeros(dim)
            for op in ks.operators():
                total += np.abs(np.diag(op)) ** 2
            np.testing.assert_allclose(total, np.ones(dim), atol=1e-8)

    def test_operator_sum_matches_hadamard(self, rng):
        p = ChannelParams(gamma=0.8, lam=0.3, omega=1.0)
        rho = random_density(rng, 5)
        ks = kraus_set(p, dim=5)
        acc = np.zeros((5, 5), dtype=complex)
        for op in ks.operators():
            acc += op @ rho.entries @ op.conj().T
        np.testing.assert_allclose(acc, apply(rho, p).entries, atol=1e-8)

    def test_truncation_error_when_environment_explodes(self):
        # strong positive-branch dephasing needs millions of environment
        # levels for 1e-8 completeness; a short explicit env_dim must refuse
        p = ChannelParams(gamma=2.0, lam=0.4, omega=1.0)
        with pytest.raises(TruncationError):
            kraus_set(p, dim=6, env_dim=512)

    @pytest.mark.parametrize("lam, gamma, dim", [
        (0.4, 1.0, 8), (0.4, 0.5, 8), (0.0, 2.0, 8), (0.0, 0.0, 6),
        (0.0, 1e-3, 40), (1.0, 0.5, 12)])
    def test_positive_branch_family_has_the_rank_of_the_kernel(self, lam, gamma, dim):
        """K = D^T D with rank K operators; (0.4, 1.0, 8) needs millions of
        environment levels, and gamma=0 leaves one operator."""
        p = ChannelParams(gamma=gamma, lam=lam, omega=1.0)
        ks = kraus_set(p, dim)
        K = kernel_matrix(p, dim).entries
        assert len(ks) == np.linalg.matrix_rank(K)
        D = ks.diagonals
        # a rank-deficient K also loses the eigenvalues below dim*eps*max(w)
        tol = 1e-14 if len(ks) == dim else 1e-13
        assert ks.completeness_residual <= tol
        assert np.abs(D.T @ D - K).max() <= tol

    @pytest.mark.parametrize("lam, gamma, L, rows", [(0.3, 0.2, 256, 256),
                                                     (0.4, 0.0, 64, 1)])
    def test_explicit_env_dim_is_the_amplitude_table(self, lam, gamma, L, rows):
        p = ChannelParams(gamma=gamma, lam=lam, omega=1.0)
        ks = kraus_set(p, 5, env_dim=L)
        D = amplitude_table(p, np.arange(5), L)
        assert len(ks) == rows
        np.testing.assert_array_equal(ks.diagonals, D[:rows])


class TestComplementary:
    def test_trace_preserved(self, rng):
        p = ChannelParams(gamma=0.5, lam=-0.5, omega=1.0)
        rho = random_density(rng, 5)
        env = complementary_apply(rho, p)
        assert np.trace(env.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_pure_input_entropies_agree(self, rng):
        """For a pure input, S(system output) = S(environment output)."""
        p = ChannelParams(gamma=1.0, lam=-0.5, omega=1.0)
        for _ in range(3):
            psi = random_pure(rng, 5)
            s_out = von_neumann_entropy(apply(psi, p).entries)
            s_env = von_neumann_entropy(complementary_apply(psi, p).entries)
            assert s_out == pytest.approx(s_env, abs=1e-9)

    def test_diagonal_input_spectrum_matches_gram(self, rng):
        p = ChannelParams(gamma=0.7, lam=0.2, omega=1.0)
        pvec = rng.dirichlet(np.ones(5))
        rho = DensityMatrix(np.diag(pvec))
        env = complementary_apply(rho, p)
        got = np.sort(np.linalg.eigvalsh(env.entries))[::-1]
        want = complementary_spectrum(pvec, p)
        np.testing.assert_allclose(got[: len(want)], want, atol=1e-10)

    def test_spectrum_is_a_distribution(self, rng):
        p = ChannelParams(gamma=1.3, lam=-0.4, omega=1.0)
        q = complementary_spectrum(rng.dirichlet(np.ones(4)), p)
        assert np.all(q >= 0)
        assert np.sum(q) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(q) <= 1e-15)

    def test_rejects_non_distribution(self):
        p = ChannelParams(gamma=1.0, lam=0.0, omega=1.0)
        with pytest.raises(DomainError):
            complementary_spectrum(np.array([0.7, 0.7, -0.4]), p)

    def test_positivity_follows_from_the_factor(self, monkeypatch):
        """With every input diagonal entry >= 0 the output X diag(d) X^H is
        not factorized; a state whose diagonal dips below 0 (within the -1e-10
        bound) gets the full check, and the trace check runs either way."""
        p = ChannelParams(gamma=4.0, lam=0.0)
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        dipped = DensityMatrix(np.diag([0.5, 0.5 + 1e-11, -1e-11]))
        calls = []
        check = channel_module._certified_psd
        monkeypatch.setattr(channel_module, "_certified_psd",
                            lambda h: calls.append(h.shape) or check(h))
        env = complementary_apply(rho, p)
        assert calls == []
        assert np.linalg.eigvalsh(env.entries).min() >= -1e-14
        L = complementary_apply(dipped, p).dim
        assert calls == [(L, L)]
        with pytest.raises(InvalidStateError, match="trace residual"):
            complementary_apply(rho, p, tail_tol=1e-6)

    def test_truncation_refusal_at_default_cap(self):
        p = ChannelParams(gamma=0.8, lam=0.4, omega=1.0)
        rho = DensityMatrix(np.diag([0.2, 0.2, 0.2, 0.2, 0.1, 0.1]))
        with pytest.raises(TruncationError):
            complementary_apply(rho, p)


    def test_refusal_names_the_cap_and_the_predicted_size(self):
        """n=9 at (lam=0.3, gamma=0.5) has mean environment level
        2 nu sinh^2(tau_9) = 2.06e5, far above the 512-level cap."""
        p = ChannelParams(gamma=0.5, lam=0.3, omega=1.0)
        with pytest.raises(TruncationError, match=r"cap 512 .*2\.06e\+05 levels"):
            complementary_apply(DensityMatrix(np.eye(10) / 10), p)


class TestCoherentInput:
    def test_output_is_valid_state(self):
        p = ChannelParams(gamma=1.0, lam=0.3, omega=1.0)
        out = coherent_input_output(1.2, p)
        assert np.trace(out.entries).real == pytest.approx(1.0, abs=1e-10)

    def test_negative_branch_projects_to_bound(self):
        p = ChannelParams(gamma=1.0, lam=-0.5, omega=1.0)
        out = coherent_input_output(0.7, p, dim=12)
        assert out.dim == 5

    def test_vacuum_input_is_fixed_point(self):
        p = ChannelParams(gamma=3.0, lam=0.5, omega=1.0)
        out = coherent_input_output(0.0, p, dim=4)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(out.entries, expected, atol=1e-14)

    @pytest.mark.parametrize("lam", [-0.5, 0.0, 0.3])
    def test_complex_alpha(self, lam):
        """The diagonal is Poisson(|alpha|^2) on the output's levels, and
        rho_01 carries the phase -arg(alpha) (K_01 > 0 here)."""
        alpha = 1.5 - 0.7j
        out = coherent_input_output(alpha, ChannelParams(gamma=1.0, lam=lam)).entries
        k = np.arange(len(out))
        a2 = abs(alpha) ** 2
        poisson = np.exp(-a2 + k * math.log(a2) - np.array([math.lgamma(x + 1) for x in k]))
        diag = np.real(np.diag(out))
        np.testing.assert_allclose(diag, poisson / poisson.sum(), rtol=0, atol=1e-12)
        if lam >= 0:
            np.testing.assert_allclose(diag, poisson, rtol=0, atol=1e-10)
        assert np.angle(out[0, 1]) == pytest.approx(-np.angle(alpha), abs=1e-12)

    def test_projection_of_a_distant_state_does_not_underflow(self):
        """|alpha|=30 projected onto the 5-level space of lam=-0.5: every
        amplitude is below 1e-190, yet the renormalized state is valid."""
        out = coherent_input_output(30.0, ChannelParams(gamma=1.0, lam=-0.5))
        k = np.arange(out.dim)
        logw = k * math.log(900.0) - np.array([math.lgamma(x + 1) for x in k])
        w = np.exp(logw - logw.max())
        np.testing.assert_allclose(np.real(np.diag(out.entries)), w / w.sum(),
                                   rtol=0, atol=1e-12)

    def test_large_negative_space(self):
        """|3> on the d=1001 space of lam=-0.002: a valid state whose
        diagonal is the coherent distribution projected onto the space."""
        p = ChannelParams(gamma=0.2, lam=-0.002, omega=1.0)
        out = coherent_input_output(3.0, p)
        assert out.dim == 1001
        k = np.arange(out.dim)
        logw = k * np.log(9.0) - np.array([math.lgamma(x + 1) for x in k])
        w = np.exp(logw - logw.max())
        np.testing.assert_allclose(np.real(np.diag(out.entries)), w / w.sum(),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("call", [
    lambda: kraus_set(ChannelParams(gamma=1.0, lam=0.4), 0),
    lambda: kraus_set(ChannelParams(gamma=1.0, lam=-0.5), 0),
    lambda: kraus_set(ChannelParams(gamma=1.0, lam=0.4), 3, env_dim=-5),
    lambda: coherent_input_output(1.0, ChannelParams(gamma=1.0, lam=0.4), dim=0),
    lambda: coherent_input_output(1.0, ChannelParams(gamma=1.0, lam=-0.5), dim=-1),
], ids=["kraus-dim-0", "kraus-lam<0-dim-0", "kraus-env_dim-negative",
        "coherent-dim-0", "coherent-lam<0-dim-negative"])
def test_bad_sizes_raise_dimension_error(call):
    with pytest.raises(DimensionError, match="must be >= 1"):
        call()


class TestGaussianDecomposition:
    def test_zero_beta(self):
        assert gaussian_decomposition(0.0, 1.0) == (0.0, 1.0)

    def test_rejects_flat_algebra(self):
        with pytest.raises(DomainError):
            gaussian_decomposition(0.5, 0.0)

    def test_negative_branch_singularity(self):
        with pytest.raises(SingularityError):
            gaussian_decomposition(np.pi / 2, -2.0)

    @pytest.mark.parametrize("lam, beta", [(0.5, 0.8), (0.5, 0.3 + 0.4j),
                                           (-0.2, 1.0), (-0.2, 0.6j)])
    def test_matrix_identity(self, lam, beta):
        p = ChannelParams(gamma=1.0, lam=lam, omega=1.0)
        assert verify_gaussian_decomposition(beta, p, dim=8) < 1e-8

    @pytest.mark.parametrize("lam, beta, dim", [(1.0, 2.0, 8), (1.0, 2.0, 6),
                                                (3.0, 1.5, 8)])
    def test_buffer_grows_until_the_corner_settles(self, lam, beta, dim):
        """A fixed 50-level buffer read 6.9e-7, 2.4e-9 and 2.3e-2 here: the
        cutoff, not the identity, was off."""
        p = ChannelParams(gamma=1.0, lam=lam, omega=1.0)
        assert verify_gaussian_decomposition(beta, p, dim) <= 1e-13

    def test_refuses_a_dim_where_the_product_only_rounds(self):
        """At (lam=0.5, beta=0.7) the right-hand factors' entries grow with
        dim while the corner's stay below 1, so the product cancels: its
        rounding bound dim u max|L||D||U| reads 8e-12 at dim 20 and 1.1e2 at
        dim 80, where the residual read 0.88 and measured only rounding."""
        p = ChannelParams(gamma=1.0, lam=0.5, omega=1.0)
        assert verify_gaussian_decomposition(0.7, p, 20) < 1e-8
        with pytest.raises(DimensionError, match=r"^the 80x80 product .* at beta=0\.7\+0j "
                           r"can round by up to 1\.1e\+02 \(dim u max\|L\|\|D\|\|U\|\), "
                           r"not below 1e-08"):
            verify_gaussian_decomposition(0.7, p, 80)

    @pytest.mark.parametrize("lam", [0.5, 3.0, -0.2])
    def test_triangular_factors_are_finite_sums(self, lam):
        """exp of the nilpotent zeta A^dag and -zeta* A on dim levels is the
        finite sum of their powers, which matches expm."""
        p = ChannelParams(gamma=1.0, lam=lam, omega=1.0)
        a = channel_module.build_annihilator(p, 8).entries
        for beta in (0.3, 0.7 * np.exp(0.7j), 1.5 if lam > 0 else 1.0):
            zeta, _ = gaussian_decomposition(beta, 2.0 * p.y)
            for m in (zeta * a.T, -np.conj(zeta) * a):
                want = expm(m)
                np.testing.assert_allclose(channel_module._nilpotent_exp(m), want,
                                           rtol=0, atol=1e-14 * np.abs(want).max())

    def test_refuses_a_corner_that_moves_at_the_cap(self, monkeypatch):
        # 29, 58, 116 levels fit under a 128-level cap; at 116 the corner
        # still moves by about 2e-2
        monkeypatch.setattr(channel_module, "_LEVEL_CAP", 128)
        p = ChannelParams(gamma=1.0, lam=3.0, omega=1.0)
        with pytest.raises(TruncationError, match=r"still moved by .* at 116 levels \(cap 128\)"):
            verify_gaussian_decomposition(1.5, p, 8)

    @pytest.mark.parametrize("lam", [0.5, 1.0, -0.2, -0.5, -1.0, -2.0])
    def test_corner_route_matches_the_dense_exponentials(self, lam):
        """Reference: both sides as dense matrices on the buffered space
        (8 + 50 levels for lam > 0, the closed block for lam < 0), compared
        on the corner.  The left side comes from np.linalg.eigh of the
        Hermitian i(beta A^dag - beta* A), the right side from expm of the
        two triangular factors and the elementwise exponential of the
        diagonal one.  Wherever that reference is at rounding level
        (<= 1e-13) the corner route agrees with it to 1e-13.  lam = -0.5 has
        a 4-level closed block, so only dim 3 fits there; the smallest
        blocks (lam = -1, -2: 2 and 1 levels) are compared at dims 1-2."""
        p = ChannelParams(gamma=1.0, lam=lam, omega=1.0)
        D = round(2.0 * p.omega / abs(lam)) if lam < 0 else 8 + 50
        dims = [d for d in ((3, 6, 8) if D > 2 else (1, 2)) if d <= D]
        a = channel_module.build_annihilator(p, D).entries
        k0 = np.diag(channel_module.build_k0(p, D).entries)
        compared = 0
        for beta in (0.0, 0.3, 0.7 * np.exp(0.7j), 1.0, -0.9, 0.8j):
            zeta, zeta0 = gaussian_decomposition(beta, 2.0 * p.y)
            w, W = np.linalg.eigh(1j * (beta * a.T - np.conj(beta) * a))
            lhs = (W * np.exp(-1j * w)) @ W.conj().T
            rhs = (expm(zeta * a.T) * np.exp(math.log(zeta0) * k0)) @ expm(-np.conj(zeta) * a)
            for dim in dims:
                reference = float(np.abs((lhs - rhs)[:dim, :dim]).max())
                if reference <= 1e-13:
                    compared += 1
                    residual = verify_gaussian_decomposition(beta, p, dim)
                    assert abs(residual - reference) <= 1e-13, (beta, dim)
        assert compared == 6 * len(dims)

    @pytest.mark.parametrize("lam", [0.5, 3.0, -0.2])
    def test_right_side_corner_is_the_product_of_corners(self, lam):
        """exp(zeta A^dag) is lower and exp(-zeta* A) upper triangular, so the
        corner of the buffered product is the product on dim levels."""
        p = ChannelParams(gamma=1.0, lam=lam, omega=1.0)
        D = 10 if lam < 0 else 58

        def product(beta, levels):
            zeta, zeta0 = gaussian_decomposition(beta, 2.0 * p.y)
            a = channel_module.build_annihilator(p, levels).entries
            k0 = channel_module.build_k0(p, levels).entries
            return expm(zeta * a.T) @ expm(math.log(zeta0) * k0) @ expm(-np.conj(zeta) * a)

        for beta in (0.3, 0.7 * np.exp(0.7j), 1.5):
            full = product(beta, D)
            for dim in (3, 6, 8):
                np.testing.assert_allclose(full[:dim, :dim], product(beta, dim),
                                           rtol=0, atol=1e-13)


def test_gaussian_check_exponentiates_only_the_corner(monkeypatch):
    """Only the dim x dim right-hand factors are exponentiated, as finite
    sums with no expm; the buffered left-hand side is a tridiagonal
    eigenproblem."""
    shapes = []
    nilpotent_exp = channel_module._nilpotent_exp
    monkeypatch.setattr(channel_module, "_nilpotent_exp",
                        lambda m: shapes.append(m.shape) or nilpotent_exp(m))
    for beta in (0.3, 0.7 * np.exp(0.7j), 1.0):
        assert verify_gaussian_decomposition(beta, ChannelParams(1, .5), 6) < 1e-13
    assert shapes == [(6, 6)] * 6
    assert not hasattr(channel_module, "expm")


def _eigh_corner(beta, p, dim, levels):
    """The left-hand corner from eigh_tridiagonal's dense eigenvector matrix."""
    theta, W = eigh_tridiagonal(np.zeros(levels), _annihilator_band(p.y, levels))
    rows = ((1j * beta / abs(beta)) ** np.arange(dim))[:, None] * W[:dim]
    return (rows * np.exp(-1j * abs(beta) * theta)) @ rows.conj().T


@pytest.mark.parametrize("lam, dim, levels", [(-0.02, 20, 100), (-0.02, 50, 100),
                                              (-0.02, 100, 100), (-2 / 101, 101, 101),
                                              (-0.01, 200, 200), (0.5, 300, 600),
                                              (3.0, 20, 1024)])
def test_displacement_corner_matches_the_eigenvector_matrix(lam, dim, levels):
    """The left-hand corner where its rows reach nodes of underflowing vacuum
    weight (200 of 300 at lam = 0.5) and, in a closed lam < 0 block, the
    middle and the mirrored half.  Rows from v_0 = sqrt(w) alone were off by
    37 and 0.12 at lam = -0.01 and 0.5.  At lam = 3 nodes leave the row walk
    past row dim (512 to 349)."""
    p = ChannelParams(gamma=1.0, lam=lam, omega=1.0)
    for beta in (0.3, 1.0, 0.7 * np.exp(0.7j)):
        corner = channel_module._displacement_corner(beta, p, dim, levels)
        np.testing.assert_allclose(corner, _eigh_corner(beta, p, dim, levels), rtol=0, atol=1e-12)


def test_unsettled_corner_is_refused_in_linear_memory():
    """The rows of the corner come from the three-term recurrence, so a
    corner that never settles climbs to 2240 levels holding O(levels)
    arrays; a dense eigenvector matrix peaked at 77 MiB here."""
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError, match=r"^the 20x20 corner of exp\(beta A\^dag "
                           r"- beta\* A\) at beta=3\+0j still moved by 8\.5e-08 at 2240 "
                           r"levels \(cap 4096\)$"):
            verify_gaussian_decomposition(3.0, ChannelParams(1, 3), 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_large_closed_block_in_linear_memory():
    """lam = -2.5e-4 closes at M = 8000 levels, whose dense eigenvector
    matrix alone is 488 MiB."""
    tracemalloc.start()
    try:
        residual = verify_gaussian_decomposition(0.5, ChannelParams(1, -2.5e-4), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual <= 1e-12
    assert peak <= 32 * 2**20


@pytest.mark.parametrize("lam", [-0.4, 0.0, 0.4])
@pytest.mark.parametrize("theta", [0.0, 1.3, np.pi])
def test_phase_covariance(lam, theta, rng):
    p = ChannelParams(gamma=1.1, lam=lam, omega=1.0)
    dim = 5 if lam < 0 else 6
    rho = random_density(rng, dim)
    assert phase_covariance_residual(rho, theta, p) < 1e-12


def test_entropy_helpers(rng):
    assert shannon_entropy(np.ones(8) / 8) == pytest.approx(3.0)
    assert von_neumann_entropy(np.diag([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    rho = random_pure(rng, 6)
    assert von_neumann_entropy(rho.entries) == pytest.approx(0.0, abs=1e-9)
