"""Property tests of the kernel, the Kraus family, coherent-vector sizing,
phase covariance and the state check over random parameters.

lam < 0 draws include non-integer 2 omega/|lam|, which the fixed grids of
the acceptance suite do not reach.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrdeph import (ChannelParams, TruncationError, amplitude_table,
                      coherent_vector, complementary_apply, kernel_entry,
                      kernel_matrix, kraus_set, max_dimension,
                      phase_covariance_residual)
from kerrdeph.kernel import ENV_DIM_CAP
from conftest import (eigvalsh_verdict, random_density, spectrum_with_min,
                      state_with_spectrum, verdict)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


@st.composite
def params(draw, lam_max=2.0, gamma_max=6.0):
    """(ChannelParams, dim): lam < 0, = 0 or > 0, dim inside the physical space."""
    branch = draw(st.sampled_from(("neg", "zero", "pos")))
    omega = draw(st.floats(0.2, 2.0))
    gamma = draw(st.floats(0.0, gamma_max))
    if branch == "neg":
        lam = -draw(st.floats(0.02, 1.5))
    elif branch == "zero":
        lam = 0.0
    else:
        lam = draw(st.floats(0.01, lam_max))
    p = ChannelParams(gamma=gamma, lam=lam, omega=omega)
    bound = max_dimension(p)
    dim = draw(st.integers(1, 12 if bound is None else min(12, bound)))
    return p, dim


@SETTINGS
@given(params())
def test_kernel_is_a_gram_matrix(case):
    p, dim = case
    K = kernel_matrix(p, dim).entries
    np.testing.assert_array_equal(K, K.T)
    np.testing.assert_array_equal(np.diag(K), np.ones(dim))
    assert np.abs(K).max() <= 1.0
    assert np.linalg.eigvalsh(K).min() >= -1e-12


@SETTINGS
@given(params())
def test_kernel_matrix_agrees_with_entries(case):
    p, dim = case
    K = kernel_matrix(p, dim).entries
    E = np.array([[kernel_entry(n, m, p) for m in range(dim)] for n in range(dim)])
    assert np.abs(K - E).max() <= 1e-14
    assert np.abs(E).max() <= 1.0


@SETTINGS
@given(params(lam_max=0.3, gamma_max=1.0).filter(lambda c: c[1] <= 5))
def test_kraus_family_is_complete_and_reproduces_the_kernel(case):
    """sum_l K_l^2 = 1 and D^T D = K for the Kraus table D[l, n].

    A lam >= 0 family drops the rows of eigenvalues below its rounding
    threshold, so it misses at most its completeness residual in any entry
    of D^T D (Cauchy-Schwarz on the dropped rows).
    """
    p, dim = case
    ks = kraus_set(p, dim)
    assert ks.completeness_residual < 1e-8
    D = ks.diagonals
    K = kernel_matrix(p, dim).entries
    assert np.abs(D.T @ D - K).max() <= 1e-12 + ks.completeness_residual


@SETTINGS
@given(params(), st.integers(1, 512))
def test_amplitude_table_reproduces_the_kernel(case, L):
    """D^T D = K for the environment table D[k, n] = amplitude_table(p, n, L).

    lam < 0 takes the whole finite space; a truncated lam >= 0 table misses
    at most its missing mass max_n |1 - sum_k D[k, n]^2| in any entry
    (Cauchy-Schwarz on the dropped rows).
    """
    p, dim = case
    bound = max_dimension(p)
    D = amplitude_table(p, np.arange(dim), L if bound is None else bound)
    K = kernel_matrix(p, dim).entries
    missing = 0.0
    if bound is None:
        missing = float(np.abs(1.0 - np.sum(D * D, axis=0)).max())
    assert np.abs(D.T @ D - K).max() <= 1e-12 + missing


@SETTINGS
@given(params().filter(lambda c: c[0].lam >= 0))
def test_coherent_vectors_are_sized_once_and_minimally(case):
    """coherent_vector(n) refuses exactly when env_dim=ENV_DIM_CAP refuses.
    Otherwise its size d is the smallest certified one: env_dim=d gives the
    same amplitudes and env_dim=d-1 refuses.  complementary_apply's
    environment is the largest of its levels' d at the same tail_tol."""
    p, dim = case
    tol = 1e-13  # complementary_apply's default
    rho = np.eye(dim) / dim
    sizes = []
    for n in range(dim):
        try:
            v = coherent_vector(n, p, tail_tol=tol)
        except TruncationError:
            with pytest.raises(TruncationError):
                coherent_vector(n, p, env_dim=ENV_DIM_CAP, tail_tol=tol)
            with pytest.raises(TruncationError):
                complementary_apply(rho, p)
            return
        d = v.env_dim
        at_cap = coherent_vector(n, p, env_dim=ENV_DIM_CAP, tail_tol=tol)
        np.testing.assert_array_equal(at_cap.amplitudes[:d], v.amplitudes)
        again = coherent_vector(n, p, env_dim=d, tail_tol=tol)
        np.testing.assert_array_equal(again.amplitudes, v.amplitudes)
        if d > 1:
            with pytest.raises(TruncationError):
                coherent_vector(n, p, env_dim=d - 1, tail_tol=tol)
        sizes.append(d)
    assert complementary_apply(rho, p).dim == max(sizes)


@SETTINGS
@given(params(), st.floats(-2 * np.pi, 2 * np.pi), st.integers(0, 2**32 - 1))
def test_channel_is_phase_covariant(case, theta, seed):
    p, dim = case
    rho = random_density(np.random.default_rng(seed), dim)
    assert phase_covariance_residual(rho, theta, p) <= 1e-12


@SETTINGS
@given(st.integers(2, 40),
       st.one_of(st.floats(-2e-10, 0.0),
                 st.sampled_from([-1e-9, -1.01e-10, -1e-10, -0.99e-10, 0.0])),
       st.integers(0, 2**32 - 1))
def test_state_check_gives_the_eigvalsh_verdict(d, lam_min, seed):
    """DensityMatrix accepts exactly when eigvalsh's smallest eigenvalue is
    >= -1e-10, and refuses with the same message."""
    rng = np.random.default_rng(seed)
    m = state_with_spectrum(rng, spectrum_with_min(rng, d, lam_min))
    assert verdict(m) == eigvalsh_verdict(m)
