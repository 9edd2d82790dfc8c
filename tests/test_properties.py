"""Property tests of the kernel, the Kraus family and the state check
over random parameters.

lam < 0 draws include non-integer 2 omega/|lam|, which the fixed grids of
the acceptance suite do not reach.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrdeph import (ChannelParams, amplitude_table, kernel_entry,
                      kernel_matrix, kraus_set, max_dimension)
from conftest import (eigvalsh_verdict, spectrum_with_min, state_with_spectrum,
                      verdict)

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
