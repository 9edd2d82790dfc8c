"""Operator-level checks: deformed ladder algebra and the Hamiltonian identity."""

import numpy as np
import pytest

from kerrdeph import (
    ChannelParams,
    DimensionError,
    DomainError,
    build_annihilator,
    build_creator,
    build_k0,
    build_unitary,
    deformation_factor,
    hamiltonian_identity_residual,
    kernel_entry,
    kernel_matrix,
    kernel_oracle_table,
    kraus_set,
    max_dimension,
)

LAMBDAS = [-1.0, -0.5, -0.2, 0.0, 0.3, 1.0]


def _dim_for(p, want=8):
    bound = max_dimension(p)
    return want if bound is None else min(want, bound)


def test_params_domain_checks():
    with pytest.raises(DomainError):
        ChannelParams(gamma=-0.1, lam=0.0, omega=1.0)
    with pytest.raises(DomainError):
        ChannelParams(gamma=1.0, lam=0.0, omega=0.0)
    with pytest.raises(DomainError):
        ChannelParams(gamma=1.0, lam=0.0, omega=-2.0)
    # nonzero lam whose y = lam/(2 omega) underflows, or whose 1/y overflows
    for lam in [5e-324, -5e-324, 1e-310]:
        with pytest.raises(DomainError, match="overflows"):
            ChannelParams(gamma=1.0, lam=lam, omega=1.0)
    # a lam<0 space too large to index: refused before any int conversion
    with pytest.raises(DimensionError, match="2e\\+300"):
        max_dimension(ChannelParams(gamma=1.0, lam=-1e-300, omega=1.0))


def test_derived_parameters():
    p = ChannelParams(gamma=1.0, lam=0.5, omega=1.0)
    assert p.y == pytest.approx(0.25)
    assert 2 * p.nu == pytest.approx(1 / 0.25 + 1)

    q = ChannelParams(gamma=1.0, lam=-0.5, omega=1.0)
    assert q.y == pytest.approx(-0.25)
    assert 2 * q.nu == pytest.approx(1 / 0.25 - 1)


def test_deformation_factor():
    p = ChannelParams(gamma=1.0, lam=0.4, omega=1.0)
    for n in range(6):
        assert deformation_factor(n, p) == pytest.approx(np.sqrt(1 + p.y * n))


def test_deformation_factor_at_the_boundary():
    """The boundary level of an integer lam<0 space has f = 0, also where
    1 + y n rounds below 0 (-2.2e-16 at n = 57 for omega = 0.7, lam =
    -1.4/57); one level past the space is a DimensionError, as everywhere."""
    p = ChannelParams(gamma=1.0, lam=-1.4 / 57, omega=0.7)
    assert max_dimension(p) == 58
    assert deformation_factor(57, p) == 0.0
    q = ChannelParams(gamma=1.0, lam=-0.5, omega=1.0)
    assert deformation_factor(4, q) == 0.0
    with pytest.raises(DimensionError, match="exceeds the lam<0 space"):
        deformation_factor(5, q)
    with pytest.raises(DomainError, match="must be >= 0"):
        deformation_factor(-1, q)


_FIVE = ChannelParams(gamma=1.0, lam=-0.5, omega=1.0)  # levels 0..4


@pytest.mark.parametrize("call", [
    lambda: kernel_entry(0, 5, _FIVE),
    lambda: kernel_matrix(_FIVE, 6),
    lambda: kraus_set(_FIVE, 6),
    lambda: build_annihilator(_FIVE, 6),
    lambda: build_unitary(_FIVE, 1, 6),
    lambda: build_unitary(_FIVE, 6, 1),
    lambda: deformation_factor(5, _FIVE),
    lambda: kernel_oracle_table([(0, 5)], _FIVE),
], ids=["kernel_entry", "kernel_matrix", "kraus_set", "build_annihilator",
        "build_unitary-dim_e", "build_unitary-dim_s", "deformation_factor",
        "kernel_oracle_table"])
def test_one_past_the_negative_space_is_refused_in_one_wording(call):
    with pytest.raises(DimensionError, match=r"exceeds the lam<0 space \(dim 5\)"):
        call()


@pytest.mark.parametrize("lam", LAMBDAS)
def test_number_operator_spectrum(lam):
    """A^dag A must be diagonal with entries n(1 + y n)."""
    p = ChannelParams(gamma=1.0, lam=lam, omega=1.0)
    dim = _dim_for(p)
    a = build_annihilator(p, dim).entries
    num = build_creator(p, dim).entries @ a
    n = np.arange(dim)
    expected = np.diag(n * (1 + p.y * n))
    np.testing.assert_allclose(num, expected, atol=1e-12)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_ladder_commutators(lam):
    """[K0, A] = -y A and [A, A^dag]/2 = K0 away from the truncation edge."""
    p = ChannelParams(gamma=1.0, lam=lam, omega=1.0)
    dim = _dim_for(p)
    a = build_annihilator(p, dim).entries
    adag = build_creator(p, dim).entries
    k0 = build_k0(p, dim).entries
    s = np.s_[: dim - 1, : dim - 1]

    comm = k0 @ a - a @ k0
    np.testing.assert_allclose(comm[s], (-p.y * a)[s], atol=1e-12)
    half = 0.5 * (a @ adag - adag @ a)
    np.testing.assert_allclose(half[s], k0[s], atol=1e-12)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_hamiltonian_identity(lam):
    p = ChannelParams(gamma=1.0, lam=lam, omega=1.0)
    assert hamiltonian_identity_residual(p, _dim_for(p)) < 1e-12


def test_adjoint_pairs():
    p = ChannelParams(gamma=1.0, lam=0.3, omega=1.0)
    a = build_annihilator(p, 7)
    np.testing.assert_array_equal(a.adjoint().entries, a.entries.conj().T)
    np.testing.assert_array_equal(build_creator(p, 7).entries, a.entries.conj().T)


def test_flat_limit_is_standard_ladder():
    p = ChannelParams(gamma=1.0, lam=0.0, omega=1.0)
    a = build_annihilator(p, 6).entries
    expected = np.diag(np.sqrt(np.arange(1, 6)), k=1)
    np.testing.assert_allclose(a, expected, atol=0)


@pytest.mark.parametrize(
    "lam, bound",
    [(-0.5, 5), (-1.0, 3), (-2.0, 2), (-0.3, 7), (-2 / 3, 4)],
)
def test_negative_lambda_dimension_bound(lam, bound):
    p = ChannelParams(gamma=1.0, lam=lam, omega=1.0)
    assert max_dimension(p) == bound
    # constructions at the bound succeed, one past it must refuse
    build_annihilator(p, bound)
    with pytest.raises(DimensionError):
        build_annihilator(p, bound + 1)


def test_positive_lambda_has_no_bound():
    p = ChannelParams(gamma=1.0, lam=0.5, omega=1.0)
    assert max_dimension(p) is None
    build_annihilator(p, 64)
