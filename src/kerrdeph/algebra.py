"""Deformed ladder algebra of a Kerr mode on a truncated Fock space.

The anharmonic Hamiltonian H = Omega a^dag a + (lam/2) a^dag^2 a^2 factorizes
exactly as H = omega A^dag A in terms of the deformed annihilator

    A = a f(n),    f(n) = sqrt(1 + y n),    y = lam / (2 omega),

with omega = Omega - lam/2.  For lam < 0 the factor f(n)^2 = 1 + y n turns
negative beyond n = 2 omega/|lam|, so the physical space is finite: states
n = 0 .. floor(2 omega/|lam|).  When 2 omega/|lam| is an exact integer the
boundary state has f = 0 and is annihilated by both A and A^dag.

K0 = [A, A^dag]/2 closes the algebra: [K0, A] = -y A, [K0, A^dag] = +y A^dag,
which is su(1,1)-type for lam > 0 and su(2)-type for lam < 0.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError

__all__ = [
    "ChannelParams",
    "TruncatedOperator",
    "deformation_factor",
    "max_dimension",
    "build_annihilator",
    "build_creator",
    "build_k0",
    "hamiltonian_identity_residual",
]


_DIM_LIMIT = 2.0**62  # largest lam<0 space indexable as int64 with headroom


@dataclass(frozen=True)
class ChannelParams:
    """Channel parameters (gamma, lam, omega) with derived quantities.

    Attributes:
        gamma: dephasing strength, >= 0 (dimensionless).
        lam: Kerr nonlinearity (real; same units as omega).
        omega: deformed frequency, > 0.  Bare frequency is Omega = omega + lam/2.
    """

    gamma: float
    lam: float
    omega: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise DomainError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not np.isfinite(self.omega) or self.omega <= 0:
            raise DomainError(f"omega must be finite and > 0, got {self.omega}")
        if not np.isfinite(self.lam):
            raise DomainError(f"lam must be finite, got {self.lam}")
        if self.lam != 0 and (self.y == 0 or np.isinf(1.0 / self.y)):
            raise DomainError(
                f"lam={self.lam} gives y = lam/(2 omega) = {self.y:.3g}, so the "
                f"kernel exponent 2 nu = 1/|y| +- 1 overflows"
            )

    @property
    def Omega(self) -> float:
        """Bare oscillator frequency; Omega - lam/2 == omega exactly."""
        return self.omega + self.lam / 2.0

    @property
    def y(self) -> float:
        """Deformation ratio lam / (2 omega)."""
        return self.lam / (2.0 * self.omega)

    @property
    def nu(self) -> float:
        """Kernel exponent: omega/|lam| + sign(lam)/2.  Undefined at lam = 0."""
        if self.lam == 0:
            raise DomainError("nu is undefined at lam = 0 (Gaussian kernel branch)")
        return self.omega / abs(self.lam) + (0.5 if self.lam > 0 else -0.5)


@dataclass(frozen=True)
class TruncatedOperator:
    """A dim x dim operator in the truncated Fock basis n = 0 .. dim-1."""

    dim: int
    entries: np.ndarray = field(repr=False)

    def adjoint(self) -> "TruncatedOperator":
        return TruncatedOperator(self.dim, self.entries.conj().T.copy())


def deformation_factor(n: int, p: ChannelParams) -> float:
    """f(n) = sqrt(1 + y n), the Kerr deformation of the ladder weight."""
    _check_index(n, p)
    return float(np.sqrt(max(1.0 + p.y * n, 0.0)))  # the boundary state gives 0


def max_dimension(p: ChannelParams):
    """Dimension of the physical space: finite for lam < 0, else None (unbounded).

    For lam < 0 the space is n = 0 .. n_max with n_max the largest integer
    satisfying 1 + y n >= 0, i.e. n_max = floor(2 omega/|lam|); the boundary
    state is included when 2 omega/|lam| is an exact integer (f(n_max) = 0).
    """
    if p.lam >= 0:
        return None
    bound = 2.0 * p.omega / abs(p.lam)
    if not bound < _DIM_LIMIT:
        raise DimensionError(
            f"the lam<0 space has dimension floor(2 omega/|lam|) + 1 = {bound:.3g} + 1, "
            f"beyond the index limit 2**62 (lam={p.lam}, omega={p.omega})"
        )
    # tiny slack so exact-integer bounds are not lost to rounding
    n_max = int(np.floor(bound + 1e-9))
    return n_max + 1


def _check_dim(p: ChannelParams, dim: int, name: str = "dim") -> None:
    """Raise DimensionError unless 1 <= dim <= the lam<0 space."""
    if _fit_dim(p, dim, name) != dim:
        raise DimensionError(f"{name} {dim} exceeds the lam<0 space (dim {max_dimension(p)})")


def _check_index(n, p: ChannelParams) -> None:
    """Raise unless every Fock index in n (a scalar or an array) is physical."""
    if np.min(n) < 0:
        raise DomainError(f"Fock index must be >= 0, got {np.min(n)}")
    bound = max_dimension(p)
    if bound is not None and np.max(n) >= bound:
        raise DimensionError(
            f"Fock index {np.max(n)} exceeds the lam<0 space (dim {bound})"
        )


def _fit_dim(p: ChannelParams, requested, name: str = "dim"):
    """requested cut to the lam<0 space; None asks for the whole space (None
    again for lam >= 0, where the space is unbounded).  DimensionError for a
    requested size below 1."""
    if requested is not None and requested < 1:
        raise DimensionError(f"{name} must be >= 1, got {requested}")
    bound = max_dimension(p)
    if bound is None:
        return requested
    return bound if requested is None else min(requested, bound)


def _annihilator_band(y: float, dim: int) -> np.ndarray:
    """The superdiagonal of A on dim levels, sqrt(n) f(n) for n = 1 .. dim-1,
    at deformation ratio y: also the couplings of B + B^dag."""
    n = np.arange(1, dim)
    return np.sqrt(n * np.maximum(1.0 + y * n, 0.0))  # boundary state may give exactly 0


def build_annihilator(p: ChannelParams, dim: int) -> TruncatedOperator:
    """Deformed annihilator A = a f(n): entry (n-1, n) = sqrt(n) f(n), others 0."""
    _check_dim(p, dim)
    return TruncatedOperator(dim, np.diag(_annihilator_band(p.y, dim), 1))


def build_creator(p: ChannelParams, dim: int) -> TruncatedOperator:
    """Deformed creator A^dag, stored as the exact adjoint of build_annihilator."""
    return build_annihilator(p, dim).adjoint()


def build_k0(p: ChannelParams, dim: int) -> TruncatedOperator:
    """K0 = [A, A^dag]/2, diagonal with entries k0(n) = y n + (1 + y)/2."""
    _check_dim(p, dim)
    n = np.arange(dim)
    return TruncatedOperator(dim, np.diag(p.y * n + (1.0 + p.y) / 2.0))


def hamiltonian_identity_residual(p: ChannelParams, dim: int) -> float:
    """Max-abs entry of omega A^dag A - (Omega n + (lam/2) n(n-1)).

    Both sides are diagonal; the identity is exact, so the residual is at
    rounding level for any valid dim.
    """
    _check_dim(p, dim)
    a = build_annihilator(p, dim).entries
    lhs = p.omega * (a.T @ a)
    n = np.arange(dim)
    rhs = np.diag(p.Omega * n + (p.lam / 2.0) * n * (n - 1.0))
    return float(np.abs(lhs - rhs).max())
