"""Dephasing kernel of the Kerr-deformed channel.

The channel multiplies each Fock matrix element rho_{nm} by a real kernel
K_{n,m} = <c_n | c_m>, the overlap of two nonlinear coherent environment
states |c_n> = exp(-i mu_n (B + B^dag)) |0> with displacement magnitude

    mu_n = sqrt(gamma) n (1 + y n),    tau_n = sqrt(|y|) mu_n.

All amplitudes come from one real table D[k, n] (amplitude_table), whose
k-only terms (gammaln, binomials) are computed once per row and broadcast;
coherent_vector is a column of it times (-i)^k, the lam < 0 Kraus family
the table.
  lam = 0   K = exp(-(mu_n - mu_m)^2 / 2) = exp(-gamma (n-m)^2 / 2)
  lam > 0   K = sech^{2 nu}(tau_n - tau_m),  nu = omega/lam + 1/2
            (identical to [(1-t_n^2)(1-t_m^2)]^nu / (1-t_n t_m)^{2 nu}
             with t = tanh tau, but immune to tanh saturating at 1.0)
  lam < 0   K = D^T D, the Gram product of the table on the finite space;
            the closed-form power cos^{2 nu} is branch-ambiguous and never used.
The lam >= 0 forms are evaluated on the whole matrix |mu_n - mu_m| at once.

The lam < 0 amplitudes carry the sign of the cos^{2 nu - k} prefactor.  For
integer 2 omega/|lam| this reproduces the exact su(2) evolution (checked
against the matrix-exponential oracle to 6e-15, including odd 2 nu where the
bare tan^k form is off by O(1)); otherwise the formula is a model and the
sign exponent uses round(2 nu).  Windowing: above 32768 levels the kernel's
table keeps only the union of its columns' windows (binomial mean +- 45
sigma + 64 levels, see _neg_rows); amplitude_table spans every level asked.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from . import _parallel
from .algebra import ChannelParams, max_dimension
from .errors import DimensionError, DivergenceError, DomainError, TruncationError

__all__ = [
    "KernelMatrix",
    "CoherentVector",
    "tau",
    "amplitude_table",
    "coherent_vector",
    "kernel_entry",
    "kernel_matrix",
    "overlap_closed_form",
    "overlap_series",
    "kernel_map",
    "write_kernel_map_csv",
]

#: growth cap for automatic lam>0 environment truncation
ENV_DIM_CAP = 512
#: tail tolerance target for automatic truncation
TAIL_TOL = 1e-10


@dataclass(frozen=True)
class KernelMatrix:
    """Real symmetric dephasing multipliers K_{n,m} with unit diagonal."""

    dim: int
    entries: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class CoherentVector:
    """Environment Fock amplitudes of D(-i tau_n)|0>.

    tail_bound is the rigorous bound on the probability mass beyond env_dim
    (zero for lam < 0, where the space is finite and the vector exact).
    """

    env_dim: int
    amplitudes: np.ndarray = field(repr=False)
    tail_bound: float = 0.0


def mu(n, p: ChannelParams):
    """Displacement magnitude mu_n = sqrt(gamma) n (1 + y n); n may be an array."""
    return math.sqrt(p.gamma) * n * (1.0 + p.y * n)


def tau(n: int, p: ChannelParams) -> float:
    """tau_n = sqrt(gamma |lam| / (2 omega)) n (1 + y n); 0 when lam = 0."""
    _check_index(n, p)
    return math.sqrt(abs(p.y)) * mu(n, p)


def _check_index(n, p: ChannelParams) -> None:
    """Raise unless every Fock index in n (a scalar or an array) is physical."""
    if np.min(n) < 0:
        raise DomainError(f"Fock index must be >= 0, got {np.min(n)}")
    bound = max_dimension(p)
    if bound is not None and np.max(n) >= bound:
        raise DimensionError(
            f"Fock index {np.max(n)} exceeds the lam<0 space (dim {bound})"
        )


# ---------------------------------------------------------------------------
# the amplitude table (all three regimes)
# ---------------------------------------------------------------------------

def _pow_log(e, x):
    """log|x|^e for a column of exponents e and a row of bases x, with 0^0 = 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = e * np.log(np.abs(x))
    out[e[:, 0] == 0] = 0.0
    return out


def _log_amplitudes(p: ChannelParams, mus, ks) -> np.ndarray:
    """lam >= 0: log amplitudes [k, j] of the normalized expansion, over
    levels ks (rows) and displacement magnitudes mus (columns)."""
    ks = np.asarray(ks, dtype=float)[:, None]
    mus = np.asarray(mus, dtype=float)
    if p.lam == 0:
        out = _pow_log(ks, mus)
        out -= 0.5 * mus**2
        out -= 0.5 * gammaln(ks + 1)
        return out
    two_nu = 1.0 / p.y + 1.0
    taus = math.sqrt(p.y) * mus
    out = _pow_log(ks, np.tanh(taus))
    # nu log(1-t^2) = 2 nu log(sech tau), computed saturation-free
    out += two_nu * (math.log(2.0) - taus - np.log1p(np.exp(-2.0 * taus)))
    out += 0.5 * (gammaln(two_nu + ks) - gammaln(two_nu) - gammaln(ks + 1))
    return out


def _amplitudes(p: ChannelParams, mus, ks) -> np.ndarray:
    """Real amplitude table D[k, j] over levels ks and displacements mus.

    The (-i)^k phase is left out.  lam < 0: magnitude cos^{2nu-k}(tau)
    sin^k(tau) sqrt(binom(2nu, k)) with sign sign(sin)^k
    sign(cos)^(round(2nu)-k), each column normalized over ks.
    """
    if p.lam >= 0:
        D = _log_amplitudes(p, mus, ks)
        return np.exp(D, out=D)
    two_nu = 1.0 / abs(p.y) - 1.0
    ks = np.asarray(ks)[:, None]
    taus = math.sqrt(-p.y) * np.asarray(mus, dtype=float)
    s, c = np.sin(taus), np.cos(taus)
    with np.errstate(invalid="ignore"):
        D = _pow_log(ks, s)
        D += _pow_log(two_nu - ks, c)
        D += 0.5 * (gammaln(two_nu + 1) - gammaln(two_nu - ks + 1) - gammaln(ks + 1))
    D[np.isnan(D)] = -np.inf
    D -= D.max(axis=0)
    np.exp(D, out=D)
    r = round(two_nu)
    flip = ((ks % 2 == 1) & (s < 0)) ^ (((r - ks) % 2 == 1) & (c < 0))
    np.negative(D, out=D, where=flip)
    D /= np.sqrt(np.einsum("kj,kj->j", D, D))
    return D


def amplitude_table(p: ChannelParams, ns, L: int) -> np.ndarray:
    """Real environment amplitudes D[k, j] of |c_{ns[j]}> for levels k < L.

    coherent_vector(n) is the column of n times (-i)^k.  lam < 0: columns
    are normalized over the L levels, exact at L = max_dimension(p).
    lam >= 0: the normalized infinite expansion cut at L, not renormalized.
    """
    ns = np.asarray(ns)
    _check_index(ns, p)
    return _amplitudes(p, mu(ns, p), np.arange(L))


def _neg_rows(taus, p: ChannelParams, d: int) -> np.ndarray:
    """lam<0 table rows for overlaps: all d levels, or for d > 32768 the union
    of the columns' windows holding all non-negligible amplitude mass."""
    if d <= 32768:
        return np.arange(d)
    two_nu = 1.0 / abs(p.y) - 1.0
    s2 = np.sin(taus) ** 2
    mean = two_nu * s2
    sigma = np.sqrt(np.maximum(two_nu * s2 * (1.0 - s2), 0.0)) + 1.0
    los = np.maximum(0, (mean - 45 * sigma).astype(int) - 64)
    his = np.minimum(d - 1, (mean + 45 * sigma).astype(int) + 64)
    rows, top = [], -1
    for lo, hi in sorted(zip(los, his)):
        if hi > top:
            rows.append(np.arange(max(lo, top + 1), hi + 1))
            top = hi
    return np.concatenate(rows)


# ---------------------------------------------------------------------------
# coherent vectors (all three regimes)
# ---------------------------------------------------------------------------

def _tail_bound(log_p_last: float, ratio: float) -> float:
    """Geometric bound on the mass beyond the last kept level.

    log_p_last is log of the last kept probability; ratio bounds every
    subsequent probability ratio (valid because the ratio is decreasing).
    """
    if ratio >= 1.0:
        return math.inf
    return math.exp(log_p_last) * ratio / (1.0 - ratio)


def coherent_vector(n: int, p: ChannelParams, env_dim: int | None = None,
                    tail_tol: float = TAIL_TOL) -> CoherentVector:
    """Environment state D(-i tau_n)|0> in the Fock basis.

    lam < 0: exact on the forced finite dimension (env_dim is ignored).
    lam >= 0: truncated; env_dim=None grows by doubling until the rigorous
    tail bound drops below tail_tol (cap 512), an explicit env_dim is used
    as given and still checked against tail_tol.
    """
    _check_index(n, p)
    if p.lam < 0:
        d = max_dimension(p)
        amps = (-1j) ** np.arange(d) * amplitude_table(p, [n], d)[:, 0]
        return CoherentVector(env_dim=d, amplitudes=amps, tail_bound=0.0)

    mu_n = mu(n, p)
    if p.lam > 0:
        two_nu = 1.0 / p.y + 1.0
        t2 = math.tanh(tau(n, p)) ** 2
        ratio_at = lambda k: t2 * (two_nu + k) / (k + 1.0)
    else:
        ratio_at = lambda k: mu_n**2 / (k + 1.0)

    def tail_of(dim_):
        la = _log_amplitudes(p, [mu_n], np.arange(dim_))[:, 0]
        return la, _tail_bound(2.0 * la[-1], ratio_at(dim_ - 1))

    if env_dim is None:
        dim_ = 64
        la, tb = tail_of(dim_)
        while tb > tail_tol and dim_ < ENV_DIM_CAP:
            dim_ = min(2 * dim_, ENV_DIM_CAP)
            la, tb = tail_of(dim_)
        if tb > tail_tol:
            raise TruncationError(
                f"tail bound {tb:.3e} exceeds {tail_tol:.1e} at the env-dim cap "
                f"{ENV_DIM_CAP} (n={n}, gamma={p.gamma}, lam={p.lam}): "
                f"the displaced state needs a larger environment"
            )
    else:
        if env_dim < 1:
            raise DimensionError(f"env_dim must be >= 1, got {env_dim}")
        dim_ = env_dim
        la, tb = tail_of(dim_)
        if tb > tail_tol:
            raise TruncationError(
                f"env_dim {env_dim} leaves tail bound {tb:.3e} > {tail_tol:.1e} "
                f"(n={n}, gamma={p.gamma}, lam={p.lam})"
            )
    amps = (-1j) ** np.arange(dim_) * np.exp(la)
    return CoherentVector(env_dim=dim_, amplitudes=amps, tail_bound=float(tb))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _kernel_from_mu(mus, p: ChannelParams) -> np.ndarray:
    """K[a, b] = <c_a|c_b> for the displacement magnitudes mus (any lam regime).

    lam < 0: the Gram product D^T D of the amplitude table.  lam >= 0: the
    closed form over |mu_a - mu_b|.  Equal displacements give exactly 1.
    """
    mus = np.asarray(mus, dtype=float)
    if p.lam < 0:
        rows = _neg_rows(math.sqrt(-p.y) * mus, p, max_dimension(p))
        D = _amplitudes(p, mus, rows)
        K = D.T @ D
    else:
        # in place, so that few dim x dim temporaries are alive at once
        K = np.abs(mus[:, None] - mus[None, :])
        if p.lam == 0:
            K *= K
            K *= -0.5
        else:
            K *= math.sqrt(p.y)
            # 2 nu log sech(dt) = -2 nu (dt + log(1 + e^{-2 dt}) - log 2)
            tail = np.exp(-2.0 * K)
            K += np.log1p(tail, out=tail)
            K -= math.log(2.0)
            K *= -(1.0 / p.y + 1.0)
        np.exp(K, out=K)
    K[mus[:, None] == mus[None, :]] = 1.0
    return K


def kernel_entry(n: int, m: int, p: ChannelParams) -> float:
    """Dephasing multiplier K_{n,m} = <c_n|c_m>."""
    ns = np.array([n, m])
    _check_index(ns, p)
    return float(_kernel_from_mu(mu(ns, p), p)[0, 1])


def kernel_matrix(p: ChannelParams, dim: int) -> KernelMatrix:
    """Assemble K_{n,m} for n,m < dim; raises for lam<0 dimension overflow."""
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    bound = max_dimension(p)
    if bound is not None and dim > bound:
        raise DimensionError(
            f"dim {dim} exceeds the lam<0 space (dim {bound})"
        )
    K = _kernel_from_mu(mu(np.arange(dim), p), p)
    np.clip(K, -1.0, 1.0, out=K)
    return KernelMatrix(dim=dim, entries=K)


# ---------------------------------------------------------------------------
# umbral overlap forms
# ---------------------------------------------------------------------------

def overlap_series(x: complex, y: complex, alpha: float, sign: str,
                   terms: int = 200) -> complex:
    """Defining series of the coherent-state overlap, for cross-validation.

    sign '-': sum_k (alpha)^(k)/k! (xy)^k   (rising factorial)
    sign '+': sum_k (alpha)_k /k! (xy)^k    (falling factorial)
    """
    if sign not in ("+", "-"):
        raise DomainError(f"sign must be '+' or '-', got {sign!r}")
    z = x * y
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(terms):
        total += term
        if sign == "-":
            term *= z * (alpha + k) / (k + 1.0)
        else:
            term *= z * (alpha - k) / (k + 1.0)
    return total


def overlap_closed_form(x: complex, y: complex, alpha: float, sign: str) -> complex:
    """Closed form of the overlap series: (1 -+ xy)^{-+alpha} (principal branch).

    sign '-' requires |xy| < 1 (infinite series); sign '+' is entire in xy
    but uses the principal power for non-integer alpha.
    """
    if sign not in ("+", "-"):
        raise DomainError(f"sign must be '+' or '-', got {sign!r}")
    z = complex(x) * complex(y)
    if sign == "-":
        if abs(z) >= 1.0:
            raise DivergenceError(
                f"|x*y| = {abs(z):.6g} >= 1: the rising-factorial series diverges"
            )
        return (1.0 - z) ** (-alpha)
    return (1.0 + z) ** alpha


# ---------------------------------------------------------------------------
# figure-style kernel maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelMapRow:
    lam: float
    gamma: float
    n: int
    m: int
    K: float
    valid: bool


def kernel_map(lambdas, gammas, n: int, m: int, omega: float = 1.0):
    """Kernel values over a (lambda, gamma) grid at fixed (n, m).

    Rows follow grid order (lambda outer, gamma inner) regardless of the
    evaluation schedule.  Grid points where (n, m) exceed the lam<0 space
    are kept with valid=False and K = nan.
    """
    points = [(lam_, g) for lam_ in lambdas for g in gammas]

    def row(point):
        lam_, g = point
        p = ChannelParams(gamma=g, lam=lam_, omega=omega)
        bound = max_dimension(p)
        if bound is not None and (n >= bound or m >= bound):
            return KernelMapRow(lam_, g, n, m, math.nan, False)
        return KernelMapRow(lam_, g, n, m, kernel_entry(n, m, p), True)

    return _parallel.parallel_map(row, points)


def write_kernel_map_csv(rows, path) -> None:
    """Serialize kernel_map rows as UTF-8 CSV: lambda,gamma,n,m,K,valid."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("lambda,gamma,n,m,K,valid\n")
        for r in rows:
            fh.write(
                f"{r.lam:.17g},{r.gamma:.17g},{r.n},{r.m},{r.K:.17g},{int(r.valid)}\n"
            )
