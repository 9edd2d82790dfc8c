"""Dephasing kernel of the Kerr-deformed channel.

The channel multiplies each Fock matrix element rho_{nm} by a real kernel
K_{n,m} = <c_n | c_m>, the overlap of two nonlinear coherent environment
states |c_n> = exp(-i mu_n (B + B^dag)) |0> with displacement magnitude

    mu_n = sqrt(gamma) n (1 + y n),    tau_n = sqrt(|y|) mu_n.

All amplitudes come from one real table D[k, n] (amplitude_table), whose
k-only terms (gammaln, binomials) are computed once per row and broadcast;
coherent_vector is a column of it times (-i)^k, the lam < 0 Kraus family
the table.  At lam > 0 no term cancels as lam -> 0+ (_log_amplitudes).
Truncated lam >= 0 columns, and coherent inputs (the same builder at y = 0),
are sized once: at the smallest size whose geometric tail bound is within
tolerance (_sized_log_amplitudes), or refused above a cap.  Which Fock
indices and sizes the lam < 0 space admits is decided in algebra
(_check_index, _check_dim, _fit_dim).
  lam = 0   K = exp(-(mu_n - mu_m)^2 / 2) = exp(-gamma (n-m)^2 / 2)
  lam > 0   K = sech^{2 nu}(tau_n - tau_m),  nu = omega/lam + 1/2
            (identical to [(1-t_n^2)(1-t_m^2)]^nu / (1-t_n t_m)^{2 nu}
             with t = tanh tau, but immune to tanh saturating at 1.0),
            evaluated as exp(-2 nu log1p(2 sinh^2(dt/2))), dt = tau_n - tau_m
  lam < 0   K = D^T D, the Gram product of the table on the finite space;
            the closed-form power cos^{2 nu} is branch-ambiguous and never used.
The lam >= 0 forms live in one helper (_closed_form), applied elementwise to
|mu_n - mu_m|: a whole matrix for kernel_matrix, a gamma column for kernel_map.
kernel_map takes one lambda row at a time; at lam < 0 each chunk of gammas
shares one table and stacks its 2 x 2 Gram products, equal bit for bit to
kernel_entry.

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

from .algebra import (ChannelParams, _check_dim, _check_index, _fit_dim,
                      max_dimension)
from .errors import DivergenceError, DomainError, TruncationError

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
#: amplitude-table entries per lam<0 kernel_map chunk of gammas (8 MB)
_MAP_TABLE_ENTRIES = 2**20


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


# ---------------------------------------------------------------------------
# the amplitude table (all three regimes)
# ---------------------------------------------------------------------------

def _pow_log(e, x):
    """log|x|^e for a column of exponents e and a row of bases x, with 0^0 = 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = e * np.log(np.abs(x))
    out[e[:, 0] == 0] = 0.0
    return out


def _log_amplitudes(y: float, mus, L: int) -> np.ndarray:
    """lam >= 0: log amplitudes [k, j] of the normalized expansion at
    y = lam/(2 omega), over levels k < L (rows) and displacement magnitudes
    mus (columns).  y = 0 gives the Poisson amplitudes of a coherent state.

    y > 0: k log tanh tau - 2 nu log cosh tau + (log (2 nu)_k - log k!)/2,
    free of cancellation as y -> 0+ (2 nu ~ 1/y): log cosh tau is
    log1p(2 sinh^2(tau/2)) (-inf where sinh overflows, an amplitude of 0),
    and the rising factorial log (2 nu)_k = gammaln(2 nu + k) - gammaln(2 nu)
    is k log 2 nu + sum_{j<k} log1p(j / 2 nu), a running sum over the levels.
    """
    ks = np.arange(L, dtype=float)[:, None]
    mus = np.asarray(mus, dtype=float)
    if y == 0:
        out = _pow_log(ks, mus)
        out -= 0.5 * mus**2
        out -= 0.5 * gammaln(ks + 1)
        return out
    two_nu = 1.0 / y + 1.0
    taus = math.sqrt(y) * mus
    rising = np.zeros_like(ks)
    np.cumsum(np.log1p(ks[:-1] / two_nu), axis=0, out=rising[1:])
    rising += ks * math.log(two_nu)
    out = _pow_log(ks, np.tanh(taus))
    with np.errstate(over="ignore"):
        out -= two_nu * np.log1p(2.0 * np.sinh(0.5 * taus) ** 2)
    out += 0.5 * (rising - gammaln(ks + 1))
    return out


def _amplitudes(p: ChannelParams, mus, ks) -> np.ndarray:
    """lam < 0: real amplitude table D[k, j] over levels ks and displacements mus.

    The (-i)^k phase is left out.  Magnitude cos^{2nu-k}(tau) sin^k(tau)
    sqrt(binom(2nu, k)) with sign sign(sin)^k sign(cos)^(round(2nu)-k), each
    column normalized over ks.
    """
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
    if p.lam < 0:
        return _amplitudes(p, mu(ns, p), np.arange(L))
    D = _log_amplitudes(p.y, mu(ns, p), L)
    return np.exp(D, out=D)


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

def _sized_log_amplitudes(y: float, mus, tol: float, cap: int, dim: int | None,
                          what: str):
    """Log amplitudes [k, j] of _log_amplitudes(y, mus) on k < d, sized once.

    The probability ratio p_{k+1}/p_k of a column is r_k = tanh^2(tau)
    (2 nu + k)/(k + 1) for y > 0 and mu^2/(k + 1) for y = 0.  It decreases in
    k, so where r_k < 1 the mass beyond level k is at most p_k r_k/(1 - r_k),
    a bound evaluated at every k < cap (or k < dim) in one pass.
    dim=None: d is the smallest size whose bound is within tol in every
    column; dim: d = dim, checked against tol.  Returns the table and its
    largest bound at d.  TruncationError otherwise, naming the cap and the
    closed-form mean level of the widest column (2 nu sinh^2 tau, or mu^2).
    """
    mus = np.asarray(mus, dtype=float)
    ks = np.arange(cap if dim is None else dim, dtype=float)[:, None]
    la = _log_amplitudes(y, mus, len(ks))
    if y == 0:
        r = mus**2 / (ks + 1.0)
    else:
        r = np.tanh(math.sqrt(y) * mus) ** 2 * (1.0 / y + 1.0 + ks) / (ks + 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tails = np.where(r < 1.0, np.exp(2.0 * la) * r / (1.0 - r), math.inf)
    tails = tails.max(axis=1)
    if dim is None:
        fits = np.flatnonzero(~(tails > tol))
        if not fits.size:
            top = mus.max()
            with np.errstate(over="ignore"):
                need = top**2 if y == 0 else (1 / y + 1) * np.sinh(math.sqrt(y) * top) ** 2
            raise TruncationError(
                f"tail bound {tails[-1]:.3e} exceeds {tol:.1e} at the cap {cap} "
                f"({what}): the widest column needs about {need:.3g} levels "
                f"(its mean level)"
            )
        d = int(fits[0]) + 1
    else:
        d = dim
        if tails[-1] > tol:
            raise TruncationError(
                f"dim {dim} leaves tail bound {tails[-1]:.3e} > {tol:.1e} ({what})"
            )
    return la[:d], float(tails[d - 1])


def _coherent_table(p: ChannelParams, ns, env_dim: int | None,
                    tail_tol: float) -> tuple[np.ndarray, float]:
    """Columns D(-i tau_n)|0> for n in ns as one table [k, j], and its tail bound.

    lam < 0: amplitude_table on the whole finite space (env_dim ignored).
    lam >= 0: cut at the size _sized_log_amplitudes certifies.
    """
    ns = np.asarray(ns)
    _check_index(ns, p)
    if p.lam < 0:
        X, tb = amplitude_table(p, ns, max_dimension(p)), 0.0
    else:
        if env_dim is not None:
            _check_dim(p, env_dim, "env_dim")
        what = f"n={ns.max()}, gamma={p.gamma}, lam={p.lam}"
        la, tb = _sized_log_amplitudes(p.y, mu(ns, p), tail_tol, ENV_DIM_CAP,
                                       env_dim, what)
        X = np.exp(la)
    return (-1j) ** np.arange(len(X))[:, None] * X, tb


def coherent_vector(n: int, p: ChannelParams, env_dim: int | None = None,
                    tail_tol: float = TAIL_TOL) -> CoherentVector:
    """Environment state D(-i tau_n)|0> in the Fock basis.

    lam < 0: exact on the forced finite dimension (env_dim is ignored).
    lam >= 0: truncated; env_dim=None takes the smallest size whose
    rigorous tail bound is within tail_tol (cap 512), an explicit env_dim is
    used as given and still checked against tail_tol.  The amplitudes at a
    size are a prefix of those at any larger size.
    """
    X, tb = _coherent_table(p, [n], env_dim, tail_tol)
    return CoherentVector(env_dim=len(X), amplitudes=X[:, 0], tail_bound=tb)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _closed_form(K, y: float) -> np.ndarray:
    """lam >= 0 kernel from K = |mu_a - mu_b| (any shape), in place, so that
    few dim x dim temporaries are alive at once.  y = 0 is the lam = 0 branch.

    lam > 0: K = exp(-2 nu log cosh dt), dt = sqrt(y) |mu_a - mu_b|, with
    log cosh dt = log1p(2 sinh^2(dt/2)): no cancellation at any dt, so the
    exponent keeps its relative accuracy as lam -> 0+ (2 nu ~ 1/y, dt^2 ~ y)
    and the kernel tends to the lam = 0 Gaussian; its matrix is positive
    semidefinite to rounding, which apply relies on.  Where sinh overflows
    the entry is exactly 0.
    """
    if y == 0:
        K *= K
        K *= -0.5
    else:
        K *= 0.5 * math.sqrt(y)
        with np.errstate(over="ignore"):
            np.sinh(K, out=K)
            K *= K
            K *= 2.0
        np.log1p(K, out=K)
        K *= -(1.0 / y + 1.0)
    return np.exp(K, out=K)


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
        K = _closed_form(np.abs(mus[:, None] - mus[None, :]), p.y)
    K[mus[:, None] == mus[None, :]] = 1.0
    return K


def kernel_entry(n: int, m: int, p: ChannelParams) -> float:
    """Dephasing multiplier K_{n,m} = <c_n|c_m>, clipped to [-1, 1] like
    kernel_matrix."""
    ns = np.array([n, m])
    _check_index(ns, p)
    return float(np.clip(_kernel_from_mu(mu(ns, p), p)[0, 1], -1.0, 1.0))


def kernel_matrix(p: ChannelParams, dim: int) -> KernelMatrix:
    """Assemble K_{n,m} for n,m < dim; raises for lam<0 dimension overflow."""
    _check_dim(p, dim)
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


def _kernel_row(p: ChannelParams, gammas: np.ndarray, n: int, m: int) -> np.ndarray:
    """K_{n,m} at each gamma of a 1-D array, at the lam and omega of p.

    Bit for bit kernel_entry(n, m, ChannelParams(gamma, lam, omega)): the same
    mu arithmetic, the closed form elementwise for lam >= 0, and for lam < 0
    one amplitude table per chunk of gammas whose 2 x 2 Gram products are
    stacked, so each is the D^T D (syrk) product kernel_entry takes.
    """
    root = np.sqrt(gammas)
    mu_n = root * n * (1.0 + p.y * n)
    mu_m = root * m * (1.0 + p.y * m)
    if p.lam >= 0:
        K = _closed_form(np.abs(mu_n - mu_m), p.y)
    else:
        d = max_dimension(p)
        step = max(1, _MAP_TABLE_ENTRIES // (2 * d))
        K = np.empty(len(gammas))
        for lo in range(0, len(gammas), step):
            # columns interleaved (n, m, n, m, ...): S[j] is the pair at gamma j
            mus = np.column_stack([mu_n[lo:lo + step], mu_m[lo:lo + step]]).ravel()
            D = _amplitudes(p, mus, _neg_rows(math.sqrt(-p.y) * mus, p, d))
            S = D.reshape(len(D), -1, 2).transpose(1, 0, 2)
            K[lo:lo + step] = (S.transpose(0, 2, 1) @ S)[:, 0, 1]
    K[mu_n == mu_m] = 1.0
    return np.clip(K, -1.0, 1.0, out=K)


def kernel_map(lambdas, gammas, n: int, m: int, omega: float = 1.0):
    """Kernel values over a (lambda, gamma) grid at fixed (n, m).

    Rows follow grid order (lambda outer, gamma inner), and each K equals
    kernel_entry at its point.  Grid points where (n, m) exceed the lam<0
    space are kept with valid=False and K = nan; a negative index is an
    error in every row.  Errors are those of the first invalid point in grid
    order, as if each point were built alone.
    """
    gammas = list(gammas)
    if not gammas:
        return []
    G = np.asarray(gammas, dtype=float)
    bad = np.flatnonzero(~np.isfinite(G) | (G < 0))
    rows = []
    for lam_ in lambdas:
        p = ChannelParams(gamma=gammas[0], lam=lam_, omega=omega)
        top = max(n, m, 0) + 1  # >= 1: a negative index is _check_index's to refuse
        fits = _fit_dim(p, top) == top  # (n, m) lie in the lam<0 space
        if min(n, m) < 0:
            _check_index(np.array([n, m]), p)
        if bad.size:  # raises ChannelParams' error for the first bad gamma
            ChannelParams(gamma=gammas[bad[0]], lam=lam_, omega=omega)
        K = _kernel_row(p, G, n, m).tolist() if fits else [math.nan] * len(G)
        rows += [KernelMapRow(lam_, g, n, m, k, fits) for g, k in zip(gammas, K)]
    return rows


def write_kernel_map_csv(rows, path) -> None:
    """Serialize kernel_map rows as UTF-8 CSV: lambda,gamma,n,m,K,valid."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("lambda,gamma,n,m,K,valid\n")
        for r in rows:
            fh.write(
                f"{r.lam:.17g},{r.gamma:.17g},{r.n},{r.m},{r.K:.17g},{int(r.valid)}\n"
            )
