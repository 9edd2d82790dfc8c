"""Brute-force ground truth for the deformed dephasing channel.

Everything here works directly from Definition-1 machinery: the dilation
unitary U = exp[-i sqrt(gamma) (A^dag A) x (B + B^dag)] and exact partial
traces.  No closed forms enter; this module is the arbiter for every
analytic convention.

Because A^dag A is diagonal in the Fock basis, U is block-diagonal over the
system index n, each block the environment exponential
exp(-i mu_n (B + B^dag)) with mu_n = sqrt(gamma) n (1 + y n).  build_unitary
is the only user of the eigenvector matrix W of B + B^dag: it assembles the
blocks literally, with its own eigh_tridiagonal.  Everything else takes the
nodes theta_k, the vacuum weights w_k = W[0,k]^2 and rows of W from _jacobi.

The vacuum columns x_n = U_n |0> have the Gram matrix
<x_m, x_n> = sum_k w_k exp(i (mu_m - mu_n) theta_k): the kernel oracle is
its real part and the channel output is rho * G^T.  Environment vectors
x_j = sum_k W[j,k] W[0,k] exp(-i mu theta_k) are built only where the
environment itself is the output (evolve_and_trace_system,
displacement_apply), one recurrence pass over the rows for all columns.

Every certified result climbs one ladder.  For lam < 0 at the whole finite
environment space one exact rung is the answer.  Otherwise the environment
dimension doubles from ENV_START to the cap, and an entry is certified once
it moves by less than tol between two rungs, compared on the leading block
the rungs share.  The kernel table stops each pair at its own rung; the
evolutions stop when every entry is certified.  The environment output
X diag(rho) X^dag has rank <= dim_s, so its rungs are compared through the
d x dim_s factor X, a block of rows at a time; only the returned rung is
formed as a dense d x d matrix.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

# _env_eigensystem is not called here, but its cache is counted by this name
from ._jacobi import _env_eigensystem, _env_vectors, _half_spectrum
from .algebra import (ChannelParams, _annihilator_band, _check_dim, _check_index,
                      _fit_dim, max_dimension)
from .errors import ConvergenceError, DimensionError
from .kernel import CoherentVector, mu

__all__ = [
    "UnitaryDilation",
    "EvolveResult",
    "OracleKernelValue",
    "build_unitary",
    "evolve_and_trace",
    "evolve_and_trace_system",
    "kernel_oracle",
    "kernel_oracle_certified",
    "kernel_oracle_table",
    "displacement_apply",
]

#: hard cap on dim_s * dim_e for the fully assembled unitary
SIZE_CAP = 4096
#: default environment-dimension cap for doubling protocols
ENV_CAP = 4096
#: doubling protocols stop when successive outputs change less than this
CONV_TOL = 1e-8
#: first rung of the doubling ladder
ENV_START = 64
#: rows of the environment output formed at a time when two rungs are compared
ROW_BLOCK = 256


@dataclass(frozen=True)
class UnitaryDilation:
    """Dense dilation unitary with its unitarity certificate."""

    dim_s: int
    dim_e: int
    matrix: np.ndarray = field(repr=False)
    unitarity_residual: float = 0.0


@dataclass(frozen=True)
class EvolveResult:
    """Output of a brute-force evolution with its convergence certificate.

    change holds the per-entry absolute difference between the last two
    doubling rungs (zeros for the exact single shot on the whole lam<0
    space); converged is the all-entries verdict at CONV_TOL.
    """

    matrix: np.ndarray = field(repr=False)
    dim_e: int = 0
    converged: bool = True
    change: np.ndarray = field(default=None, repr=False)


@dataclass(frozen=True)
class OracleKernelValue:
    value: float
    dim_e: int
    converged: bool
    change: float


@lru_cache(maxsize=1024)
def _vacuum_column(y: float, mu_value: complex, dim_e: int) -> np.ndarray:
    """exp(-i mu (B+B^dag)) |0>; read-only, since the cache shares it."""
    x = np.ascontiguousarray(_env_vectors(y, [mu_value], dim_e)[:, 0])
    x.flags.writeable = False
    return x


def _gram(p: ChannelParams, deltas: np.ndarray, dim_e: int) -> np.ndarray:
    """<x_m, x_n> = sum_k w_k exp(i delta theta_k) for each delta = mu_m - mu_n,
    summed as sum mult w cos(delta theta) over _half_spectrum's nodes."""
    theta, w, mult = _half_spectrum(p.y, dim_e)
    return np.cos(np.multiply.outer(deltas, theta)) @ (mult * w)


def _entrywise(prev: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Entrywise distance of two rungs on the leading block they share."""
    return np.abs(out[tuple(map(slice, prev.shape))] - prev)


def _ladder(p: ChannelParams, indices, dim_e: int | None, tol: float, evaluate,
            compare=_entrywise):
    """The certification ladder: yield (d, prev, out, change, certified) per rung.

    out = evaluate(d) at environment dimension d, prev the previous rung's
    out (None if there is none).  lam < 0 with the cap at the whole finite
    space (dim_e absent or not below it): one exact rung, every entry
    certified.  Otherwise d doubles from ENV_START to the cap (dim_e,
    default ENV_CAP), so a truncated lam<0 environment is certified by the
    ladder alone; change = compare(prev, out) (inf on the first rung), and
    an entry is certified when its change is below tol.  The caller stops
    drawing rungs once its own rule is met; after the cap rung the ladder
    ends.

    The Fock indices and dim_e are checked before any eigensystem is built.
    """
    indices = np.asarray(indices)
    if indices.size:
        _check_index(indices, p)
    cap = _fit_dim(p, dim_e, "dim_e") or ENV_CAP  # None: lam >= 0 without dim_e

    if cap == max_dimension(p):
        out = evaluate(cap)
        yield cap, None, out, np.zeros(out.shape), np.ones(out.shape, dtype=bool)
        return
    d = min(ENV_START, cap)
    out = evaluate(d)
    yield d, None, out, np.full(out.shape, np.inf), np.zeros(out.shape, dtype=bool)
    while d < cap:
        d, prev = min(2 * d, cap), out
        out = evaluate(d)
        change = compare(prev, out)
        yield d, prev, out, change, change < tol


def _uncertified(p: ChannelParams, d: int, change, tol: float) -> ConvergenceError:
    return ConvergenceError(
        f"environment doubling hit the cap {d} with max change "
        f"{np.max(change):.3e} >= {tol:.1e} (gamma={p.gamma}, lam={p.lam})"
    )


def build_unitary(p: ChannelParams, dim_s: int, dim_e: int) -> UnitaryDilation:
    """Assemble the dense dim_s*dim_e unitary and report its unitarity residual."""
    _check_dim(p, dim_s, "dim_s")
    _check_dim(p, dim_e, "dim_e")
    if dim_s * dim_e > SIZE_CAP:
        raise DimensionError(
            f"dim_s*dim_e = {dim_s * dim_e} exceeds the size cap {SIZE_CAP}"
        )
    D = dim_s * dim_e
    U = np.zeros((D, D), dtype=complex)
    theta, W = eigh_tridiagonal(np.zeros(dim_e), _annihilator_band(p.y, dim_e))
    for n in range(dim_s):
        sl = slice(n * dim_e, (n + 1) * dim_e)
        U[sl, sl] = (W * np.exp(-1j * mu(n, p) * theta)) @ W.T  # exp(-i mu_n (B+B^dag))
    residual = float(np.abs(U.conj().T @ U - np.eye(D)).max())
    return UnitaryDilation(dim_s=dim_s, dim_e=dim_e, matrix=U, unitarity_residual=residual)


def _state(rho, dim_s: int | None) -> np.ndarray:
    """Entries of rho as a complex (dim_s, dim_s) array."""
    rho = np.asarray(getattr(rho, "entries", rho), dtype=complex)
    if dim_s is None:
        dim_s = rho.shape[0]
    if dim_s < 1:
        raise DimensionError(f"state must be non-empty, got dim_s={dim_s}")
    if rho.shape != (dim_s, dim_s):
        raise DimensionError(f"state shape {rho.shape} != ({dim_s}, {dim_s})")
    return rho


def _evolve(rho: np.ndarray, p: ChannelParams, dim_e: int | None, tol: float,
            strict: bool, evaluate, compare=_entrywise):
    """Climb the ladder until every entry is certified: (d, prev, out, change, converged)."""
    for d, prev, out, change, certified in _ladder(p, range(len(rho)), dim_e, tol,
                                                   evaluate, compare):
        if certified.all():
            return d, prev, out, change, True
    if strict:
        raise _uncertified(p, d, change, tol)
    return d, prev, out, change, False


def evolve_and_trace(rho, p: ChannelParams, dim_s: int | None = None,
                     dim_e: int | None = None, tol: float = CONV_TOL,
                     strict: bool = True) -> EvolveResult:
    """Channel output Tr_E[U (rho x |0><0|) U^dag] by the dilation.

    output_{nm} = rho_{nm} <x_m, x_n>, the Gram matrix of the vacuum columns.
    lam < 0: single exact shot on the whole finite environment space.
    lam >= 0, or a lam<0 dim_e below that space: the environment dimension
    doubles from ENV_START until the output changes by less than tol
    entrywise (cap dim_e, default ENV_CAP); with strict=True
    non-convergence raises, otherwise the certificate in the returned
    EvolveResult reports per-entry changes.
    """
    rho = _state(rho, dim_s)
    mus = mu(np.arange(len(rho)), p)
    deltas = np.subtract.outer(mus, mus)  # deltas[m, n] = mu_m - mu_n
    d, _prev, out, change, converged = _evolve(
        rho, p, dim_e, tol, strict, lambda d: rho * _gram(p, deltas, d).T)
    return EvolveResult(matrix=out, dim_e=d, converged=converged, change=change)


def evolve_and_trace_system(rho, p: ChannelParams, dim_s: int | None = None,
                            dim_e: int | None = None, tol: float = CONV_TOL,
                            strict: bool = True) -> EvolveResult:
    """Complementary output Tr_S[U (rho x |0><0|) U^dag] on the environment.

    Equals sum_n rho_nn |x_n><x_n| = X diag(rho) X^dag with x_n = U_n|0>.
    Each rung keeps only the d x dim_s factor X; successive rungs are
    compared on their common (smaller) dimension k, ROW_BLOCK rows of the
    k x k difference at a time.  The dense output and its per-entry change
    are built only for the rung that is returned, so a refusal builds
    neither.
    """
    rho = _state(rho, dim_s)
    mus = mu(np.arange(len(rho)), p)
    diag = np.real(np.diag(rho))

    def change_rows(prev, X):
        """|X[:k] D X[:k]^dag - prev D prev^dag|, ROW_BLOCK rows at a time."""
        k = len(prev)
        left = np.hstack((X[:k] * diag, -prev * diag))
        right = np.hstack((X[:k], prev)).conj().T
        for r in range(0, k, ROW_BLOCK):
            yield np.abs(left[r:r + ROW_BLOCK] @ right)

    def max_change(prev, X):
        return np.max([rows.max() for rows in change_rows(prev, X)])

    d, prev, X, change, converged = _evolve(
        rho, p, dim_e, tol, strict, lambda d: _env_vectors(p.y, mus, d), max_change)
    out = (X * diag) @ X.conj().T
    if prev is None:
        change = np.full(out.shape, 0.0 if converged else np.inf)
    else:
        change = np.vstack(list(change_rows(prev, X)))
    return EvolveResult(matrix=out, dim_e=d, converged=converged, change=change)


def kernel_oracle_certified(n: int, m: int, p: ChannelParams,
                            dim_e: int | None = None,
                            tol: float = CONV_TOL) -> OracleKernelValue:
    """Kernel value <x_m, x_n> from the dilation, with certificate."""
    return kernel_oracle_table([(n, m)], p, dim_e=dim_e, tol=tol)[0]


def kernel_oracle(n: int, m: int, p: ChannelParams,
                  dim_e: int | None = None, tol: float = CONV_TOL) -> float:
    """Brute-force kernel value; raises ConvergenceError at the cap."""
    res = kernel_oracle_certified(n, m, p, dim_e=dim_e, tol=tol)
    if not res.converged:
        raise _uncertified(p, res.dim_e, res.change, tol)
    return res.value


def kernel_oracle_table(pairs, p: ChannelParams, dim_e: int | None = None,
                        tol: float = CONV_TOL):
    """Certified oracle values Re <x_m, x_n> for many (n, m) pairs at once.

    All pairs share one generator eigendecomposition per rung, and each
    pair keeps the value, dimension and change of the first rung that
    certifies it.  Returns a list of OracleKernelValue in the order of pairs.
    """
    pairs = list(pairs)
    deltas = np.array([mu(m, p) - mu(n, p) for (n, m) in pairs])
    value = np.zeros(len(pairs))
    dims = np.zeros(len(pairs), dtype=int)
    change = np.full(len(pairs), np.inf)
    done = np.zeros(len(pairs), dtype=bool)
    for d, _prev, vals, step, certified in _ladder(p, np.ravel(pairs), dim_e, tol,
                                                   lambda d: _gram(p, deltas, d)):
        live = ~done
        value[live], dims[live], change[live] = vals[live], d, step[live]
        done |= certified
        if done.all():
            break
    return [OracleKernelValue(float(v), int(k), bool(c), float(x))
            for v, k, c, x in zip(value, dims, done, change)]


def displacement_apply(mu_value: complex, p: ChannelParams,
                       dim_e: int | None = None) -> CoherentVector:
    """exp(-i mu (B+B^dag)) |0> by spectral decomposition (complex mu allowed).

    The tail bound is 0 only on the whole finite lam<0 space; a truncated
    environment reports the weight of its top four levels.
    """
    d = _fit_dim(p, dim_e, "dim_e") or ENV_CAP
    amps = _vacuum_column(p.y, complex(mu_value), d)
    tail = 0.0 if d == max_dimension(p) else float(np.sum(np.abs(amps[-4:]) ** 2))
    return CoherentVector(env_dim=d, amplitudes=amps, tail_bound=tail)
