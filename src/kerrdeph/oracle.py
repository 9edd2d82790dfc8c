"""Brute-force ground truth for the deformed dephasing channel.

Everything here works directly from Definition-1 machinery: the dilation
unitary U = exp[-i sqrt(gamma) (A^dag A) x (B + B^dag)] and exact partial
traces.  No closed forms enter; this module is the arbiter for every
analytic convention.

Because A^dag A is diagonal in the Fock basis, U is block-diagonal over the
system index n, each block the environment exponential
exp(-i mu_n (B + B^dag)) with mu_n = sqrt(gamma) n (1 + y n).  The real
symmetric tridiagonal generator B + B^dag = W diag(theta) W^T is
diagonalised once per environment dimension, so every block is exactly
unitary; build_unitary assembles the blocks literally.

All blocks are functions of the one generator, so the vacuum columns
x_n = U_n |0> have the Gram matrix
<x_m, x_n> = sum_k W[0,k]^2 exp(i (mu_m - mu_n) theta_k).
The system side needs nothing else: the kernel oracle is its real part and
the channel output is rho * G^T.  Environment vectors are built only where
the environment itself is the output (evolve_and_trace_system,
displacement_apply).

Every certified result climbs one ladder.  For lam < 0 the environment space
is finite and one exact rung is the answer.  For lam >= 0 the environment
dimension doubles from ENV_START to the cap, and an entry is certified once
it moves by less than tol between two rungs, compared on the leading block
the rungs share.  The kernel table stops each pair at its own rung; the
evolutions stop when every entry is certified.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .algebra import ChannelParams, max_dimension
from .errors import ConvergenceError, DimensionError, DomainError
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
    doubling rungs (zeros for the exact lam<0 single shot); converged is
    the all-entries verdict at CONV_TOL.
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


def _env_dim_for(p: ChannelParams, requested: int | None) -> int:
    """Forced finite dimension for lam<0, else the requested/cap value."""
    if requested is not None and requested < 1:
        raise DimensionError(f"dim_e must be >= 1, got {requested}")
    bound = max_dimension(p)
    if bound is not None:
        return bound if requested is None else min(requested, bound)
    return ENV_CAP if requested is None else requested


# one full doubling ladder (64..4096 is 7 rungs) must stay resident, or
# repeated evolutions at the same parameters recompute every eigensystem
@lru_cache(maxsize=8)
def _env_eigensystem(y: float, dim_e: int):
    """Eigendecomposition of B + B^dag (tridiagonal, off-diagonal sqrt(k f(k)^2))."""
    k = np.arange(1, dim_e)
    off = np.sqrt(k * np.maximum(1.0 + y * k, 0.0))
    theta, W = eigh_tridiagonal(np.zeros(dim_e), off)
    return theta, W


def _block(p: ChannelParams, n: int, dim_e: int) -> np.ndarray:
    """System-index-n block of the dilation: exp(-i mu_n (B+B^dag))."""
    theta, W = _env_eigensystem(p.y, dim_e)
    phase = np.exp(-1j * mu(n, p) * theta)
    return (W * phase) @ W.T


@lru_cache(maxsize=1024)
def _vacuum_column(y: float, mu_value: complex, dim_e: int) -> np.ndarray:
    """exp(-i mu (B+B^dag)) |0>; read-only, since the cache shares it."""
    theta, W = _env_eigensystem(y, dim_e)
    v = np.exp(-1j * mu_value * theta) * W[0, :]
    # two real products: W @ v with complex v would first copy W to complex
    x = W @ v.real + 1j * (W @ v.imag)
    x.flags.writeable = False
    return x


def _gram(p: ChannelParams, deltas: np.ndarray, dim_e: int) -> np.ndarray:
    """<x_m, x_n> = sum_k W[0,k]^2 exp(i delta theta_k) for each delta = mu_m - mu_n."""
    theta, W = _env_eigensystem(p.y, dim_e)
    return np.exp(1j * np.multiply.outer(deltas, theta)) @ (W[0, :] ** 2)


def _ladder(p: ChannelParams, indices, dim_e: int | None, tol: float, evaluate):
    """The certification ladder: yield (d, out, change, certified) per rung.

    out = evaluate(d) at environment dimension d.  lam < 0: one exact rung
    at the forced finite dimension (dim_e caps it), every entry certified.
    lam >= 0: d doubles from ENV_START to the cap (dim_e, default ENV_CAP);
    change is the entrywise distance to the previous rung on the leading
    block the two share (inf on the first rung), and an entry is certified
    when its change is below tol.  The caller stops drawing rungs once its
    own rule is met; after the cap rung the ladder ends.

    The Fock indices and dim_e are checked before any eigensystem is built.
    """
    indices = np.asarray(indices)
    bound = max_dimension(p)
    if indices.size and indices.min() < 0:
        raise DomainError(f"Fock index must be >= 0, got {indices.min()}")
    if bound is not None and indices.size and indices.max() >= bound:
        raise DimensionError(
            f"Fock index {indices.max()} exceeds the lam<0 space (dim {bound})"
        )
    cap = _env_dim_for(p, dim_e)

    if bound is not None:
        out = evaluate(cap)
        yield cap, out, np.zeros(out.shape), np.ones(out.shape, dtype=bool)
        return
    d = min(ENV_START, cap)
    prev = evaluate(d)
    yield d, prev, np.full(prev.shape, np.inf), np.zeros(prev.shape, dtype=bool)
    while d < cap:
        d = min(2 * d, cap)
        out = evaluate(d)
        change = np.abs(out[tuple(map(slice, prev.shape))] - prev)
        yield d, out, change, change < tol
        prev = out


def _uncertified(p: ChannelParams, d: int, change, tol: float) -> ConvergenceError:
    return ConvergenceError(
        f"environment doubling hit the cap {d} with max change "
        f"{np.max(change):.3e} >= {tol:.1e} (gamma={p.gamma}, lam={p.lam})"
    )


def build_unitary(p: ChannelParams, dim_s: int, dim_e: int) -> UnitaryDilation:
    """Assemble the dense dim_s*dim_e unitary and report its unitarity residual."""
    if dim_s < 1 or dim_e < 1:
        raise DimensionError(f"dims must be >= 1, got ({dim_s}, {dim_e})")
    bound = max_dimension(p)
    if bound is not None and (dim_s > bound or dim_e > bound):
        raise DimensionError(
            f"dims ({dim_s}, {dim_e}) exceed the lam<0 space (dim {bound})"
        )
    if dim_s * dim_e > SIZE_CAP:
        raise DimensionError(
            f"dim_s*dim_e = {dim_s * dim_e} exceeds the size cap {SIZE_CAP}"
        )
    D = dim_s * dim_e
    U = np.zeros((D, D), dtype=complex)
    for n in range(dim_s):
        sl = slice(n * dim_e, (n + 1) * dim_e)
        U[sl, sl] = _block(p, n, dim_e)
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
            strict: bool, evaluate) -> EvolveResult:
    """Climb the ladder until every entry of evaluate(d) is certified."""
    for d, out, change, certified in _ladder(p, range(len(rho)), dim_e, tol, evaluate):
        if certified.all():
            return EvolveResult(matrix=out, dim_e=d, converged=True, change=change)
    if strict:
        raise _uncertified(p, d, change, tol)
    return EvolveResult(matrix=out, dim_e=d, converged=False, change=change)


def evolve_and_trace(rho, p: ChannelParams, dim_s: int | None = None,
                     dim_e: int | None = None, tol: float = CONV_TOL,
                     strict: bool = True) -> EvolveResult:
    """Channel output Tr_E[U (rho x |0><0|) U^dag] by the dilation.

    output_{nm} = rho_{nm} <x_m, x_n>, the Gram matrix of the vacuum columns.
    lam < 0: single exact shot on the forced finite environment.
    lam >= 0: environment dimension doubles from ENV_START until the output
    changes by less than tol entrywise (cap dim_e, default ENV_CAP); with
    strict=True non-convergence raises, otherwise the certificate in the
    returned EvolveResult reports per-entry changes.
    """
    rho = _state(rho, dim_s)
    mus = mu(np.arange(len(rho)), p)
    deltas = np.subtract.outer(mus, mus)  # deltas[m, n] = mu_m - mu_n
    return _evolve(rho, p, dim_e, tol, strict,
                   lambda d: rho * _gram(p, deltas, d).T)


def evolve_and_trace_system(rho, p: ChannelParams, dim_s: int | None = None,
                            dim_e: int | None = None, tol: float = CONV_TOL,
                            strict: bool = True) -> EvolveResult:
    """Complementary output Tr_S[U (rho x |0><0|) U^dag] on the environment.

    Equals sum_n rho_nn |x_n><x_n| with x_n = U_n|0>; the doubling protocol
    compares successive outputs on their common (smaller) dimension.
    """
    rho = _state(rho, dim_s)
    mus = mu(np.arange(len(rho)), p)
    diag = np.real(np.diag(rho))

    def env_out(d):
        X = np.column_stack([_vacuum_column(p.y, m, d) for m in mus])
        return (X * diag) @ X.conj().T

    return _evolve(rho, p, dim_e, tol, strict, env_out)


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
    for d, vals, step, certified in _ladder(p, np.ravel(pairs), dim_e, tol,
                                            lambda d: _gram(p, deltas, d).real):
        live = ~done
        value[live], dims[live], change[live] = vals[live], d, step[live]
        done |= certified
        if done.all():
            break
    return [OracleKernelValue(float(v), int(k), bool(c), float(x))
            for v, k, c, x in zip(value, dims, done, change)]


def displacement_apply(mu_value: complex, p: ChannelParams,
                       dim_e: int | None = None) -> CoherentVector:
    """exp(-i mu (B+B^dag)) |0> by spectral decomposition (complex mu allowed)."""
    d = _env_dim_for(p, dim_e)
    amps = _vacuum_column(p.y, complex(mu_value), d)
    tail = float(np.sum(np.abs(amps[-4:]) ** 2)) if p.lam >= 0 else 0.0
    return CoherentVector(env_dim=d, amplitudes=amps, tail_bound=tail)
