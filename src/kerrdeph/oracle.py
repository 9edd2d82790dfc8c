"""Brute-force ground truth for the deformed dephasing channel.

Everything here works directly from Definition-1 machinery: the dilation
unitary U = exp[-i sqrt(gamma) (A^dag A) x (B + B^dag)] and exact partial
traces.  No closed forms enter; this module is the arbiter for every
analytic convention.

Because A^dag A is diagonal in the Fock basis, U is block-diagonal over the
system index n, each block the environment exponential
exp(-i mu_n (B + B^dag)) with mu_n = sqrt(gamma) n (1 + y n).  The
generator B + B^dag = W diag(theta) W^T is real symmetric tridiagonal with
zero diagonal and couplings b_k = sqrt(k f(k)^2).  build_unitary is the only
user of the eigenvector matrix W: it assembles the blocks literally.

Everything else needs only the nodes theta_k and the vacuum weights
w_k = W[0,k]^2 (Golub & Welsch).  Both are built only on the block the
vacuum reaches: a coupling that is exactly 0 (the top level of the lam<0
space at integer 2 omega/|lam|) splits the generator there.  The zero
diagonal makes the generator, its even and odd levels grouped,
[[0, C], [C^T, 0]] with C bidiagonal at half the size (Golub & Kahan), so
the nodes are +-sigma for the singular values sigma of C, and an odd block
has one node at exactly 0.  dqds (LAPACK dlasq1, through the function
pointer scipy.linalg.cython_lapack publishes) finds sigma to high relative
accuracy (Fernando & Parlett); no node is averaged with its mirror.  The
rows W[j,:] follow from the recurrence v_{j+1} = (theta v_j - b_j v_{j-1})
/ b_{j+1}, one numpy row per level for all nodes, unnormalised within
blocks of levels that a growth bound from the couplings keeps from
overflowing: the weight walk starts from v_0 = 1 and rescales between
blocks, carrying the log norm; the environment vectors start from
v_0 = W[0,:].  v_j(-theta) = (-1)^j v_j(theta) gives +-theta equal
weights, so both walk the nonnegative half of the nodes.  A node whose log
norm passes 400 has weight exp(-800) == 0.0 and leaves the weight walk;
the sums below and the environment vectors run over the nodes of nonzero
weight only (about 350 of 2048 at dim_e = 4096).

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

import ctypes
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import cython_lapack, eigh_tridiagonal

from .algebra import (ChannelParams, _check_dim, _check_index, _fit_dim,
                      max_dimension)
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
#: a node leaves the weight walk once its log norm passes this; the norm only
#: grows and exp(-2 * 400) == 0.0, so its weight is exactly 0 either way
_LOG_NORM_CUT = 400.0


def _lapack(name: str, *argtypes):
    """LAPACK routine `name` from the function pointer scipy.linalg.cython_lapack
    publishes, as a ctypes function returning nothing."""
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_INT, _DOUBLE = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
#: dlasq1(n, d, e, work, info): singular values of an n x n bidiagonal by dqds
_DLASQ1 = _lapack("dlasq1", _INT, _DOUBLE, _DOUBLE, _DOUBLE, _INT)


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


def _env_dim_for(p: ChannelParams, requested: int | None) -> int:
    """Forced finite dimension for lam<0, else the requested/cap value."""
    if requested is not None and requested < 1:
        raise DimensionError(f"dim_e must be >= 1, got {requested}")
    d = _fit_dim(p, requested)
    return ENV_CAP if d is None else d


def _couplings(y: float, dim_e: int) -> np.ndarray:
    """Off-diagonal b_k = sqrt(k f(k)^2), k = 1..dim_e-1, of B + B^dag."""
    k = np.arange(1, dim_e)
    return np.sqrt(k * np.maximum(1.0 + y * k, 0.0))


def _vacuum_block(y: float, dim_e: int) -> np.ndarray:
    """Couplings of the block the vacuum reaches: cut at the first zero."""
    off = _couplings(y, dim_e)
    zero = np.flatnonzero(off == 0.0)
    return off[:zero[0]] if zero.size else off


def _dqds(d: np.ndarray, e: np.ndarray) -> int:
    """LAPACK dlasq1 on the bidiagonal with diagonal d and superdiagonal
    e[:-1] (len(e) == len(d)): d becomes its singular values in decreasing
    order and e is overwritten.  Returns dlasq1's info, 0 on success."""
    if not (d.dtype == e.dtype == np.float64 and d.flags.c_contiguous
            and e.flags.c_contiguous and d.size == e.size >= 1):
        raise ValueError("dqds takes two contiguous float64 arrays of one length >= 1")
    work = np.empty(4 * d.size)
    info = ctypes.c_int(0)
    _DLASQ1(ctypes.byref(ctypes.c_int(d.size)), d.ctypes.data_as(_DOUBLE),
            e.ctypes.data_as(_DOUBLE), work.ctypes.data_as(_DOUBLE), ctypes.byref(info))
    return info.value


def _blocks(off: np.ndarray):
    """Blocks (s, e, [b_{s-1}, ..., b_{e-1}]) of levels v_s .. v_{e-1}.

    Nodes are at most 2 max b (Gershgorin), so level j grows max(|v_j|,
    |v_{j-1}|) at most max(1, (2 max b + b_j) / b_{j+1}) times: from entries
    <= 1, a block whose log growth is <= log(max float / n) / 2 keeps every
    value, and any sum of n squares, finite.
    """
    b = np.concatenate(([0.0], off))
    growth = np.cumsum(np.r_[0.0, np.log(np.maximum(1.0, (2 * b.max() + b[:-1]) / b[1:]))])
    budget, b, s = 0.5 * np.log(np.finfo(float).max / b.size), b.tolist(), 1
    while s < len(b):
        e = max(int(np.searchsorted(growth, growth[s - 1] + budget, side="right")), s + 1)
        yield s, e, b[s - 1:e]
        s = e


def _levels(carry: np.ndarray, theta: np.ndarray, b: list) -> np.ndarray:
    """Rows (v_{s-2}, v_{s-1}, v_s, ..., v_{e-1}) from carry = (v_{s-2}, v_{s-1})
    and b = [b_{s-1}, ..., b_{e-1}], unnormalised, one numpy row per level."""
    V = np.empty((len(b) + 1, theta.size))
    V[:2] = carry
    for prev, cur, nxt, b_prev, b_next in zip(V, V[1:], V[2:], b, b[1:]):
        np.divide(theta * cur - b_prev * prev, b_next, out=nxt)
    return V


def _weights(theta: np.ndarray, off: np.ndarray) -> np.ndarray:
    """w = 1 / |v|^2 of the recurrence from v_0 = 1 at each node.

    Each block adds its squares to the log norm, then its last two rows are
    rescaled to unit norm.  A node whose log norm passes _LOG_NORM_CUT has
    weight 0.0 either way (the norm only grows) and leaves the walk; the
    others take the same steps, in the same blocks, as over every node."""
    w, live, log_norm = np.zeros_like(theta), np.arange(theta.size), np.zeros_like(theta)
    V = np.stack((np.zeros_like(theta), np.ones_like(theta)))
    for _, _, b in _blocks(off):
        V = _levels(V[-2:], theta, b)
        sq = np.einsum("ij,ij->j", V[2:], V[2:])
        log_norm += 0.5 * np.log1p(sq)
        V[-2:] /= np.sqrt(1.0 + sq)
        if log_norm.max(initial=0.0) > _LOG_NORM_CUT:
            keep = log_norm <= _LOG_NORM_CUT
            live, theta, log_norm, V = live[keep], theta[keep], log_norm[keep], V[-2:, keep]
    w[live] = np.exp(-2.0 * log_norm)
    return w


# entries are O(dim_e), so the ladders (64..4096 is 7 rungs) of several
# parameter sets stay resident between the calls that share them
@lru_cache(maxsize=64)
def _env_eigensystem(y: float, dim_e: int):
    """Nodes theta_k and vacuum weights w_k = W[0,k]^2 of B + B^dag.

    Both live on the block the vacuum reaches (see _vacuum_block).  The
    nonnegative nodes are the singular values, from dqds, of the bidiagonal
    C with b1, b3, ... on its diagonal and b2, b4, ... off it; an odd block
    gets a trailing 0 on the diagonal, which is the exact middle node 0.
    The weights come from _weights on that half and are mirrored, as are
    the nodes.  Read-only, since the cache shares them.  A dqds failure
    raises ConvergenceError, so no unconverged node is returned.
    """
    off = _vacuum_block(y, dim_e)
    n = off.size + 1
    d, e = np.zeros((n + 1) // 2), np.zeros((n + 1) // 2)
    d[:n // 2], e[:(n - 1) // 2] = off[0::2], off[1::2]
    info = _dqds(d, e)
    if info != 0:
        raise ConvergenceError(
            f"dqds (LAPACK dlasq1) failed with info={info} on the {n}-level "
            f"vacuum block of the generator (y={y})")
    pos = d[::-1]
    w = _weights(pos, off)
    theta = np.concatenate((-pos[::-1][:n // 2], pos))
    w = np.concatenate((w[::-1][:n // 2], w))
    theta.flags.writeable = False
    w.flags.writeable = False
    return theta, w


def _half_spectrum(y: float, dim_e: int):
    """Nonnegative nodes of nonzero weight, their weights and multiplicities
    (2; 1 for a node at 0).  A node of weight 0.0 adds exactly nothing to
    any sum over the nodes, so it is left out of them."""
    theta, w = _env_eigensystem(y, dim_e)
    n = theta.size
    theta, w = theta[n // 2:], w[n // 2:]
    mult = np.full(theta.size, 2.0)
    mult[0] -= n % 2
    keep = w > 0.0
    return theta[keep], w[keep], mult[keep]


def _env_vectors(y: float, mus, dim_e: int) -> np.ndarray:
    """Columns exp(-i mu (B+B^dag)) |0>, one per mu, as a (dim_e, len(mus)) array.

    x_j = sum_k W[j,k] W[0,k] exp(-i mu theta_k) over the nonnegative nodes
    of nonzero weight (see _half_spectrum): a node and its mirror contribute
    W[j,k] W[0,k] (e^{-i mu theta} + (-1)^j e^{i mu theta}), which holds for
    complex mu too.  Each block of rows W[j,:] (_levels from v_0 = W[0,:])
    becomes rows of x in one product per parity of j.  W[0,k]
    exp(-+i mu theta_k) is formed in logs, so a complex mu neither overflows
    at far nodes nor magnifies the rounding error of their tiny weights.
    """
    theta, w, mult = _half_spectrum(y, dim_e)
    phase = 1j * np.multiply.outer(theta, np.asarray(mus, dtype=complex))
    log_w0 = (0.5 * np.log(w) + np.log(0.5 * mult))[:, None]
    minus, plus = np.exp(log_w0 - phase), np.exp(log_w0 + phase)
    heads = (minus + plus, minus - plus)  # even rows, odd rows
    X = np.zeros((dim_e, phase.shape[1]), dtype=complex)
    V = np.stack((np.zeros_like(w), np.sqrt(w)))
    X[0] = V[1] @ heads[0]
    for s, e, b in _blocks(_vacuum_block(y, dim_e)):
        V = _levels(V[-2:], theta, b)
        for first, head in zip((s % 2, 1 - s % 2), heads):  # V[2 + first] is v_{s + first}
            X[s + first:e:2] = (V[2 + first::2] @ head.view(float)).view(complex)
    return X


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
    cap = _env_dim_for(p, dim_e)

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


def _block(theta: np.ndarray, W: np.ndarray, mu_n: float) -> np.ndarray:
    """One block of the dilation: exp(-i mu_n (B+B^dag)) from the dense W."""
    return (W * np.exp(-1j * mu_n * theta)) @ W.T


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
    theta, W = eigh_tridiagonal(np.zeros(dim_e), _couplings(p.y, dim_e))
    for n in range(dim_s):
        sl = slice(n * dim_e, (n + 1) * dim_e)
        U[sl, sl] = _block(theta, W, mu(n, p))
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
    d = _env_dim_for(p, dim_e)
    amps = _vacuum_column(p.y, complex(mu_value), d)
    tail = 0.0 if d == max_dimension(p) else float(np.sum(np.abs(amps[-4:]) ** 2))
    return CoherentVector(env_dim=d, amplitudes=amps, tail_bound=tail)
