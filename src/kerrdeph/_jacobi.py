"""Jacobi numerics of the ladder generator B + B^dag.

The generator B + B^dag = W diag(theta) W^T is real symmetric tridiagonal
with zero diagonal and couplings b_k = sqrt(k f(k)^2).  The oracle's
evolutions and the channel's Gaussian check need only its nodes theta_k,
the vacuum weights w_k = W[0,k]^2 (Golub & Welsch) and leading rows of W,
all on the block the vacuum reaches: a coupling that is exactly 0 (the top
level of the lam<0 space at integer 2 omega/|lam|) splits the generator
there.  The zero diagonal makes the generator, its even and odd levels
grouped, [[0, C], [C^T, 0]] with C bidiagonal at half the size (Golub &
Kahan), so the nodes are +-sigma for the singular values sigma of C, which
dqds finds to high relative accuracy (Fernando & Parlett); no node is
averaged with its mirror.  The rows W[j,:] follow from v_{j+1} = (theta
v_j - b_j v_{j-1}) / b_{j+1}, one numpy row per level for all nodes
(_levels, _blocks), and v_j(-theta) = (-1)^j v_j(theta), so every walk
runs over the nonnegative half of the nodes.
"""

import ctypes
from functools import lru_cache

import numpy as np
from scipy.linalg import cython_lapack

from .algebra import _annihilator_band
from .errors import ConvergenceError

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


def _vacuum_block(y: float, dim_e: int) -> np.ndarray:
    """Couplings of the block the vacuum reaches: cut at the first zero."""
    off = _annihilator_band(y, dim_e)
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


def _walk(theta: np.ndarray, off: np.ndarray, dim: int = 1, mirrored: bool = False):
    """Log norms L = log |v| of the recurrence from v_0 = 1 at each node, and
    the rows v_j / |v|, j < dim, of the unit eigenvectors: w = exp(-2 L).

    Each block adds its squares to the log norm, then its last two rows are
    rescaled to unit norm.  Rows below dim are kept with the log norm before
    their block and scaled by the whole norm at the end, so they hold where
    the weight underflows.  Past row dim, a node whose log norm grows
    _LOG_NORM_CUT beyond its value there leaves the walk: its rows are below
    exp(-400), and at dim = 1 its weight is 0.0 either way (the norm only
    grows); the others take the same steps, in the same blocks, as over
    every node.  A mirrored chain (b_j = b_{n-j}, the closed lam<0 block)
    has W[n-1-j] = (-1)^r W[j] at its r-th largest node (theta ascending).
    Its walk stops at the middle, stop = ceil(n/2), since beyond it the
    recurrence grows the rounding error of every node whose vector decays
    there: |v|^2 = 2 S - (n odd) v_{stop-1}^2 with S = sum_{j<stop} v_j^2,
    and the rows past the middle are mirrored.
    """
    n = off.size + 1
    stop = (n + 1) // 2 if mirrored else n
    log_norm = np.zeros_like(theta)  # each node's entry is written when it leaves
    live, th, L = np.arange(theta.size), theta, log_norm.copy()  # the nodes still walked
    V = np.stack((np.zeros_like(theta), np.ones_like(theta)))
    kept = [(0, V[1:], L.copy())]  # (first level, rows, log norm before)
    mark = L.copy() if dim == 1 else None  # log norm once rows < dim are walked
    for s, e, b in _blocks(off):
        if s >= stop:
            break
        V = _levels(V[-2:], th, b[:stop - s + 1])
        if s < dim:
            kept.append((s, V[2:2 + dim - s].copy(), L.copy()))
        sq = np.einsum("ij,ij->j", V[2:], V[2:])
        L += 0.5 * np.log1p(sq)
        V[-2:] /= np.sqrt(1.0 + sq)
        if mark is None and e >= dim:
            mark = L.copy()
        if mark is not None and (L - mark).max(initial=0.0) > _LOG_NORM_CUT:
            keep = L <= mark + _LOG_NORM_CUT
            log_norm[live[~keep]] = L[~keep]
            live, th, L, mark, V = live[keep], th[keep], L[keep], mark[keep], V[-2:, keep]
    if mirrored:
        L += 0.5 * np.log(2.0 - (n % 2) * V[-1] ** 2)
    log_norm[live] = L
    rows = np.zeros((dim, theta.size))
    for s, R, before in kept:
        rows[s:s + len(R)] = R * np.exp(before - log_norm)
    if mirrored and dim > stop:
        rows[stop:] = rows[n - 1 - np.arange(stop, dim)] * (-1.0) ** np.arange(theta.size)[::-1]
    return log_norm, rows


# entries are O(dim_e), so the ladders (64..4096 is 7 rungs) of several
# parameter sets stay resident between the calls that share them
@lru_cache(maxsize=64)
def _env_eigensystem(y: float, dim_e: int):
    """Nodes theta_k and vacuum weights w_k = W[0,k]^2 of B + B^dag.

    Both live on the block the vacuum reaches (see _vacuum_block).  The
    nonnegative nodes are the singular values, from dqds, of the bidiagonal
    C with b1, b3, ... on its diagonal and b2, b4, ... off it; an odd block
    gets a trailing 0 on the diagonal, which is the exact middle node 0.
    The weights come from _walk on that half and are mirrored, as are
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
    w = np.exp(-2.0 * _walk(pos, off)[0])
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


def _leading_rows(y: float, dim_e: int, dim: int, mirrored: bool):
    """Nonnegative nodes and the rows W[j,:], j < dim (see _walk), the node
    at 0 scaled by sqrt(1/2): a node and its mirror then each count once."""
    theta = _env_eigensystem(y, dim_e)[0]
    half = theta[theta.size // 2:]
    rows = _walk(half, _vacuum_block(y, dim_e), dim, mirrored)[1]
    rows[:, 0] *= np.sqrt(0.5 if theta.size % 2 else 1.0)
    return half, rows
