"""Coherent information and quantum capacity over diagonal Fock inputs.

For a diagonal input diag(p) the channel output is the same diagonal state
and the complementary output has the spectrum of the Gram matrix
G_{mn} = sqrt(p_m p_n) K_{n,m}, so the coherent information reduces to
J(p) = H(p) - S(G) with H the Shannon entropy in bits.  The channel is
degradable, J is concave on the simplex, and local maxima are global.  The
optimizer is one ascent loop from the uniform input: damped Newton steps
on the KKT system, and exponentiated-gradient (mirror) steps only where a
Newton step is not kept.  The multistart stops at the first certified
ascent (KKT residual < tol) and falls back to Dirichlet-random starts only
when an ascent is not certified; an exhaustive simplex grid is a low-N
cross-check.

An average-energy cap sum_n p_n eps(n) <= E, eps(n) = n + lam n^2 / 2, is
enforced through its Lagrange multiplier (bisection over nu on the shifted
objective J - nu <eps, p>): the feasible-set geometry never enters, which
matters because the optimum can hold astronomically small but nonzero mass
on expensive levels that projection-based iterations truncate to zero.

Both derivatives of J are closed forms in the eigendecomposition of the
Gram matrix: the gradient from f(G), f(x) = x log2 x, and the Hessian of
the Newton step from the divided differences of f (Daleckii-Krein).
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import ChannelParams, _check_index
from .errors import DimensionError, DomainError, InvalidStateError
from .kernel import _kernel_from_mu, mu
from ._parallel import parallel_map

__all__ = [
    "CapacityResult",
    "CapacityRow",
    "EnergyConstraint",
    "von_neumann_entropy",
    "shannon_entropy",
    "coherent_information",
    "two_level_eigenvalues",
    "optimize_capacity",
    "exhaustive_capacity",
    "capacity_sweep",
    "energy",
    "fock_menu",
    "write_capacity_csv",
]

_LOG2_FLOOR = 1e-300  # argument floor inside log2; entries at 0 contribute 0
# Every ascent runs on to a KKT residual of tol * _POLISH_DEPTH.  Stopping at
# tol leaves energy-capped solves up to 1.9e-9 short of the optimum: the
# bisection warm-starts each solve from the last, and an iterate that only
# just certifies can come back unchanged at a new multiplier.  On 27 capped
# N=3 calls (lam in {-.4, 0, .3}, gamma in {.5, 1, 2}, E in {.5, 1.2, 2})
# the shortfall against a tol=1e-12 solve is at most 4.7e-13.
_POLISH_DEPTH = 1e-3


def _xlog2x(w: np.ndarray) -> np.ndarray:
    """w log2 w elementwise with 0 log 0 := 0, for nonnegative weights."""
    return np.where(w > 0.0, w * np.log2(np.maximum(w, _LOG2_FLOOR)), 0.0)


def _h_bits(w: np.ndarray) -> float:
    """-sum w log2 w with 0 log 0 := 0, for nonnegative weights."""
    return float(-_xlog2x(np.asarray(w, dtype=float)).sum())


def von_neumann_entropy(rho) -> float:
    """Entropy in bits of a density matrix (eigenvalues clamped in [-1e-10, 0))."""
    entries = np.asarray(getattr(rho, "entries", rho), dtype=complex)
    q = np.linalg.eigvalsh((entries + entries.conj().T) / 2.0)
    if q.min() < -1e-10:
        raise InvalidStateError(f"eigenvalue {q.min():.3e} < -1e-10")
    return _h_bits(np.clip(q, 0.0, None))


def shannon_entropy(pvec) -> float:
    """Entropy in bits of a probability vector."""
    return _h_bits(np.clip(np.asarray(pvec, dtype=float), 0.0, None))


def energy(n, lam: float):
    """Fock-level energy eps(n) = n + lam n^2 / 2 (sign of lam included)."""
    n = np.asarray(n, dtype=float)
    out = n + lam * n * n / 2.0
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EnergyConstraint:
    """Average-energy cap sum_n p_n eps(n) <= E over the chosen Fock menu."""

    E: float

    def __post_init__(self):
        if math.isnan(self.E):  # every comparison with nan reads False
            raise DomainError("energy bound E must be a number, got nan")

    def values(self, indices, lam: float) -> np.ndarray:
        return energy(np.asarray(indices, dtype=float), lam)


@dataclass(frozen=True)
class CapacityResult:
    pvec: np.ndarray
    Q: float
    J_trace: list = field(repr=False)
    converged: bool = False
    active_energy_constraint: bool = False
    kkt_residual: float = math.nan


@dataclass(frozen=True)
class CapacityRow:
    lam: float
    gamma: float
    N: int
    Q: float
    pvec: np.ndarray
    converged: bool
    valid: bool


def fock_menu(N: int, offsets=(0, 1, 1)):
    """Fock indices [n, n+m, n+m+l, n+m+2l, ...] of length N+1."""
    n0, m, l = offsets
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if n0 < 0 or m < 1 or l < 1:
        raise DomainError(f"offsets must satisfy n>=0, m>=1, l>=1, got {offsets}")
    idx = [n0, n0 + m]
    while len(idx) < N + 1:
        idx.append(idx[-1] + l)
    return idx[: N + 1]


def _menu(N: int, indices):
    """The default menu of N+1 levels, or `indices` checked to hold N+1."""
    idx = fock_menu(N) if indices is None else list(indices)
    if len(idx) != N + 1:
        raise DomainError(f"menu has {len(idx)} levels, expected N+1={N + 1}")
    return idx


def _menu_kernel(p: ChannelParams, indices, convention: str) -> np.ndarray:
    """Real kernel matrix restricted to the index menu.

    "proof" uses the Fock displacements mu_n; "eq19" uses sqrt(gamma) n.
    """
    idx = np.asarray(list(indices))
    if convention == "proof":
        _check_index(idx, p)
        mus = mu(idx, p)
    elif convention == "eq19":
        mus = math.sqrt(p.gamma) * idx
    else:
        raise DomainError(f"unknown convention {convention!r}")
    return _kernel_from_mu(mus, p)


def coherent_information(pvec, p: ChannelParams, indices=None,
                         convention: str = "proof") -> float:
    """J(p) = H(pvec) - S(Gram) in bits for a diagonal input on the menu."""
    pvec = np.asarray(pvec, dtype=float)
    if abs(pvec.sum() - 1.0) > 1e-9 or pvec.min() < -1e-12:
        raise DomainError("pvec must be a probability vector")
    K = _menu_kernel(p, _menu(len(pvec) - 1, indices), convention)
    J, _ = _objective_and_gradient(np.clip(pvec, 0.0, None), K)
    return J


def two_level_eigenvalues(p1: float, K: float):
    """Complementary-output eigenvalues q+- for a two-level diagonal input."""
    p2 = 1.0 - p1
    s = math.sqrt((p1 - p2) ** 2 + 4.0 * p1 * p2 * K * K)
    return 0.5 * (1.0 + s), 0.5 * (1.0 - s)


def _objective_and_gradient(pv: np.ndarray, K: np.ndarray, shift=None, eig=False):
    """J and its ambient gradient at weights pv >= 0 (need not be normalized).

    dJ/dp_k = -log2 p_k + (V f(q) V^T)_kk / p_k with f(x) = x log2 x and
    G = V diag(q) V^T; the 1/ln2 terms of the two entropies cancel.  The
    diagonal is a matrix function of G, so it does not depend on the basis
    eigh picks inside a degenerate eigenspace.  A linear `shift` subtracts
    <shift, pv> from the objective (Lagrangian for the energy constraint).
    With `eig`, the decomposition (q, V) of G and the diagonal f(G)_kk come
    back as a third value, so that `_hessian` at the same point need not
    decompose G again.
    """
    root = np.sqrt(pv)
    q, V = np.linalg.eigh(np.multiply.outer(root, root) * K)
    xw = _xlog2x(np.maximum(q, 0.0))
    pf = np.maximum(pv, _LOG2_FLOOR)
    lg = np.log2(pf)
    J = float(xw.sum()) - float((pv * lg).sum())  # H(p) - S = H(p) + sum q log2 q
    fG = (V * V) @ xw  # the diagonal of f(G)
    g = fG / pf - lg
    if shift is not None:
        J, g = J - float(shift @ pv), g - shift
    return (J, g, (q, V, fG)) if eig else (J, g)


def _hessian(ps: np.ndarray, Ks: np.ndarray, eig=None) -> np.ndarray:
    """Hessian of J on a support with weights ps > 0 and kernel block Ks.

    With G = sqrt(p) K sqrt(p) = V diag(q) V^T, (V^T dG/dp_l V)_ij =
    V_li V_lj (q_i + q_j) / (2 p_l), and the Daleckii-Krein formula
    differentiates f(G), f(x) = x log2 x, through the divided differences
    F_ij of f:
    H_kl = T_kl / (p_k p_l) - delta_kl [1/(p_k ln2) + f(G)_kk / p_k^2],
    T_kl = sum_ij V_ki V_li V_kj V_lj F_ij (q_i + q_j) / 2.
    A linear energy shift does not enter.  `eig` is (q, V, f(G)_kk) of this
    G from `_objective_and_gradient` when the caller has it, else G is
    decomposed here.
    """
    if eig is None:
        root = np.sqrt(ps)
        q, V = np.linalg.eigh(np.multiply.outer(root, root) * Ks)
        fG = (V * V) @ _xlog2x(np.maximum(q, 0.0))
    else:
        q, V, fG = eig
    q = np.maximum(q, 0.0)
    hi = np.maximum.outer(q, q)
    lo = np.minimum.outer(q, q)
    # F_ij ln2 = ln hi + r ln r / (r - 1), r = lo/hi: f'(q) at r = 1, f(hi)/hi at r = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = lo / hi
        tail = np.where(r == 1.0, 1.0, np.where(r > 0.0, r * np.log(r) / (r - 1.0), 0.0))
        A = np.where(hi > 0.0, (np.log(hi) + tail) * (hi + lo) / 2.0, 0.0) / math.log(2.0)
    # one eigenvector i at a time, so memory stays O(n^2) at large menus
    T = sum(np.multiply.outer(V[:, i], V[:, i]) * ((V * A[i]) @ V.T) for i in range(len(q)))
    return T / np.multiply.outer(ps, ps) - np.diag(1.0 / (ps * math.log(2.0)) + fG / ps**2)


def _kkt_residual(pv: np.ndarray, g: np.ndarray, support_tol: float = 1e-12) -> float:
    """Stationarity residual on the simplex: gradient flat on the support,
    and no ascent direction into zero coordinates."""
    d = g - float(pv @ g)
    return float(np.max(np.where(pv > support_tol, np.abs(d), d), initial=0.0))


def _newton_step(pv, J, g, r, eig, K, tol, shift=None):
    """One damped Newton step on the interior KKT system g(p) = c, sum p = 1.

    The step solves the bordered system with the closed-form Hessian
    (`_hessian`) on the support p > 1e-12, damped to keep the support
    strictly positive; a step along which J does not rise to first
    order is not tried.  When a coordinate off the support asks for mass
    (g_k - c > tol), the candidate instead reopens each such coordinate to
    1e-8.  A candidate is kept when J rises by more than 1e-15, or when the
    KKT residual r falls while J falls by at most min(r, tol): J is
    resolved only to about 1e-14 (rounding in the two entropies), so a
    1e-15 band turns the last steps to the optimum away, and a point with
    residual r is within r of the optimum in J (J is concave and
    max_k g_k - c <= r).  `eig` is the decomposition of the Gram matrix at
    pv that `_objective_and_gradient` returned: when the support is the
    whole menu the Hessian reuses it, so the only eigh of a round is the
    candidate's.  Returns the kept (p, J, g, r, eig), or None.
    """
    def kept(cand):
        cand = np.maximum(cand, 0.0)
        cand = cand / cand.sum()
        Jc, gc, eigc = _objective_and_gradient(cand, K, shift, eig=True)
        rc = _kkt_residual(cand, gc)
        if Jc > J + 1e-15 or (rc < r and Jc >= J - min(r, tol)):
            return cand, Jc, gc, rc, eigc
        return None

    c = float(pv @ g)
    off = pv <= 1e-12
    starved = off & (g - c > tol)
    if starved.any():
        return kept(np.where(starved, 1e-8, pv))
    idx = np.nonzero(~off)[0]
    k = len(idx)
    if k < 2:
        return None
    kkt = np.zeros((k + 1, k + 1))
    # on the whole menu pv[idx] and K[idx][:, idx] are pv and K bit for bit
    kkt[:k, :k] = _hessian(pv[idx], K[idx][:, idx], eig if k == len(pv) else None)
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[:k] = c - g[idx]
    try:
        step = np.linalg.solve(kkt, rhs)[:k]
    except np.linalg.LinAlgError:
        return None
    if float(rhs[:k] @ step) >= 0.0:
        return None  # the model does not curve down along the step: no ascent
    # fraction-to-boundary damping keeps the support strictly positive
    neg = step < 0
    alpha = 1.0
    if neg.any():
        alpha = min(1.0, float(0.95 * np.min(-pv[idx][neg] / step[neg])))
    move = np.zeros_like(pv)
    move[idx] = alpha * step
    # the damped step, else half of it: where J grows like -p log p a
    # tiny support mass overshoots towards zero under the exact Hessian
    return kept(pv + move) or kept(pv + move / 2.0)


def _ascend_simplex(p0, K, tol, max_iter, shift=None):
    """Maximize J from p0; returns (p, J, trace, converged, r).

    Each round takes the Newton step of `_newton_step`.  Only a round whose
    Newton step is not kept takes one exponentiated-gradient (mirror) step:
    it is kept when J falls by no more than 1e-15, and the step size eta
    then grows by 1.2, else eta halves and the iterate stays.  Newton is
    tried again only after a step raises J by more than 1e-15 (retried
    after every step, it made the uncertified full lam<0 spaces up to 1.45
    times slower).  Mirror steps carry the rounds where the Newton model
    does not curve down along its step: J is linear in the weight of a
    level orthogonal to the others (lam=-1, gamma=19.74, N=2: 10 of 16
    rounds), and 29 of 71 rounds at (lam=.98, gamma=6.7, N=5).
    The rounds stop at a KKT residual r < tol * _POLISH_DEPTH; at 60 kept
    steps in a row that raise J by no more than 1e-15; once r < tol, at the
    first mirror step that does not raise J by more than 1e-15; when eta
    falls below 1e-18; or after max_iter rounds.  `converged` means
    r < tol, and `trace` holds J after every kept step.

    With `shift` the objective is the Lagrangian J - <shift, p>; the simplex
    machinery is unchanged because the extra term is linear.
    """
    pv = np.clip(np.asarray(p0, dtype=float), 1e-12, None)
    pv = pv / pv.sum()
    J, g, eig = _objective_and_gradient(pv, K, shift, eig=True)
    r = _kkt_residual(pv, g)
    trace = [J]
    eta = 0.5
    stall = 0
    newton = True
    for _ in range(max_iter):
        if r < tol * _POLISH_DEPTH:
            break
        out = _newton_step(pv, J, g, r, eig, K, tol, shift) if newton else None
        newton = out is not None
        if out is None:
            cand = pv * np.exp(eta * (g - g.max()) * math.log(2.0))  # g is in bits
            cand = np.maximum(cand / cand.sum(), _LOG2_FLOOR)
            Jc, gc, eigc = _objective_and_gradient(cand, K, shift, eig=True)
            if r < tol and Jc <= J + 1e-15:
                break  # certified, and neither step raises J
            if Jc < J - 1e-15:
                eta /= 2.0
                if eta < 1e-18:
                    break
                continue
            eta = min(eta * 1.2, 64.0)
            out = cand, Jc, gc, _kkt_residual(cand, gc), eigc
        rose = out[1] > J + 1e-15
        newton = newton or rose
        stall = 0 if rose else stall + 1
        pv, J, g, r, eig = out
        trace.append(J)
        if stall >= 60:
            break
    return pv, J, trace, r < tol, r


def optimize_capacity(p: ChannelParams, N: int, constraint: EnergyConstraint | None = None,
                      indices=None, convention: str = "proof", starts: int = 8,
                      tol: float = 1e-9, max_iter: int = 100_000,
                      seed: int = 0) -> CapacityResult:
    """Maximize J over diagonal inputs on N+1 menu levels.

    Ascends from the uniform start first (`_ascend_simplex`: Newton steps,
    mirror steps only as the fallback, at most max_iter rounds) and stops
    there when the result is certified (KKT residual < tol).  `starts`
    Dirichlet-random starts (fixed `seed`) are the fallback: each is drawn
    only when it runs, they run in order only while no certified result has
    been kept, and the best J wins (ulp-level ties go to a certified run).
    J is concave here, so the fallback only guards against the ascent
    stalling in flat regions.
    An energy cap is enforced through its Lagrange multiplier: J - nu<eps,p>
    is maximized on the simplex and nu is bisected until the cap binds
    (capped energy is monotone in nu; strict concavity of J makes the inner
    maximizer unique, so a warm single start suffices inside the bisection).
    Non-convergence is reported through the flag, not raised.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    idx = _menu(N, indices)
    K = _menu_kernel(p, idx, convention)

    def inits():
        yield np.full(N + 1, 1.0 / (N + 1))
        rng = np.random.default_rng(seed)  # drawn in order, only when they run
        for _ in range(starts):
            yield rng.dirichlet(np.ones(N + 1))

    def solve(shift=None, warm=None):
        best = None
        for p0 in (inits() if warm is None else [warm]):
            out = _ascend_simplex(p0, K, tol, max_iter, shift)
            # prefer strictly better J; on ulp-level ties prefer the converged run
            if best is None or out[1] > best[1] + 5e-15 or (
                    out[1] > best[1] - 5e-15 and out[3] and not best[3]):
                best = out
            if best[3]:  # certified; the remaining starts only rescue a stall
                break
        return best

    pv, J, trace, converged, r = solve()
    active = False

    if constraint is not None:
        eps = constraint.values(idx, p.lam)
        E = float(constraint.E)
        if E < float(eps.min()) - 1e-12:
            raise DomainError(
                f"energy bound E={E} is below the cheapest menu level "
                f"({float(eps.min()):.6g}); the constraint set is empty"
            )
        if float(eps @ pv) > E:
            active = True
            lo, hi = 0.0, 1.0
            sol_hi = solve(shift=hi * eps, warm=pv)
            while float(eps @ sol_hi[0]) > E:
                lo, hi = hi, 2.0 * hi
                if hi > 1e15:
                    break
                sol_hi = solve(shift=hi * eps, warm=sol_hi[0])
            feasible = sol_hi
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                sol = solve(shift=mid * eps, warm=feasible[0])
                if float(eps @ sol[0]) > E:
                    lo = mid
                else:
                    hi = mid
                    feasible = sol
                if hi - lo <= 1e-12 * max(1.0, hi):
                    break
            pv, _, trace, converged, r = feasible
            J, _ = _objective_and_gradient(np.clip(pv, 0.0, None), K)
            converged = bool(converged and float(eps @ pv) <= E + 1e-9)
        active = bool(active and float(eps @ pv) >= E - 1e-7)

    Q = min(max(J, 0.0), math.log2(N + 1))  # provable range; J can spill by ulps
    return CapacityResult(pvec=pv, Q=Q, J_trace=trace,
                          converged=converged, active_energy_constraint=active,
                          kkt_residual=r)


def exhaustive_capacity(p: ChannelParams, N: int, step: float = 0.01,
                        indices=None, convention: str = "proof"):
    """Best J over a uniform simplex grid (N <= 2 only); returns (Q, pvec)."""
    if N not in (1, 2):
        raise DomainError(f"exhaustive search supports N=1,2 only, got {N}")
    if not 0.0 < step <= 1.0:
        raise DomainError(f"step must be in (0, 1], got {step}")
    K = _menu_kernel(p, _menu(N, indices), convention)

    ticks = np.arange(0.0, 1.0 + step / 2.0, step)
    if N == 1:
        P = np.column_stack([ticks, 1.0 - ticks])
    else:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        keep = (a + b) <= 1.0 + 1e-12
        P = np.column_stack([a[keep], b[keep], 1.0 - a[keep] - b[keep]])
    P = np.clip(P, 0.0, None)

    root = np.sqrt(P)
    G = root[:, :, None] * root[:, None, :] * K[None, :, :]
    q = np.clip(np.linalg.eigvalsh(G), 0.0, None)

    J = _xlog2x(q).sum(axis=1) - _xlog2x(P).sum(axis=1)
    i = int(np.argmax(J))
    return float(min(max(J[i], 0.0), math.log2(N + 1))), P[i]


def capacity_sweep(lambdas, gammas, Ns, omega: float = 1.0,
                   constraint: EnergyConstraint | None = None,
                   convention: str = "proof", offsets=(0, 1, 1)):
    """CapacityRow list over the (lambda, N, gamma) grid, gamma innermost.

    Rows whose menu does not fit in a lam<0 space are flagged invalid and
    carry nan instead of raising, so sweeps cover mixed-sign lambda grids.
    """
    jobs = [(lam, N, g) for lam in lambdas for N in Ns for g in gammas]

    def run(job):
        lam, N, g = job
        params = ChannelParams(gamma=g, lam=lam, omega=omega)
        try:  # a menu past the lam<0 space is refused before any work
            res = optimize_capacity(params, N, constraint=constraint,
                                    indices=fock_menu(N, offsets),
                                    convention=convention)
        except DimensionError:
            return CapacityRow(lam=lam, gamma=g, N=N, Q=math.nan,
                               pvec=np.full(N + 1, math.nan), converged=False,
                               valid=False)
        return CapacityRow(lam=lam, gamma=g, N=N, Q=res.Q, pvec=res.pvec,
                           converged=res.converged, valid=True)

    return parallel_map(run, jobs)


def write_capacity_csv(rows, path):
    """Write sweep rows as `lambda,gamma,N,Q,p0,...,pN,converged` (17 digits)."""
    width = max((len(r.pvec) for r in rows), default=0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["lambda", "gamma", "N", "Q"]
                   + [f"p{i}" for i in range(width)] + ["converged"])
        for r in rows:
            pcols = ["%.17g" % v for v in r.pvec]
            pcols += [""] * (width - len(pcols))
            w.writerow(["%.17g" % r.lam, "%.17g" % r.gamma, str(r.N),
                        "%.17g" % r.Q] + pcols + [str(int(r.converged))])
