"""Coherent information and quantum capacity over diagonal Fock inputs.

For a diagonal input diag(p) the channel output is the same diagonal state
and the complementary output has the spectrum of the Gram matrix
G_{mn} = sqrt(p_m p_n) K_{n,m}, so the coherent information reduces to
J(p) = H(p) - S(G) with H the Shannon entropy in bits.  The channel is
degradable, J is concave on the simplex, and local maxima are global.  The
optimizer is exponentiated-gradient (mirror) ascent from the uniform input,
which converges only linearly, finished by Newton steps on the KKT system,
which converge quadratically: the first time the KKT residual falls below
_NEWTON_HANDOVER the ascent tries Newton from there and stops if that
certifies (residual < tol).  The multistart stops at the first certified
ascent and falls back to Dirichlet-random starts only when an ascent is
not certified; an exhaustive simplex grid is a low-N cross-check.

An average-energy cap sum_n p_n eps(n) <= E, eps(n) = n + lam n^2 / 2, is
enforced through its Lagrange multiplier (bisection over nu on the shifted
objective J - nu <eps, p>): the feasible-set geometry never enters, which
matters because the optimum can hold astronomically small but nonzero mass
on expensive levels that projection-based iterations truncate to zero.

Both derivatives of J are closed forms in the eigendecomposition of the
Gram matrix: the gradient from f(G), f(x) = x log2 x, and the Hessian of
the Newton polish from the divided differences of f (Daleckii-Krein).
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
# The ascent tries Newton once its KKT residual falls below _NEWTON_HANDOVER,
# and every Newton polish runs on to a residual of tol * _POLISH_DEPTH.  Over
# the 59 optimize_capacity calls of perfbench's grid-sweeps this cut the
# objective evaluations from 7417 to 1117 (Q within 7.6e-15, worst certified
# residual 9.8e-10 -> 9.9e-13).  A 1e-2 hand-over tries Newton too early:
# more Hessians per call on the short N=2 revival calls (up to 3, not 2),
# and a slower median grid-sweeps task.  Polishing only to tol leaves
# energy-capped solves up to 1.9e-9 short of the optimum: the bisection
# warm-starts each solve from the last, and an iterate that only just
# certifies can come back unchanged at a new multiplier.  On 27 capped N=3
# calls (lam in {-.4, 0, .3}, gamma in {.5, 1, 2}, E in {.5, 1.2, 2}) the
# shortfall against a tol=1e-12 solve is 4.7e-13 (9.4e-11 with the mirror
# ascent run to its stall), in 4.4k evaluations instead of 38.7k.
_NEWTON_HANDOVER = 1e-3
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
    idx = fock_menu(len(pvec) - 1) if indices is None else list(indices)
    K = _menu_kernel(p, idx, convention)
    J, _ = _objective_and_gradient(np.clip(pvec, 0.0, None), K)
    return J


def two_level_eigenvalues(p1: float, K: float):
    """Complementary-output eigenvalues q+- for a two-level diagonal input."""
    p2 = 1.0 - p1
    s = math.sqrt((p1 - p2) ** 2 + 4.0 * p1 * p2 * K * K)
    return 0.5 * (1.0 + s), 0.5 * (1.0 - s)


def _objective_and_gradient(pv: np.ndarray, K: np.ndarray, shift=None):
    """J and its ambient gradient at weights pv >= 0 (need not be normalized).

    dJ/dp_k = -log2 p_k + (V f(q) V^T)_kk / p_k with f(x) = x log2 x and
    G = V diag(q) V^T; the 1/ln2 terms of the two entropies cancel.  The
    diagonal is a matrix function of G, so it does not depend on the basis
    eigh picks inside a degenerate eigenspace.  A linear `shift` subtracts
    <shift, pv> from the objective (Lagrangian for the energy constraint).
    """
    root = np.sqrt(pv)
    G = (root[:, None] * root[None, :]) * K
    q, V = np.linalg.eigh(G)
    qc = np.clip(q, 0.0, None)
    xw = _xlog2x(qc)
    J = _h_bits(pv) + float(xw.sum())  # H(p) - S = H(p) + sum q log2 q
    pf = np.maximum(pv, _LOG2_FLOOR)
    g = -np.log2(pf) + ((V * V) @ xw) / pf
    if shift is not None:
        return J - float(shift @ pv), g - shift
    return J, g


def _hessian(ps: np.ndarray, Ks: np.ndarray) -> np.ndarray:
    """Hessian of J on a support with weights ps > 0 and kernel block Ks.

    With G = sqrt(p) K sqrt(p) = V diag(q) V^T, (V^T dG/dp_l V)_ij =
    V_li V_lj (q_i + q_j) / (2 p_l), and the Daleckii-Krein formula
    differentiates f(G), f(x) = x log2 x, through the divided differences
    F_ij of f:
    H_kl = T_kl / (p_k p_l) - delta_kl [1/(p_k ln2) + f(G)_kk / p_k^2],
    T_kl = sum_ij V_ki V_li V_kj V_lj F_ij (q_i + q_j) / 2.
    A linear energy shift does not enter.
    """
    root = np.sqrt(ps)
    q, V = np.linalg.eigh((root[:, None] * root[None, :]) * Ks)
    q = np.clip(q, 0.0, None)
    hi = np.maximum(q[:, None], q[None, :])
    lo = np.minimum(q[:, None], q[None, :])
    # F_ij ln2 = ln hi + r ln r / (r - 1), r = lo/hi: f'(q) at r = 1, f(hi)/hi at r = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = lo / hi
        tail = np.where(r == 1.0, 1.0, np.where(r > 0.0, r * np.log(r) / (r - 1.0), 0.0))
        A = np.where(hi > 0.0, (np.log(hi) + tail) * (hi + lo) / 2.0, 0.0) / math.log(2.0)
    # one eigenvector i at a time, so memory stays O(n^2) at large menus
    T = sum(np.outer(V[:, i], V[:, i]) * ((V * A[i]) @ V.T) for i in range(len(q)))
    fG = (V * V) @ _xlog2x(q)
    return T / np.outer(ps, ps) - np.diag(1.0 / (ps * math.log(2.0)) + fG / ps**2)


def _kkt_residual(pv: np.ndarray, g: np.ndarray, support_tol: float = 1e-12) -> float:
    """Stationarity residual on the simplex: gradient flat on the support,
    and no ascent direction into zero coordinates."""
    c = float(pv @ g)
    on = pv > support_tol
    r_on = float(np.abs(g[on] - c).max()) if on.any() else 0.0
    r_off = float(np.clip(g[~on] - c, 0.0, None).max()) if (~on).any() else 0.0
    return max(r_on, r_off)


def _newton_polish(pv, K, tol, shift=None, rounds: int = 40):
    """Newton iteration on the interior KKT system g(p) = c, sum p = 1.

    Each round solves for a step with the closed-form Hessian (`_hessian`,
    one eigh) and keeps it, damped to stay inside the simplex, only if it
    lowers the KKT residual r.  The rounds stop at r < tol * _POLISH_DEPTH,
    or at the first round that no longer lowers r; the caller decides
    whether r < tol certifies.  Coordinates at zero stay frozen unless the
    KKT check says mass should flow back into them.
    """
    pv = np.clip(np.asarray(pv, dtype=float), 0.0, None)
    pv = pv / pv.sum()
    J, g = _objective_and_gradient(pv, K, shift)
    r = _kkt_residual(pv, g)
    for _ in range(rounds):
        if r < tol * _POLISH_DEPTH:
            break
        c = float(pv @ g)
        support = pv > 1e-12
        off = ~support
        if off.any() and float(np.clip(g[off] - c, 0.0, None).max()) > tol:
            pv = np.maximum(pv, 1e-8)  # reopen the starved coordinate
            pv = pv / pv.sum()
            J, g = _objective_and_gradient(pv, K, shift)
            r = _kkt_residual(pv, g)
            continue
        idx = np.nonzero(support)[0]
        k = len(idx)
        if k < 2:
            break
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = _hessian(pv[idx], K[np.ix_(idx, idx)])
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.zeros(k + 1)
        rhs[:k] = c - g[idx]
        try:
            step = np.linalg.solve(kkt, rhs)[:k]
        except np.linalg.LinAlgError:
            break
        # fraction-to-boundary damping keeps the support strictly positive
        neg = step < 0
        alpha = 1.0
        if neg.any():
            alpha = min(1.0, float(0.95 * np.min(-pv[idx][neg] / step[neg])))
        # the damped step, else half of it: where J grows like -p log p a
        # tiny support mass overshoots towards zero under the exact Hessian
        for scale in (1.0, 0.5):
            cand = pv.copy()
            cand[idx] = pv[idx] + scale * alpha * step
            cand = np.clip(cand, 0.0, None)
            cand = cand / cand.sum()
            Jc, gc = _objective_and_gradient(cand, K, shift)
            rc = _kkt_residual(cand, gc)
            if rc < r:
                break
        if rc >= r:
            break
        pv, J, g, r = cand, Jc, gc, rc
    return pv, J, r


def _ascend_simplex(p0, K, tol, max_iter, shift=None):
    """Maximize J from p0; returns (p, J, trace, converged, r).

    Exponentiated-gradient steps run until the KKT residual r first falls
    below _NEWTON_HANDOVER; a Newton polish from that iterate ends the
    ascent if it certifies (r < tol), and is discarded otherwise.  The
    mirror steps then go on until r < tol, max_iter, or 60 accepted steps
    that no longer raise J by more than 1e-15, and a last polish runs
    unless r is already below tol * _POLISH_DEPTH.  `trace` holds J after
    every accepted step and after the polish that ends the ascent.

    With `shift` the objective is the Lagrangian J - <shift, p>; the simplex
    machinery is unchanged because the extra term is linear.
    """
    pv = np.clip(np.asarray(p0, dtype=float), 1e-12, None)
    pv = pv / pv.sum()
    J, g = _objective_and_gradient(pv, K, shift)
    eta = 0.5
    trace = [J]
    r = _kkt_residual(pv, g)
    stall = 0
    it = 0
    tried = False
    while it < max_iter and r >= tol:
        it += 1
        step = g - g.max()
        cand = pv * np.exp(eta * step * math.log(2.0))  # gradient is in bits
        cand = np.maximum(cand / cand.sum(), _LOG2_FLOOR)
        Jc, gc = _objective_and_gradient(cand, K, shift)
        if Jc >= J - 1e-15:
            stall = 0 if Jc > J + 1e-15 else stall + 1
            pv, J, g = cand, Jc, gc
            trace.append(J)
            eta = min(eta * 1.2, 64.0)
            r = _kkt_residual(pv, g)
            if not tried and r < _NEWTON_HANDOVER:
                tried = True
                pn, Jn, rn = _newton_polish(pv, K, tol, shift)
                if rn < tol:
                    trace.append(Jn)
                    return pn, Jn, trace, True, rn
            if stall >= 60:  # J is at the ulp floor; leave it to the last polish
                break
        else:
            eta /= 2.0
            if eta < 1e-18:
                break
    if r >= tol * _POLISH_DEPTH:
        pv, J, r = _newton_polish(pv, K, tol, shift)
        trace.append(J)
    return pv, J, trace, r < tol, r


def optimize_capacity(p: ChannelParams, N: int, constraint: EnergyConstraint | None = None,
                      indices=None, convention: str = "proof", starts: int = 8,
                      tol: float = 1e-9, max_iter: int = 100_000,
                      seed: int = 0) -> CapacityResult:
    """Maximize J over diagonal inputs on N+1 menu levels.

    Ascends from the uniform start first and stops there when the result is
    certified (KKT residual < tol).  `starts` Dirichlet-random starts (fixed
    `seed`) are the fallback: they run in order only while no certified
    result has been kept, and the best J wins (ulp-level ties go to a
    certified run).  J is concave here, so the fallback only guards against
    the ascent stalling in flat regions.
    An energy cap is enforced through its Lagrange multiplier: J - nu<eps,p>
    is maximized on the simplex and nu is bisected until the cap binds
    (capped energy is monotone in nu; strict concavity of J makes the inner
    maximizer unique, so a warm single start suffices inside the bisection).
    Non-convergence is reported through the flag, not raised.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    idx = fock_menu(N) if indices is None else list(indices)
    if len(idx) != N + 1:
        raise DomainError(f"menu has {len(idx)} levels, expected N+1={N + 1}")
    K = _menu_kernel(p, idx, convention)

    rng = np.random.default_rng(seed)
    inits = [np.full(N + 1, 1.0 / (N + 1))]
    inits += [rng.dirichlet(np.ones(N + 1)) for _ in range(starts)]

    def solve(shift=None, warm=None):
        best = None
        for p0 in (inits if warm is None else [warm]):
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
    idx = fock_menu(N) if indices is None else list(indices)
    K = _menu_kernel(p, idx, convention)

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
    width = max(len(r.pvec) for r in rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["lambda", "gamma", "N", "Q"]
                   + [f"p{i}" for i in range(width)] + ["converged"])
        for r in rows:
            pcols = ["%.17g" % v for v in r.pvec]
            pcols += [""] * (width - len(pcols))
            w.writerow(["%.17g" % r.lam, "%.17g" % r.gamma, str(r.N),
                        "%.17g" % r.Q] + pcols + [str(int(r.converged))])
