"""Coherent information and quantum capacity over diagonal Fock inputs.

For a diagonal input diag(p) the channel output is the same diagonal state
and the complementary output has the spectrum of the Gram matrix
G_{mn} = sqrt(p_m p_n) K_{n,m}, so the coherent information reduces to
J(p) = H(p) - S(G) with H the Shannon entropy in bits.  The channel is
degradable, J is concave on the simplex, and local maxima are global; the
optimizer is exponentiated-gradient (mirror) ascent from the uniform input,
stopping at the first ascent whose KKT residual certifies it and falling
back to Dirichlet-random starts only when the ascent stalls, with an
exhaustive simplex grid as a low-N cross-check.

An average-energy cap sum_n p_n eps(n) <= E, eps(n) = n + lam n^2 / 2, is
enforced through its Lagrange multiplier (bisection over nu on the shifted
objective J - nu <eps, p>): the feasible-set geometry never enters, which
matters because the optimum can hold astronomically small but nonzero mass
on expensive levels that projection-based iterations truncate to zero.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import ChannelParams, max_dimension
from .errors import DimensionError, DomainError, InvalidStateError
from .kernel import _check_index, _kernel_from_mu, mu
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


def _h_bits(w: np.ndarray) -> float:
    """-sum w log2 w with 0 log 0 := 0, for nonnegative weights."""
    w = np.asarray(w, dtype=float)
    terms = np.where(w > 0.0, w * np.log2(np.maximum(w, _LOG2_FLOOR)), 0.0)
    return float(-terms.sum())


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


def _check_menu(p: ChannelParams, indices, convention: str):
    bound = max_dimension(p)
    if convention == "proof" and bound is not None and max(indices) >= bound:
        raise DimensionError(
            f"menu index {max(indices)} exceeds the lam<0 space (dim {bound})"
        )


def coherent_information(pvec, p: ChannelParams, indices=None,
                         convention: str = "proof") -> float:
    """J(p) = H(pvec) - S(Gram) in bits for a diagonal input on the menu."""
    pvec = np.asarray(pvec, dtype=float)
    if abs(pvec.sum() - 1.0) > 1e-9 or pvec.min() < -1e-12:
        raise DomainError("pvec must be a probability vector")
    idx = fock_menu(len(pvec) - 1) if indices is None else list(indices)
    _check_menu(p, idx, convention)
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

    dJ/dp_k = -log2 p_k + (1/p_k) sum_i log2(q_i) q_i V[k,i]^2; the 1/ln2
    terms of the two entropies cancel.  Near-degenerate positive spectra
    fall back to central differences (the per-eigenvalue formula is only
    conditionally stable there).  A linear `shift` subtracts <shift, pv>
    from the objective (Lagrangian for the energy constraint).
    """
    root = np.sqrt(pv)
    G = (root[:, None] * root[None, :]) * K
    q, V = np.linalg.eigh(G)
    qc = np.clip(q, 0.0, None)
    xw = np.where(qc > 0.0, qc * np.log2(np.maximum(qc, _LOG2_FLOOR)), 0.0)
    J = _h_bits(pv) + float(xw.sum())  # H(p) - S = H(p) + sum q log2 q

    positive = np.sort(qc[qc > 1e-12])
    if len(positive) >= 2 and np.diff(positive).min() < 1e-12:
        g = _gradient_fd(pv, K)
    else:
        pf = np.maximum(pv, _LOG2_FLOOR)
        M = (V * V) @ xw
        g = -np.log2(pf) + M / pf
    if shift is not None:
        return J - float(shift @ pv), g - shift
    return J, g


def _gradient_fd(pv: np.ndarray, K: np.ndarray, h: float = 1e-6) -> np.ndarray:
    def val(v):
        root = np.sqrt(np.clip(v, 0.0, None))
        q = np.linalg.eigvalsh((root[:, None] * root[None, :]) * K)
        qc = np.clip(q, 0.0, None)
        return _h_bits(v) - _h_bits(qc)

    g = np.empty_like(pv)
    for k in range(len(pv)):
        e = np.zeros_like(pv)
        e[k] = h
        g[k] = (val(pv + e) - val(np.maximum(pv - e, 0.0))) / (2.0 * h)
    return g




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

    Exponentiated-gradient ascent stalls once J differences fall below one
    ulp, which happens while the gradient residual is still ~1e-8; Newton
    steps driven by the gradient itself (FD Hessian of the analytic
    gradient) contract the residual below that floor.  Coordinates at zero
    stay frozen unless the KKT check says mass should flow back into them.
    """
    pv = np.clip(np.asarray(pv, dtype=float), 0.0, None)
    pv = pv / pv.sum()
    J, g = _objective_and_gradient(pv, K, shift)
    r = _kkt_residual(pv, g)
    for _ in range(rounds):
        if r < tol:
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
        h = 1e-6
        H = np.empty((k, k))
        for a, ia in enumerate(idx):
            e = np.zeros_like(pv)
            e[ia] = h
            H[:, a] = (_objective_and_gradient(pv + e, K, shift)[1][idx]
                       - _objective_and_gradient(np.maximum(pv - e, 0.0), K, shift)[1][idx]) / (2 * h)
        H = (H + H.T) / 2.0
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = H
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
        cand = pv.copy()
        cand[idx] = pv[idx] + alpha * step
        cand = np.clip(cand, 0.0, None)
        cand = cand / cand.sum()
        Jc, gc = _objective_and_gradient(cand, K, shift)
        rc = _kkt_residual(cand, gc)
        if rc < r:
            pv, J, g, r = cand, Jc, gc, rc
        else:
            break
    return pv, J, r


def _ascend_simplex(p0, K, tol, max_iter, shift=None):
    """Exponentiated-gradient ascent of J from p0; returns (p, J, trace, converged, r).

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
            if stall >= 60:  # J is at the ulp floor; hand over to Newton
                break
        else:
            eta /= 2.0
            if eta < 1e-18:
                break
    if r >= tol:
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
    _check_menu(p, idx, convention)
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
    _check_menu(p, idx, convention)
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

    def rows_h(w):
        return -np.where(w > 0.0, w * np.log2(np.maximum(w, _LOG2_FLOOR)), 0.0).sum(axis=1)

    J = rows_h(P) - rows_h(q)
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
        idx = fock_menu(N, offsets)
        try:
            _check_menu(params, idx, convention)
        except DimensionError:
            return CapacityRow(lam=lam, gamma=g, N=N, Q=math.nan,
                               pvec=np.full(N + 1, math.nan), converged=False,
                               valid=False)
        res = optimize_capacity(params, N, constraint=constraint, indices=idx,
                                convention=convention)
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
