"""The deformed dephasing channel, its complementary map, and Kraus forms.

The channel acts entrywise: N(rho)_{nm} = K_{n,m} rho_{nm} (Hadamard product
with the kernel), so diagonals pass through untouched.  The complementary
channel maps to the environment: N^c(rho) = sum_n rho_nn |c_n><c_n| with the
nonlinear coherent vectors c_n, and depends on the input diagonal only.

As a Hadamard channel it has a diagonal Kraus family (K_l)_{nn} = D[l, n] for
every real factorisation K = D^T D (King, Matsumoto, Nathanson, Ruskai,
arXiv:quant-ph/0509126): rank K rows from eigh(K) for lam >= 0, the real
environment amplitudes of the c_n for lam < 0 (see kraus_set).  Completeness
is measured, not assumed.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .algebra import (ChannelParams, build_annihilator, build_k0,
                      max_dimension)
from .errors import (DimensionError, DomainError, InvalidStateError,
                     SingularityError, TruncationError)
from .kernel import amplitude_table, coherent_vector, kernel_matrix

__all__ = [
    "DensityMatrix",
    "KrausSet",
    "apply",
    "complementary_apply",
    "complementary_spectrum",
    "kraus_set",
    "coherent_input_output",
    "gaussian_decomposition",
    "verify_gaussian_decomposition",
    "phase_covariance_residual",
]

def _certified_psd(h: np.ndarray) -> bool:
    """True when a Cholesky factorization proves eigvalsh(h).min() >= -1e-10.

    Let u be the unit roundoff and gamma_k = k*u / (1 - k*u).
    - A Cholesky factorization of h + s*I that runs to completion gives
      R^H R = h + s*I + E with |E| <= gamma_{n+1} |R^H| |R| (Higham, Accuracy
      and Stability of Numerical Algorithms, 2nd ed., Thm 10.3; complex
      arithmetic changes only the constant).  As || |R^H| |R| ||_2 <=
      ||R||_F^2, lambda_min(h) >= -s - gamma_{n+1} ||R||_F^2.
    - The diagonal of E gives tr E <= gamma_{n+1} ||R||_F^2, so ||R||_F^2 <=
      (tr h + n*s) / (1 - gamma_{n+1}): about 1 for a state that passed the
      trace check (fro2 below).
    - Forming h + s*I rounds each diagonal entry by at most u*(|h_ii| + s).
    - eigvalsh's computed minimum lies within p(n)*u*||h||_2 <= p(n)*u*||h||_F
      of lambda_min(h), p(n) a modestly growing function of n (LAPACK Users'
      Guide, 3rd ed., sec. 4.7), taken as c*n.
    delta = 16 (n+2) u (fro2 + ||h||_F) covers the three with c and a safety
    factor folded into the 16, so success at s = 1e-10 - delta means that
    eigvalsh would accept h.  False means only "not certified": the
    factorization failed, or delta >= 1e-10 (a large or badly scaled matrix).
    """
    n = h.shape[0]
    u = np.finfo(float).eps / 2.0
    fro2 = (1.0 + 1e-12 + n * 1e-10) / (1.0 - (n + 1) * u)
    delta = 16.0 * (n + 2) * u * (fro2 + float(np.linalg.norm(h)))
    if not delta < 1e-10:
        return False
    try:
        np.linalg.cholesky(h + (1e-10 - delta) * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


class DensityMatrix:
    """Complex Fock-basis matrix validated as a physical state.

    Invariants enforced at construction: a non-empty square matrix of finite
    entries, Hermitian to 1e-12, unit trace to 1e-12, smallest eigenvalue of
    the Hermitian part >= -1e-10.
    Violations raise InvalidStateError naming the residual.

    Positivity is first certified by a Cholesky factorization of the
    Hermitian part shifted by slightly less than 1e-10 (see _certified_psd),
    which costs a fraction of an eigenvalue solve and never accepts a state
    the eigenvalue check would refuse.  When the factorization fails, or the
    rounding margin it needs reaches 1e-10 (a large or badly scaled matrix),
    the smallest eigenvalue is computed with eigvalsh and compared with
    -1e-10 as before, so every refusal and its message are unchanged.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or not entries.size:
            raise InvalidStateError(
                f"state must be square and non-empty, got shape {entries.shape}")
        bad = int(entries.size - np.count_nonzero(np.isfinite(entries)))
        if bad:
            raise InvalidStateError(f"state has {bad} non-finite entries")
        adjoint = entries.conj().T
        herm = float(np.abs(entries - adjoint).max())
        if herm > 1e-12:
            raise InvalidStateError(f"Hermiticity residual {herm:.3e} > 1e-12")
        tr = float(abs(entries.trace().real - 1.0) + abs(entries.trace().imag))
        if tr > 1e-12:
            raise InvalidStateError(f"trace residual {tr:.3e} > 1e-12")
        h = (entries + adjoint) / 2.0
        del adjoint  # not held through the factorization: one matrix less at peak
        if not _certified_psd(h):
            lo = float(np.linalg.eigvalsh(h).min())
            if lo < -1e-10:
                raise InvalidStateError(f"min eigenvalue {lo:.3e} < -1e-10")
        self.dim = entries.shape[0]
        self.entries = entries

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def _entries(rho) -> np.ndarray:
    return np.asarray(getattr(rho, "entries", rho), dtype=complex)


def _as_state(rho) -> DensityMatrix:
    return rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)


@dataclass(frozen=True)
class KrausSet:
    """Diagonal real Kraus operators, stored as an (L, dim) table of diagonals."""

    dim: int
    diagonals: np.ndarray = field(repr=False)
    completeness_residual: float = 0.0

    def __len__(self):
        return self.diagonals.shape[0]

    def operators(self):
        """The dense dim x dim diagonal matrices K_l."""
        return [np.diag(d) for d in self.diagonals]


def apply(rho, p: ChannelParams) -> DensityMatrix:
    """Channel output: Hadamard product of the state with the kernel matrix."""
    state = _as_state(rho)
    K = kernel_matrix(p, state.dim).entries
    return DensityMatrix(K * state.entries)


def complementary_apply(rho, p: ChannelParams, env_dim: int | None = None,
                        tail_tol: float = 1e-13) -> DensityMatrix:
    """Environment output: sum_n rho_nn |c_n><c_n| in the environment basis.

    Depends on the input diagonal only.  The tight default tail tolerance
    keeps the output trace within the DensityMatrix invariant for lam > 0;
    unreachable tolerances raise TruncationError.
    """
    state = _as_state(rho)
    diag = np.real(np.diag(state.entries))
    vecs = [coherent_vector(n, p, env_dim=env_dim, tail_tol=tail_tol)
            for n in range(state.dim)]
    d = max(v.env_dim for v in vecs)
    out = np.zeros((d, d), dtype=complex)
    for w, v in zip(diag, vecs):
        a = np.zeros(d, dtype=complex)
        a[: v.env_dim] = v.amplitudes
        out += w * np.outer(a, a.conj())
    return DensityMatrix(out)


def complementary_spectrum(pvec, p: ChannelParams) -> np.ndarray:
    """Spectrum of the Gram matrix G_{mn} = sqrt(p_m p_n) K_{n,m}, descending.

    Equals the complementary-output spectrum for a diagonal input pvec; the
    Gram form is the symmetric similarity transform of the non-symmetric
    p-weighted kernel matrix, so the spectra coincide.
    """
    pvec = np.asarray(pvec, dtype=float)
    if pvec.ndim != 1 or abs(pvec.sum() - 1.0) > 1e-9 or pvec.min() < -1e-12:
        raise DomainError("pvec must be a probability vector")
    K = kernel_matrix(p, len(pvec)).entries
    root = np.sqrt(np.clip(pvec, 0.0, None))
    G = np.outer(root, root) * K
    q = np.linalg.eigvalsh(G)
    q = np.clip(q, 0.0, None)
    return np.sort(q)[::-1]


def _amp_table(p: ChannelParams, dim: int, L: int) -> np.ndarray:
    """Kraus table D[l, n]: L amplitude rows of the first dim coherent vectors."""
    return amplitude_table(p, np.arange(dim), L)


def kraus_set(p: ChannelParams, dim: int, env_dim: int | None = None) -> KrausSet:
    """Diagonal Kraus family reproducing the channel on dim Fock levels.

    lam < 0: the environment table on the whole forced finite space (exact
    family; env_dim is not used).
    lam >= 0, env_dim=None: D = sqrt(w) V^T from K = V diag(w) V^T, keeping
    the eigenvalues above dim * eps * max(w), the rounding level that
    numpy's matrix_rank uses: rank K <= dim operators, one at gamma = 0.
    lam >= 0, env_dim=L: the first L environment levels, exactly-zero
    trailing rows dropped.
    TruncationError when the completeness residual max_n |1 - sum_l
    (K_l)_nn^2| is >= 1e-8, which only a short explicit env_dim reaches.
    """
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    if env_dim is not None and env_dim < 1:
        raise DimensionError(f"env_dim must be >= 1, got {env_dim}")
    bound = max_dimension(p)
    if bound is not None and dim > bound:
        raise DimensionError(f"dim {dim} exceeds the lam<0 space (dim {bound})")
    if p.lam < 0:
        D = _amp_table(p, dim, bound)
    elif env_dim is None:
        w, V = np.linalg.eigh(kernel_matrix(p, dim).entries)
        keep = w > dim * np.finfo(float).eps * w.max()
        D = np.sqrt(w[keep])[:, None] * V[:, keep].T
    else:
        D = _amp_table(p, dim, env_dim)
        last = np.flatnonzero(np.abs(D).max(axis=1))[-1]  # row 0 holds c_0 = |0>
        D = D[: last + 1]
    resid = float(np.abs(1.0 - np.sum(D * D, axis=0)).max())
    if resid >= 1e-8:
        raise TruncationError(
            f"completeness residual {resid:.3e} with {len(D)} operators "
            f"(gamma={p.gamma}, lam={p.lam}, dim={dim}, env_dim={env_dim})"
        )
    return KrausSet(dim=dim, diagonals=D, completeness_residual=resid)


def coherent_input_output(alpha: complex, p: ChannelParams,
                          dim: int | None = None) -> DensityMatrix:
    """Channel output on a coherent-state input |alpha><alpha|.

    The input projector is truncated (lam >= 0: at dim, which must keep the
    Poisson tail below 1e-10; auto-grown when dim=None) or projected onto
    the forced finite space (lam < 0), renormalized, and passed through the
    kernel Hadamard product.
    """
    if dim is not None and dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    alpha = complex(alpha)
    a2 = abs(alpha) ** 2

    def coeffs(d):
        c = np.empty(d, dtype=complex)
        c[0] = 1.0
        for k in range(1, d):
            c[k] = c[k - 1] * alpha / math.sqrt(k)
        return c * math.exp(-a2 / 2.0)

    bound = max_dimension(p)
    if bound is not None:
        d = bound if dim is None else min(dim, bound)
        c = coeffs(d)
    else:
        if dim is None:
            d = 16
            while True:
                ratio = a2 / d
                if a2 == 0.0:
                    tail = 0.0
                elif ratio >= 1.0:
                    tail = math.inf
                else:
                    log_term = -a2 + (d - 1) * math.log(a2) - math.lgamma(d)
                    tail = math.exp(log_term) * ratio / (1.0 - ratio)
                if tail < 1e-10:
                    break
                if d >= 4096:
                    raise TruncationError(
                        f"coherent tail will not reach 1e-10 by dim 4096 (|alpha|={abs(alpha):.3g})"
                    )
                d *= 2
            c = coeffs(d)
        else:
            d = dim
            c = coeffs(d)
            tail = 1.0 - float(np.sum(np.abs(c) ** 2))
            if tail > 1e-10:
                raise TruncationError(
                    f"coherent tail {tail:.3e} > 1e-10 at dim {d} (|alpha|={abs(alpha):.3g})"
                )
    c = c / np.linalg.norm(c)
    K = kernel_matrix(p, len(c)).entries
    return DensityMatrix(K * np.outer(c, c.conj()))


def gaussian_decomposition(beta: complex, lambda_alg: float):
    """Disentangling parameters (zeta, zeta0) of the deformed displacement.

    exp(beta A^dag - beta* A) = exp(zeta A^dag) exp(ln(zeta0) K0) exp(-zeta* A)
    with, for lambda_alg > 0,
        zeta  = (beta/|beta|) sqrt(2/lambda_alg) tanh(x),  x = sqrt(lambda_alg/2)|beta|
        zeta0 = cosh(x)^(-4/lambda_alg)
    and tan / cos^(4/|lambda_alg|) for lambda_alg < 0, valid on the principal
    chart x < pi/2 (SingularityError at or beyond the first tan singularity).
    """
    if lambda_alg == 0:
        raise DomainError("lambda_alg must be nonzero")
    beta = complex(beta)
    if beta == 0:
        return 0.0 + 0.0j, 1.0
    r = abs(beta)
    unit = beta / r
    x = math.sqrt(abs(lambda_alg) / 2.0) * r
    if lambda_alg > 0:
        zeta = unit * math.sqrt(2.0 / lambda_alg) * math.tanh(x)
        zeta0 = math.cosh(x) ** (-4.0 / lambda_alg)
    else:
        if x >= math.pi / 2.0 - 1e-9:
            raise SingularityError(
                f"x = sqrt(|lambda_alg|/2)|beta| = {x:.6g} is at/beyond the tan "
                f"singularity pi/2; the decomposition chart requires x < pi/2"
            )
        zeta = unit * math.sqrt(2.0 / abs(lambda_alg)) * math.tan(x)
        zeta0 = math.cos(x) ** (4.0 / abs(lambda_alg))
    return zeta, float(zeta0)


def verify_gaussian_decomposition(beta: complex, p: ChannelParams, dim: int,
                                  buffer: int = 50) -> float:
    """Max-abs residual of the decomposition identity on a dim x dim corner.

    lam > 0: both sides are built on a buffered space (dim + buffer) and
    compared on the corner, since a hard cutoff pollutes the edge rows of
    the two sides differently.  lam < 0: requires integer 2*omega/|lam| and
    verifies on the closed su(2) block (the algebra closes there exactly;
    the boundary f=0 state, when present, is not in the block).
    """
    lambda_alg = 2.0 * p.y
    zeta, zeta0 = gaussian_decomposition(beta, lambda_alg)
    if p.lam < 0:
        M = 2.0 * p.omega / abs(p.lam)
        if abs(M - round(M)) > 1e-9:
            raise DomainError(
                "closed-block verification requires integer 2*omega/|lam|; "
                f"got {M:.6g}"
            )
        M = int(round(M))
        if dim > M:
            raise DimensionError(f"corner dim {dim} exceeds the closed block (dim {M})")
        D = M
    else:
        D = dim + buffer
    a = build_annihilator(p, D).entries
    ad = a.T
    k0 = build_k0(p, D).entries
    beta = complex(beta)
    lhs = expm(beta * ad - np.conj(beta) * a)
    rhs = expm(zeta * ad) @ expm(math.log(zeta0) * k0) @ expm(-np.conj(zeta) * a)
    return float(np.abs((lhs - rhs)[:dim, :dim]).max())


def phase_covariance_residual(rho, theta: float, p: ChannelParams) -> float:
    """Max-abs difference of N(U rho U^dag) and U N(rho) U^dag, U = exp(i K0 theta)."""
    state = _as_state(rho)
    n = np.arange(state.dim)
    u = np.exp(1j * theta * (p.y * n + (1.0 + p.y) / 2.0))
    rotated = np.outer(u, u.conj()) * state.entries
    lhs = apply(DensityMatrix(rotated), p).entries
    rhs = np.outer(u, u.conj()) * apply(state, p).entries
    return float(np.abs(lhs - rhs).max())
