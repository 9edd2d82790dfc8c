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

from .algebra import (ChannelParams, _check_dim, _fit_dim, build_annihilator,
                      build_k0, max_dimension)
from .errors import (DimensionError, DomainError, InvalidStateError,
                     SingularityError, TruncationError)
from .kernel import (_coherent_table, _log_amplitudes, _sized_log_amplitudes,
                     amplitude_table, kernel_matrix)

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


def _check_state(entries: np.ndarray) -> None:
    """Raise InvalidStateError unless entries keeps DensityMatrix's invariants."""
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

    Every matrix a caller hands in is checked, then copied if the caller
    still holds its memory.  The states the package builds go through
    _trusted instead, without a copy: complementary_apply's output after
    the same check, apply's output and coherent_input_output's input with
    none, because they are states by construction (see apply).  Either way
    .entries is read-only, so a checked state cannot be edited afterwards.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, entries):
        source = entries
        entries = np.asarray(entries, dtype=complex)
        _check_state(entries)
        if entries is source or entries.base is not None:
            entries = entries.copy()  # the caller's memory
        entries.flags.writeable = False
        self.dim = entries.shape[0]
        self.entries = entries

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def _trusted(entries: np.ndarray) -> DensityMatrix:
    """A DensityMatrix of a complex array the package built, neither checked
    nor copied.

    Only for states that were checked with _check_state or are states by
    construction, as argued in apply and coherent_input_output; caller input
    goes through DensityMatrix.
    """
    entries.flags.writeable = False
    state = DensityMatrix.__new__(DensityMatrix)
    state.dim = entries.shape[0]
    state.entries = entries
    return state


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
    """Channel output: Hadamard product of the state with the kernel matrix.

    The input is checked once (a DensityMatrix was checked when built); the
    output is not re-checked, because it inherits the invariants:
    - the kernel is real, exactly symmetric, has an exactly unit diagonal and
      |K| <= 1 on every branch, so the output's entries are finite, its
      Hermiticity residual is the input's up to one rounding per entry, and
      its diagonal, hence its trace, is the input's bit for bit;
    - positivity (Schur product theorem; Bhatia, Positive Definite Matrices,
      ch. 5): for K >= 0, K o (h - l I) >= 0 with l = lambda_min(h) gives
      lambda_min(K o h) >= lambda_min(h), since diag K = 1.  For a computed
      K >= -delta I the bound is lambda_min(h) (1 + delta) - delta max h_ii.
      Measured up to dim 400, delta <= 7e-15 at gamma >= 0.01 on the lam >= 0
      branches and <= 1.4e-13 everywhere (lam < 0 Gram products, and gamma
      <= 1e-4 where K is nearly the all-ones matrix), below _certified_psd's
      own rounding margin (1.4e-12 at dim 400).  So the -1e-10 bound carries
      over up to that term, not exactly: an input within delta max h_ii of
      -1e-10 can give an output just past it.
    The lam > 0 part rests on the closed form being free of cancellation
    (see kernel._closed_form).
    """
    return _apply(_as_state(rho), p)[0]


def _apply(state: DensityMatrix, p: ChannelParams):
    """apply on a checked state: the output and the kernel matrix it used."""
    K = kernel_matrix(p, state.dim).entries
    return _trusted(K * state.entries), K


def complementary_apply(rho, p: ChannelParams, env_dim: int | None = None,
                        tail_tol: float = 1e-13) -> DensityMatrix:
    """Environment output: sum_n rho_nn |c_n><c_n| in the environment basis.

    Depends on the input diagonal only.  The tight default tail tolerance
    keeps the output trace within the DensityMatrix invariant for lam > 0;
    unreachable tolerances raise TruncationError.  Unlike apply, the output
    is checked: its trace is 1 only to within the tail tolerance.
    """
    state = _as_state(rho)
    diag = np.real(np.diag(state.entries))
    X, _ = _coherent_table(p, np.arange(state.dim), env_dim, tail_tol)
    out = (X * diag) @ X.conj().T
    _check_state(out)
    return _trusted(out)


def complementary_spectrum(pvec, p: ChannelParams) -> np.ndarray:
    """Spectrum of the Gram matrix G_{mn} = sqrt(p_m p_n) K_{n,m}, descending.

    Equals the complementary-output spectrum for a diagonal input pvec; the
    Gram form is the symmetric similarity transform of the non-symmetric
    p-weighted kernel matrix, so the spectra coincide.
    """
    pvec = np.asarray(pvec, dtype=float)
    if pvec.ndim != 1 or abs(pvec.sum() - 1.0) > 1e-9 or pvec.min() < -1e-12:
        raise DomainError("pvec must be a probability vector")
    return _gram_spectrum(pvec, kernel_matrix(p, len(pvec)).entries)


def _gram_spectrum(pvec: np.ndarray, K: np.ndarray) -> np.ndarray:
    """complementary_spectrum of a checked pvec, given its kernel matrix K."""
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
    _check_dim(p, dim)
    if env_dim is not None and env_dim < 1:
        raise DimensionError(f"env_dim must be >= 1, got {env_dim}")
    if p.lam < 0:
        D = _amp_table(p, dim, max_dimension(p))
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

    The input's Poisson amplitudes are cut at a size and renormalized:
    lam < 0, the forced finite space (or dim, if smaller); lam >= 0, the
    size _sized_log_amplitudes certifies against the tail bound 1e-10:
    dim=None takes the smallest such size (cap 4096), an explicit dim is
    refused with TruncationError when its bound exceeds 1e-10.  The state
    is then passed through apply.

    The input is not checked: the renormalized c c^H is a rank-one state
    (unit trace to rounding, Hermitian to rounding, positive), and apply
    does not check its output (see apply).
    """
    return apply(_coherent_input(alpha, p, dim), p)


def _coherent_input(alpha: complex, p: ChannelParams, dim: int | None) -> DensityMatrix:
    """The cut and renormalized coherent input of coherent_input_output."""
    if dim is not None and dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    alpha = complex(alpha)
    r = abs(alpha)
    d = _fit_dim(p, dim)
    if p.lam < 0:
        la = _log_amplitudes(0.0, [r], d)
    else:
        la, _ = _sized_log_amplitudes(0.0, [r], 1e-10, 4096, d, f"|alpha|={r:.3g}")
    la = la[:, 0]
    # scaled by the largest amplitude first, so that no projection underflows
    c = np.exp(la - la.max() + 1j * np.angle(alpha) * np.arange(len(la)))
    c /= np.linalg.norm(c)
    return _trusted(np.outer(c, c.conj()))


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
