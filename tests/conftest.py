import numpy as np
import pytest

from kerrdeph import ChannelParams, DensityMatrix, InvalidStateError


def random_density(rng, dim):
    """Random full-rank density matrix (Ginibre ensemble)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_pure(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def flat_params():
    return ChannelParams(gamma=1.0, lam=0.0, omega=1.0)


def state_with_spectrum(rng, spectrum):
    """Exactly Hermitian U diag(spectrum) U^H with a Haar-random unitary U."""
    d = len(spectrum)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    m = (q * np.asarray(spectrum, dtype=float)) @ q.conj().T
    return (m + m.conj().T) / 2.0


def spectrum_with_min(rng, d, lam_min):
    """d eigenvalues summing to 1 whose smallest is lam_min (lam_min <= 0)."""
    rest = rng.dirichlet(np.ones(d - 1)) * (1.0 - lam_min)
    return np.concatenate([[lam_min], rest])


def eigvalsh_verdict(m):
    """The eigvalsh positivity check: its refusal message, or None."""
    lo = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())
    return f"min eigenvalue {lo:.3e} < -1e-10" if lo < -1e-10 else None


def verdict(m):
    """DensityMatrix's verdict on m: the refusal message, or None."""
    try:
        DensityMatrix(m)
    except InvalidStateError as exc:
        return str(exc)
    return None
