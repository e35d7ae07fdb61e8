"""Two-qubit state representations, decompositions and entanglement metrics.

States live in the computational polarization basis {HH, HV, VH, VV}
(arm A is the first factor, arm B the second).  Pure states are complex
4-vectors, density matrices are 4x4 complex ndarrays; the helpers here
validate the physical invariants and compute the standard two-qubit
quantities used everywhere else in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotFinite, NotHermitian, NotNormalized, NotPositive, TraceNotOne

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_CLAMP = 1e-10  # eigenvalues in [-1e-10, 0) are treated as round-off
NORM_TOL = 1e-9  # check_pure accepts a norm this close to 1
PPT_TOL = 1e-10  # ppt_separable: partial-transpose eigenvalues down to -1e-10 count as >= 0

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)
_ROWS = np.arange(4)


def bell_state(name: str) -> np.ndarray:
    """Return one of the four Bell states as a 4-vector.

    Accepted names: 'phi+', 'phi-', 'psi+', 'psi-'.
    """
    s = 1.0 / np.sqrt(2.0)
    table = {
        "phi+": np.array([s, 0.0, 0.0, s], dtype=complex),
        "phi-": np.array([s, 0.0, 0.0, -s], dtype=complex),
        "psi+": np.array([0.0, s, s, 0.0], dtype=complex),
        "psi-": np.array([0.0, s, -s, 0.0], dtype=complex),
    }
    try:
        return table[name.lower()]
    except KeyError:
        raise ValueError(f"unknown Bell state {name!r}") from None


def projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a pure-state 4-vector."""
    v = np.asarray(psi, dtype=complex).reshape(4)
    return v[:, None] * v.conj()


def check_pure(psi: np.ndarray) -> np.ndarray:
    """Return psi as a unit-norm complex 4-vector or raise NotNormalized."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.shape != (4,):
        raise NotNormalized(f"expected 4 amplitudes, got shape {v.shape}")
    n = np.linalg.norm(v)
    if not abs(n - 1.0) <= NORM_TOL:  # NaN fails too
        raise NotNormalized(f"state norm {n} differs from 1 by more than {NORM_TOL}")
    return v / n


def validate_density(m: np.ndarray) -> np.ndarray:
    """Validate a 4x4 density matrix and return a cleaned copy.

    Checks finiteness, hermiticity, unit trace and positivity.  Eigenvalues
    in [-1e-10, 0) are clamped to zero and the matrix is renormalized to
    unit trace; anything worse raises the matching error.
    """
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise NotFinite("matrix holds a NaN or infinite entry")
    if m.shape != (4, 4):
        raise NotHermitian(f"expected a 4x4 matrix, got shape {m.shape}")
    m_dag = m.conj().T
    skew = np.abs(m - m_dag).max()
    if skew > HERMITICITY_TOL:
        raise NotHermitian(f"max |m - m^dag| = {skew:.3e} exceeds {HERMITICITY_TOL}")
    tr = m.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"trace {tr} differs from 1 by more than {TRACE_TOL}")
    h = 0.5 * (m + m_dag)
    evals, evecs = np.linalg.eigh(h)
    lowest = evals[0]  # eigh returns them ascending
    if lowest < -EIGENVALUE_CLAMP:
        raise NotPositive(f"minimum eigenvalue {lowest:.3e} below -{EIGENVALUE_CLAMP}")
    if lowest < 0.0:
        h = (evecs * np.maximum(evals, 0.0)) @ evecs.conj().T
        h = 0.5 * (h + h.conj().T)
    return h / h.trace().real


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Eigen-decomposition of a density matrix, eigenvalues descending.

    eigenstates[k] is the unit eigenvector for eigenvalues[k]; each is
    phase-fixed so that its first largest-magnitude component is real
    and positive.
    """

    eigenvalues: np.ndarray  # (4,) real, descending
    eigenstates: np.ndarray  # (4, 4) complex, row k = |psi_k>

    def reconstruct(self) -> np.ndarray:
        return (self.eigenstates.T * self.eigenvalues) @ self.eigenstates.conj()


def canonical_decompose(rho: np.ndarray) -> CanonicalDecomposition:
    """Decompose rho into orthonormal eigenstates weighted by eigenvalues."""
    rho = validate_density(rho)
    evals, evecs = np.linalg.eigh(rho)
    order = np.argsort(evals)[::-1]
    states = evecs.T[order]
    # rotate each unit row so its first largest-magnitude entry is real, positive
    mags = np.abs(states)
    peak = mags.argmax(axis=1)
    states = states * (states[_ROWS, peak].conj() / mags[_ROWS, peak])[:, None]
    return CanonicalDecomposition(eigenvalues=np.maximum(evals[order], 0.0), eigenstates=states)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(m)
    return (evecs * np.sqrt(np.maximum(evals, 0.0))) @ evecs.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    sq = _psd_sqrt(rho)
    inner = sq @ sigma @ sq
    inner = 0.5 * (inner + inner.conj().T)
    f = _psd_sqrt(inner).trace().real ** 2
    return float(min(max(f, 0.0), 1.0))


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence from the spin-flip eigenvalue formula.

    The spin-flip eigenvalues are computed as singular values of the
    symmetric matrix W^T (sy x sy) W, where W scales the eigenvectors of
    rho by the square roots of its eigenvalues; unlike the eigenvalues of
    the non-normal product rho rho~, singular values stay accurate at
    machine precision for rank-deficient states.
    """
    rho = np.asarray(rho, dtype=complex)
    mu, vec = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    keep = mu > 1e-15 * max(1.0, float(mu[-1]))
    w = vec[:, keep] * np.sqrt(mu[keep])
    tau = w.T @ _YY @ w
    # descending, as LAPACK returns them: one per kept eigenvalue, padded to four
    lam = np.linalg.svd(tau, compute_uv=False).tolist() + [0.0] * 4
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def tangle(rho: np.ndarray) -> float:
    """Squared concurrence; 0 for separable states, 1 for Bell states."""
    c = concurrence(rho)
    return min(max(c * c, 0.0), 1.0)


def purity(rho: np.ndarray) -> float:
    rho = np.asarray(rho, dtype=complex)
    return float((rho @ rho).trace().real)


def linear_entropy(rho: np.ndarray) -> float:
    """(4/3)(1 - Tr rho^2), normalized so the maximally mixed state scores 1."""
    return min(max(4.0 / 3.0 * (1.0 - purity(rho)), 0.0), 1.0)


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Partial transpose over the second qubit."""
    rho = np.asarray(rho, dtype=complex)
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def ppt_separable(rho: np.ndarray) -> bool:
    """True iff the partial transpose is positive (two-qubit PPT <=> separable)."""
    evals = np.linalg.eigvalsh(partial_transpose(rho))
    return bool(evals.min() >= -PPT_TOL)


def random_pure_state(rng) -> np.ndarray:
    """Haar-random two-qubit pure state; rng is a seed or a numpy Generator."""
    rng = np.random.default_rng(rng)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def random_density_matrix(rng) -> np.ndarray:
    """Ginibre-random density matrix; rng is a seed or a numpy Generator."""
    rng = np.random.default_rng(rng)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return m / m.trace().real


def random_su2(rng) -> np.ndarray:
    """Haar-random single-qubit unitary with unit determinant."""
    rng = np.random.default_rng(rng)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.sqrt(np.linalg.det(q))
