"""Two-qubit state representations, decompositions and entanglement metrics.

States live in the computational polarization basis {HH, HV, VH, VV}
(arm A is the first factor, arm B the second).  Pure states are complex
4-vectors, density matrices are 4x4 complex ndarrays; the helpers here
validate the physical invariants and compute the standard two-qubit
quantities used everywhere else in the package.

Every eigen-decomposition, singular-value and vector-norm call in qforge
goes through the three private helpers below (a metric sets _eigh's
state once and calls its gufunc itself); only
synth_pure's rare product and near-seam routes keep np.linalg.svd (with U
and V) and np.linalg.det.  _eigh calls LAPACK through numpy's
`_umath_linalg.eigh_lo` gufunc ("D->dD"), _svdvals through
`_umath_linalg.svd` ("D->d"), under the error state numpy's wrappers set,
so a failure raises numpy's LinAlgError with numpy's message.  That state
is built once, by the np.errstate the wrappers enter; each call sets numpy's
`_ufunc_config._extobj_contextvar` to it and resets the token in a
finally, as errstate's __enter__ and __exit__ do, so the caller's (per
thread) state is back on return or raise.  _norm is np.linalg.norm's
arithmetic for a complex vector.  Skipping the wrappers' type and shape
checks halves a 4x4 call; callers pass complex arrays, square for _eigh
and _svdvals.  _trace is ndarray.trace of a complex 4x4 matrix in
scalars: numpy's add.reduce adds the diagonal pairwise, (a + b) + (c + d),
onto +0, and so does _trace (left to right, half of all matrices differ
in the last bit).  Every metric raises validate_density's NotHermitian
for input that is not 4x4, and its NotFinite for a NaN or infinite entry
that the metric reads (of rho, fidelity reads what eigh reads: the strict
lower triangle and the real part of the diagonal).  A metric runs in
_eigh's error state, so an invalid operation on such an entry raises
LinAlgError rather than a RuntimeWarning, and checks finiteness only where
a finite matrix never goes: after a LinAlgError, a NaN least eigenvalue or
a result that is not finite.
"""

from __future__ import annotations

import math

import numpy as np
from numpy._core._ufunc_config import _extobj_contextvar
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import NotFinite, NotHermitian, NotNormalized, NotPositive, Record, TraceNotOne

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_CLAMP = 1e-10  # eigenvalues in [-1e-10, 0) are treated as round-off
NORM_TOL = 1e-9  # check_pure accepts a norm this close to 1
SPIN_FLIP_CUT = 1e-15  # concurrence drops eigenvalues of rho up to this times max(1, largest)
_NOT_FINITE = "matrix holds a NaN or infinite entry"

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)
_ROWS = np.arange(4)


def _raise_eigh_error(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _raise_svd_error(err, flag):
    raise LinAlgError("SVD did not converge")


def _lapack_extobj(handler):
    """The error state np.errstate installs around one LAPACK gufunc call."""
    with np.errstate(call=handler, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return _extobj_contextvar.get()


_EIGH_EXTOBJ = _lapack_extobj(_raise_eigh_error)
_SVD_EXTOBJ = _lapack_extobj(_raise_svd_error)


def _eigh(h: np.ndarray):
    """np.linalg.eigh(h): ascending eigenvalues and the eigenvectors as columns."""
    token = _extobj_contextvar.set(_EIGH_EXTOBJ)
    try:
        return _umath_linalg.eigh_lo(h, signature="D->dD")
    finally:
        _extobj_contextvar.reset(token)


def _svdvals(m: np.ndarray) -> np.ndarray:
    """np.linalg.svd(m, compute_uv=False): singular values, descending."""
    token = _extobj_contextvar.set(_SVD_EXTOBJ)
    try:
        return _umath_linalg.svd(m, signature="D->d")
    finally:
        _extobj_contextvar.reset(token)


def _trace(m: np.ndarray) -> complex:
    """m.trace() of a complex 4x4 matrix, as a Python complex."""
    a, b, c, d = m.diagonal().tolist()
    return 0j + ((a + b) + (c + d))


def _matrix(m) -> np.ndarray:
    """m as a complex array; NotHermitian unless it is 4x4."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise NotHermitian(f"expected a 4x4 matrix, got shape {m.shape}")
    return m


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a complex vector."""
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def check_pure(psi: np.ndarray) -> np.ndarray:
    """Return psi as a unit-norm complex 4-vector or raise NotNormalized."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.shape != (4,):
        raise NotNormalized(f"expected 4 amplitudes, got shape {v.shape}")
    n = _norm(v)
    if not abs(n - 1.0) <= NORM_TOL:  # NaN fails too
        raise NotNormalized(f"state norm {n} differs from 1 by more than {NORM_TOL}")
    return v / n


def _check_finite(*ms: np.ndarray) -> None:
    """validate_density's NotFinite where some m holds a NaN or infinite entry."""
    for m in ms:
        if not np.isfinite(m).all():
            raise NotFinite(_NOT_FINITE)


def validate_density(m: np.ndarray) -> np.ndarray:
    """Validate a 4x4 density matrix and return a cleaned copy.

    Checks finiteness, hermiticity, unit trace and positivity.  Eigenvalues
    in [-1e-10, 0) are clamped to zero and the matrix is renormalized to
    unit trace; anything worse raises the matching error.
    """
    m = np.asarray(m, dtype=complex)
    _check_finite(m)
    m = _matrix(m)
    m_dag = m.conj().T
    skew = np.abs(m - m_dag).max()
    if skew > HERMITICITY_TOL:
        raise NotHermitian(f"max |m - m^dag| = {skew:.3e} exceeds {HERMITICITY_TOL}")
    tr = _trace(m)
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"trace {tr} differs from 1 by more than {TRACE_TOL}")
    h = 0.5 * (m + m_dag)
    evals, evecs = _eigh(h)
    lowest = evals[0]  # eigh returns them ascending
    if lowest < -EIGENVALUE_CLAMP:
        raise NotPositive(f"minimum eigenvalue {lowest:.3e} below -{EIGENVALUE_CLAMP}")
    if lowest < 0.0:
        h = (evecs * np.maximum(evals, 0.0)) @ evecs.conj().T
        h = 0.5 * (h + h.conj().T)
    return h / _trace(h).real


class CanonicalDecomposition(Record):
    """Eigen-decomposition of a density matrix, eigenvalues descending.

    eigenstates[k] is the unit eigenvector for eigenvalues[k]; each is
    phase-fixed so that its first largest-magnitude component is real
    and positive.
    """

    eigenvalues: np.ndarray  # (4,) real, descending
    eigenstates: np.ndarray  # (4, 4) complex, row k = |psi_k>

    def __init__(self, eigenvalues: np.ndarray, eigenstates: np.ndarray):
        self.__dict__.update(eigenvalues=eigenvalues, eigenstates=eigenstates)

    def reconstruct(self) -> np.ndarray:
        return (self.eigenstates.T * self.eigenvalues) @ self.eigenstates.conj()


def canonical_decompose(rho: np.ndarray) -> CanonicalDecomposition:
    """Decompose rho into orthonormal eigenstates weighted by eigenvalues."""
    rho = validate_density(rho)
    evals, evecs = _eigh(rho)
    states = evecs.T[::-1]  # eigh's order, ascending, reversed
    # rotate each unit row so its first largest-magnitude entry is real, positive
    mags = np.abs(states)
    peak = mags.argmax(axis=1)
    states = states * (states[_ROWS, peak].conj() / mags[_ROWS, peak])[:, None]
    return CanonicalDecomposition(eigenvalues=np.maximum(evals[::-1], 0.0), eigenstates=states)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    evals, evecs = _umath_linalg.eigh_lo(m, signature="D->dD")  # in fidelity's _eigh state
    return (evecs * np.sqrt(np.maximum(evals, 0.0))) @ evecs.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 of density
    matrices validated where they entered (validate_density): like every
    metric here, it checks no hermiticity, trace or positivity per call."""
    rho, sigma = _matrix(rho), _matrix(sigma)
    token = _extobj_contextvar.set(_EIGH_EXTOBJ)
    try:
        sq = _psd_sqrt(rho)
        inner = sq @ sigma @ sq
        inner = 0.5 * (inner + inner.conj().T)
        f = _trace(_psd_sqrt(inner)).real ** 2
    except LinAlgError:
        _check_finite(rho, sigma)
        raise
    finally:
        _extobj_contextvar.reset(token)
    if not math.isfinite(f):
        _check_finite(rho, sigma)
    return min(max(f, 0.0), 1.0)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence from the spin-flip eigenvalue formula.

    The spin-flip eigenvalues are computed as singular values of the
    symmetric matrix W^T (sy x sy) W, where W scales the eigenvectors of
    rho by the square roots of its eigenvalues; unlike the eigenvalues of
    the non-normal product rho rho~, singular values stay accurate at
    machine precision for rank-deficient states.  rho is a validated
    density matrix, as fidelity's are; concurrence reads its Hermitian part.
    """
    rho = _matrix(rho)
    token = _extobj_contextvar.set(_EIGH_EXTOBJ)
    try:
        h = 0.5 * (rho + rho.conj().T)
        mu, vec = _umath_linalg.eigh_lo(h, signature="D->dD")  # in _eigh's state, set above
        cut = SPIN_FLIP_CUT * max(1.0, float(mu[-1]))
        if not mu[0] > cut:  # ascending: some eigenvalue is dropped, or the least is NaN
            if not math.isfinite(sum(mu.tolist())):
                _check_finite(rho)
            keep = mu > cut
            mu, vec = mu[keep], vec[:, keep]
        w = vec * np.sqrt(mu)
        tau = w.T @ _YY @ w
        # descending, as LAPACK returns them: one per kept eigenvalue, padded to four
        lam = _svdvals(tau).tolist() + [0.0] * 4
        c = lam[0] - lam[1] - lam[2] - lam[3]
    except LinAlgError:
        _check_finite(rho)
        raise
    finally:
        _extobj_contextvar.reset(token)
    if not math.isfinite(c):
        _check_finite(rho)
    return max(0.0, c)


def tangle(rho: np.ndarray) -> float:
    """Squared concurrence of a validated density matrix, as concurrence
    reads it; 0 for separable states, 1 for Bell states."""
    c = concurrence(rho)
    return min(max(c * c, 0.0), 1.0)


def purity(rho: np.ndarray) -> float:
    """Tr rho^2 of a validated density matrix, as fidelity's are."""
    rho = _matrix(rho)
    token = _extobj_contextvar.set(_EIGH_EXTOBJ)
    try:
        p = _trace(rho @ rho).real
    except LinAlgError:
        _check_finite(rho)
        raise
    finally:
        _extobj_contextvar.reset(token)
    if not math.isfinite(p):
        _check_finite(rho)
    return p


def linear_entropy(rho: np.ndarray) -> float:
    """(4/3)(1 - Tr rho^2) of a validated density matrix, as fidelity's
    are, normalized so the maximally mixed state scores 1."""
    return min(max(4.0 / 3.0 * (1.0 - purity(rho)), 0.0), 1.0)
