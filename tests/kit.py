"""Test kit: named and random states, and the PPT separability oracle.

Only tests use these; the qforge package does not.
"""

import numpy as np

PPT_TOL = 1e-10  # ppt_separable: partial-transpose eigenvalues down to -1e-10 count as >= 0


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


def verify_pure(recipe, target: np.ndarray) -> float:
    """Overlap magnitude between a PureRecipe's output and the target."""
    produced = recipe.state()
    return float(abs(np.vdot(np.asarray(target, dtype=complex), produced)))
