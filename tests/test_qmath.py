import numpy as np
import pytest

from qforge import families
from qforge.errors import NotFinite, NotHermitian, NotPositive, TraceNotOne
from qforge.qmath import (
    bell_state,
    canonical_decompose,
    concurrence,
    fidelity,
    linear_entropy,
    partial_transpose,
    ppt_separable,
    projector,
    purity,
    random_density_matrix,
    random_pure_state,
    tangle,
    validate_density,
)


def test_validate_accepts_maximally_mixed():
    rho = validate_density(np.eye(4) / 4.0)
    assert np.allclose(rho, np.eye(4) / 4.0)


def test_validate_rejects_bad_trace():
    with pytest.raises(TraceNotOne):
        validate_density(0.9 * np.eye(4) / 4.0)


def test_validate_rejects_non_hermitian():
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = 0.1
    with pytest.raises(NotHermitian):
        validate_density(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_validate_rejects_non_finite_entries(bad):
    # a symmetric pair passes the hermiticity check; it must not reach eigh
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(NotFinite):
        validate_density(m)
    m = np.eye(4, dtype=complex) / 4.0
    m[2, 2] = bad
    with pytest.raises(NotFinite):
        validate_density(m)


def test_validate_rejects_negative_eigenvalue():
    m = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
    with pytest.raises(NotPositive):
        validate_density(m)


def test_validate_clamps_tiny_negative_eigenvalue():
    psi = bell_state("phi+")
    m = projector(psi)
    m = m - 5e-11 * projector(bell_state("psi-")) + 5e-11 * m
    rho = validate_density(0.5 * (m + m.conj().T) / m.trace().real)
    assert np.linalg.eigvalsh(rho).min() >= 0.0
    assert abs(rho.trace() - 1.0) < 1e-14


def test_validate_accepts_one_third_mems_matrix():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = m[3, 3] = 1.0 / 3.0
    m[0, 3] = m[3, 0] = 1.0 / 3.0
    rho = validate_density(m)
    assert np.allclose(rho, m)


def test_canonical_bell_state():
    dec = canonical_decompose(projector(bell_state("phi+")))
    assert np.allclose(dec.eigenvalues, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert abs(np.vdot(dec.eigenstates[0], bell_state("phi+"))) > 1.0 - 1e-12


def test_canonical_werner_third():
    dec = canonical_decompose(families.werner(1.0 / 3.0))
    assert np.allclose(dec.eigenvalues, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-12)


def test_canonical_mems_two_thirds():
    dec = canonical_decompose(families.mems(2.0 / 3.0))
    assert np.allclose(dec.eigenvalues, [2 / 3, 1 / 3, 0.0, 0.0], atol=1e-12)


def test_canonical_phase_convention():
    rng = np.random.default_rng(5)
    for _ in range(50):
        dec = canonical_decompose(random_density_matrix(rng))
        for v in dec.eigenstates:
            i = int(np.argmax(np.abs(v)))
            assert v[i].real > 0.0
            assert abs(v[i].imag) < 1e-12


def test_fidelity_examples():
    rho = families.werner(0.37)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-12
    hh = projector(np.array([1, 0, 0, 0], dtype=complex))
    vv = projector(np.array([0, 0, 0, 1], dtype=complex))
    assert fidelity(hh, vv) < 1e-12
    # <Phi+| rho_W |Phi+> = (1 + 3r)/4 = 1/2 at r = 1/3
    assert abs(fidelity(families.werner(1 / 3), projector(bell_state("phi+"))) - 0.5) < 1e-12


def test_fidelity_symmetric():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = random_density_matrix(rng)
        b = random_density_matrix(rng)
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-12


def test_tangle_examples():
    assert abs(tangle(projector(bell_state("phi+"))) - 1.0) < 1e-12
    assert tangle(np.eye(4) / 4.0) == 0.0
    assert tangle(families.werner(1 / 3)) < 1e-12  # PPT boundary


def test_linear_entropy_examples():
    assert linear_entropy(projector(bell_state("psi-"))) < 1e-12
    assert abs(linear_entropy(np.eye(4) / 4.0) - 1.0) < 1e-12
    assert abs(linear_entropy(families.mems(2 / 3)) - 16.0 / 27.0) < 1e-12


def test_ppt_examples():
    assert not ppt_separable(projector(bell_state("phi+")))
    assert ppt_separable(families.werner(1 / 3))
    assert not ppt_separable(families.werner(0.5))
    # min PT eigenvalue of werner(r) is (1 - 3r)/4
    evals = np.linalg.eigvalsh(partial_transpose(families.werner(0.5)))
    assert abs(evals.min() + 1.0 / 8.0) < 1e-12


def test_random_state_invariants():
    # canonical reconstruction, metric ranges, tangle <-> PPT agreement
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        rho = validate_density(random_density_matrix(rng))
        dec = canonical_decompose(rho)
        assert np.abs(dec.reconstruct() - rho).max() < 1e-9
        t = tangle(rho)
        s = linear_entropy(rho)
        assert 0.0 <= t <= 1.0
        assert 0.0 <= s <= 1.0
        c = concurrence(rho)
        if ppt_separable(rho):
            assert c <= 1e-8
        else:
            assert c > 0.0
        assert t <= families.mems_boundary_tangle(s) + 1e-8


def test_random_pure_state_invariants():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        psi = random_pure_state(rng)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert linear_entropy(projector(psi)) < 1e-10


def test_purity_range():
    assert abs(purity(np.eye(4) / 4.0) - 0.25) < 1e-14
    assert abs(purity(projector(bell_state("phi+"))) - 1.0) < 1e-12
