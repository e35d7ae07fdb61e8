import warnings

import numpy as np
import pytest

from qforge.compilers import compile_scheme1, simulate_recipe
from qforge.errors import NotNormalized
from qforge.qmath import fidelity
from qforge.synth_pure import PRODUCT_THRESHOLD, SEAM_BAND, solve_pure

from kit import bell_state, projector, random_pure_state, random_su2, verify_pure


def det2(psi):
    return psi[0] * psi[3] - psi[1] * psi[2]


def seam_state(rng, dist):
    """Random state with |ad - bc| = 1/2 - dist."""
    bell = np.kron(random_su2(rng), random_su2(rng)) @ bell_state("phi+")
    other = random_pure_state(rng)
    other -= np.vdot(bell, other) * bell
    other /= np.linalg.norm(other)
    # |D| of cos(t) bell + sin(t) other decreases from 1/2; bisect on t
    lo, hi = 0.0, np.pi / 2
    target = 0.5 - dist
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        psi = np.cos(mid) * bell + np.sin(mid) * other
        if abs(det2(psi / np.linalg.norm(psi))) > target:
            lo = mid
        else:
            hi = mid
    psi = np.cos(lo) * bell + np.sin(lo) * other
    return psi / np.linalg.norm(psi)


def test_product_state_recipe():
    recipe = solve_pure(np.array([0, 1, 0, 0], dtype=complex))
    assert recipe.source.theta == 0.0  # |HH> seed
    assert verify_pure(recipe, np.array([0, 1, 0, 0], dtype=complex)) > 1.0 - 1e-12


def test_random_product_states():
    rng = np.random.default_rng(3)
    for _ in range(200):
        psi = np.kron(
            random_su2(rng) @ np.array([1, 0]), random_su2(rng) @ np.array([1, 0])
        )
        recipe = solve_pure(psi)
        assert verify_pure(recipe, psi) > 1.0 - 1e-10


def test_bell_state_case_i():
    recipe = solve_pure(bell_state("phi+"))
    assert verify_pure(recipe, bell_state("phi+")) > 1.0 - 1e-12
    assert recipe.source.theta == pytest.approx(np.pi / 4.0)


def test_maximal_case_ii_exchange():
    psi = bell_state("psi+")  # a = d = 0, |b| = |c| = 1/sqrt(2)
    recipe = solve_pure(psi)
    assert verify_pure(recipe, psi) > 1.0 - 1e-12


def test_maximal_case_iii():
    psi = np.array([1.0, 1.0, -1.0, 1.0], dtype=complex) / 2.0
    assert abs(abs(det2(psi)) - 0.5) < 1e-12
    recipe = solve_pure(psi)
    assert verify_pure(recipe, psi) > 1.0 - 1e-12


def test_generic_branch_example():
    psi = np.array([0.8, 0.0, 0.0, 0.6], dtype=complex)
    recipe = solve_pure(psi)
    # alpha = sqrt(1 - sqrt(1 - 4 |ad|^2)) / sqrt(2) = 0.6 for |ad| = 0.48
    assert np.cos(recipe.source.theta) == pytest.approx(0.6, abs=1e-12)
    assert np.sin(recipe.source.theta) == pytest.approx(0.8, abs=1e-12)
    assert verify_pure(recipe, psi) > 1.0 - 1e-12


def test_alpha_is_minor_coefficient_on_generic_branch():
    rng = np.random.default_rng(21)
    for _ in range(300):
        psi = random_pure_state(rng)
        d = abs(det2(psi))
        if d < 1e-6 or abs(1.0 - 2.0 * d) < 1e-6:
            continue
        recipe = solve_pure(psi)
        alpha, beta_mag = np.cos(recipe.source.theta), np.sin(recipe.source.theta)
        assert alpha <= beta_mag + 1e-12
        assert verify_pure(recipe, psi) > 1.0 - 1e-10


def test_unitarity_all_branches():
    rng = np.random.default_rng(29)
    states = [random_pure_state(rng) for _ in range(200)]
    states += [bell_state(n) for n in ("phi+", "phi-", "psi+", "psi-")]
    states += [seam_state(rng, 10.0**-k) for k in range(3, 10)]
    states += [np.array([0, 1, 0, 0], dtype=complex)]
    for psi in states:
        recipe = solve_pure(psi)
        for u in (recipe.u_a, recipe.u_b):
            assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-10


def test_branch_boundary_continuity():
    # |ad - bc| = 1/2 - 10^-k for k = 3..9; no blow-up at the seam
    rng = np.random.default_rng(55)
    for k in range(3, 10):
        for _ in range(5):
            psi = seam_state(rng, 10.0**-k)
            recipe = solve_pure(psi)
            assert verify_pure(recipe, psi) >= 1.0 - 1e-8, f"k={k}"


def test_near_product_stability():
    rng = np.random.default_rng(77)
    for x in (1e-11, 1e-10, 1e-9, 1e-7):
        a = np.sqrt(1.0 - x * x)
        psi = np.array([a, 0.0, 0.0, x], dtype=complex)
        recipe = solve_pure(psi)
        assert verify_pure(recipe, psi) > 1.0 - 1e-10
        # and with extra rotations thrown in
        psi2 = np.kron(random_su2(rng), random_su2(rng)) @ psi
        recipe2 = solve_pure(psi2)
        assert verify_pure(recipe2, psi2) > 1.0 - 1e-10


@pytest.mark.parametrize("psi, match", [
    (np.array([1.0, 1.0, 0.0, 0.0], dtype=complex), "state norm"),
    (np.array([0.6, 0.0, 0.8], dtype=complex), "expected 4 amplitudes"),
])
def test_rejects_unnormalized(psi, match):
    with pytest.raises(NotNormalized, match=match):
        solve_pure(psi)


def test_rejects_nan_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotNormalized):
            solve_pure(np.array([np.nan, 0.0, 0.0, 0.0], dtype=complex))


def test_waveplate_expansion_matches_unitaries():
    from qforge.elements import compose_waveplates

    rng = np.random.default_rng(31)
    for _ in range(20):
        psi = random_pure_state(rng)
        recipe = solve_pure(psi)
        for wp, u in ((recipe.wp_a, recipe.u_a), (recipe.wp_b, recipe.u_b)):
            w = compose_waveplates(wp)
            assert 1.0 - abs(np.trace(w.conj().T @ u)) / 2.0 < 1e-10


def test_exact_across_the_seam():
    # 200 locally rotated states per gap 1/2 - |D| = 1e-15 .. 1e-3: the SVD
    # band and, at 1e-3, the generic branch just outside it
    rng = np.random.default_rng(8)
    for k in range(15, 2, -1):
        t = 0.5 * np.arcsin(1.0 - 2.0 * 10.0**-k)
        schmidt = np.array([np.cos(t), 0.0, 0.0, np.sin(t)], dtype=complex)
        for _ in range(200):
            psi = np.kron(random_su2(rng), random_su2(rng)) @ schmidt
            produced = solve_pure(psi).state()
            overlap = np.vdot(produced, psi)
            assert 1.0 - abs(overlap) <= 1e-14, f"k={k}"
            phase = overlap / abs(overlap)
            assert np.abs(produced * phase - psi).max() <= 1e-11, f"k={k}"


def _inner_or_outer_block_targets():
    """Pure states with only HV/VH (or only HH/VV) amplitudes."""
    rng = np.random.default_rng(31)
    fixed = [(0, 0.6, 0.8, 0), (0, 0.8, -0.6j, 0), (0, 0.6j, 0.8, 0), (0.8, 0, 0, 0.6)]
    targets = [np.array(v, dtype=complex) for v in fixed]
    for _ in range(8):
        v = np.zeros(4, dtype=complex)
        v[1:3] = rng.normal(size=2) + 1j * rng.normal(size=2)
        targets.append(v / np.linalg.norm(v))
    return targets


@pytest.mark.parametrize("psi", _inner_or_outer_block_targets())
def test_generic_branch_anti_diagonal_rotations(psi):
    """These targets need an anti-diagonal U_A or U_B: the sub-branches of
    the generic solver that fix that rotation's phase by convention."""
    assert abs(det2(psi)) >= PRODUCT_THRESHOLD and 1.0 - 2.0 * abs(det2(psi)) >= SEAM_BAND
    recipe = solve_pure(psi)
    assert min(abs(recipe.u_a[0, 0]), abs(recipe.u_b[0, 0])) <= 1e-12
    assert 1.0 - verify_pure(recipe, psi) <= 1e-12
    rho = projector(psi)
    assert 1.0 - fidelity(simulate_recipe(compile_scheme1(rho)), rho) <= 1e-12
