"""Acceptance suite: one test per criterion, each printing a PASS line.

Run standalone with:  pytest tests/test_acceptance.py -v -s
"""

import numpy as np
import pytest

from qforge.compilers import (
    FamilyParams,
    compile_scheme1,
    compile_scheme2,
    compile_scheme3,
    compile_scheme4_bell_diagonal,
    simulate_recipe,
)
from qforge.elements import (
    analytic_f,
    default_spectral_model,
    dephasing_length_um,
    full_dephasing_floor_um,
    rotation,
)
from qforge.families import bell_diagonal, mems, mems_boundary_tangle, werner
from qforge.qmath import fidelity, linear_entropy, tangle
from qforge.recipe_io import DecohererStage, LocalRotationStage, recipe_cost
from qforge.spectral import make_grid, simulate_chain
from qforge.synth_pure import solve_pure

from kit import (
    bell_state,
    ppt_separable,
    random_density_matrix,
    random_pure_state,
    random_su2,
    verify_pure,
)

SM = default_spectral_model()
GRID = make_grid(SM, 2049)


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_mems_reproduction():
    target = mems(2.0 / 3.0)  # the 1/3-entry matrix
    recipe = compile_scheme3(FamilyParams("mems", (2.0 / 3.0,)), SM)
    f_grid = fidelity(simulate_recipe(recipe, grid_n=2049), target)
    f_analytic = fidelity(simulate_recipe(recipe), target)
    assert f_grid >= 0.9999
    assert f_analytic >= 1.0 - 1e-9
    report(1, f"MEMS r=2/3 fidelity grid {f_grid:.10f}, analytic {f_analytic:.12f}")


def test_criterion_2_werner_reproduction():
    r = 1.0 / 3.0
    target = werner(r)  # the (1/3, 1/6) matrix
    recipe = compile_scheme3(FamilyParams("werner", (r,)), SM)
    f_grid = fidelity(simulate_recipe(recipe, grid_n=2049), target)
    assert f_grid >= 0.9999
    # |f| target 2r/(1+r) must equal 1/2 exactly
    assert 2.0 * r / (1.0 + r) == 0.5
    decoherers = [s for s in recipe.branches[0].stages if isinstance(s, DecohererStage)]
    realized = abs(analytic_f(decoherers[0], decoherers[1], SM))
    assert abs(realized - 0.5) < 1e-12
    report(2, f"Werner r=1/3 fidelity {f_grid:.10f}, |f| target {realized:.15f}")


def test_criterion_3_double_decoherence():
    floor = full_dephasing_floor_um(SM)
    d_a, d_b = DecohererStage("A", floor), DecohererStage("B", floor)
    rot = rotation(np.pi / 4.0).astype(complex)
    stages = [d_a, d_b, LocalRotationStage(u_a=rot, u_b=rot), d_a, d_b]
    rho = simulate_chain(bell_state("psi+"), stages, SM, GRID)
    expected = np.array(
        [
            [0.25, 0.0, 0.0, 0.25],
            [0.0, 0.25, 0.125, 0.0],
            [0.0, 0.125, 0.25, 0.0],
            [0.25, 0.0, 0.0, 0.25],
        ]
    )
    err = np.abs(np.abs(rho) - expected).max()
    assert err < 1e-4
    report(3, f"double-decoherence matrix magnitudes within {err:.2e}")


def _seam_state(rng, dist):
    bell = np.kron(random_su2(rng), random_su2(rng)) @ bell_state("phi+")
    other = random_pure_state(rng)
    other -= np.vdot(bell, other) * bell
    other /= np.linalg.norm(other)
    lo, hi = 0.0, np.pi / 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        psi = np.cos(mid) * bell + np.sin(mid) * other
        psi /= np.linalg.norm(psi)
        if abs(psi[0] * psi[3] - psi[1] * psi[2]) > 0.5 - dist:
            lo = mid
        else:
            hi = mid
    psi = np.cos(lo) * bell + np.sin(lo) * other
    return psi / np.linalg.norm(psi)


def test_criterion_4_pure_state_solver():
    rng = np.random.default_rng(20240)
    targets = [random_pure_state(rng) for _ in range(10_000)]
    targets += [_seam_state(rng, 1e-6) for _ in range(100)]
    targets += [
        bell_state("phi+"),  # maximal case (i)
        bell_state("psi+"),  # maximal case (ii)
        np.array([1.0, 1.0, -1.0, 1.0], dtype=complex) / 2.0,  # maximal case (iii)
    ]
    worst = 1.0
    for psi in targets:
        worst = min(worst, verify_pure(solve_pure(psi), psi))
    assert worst >= 1.0 - 1e-10
    report(4, f"{len(targets)} pure targets, worst overlap 1 - {1.0 - worst:.2e}")


def test_criterion_5_scheme1_scheme2_universality():
    rng = np.random.default_rng(20241)
    worst1 = worst2 = 1.0
    for _ in range(1000):
        rho = random_density_matrix(rng)
        r1 = compile_scheme1(rho, SM)
        r2 = compile_scheme2(rho, SM)
        worst1 = min(worst1, fidelity(simulate_recipe(r1), rho))
        worst2 = min(worst2, fidelity(simulate_recipe(r2), rho))
    assert worst1 >= 1.0 - 1e-9
    assert worst2 >= 1.0 - 1e-9
    report(
        5,
        f"1000 random targets: scheme I worst 1 - {1.0 - worst1:.2e}, "
        f"scheme II worst 1 - {1.0 - worst2:.2e}",
    )


def test_criterion_6_scheme4_bell_diagonal():
    rng = np.random.default_rng(20242)
    worst = 1.0
    for _ in range(1000):
        lam = rng.dirichlet(np.ones(4))
        recipe = compile_scheme4_bell_diagonal(*lam, SM)
        worst = min(worst, fidelity(simulate_recipe(recipe), bell_diagonal(*lam)))
        gap = abs(lam[2] - lam[3])
        if gap > 0.5:  # pairs swapped per the construction's assumption
            gap = abs(lam[0] - lam[1])
        assert recipe.branches[0].weight == 1.0 - gap
    assert worst >= 1.0 - 1e-9
    report(6, f"1000 Bell-diagonal targets, worst fidelity 1 - {1.0 - worst:.2e}")


def test_criterion_7_decoherence_factor():
    psi = np.array([0.6, 0.3, 0.2, 0.6], dtype=complex)
    psi /= np.linalg.norm(psi)
    floor = full_dephasing_floor_um(SM)
    scale = dephasing_length_um(SM)
    worst = 0.0
    for k in range(20):
        l1 = floor + 0.25 * k * scale
        l2 = floor + 0.1 * (k % 5) * scale
        d1, d2 = DecohererStage("A", l1), DecohererStage("B", l2)
        rho = simulate_chain(psi, [d1, d2], SM, GRID)
        f = analytic_f(d1, d2, SM)
        worst = max(worst, abs(abs(rho[0, 3]) - abs(f) * abs(psi[0]) * abs(psi[3])))
    assert worst < 1e-6
    d_a, d_b = DecohererStage("A", floor), DecohererStage("B", floor)
    assert abs(abs(analytic_f(d_a, d_b, SM)) - 1.0) < 1e-12
    report(7, f"20-point (L1, L2) sweep, worst numeric-vs-analytic gap {worst:.2e}")


def test_criterion_8_tangle_entropy_plane():
    rng = np.random.default_rng(20243)
    worst_excess = -1.0
    for _ in range(10_000):
        rho = random_density_matrix(rng)
        excess = tangle(rho) - mems_boundary_tangle(linear_entropy(rho))
        worst_excess = max(worst_excess, excess)
    assert worst_excess <= 1e-8
    for r in np.linspace(0.0, 1.0, 101):
        rho = mems(float(r))
        assert abs(tangle(rho) - mems_boundary_tangle(linear_entropy(rho))) < 1e-8
    # locate the Werner separability threshold by bisection on the PPT test
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if ppt_separable(werner(mid)):
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - 1.0 / 3.0) < 1e-8
    report(
        8,
        f"10000 states below MEMS boundary (max excess {worst_excess:.2e}); "
        f"Werner threshold at r = {0.5 * (lo + hi):.10f}",
    )


def test_criterion_9_resource_accounting():
    recipes = [
        compile_scheme1(werner(0.5), SM),
        compile_scheme2(werner(0.5), SM),
        compile_scheme3(FamilyParams("mems", (2.0 / 3.0,)), SM),
        compile_scheme4_bell_diagonal(0.4, 0.3, 0.2, 0.1, SM),
    ]
    nlc = [recipe_cost(r).nlc for r in recipes]
    assert nlc == [8, 2, 2, 4]
    budgets = {"I": 38, "II": 48, "III": 10, "IV": 26}
    for recipe in recipes:
        assert recipe_cost(recipe).other_optics <= budgets[recipe.scheme]
    report(9, f"canonical NLC counts {nlc} match the per-scheme budgets")
