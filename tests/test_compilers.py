import numpy as np
import pytest

from qforge.compilers import (
    FamilyParams,
    Recipe,
    RecipeBranch,
    bell_diagonal_split,
    branch_seed_state,
    compile_scheme1,
    compile_scheme2,
    compile_scheme3,
    compile_scheme4_bell_diagonal,
    recipe_cost,
    simulate_recipe,
)
from qforge.elements import (
    analytic_f,
    default_spectral_model,
    dephasing_length_um,
    full_dephasing_floor_um,
)
from qforge.errors import BadWeights, TimingCollision, UnsupportedTarget
from qforge.families import bell_diagonal, collins_gisin, mems, werner
from qforge.qmath import (
    bell_state,
    canonical_decompose,
    fidelity,
    linear_entropy,
    projector,
    random_density_matrix,
    tangle,
)
from qforge.spectral import DecohererStage, make_grid

SM = default_spectral_model()
DN = 0.009
GRID = make_grid(SM)


def decoherer_lengths(recipe):
    stages = [s for s in recipe.branches[0].stages if isinstance(s, DecohererStage)]
    return {s.arm: s.spec.length_um for s in stages}


# ---------------------------------------------------------------- scheme I


def test_scheme1_pure_target_single_branch():
    recipe = compile_scheme1(projector(bell_state("phi+")), SM, DN)
    assert len(recipe.branches) == 1
    assert recipe.branches[0].weight == pytest.approx(1.0)


def test_scheme1_werner_half_weights():
    recipe = compile_scheme1(werner(0.5), SM, DN)
    assert [b.weight for b in recipe.branches] == pytest.approx([5 / 8, 1 / 8, 1 / 8, 1 / 8])


def test_scheme1_weights_equal_eigenvalues_exactly():
    rng = np.random.default_rng(61)
    for _ in range(20):
        rho = random_density_matrix(rng)
        dec = canonical_decompose(rho)
        recipe = compile_scheme1(rho, SM, DN)
        assert [b.weight for b in recipe.branches] == list(dec.eigenvalues)


def test_scheme1_mems_two_thirds_two_branches():
    recipe = compile_scheme1(mems(2.0 / 3.0), SM, DN)
    assert len(recipe.branches) == 2
    assert [b.weight for b in recipe.branches] == pytest.approx([2 / 3, 1 / 3])


def test_scheme1_round_trip_random():
    rng = np.random.default_rng(101)
    for _ in range(100):
        rho = random_density_matrix(rng)
        recipe = compile_scheme1(rho, SM, DN)
        assert fidelity(simulate_recipe(recipe, analytic=True), rho) >= 1.0 - 1e-9


# ---------------------------------------------------------------- scheme II


def test_scheme2_hv_target_all_lower():
    recipe = compile_scheme2(projector(np.array([0, 1, 0, 0], dtype=complex)), SM, DN)
    assert len(recipe.branches) == 1
    split = recipe.branches[0].pump_split
    assert np.abs(split.psi_upper).max() < 1e-12
    assert np.linalg.norm(split.psi_lower) == pytest.approx(1.0)
    assert split.upper_fraction == pytest.approx(0.0)


def test_scheme2_pump_parts_for_pure_target():
    a, b, c, d = 0.5, 0.5, 0.5, 0.5
    recipe = compile_scheme2(projector(np.array([a, b, c, d])), SM, DN)
    split = recipe.branches[0].pump_split
    assert np.allclose(split.psi_upper, [d, a])  # (|H>, |V>) components
    assert np.allclose(split.psi_lower, [c, b])


def test_scheme2_split_reconstructs_eigenstate():
    rng = np.random.default_rng(71)
    for _ in range(50):
        rho = random_density_matrix(rng)
        recipe = compile_scheme2(rho, SM, DN)
        for branch in recipe.branches:
            rebuilt = branch.pump_split.branch_state()
            assert abs(abs(np.vdot(rebuilt, branch.seed)) - 1.0) < 1e-10


def test_scheme2_chain_transmissions():
    recipe = compile_scheme2(werner(0.5), SM, DN)
    t = [b.pump_split.chain_transmission for b in recipe.branches]
    assert t[0] == pytest.approx(5 / 8)
    assert t[-1] == pytest.approx(1.0)
    assert all(0.0 <= x <= 1.0 for x in t)


def test_scheme2_round_trip_random():
    rng = np.random.default_rng(103)
    for _ in range(100):
        rho = random_density_matrix(rng)
        recipe = compile_scheme2(rho, SM, DN)
        assert fidelity(simulate_recipe(recipe, analytic=True), rho) >= 1.0 - 1e-9


# ---------------------------------------------------------------- scheme III


def test_scheme3_mems_branch_ii_construction():
    recipe = compile_scheme3(FamilyParams("mems", (0.4,)), SM, DN)
    lengths = decoherer_lengths(recipe)
    f = analytic_f(
        *[s.spec for s in recipe.branches[0].stages if isinstance(s, DecohererStage)], SM
    )
    assert abs(abs(f) - 0.6) < 1e-12  # |f| = 3r/2
    diff = (lengths["A"] - lengths["B"]) / dephasing_length_um(SM, DN)
    assert abs(diff - 1.0108) < 1e-4


def test_scheme3_werner_f_target():
    recipe = compile_scheme3(FamilyParams("werner", (0.5,)), SM, DN)
    specs = [s.spec for s in recipe.branches[0].stages if isinstance(s, DecohererStage)]
    assert abs(abs(analytic_f(*specs, SM)) - 2.0 / 3.0) < 1e-12


def test_scheme3_collins_gisin_equal_lengths():
    recipe = compile_scheme3(FamilyParams("collins_gisin", (0.5, np.pi / 6)), SM, DN)
    lengths = decoherer_lengths(recipe)
    floor = full_dephasing_floor_um(SM, DN)
    assert lengths["A"] == lengths["B"] == floor


def test_scheme3_family_sweeps_analytic():
    for r in np.linspace(0.0, 1.0, 11):
        for params in (
            FamilyParams("mems", (float(r),)),
            FamilyParams("werner", (float(r),)),
            FamilyParams("collins_gisin", (float(r), 0.9)),
        ):
            recipe = compile_scheme3(params, SM, DN)
            target = {
                "mems": lambda: mems(float(r)),
                "werner": lambda: werner(float(r)),
                "collins_gisin": lambda: collins_gisin(float(r), 0.9),
            }[params.kind]()
            produced = simulate_recipe(recipe, analytic=True)
            assert fidelity(produced, target) >= 1.0 - 1e-9, (params.kind, r)


def test_scheme3_family_sweeps_grid():
    for r in np.linspace(0.0, 1.0, 11):
        for kind, target in (
            ("mems", mems(float(r))),
            ("werner", werner(float(r))),
            ("collins_gisin", collins_gisin(float(r), 0.9)),
        ):
            params = (float(r), 0.9) if kind == "collins_gisin" else (float(r),)
            recipe = compile_scheme3(FamilyParams(kind, params), SM, DN)
            produced = simulate_recipe(recipe, grid=GRID)
            assert fidelity(produced, target) >= 1.0 - 1e-6, (kind, r)


def test_scheme3_d1_target_complexish():
    amps = np.array([0.6, 0.3, 0.2, 0.6])
    amps = amps / np.linalg.norm(amps)
    from qforge.families import family_d1

    target = family_d1(*amps, -0.4)  # signed f
    recipe = compile_scheme3(FamilyParams("d1", (*amps, -0.4)), SM, DN)
    assert fidelity(simulate_recipe(recipe, analytic=True), target) >= 1.0 - 1e-9
    assert fidelity(simulate_recipe(recipe, grid=GRID), target) >= 1.0 - 1e-6


def test_scheme3_mems_sweep_on_boundary():
    for r in np.linspace(0.0, 1.0, 11):
        recipe = compile_scheme3(FamilyParams("mems", (float(r),)), SM, DN)
        produced = simulate_recipe(recipe, analytic=True)
        ref = mems(float(r))
        assert abs(tangle(produced) - tangle(ref)) < 1e-8
        assert abs(linear_entropy(produced) - linear_entropy(ref)) < 1e-8


def test_scheme3_rejects_bell_diagonal():
    with pytest.raises(UnsupportedTarget):
        compile_scheme3(FamilyParams("bell_diagonal", (0.4, 0.3, 0.2, 0.1)), SM, DN)


# ---------------------------------------------------------------- scheme IV


def test_scheme4_example_weights():
    recipe = compile_scheme4_bell_diagonal(0.4, 0.3, 0.2, 0.1, SM, DN)
    assert len(recipe.branches) == 2
    assert recipe.branches[1].weight == abs(0.2 - 0.1)
    pure = branch_seed_state(recipe.branches[1])
    pure = np.kron(recipe.branches[1].stages[0].u_a, recipe.branches[1].stages[0].u_b) @ pure
    assert abs(abs(np.vdot(pure, bell_state("psi+"))) - 1.0) < 1e-10


def test_scheme4_maximally_mixed_single_branch():
    recipe = compile_scheme4_bell_diagonal(0.25, 0.25, 0.25, 0.25, SM, DN)
    assert len(recipe.branches) == 1
    produced = simulate_recipe(recipe, analytic=True)
    assert fidelity(produced, np.eye(4) / 4.0) >= 1.0 - 1e-9


def test_scheme4_swapped_case():
    lam = (0.05, 0.15, 0.75, 0.05)
    split = bell_diagonal_split(*lam)
    assert split.swapped
    assert split.pure_weight == abs(lam[0] - lam[1])
    recipe = compile_scheme4_bell_diagonal(*lam, SM, DN)
    target = bell_diagonal(*lam)
    assert fidelity(simulate_recipe(recipe, analytic=True), target) >= 1.0 - 1e-9
    assert fidelity(simulate_recipe(recipe, grid=GRID), target) >= 1.0 - 1e-6


def test_scheme4_random_simplex():
    rng = np.random.default_rng(107)
    for _ in range(100):
        lam = rng.dirichlet(np.ones(4))
        recipe = compile_scheme4_bell_diagonal(*lam, SM, DN)
        target = bell_diagonal(*lam)
        assert fidelity(simulate_recipe(recipe, analytic=True), target) >= 1.0 - 1e-9
        split = bell_diagonal_split(*lam)
        if abs(lam[2] - lam[3]) <= 0.5:
            assert split.pure_weight == abs(lam[2] - lam[3])
        else:
            assert split.pure_weight == abs(lam[0] - lam[1])


def test_scheme4_rejects_bad_weights():
    with pytest.raises(BadWeights):
        compile_scheme4_bell_diagonal(0.5, 0.5, 0.5, -0.5, SM, DN)


# ------------------------------------------------------- simulate_recipe


def test_simulate_single_pure_branch_projector():
    recipe = compile_scheme1(projector(bell_state("psi-")), SM, DN)
    rho = simulate_recipe(recipe, analytic=True)
    assert np.abs(rho - projector(bell_state("psi-"))).max() < 1e-10


def test_simulate_grid_matches_analytic_for_scheme1():
    rho_t = random_density_matrix(5)
    recipe = compile_scheme1(rho_t, SM, DN)
    a = simulate_recipe(recipe, analytic=True)
    g = simulate_recipe(recipe, grid=GRID)
    assert np.abs(a - g).max() < 1e-8


def test_grid_path_round_trips_all_schemes():
    rng = np.random.default_rng(113)
    for _ in range(10):
        rho = random_density_matrix(rng)
        for compiler in (compile_scheme1, compile_scheme2):
            recipe = compiler(rho, SM, DN)
            assert fidelity(simulate_recipe(recipe, grid=GRID), rho) >= 1.0 - 1e-6
    for _ in range(10):
        lam = rng.dirichlet(np.ones(4))
        recipe = compile_scheme4_bell_diagonal(*lam, SM, DN)
        assert fidelity(simulate_recipe(recipe, grid=GRID), bell_diagonal(*lam)) >= 1.0 - 1e-6


def test_timing_collision_detected():
    base = compile_scheme1(werner(0.5), SM, DN)
    b0, b1 = base.branches[0], base.branches[1]
    clash = RecipeBranch(
        weight=b1.weight,
        timing_tag=b0.timing_tag,  # same tag, different branch
        seed=b1.seed,
        stages=b1.stages,
    )
    bad = Recipe(
        scheme="I",
        branches=(b0, clash) + base.branches[2:],
        spectral_model=SM,
        delta_n=DN,
    )
    with pytest.raises(TimingCollision):
        simulate_recipe(bad, analytic=True)


def test_weights_must_sum_to_one():
    base = compile_scheme1(werner(0.5), SM, DN)
    b0 = base.branches[0]
    bad = Recipe(scheme="I", branches=(b0,), spectral_model=SM, delta_n=DN)
    with pytest.raises(BadWeights):
        simulate_recipe(bad, analytic=True)


# ----------------------------------------------------------- recipe_cost


def test_canonical_nlc_counts():
    r1 = compile_scheme1(werner(0.5), SM, DN)
    r2 = compile_scheme2(werner(0.5), SM, DN)
    r3 = compile_scheme3(FamilyParams("mems", (2.0 / 3.0,)), SM, DN)
    r4 = compile_scheme4_bell_diagonal(0.4, 0.3, 0.2, 0.1, SM, DN)
    assert [recipe_cost(r).nlc for r in (r1, r2, r3, r4)] == [8, 2, 2, 4]


def test_costs_within_scheme_budgets():
    budgets = {"I": 38, "II": 48, "III": 10, "IV": 26}
    recipes = [
        compile_scheme1(werner(0.5), SM, DN),
        compile_scheme2(werner(0.5), SM, DN),
        compile_scheme3(FamilyParams("mems", (0.4,)), SM, DN),
        compile_scheme4_bell_diagonal(0.4, 0.3, 0.2, 0.1, SM, DN),
    ]
    for recipe in recipes:
        cost = recipe_cost(recipe)
        assert cost.other_optics <= budgets[recipe.scheme], recipe.scheme


def test_controllable_params_column():
    r3 = compile_scheme3(FamilyParams("werner", (0.3,)), SM, DN)
    assert recipe_cost(r3).controllable_params == 10
    r4 = compile_scheme4_bell_diagonal(0.4, 0.3, 0.2, 0.1, SM, DN)
    assert recipe_cost(r4).controllable_params == 12


def test_rank_deficient_targets_shrink():
    rho = 0.5 * projector(bell_state("phi+")) + 0.5 * projector(bell_state("psi+"))
    r1 = compile_scheme1(rho, SM, DN)
    assert len(r1.branches) == 2
    assert recipe_cost(r1).nlc == 4
