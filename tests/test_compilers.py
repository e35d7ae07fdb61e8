import dataclasses

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
    simulate_recipe,
)
from qforge.elements import (
    analytic_f,
    default_spectral_model,
    dephasing_length_um,
    full_dephasing_floor_um,
)
from qforge.errors import BadWeights, InconsistentRecipe, NotFinite, OutOfRange, TimingCollision
from qforge.errors import UnsupportedTarget
from qforge.families import bell_diagonal, collins_gisin, mems, werner
from qforge.qmath import canonical_decompose, fidelity, linear_entropy, tangle
from qforge.recipe_io import DecohererStage, LocalRotationStage, SpdcSourceSpec, pump_splits
from qforge.recipe_io import recipe_cost
from qforge.spectral import simulate_chain

from kit import bell_state, projector, random_density_matrix, random_pure_state, random_su2

SM = default_spectral_model()


def decoherer_lengths(recipe):
    stages = [s for s in recipe.branches[0].stages if isinstance(s, DecohererStage)]
    return {s.arm: s.length_um for s in stages}


# ---------------------------------------------------------------- scheme I


def test_scheme1_pure_target_single_branch():
    recipe = compile_scheme1(projector(bell_state("phi+")), SM)
    assert len(recipe.branches) == 1
    assert recipe.branches[0].weight == pytest.approx(1.0)


def test_scheme1_werner_half_weights():
    recipe = compile_scheme1(werner(0.5), SM)
    assert [b.weight for b in recipe.branches] == pytest.approx([5 / 8, 1 / 8, 1 / 8, 1 / 8])


def test_scheme1_weights_equal_eigenvalues_exactly():
    rng = np.random.default_rng(61)
    for _ in range(20):
        rho = random_density_matrix(rng)
        dec = canonical_decompose(rho)
        recipe = compile_scheme1(rho, SM)
        assert [b.weight for b in recipe.branches] == list(dec.eigenvalues)


def test_scheme1_mems_two_thirds_two_branches():
    recipe = compile_scheme1(mems(2.0 / 3.0), SM)
    assert len(recipe.branches) == 2
    assert [b.weight for b in recipe.branches] == pytest.approx([2 / 3, 1 / 3])


def test_scheme1_round_trip_random():
    rng = np.random.default_rng(101)
    for _ in range(100):
        rho = random_density_matrix(rng)
        recipe = compile_scheme1(rho, SM)
        assert fidelity(simulate_recipe(recipe, analytic=True), rho) >= 1.0 - 1e-9


# ---------------------------------------------------------------- scheme II


def test_scheme2_hv_target_all_lower():
    recipe = compile_scheme2(projector(np.array([0, 1, 0, 0], dtype=complex)), SM)
    assert len(recipe.branches) == 1
    (split,) = pump_splits(recipe)
    assert np.abs(split["psi_upper"]).max() < 1e-12
    assert np.linalg.norm(split["psi_lower"]) == pytest.approx(1.0)
    assert split["upper_fraction"] == pytest.approx(0.0)


def test_scheme2_pump_parts_for_pure_target():
    a, b, c, d = 0.5, 0.5, 0.5, 0.5
    recipe = compile_scheme2(projector(np.array([a, b, c, d])), SM)
    (split,) = pump_splits(recipe)
    assert np.allclose(split["psi_upper"], [d, a])  # (|H>, |V>) components
    assert np.allclose(split["psi_lower"], [c, b])


def test_scheme2_split_reconstructs_eigenstate():
    rng = np.random.default_rng(71)
    for _ in range(50):
        rho = random_density_matrix(rng)
        recipe = compile_scheme2(rho, SM)
        for branch, split in zip(recipe.branches, pump_splits(recipe)):
            # the V pump gives |HH>, the H pump |VV>; the lower path's HWP on B
            # turns b|HH> + c|VV> into b|HV> + c|VH>
            (d, a), (c, b) = split["psi_upper"], split["psi_lower"]
            rebuilt = np.array([a, b, c, d]) / np.linalg.norm([a, b, c, d])
            assert abs(abs(np.vdot(rebuilt, branch.seed)) - 1.0) < 1e-10


def test_scheme2_chain_transmissions():
    recipe = compile_scheme2(werner(0.5), SM)
    t = [split["chain_transmission"] for split in pump_splits(recipe)]
    assert t[0] == pytest.approx(5 / 8)
    assert t[-1] == pytest.approx(1.0)
    assert all(0.0 <= x <= 1.0 for x in t)


def test_scheme2_round_trip_random():
    rng = np.random.default_rng(103)
    for _ in range(100):
        rho = random_density_matrix(rng)
        recipe = compile_scheme2(rho, SM)
        assert fidelity(simulate_recipe(recipe, analytic=True), rho) >= 1.0 - 1e-9


# ---------------------------------------------------------------- scheme III


def test_scheme3_mems_branch_ii_construction():
    recipe = compile_scheme3(FamilyParams("mems", (0.4,)), SM)
    lengths = decoherer_lengths(recipe)
    f = analytic_f(*[s for s in recipe.branches[0].stages if isinstance(s, DecohererStage)], SM)
    assert abs(abs(f) - 0.6) < 1e-12  # |f| = 3r/2
    diff = (lengths["A"] - lengths["B"]) / dephasing_length_um(SM)
    assert abs(diff - 1.0108) < 1e-4


def test_scheme3_werner_f_target():
    recipe = compile_scheme3(FamilyParams("werner", (0.5,)), SM)
    decoherers = [s for s in recipe.branches[0].stages if isinstance(s, DecohererStage)]
    assert abs(abs(analytic_f(*decoherers, SM)) - 2.0 / 3.0) < 1e-12


def test_scheme3_collins_gisin_equal_lengths():
    recipe = compile_scheme3(FamilyParams("collins_gisin", (0.5, np.pi / 6)), SM)
    lengths = decoherer_lengths(recipe)
    floor = full_dephasing_floor_um(SM)
    assert lengths["A"] == lengths["B"] == floor


def test_scheme3_family_sweeps_analytic():
    for r in np.linspace(0.0, 1.0, 11):
        for params in (
            FamilyParams("mems", (float(r),)),
            FamilyParams("werner", (float(r),)),
            FamilyParams("collins_gisin", (float(r), 0.9)),
        ):
            recipe = compile_scheme3(params, SM)
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
            recipe = compile_scheme3(FamilyParams(kind, params), SM)
            produced = simulate_recipe(recipe, grid_n=2049)
            assert fidelity(produced, target) >= 1.0 - 1e-6, (kind, r)


def test_scheme3_d1_target_complexish():
    amps = np.array([0.6, 0.3, 0.2, 0.6])
    amps = amps / np.linalg.norm(amps)
    from qforge.families import family_d1

    target = family_d1(*amps, -0.4)  # signed f
    recipe = compile_scheme3(FamilyParams("d1", (*amps, -0.4)), SM)
    assert fidelity(simulate_recipe(recipe, analytic=True), target) >= 1.0 - 1e-9
    assert fidelity(simulate_recipe(recipe, grid_n=2049), target) >= 1.0 - 1e-6


def test_scheme3_mems_sweep_on_boundary():
    for r in np.linspace(0.0, 1.0, 11):
        recipe = compile_scheme3(FamilyParams("mems", (float(r),)), SM)
        produced = simulate_recipe(recipe, analytic=True)
        ref = mems(float(r))
        assert abs(tangle(produced) - tangle(ref)) < 1e-8
        assert abs(linear_entropy(produced) - linear_entropy(ref)) < 1e-8


def test_scheme3_rejects_bell_diagonal():
    with pytest.raises(UnsupportedTarget):
        compile_scheme3(FamilyParams("bell_diagonal", (0.4, 0.3, 0.2, 0.1)), SM)


# ---------------------------------------------------------------- scheme IV


def test_scheme4_example_weights():
    recipe = compile_scheme4_bell_diagonal(0.4, 0.3, 0.2, 0.1, SM)
    assert len(recipe.branches) == 2
    assert recipe.branches[1].weight == abs(0.2 - 0.1)
    pure = branch_seed_state(recipe.branches[1])
    pure = np.kron(recipe.branches[1].stages[0].u_a, recipe.branches[1].stages[0].u_b) @ pure
    assert abs(abs(np.vdot(pure, bell_state("psi+"))) - 1.0) < 1e-10


def test_scheme4_maximally_mixed_single_branch():
    recipe = compile_scheme4_bell_diagonal(0.25, 0.25, 0.25, 0.25, SM)
    assert len(recipe.branches) == 1
    produced = simulate_recipe(recipe, analytic=True)
    assert fidelity(produced, np.eye(4) / 4.0) >= 1.0 - 1e-9


def test_scheme4_swapped_case():
    lam = (0.05, 0.15, 0.75, 0.05)
    split = bell_diagonal_split(*lam)
    assert split.swapped
    assert split.pure_weight == abs(lam[0] - lam[1])
    recipe = compile_scheme4_bell_diagonal(*lam, SM)
    target = bell_diagonal(*lam)
    assert fidelity(simulate_recipe(recipe, analytic=True), target) >= 1.0 - 1e-9
    assert fidelity(simulate_recipe(recipe, grid_n=2049), target) >= 1.0 - 1e-6


def test_scheme4_random_simplex():
    rng = np.random.default_rng(107)
    for _ in range(100):
        lam = rng.dirichlet(np.ones(4))
        recipe = compile_scheme4_bell_diagonal(*lam, SM)
        target = bell_diagonal(*lam)
        assert fidelity(simulate_recipe(recipe, analytic=True), target) >= 1.0 - 1e-9
        split = bell_diagonal_split(*lam)
        if abs(lam[2] - lam[3]) <= 0.5:
            assert split.pure_weight == abs(lam[2] - lam[3])
        else:
            assert split.pure_weight == abs(lam[0] - lam[1])


def test_scheme4_rejects_bad_weights():
    with pytest.raises(BadWeights):
        compile_scheme4_bell_diagonal(0.5, 0.5, 0.5, -0.5, SM)


# ------------------------------------------------------- simulate_recipe


def test_simulate_single_pure_branch_projector():
    recipe = compile_scheme1(projector(bell_state("psi-")), SM)
    rho = simulate_recipe(recipe, analytic=True)
    assert np.abs(rho - projector(bell_state("psi-"))).max() < 1e-10


def test_simulate_grid_matches_analytic_for_scheme1():
    rho_t = random_density_matrix(5)
    recipe = compile_scheme1(rho_t, SM)
    a = simulate_recipe(recipe, analytic=True)
    g = simulate_recipe(recipe, grid_n=2049)
    assert np.abs(a - g).max() < 1e-8


def test_grid_path_round_trips_all_schemes():
    rng = np.random.default_rng(113)
    for _ in range(10):
        rho = random_density_matrix(rng)
        for compiler in (compile_scheme1, compile_scheme2):
            recipe = compiler(rho, SM)
            assert fidelity(simulate_recipe(recipe, grid_n=2049), rho) >= 1.0 - 1e-6
    for _ in range(10):
        lam = rng.dirichlet(np.ones(4))
        recipe = compile_scheme4_bell_diagonal(*lam, SM)
        assert fidelity(simulate_recipe(recipe, grid_n=2049), bell_diagonal(*lam)) >= 1.0 - 1e-6


def _method_recipes():
    """Compiled recipes of every scheme, then chains the closed form does not
    fit: a rotation between decoherers, and decoherers of both axes."""
    rng = np.random.default_rng(1515)
    recipes = []
    for rho in (random_density_matrix(rng), werner(0.5), projector(bell_state("phi+"))):
        recipes += [compile_scheme1(rho, SM), compile_scheme2(rho, SM)]
    recipes += [compile_scheme3(FamilyParams(name, params), SM) for name, params in (
        ("mems", (0.4,)), ("mems", (0.8,)), ("werner", (0.5,)), ("collins_gisin", (0.5, 0.5236)),
        ("d1", (0.6, 0.0, 0.0, 0.8, -0.3)))]
    recipes += [compile_scheme4_bell_diagonal(*lam, sm=SM)
                for lam in ((0.4, 0.3, 0.2, 0.1), (0.05, 0.05, 0.85, 0.05))]
    compiled = len(recipes)
    floor = full_dephasing_floor_um(SM)
    rot = LocalRotationStage(u_a=random_su2(rng), u_b=random_su2(rng))
    for chain in ((DecohererStage("A", floor), rot, DecohererStage("B", 0.5 * floor)),
                  (rot, DecohererStage("A", floor, axis="H"), DecohererStage("B", floor))):
        branch = RecipeBranch(1.0, 1, random_pure_state(rng), stages=chain)
        recipes.append(Recipe(scheme="III", branches=(branch,), spectral_model=SM))
    return recipes, compiled


def test_the_chain_picks_the_method_and_analytic_changes_no_bit(monkeypatch):
    import qforge.compilers as comp

    delay_sums = []

    def counted(*args):
        delay_sums.append(args)
        return simulate_chain(*args)

    monkeypatch.setattr(comp, "simulate_chain", counted)
    recipes, compiled = _method_recipes()
    for k, recipe in enumerate(recipes):
        before = len(delay_sums)
        rho = simulate_recipe(recipe)
        assert np.array_equal(simulate_recipe(recipe, analytic=True), rho)
        # the closed form takes every compiled branch; each other chain, simulated
        # twice, goes to the delay sum both times
        assert len(delay_sums) - before == (0 if k < compiled else 2)


def test_default_matches_the_weighted_delay_sums():
    for recipe in _method_recipes()[0]:
        want = sum(b.weight * simulate_chain(branch_seed_state(b), b.stages, SM)
                   for b in recipe.branches)
        assert np.abs(simulate_recipe(recipe) - want).max() <= 1e-14


def test_timing_collision_detected():
    base = compile_scheme1(werner(0.5), SM)
    b0, b1 = base.branches[0], base.branches[1]
    clash = RecipeBranch(
        weight=b1.weight,
        timing_tag=b0.timing_tag,  # same tag, different branch
        seed=b1.seed,
        stages=b1.stages,
    )
    with pytest.raises(TimingCollision):
        Recipe(
            scheme="I",
            branches=(b0, clash) + base.branches[2:],
            spectral_model=SM,
        )


def test_weights_must_sum_to_one():
    base = compile_scheme1(werner(0.5), SM)
    b0 = base.branches[0]
    nan_weight = RecipeBranch(weight=float("nan"), timing_tag=1, seed=b0.seed, stages=b0.stages)
    for branch, error in ((b0, BadWeights), (nan_weight, NotFinite)):
        with pytest.raises(error):
            Recipe(scheme="I", branches=(branch,), spectral_model=SM)


def _weights(*weights):
    """The weights a scheme-I recipe of one SPDC branch per weight keeps."""
    seed = SpdcSourceSpec(0.0)
    branches = tuple(RecipeBranch(w, tag, seed) for tag, w in enumerate(weights, start=1))
    return [b.weight for b in Recipe(scheme="I", branches=branches, spectral_model=SM).branches]


NAN, INF = float("nan"), float("inf")
# (constructor, arguments, repr of what it returns or (type, message) of what it raises),
# each outcome as it was before finite Python floats skipped check_finite
CONSTRUCTOR_TABLE = [
    (_weights, (0.5, 0.25, np.float64(0.25)), "[0.5, 0.25, np.float64(0.25)]"),
    (_weights, (0, 0, 1), "[0, 0, 1]"),
    (_weights, (0.5, 0.25, True), (TypeError, "weight[2] must be a number, got True")),
    (_weights, (0.5, 0.25, 10**400), (NotFinite, "weight[2] is an integer beyond double range")),
    (_weights, (0.5, 0.25, NAN), (NotFinite, "weight[2] = nan is not finite")),
    (_weights, (0.5, 0.25, INF), (NotFinite, "weight[2] = inf is not finite")),
    (_weights, (0.5, 0.25, -INF), (NotFinite, "weight[2] = -inf is not finite")),
    (_weights, (np.float64(NAN), 0.5, 0.5), (NotFinite, "weight[0] = nan is not finite")),
    (_weights, (0.5, INF, NAN), (NotFinite, "weight[1] = inf is not finite")),
    (_weights, (0.75, 0.5, -0.25), (BadWeights, "negative branch weight in [0.75, 0.5, -0.25]")),
    (_weights, (0.5, 0.25, 0.2), (BadWeights, "branch weights sum to 0.95, not 1")),
    (_weights, (1e308, 1e308, 0.5), (BadWeights, "branch weights sum to inf, not 1")),
    (_weights, (0.5, 0.25, "0.25"), (TypeError, "must be real number, not str")),
    (_weights, (), (BadWeights, "branch weights sum to 0, not 1")),
    (SpdcSourceSpec, (np.float64(0.5), 0.0), "SpdcSourceSpec(theta=np.float64(0.5), phi=0.0)"),
    (SpdcSourceSpec, (1, 7), "SpdcSourceSpec(theta=1, phi=0.7168146928204138)"),
    (SpdcSourceSpec, (True, 0.0), (TypeError, "theta must be a number, got True")),
    (SpdcSourceSpec, (0.5, True), (TypeError, "phi must be a number, got True")),
    (SpdcSourceSpec, (10**400, 0.0), (NotFinite, "theta is an integer beyond double range")),
    (SpdcSourceSpec, (0.5, 10**400), (NotFinite, "phi is an integer beyond double range")),
    (SpdcSourceSpec, (NAN, 0.0), (NotFinite, "theta = nan is not finite")),
    (SpdcSourceSpec, (0.5, INF), (NotFinite, "phi = inf is not finite")),
    (SpdcSourceSpec, (0.5, np.float64(-INF)), (NotFinite, "phi = -inf is not finite")),
    (SpdcSourceSpec, (INF, NAN), (NotFinite, "theta = inf is not finite")),
    (SpdcSourceSpec, (1e308, 1e308), (OutOfRange, "theta 1e+308 outside [0, pi/2]")),
    (SpdcSourceSpec, (-0.25, 0.0), (OutOfRange, "theta -0.25 outside [0, pi/2]")),
]


@pytest.mark.parametrize("build, args, want", CONSTRUCTOR_TABLE)
def test_constructors_accept_and_reject_as_before(build, args, want):
    if isinstance(want, tuple):
        with pytest.raises(want[0]) as info:
            build(*args)
        assert (type(info.value), str(info.value)) == want
    else:
        assert repr(build(*args)) == want


def test_recipe_checks_scheme_delta_n_and_path_phase():
    base = compile_scheme3(FamilyParams("mems", (0.4,)), SM)
    with pytest.raises(ValueError, match="scheme 'V'"):
        dataclasses.replace(base, scheme="V")
    with pytest.raises(NotFinite):
        dataclasses.replace(SM, delta_n=float("nan"))
    # the path phase w |dn| L / 2c reaches 2**53 rad near L = 1.1e17 um at the defaults
    (branch,) = base.branches
    for length, ok in ((1.0e17, True), (1.2e17, False), (1e300, False)):
        far = dataclasses.replace(branch.stages[1], length_um=length)
        stages = (branch.stages[0], far, branch.stages[2])
        edited = (dataclasses.replace(branch, stages=stages),)
        if ok:
            dataclasses.replace(base, branches=edited)
        else:
            with pytest.raises(OutOfRange, match=r"2\*\*53"):
                dataclasses.replace(base, branches=edited)


def test_scheme2_branches_are_amplitudes_alone():
    base = compile_scheme2(werner(0.5), SM)
    b0, b1, *rest = base.branches
    spdc = compile_scheme1(werner(0.5), SM).branches[0]
    merged = b0.weight + b1.weight
    for edited in (
        (dataclasses.replace(b0, seed=spdc.seed), b1),
        (dataclasses.replace(b0, stages=spdc.stages), b1),
        (dataclasses.replace(b0, weight=merged), dataclasses.replace(b1, weight=0.0)),
    ):
        with pytest.raises(InconsistentRecipe, match="scheme-II branch"):
            dataclasses.replace(base, branches=edited + tuple(rest))


# ----------------------------------------------------------- recipe_cost


def test_canonical_nlc_counts():
    r1 = compile_scheme1(werner(0.5), SM)
    r2 = compile_scheme2(werner(0.5), SM)
    r3 = compile_scheme3(FamilyParams("mems", (2.0 / 3.0,)), SM)
    r4 = compile_scheme4_bell_diagonal(0.4, 0.3, 0.2, 0.1, SM)
    assert [recipe_cost(r).nlc for r in (r1, r2, r3, r4)] == [8, 2, 2, 4]


def test_costs_within_scheme_budgets():
    budgets = {"I": 38, "II": 48, "III": 10, "IV": 26}
    recipes = [
        compile_scheme1(werner(0.5), SM),
        compile_scheme2(werner(0.5), SM),
        compile_scheme3(FamilyParams("mems", (0.4,)), SM),
        compile_scheme4_bell_diagonal(0.4, 0.3, 0.2, 0.1, SM),
    ]
    for recipe in recipes:
        cost = recipe_cost(recipe)
        assert cost.other_optics <= budgets[recipe.scheme], recipe.scheme


def test_controllable_params_column():
    r3 = compile_scheme3(FamilyParams("werner", (0.3,)), SM)
    assert recipe_cost(r3).controllable_params == 10
    r4 = compile_scheme4_bell_diagonal(0.4, 0.3, 0.2, 0.1, SM)
    assert recipe_cost(r4).controllable_params == 12


def test_rank_deficient_targets_shrink():
    rho = 0.5 * projector(bell_state("phi+")) + 0.5 * projector(bell_state("psi+"))
    r1 = compile_scheme1(rho, SM)
    assert len(r1.branches) == 2
    assert recipe_cost(r1).nlc == 4
