import numpy as np
import pytest

from qforge.elements import (
    DecohererSpec,
    analytic_f,
    default_spectral_model,
    dephasing_length_um,
    full_dephasing_floor_um,
    rotation,
)
from qforge.qmath import (
    bell_state,
    fidelity,
    projector,
    purity,
    random_pure_state,
    random_su2,
    validate_density,
)
from qforge.spectral import (
    DecohererStage,
    LocalRotationStage,
    analytic_single_stage,
    apply_decoherer,
    apply_local_unitary,
    lift,
    make_grid,
    simulate_chain,
    trace_to_polarization,
)

SM = default_spectral_model()
GRID = make_grid(SM)
DN = 0.009
FLOOR = full_dephasing_floor_um(SM, DN)


def test_grid_requires_odd_size():
    with pytest.raises(ValueError):
        make_grid(SM, 2048)


def test_grid_normalization():
    from qforge.elements import spectral_amplitude

    prof = spectral_amplitude(SM, GRID.points)
    total = np.sum(GRID.weights * np.abs(prof) ** 2)
    # raw quadrature only misses the Gaussian tail beyond +/- 6 delta_eps
    assert abs(total - 1.0) < 1e-8
    # lift() normalizes on the grid, after which the measure is exact
    s = lift(np.array([1, 0, 0, 0], dtype=complex), SM, GRID)
    assert abs(np.sum(GRID.weights * np.abs(s.amps) ** 2) - 1.0) < 1e-12


def test_lift_hh_profile_and_norm():
    s = lift(np.array([1, 0, 0, 0], dtype=complex), SM, GRID)
    assert abs(s.norm() - 1.0) < 1e-12
    assert np.abs(s.amps[1:]).max() == 0.0


def test_lift_trace_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(50):
        psi = random_pure_state(rng)
        rho = trace_to_polarization(lift(psi, SM, GRID))
        assert np.abs(rho - projector(psi)).max() < 1e-9


def test_apply_local_unitary_identity_and_swap():
    s = lift(np.array([1, 0, 0, 0], dtype=complex), SM, GRID)
    same = apply_local_unitary(s, np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    assert np.abs(same.amps - s.amps).max() == 0.0
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    swapped = apply_local_unitary(s, np.eye(2, dtype=complex), swap)
    rho = trace_to_polarization(swapped)
    assert np.abs(rho - projector(np.array([0, 1, 0, 0], dtype=complex))).max() < 1e-9


def test_unitary_preserves_norm():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = lift(random_pure_state(rng), SM, GRID)
        s2 = apply_local_unitary(s, random_su2(rng), random_su2(rng))
        assert abs(s2.norm() - 1.0) < 1e-12


def test_zero_length_decoherer_is_identity():
    s = lift(random_pure_state(3), SM, GRID)
    out = apply_decoherer(s, "A", DecohererSpec(0.0, DN), SM)
    assert np.abs(out.amps - s.amps).max() == 0.0


def test_decoherer_preserves_norm():
    s = lift(random_pure_state(5), SM, GRID)
    out = apply_decoherer(s, "B", DecohererSpec(12345.6, DN), SM)
    assert abs(out.norm() - 1.0) < 1e-12


def test_equal_decoherers_keep_phi_plus_up_to_known_phase():
    d = DecohererSpec(FLOOR, DN)
    s = lift(bell_state("phi+"), SM, GRID)
    s = apply_decoherer(s, "A", d, SM)
    s = apply_decoherer(s, "B", d, SM)
    rho = trace_to_polarization(s)
    f = analytic_f(d, d, SM)
    expected = projector(bell_state("phi+")).astype(complex)
    expected[0, 3] *= f
    expected[3, 0] *= np.conj(f)
    assert fidelity(rho, expected) > 1.0 - 1e-9


def test_single_long_decoherer_kills_corner():
    d = DecohererSpec(8.0 * dephasing_length_um(SM, DN), DN)
    s = lift(bell_state("phi+"), SM, GRID)
    rho = trace_to_polarization(apply_decoherer(s, "A", d, SM))
    assert np.abs(rho - np.diag([0.5, 0, 0, 0.5])).max() < 1e-6


def test_family_matrix_emerges_from_single_stage():
    rng = np.random.default_rng(11)
    psi = random_pure_state(rng)
    l1, l2 = FLOOR + 700.0, FLOOR
    d1, d2 = DecohererSpec(l1, DN), DecohererSpec(l2, DN)
    rho = simulate_chain(
        psi, [DecohererStage("A", d1), DecohererStage("B", d2)], SM, GRID
    )
    f = analytic_f(d1, d2, SM)
    # diagonal |amps|^2, corner f a d*; all other off-diagonal entries dead
    assert np.abs(np.diag(rho) - np.abs(psi) ** 2).max() < 1e-9
    assert abs(rho[0, 3] - f * psi[0] * np.conj(psi[3])) < 1e-6
    off = rho - np.diag(np.diag(rho))
    off[0, 3] = off[3, 0] = 0.0
    assert np.abs(off).max() < 1e-9


def test_numeric_vs_analytic_f_sweep():
    psi = np.array([0.6, 0.3, 0.2, 0.6], dtype=complex)
    psi /= np.linalg.norm(psi)
    scale = dephasing_length_um(SM, DN)
    pairs = [(FLOOR + k * 0.25 * scale, FLOOR + (k % 5) * 0.1 * scale) for k in range(20)]
    for l1, l2 in pairs:
        d1, d2 = DecohererSpec(l1, DN), DecohererSpec(l2, DN)
        rho = simulate_chain(
            psi, [DecohererStage("A", d1), DecohererStage("B", d2)], SM, GRID
        )
        f = analytic_f(d1, d2, SM)
        assert abs(abs(rho[0, 3]) - abs(f) * abs(psi[0]) * abs(psi[3])) < 1e-6


def test_simulate_chain_empty_stages():
    psi = random_pure_state(13)
    for grid in (GRID, None):
        rho = simulate_chain(3.0 * psi, [], SM, grid)  # both paths normalize the seed
        assert np.abs(rho - projector(psi)).max() < 1e-9
        with pytest.raises(TypeError):
            simulate_chain(psi, ["not a stage"], SM, grid)


def test_analytic_single_stage_matches_grid():
    rng = np.random.default_rng(19)
    for _ in range(5):
        psi = random_pure_state(rng)
        l1 = FLOOR + float(rng.uniform(0, 2000.0))
        l2 = FLOOR + float(rng.uniform(0, 2000.0))
        stages = [
            DecohererStage("A", DecohererSpec(l1, DN)),
            DecohererStage("B", DecohererSpec(l2, DN)),
        ]
        grid_rho = simulate_chain(psi, stages, SM, GRID)
        closed = analytic_single_stage(psi, l1, l2, DN, SM)
        assert np.abs(grid_rho - closed).max() < 1e-6


def test_grid_refinement_convergence():
    psi = random_pure_state(2)
    d = DecohererSpec(FLOOR + 505.0, DN)
    stages = [DecohererStage("A", d), DecohererStage("B", DecohererSpec(FLOOR, DN))]
    rho_a = simulate_chain(psi, stages, SM, make_grid(SM, 2049))
    rho_b = simulate_chain(psi, stages, SM, make_grid(SM, 4097))
    assert np.abs(rho_a - rho_b).max() < 1e-7


def test_purity_never_increases_through_decoherers():
    rng = np.random.default_rng(37)
    for _ in range(25):
        s = lift(random_pure_state(rng), SM, GRID)
        s = apply_local_unitary(s, random_su2(rng), random_su2(rng))
        before = purity(trace_to_polarization(s))
        arm = "A" if rng.random() < 0.5 else "B"
        length = float(rng.uniform(0.0, 3.0 * FLOOR))
        s = apply_decoherer(s, arm, DecohererSpec(length, DN), SM)
        after = purity(trace_to_polarization(s))
        assert after <= before + 1e-9


def test_double_decoherence_with_45_degree_rotations():
    d = DecohererSpec(FLOOR, DN)
    rot = rotation(np.pi / 4.0).astype(complex)
    stages = [
        DecohererStage("A", d),
        DecohererStage("B", d),
        LocalRotationStage(u_a=rot, u_b=rot),
        DecohererStage("A", d),
        DecohererStage("B", d),
    ]
    rho = simulate_chain(bell_state("psi+"), stages, SM, GRID)
    assert np.abs(simulate_chain(bell_state("psi+"), stages, SM) - rho).max() < 1e-8
    expected = np.array(
        [
            [0.25, 0, 0, 0.25],
            [0, 0.25, 0.125, 0],
            [0, 0.125, 0.25, 0],
            [0.25, 0, 0, 0.25],
        ]
    )
    assert np.abs(np.abs(rho) - expected).max() < 1e-4


# ---------------------------------------------------- exact delay sum


def _random_chain(rng, n_dec):
    """Random local unitaries, each followed by a decoherer on a random arm
    and axis, lengths in the range the compilers emit."""
    top = FLOOR + 8.0 * dephasing_length_um(SM, DN)
    stages = []
    for _ in range(n_dec):
        stages.append(LocalRotationStage(u_a=random_su2(rng), u_b=random_su2(rng)))
        spec = DecohererSpec(float(rng.uniform(0.0, top)), DN, axis=str(rng.choice(["H", "V"])))
        stages.append(DecohererStage(str(rng.choice(["A", "B"])), spec))
    stages.append(LocalRotationStage(u_a=random_su2(rng), u_b=random_su2(rng)))
    return stages


def test_exact_matches_grid_on_random_chains(monkeypatch):
    from qforge import spectral

    # the raw exact trace must sit far inside validate_density's 1e-12,
    # although the phases w dn L / 2c reach ~1e4 rad
    raw_trace_error = [0.0]

    def validate(m):
        raw_trace_error[0] = max(raw_trace_error[0], abs(np.trace(m) - 1.0))
        return validate_density(m)

    monkeypatch.setattr(spectral, "validate_density", validate)
    rng = np.random.default_rng(2049)
    worst = 0.0
    for k in range(120):
        psi = random_pure_state(rng)
        stages = _random_chain(rng, 2 + k % 3)
        exact = simulate_chain(psi, stages, SM)
        grid = simulate_chain(psi, stages, SM, GRID)
        worst = max(worst, np.abs(exact - grid).max())
    assert worst <= 1e-8
    assert raw_trace_error[0] < 1e-13


def test_exact_matches_analytic_single_stage():
    rng = np.random.default_rng(23)
    for _ in range(20):
        psi = random_pure_state(rng)
        l1 = float(rng.uniform(0.0, 3.0 * FLOOR))
        l2 = float(rng.uniform(0.0, 3.0 * FLOOR))
        stages = [
            DecohererStage("A", DecohererSpec(l1, DN)),
            DecohererStage("B", DecohererSpec(l2, DN)),
        ]
        exact = simulate_chain(psi, stages, SM)
        closed = analytic_single_stage(psi, l1, l2, DN, SM)
        assert np.abs(exact - closed).max() <= 1e-12


def test_default_simulate_recipe_builds_no_grid(request):
    from qforge.compilers import (
        FamilyParams,
        compile_scheme3,
        compile_scheme4_bell_diagonal,
        simulate_recipe,
    )

    recipes = [
        compile_scheme3(FamilyParams("mems", (0.4,)), SM, DN),
        compile_scheme4_bell_diagonal(0.1, 0.2, 0.3, 0.4, sm=SM, delta_n=DN),
    ]
    oracle = [simulate_recipe(r, grid=GRID) for r in recipes]
    request.getfixturevalue("forbid_make_grid")
    for recipe, want in zip(recipes, oracle):
        for analytic in (False, True):
            got = simulate_recipe(recipe, analytic=analytic)
            assert np.abs(got - want).max() < 1e-8


def test_axis_h_equals_v_with_negated_delta_n():
    from qforge.compilers import Recipe, RecipeBranch, simulate_recipe

    def recipe(delta_n, axis):
        stages = (
            LocalRotationStage(u_a=random_su2(8), u_b=random_su2(9)),
            DecohererStage("A", DecohererSpec(FLOOR + 300.0, delta_n, axis=axis)),
            DecohererStage("B", DecohererSpec(FLOOR, delta_n, axis=axis)),
        )
        branch = RecipeBranch(weight=1.0, timing_tag=1, seed=random_pure_state(53),
                              stages=stages)
        return Recipe(scheme="III", branches=(branch,), spectral_model=SM, delta_n=DN)

    assert DecohererSpec(FLOOR, DN, axis="H").effective_delta_n == -DN
    h, v_minus, v_plus = recipe(DN, "H"), recipe(-DN, "V"), recipe(DN, "V")
    want = simulate_recipe(v_minus)
    # exact, closed-form and grid paths
    for kwargs in ({}, {"analytic": True}, {"grid": GRID}):
        got = simulate_recipe(h, **kwargs)
        assert np.abs(got - want).max() < 1e-8
        assert np.abs(got - simulate_recipe(v_plus, **kwargs)).max() > 1e-3
    f_h, f_minus, f_plus = (
        analytic_f(*(st.spec for st in r.branches[0].stages[1:]), SM) for r in (h, v_minus, v_plus)
    )
    assert f_h == f_minus
    assert abs(f_h - f_plus) > 1e-3
