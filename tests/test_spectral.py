import dataclasses
import re

import numpy as np
import pytest

from qforge import elements, spectral
from qforge.elements import (
    analytic_f,
    default_spectral_model,
    dephasing_length_um,
    full_dephasing_floor_um,
    invert_f,
    rotation,
)
from qforge.qmath import fidelity, purity, validate_density
from qforge.errors import OutOfRange
from qforge.recipe_io import C_UM_PER_S, DecohererStage, LocalRotationStage
from qforge.spectral import MAX_GRID_N, analytic_single_stage, make_grid, simulate_chain

from kit import bell_state, projector, random_pure_state, random_su2

SM = default_spectral_model()
GRID = make_grid(SM)
DN = 0.009
FLOOR = full_dephasing_floor_um(SM)
HH = np.array([1, 0, 0, 0], dtype=complex)


def _grid_rho(psi, *stages):
    return simulate_chain(psi, stages, SM, GRID)


def test_grid_requires_odd_size():
    with pytest.raises(ValueError):
        make_grid(SM, 2048)


def test_grid_size_is_capped_before_allocating():
    for n in (MAX_GRID_N + 2, 10**30 + 1):  # the second would not fit in any memory
        with pytest.raises(OutOfRange, match="grid size"):
            make_grid(SM, n)


def test_grid_takes_a_delta_eps_whose_square_is_a_normal_double():
    """At either end of GRID_DELTA_EPS a model scaled from the default simulates a compiled
    recipe on a grid as the exact path does; beyond them make_grid refuses the model."""
    from qforge.compilers import FamilyParams, compile_scheme3, simulate_recipe

    for delta_eps in spectral.GRID_DELTA_EPS:
        scale = delta_eps / SM.delta_eps
        sm = dataclasses.replace(SM, delta_eps=delta_eps, omega=SM.omega * scale)
        recipe = compile_scheme3(FamilyParams("mems", (0.4,)), sm)
        assert np.abs(simulate_recipe(recipe, grid_n=257) - simulate_recipe(recipe)).max() < 1e-8
    for delta_eps in (1e-200, 1e-160, 2e150, 1e160, 1e300):
        want = f"delta_eps {delta_eps:.6g} rad/s lies outside [1e-150, 1e150] rad/s"
        with pytest.raises(OutOfRange, match=re.escape(want)):
            make_grid(dataclasses.replace(SM, delta_eps=delta_eps), 33)


def test_a_decoherer_up_to_2_53_dephasing_lengths_simulates_without_overflow():
    """check_path_phase bounds each decoherer's delta_eps |dn| L / c by 2**53, which keeps
    the Gaussian exponent of every coherence finite; one ulp more is refused."""
    from qforge.compilers import Recipe, RecipeBranch, simulate_recipe

    sm = dataclasses.replace(SM, omega=SM.delta_eps)  # the path phase is then half the spread
    length = 2.0**53 * C_UM_PER_S / (sm.delta_eps * DN)
    while sm.delta_eps * (DN * length) / C_UM_PER_S > 2.0**53:
        length = np.nextafter(length, 0.0)
    rot = LocalRotationStage(u_a=rotation(0.3).astype(complex), u_b=np.eye(2, dtype=complex))
    for stages in ((DecohererStage("A", length), DecohererStage("B", 0.5 * length)),
                   (DecohererStage("A", length), rot, DecohererStage("B", length))):
        branch = RecipeBranch(1.0, 1, bell_state("phi+"), stages=stages)
        rho = simulate_recipe(Recipe(scheme="III", branches=(branch,), spectral_model=sm))
        assert np.isfinite(rho).all()
    thicker = RecipeBranch(1.0, 1, HH, stages=(DecohererStage("A", np.nextafter(length, 1e300)),))
    with pytest.raises(OutOfRange, match="dephasing lengths thick"):
        Recipe(scheme="III", branches=(thicker,), spectral_model=sm)


def test_grid_normalization():
    from qforge.elements import spectral_amplitude

    prof = spectral_amplitude(SM, GRID.points)
    total = np.sum(GRID.weights * np.abs(prof) ** 2)
    # raw quadrature only misses the Gaussian tail beyond +/- 6 delta_eps
    assert abs(total - 1.0) < 1e-8
    # the grid path normalizes the lifted state, after which the trace is exact
    assert abs(np.trace(_grid_rho(HH)) - 1.0) < 1e-12


def test_lift_hh_profile_and_norm():
    rho = _grid_rho(HH)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    rho[0, 0] = 0.0
    assert np.abs(rho).max() == 0.0


def test_lift_trace_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(50):
        psi = random_pure_state(rng)
        rho = _grid_rho(psi)
        assert np.abs(rho - projector(psi)).max() < 1e-9


def test_apply_local_unitary_identity_and_swap():
    eye = np.eye(2, dtype=complex)
    same = _grid_rho(HH, LocalRotationStage(u_a=eye, u_b=eye))
    assert same.tobytes() == _grid_rho(HH).tobytes()
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    rho = _grid_rho(HH, LocalRotationStage(u_a=eye, u_b=swap))
    assert np.abs(rho - projector(np.array([0, 1, 0, 0], dtype=complex))).max() < 1e-9


def test_unitary_preserves_norm():
    rng = np.random.default_rng(7)
    for _ in range(20):
        psi = random_pure_state(rng)
        rho = _grid_rho(psi, LocalRotationStage(u_a=random_su2(rng), u_b=random_su2(rng)))
        assert abs(np.trace(rho) - 1.0) < 1e-12


def test_zero_length_decoherer_is_identity():
    psi = random_pure_state(3)
    out = _grid_rho(psi, DecohererStage("A", 0.0))
    assert out.tobytes() == _grid_rho(psi).tobytes()


def test_decoherer_preserves_norm():
    out = _grid_rho(random_pure_state(5), DecohererStage("B", 12345.6))
    assert abs(np.trace(out) - 1.0) < 1e-12


def test_equal_decoherers_keep_phi_plus_up_to_known_phase():
    d_a, d_b = DecohererStage("A", FLOOR), DecohererStage("B", FLOOR)
    rho = _grid_rho(bell_state("phi+"), d_a, d_b)
    f = analytic_f(d_a, d_b, SM)
    expected = projector(bell_state("phi+")).astype(complex)
    expected[0, 3] *= f
    expected[3, 0] *= np.conj(f)
    assert fidelity(rho, expected) > 1.0 - 1e-9


def test_single_long_decoherer_kills_corner():
    d = DecohererStage("A", 8.0 * dephasing_length_um(SM))
    rho = _grid_rho(bell_state("phi+"), d)
    assert np.abs(rho - np.diag([0.5, 0, 0, 0.5])).max() < 1e-6


def test_family_matrix_emerges_from_single_stage():
    rng = np.random.default_rng(11)
    psi = random_pure_state(rng)
    l1, l2 = FLOOR + 700.0, FLOOR
    d1, d2 = DecohererStage("A", l1), DecohererStage("B", l2)
    rho = simulate_chain(psi, [d1, d2], SM, GRID)
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
    scale = dephasing_length_um(SM)
    pairs = [(FLOOR + k * 0.25 * scale, FLOOR + (k % 5) * 0.1 * scale) for k in range(20)]
    for l1, l2 in pairs:
        d1, d2 = DecohererStage("A", l1), DecohererStage("B", l2)
        rho = simulate_chain(psi, [d1, d2], SM, GRID)
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
        stages = [DecohererStage("A", l1), DecohererStage("B", l2)]
        grid_rho = simulate_chain(psi, stages, SM, GRID)
        closed = analytic_single_stage(psi, stages, SM)
        assert np.abs(grid_rho - closed).max() < 1e-6


def test_grid_refinement_convergence():
    psi = random_pure_state(2)
    stages = [DecohererStage("A", FLOOR + 505.0), DecohererStage("B", FLOOR)]
    rho_a = simulate_chain(psi, stages, SM, make_grid(SM, 2049))
    rho_b = simulate_chain(psi, stages, SM, make_grid(SM, 4097))
    assert np.abs(rho_a - rho_b).max() < 1e-7


def test_purity_never_increases_through_decoherers():
    rng = np.random.default_rng(37)
    for _ in range(25):
        psi = random_pure_state(rng)
        rot = LocalRotationStage(u_a=random_su2(rng), u_b=random_su2(rng))
        before = purity(_grid_rho(psi, rot))
        arm = "A" if rng.random() < 0.5 else "B"
        length = float(rng.uniform(0.0, 3.0 * FLOOR))
        after = purity(_grid_rho(psi, rot, DecohererStage(arm, length)))
        assert after <= before + 1e-9


def test_double_decoherence_with_45_degree_rotations():
    d_a, d_b = DecohererStage("A", FLOOR), DecohererStage("B", FLOOR)
    rot = rotation(np.pi / 4.0).astype(complex)
    stages = [d_a, d_b, LocalRotationStage(u_a=rot, u_b=rot), d_a, d_b]
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
    top = FLOOR + 8.0 * dephasing_length_um(SM)
    stages = []
    for _ in range(n_dec):
        stages.append(LocalRotationStage(u_a=random_su2(rng), u_b=random_su2(rng)))
        length, axis = float(rng.uniform(0.0, top)), str(rng.choice(["H", "V"]))
        stages.append(DecohererStage(str(rng.choice(["A", "B"])), length, axis=axis))
    stages.append(LocalRotationStage(u_a=random_su2(rng), u_b=random_su2(rng)))
    return stages


def _chain_by_took_v(psi, stages, sm):
    """simulate_chain's delay sum as first written: the int64 pair table
    diff[p, q, k] = c_pk - c_qk rebuilt on every call and read by strided slices."""
    terms = (psi / np.linalg.norm(psi))[None, :]
    paths = []
    for stage in stages:
        if isinstance(stage, LocalRotationStage):
            terms = terms @ spectral._u4(stage).T
        else:
            path = stage.effective_delta_n(sm) * stage.length_um
            pol = np.array([0, 0, 1, 1] if stage.arm == "A" else [0, 1, 0, 1])
            paths.append((path, path if stage.arm == "A" else -path))
            terms = np.concatenate([terms * (1 - pol), terms * pol])
    took_v = (np.arange(len(terms))[:, None] >> np.arange(len(paths))) & 1
    diff = took_v[:, None, :] - took_v[None, :, :]
    ds = np.zeros(diff.shape[:2])
    dt = np.zeros(diff.shape[:2])
    for k, (path, signed) in enumerate(paths):
        ds += diff[:, :, k] * path
        dt += diff[:, :, k] * signed
    const = ds * sm.omega / (2.0 * C_UM_PER_S)
    lin = dt / C_UM_PER_S
    kernel = np.exp(1j * const) * np.exp(-0.5 * (sm.delta_eps * lin) ** 2)
    rho = terms.T @ kernel @ terms.conj()
    return 0.5 * (rho + rho.conj().T)


def test_exact_path_matches_the_per_call_pair_table_bitwise():
    # integer lengths and delta_n: the int8 planes must not make an int8 product
    sm_int = dataclasses.replace(SM, delta_n=1)
    rng = np.random.default_rng(1806)
    for n_dec in range(7):
        for _ in range(3):
            psi = random_pure_state(rng)
            mixed = _random_chain(rng, n_dec)
            single = [dataclasses.replace(s, axis="V") if isinstance(s, DecohererStage) else s
                      for s in mixed]
            whole = [dataclasses.replace(s, length_um=int(s.length_um) % 300)
                     if isinstance(s, DecohererStage) else s for s in mixed]
            for stages, sm in ((single, SM), (mixed, SM), (whole, sm_int)):
                got = simulate_chain(psi, stages, sm)
                assert got.tobytes() == _chain_by_took_v(psi, stages, sm).tobytes()


def test_pair_planes_are_built_once_and_read_only():
    planes = spectral._pair_planes(3)
    assert spectral._pair_planes(3) is planes
    assert (planes.dtype, planes.shape, planes.flags.c_contiguous) == (np.int8, (3, 8, 8), True)
    assert planes[1, 2, 5] == 1  # bit 1 of 2, less bit 1 of 5
    with pytest.raises(ValueError, match="read-only"):
        planes[0, 1, 0] = 0
    assert spectral._pair_planes(0).shape == (0, 1, 1)


def test_exact_matches_grid_on_random_chains():
    # the raw exact trace must sit far inside validate_density's 1e-12,
    # although the phases w dn L / 2c reach ~1e4 rad
    raw_trace_error = 0.0
    rng = np.random.default_rng(2049)
    worst = 0.0
    for k in range(120):
        psi = random_pure_state(rng)
        stages = _random_chain(rng, 2 + k % 3)
        exact = simulate_chain(psi, stages, SM)
        grid = simulate_chain(psi, stages, SM, GRID)
        for rho in (exact, grid):
            raw_trace_error = max(raw_trace_error, abs(np.trace(rho) - 1.0))
            validate_density(rho)
        worst = max(worst, np.abs(exact - grid).max())
    assert worst <= 1e-8
    assert raw_trace_error < 1e-13


def test_exact_matches_analytic_single_stage():
    rng = np.random.default_rng(23)
    for _ in range(20):
        psi = random_pure_state(rng)
        l1 = float(rng.uniform(0.0, 3.0 * FLOOR))
        l2 = float(rng.uniform(0.0, 3.0 * FLOOR))
        stages = [DecohererStage("A", l1), DecohererStage("B", l2)]
        exact = simulate_chain(psi, stages, SM)
        closed = analytic_single_stage(psi, stages, SM)
        assert np.abs(exact - closed).max() <= 1e-12


def test_the_exact_paths_read_the_spectrum_only_through_its_coherence(monkeypatch):
    # chi and its inverse swapped, in elements alone, for a triangular shape:
    # invert_f and analytic_f still round-trip, and the delay sum and the closed
    # form still agree, on states the Gaussian does not give
    rng = np.random.default_rng(26)
    chains = []
    for _ in range(20):
        l1, l2 = (FLOOR + float(x) * dephasing_length_um(SM) for x in rng.uniform(0.0, 3.0, 2))
        rotate = [LocalRotationStage(u_a=random_su2(rng), u_b=random_su2(rng)) for _ in range(2)]
        stages = [rotate[0], DecohererStage("A", l1), DecohererStage("B", l2), rotate[1]]
        chains.append((random_pure_state(rng), stages))
    gaussian = [simulate_chain(psi, stages, SM) for psi, stages in chains]
    monkeypatch.setattr(elements, "coherence", lambda tau: np.maximum(0.0, 1.0 - np.abs(tau) / 2))
    monkeypatch.setattr(elements, "inverse_coherence", lambda abs_f: 2.0 * (1.0 - abs_f))
    for f in (0.0, 0.1, 0.3, 0.5, 0.75, 0.9, 1.0):
        d_a, d_b = (DecohererStage(arm, length) for arm, length in zip("AB", invert_f(f, SM)))
        assert abs(abs(analytic_f(d_a, d_b, SM)) - f) < 1e-12
    for (psi, stages), before in zip(chains, gaussian):
        exact = simulate_chain(psi, stages, SM)
        assert np.abs(exact - analytic_single_stage(psi, stages, SM)).max() <= 1e-14
        assert np.abs(exact - before).max() > 1e-4


def test_analytic_falls_back_to_exact_on_other_chains():
    from qforge.compilers import Recipe, RecipeBranch, simulate_recipe

    rot = rotation(np.pi / 4.0).astype(complex)
    stages = (DecohererStage("A", FLOOR + 300.0), LocalRotationStage(u_a=rot, u_b=rot),
              DecohererStage("B", FLOOR))
    psi = random_pure_state(31)
    assert analytic_single_stage(psi, stages, SM) is None
    branch = RecipeBranch(weight=1.0, timing_tag=1, seed=psi, stages=stages)
    recipe = Recipe(scheme="III", branches=(branch,), spectral_model=SM)
    assert np.array_equal(simulate_recipe(recipe, analytic=True), simulate_recipe(recipe))


def test_exact_path_refuses_more_than_ten_decoherers(monkeypatch):
    chain = [DecohererStage("AB"[k % 2], FLOOR) for k in range(11)]
    psi = bell_state("phi+")
    with pytest.raises(OutOfRange, match="a chain of 11 decoherers exceeds the exact simulator's 10"):
        simulate_chain(psi, chain, SM)
    validate_density(simulate_chain(psi, chain, SM, GRID))  # the grid takes any chain
    # the limit itself is allowed
    monkeypatch.setattr(spectral, "MAX_EXACT_DECOHERERS", 2)
    validate_density(simulate_chain(psi, chain[:2], SM))
    with pytest.raises(OutOfRange, match="a chain of 3 decoherers"):
        simulate_chain(psi, chain[:3], SM)


def test_default_simulate_recipe_builds_no_grid(request):
    from qforge.compilers import (
        FamilyParams,
        compile_scheme3,
        compile_scheme4_bell_diagonal,
        simulate_recipe,
    )

    recipes = [
        compile_scheme3(FamilyParams("mems", (0.4,)), SM),
        compile_scheme4_bell_diagonal(0.1, 0.2, 0.3, 0.4, sm=SM),
    ]
    oracle = [simulate_recipe(r, grid_n=2049) for r in recipes]
    request.getfixturevalue("forbid_make_grid")
    for recipe, want in zip(recipes, oracle):
        assert np.abs(simulate_recipe(recipe) - want).max() < 1e-8


def test_axis_h_equals_v_with_negated_delta_n():
    from qforge.compilers import Recipe, RecipeBranch, simulate_recipe

    def recipe(delta_n, axis):
        stages = (
            LocalRotationStage(u_a=random_su2(8), u_b=random_su2(9)),
            DecohererStage("A", FLOOR + 300.0, axis=axis),
            DecohererStage("B", FLOOR, axis=axis),
        )
        branch = RecipeBranch(weight=1.0, timing_tag=1, seed=random_pure_state(53),
                              stages=stages)
        sm = dataclasses.replace(SM, delta_n=delta_n)
        return Recipe(scheme="III", branches=(branch,), spectral_model=sm)

    assert DecohererStage("A", FLOOR, axis="H").effective_delta_n(SM) == -DN
    h, v_minus, v_plus = recipe(DN, "H"), recipe(-DN, "V"), recipe(DN, "V")
    want = simulate_recipe(v_minus)
    # the default closed form and the grid
    for kwargs in ({}, {"grid_n": 2049}):
        got = simulate_recipe(h, **kwargs)
        assert np.abs(got - want).max() < 1e-8
        assert np.abs(got - simulate_recipe(v_plus, **kwargs)).max() > 1e-3
    f_h, f_minus, f_plus = (
        analytic_f(*r.branches[0].stages[1:], r.spectral_model) for r in (h, v_minus, v_plus)
    )
    assert f_h == f_minus
    assert abs(f_h - f_plus) > 1e-3
