"""Compile target density matrices into synthesis recipes and verify them.

Four schemes; compile_target is the one place that pairs one with a target:
  I   one crystal set per eigenstate, attenuators set the mixing weights;
  II  a single crystal set pumped through an interferometer, beam
      splitters set the weights, timing tags keep branches incoherent;
  III one crystal set plus one decoherer per arm, for the named families;
  IV  hybrid: a scheme-III mixed part incoherently combined with one
      extra pure state, enough for any Bell-diagonal target.

Each compiler takes its target and a SpectralModel; the model's delta_n
is the birefringence of every decoherer emitted.  A family target is a
families.FamilyParams, imported here under the same name.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Optional

import numpy as np

from . import qmath
from .elements import analytic_f, default_spectral_model, invert_f, spdc_pair_state
from .errors import UnsupportedTarget
from .families import FAMILIES, FamilyParams, bell_weights
from .recipe_io import RANK_EPS, DecohererStage, LocalRotationStage, Recipe, RecipeBranch
from .recipe_io import SpdcSourceSpec, SpectralModel
from .spectral import analytic_single_stage, make_grid, simulate_chain
from .synth_pure import solve_pure

INCOHERENCE_NOTE = "path delay exceeds the pump coherence length"


def branch_seed_state(branch: RecipeBranch) -> np.ndarray:
    """Pure state entering the branch's stage chain."""
    if isinstance(branch.seed, SpdcSourceSpec):
        return spdc_pair_state(branch.seed)
    return np.asarray(branch.seed, dtype=complex).reshape(4)


def _solved_branch(psi, weight: float, tag: int, after: tuple = (),
                   note: str = INCOHERENCE_NOTE) -> RecipeBranch:
    """Branch seeded by solve_pure's source for psi: its local rotation
    first, then the stages in after."""
    pure = solve_pure(psi)
    stages = (LocalRotationStage(u_a=pure.u_a, u_b=pure.u_b), *after)
    return RecipeBranch(weight, tag, pure.source, stages, note=note)


# ---------------------------------------------------------------------------
# Schemes I and II: eigenstate mixing


def _eigenstates(rho: np.ndarray) -> list:
    """(eigenvalue, eigenstate) pairs of rho, descending, eigenvalues below 1e-12 dropped."""
    decomp = qmath.canonical_decompose(rho)
    return [(lam, psi) for lam, psi in zip(decomp.eigenvalues.tolist(), decomp.eigenstates)
            if lam >= RANK_EPS]


def compile_scheme1(rho: np.ndarray, sm: Optional[SpectralModel] = None) -> Recipe:
    """One crystal set per eigenstate, pump attenuated to the eigenvalue.

    Branch weights are exactly the eigenvalues of the target, in
    descending order; eigenvalues below 1e-12 are dropped.
    """
    sm = sm or default_spectral_model()
    branches = tuple(_solved_branch(psi, lam, tag)
                     for tag, (lam, psi) in enumerate(_eigenstates(rho), start=1))
    return Recipe(scheme="I", branches=branches, spectral_model=sm)


def compile_scheme2(rho: np.ndarray, sm: Optional[SpectralModel] = None) -> Recipe:
    """Single crystal set; each eigenstate comes from one pump split.

    Branches as in scheme I, each seeded with its eigenstate's amplitudes
    and holding no stages, the only scheme-II branch Recipe accepts.  The
    pump split is not stored: recipe_io.pump_splits derives it, the recipe
    file carries it for the lab, and parsing checks it to 1e-10 (else
    InconsistentRecipe) and keeps nothing of it.
    """
    sm = sm or default_spectral_model()
    branches = tuple(RecipeBranch(lam, tag, np.array(psi, dtype=complex), note=INCOHERENCE_NOTE)
                     for tag, (lam, psi) in enumerate(_eigenstates(rho), start=1))
    return Recipe(scheme="II", branches=branches, spectral_model=sm)


# ---------------------------------------------------------------------------
# Scheme III: one crystal set + one decoherer per arm


def _d1_branch(amps: np.ndarray, f_target: complex, sm: SpectralModel, weight: float, tag: int,
               post_stages: tuple = (), note: str = "") -> RecipeBranch:
    """Branch producing the single-stage family state of the given
    amplitudes and decoherence factor.

    The seed's HH amplitude is pre-rotated by the target phase and by the
    conjugate of the physical decoherence phase, so the traced corner
    lands on f_target * a * conj(d).  The decoherers, of birefringence
    sm.delta_n, realize |f_target| by invert_f, which caps targets below
    F_FLOOR, zero included.  Callers bound |f_target| by 1 + 1e-12 (the d1
    family checks it, the MEMS, Werner and Bell-diagonal splits give at
    most 1); the excess is clamped."""
    abs_f = abs(f_target)
    l1, l2 = invert_f(min(abs_f, 1.0), sm)
    d_a, d_b = DecohererStage("A", l1), DecohererStage("B", l2)
    f = analytic_f(d_a, d_b, sm)
    comp = np.exp(-1j * np.arctan2(f.imag, f.real))
    if abs_f > 0.0:
        comp *= f_target / abs_f
    seed = np.array(amps, dtype=complex)
    seed[0] *= comp
    return _solved_branch(seed, weight, tag, (d_a, d_b, *post_stages), note)


def compile_scheme3(target: FamilyParams, sm: Optional[SpectralModel] = None) -> Recipe:
    """Single branch: family seed state, one decoherer per arm.

    MEMS branch II uses |f| = 3r/2 (r <= 2/3 keeps it within [0, 1]),
    Werner uses |f| = 2r/(1+r); MEMS branch I and Collins-Gisin keep
    L1 = L2 at the dephasing floor (|f| = 1).
    """
    seed = FAMILIES[target.kind].seed
    if seed is None:
        raise UnsupportedTarget(f"{target.kind} targets need scheme IV")
    sm = sm or default_spectral_model()
    amps, f_target = seed(*target.params)
    branch = _d1_branch(amps, f_target, sm, weight=1.0, tag=1)
    return Recipe(scheme="III", branches=(branch,), spectral_model=sm)


# ---------------------------------------------------------------------------
# Scheme IV: scheme-III mixed part + one pure state


_SWAP_B = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def compile_scheme4_bell_diagonal(l1: float, l2: float, l3: float, l4: float,
                                  sm: Optional[SpectralModel] = None) -> Recipe:
    """Two branches: a single-stage mixed part of weight 1 - |l3 - l4| and the
    Bell state (|HV> + sgn(l3 - l4)|VH>)/sqrt(2) of weight |l3 - l4|; the pure
    part never outweighs the mixed part, so only it may need attenuation.
    When |l3 - l4| > 1/2 the (l1, l2) and (l3, l4) pairs swap roles: the mixed
    part lives in the inner (HV/VH) block, reached from the single-stage family
    by a half-waveplate on arm B, and the pure part is (|HH> + sgn(l1 - l2)|VV>)/sqrt(2)."""
    sm = sm or default_spectral_model()
    lam = bell_weights(l1, l2, l3, l4)
    swapped = abs(lam[2] - lam[3]) > 0.5
    if swapped:
        outer, inner = (lam[2], lam[3]), (lam[0], lam[1])
    else:
        outer, inner = (lam[0], lam[1]), (lam[2], lam[3])
    gap = abs(inner[0] - inner[1])
    sign = 1.0 if inner[0] >= inner[1] else -1.0
    w = 1.0 - gap
    pair_sum = outer[0] + outer[1]
    a = math.sqrt(pair_sum / (2.0 * w))
    b = math.sqrt(min(inner) / w)
    f = (outer[0] - outer[1]) / pair_sum if pair_sum > 0.0 else 0.0
    if swapped:
        pure = np.array([1.0, 0.0, 0.0, sign], dtype=complex) / math.sqrt(2.0)
        post = (LocalRotationStage(u_a=np.eye(2, dtype=complex), u_b=_SWAP_B),)
    else:
        pure = np.array([0.0, 1.0, sign, 0.0], dtype=complex) / math.sqrt(2.0)
        post = ()
    branches = [_d1_branch(np.array([a, b, b, a]), f, sm, weight=w, tag=1, post_stages=post,
                           note=INCOHERENCE_NOTE)]
    if gap >= RANK_EPS:
        branches.append(_solved_branch(pure, gap, 2))
    return Recipe(scheme="IV", branches=tuple(branches), spectral_model=sm)


def compile_target(scheme: str, target, sm: Optional[SpectralModel] = None) -> Recipe:
    """Compile a FamilyParams, density matrix or matrix file's Path.  I and II take all three,
    III a seeded family, IV the unseeded one; else UnsupportedTarget, before any file is read."""
    family = isinstance(target, FamilyParams)
    if scheme in ("I", "II"):
        if family:
            target = FAMILIES[target.kind].matrix(*target.params)
        elif isinstance(target, Path):
            from . import matrix_io

            target = matrix_io.load_density(target)
        return (compile_scheme1 if scheme == "I" else compile_scheme2)(target, sm)
    if scheme == "III" and family:
        return compile_scheme3(target, sm)
    if scheme == "IV" and family and FAMILIES[target.kind].seed is None:
        return compile_scheme4_bell_diagonal(*target.params, sm=sm)
    if scheme not in ("III", "IV"):
        raise ValueError(f"unknown scheme {scheme!r}; use I, II, III or IV")
    raise UnsupportedTarget("scheme III takes a family spec, not a raw matrix" if scheme == "III"
                            else "scheme IV takes a bell-diagonal:l1,l2,l3,l4 target")


# ---------------------------------------------------------------------------
# Simulation and verification


def simulate_recipe(
    recipe: Recipe, analytic: bool = False, grid_n: Optional[int] = None
) -> np.ndarray:
    """Weighted incoherent sum of the branch simulations, validated once.

    The chain picks the method: without grid_n a branch takes the closed
    form analytic_single_stage where it fits, else the exact delay sum
    simulate_chain; with grid_n every branch is integrated on that grid, an
    independent check.  Each branch is divided by its trace, so seeds and
    rotations within the parse tolerances give unit trace; the sum is
    divided by the weight sum where that is off 1 by more than TRACE_TOL,
    so every weight sum parsing accepts (WEIGHT_SUM_TOL) gives unit trace
    too, and a compiled recipe (off by about 1e-15) keeps its bits.
    analytic is accepted and ignored."""
    sm = recipe.spectral_model
    grid = None if grid_n is None else make_grid(sm, grid_n)
    rho = np.zeros((4, 4), dtype=complex)
    for branch in recipe.branches:
        psi = branch_seed_state(branch)
        part = analytic_single_stage(psi, branch.stages, sm) if grid is None else None
        if part is None:
            part = simulate_chain(psi, branch.stages, sm, grid)
        rho += branch.weight / qmath._trace(part).real * part
    total = sum(b.weight for b in recipe.branches)
    if abs(total - 1.0) > qmath.TRACE_TOL:
        rho /= total
    return qmath.validate_density(rho)
