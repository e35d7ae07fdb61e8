"""Compile target density matrices into synthesis recipes and verify them.

Four schemes:
  I   one crystal set per eigenstate, attenuators set the mixing weights;
  II  a single crystal set pumped through an interferometer, beam
      splitters set the weights, timing tags keep branches incoherent;
  III one crystal set plus one decoherer per arm, for the named families;
  IV  hybrid: a scheme-III mixed part incoherently combined with one
      extra pure state, enough for any Bell-diagonal target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import qmath
from .elements import (
    DEFAULT_DELTA_N,
    F_FLOOR,
    TAU_CAP,
    DecohererSpec,
    SpdcSourceSpec,
    SpectralModel,
    analytic_f,
    dephasing_length_um,
    default_spectral_model,
    full_dephasing_floor_um,
    invert_f,
    spdc_pair_state,
)
from .errors import BadF, BadWeights, OutOfRange, TimingCollision, UnsupportedTarget
from .families import FAMILIES, bell_weights, family_params
from .recipe_io import Recipe, RecipeBranch, SchemeIIPumpSplit, same_branch
from .spectral import (
    DecohererStage,
    FrequencyGrid,
    LocalRotationStage,
    analytic_single_stage,
    make_grid,
    simulate_chain,
)
from .synth_pure import solve_pure

RANK_EPS = 1e-12  # eigenvalues below this produce no branch
WEIGHT_SUM_TOL = 1e-10

INCOHERENCE_NOTE = "path delay exceeds the pump coherence length"


@dataclass(frozen=True)
class FamilyParams:
    """A named family target: kind plus its real parameters."""

    kind: str
    params: tuple

    def __post_init__(self):
        try:
            kind, params = family_params(self.kind, self.params)
        except UnsupportedTarget:
            raise OutOfRange(f"unknown family {self.kind!r}; known: {tuple(FAMILIES)}") from None
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)


@dataclass(frozen=True)
class ResourceCount:
    """Element tally: crystal sets count two nonlinear crystals, a general
    unitary costs three waveplates, and the pump is assumed pre-polarized
    (two plates tune each source)."""

    nlc: int
    other_optics: int
    controllable_params: int


def branch_seed_state(branch: RecipeBranch) -> np.ndarray:
    """Pure state entering the branch's stage chain."""
    if isinstance(branch.seed, SpdcSourceSpec):
        return spdc_pair_state(branch.seed)
    return np.asarray(branch.seed, dtype=complex).reshape(4)


def _check_recipe(recipe: Recipe) -> None:
    weights = [b.weight for b in recipe.branches]
    if any(w < 0.0 for w in weights):
        raise BadWeights(f"negative branch weight in {weights}")
    if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
        raise BadWeights(f"branch weights sum to {sum(weights)}, not 1")
    by_tag: dict[int, RecipeBranch] = {}
    for b in recipe.branches:
        other = by_tag.get(b.timing_tag)
        if other is not None and not same_branch(b, other):
            raise TimingCollision(
                f"distinct branches share timing tag {b.timing_tag}"
            )
        by_tag.setdefault(b.timing_tag, b)


# ---------------------------------------------------------------------------
# Schemes I and II: eigenstate mixing


def compile_scheme1(
    rho: np.ndarray,
    sm: Optional[SpectralModel] = None,
    delta_n: float = DEFAULT_DELTA_N,
) -> Recipe:
    """One crystal set per eigenstate, pump attenuated to the eigenvalue.

    Branch weights are exactly the eigenvalues of the target, in
    descending order; eigenvalues below 1e-12 are dropped.
    """
    sm = sm or default_spectral_model()
    decomp = qmath.canonical_decompose(rho)
    branches = []
    for k, (lam, psi) in enumerate(zip(decomp.eigenvalues, decomp.eigenstates)):
        if lam < RANK_EPS:
            continue
        pure = solve_pure(psi)
        branches.append(
            RecipeBranch(
                weight=float(lam),
                timing_tag=k + 1,
                seed=pure.source,
                stages=(LocalRotationStage(u_a=pure.u_a, u_b=pure.u_b),),
                note=INCOHERENCE_NOTE,
            )
        )
    recipe = Recipe(scheme="I", branches=tuple(branches), spectral_model=sm, delta_n=delta_n)
    _check_recipe(recipe)
    return recipe


def compile_scheme2(
    rho: np.ndarray,
    sm: Optional[SpectralModel] = None,
    delta_n: float = DEFAULT_DELTA_N,
) -> Recipe:
    """Single crystal set; each eigenstate comes from one pump split.

    For an eigenstate (a, b, c, d) with weight lam the pump parts are
    psi_U ~ sqrt(lam)(a|V> + d|H>) and psi_L ~ sqrt(lam)(b|V> + c|H>),
    so the branch intensity <psi_U|psi_U> + <psi_L|psi_L> equals lam.
    """
    sm = sm or default_spectral_model()
    decomp = qmath.canonical_decompose(rho)
    branches = []
    remaining = 1.0
    tag = 0
    for lam, psi in zip(decomp.eigenvalues, decomp.eigenstates):
        if lam < RANK_EPS:
            continue
        tag += 1
        a, b, c, d = psi
        scale = math.sqrt(lam)
        psi_upper = scale * np.array([d, a], dtype=complex)  # (|H>, |V>)
        psi_lower = scale * np.array([c, b], dtype=complex)
        chain_t = float(np.clip(lam / remaining, 0.0, 1.0)) if remaining > RANK_EPS else 1.0
        remaining -= lam
        upper_frac = float(np.linalg.norm(psi_upper) ** 2 / lam)
        branches.append(
            RecipeBranch(
                weight=float(lam),
                timing_tag=tag,
                seed=np.array(psi, dtype=complex),
                pump_split=SchemeIIPumpSplit(
                    psi_upper=psi_upper,
                    psi_lower=psi_lower,
                    chain_transmission=chain_t,
                    upper_fraction=upper_frac,
                ),
                note=INCOHERENCE_NOTE,
            )
        )
    recipe = Recipe(scheme="II", branches=tuple(branches), spectral_model=sm, delta_n=delta_n)
    _check_recipe(recipe)
    return recipe


# ---------------------------------------------------------------------------
# Scheme III: one crystal set + one decoherer per arm


def _decoherer_pair(
    abs_f: float, sm: SpectralModel, delta_n: float
) -> tuple[DecohererSpec, DecohererSpec]:
    """Decoherer lengths realizing |f| = abs_f, both at least at the
    full-dephasing floor; targets below F_FLOOR get the tau = 8 cap."""
    if abs_f > 1.0 + 1e-12:
        raise BadF(f"|f| target {abs_f} exceeds 1")
    abs_f = min(abs_f, 1.0)
    if abs_f < F_FLOOR:
        floor = full_dephasing_floor_um(sm, delta_n)
        l1, l2 = floor + TAU_CAP * dephasing_length_um(sm, delta_n), floor
    else:
        l1, l2 = invert_f(abs_f, sm, delta_n)
    return DecohererSpec(l1, delta_n=delta_n), DecohererSpec(l2, delta_n=delta_n)


def _d1_branch(
    amps: np.ndarray,
    f_target: complex,
    sm: SpectralModel,
    delta_n: float,
    weight: float,
    tag: int,
    post_stages: tuple = (),
    note: str = "",
) -> RecipeBranch:
    """Branch producing the single-stage family state of the given
    amplitudes and decoherence factor.

    The seed's HH amplitude is pre-rotated by the target phase and by the
    conjugate of the physical decoherence phase, so the traced corner
    lands on f_target * a * conj(d)."""
    d_a, d_b = _decoherer_pair(abs(f_target), sm, delta_n)
    f_phys = analytic_f(d_a, d_b, sm)
    comp = np.exp(-1j * np.angle(f_phys))
    if abs(f_target) > 0.0:
        comp *= f_target / abs(f_target)
    seed = np.array(amps, dtype=complex)
    seed[0] *= comp
    pure = solve_pure(seed)
    stages = (
        LocalRotationStage(u_a=pure.u_a, u_b=pure.u_b),
        DecohererStage(arm="A", spec=d_a),
        DecohererStage(arm="B", spec=d_b),
    ) + tuple(post_stages)
    return RecipeBranch(weight=weight, timing_tag=tag, seed=pure.source, stages=stages, note=note)


def compile_scheme3(
    target: FamilyParams,
    sm: Optional[SpectralModel] = None,
    delta_n: float = DEFAULT_DELTA_N,
) -> Recipe:
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
    branch = _d1_branch(amps, f_target, sm, delta_n, weight=1.0, tag=1)
    recipe = Recipe(scheme="III", branches=(branch,), spectral_model=sm, delta_n=delta_n)
    _check_recipe(recipe)
    return recipe


# ---------------------------------------------------------------------------
# Scheme IV: scheme-III mixed part + one pure state


@dataclass(frozen=True)
class BellDiagonalSplit:
    """rho_B = mixed_weight * (single-stage state) + pure_weight * |pure><pure|.

    When |l3 - l4| > 1/2 the roles of the (l1, l2) and (l3, l4) pairs are
    swapped; the mixed part then lives in the inner (HV/VH) block and is
    reached from the single-stage family by a half-waveplate on arm B.
    """

    mixed_weight: float
    pure_weight: float
    d1_amps: np.ndarray
    d1_f: float
    pure_state: np.ndarray
    swapped: bool


def bell_diagonal_split(l1: float, l2: float, l3: float, l4: float) -> BellDiagonalSplit:
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
    amps = np.array([a, b, b, a])
    if swapped:
        pure = np.array([1.0, 0.0, 0.0, sign], dtype=complex) / math.sqrt(2.0)
    else:
        pure = np.array([0.0, 1.0, sign, 0.0], dtype=complex) / math.sqrt(2.0)
    return BellDiagonalSplit(
        mixed_weight=w,
        pure_weight=gap,
        d1_amps=amps,
        d1_f=f,
        pure_state=pure,
        swapped=swapped,
    )


_SWAP_B = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def compile_scheme4_bell_diagonal(
    l1: float,
    l2: float,
    l3: float,
    l4: float,
    sm: Optional[SpectralModel] = None,
    delta_n: float = DEFAULT_DELTA_N,
) -> Recipe:
    """Two branches: a single-stage mixed part of weight 1 - |l3 - l4| and
    the Bell state (|HV> + sgn(l3 - l4)|VH>)/sqrt(2) of weight |l3 - l4|
    (pairs swapped when |l3 - l4| > 1/2).  The pure part never outweighs
    the mixed part, so only it may need attenuation."""
    sm = sm or default_spectral_model()
    split = bell_diagonal_split(l1, l2, l3, l4)
    post = (LocalRotationStage(u_a=np.eye(2, dtype=complex), u_b=_SWAP_B),) if split.swapped else ()
    branches = [
        _d1_branch(
            split.d1_amps,
            split.d1_f,
            sm,
            delta_n,
            weight=split.mixed_weight,
            tag=1,
            post_stages=post,
            note=INCOHERENCE_NOTE,
        )
    ]
    if split.pure_weight >= RANK_EPS:
        pure = solve_pure(split.pure_state)
        branches.append(
            RecipeBranch(
                weight=split.pure_weight,
                timing_tag=2,
                seed=pure.source,
                stages=(LocalRotationStage(u_a=pure.u_a, u_b=pure.u_b),),
                note=INCOHERENCE_NOTE,
            )
        )
    recipe = Recipe(scheme="IV", branches=tuple(branches), spectral_model=sm, delta_n=delta_n)
    _check_recipe(recipe)
    return recipe


# ---------------------------------------------------------------------------
# Simulation and verification


def _is_identity(u: np.ndarray, tol: float = 1e-10) -> bool:
    return abs(abs(np.trace(u)) / 2.0 - 1.0) < tol


def _branch_rho_analytic(
    branch: RecipeBranch, sm: SpectralModel
) -> Optional[np.ndarray]:
    """Closed-form branch simulation, or None when the chain does not fit
    the single-stage pattern (a rotation strictly between decoherers, or
    decoherers with different effective birefringence)."""
    psi = branch_seed_state(branch)
    length_a = length_b = 0.0
    delta_n = None
    suffix: list[LocalRotationStage] = []
    seen_dec = False
    for stage in branch.stages:
        if isinstance(stage, LocalRotationStage):
            if seen_dec:
                suffix.append(stage)
            else:
                psi = stage.u4 @ psi
        elif isinstance(stage, DecohererStage):
            if suffix:
                return None
            if delta_n is None:
                delta_n = stage.spec.effective_delta_n
            elif delta_n != stage.spec.effective_delta_n:
                return None
            if stage.arm == "A":
                length_a += stage.spec.length_um
            else:
                length_b += stage.spec.length_um
            seen_dec = True
        else:
            return None
    if not seen_dec:
        rho = qmath.projector(psi)
    else:
        rho = analytic_single_stage(psi, length_a, length_b, delta_n, sm)
    for stage in suffix:
        u4 = stage.u4
        rho = u4 @ rho @ u4.conj().T
    return rho


def simulate_recipe(
    recipe: Recipe,
    sm: Optional[SpectralModel] = None,
    grid: Optional[FrequencyGrid] = None,
    analytic: bool = False,
    grid_n: Optional[int] = None,
) -> np.ndarray:
    """Weighted incoherent sum of the branch simulations.

    Every branch is simulated exactly (simulate_chain without a grid)
    unless a grid is given, or grid_n asks for one; then the grid
    quadrature serves as an independent check.  analytic=True evaluates
    single-decoherence-stage branches by analytic_single_stage first.
    """
    sm = sm or recipe.spectral_model
    _check_recipe(recipe)
    rho = np.zeros((4, 4), dtype=complex)
    for branch in recipe.branches:
        part = _branch_rho_analytic(branch, sm) if analytic else None
        if part is None:
            if grid is None and grid_n is not None:
                grid = make_grid(sm, grid_n)
            part = simulate_chain(branch_seed_state(branch), branch.stages, sm, grid)
        rho += branch.weight * part
    return qmath.validate_density(rho)


# ---------------------------------------------------------------------------
# Resource accounting

_PUMP_WAVEPLATES_PER_SOURCE = 2
_WAVEPLATES_PER_UNITARY = 3
CONTROLLABLE_PARAMS = {"I": 15, "II": 15, "III": 10, "IV": 12}


def _stage_waveplates(stages) -> int:
    n = 0
    for stage in stages:
        if isinstance(stage, LocalRotationStage):
            if not _is_identity(stage.u_a):
                n += _WAVEPLATES_PER_UNITARY
            if not _is_identity(stage.u_b):
                n += _WAVEPLATES_PER_UNITARY
    return n


def _stage_decoherers(stages) -> int:
    return sum(1 for s in stages if isinstance(s, DecohererStage))


def recipe_cost(recipe: Recipe) -> ResourceCount:
    """Count crystals and auxiliary optics for a recipe.

    Crystal sets hold two crystals; each source needs two pump waveplates;
    a general unitary expands to three waveplates; scheme I attenuates all
    but the strongest branch, scheme IV only its pure part; scheme II
    branches each use two beam splitters, four pump waveplates and the
    lower-path half-waveplate.
    """
    nb = len(recipe.branches)
    if recipe.scheme == "II":
        nlc = 2
        other = sum(2 + 4 + 1 for _ in recipe.branches)
    else:
        nlc = 2 * nb
        other = 0
        for b in recipe.branches:
            other += _PUMP_WAVEPLATES_PER_SOURCE
            other += _stage_waveplates(b.stages)
            other += _stage_decoherers(b.stages)
        if recipe.scheme == "I":
            other += max(0, nb - 1)  # attenuators
        elif recipe.scheme == "IV":
            other += 1 if nb > 1 else 0  # attenuate the pure part only
    return ResourceCount(
        nlc=nlc,
        other_optics=other,
        controllable_params=CONTROLLABLE_PARAMS[recipe.scheme],
    )
