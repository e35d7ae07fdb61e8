"""Recipes: the data model, its JSON file format and its resource tally.

Schema (version 1):
  {"version": 1, "scheme": "I".."IV",
   "spectral_model": {"delta_eps": .., "omega": .., "delta_n": ..},
   "branches": [{"weight": .., "timing_tag": n,
                 "seed": {"theta": .., "phi": ..} | {"amps": [[re, im] x4]},
                 "stages": [{"kind": "local_unitary", "u_a": .., "u_b": ..} |
                            {"kind": "decoherer", "arm": "A"|"B",
                             "length_um": .., "delta_n": .., "axis": ..}],
                 "pump_split": {"psi_upper": [[re, im] x2], "psi_lower": [[re, im] x2],
                                "chain_transmission": .., "upper_fraction": ..}?,
                 "note": ".."?}]}

Complex numbers serialize as [re, im]; floats use Python's shortest
round-trip repr, so serialize -> parse -> serialize is byte-identical.

A scheme-II branch seeds from amplitudes, holds no stages and weighs more
than 0.  Its pump split is derived in branch order (pump_splits), written
for the lab, checked to 1e-10 when parsed and never kept; other schemes
carry none.  A decoherer's delta_n is the spectral model's: written for the
lab, checked equal when parsed, never kept.  Breaking a rule raises
InconsistentRecipe.

The records a recipe holds live here too: SpectralModel, SpdcSourceSpec,
LocalRotationStage and DecohererStage, with check_path_phase, the one
check a decoherer needs of the model.  elements keeps the optics formulas
and imports the records from here, so that reading, checking and tallying
a recipe (`qforge cost`) loads no numpy.  A compiled recipe holds the
solver's ndarrays; a parsed one holds its seeds and rotations as tuples of
Python complex, the values the file gives, and every numeric reader takes
either through np.asarray.  pump_splits alone imports numpy, and only for
scheme II: its upper_fraction must keep qmath._norm's bits, which a
Python-scalar norm misses in the last bit for some seeds.

The tolerance ladder.  A simulated sum must pass qmath.validate_density's
HERMITICITY_TOL = TRACE_TOL = 1e-12, so a parse tolerance above them needs
a simulation step that absorbs it: simulate_recipe divides each branch by
its trace (SEED_NORM_TOL 1e-9, UNITARY_TOL 1e-10) and the sum by the
weight sum (WEIGHT_SUM_TOL 1e-10).  SPLIT_TOL and IDENTITY_TOL (1e-10)
reach no simulation.  RANK_EPS, THETA_TOL and families.ROUND_OFF_TOL take
1e-12 as round-off, qmath.EIGENVALUE_CLAMP 1e-10 below zero, qmath.NORM_TOL
and families.AMPS_NORM_TOL 1e-9 off a unit norm; qmath.SPIN_FLIP_CUT (1e-15)
is concurrence's rank cut, relative to the largest eigenvalue.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import BadWeights, InconsistentRecipe, NotFinite, NotNormalized, NotUnitary
from .errors import OutOfRange, Record, TimingCollision, check_finite

FORMAT_VERSION = 1
SCHEMES = ("I", "II", "III", "IV")
WEIGHT_SUM_TOL = 1e-10
SEED_NORM_TOL = 1e-9
UNITARY_TOL = 1e-10
SPLIT_TOL = 1e-10
IDENTITY_TOL = 1e-10  # a local unitary this close to the identity (up to phase) costs no optics
RANK_EPS = 1e-12  # eigenvalues below this produce no branch; pump power below it is spent
THETA_TOL = 1e-12  # a source angle this far above pi/2 is round-off

C_UM_PER_S = 2.99792458e14  # speed of light in micrometers per second
DEFAULT_DELTA_N = 0.009  # quartz-like birefringence
# a path phase w |dn| L / 2c beyond 2**53 rad keeps no digit mod 2 pi in a double
MAX_PATH_PHASE = 2.0**53


class SpectralModel(Record):
    """Gaussian downconversion spectrum parameters and the decoherers'
    birefringence.

    delta_eps is the half-width of |A(eps)|^2 and omega the pump central
    frequency, both in rad/s.  delta_n = n_V - n_H is the birefringence of
    every decoherer in a recipe; it is checked finite, and zero is allowed
    (schemes I and II emit no decoherer).
    """

    delta_eps: float
    omega: float
    delta_n: float = DEFAULT_DELTA_N

    def __init__(self, delta_eps: float, omega: float, delta_n: float = DEFAULT_DELTA_N):
        check_finite(delta_eps=delta_eps, omega=omega)
        if delta_eps <= 0.0:
            raise OutOfRange(f"delta_eps must be positive, got {delta_eps}")
        if omega <= 0.0:
            raise OutOfRange(f"omega must be positive, got {omega}")
        check_finite(delta_n=delta_n)  # last: a bad delta_eps or omega is named first
        self.__dict__.update(delta_eps=delta_eps, omega=omega, delta_n=delta_n)

    @property
    def l_si_um(self) -> float:
        """Coherence length of the downconversion photons, c / delta_eps."""
        return C_UM_PER_S / self.delta_eps


class SpdcSourceSpec(Record):
    """Two-crystal source pumped by cos(theta)|V> + e^{i phi} sin(theta)|H>."""

    theta: float
    phi: float = 0.0

    def __init__(self, theta: float, phi: float = 0.0):
        if not (type(theta) is type(phi) is float and math.isfinite(theta + phi)):
            check_finite(theta=theta, phi=phi)  # only where a value is not a finite float
        if not 0.0 <= theta <= math.pi / 2.0 + THETA_TOL:
            raise OutOfRange(f"theta {theta} outside [0, pi/2]")
        self.__dict__.update(theta=theta, phi=float(phi) % (2.0 * math.pi))


class LocalRotationStage(Record):
    """Frequency-independent local unitaries, one 2x2 matrix per arm: an
    ndarray when compiled, a tuple of rows of complex when parsed."""

    u_a: Sequence
    u_b: Sequence

    def __init__(self, u_a: Sequence, u_b: Sequence):
        self.__dict__.update(u_a=u_a, u_b=u_b)


class DecohererStage(Record):
    """Thick birefringent crystal in one arm ('A' or 'B'): the polarization
    named by axis sees an index sm.delta_n, shared by every decoherer, above
    the other one; the stage keeps no birefringence of its own."""

    arm: str
    length_um: float
    axis: str = "V"

    def __init__(self, arm: str, length_um: float, axis: str = "V"):
        check_finite(length_um=length_um)
        if length_um < 0.0:
            raise OutOfRange(f"decoherer length {length_um} must be >= 0")
        if axis not in ("H", "V"):
            raise OutOfRange(f"axis must be 'H' or 'V', got {axis!r}")
        if arm not in ("A", "B"):
            raise ValueError(f"arm must be 'A' or 'B', got {arm!r}")
        self.__dict__.update(arm=arm, length_um=length_um, axis=axis)

    def effective_delta_n(self, sm: SpectralModel) -> float:
        """n_V - n_H: +sm.delta_n for axis 'V', -sm.delta_n for axis 'H'."""
        return sm.delta_n if self.axis == "V" else -sm.delta_n


def _path_phase(length_um: float, sm: SpectralModel) -> float:
    """w |dn| L / 2c, the path phase of a decoherer of length L."""
    return sm.omega * (abs(sm.delta_n) * length_um) / (2.0 * C_UM_PER_S)


def check_path_phase(stage: DecohererStage, sm: SpectralModel) -> None:
    """OutOfRange when the decoherer's path phase w |dn| L / 2c exceeds MAX_PATH_PHASE."""
    phase = _path_phase(stage.length_um, sm)
    if phase > MAX_PATH_PHASE:
        raise OutOfRange(f"decoherer of {stage.length_um} um has a path phase of {phase:.3g} "
                         f"rad, beyond 2**53 rad, where no digit of it is left")


class RecipeBranch(Record):
    """One incoherent component of a recipe.

    The seed is a source setting (two-crystal SPDC) or a direct pure
    state of four amplitudes (an ndarray when compiled, a tuple of complex
    when parsed); stages act in order on the state it gives.  A scheme-II
    branch's pump split is derived (pump_splits), not stored.
    """

    weight: float
    timing_tag: int
    seed: Union[SpdcSourceSpec, Sequence[complex]]
    stages: tuple = ()
    note: str = ""

    def __init__(self, weight: float, timing_tag: int, seed, stages: tuple = (), note: str = ""):
        self.__dict__.update(weight=weight, timing_tag=timing_tag, seed=seed, stages=stages,
                             note=note)


class Recipe(Record):
    """Incoherent mixture of branches, checked when built: a known scheme,
    weights finite, non-negative, summing to 1; scheme-II branches of
    amplitudes alone, weighing more than 0; branches sharing a timing tag
    are equal; no decoherer path phase beyond MAX_PATH_PHASE.  The spectral
    model, which carries every decoherer's delta_n, checks itself."""

    scheme: str  # "I" | "II" | "III" | "IV"
    branches: tuple
    spectral_model: SpectralModel

    def __init__(self, scheme: str, branches: tuple, spectral_model: SpectralModel):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown recipe scheme {scheme!r}; use I, II, III or IV")
        weights = [b.weight for b in branches]
        if not all(type(w) is float and math.isfinite(w) for w in weights):  # names on failure only
            check_finite(**{f"weight[{k}]": w for k, w in enumerate(weights)})
        if any(w < 0.0 for w in weights):
            raise BadWeights(f"negative branch weight in {weights}")
        total = sum(weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise BadWeights(f"branch weights sum to {total}, not 1")
        for k, b in enumerate(branches if scheme == "II" else ()):
            if isinstance(b.seed, SpdcSourceSpec) or b.stages or not b.weight > 0.0:
                raise InconsistentRecipe(f"scheme-II branch {k} must seed from amplitudes, "
                                         f"hold no stages and weigh more than 0")
        by_tag: dict = {}
        dn = spectral_model.delta_n
        for b in branches:
            other = by_tag.setdefault(b.timing_tag, b)  # must have the same recipe-v1 form
            if other is not b and _branch_to_dict(b, dn) != _branch_to_dict(other, dn):
                raise TimingCollision(f"distinct branches share timing tag {b.timing_tag}")
            for stage in b.stages:
                if isinstance(stage, DecohererStage):
                    check_path_phase(stage, spectral_model)
        self.__dict__.update(scheme=scheme, branches=branches, spectral_model=spectral_model)


def pump_splits(recipe: Recipe) -> list:
    """Per branch, in order, the pump split that realizes it: psi_upper,
    psi_lower, chain_transmission and upper_fraction for scheme II, else None.

    A seed (a, b, c, d) of weight w takes the pump parts sqrt(w)(d, a) and
    sqrt(w)(c, b) in the (|H>, |V>) basis: the V pump gives |HH>, the H pump
    |VV>, and the lower path's half-waveplate on arm B turns b|HH> + c|VV>
    into b|HV> + c|VH>.  chain_transmission is what the branch's pick-off
    beam splitter passes of the pump power left; upper_fraction is the
    branch power's share on the upper path.
    """
    if recipe.scheme != "II":
        return [None] * len(recipe.branches)
    import numpy as np

    from .qmath import _norm

    splits, remaining = [], 1.0
    for b in recipe.branches:
        lam, seed = b.weight, np.asarray(b.seed, dtype=complex)
        psi_upper = math.sqrt(lam) * seed[[3, 0]]
        chain_t = float(min(max(lam / remaining, 0.0), 1.0)) if remaining > RANK_EPS else 1.0
        remaining -= lam
        splits.append({"psi_upper": psi_upper, "psi_lower": math.sqrt(lam) * seed[[2, 1]],
                       "chain_transmission": chain_t,
                       "upper_fraction": float(_norm(psi_upper) ** 2 / lam)})
    return splits


def _cvec(v) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def _cmat(m) -> list:
    return [_cvec(row) for row in m]


def _complex(z) -> complex:
    """One [re, im] entry; any other shape, or a bool that complex() would
    read as 0 or 1, is a TypeError."""
    if type(z) is not list or len(z) != 2 or isinstance(z[0], bool) or isinstance(z[1], bool):
        raise TypeError(f"a complex entry must be a list of two numbers, got {z!r:.60}")
    return complex(z[0], z[1])


def _vec_from(data) -> tuple:
    return tuple(_complex(z) for z in data)


def _stage_to_dict(stage, delta_n: float) -> dict:
    if isinstance(stage, LocalRotationStage):
        return {"kind": "local_unitary", "u_a": _cmat(stage.u_a), "u_b": _cmat(stage.u_b)}
    if isinstance(stage, DecohererStage):
        return {
            "kind": "decoherer",
            "arm": stage.arm,
            "length_um": stage.length_um,
            "delta_n": delta_n,
            "axis": stage.axis,
        }
    raise TypeError(f"cannot serialize stage {type(stage).__name__}")


def _unitary_from(data, stage: int, arm: str) -> tuple:
    """A local rotation's 2x2 matrix, checked unitary in scalar arithmetic
    (cheaper than numpy on 2x2); a NaN in any entry fails the check too."""
    rows = [[_complex(z) for z in row] for row in data]
    try:
        (a, b), (c, d) = rows
    except ValueError:
        raise NotUnitary(f"stage {stage} u_{arm} is not a 2x2 matrix") from None
    errs = (abs(abs(a) ** 2 + abs(b) ** 2 - 1.0), abs(abs(c) ** 2 + abs(d) ** 2 - 1.0),
            abs(a * c.conjugate() + b * d.conjugate()))
    for err in errs:  # not max(): it drops a NaN that is not its first argument
        if not err <= UNITARY_TOL:
            raise NotUnitary(f"stage {stage} u_{arm} is not unitary: |U U^+ - 1| = {err:.3g}")
    return (a, b), (c, d)


def _stage_from_dict(data: dict, index: int, delta_n: float):
    kind = data["kind"]
    if kind == "local_unitary":
        return LocalRotationStage(u_a=_unitary_from(data["u_a"], index, "a"),
                                  u_b=_unitary_from(data["u_b"], index, "b"))
    if kind == "decoherer":
        arm, length, written, axis = (data[k] for k in ("arm", "length_um", "delta_n", "axis"))
        check_finite(length_um=length, delta_n=written)
        stage = DecohererStage(arm=arm, length_um=length, axis=axis)
        if written != delta_n:
            raise InconsistentRecipe(f"stage {index} delta_n {written} differs from the "
                                     f"spectral model's {delta_n}")
        return stage
    raise ValueError(f"unknown stage kind {kind!r}")


def _branch_to_dict(branch: RecipeBranch, delta_n: float, split: Optional[dict] = None) -> dict:
    out: dict = {"weight": branch.weight, "timing_tag": branch.timing_tag}
    if isinstance(branch.seed, SpdcSourceSpec):
        out["seed"] = {"theta": branch.seed.theta, "phi": branch.seed.phi}
    else:
        out["seed"] = {"amps": _cvec(branch.seed)}
    out["stages"] = [_stage_to_dict(s, delta_n) for s in branch.stages]
    if split is not None:
        psi = {key: _cvec(split[key]) for key in ("psi_upper", "psi_lower")}
        out["pump_split"] = {**split, **psi}
    if branch.note:
        out["note"] = branch.note
    return out


def _branch_from_dict(data: dict, delta_n: float) -> tuple:
    """The branch, and its pump split as written (checked finite) or None."""
    seed = data["seed"]
    if "theta" in seed:
        seed = SpdcSourceSpec(theta=seed["theta"], phi=seed["phi"])
    else:
        amps = seed["amps"]
        seed = _vec_from(amps)
        # checked only: the recipe keeps the amplitudes as written
        norm = math.hypot(*(x for z in amps for x in z))
        if not math.isfinite(norm):
            raise NotFinite("seed amplitudes hold a NaN or infinite entry")
        if len(seed) != 4 or not abs(norm - 1.0) <= SEED_NORM_TOL:
            raise NotNormalized(f"seed needs 4 amplitudes of unit norm, not {len(seed)} of {norm}")
    split = None
    if "pump_split" in data:
        ps = data["pump_split"]
        psi = {key: _vec_from(ps[key]) for key in ("psi_upper", "psi_lower")}
        check_finite(chain_transmission=ps["chain_transmission"],
                     upper_fraction=ps["upper_fraction"])
        if not all(math.isfinite(z.real) and math.isfinite(z.imag)
                   for v in psi.values() for z in v):
            raise NotFinite("pump split amplitudes hold a NaN or infinite entry")
        split = {**ps, **psi}
    tag, note = data["timing_tag"], data.get("note", "")
    if type(tag) is not int:
        raise TypeError(f"timing_tag must be an integer, got {tag!r}")
    if type(note) is not str:
        raise TypeError(f"note must be a string, got {type(note).__name__}")
    stages = tuple(_stage_from_dict(s, k, delta_n) for k, s in enumerate(data["stages"]))
    return RecipeBranch(weight=data["weight"], timing_tag=tag, seed=seed, stages=stages,
                        note=note), split


def recipe_to_json(recipe: Recipe) -> str:
    sm = recipe.spectral_model
    doc = {
        "version": FORMAT_VERSION,
        "scheme": recipe.scheme,
        "spectral_model": {"delta_eps": sm.delta_eps, "omega": sm.omega, "delta_n": sm.delta_n},
        "branches": [_branch_to_dict(b, sm.delta_n, s)
                     for b, s in zip(recipe.branches, pump_splits(recipe))],
    }
    return json.dumps(doc, indent=2) + "\n"


def recipe_from_json(text: str) -> Recipe:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise TypeError(f"a recipe is a JSON object, got {type(doc).__name__}")
    version = doc.get("version")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ValueError(f"unsupported recipe version {version!r}")
    branches = doc["branches"]
    if not isinstance(branches, list):
        raise TypeError(f"recipe branches must be a list, got {type(branches).__name__}")
    sm_doc = doc["spectral_model"]
    sm = SpectralModel(delta_eps=sm_doc["delta_eps"], omega=sm_doc["omega"],
                       delta_n=sm_doc["delta_n"])
    parsed = [_branch_from_dict(b, sm.delta_n) for b in branches]
    recipe = Recipe(scheme=doc["scheme"], branches=tuple(b for b, _ in parsed), spectral_model=sm)
    for k, ((_, have), want) in enumerate(zip(parsed, pump_splits(recipe))):
        if (have is None) != (want is None):
            raise InconsistentRecipe(f"branch {k} of a scheme-{recipe.scheme} recipe "
                                     f"{'lacks' if have is None else 'carries'} a pump split")
        for key, value in (want or {}).items():
            if not _within_split_tol(have[key], value):
                raise InconsistentRecipe(f"branch {k} pump_split {key} is off by more than "
                                         f"{SPLIT_TOL:g} from the split its seed and weight give")
    return recipe


def _within_split_tol(have, want) -> bool:
    """Whether a split entry as written lies within SPLIT_TOL of the derived
    one: a number, or each amplitude of a vector of the same length."""
    if isinstance(want, float):
        return abs(have - want) <= SPLIT_TOL
    want = want.tolist()
    return len(have) == len(want) and all(abs(h - w) <= SPLIT_TOL for h, w in zip(have, want))


def load_recipe(path) -> Recipe:
    return recipe_from_json(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Resource accounting


class ResourceCount(Record):
    """Element tally: crystal sets count two nonlinear crystals, a general
    unitary costs three waveplates, and the pump is assumed pre-polarized
    (two plates tune each source)."""

    nlc: int
    other_optics: int
    controllable_params: int

    def __init__(self, nlc: int, other_optics: int, controllable_params: int):
        self.__dict__.update(nlc=nlc, other_optics=other_optics,
                             controllable_params=controllable_params)


def _is_identity(u) -> bool:
    return abs(abs(u[0][0] + u[1][1]) / 2.0 - 1.0) < IDENTITY_TOL


_PUMP_WAVEPLATES_PER_SOURCE = 2
_WAVEPLATES_PER_UNITARY = 3
_INTERFEROMETER_OPTICS = 2 + 4 + 1  # per scheme-II branch
CONTROLLABLE_PARAMS = {"I": 15, "II": 15, "III": 10, "IV": 12}


def _stage_optics(stages) -> int:
    """Three waveplates per non-identity arm unitary, one crystal per decoherer."""
    n = 0
    for stage in stages:
        if isinstance(stage, LocalRotationStage):
            n += _WAVEPLATES_PER_UNITARY * sum(not _is_identity(u) for u in (stage.u_a, stage.u_b))
        elif isinstance(stage, DecohererStage):
            n += 1
    return n


def recipe_cost(recipe: Recipe) -> ResourceCount:
    """Count crystals and auxiliary optics for a recipe.

    Every branch counts its stage optics.  Scheme II shares one crystal set
    and gives each branch two beam splitters, four pump waveplates and the
    lower-path half-waveplate; every other scheme gives each branch its own
    crystal set with two pump waveplates.  Scheme I attenuates all but the
    strongest branch, scheme IV only its pure part.
    """
    shared = recipe.scheme == "II"
    per_branch = _INTERFEROMETER_OPTICS if shared else _PUMP_WAVEPLATES_PER_SOURCE
    nb = len(recipe.branches)
    other = sum(per_branch + _stage_optics(b.stages) for b in recipe.branches)
    if recipe.scheme == "I":
        other += max(0, nb - 1)  # attenuators
    elif recipe.scheme == "IV":
        other += 1 if nb > 1 else 0  # attenuate the pure part only
    return ResourceCount(
        nlc=2 if shared else 2 * nb,
        other_optics=other,
        controllable_params=CONTROLLABLE_PARAMS[recipe.scheme],
    )
