"""Recipes: the data model and its JSON file format, round-trip exact.

Schema (version 1):
  {"version": 1, "scheme": "I".."IV",
   "spectral_model": {"delta_eps": .., "omega": .., "delta_n": ..},
   "branches": [{"weight": .., "timing_tag": n,
                 "seed": {"theta": .., "phi": ..} | {"amps": [[re, im] x4]},
                 "stages": [{"kind": "local_unitary", "u_a": .., "u_b": ..} |
                            {"kind": "decoherer", "arm": "A"|"B",
                             "length_um": .., "delta_n": .., "axis": ..}],
                 "pump_split": {...}?, "note": ".."?}]}

Complex numbers serialize as [re, im]; floats use Python's shortest
round-trip repr, so serialize -> parse -> serialize is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .elements import DEFAULT_DELTA_N, DecohererSpec, SpdcSourceSpec, SpectralModel
from .spectral import DecohererStage, LocalRotationStage

FORMAT_VERSION = 1
SCHEMES = ("I", "II", "III", "IV")


@dataclass(frozen=True)
class SchemeIIPumpSplit:
    """Pump decomposition for one interferometric branch.

    psi_upper/psi_lower hold the un-normalized pump amplitudes in the
    (|H>, |V>) basis, scaled by sqrt(branch weight).  chain_transmission
    is what the branch's pick-off beam splitter must transmit given the
    pump power remaining at that point; upper_fraction is the share of
    the branch power routed to the upper (HH/VV) path.
    """

    psi_upper: np.ndarray
    psi_lower: np.ndarray
    chain_transmission: float
    upper_fraction: float

    def branch_state(self) -> np.ndarray:
        """Two-photon state the split produces (unit norm).

        The V pump component downconverts to |HH> and the H component to
        |VV>; the lower path carries a half-waveplate on arm B turning
        b|HH> + c|VV> into b|HV> + c|VH>.
        """
        a = self.psi_upper[1]
        d = self.psi_upper[0]
        b = self.psi_lower[1]
        c = self.psi_lower[0]
        v = np.array([a, b, c, d], dtype=complex)
        return v / np.linalg.norm(v)


@dataclass(frozen=True)
class RecipeBranch:
    """One incoherent component of a recipe.

    The seed is a source setting (two-crystal SPDC) or a direct pure
    state; stages act in order on the state it gives.  Scheme II branches
    also carry the pump split that realizes their seed.
    """

    weight: float
    timing_tag: int
    seed: Union[SpdcSourceSpec, np.ndarray]
    stages: tuple = ()
    pump_split: Optional[SchemeIIPumpSplit] = None
    note: str = ""


@dataclass(frozen=True)
class Recipe:
    scheme: str  # "I" | "II" | "III" | "IV"
    branches: tuple
    spectral_model: SpectralModel
    delta_n: float = DEFAULT_DELTA_N


def _cvec(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex).reshape(-1)]


def _cmat(m: np.ndarray) -> list:
    return [_cvec(row) for row in np.asarray(m, dtype=complex)]


def _vec_from(data) -> np.ndarray:
    return np.array([complex(re, im) for re, im in data], dtype=complex)


def _mat_from(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data], dtype=complex)


def _stage_to_dict(stage) -> dict:
    if isinstance(stage, LocalRotationStage):
        return {"kind": "local_unitary", "u_a": _cmat(stage.u_a), "u_b": _cmat(stage.u_b)}
    if isinstance(stage, DecohererStage):
        return {
            "kind": "decoherer",
            "arm": stage.arm,
            "length_um": stage.spec.length_um,
            "delta_n": stage.spec.delta_n,
            "axis": stage.spec.axis,
        }
    raise TypeError(f"cannot serialize stage {type(stage).__name__}")


def _stage_from_dict(data: dict):
    kind = data["kind"]
    if kind == "local_unitary":
        return LocalRotationStage(u_a=_mat_from(data["u_a"]), u_b=_mat_from(data["u_b"]))
    if kind == "decoherer":
        return DecohererStage(
            arm=data["arm"],
            spec=DecohererSpec(
                length_um=data["length_um"], delta_n=data["delta_n"], axis=data["axis"]
            ),
        )
    raise ValueError(f"unknown stage kind {kind!r}")


def _branch_to_dict(branch: RecipeBranch) -> dict:
    out: dict = {"weight": branch.weight, "timing_tag": branch.timing_tag}
    if isinstance(branch.seed, SpdcSourceSpec):
        out["seed"] = {"theta": branch.seed.theta, "phi": branch.seed.phi}
    else:
        out["seed"] = {"amps": _cvec(branch.seed)}
    out["stages"] = [_stage_to_dict(s) for s in branch.stages]
    if branch.pump_split is not None:
        ps = branch.pump_split
        out["pump_split"] = {
            "psi_upper": _cvec(ps.psi_upper),
            "psi_lower": _cvec(ps.psi_lower),
            "chain_transmission": ps.chain_transmission,
            "upper_fraction": ps.upper_fraction,
        }
    if branch.note:
        out["note"] = branch.note
    return out


def _branch_from_dict(data: dict) -> RecipeBranch:
    seed = data["seed"]
    if "theta" in seed:
        seed = SpdcSourceSpec(theta=seed["theta"], phi=seed["phi"])
    else:
        seed = _vec_from(seed["amps"])
    pump_split = None
    if "pump_split" in data:
        ps = data["pump_split"]
        pump_split = SchemeIIPumpSplit(
            psi_upper=_vec_from(ps["psi_upper"]),
            psi_lower=_vec_from(ps["psi_lower"]),
            chain_transmission=ps["chain_transmission"],
            upper_fraction=ps["upper_fraction"],
        )
    return RecipeBranch(
        weight=data["weight"],
        timing_tag=data["timing_tag"],
        seed=seed,
        stages=tuple(_stage_from_dict(s) for s in data["stages"]),
        pump_split=pump_split,
        note=data.get("note", ""),
    )


def same_branch(b1: RecipeBranch, b2: RecipeBranch) -> bool:
    """True when the two branches have the same recipe-v1 form."""
    return _branch_to_dict(b1) == _branch_to_dict(b2)


def recipe_to_json(recipe: Recipe) -> str:
    doc = {
        "version": FORMAT_VERSION,
        "scheme": recipe.scheme,
        "spectral_model": {
            "delta_eps": recipe.spectral_model.delta_eps,
            "omega": recipe.spectral_model.omega,
            "delta_n": recipe.delta_n,
        },
        "branches": [_branch_to_dict(b) for b in recipe.branches],
    }
    return json.dumps(doc, indent=2) + "\n"


def recipe_from_json(text: str) -> Recipe:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise TypeError(f"a recipe is a JSON object, got {type(doc).__name__}")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported recipe version {doc.get('version')!r}")
    if doc.get("scheme") not in SCHEMES:
        raise ValueError(f"unknown recipe scheme {doc.get('scheme')!r}; use I, II, III or IV")
    branches = doc["branches"]
    if not isinstance(branches, list):
        raise TypeError(f"recipe branches must be a list, got {type(branches).__name__}")
    sm_doc = doc["spectral_model"]
    sm = SpectralModel(delta_eps=sm_doc["delta_eps"], omega=sm_doc["omega"])
    return Recipe(
        scheme=doc["scheme"],
        branches=tuple(_branch_from_dict(b) for b in branches),
        spectral_model=sm,
        delta_n=sm_doc["delta_n"],
    )


def save_recipe(path, recipe: Recipe) -> None:
    Path(path).write_text(recipe_to_json(recipe), encoding="utf-8")


def load_recipe(path) -> Recipe:
    return recipe_from_json(Path(path).read_text(encoding="utf-8"))
