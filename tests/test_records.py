"""Every record behaves as a frozen dataclass of the same fields.

Each row builds a record from picklable, hashable field values (the
records check their inputs but not their types), and the reference is a
frozen dataclass made with the same name and fields: repr text, ==, hash,
dataclasses.replace and fields, FrozenInstanceError on set and delete,
deepcopy and a pickle round trip must agree with it.
"""

import copy
import dataclasses
import inspect
import math
import pickle

import pytest

from qforge import elements, errors, families, qmath, recipe_io, spectral, synth_pure
from qforge.elements import hwp, qwp
from qforge.recipe_io import DecohererStage, RecipeBranch, SpdcSourceSpec, SpectralModel

SOURCE = SpdcSourceSpec(0.5, 1.0)
SWAP = ((0.0, 1.0), (1.0, 0.0))
EYE = ((1.0, 0.0), (0.0, 1.0))

# record -> (its fields, in order, with values it stores unchanged; a replacement for one field)
RECORDS = {
    recipe_io.SpectralModel: ({"delta_eps": 2.0, "omega": 3.0, "delta_n": 0.01},
                              {"delta_n": -0.02}),
    recipe_io.SpdcSourceSpec: ({"theta": 0.5, "phi": 1.0}, {"theta": 0.25}),
    recipe_io.LocalRotationStage: ({"u_a": EYE, "u_b": SWAP}, {"u_a": SWAP}),
    recipe_io.DecohererStage: ({"arm": "B", "length_um": 5.0, "axis": "H"}, {"arm": "A"}),
    recipe_io.RecipeBranch: ({"weight": 1.0, "timing_tag": 1, "seed": SOURCE,
                              "stages": (DecohererStage("A", 1.0),), "note": "n"},
                             {"note": ""}),
    recipe_io.Recipe: ({"scheme": "III", "branches": (RecipeBranch(1.0, 1, SOURCE),),
                        "spectral_model": SpectralModel(1.0, 2.0)}, {"scheme": "I"}),
    recipe_io.ResourceCount: ({"nlc": 2, "other_optics": 3, "controllable_params": 10},
                              {"nlc": 4}),
    qmath.CanonicalDecomposition: ({"eigenvalues": (1.0, 0.0), "eigenstates": EYE},
                                   {"eigenvalues": (0.5, 0.5)}),
    families.Family: ({"param_names": ("R",), "matrix": families.werner,
                       "seed": families._werner_seed}, {"seed": None}),
    families.FamilyParams: ({"kind": "werner", "params": (0.5,)}, {"params": (0.25,)}),
    spectral.FrequencyGrid: ({"points": (-1.0, 0.0, 1.0), "weights": (0.5, 1.0, 0.5)},
                             {"weights": (1.0, 1.0, 1.0)}),
    elements.WaveplateSpec: ({"retardance": math.pi, "axis_angle": 0.25}, {"axis_angle": 0.0}),
    synth_pure.PureRecipe: ({"source": SOURCE, "u_a": EYE, "u_b": SWAP, "wp_a": (hwp(0.1),),
                             "wp_b": (qwp(0.2),)}, {"wp_b": ()}),
}


def test_the_table_holds_every_record():
    assert set(errors.Record.__subclasses__()) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_as_a_frozen_dataclass(cls):
    values, change = RECORDS[cls]
    record = cls(**values)
    reference = dataclasses.make_dataclass(cls.__qualname__, list(values), frozen=True)
    expected = reference(**values)

    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(record)
    assert [f.name for f in dataclasses.fields(cls)] == list(values)
    assert {name: getattr(record, name) for name in values} == values
    assert repr(record) == repr(expected)
    assert hash(record) == hash(expected)
    assert record == cls(**values) and not record != cls(**values)
    assert record != expected and record != tuple(values.values())

    edited = dataclasses.replace(record, **change)
    assert type(edited) is cls and edited != record
    assert dataclasses.asdict(edited) == dataclasses.asdict(expected) | change
    assert dataclasses.replace(edited, **{k: values[k] for k in change}) == record

    frozen = dataclasses.FrozenInstanceError
    for name in (*values, "extra"):
        with pytest.raises(frozen, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(frozen, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert record == cls(**values)

    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and hash(twin) == hash(record)
        assert twin.__dict__ == record.__dict__


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_takes_its_fields_by_position_with_their_defaults(cls):
    values, _ = RECORDS[cls]
    defaults = {f.name: f.default for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING}
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == list(values)
    assert {name: p.default for name, p in parameters.items()
            if p.default is not inspect.Parameter.empty} == defaults
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters.values())
    assert cls(*values.values()) == cls(**values)
    required = {name: v for name, v in values.items() if name not in defaults}
    assert cls(**required) == cls(**required, **defaults)
