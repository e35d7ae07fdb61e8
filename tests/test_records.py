"""Every record behaves as a frozen dataclass of the same fields.

Each row builds a record from picklable, hashable field values (the
records check their inputs but not their types), and the reference is a
frozen dataclass made with the same name and fields: repr text, ==, hash,
dataclasses.replace and fields, FrozenInstanceError on set and delete,
deepcopy and a pickle round trip must agree with it.
"""

import copy
import dataclasses
import gc
import inspect
import math
import pickle

import pytest

from qforge import elements, errors, families, qmath, recipe_io, spectral, synth_pure
from qforge.compilers import compile_target
from qforge.elements import hwp, qwp
from qforge.recipe_io import DecohererStage, RecipeBranch, SpdcSourceSpec, SpectralModel

SOURCE = SpdcSourceSpec(0.5, 1.0)
SWAP = ((0.0, 1.0), (1.0, 0.0))
EYE = ((1.0, 0.0), (0.0, 1.0))

M = dataclasses.MISSING
WAVEPLATES = "tuple[WaveplateSpec, WaveplateSpec, WaveplateSpec]"

# record -> (its fields, in order, with values it stores unchanged; a replacement for one field;
# its dataclass fields' (name, type, default), the types as the module's annotations spell them)
RECORDS = {
    recipe_io.SpectralModel: ({"delta_eps": 2.0, "omega": 3.0, "delta_n": 0.01},
                              {"delta_n": -0.02},
                              (("delta_eps", "float", M), ("omega", "float", M),
                               ("delta_n", "float", 0.009))),
    recipe_io.SpdcSourceSpec: ({"theta": 0.5, "phi": 1.0}, {"theta": 0.25},
                               (("theta", "float", M), ("phi", "float", 0.0))),
    recipe_io.LocalRotationStage: ({"u_a": EYE, "u_b": SWAP}, {"u_a": SWAP},
                                   (("u_a", "Sequence", M), ("u_b", "Sequence", M))),
    recipe_io.DecohererStage: ({"arm": "B", "length_um": 5.0, "axis": "H"}, {"arm": "A"},
                               (("arm", "str", M), ("length_um", "float", M),
                                ("axis", "str", "V"))),
    recipe_io.RecipeBranch: ({"weight": 1.0, "timing_tag": 1, "seed": SOURCE,
                              "stages": (DecohererStage("A", 1.0),), "note": "n"},
                             {"note": ""},
                             (("weight", "float", M), ("timing_tag", "int", M),
                              ("seed", "Union[SpdcSourceSpec, Sequence[complex]]", M),
                              ("stages", "tuple", ()), ("note", "str", ""))),
    recipe_io.Recipe: ({"scheme": "III", "branches": (RecipeBranch(1.0, 1, SOURCE),),
                        "spectral_model": SpectralModel(1.0, 2.0)}, {"scheme": "I"},
                       (("scheme", "str", M), ("branches", "tuple", M),
                        ("spectral_model", "SpectralModel", M))),
    recipe_io.ResourceCount: ({"nlc": 2, "other_optics": 3, "controllable_params": 10},
                              {"nlc": 4},
                              (("nlc", "int", M), ("other_optics", "int", M),
                               ("controllable_params", "int", M))),
    qmath.CanonicalDecomposition: ({"eigenvalues": (1.0, 0.0), "eigenstates": EYE},
                                   {"eigenvalues": (0.5, 0.5)},
                                   (("eigenvalues", "np.ndarray", M),
                                    ("eigenstates", "np.ndarray", M))),
    families.Family: ({"param_names": ("R",), "matrix": families.werner,
                       "seed": families._werner_seed}, {"seed": None},
                      (("param_names", "tuple[str, ...]", M),
                       ("matrix", "Callable[..., np.ndarray]", M),
                       ("seed", "Optional[Callable[..., tuple[np.ndarray, float]]]", None))),
    families.FamilyParams: ({"kind": "werner", "params": (0.5,)}, {"params": (0.25,)},
                            (("kind", "str", M), ("params", "tuple", M))),
    spectral.FrequencyGrid: ({"points": (-1.0, 0.0, 1.0), "weights": (0.5, 1.0, 0.5)},
                             {"weights": (1.0, 1.0, 1.0)},
                             (("points", "np.ndarray", M), ("weights", "np.ndarray", M))),
    elements.WaveplateSpec: ({"retardance": math.pi, "axis_angle": 0.25}, {"axis_angle": 0.0},
                             (("retardance", "float", M), ("axis_angle", "float", M))),
    synth_pure.PureRecipe: ({"source": SOURCE, "u_a": EYE, "u_b": SWAP, "wp_a": (hwp(0.1),),
                             "wp_b": (qwp(0.2),)}, {"wp_b": ()},
                            (("source", "SpdcSourceSpec", M), ("u_a", "np.ndarray", M),
                             ("u_b", "np.ndarray", M), ("wp_a", WAVEPLATES, M),
                             ("wp_b", WAVEPLATES, M))),
}


def test_the_table_holds_every_record():
    assert set(errors.Record.__subclasses__()) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_as_a_frozen_dataclass(cls):
    values, change, _ = RECORDS[cls]
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
    values, _, fields = RECORDS[cls]
    assert [(f.name, f.type, f.default) for f in dataclasses.fields(cls)] == list(fields)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING}
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == list(values)
    assert [p.annotation for p in parameters.values()] == [type_ for _, type_, _ in fields]
    assert {name: p.default for name, p in parameters.items()
            if p.default is not inspect.Parameter.empty} == defaults
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters.values())
    assert cls(*values.values()) == cls(**values)
    required = {name: v for name, v in values.items() if name not in defaults}
    assert cls(**required) == cls(**required, **defaults)


def test_an_unannotated_parameter_fails_when_the_class_is_made():
    with pytest.raises(KeyError, match="^'b'$"):
        class Unannotated(errors.Record):
            def __init__(self, a: int, b=0):
                self.__dict__.update(a=a, b=b)
    gc.collect()  # the class that failed is dropped from Record's subclasses
    assert set(errors.Record.__subclasses__()) == set(RECORDS)


@pytest.mark.parametrize("scheme, target", [
    ("I", families.FamilyParams("werner", (0.5,))),
    ("II", families.FamilyParams("collins_gisin", (1.0, 0.6))),
    ("III", families.FamilyParams("mems", (0.4,))),
    ("IV", families.FamilyParams("bell_diagonal", (0.4, 0.3, 0.2, 0.1))),
])
def test_a_parsed_recipe_compares_and_hashes_by_value(scheme, target):
    # a compiled recipe holds ndarrays, whose == has no truth value; a parsed one holds tuples
    text = recipe_io.recipe_to_json(compile_target(scheme, target))
    first, second = recipe_io.recipe_from_json(text), recipe_io.recipe_from_json(text)
    assert first is not second and first.branches[0] is not second.branches[0]
    assert first == second and hash(first) == hash(second)
