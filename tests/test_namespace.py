"""The lazy package namespace, the layers each CLI command loads, and the
layer functions the benchmark measures by name.

What a command loads is checked in a fresh interpreter per command: this
test process has long since imported every layer.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qforge
from qforge.compilers import FamilyParams, compile_scheme1, compile_scheme2, compile_scheme3
from qforge.compilers import compile_scheme4_bell_diagonal
from qforge.families import werner
from qforge.matrix_io import format_matrix
from qforge.recipe_io import recipe_to_json

# the names `from qforge import *` gives
EXPORTS = {
    "FamilyParams", "ResourceCount", "compile_scheme1", "compile_scheme2", "compile_scheme3",
    "compile_scheme4_bell_diagonal", "compile_target", "recipe_cost", "simulate_recipe",
    "DecohererStage", "LocalRotationStage", "SpdcSourceSpec", "SpectralModel", "WaveplateSpec", "analytic_f", "default_spectral_model", "invert_f",
    "spdc_pair_state", "su2_to_waveplates", "waveplate_unitary", "bell_diagonal",
    "collins_gisin", "family_d1", "mems", "mems_boundary_tangle", "werner",
    "CanonicalDecomposition", "canonical_decompose", "concurrence", "fidelity",
    "linear_entropy", "purity", "tangle", "validate_density", "Recipe",
    "RecipeBranch", "pump_splits", "FrequencyGrid", "make_grid", "simulate_chain",
    "PureRecipe", "solve_pure",
}
LAYERS = ("cli", "compilers", "elements", "errors", "families", "matrix_io", "qmath",
          "recipe_io", "spectral", "synth_pure")
COMPILER_STACK = {"qforge.compilers", "qforge.synth_pure", "qforge.spectral", "qforge.recipe_io"}
# the records' home, which the group's SpectralModel loads with elements
RECORDS = {"qforge.recipe_io"}

# runs `qforge ARGS` and prints, on its last stdout line, the qforge modules
# loaded and whether numpy is
CLI_CHILD = """
import sys
from qforge.cli import main
sys.argv[0] = "qforge"
try:
    main()
finally:
    import json
    print(json.dumps([sorted(m for m in sys.modules if m.startswith("qforge")),
                      "numpy" in sys.modules]))
"""


def _child(code: str, *args: str, cwd=None):
    src = str(Path(qforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


def test_namespace_holds_the_exports():
    assert set(qforge.__all__) == EXPORTS
    assert len(qforge.__all__) == len(EXPORTS)
    listed = dir(qforge)
    assert EXPORTS.issubset(listed)
    assert set(LAYERS).issubset(listed)
    star: dict = {}
    exec("from qforge import *", star)
    assert EXPORTS.issubset(star)


def test_namespace_names_are_the_layer_objects():
    for name in qforge.__all__:
        obj = getattr(qforge, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    for layer in LAYERS:
        assert getattr(qforge, layer) is importlib.import_module(f"qforge.{layer}")


def test_resource_tally_lives_in_recipe_io():
    from qforge import recipe_io

    assert qforge.recipe_cost is recipe_io.recipe_cost
    assert qforge.ResourceCount is recipe_io.ResourceCount
    assert recipe_io.recipe_cost.__module__ == "qforge.recipe_io"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qforge.no_such_name
    assert not hasattr(qforge, "no_such_name")
    with pytest.raises(ImportError):
        exec("from qforge import no_such_name", {})


def test_bare_import_loads_no_layer():
    code = (
        "import json, sys\n"
        "import qforge\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('qforge'))\n"
        "print(json.dumps(loaded()))\n"
        "assert qforge.qmath.__name__ == 'qforge.qmath'\n"
        "assert qforge.fidelity is qforge.qmath.fidelity\n"
        "print(json.dumps(loaded()))\n"
    )
    bare, after = (json.loads(line) for line in _child(code))
    assert bare == ["qforge"]
    assert "qforge.qmath" in after
    assert not COMPILER_STACK.intersection(after)


def test_family_target_loads_no_compiler_layer():
    code = (
        "import json, sys\n"
        "import qforge\n"
        "t = qforge.FamilyParams('Collins-Gisin', ['0.5', 1])\n"
        "assert (t.kind, t.params) == ('collins_gisin', (0.5, 1.0))\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('qforge'))))\n"
    )
    loaded = set(json.loads(_child(code)[-1]))
    assert "qforge.families" in loaded
    assert not COMPILER_STACK & loaded, sorted(COMPILER_STACK & loaded)
    # the benchmark reaches it as compilers.FamilyParams
    assert qforge.compilers.FamilyParams is qforge.FamilyParams


ELEMENTS, FAMILIES = {"qforge.elements"}, {"qforge.families"}


@pytest.mark.parametrize(
    "args, unloaded",
    [
        (["families", "werner", "0.5"], COMPILER_STACK | ELEMENTS),
        (["metrics", "w.txt"], COMPILER_STACK | ELEMENTS | FAMILIES),
        (["verify", "w.txt", "w.txt"], COMPILER_STACK | ELEMENTS | FAMILIES),
        (["plane", "mems", "3"], COMPILER_STACK | ELEMENTS),
        (["cost", "r.json"], COMPILER_STACK - RECORDS | ELEMENTS | FAMILIES),
        # a constant set on the command line builds the model, from elements
        (["--l-si", "50", "metrics", "w.txt"], COMPILER_STACK - RECORDS | FAMILIES),
        (["--help"], COMPILER_STACK | ELEMENTS | FAMILIES),
    ],
)
def test_cli_command_loads_only_its_layers(tmp_path, args, unloaded):
    (tmp_path / "w.txt").write_text(format_matrix(werner(0.5)), encoding="utf-8")
    recipe = compile_scheme3(FamilyParams("mems", (0.4,)))
    (tmp_path / "r.json").write_text(recipe_to_json(recipe), encoding="utf-8")
    modules, numpy = json.loads(_child(CLI_CHILD, *args, cwd=tmp_path)[-1])
    loaded = set(modules)
    assert "qforge.cli" in loaded
    assert not unloaded & loaded, sorted(unloaded & loaded)
    assert ("qforge.recipe_io" in loaded) == (args[0] in ("cost", "--l-si"))
    assert ("qforge.elements" in loaded) == (args[0] == "--l-si")
    assert numpy == (args[0] not in ("cost", "--help"))
    if args[0] in ("metrics", "verify"):
        assert loaded == {"qforge", "qforge.cli", "qforge.errors", "qforge.qmath",
                          "qforge.matrix_io"}


# the layers `compile` loads for a family spec; compile_target adds matrix_io for a file
COMPILE_LAYERS = {"qforge", "qforge.cli", "qforge.errors", "qforge.families", "qforge.qmath",
                  "qforge.elements", *COMPILER_STACK}


@pytest.mark.parametrize("args, layers", [
    (["compile", "III", "mems:0.4", "--out", "r.json"], COMPILE_LAYERS),
    (["compile", "I", "werner:0.5", "--out", "r.json"], COMPILE_LAYERS),
    (["compile", "I", "w.txt", "--out", "r.json"], COMPILE_LAYERS | {"qforge.matrix_io"}),
])
def test_compile_loads_matrix_io_only_for_a_file_target(tmp_path, args, layers):
    (tmp_path / "w.txt").write_text(format_matrix(werner(0.5)), encoding="utf-8")
    modules, numpy = json.loads(_child(CLI_CHILD, *args, cwd=tmp_path)[-1])
    assert (set(modules), numpy) == (layers, True)


COMPILE = {
    "I": lambda: compile_scheme1(werner(0.5)),
    "II": lambda: compile_scheme2(werner(0.5)),
    "III": lambda: compile_scheme3(FamilyParams("mems", (0.4,))),
    "IV": lambda: compile_scheme4_bell_diagonal(0.4, 0.3, 0.2, 0.1),
}


@pytest.mark.parametrize("scheme", COMPILE)
def test_cost_loads_numpy_only_for_a_scheme_ii_split(tmp_path, scheme):
    (tmp_path / "r.json").write_text(recipe_to_json(COMPILE[scheme]()), encoding="utf-8")
    lines = _child(CLI_CHILD, "cost", "r.json", cwd=tmp_path)
    assert lines[1].startswith(f"{scheme} ")  # the cost table's row
    modules, numpy = json.loads(lines[-1])
    light = ["qforge", "qforge.cli", "qforge.errors", "qforge.recipe_io"]
    if scheme == "II":  # pump_splits derives the split it checks with numpy and qmath._norm
        assert (modules, numpy) == (sorted([*light, "qforge.qmath"]), True)
    else:
        assert (modules, numpy) == (light, False)


def test_records_load_no_numpy():
    code = (
        "import json, sys\n"
        "import qforge\n"
        "assert qforge.DecohererStage('A', 1.0).arm == 'A'\n"
        "assert qforge.SpectralModel(1.0, 2.0).delta_n == 0.009\n"
        "qforge.LocalRotationStage, qforge.SpdcSourceSpec\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('qforge')),\n"
        "                  'numpy' in sys.modules]))\n"
    )
    modules, numpy = json.loads(_child(code)[-1])
    assert (modules, numpy) == (["qforge", "qforge.errors", "qforge.recipe_io"], False)


def test_loading_the_compiler_stack_compiles_no_generated_source():
    # a frozen dataclass compiles six generated methods from "<string>" source
    # at import (84 for the 14 records); a Record subclass generates none
    code = (
        "import sys\n"
        "import click, numpy\n"
        "seen = []\n"
        "sys.addaudithook(lambda event, args: event == 'compile' and seen.append(args[1]))\n"
        "import qforge.cli, qforge.compilers, qforge.matrix_io\n"
        "print(sum(name == '<string>' for name in seen))\n"
    )
    assert _child(code)[-1] == "0"


def test_benchmark_measures_public_layer_functions():
    """perfbench/run.py times and counts qforge functions by their
    "<layer>.<function>" names, and its traced run stops with "not measured"
    for a name the tracer cannot wrap: each must name a public function that
    its layer defines.  The tuples are read from the source, not imported."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text())
    tables = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and getattr(node.targets[0], "id", None) in ("TIMED", "COUNTED")}
    assert set(tables) == {"TIMED", "COUNTED"}
    for name in tables["TIMED"] + tables["COUNTED"]:
        layer, func = name.split(".")
        fn = getattr(importlib.import_module(f"qforge.{layer}"), func, None)
        assert not func.startswith("_") and inspect.isfunction(fn), name
        assert fn.__module__ == f"qforge.{layer}", name
