"""Property tests: mutated matrix and recipe files keep the CLI's error contract.

`verify`, `metrics` and `compile I` each read a matrix file.  Whatever the
file holds, a command either succeeds with finite printed numbers and
nothing on stderr, or prints one `error: <kind>: <reason>` line to stderr
and exits with a documented code (1 only for a failed verification).
`cost` and `simulate` each read a recipe file, and accept or reject the
same files alike; a recipe whose numbers sit at the edge of the parse
tolerances that `cost` accepts, `simulate` turns into a unit-trace matrix.
"""

import copy
import json
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qforge.cli import cli
from qforge.compilers import FamilyParams, compile_scheme1, compile_scheme2, compile_scheme3
from qforge.compilers import compile_scheme4_bell_diagonal
from qforge.families import werner
from qforge.matrix_io import format_matrix, load_matrix
from qforge.qmath import TRACE_TOL
from qforge.recipe_io import SEED_NORM_TOL, SPLIT_TOL, UNITARY_TOL, WEIGHT_SUM_TOL
from qforge.recipe_io import recipe_to_json

from kit import projector, random_density_matrix

BASES = (werner(0.5), projector(np.array([1.0, 0.0, 0.0, 0.0])), random_density_matrix(7))
HUGE = "1" + "0" * 400  # an integer beyond double range
TOKENS = ("nan", "-NaN", "inf", "-inf", "Infinity", HUGE, "-" + HUGE, "x", "1e", "0x10", "1,5")
EXIT_CODES = {"metrics": {0, 2}, "verify": {0, 1, 2}, "compile": {0, 2}}
ERROR_LINE = re.compile(r"error: [a-z]+(-[a-z]+)*: \S")
NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


@st.composite
def perturbed(draw):
    """A valid matrix, or one made non-Hermitian or negative by a step of
    1e-13 to 10 (a diagonal step keeps the trace, an off-diagonal one
    breaks the symmetry)."""
    rho = BASES[draw(st.integers(0, len(BASES) - 1))].copy()
    kind = draw(st.sampled_from(("none", "skew", "negative")))
    i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    step = draw(st.floats(1e-13, 10.0))
    if kind == "skew":
        rho[i, j] += step * draw(st.sampled_from((1.0, 1j)))
    elif kind == "negative":
        rho[i, i] -= step
        rho[j, j] += step
    return rho


@st.composite
def matrix_files(draw):
    """The text of a perturbed matrix, with up to two line edits: a token
    replaced, a line dropped, or a line added."""
    lines = format_matrix(draw(perturbed())).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("token", "drop", "add")))
        if edit == "token":
            parts = lines[k].split()
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(TOKENS))
            lines[k] = " ".join(parts)
        elif edit == "drop":
            del lines[k]
        else:
            lines.insert(k, draw(st.sampled_from(("0 0", "0", "0 0 0", lines[k]))))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "good.txt").write_text(format_matrix(werner(0.5)), encoding="utf-8")
    return d


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(text=matrix_files())
def test_mutated_matrix_files_keep_the_error_contract(workdir, text):
    mutated, good, recipe = workdir / "m.txt", workdir / "good.txt", workdir / "r.json"
    mutated.write_text(text, encoding="utf-8")
    recipe.unlink(missing_ok=True)
    runner = CliRunner()
    for args in (["metrics", mutated], ["verify", good, mutated], ["verify", mutated, good],
                 ["compile", "I", mutated, "--out", recipe]):
        res = runner.invoke(cli, [str(a) for a in args])
        case = f"{args[0]} exit {res.exit_code}, stdout {res.stdout!r}, stderr {res.stderr!r}"
        assert res.exit_code in EXIT_CODES[args[0]], case
        assert not NON_FINITE.search(res.stdout), case
        if res.exit_code == 0:
            assert res.stderr == "", case
            continue
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and ERROR_LINE.match(lines[0]), case
        if res.exit_code == 2:
            assert res.stdout == "", case
    if recipe.exists():
        assert not NON_FINITE.search(recipe.read_text()), text


# compiled recipes of every scheme: scheme II carries pump splits, III and IV decoherers
RECIPES = tuple(recipe_to_json(r) for r in (
    compile_scheme1(werner(0.5)),
    compile_scheme2(werner(0.5)),
    compile_scheme3(FamilyParams("mems", (0.4,))),
    compile_scheme4_bell_diagonal(0.4, 0.3, 0.2, 0.1),
))
JUNK = (None, True, False, "x", "II", 0, -1, 0.5, 1e300, float("nan"), float("-inf"),
        10**400, [], {}, [[0.5, 0.0]])


def _slots(node):
    """(container, key) of every value in a JSON document, nested ones included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def recipe_docs(draw):
    """A compiled recipe with one to three edits: a key dropped, a value
    replaced by junk, or a branch duplicated, moved or deleted."""
    doc = json.loads(draw(st.sampled_from(RECIPES)))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("drop", "junk", "duplicate", "move", "delete")))
        branches = doc.get("branches")
        if edit in ("duplicate", "move", "delete") and isinstance(branches, list) and branches:
            k = draw(st.integers(0, len(branches) - 1))
            if edit == "duplicate":
                branches.insert(k, copy.deepcopy(branches[k]))
            elif edit == "move":
                branches.insert(draw(st.integers(0, len(branches) - 1)), branches.pop(k))
            else:
                del branches[k]
        elif edit == "drop":
            dicts = [doc] + [c[k] for c, k in _slots(doc) if isinstance(c[k], dict) and c[k]]
            node = draw(st.sampled_from(dicts))
            del node[draw(st.sampled_from(sorted(node)))]
        else:
            node, key = draw(st.sampled_from(list(_slots(doc))))
            node[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
    return doc


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(doc=recipe_docs())
def test_mutated_recipe_files_keep_the_error_contract(workdir, doc):
    recipe, out = workdir / "bad.json", workdir / "x.txt"
    recipe.write_text(json.dumps(doc), encoding="utf-8")
    out.unlink(missing_ok=True)
    runner = CliRunner()
    cost = runner.invoke(cli, ["cost", str(recipe)])
    sim = runner.invoke(cli, ["simulate", str(recipe), "--out", str(out)])
    case = f"cost {cost.exit_code} {cost.stderr!r}, simulate {sim.exit_code} {sim.stderr!r}"
    assert (cost.exit_code, cost.stderr) == (sim.exit_code, sim.stderr), case
    if sim.exit_code == 0:
        assert sim.stderr == "" and np.isfinite(load_matrix(out)).all(), case
    else:
        lines = sim.stderr.splitlines()
        assert sim.exit_code in (2, 4) and len(lines) == 1 and ERROR_LINE.match(lines[0]), case
        assert not out.exists() and cost.stdout == "", case


PARSE_TOLS = (WEIGHT_SUM_TOL, SEED_NORM_TOL, UNITARY_TOL, SPLIT_TOL)


def _numbers(node):
    """(container, key) of every number in a JSON document, nested ones included."""
    return [(c, k) for c, k in _slots(node) if type(c[k]) in (int, float)]


@st.composite
def scaled_recipe_docs(draw):
    """A compiled recipe with one to four of its numbers, or every number of
    one of its parts (a seed, a unitary, a pump split, a branch), scaled by
    1 + s k tol, with s = +-1, k in [0.5, 1.5] and tol a parse tolerance: each
    lands just inside or just outside a check that reads it."""
    doc = json.loads(draw(st.sampled_from(RECIPES)))
    tol = draw(st.sampled_from(PARSE_TOLS))

    def factor():
        return 1.0 + draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 1.5)) * tol

    if draw(st.booleans()):
        numbers = _numbers(doc)
        picked = draw(st.lists(st.sampled_from(range(len(numbers))), min_size=1, max_size=4,
                               unique=True))
        for node, key in (numbers[i] for i in picked):
            node[key] *= factor()
    else:
        parts = [c[k] for c, k in _slots(doc) if isinstance(c[k], (dict, list))]
        scale = factor()
        for node, key in _numbers(draw(st.sampled_from(parts))):
            node[key] *= scale
    return doc


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(doc=scaled_recipe_docs())
def test_recipes_cost_accepts_simulate_to_unit_trace(workdir, doc):
    recipe, out = workdir / "scaled.json", workdir / "y.txt"
    recipe.write_text(json.dumps(doc), encoding="utf-8")
    out.unlink(missing_ok=True)
    runner = CliRunner()
    cost = runner.invoke(cli, ["cost", str(recipe)])
    if cost.exit_code != 0:
        return
    sim = runner.invoke(cli, ["simulate", str(recipe), "--out", str(out)])
    assert (sim.exit_code, sim.stderr) == (0, ""), sim.stderr
    rho = load_matrix(out)
    assert np.isfinite(rho).all()
    assert abs(np.trace(rho) - 1.0) <= TRACE_TOL
