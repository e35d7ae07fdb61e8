"""Property test: mutated matrix files keep the CLI's error contract.

`verify`, `metrics` and `compile I` each read a matrix file.  Whatever the
file holds, a command either succeeds with finite printed numbers and
nothing on stderr, or prints one `error: <kind>: <reason>` line to stderr
and exits with a documented code (1 only for a failed verification).
"""

import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qforge.cli import cli
from qforge.families import werner
from qforge.matrix_io import format_matrix
from qforge.qmath import projector, random_density_matrix

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
