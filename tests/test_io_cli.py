import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qforge
from qforge.cli import cli
from qforge.compilers import (
    FamilyParams,
    compile_scheme1,
    compile_scheme2,
    compile_scheme3,
    compile_scheme4_bell_diagonal,
    compile_target,
    simulate_recipe,
)
from qforge.elements import default_spectral_model, full_dephasing_floor_um, spdc_pair_state
from qforge.errors import NotFinite, UnsupportedTarget
from qforge.families import FAMILIES, werner
from qforge.matrix_io import format_matrix, load_matrix, parse_matrix
from qforge.qmath import fidelity, linear_entropy, tangle, validate_density
from qforge.recipe_io import DecohererStage, LocalRotationStage, Recipe, RecipeBranch
from qforge.recipe_io import SpdcSourceSpec, SpectralModel, load_recipe, recipe_from_json
from qforge.recipe_io import recipe_to_json

from kit import random_density_matrix, random_pure_state, random_su2
from test_cli_help import HELP


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(cli, list(args), env=env, catch_exceptions=False)


# ------------------------------------------------------------- matrix io


def test_matrix_round_trip_exact():
    rng = np.random.default_rng(3)
    m = random_density_matrix(rng)
    text = format_matrix(m, comments=("a comment",))
    back = parse_matrix(text)
    assert np.array_equal(back, m)


def test_matrix_file_round_trip(tmp_path):
    m = werner(0.37)
    path = tmp_path / "w.txt"
    path.write_text(format_matrix(m), encoding="utf-8")
    assert np.array_equal(load_matrix(path), m)


def test_matrix_parse_errors():
    with pytest.raises(ValueError):
        parse_matrix("1 0\n2\n")
    with pytest.raises(ValueError):
        parse_matrix("\n".join(["0 0"] * 15))
    with pytest.raises(ValueError):
        parse_matrix("nope nope\n" * 16)


def test_matrix_comments_ignored():
    m = werner(0.2)
    text = "# leading comment\n\n" + format_matrix(m)
    assert np.array_equal(parse_matrix(text), m)


# ------------------------------------------------------------- recipe io


def _three_decoherer_chain(sm):
    """A seed, then three (rotation, decoherer) pairs on both arms and a last
    rotation: a chain only the delay sum takes."""
    rng = np.random.default_rng(2020)
    floor = full_dephasing_floor_um(sm)
    stages = []
    for arm, length in (("A", floor + 300.0), ("B", floor), ("A", 2.0 * floor)):
        stages += [LocalRotationStage(u_a=random_su2(rng), u_b=random_su2(rng)),
                   DecohererStage(arm, length)]
    stages.append(LocalRotationStage(u_a=random_su2(rng), u_b=random_su2(rng)))
    branch = RecipeBranch(1.0, 1, random_pure_state(rng), tuple(stages))
    return Recipe(scheme="III", branches=(branch,), spectral_model=sm)


def _more_round_trip_recipes(sm):
    """Schemes I-IV, the swapped Bell-diagonal split and a recipe-v1 chain of
    three decoherers: parsed, each holds tuples where the compiled one holds
    arrays."""
    return (
        compile_scheme1(random_density_matrix(5), sm),
        compile_scheme2(random_density_matrix(5), sm),
        compile_scheme3(FamilyParams("d1", (0.6, 0.0, 0.0, 0.8, -0.3)), sm),
        compile_scheme4_bell_diagonal(0.4, 0.3, 0.2, 0.1, sm=sm),
        compile_scheme4_bell_diagonal(0.05, 0.05, 0.85, 0.05, sm=sm),
        _three_decoherer_chain(sm),
    )


def test_recipe_json_round_trip_byte_identical():
    sm = default_spectral_model()
    for recipe in (
        compile_scheme1(werner(0.5), sm),
        compile_scheme3(FamilyParams("mems", (0.4,)), sm),
        *_more_round_trip_recipes(sm),
    ):
        text = recipe_to_json(recipe)
        again = recipe_to_json(recipe_from_json(text))
        assert text == again


def test_recipe_string_note_round_trips_byte_identical():
    doc = json.loads(recipe_to_json(compile_scheme1(werner(0.5))))
    doc["branches"][0]["note"] = "hand-edited: \u00b5m \"quoted\""
    text = json.dumps(doc, indent=2) + "\n"
    recipe = recipe_from_json(text)
    assert recipe.branches[0].note == "hand-edited: \u00b5m \"quoted\""
    assert recipe_to_json(recipe) == text


def test_recipe_file_round_trip_simulates_identically(tmp_path):
    from qforge.compilers import simulate_recipe

    sm = default_spectral_model()
    recipe = compile_scheme3(FamilyParams("werner", (0.5,)), sm)
    for recipe in (recipe, *_more_round_trip_recipes(sm)):
        path = tmp_path / "r.json"
        path.write_text(recipe_to_json(recipe), encoding="utf-8")
        loaded = load_recipe(path)
        a = simulate_recipe(recipe)
        b = simulate_recipe(loaded)
        assert np.array_equal(a, b), recipe.scheme


def test_recipe_to_json_rejects_a_non_stage():
    recipe = compile_scheme3(FamilyParams("werner", (0.5,)))
    (branch,) = recipe.branches
    odd = dataclasses.replace(branch, stages=(*branch.stages, "waveplate"))
    with pytest.raises(TypeError, match="cannot serialize stage str"):
        recipe_to_json(dataclasses.replace(recipe, branches=(odd,)))


def test_recipe_rejects_unknown_version():
    with pytest.raises(ValueError):
        recipe_from_json(json.dumps({"version": 99}))


# SHA-256 of the default-model recipe JSON of each family at fixed parameters,
# compiled under the scheme of its row.  Family recipes come from closed forms;
# schemes I/II are pinned below.
FAMILY_RECIPE_SHA256 = [
    ("III", "mems", (0.4,), "e40cfe1f8f88fd9671d78d8a43fce588bdc1e83650c8e44c1e9f919bc9531e8c"),
    ("III", "mems", (0.8,), "bd9e97a9220c83c481b3c2bb03a91b81a530eef513d3a71c3954f8361eb59a7c"),
    ("III", "werner", (0.5,),
     "53a242864605c5ff9d0994cfc2dabba9ffaadb568d2b268544417a2f1c6ae6b8"),
    ("III", "collins_gisin", (0.5, 0.5236),
     "51449126cfbc76ddf4d1c9699f205f3baed4a83ea332962e335658ae5d9eb605"),
    ("III", "d1", (0.5, 0.5, 0.5, 0.5, 0.8),
     "be8ea0313f78825824c64a834ccc3a15d863dc60e5e99331d0718028c0be7154"),
    ("III", "d1", (0.6, 0.0, 0.0, 0.8, -0.3),
     "57ea9f650a755684a3e1e7a03d04ded901fb9e53dba8874a9021665b31f81db6"),
    ("IV", "bell_diagonal", (0.4, 0.3, 0.2, 0.1),
     "f15b593efd8e1c97e122737b2e49a4a1209fbbf37a22921c5edc102aee1c63de"),
    ("IV", "bell_diagonal", (0.05, 0.05, 0.85, 0.05),
     "de03167a155e87c335f2316007b38a2807644245a91aefa1a8bc435fe7d97506"),
]


def test_family_recipe_bytes_pinned():
    assert {name for _, name, _, _ in FAMILY_RECIPE_SHA256} == set(FAMILIES)
    for scheme, name, params, want in FAMILY_RECIPE_SHA256:
        recipe = compile_target(scheme, FamilyParams(name, params))
        got = hashlib.sha256(recipe_to_json(recipe).encode("utf-8")).hexdigest()
        assert got == want, (name, params)


def _matrix_targets():
    """Seeded scheme-I/II targets: ranks 1-4, a product state, a Bell state,
    states near the |D| = 1/2 seam and each pinned family's matrix."""
    rng = np.random.default_rng(1515)
    targets = []
    for rank in (1, 2, 3, 4):
        for _ in range(5):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            targets.append(g @ g.conj().T / np.sum(np.abs(g) ** 2))
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    pures = [np.kron([0.6, 0.8j], [1.0, 0.0]), bell]
    for tilt in (1e-2, 1e-4, 1e-6):  # 1/2 - |D| is of order tilt**2
        other = rng.normal(size=4) + 1j * rng.normal(size=4)
        other -= np.vdot(bell, other) * bell
        pures.append(np.cos(tilt) * bell + np.sin(tilt) * other / np.linalg.norm(other))
    targets += [np.outer(psi, psi.conj()) for psi in pures]
    targets += [FAMILIES[name].matrix(*params) for _, name, params, _ in FAMILY_RECIPE_SHA256]
    return targets


# SHA-256 over the recipe JSON of every _matrix_targets entry, in order.  The
# eigenvectors, and so the bytes, depend on the LAPACK build numpy ships.
MATRIX_RECIPE_SHA256 = {
    "I": "41e759a2e333cc178daa672ff7af33622d3453b3d41bf7633f00bcf78658ebaf",
    "II": "82713f1ee4010d67a13a737dca9cac732c018591a36a4626b8817640e92ad149",
}


def test_matrix_recipe_bytes_pinned():
    for scheme, compile_fn in (("I", compile_scheme1), ("II", compile_scheme2)):
        digest = hashlib.sha256()
        for rho in _matrix_targets():
            digest.update(recipe_to_json(compile_fn(rho)).encode("utf-8"))
        assert digest.hexdigest() == MATRIX_RECIPE_SHA256[scheme], scheme


def _simulated_bits(digest, target, recipe):
    sim = simulate_recipe(recipe)
    digest.update(sim.tobytes())
    for x in (fidelity(target, sim), tangle(sim), linear_entropy(sim)):
        digest.update(repr(x).encode("ascii"))


# SHA-256 over the simulate_recipe matrix bytes and the repr of fidelity to
# the target, tangle and linear entropy: schemes I and II on every
# _matrix_targets entry, and each pinned family recipe against its family's
# matrix.  Like the recipe pins they depend on the LAPACK build numpy ships.
SIMULATED_SHA256 = {
    "I": "983c54888c6d6e103e614ea00403b18c578b2d7b7d1f98d527f7dd2c890b174e",
    "II": "19a20c4000554ca3dd1bd808ea4780febe76938bf3b0ec53ce85d09f2a4e55cd",
    "families": "17549f2d0bec478ea24596fc67e2156372d4f7a318fc4b6977ac6799422fc0ce",
}


def test_simulated_bits_pinned():
    # each digest twice: over the compiled recipes, which hold arrays, and over
    # the same recipes written and parsed again, which hold tuples
    def both(recipe):
        return recipe, recipe_from_json(recipe_to_json(recipe))

    for scheme, compile_fn in (("I", compile_scheme1), ("II", compile_scheme2)):
        digests = hashlib.sha256(), hashlib.sha256()
        for rho in _matrix_targets():
            for digest, recipe in zip(digests, both(compile_fn(rho))):
                _simulated_bits(digest, rho, recipe)
        assert [d.hexdigest() for d in digests] == [SIMULATED_SHA256[scheme]] * 2, scheme
    digests = hashlib.sha256(), hashlib.sha256()
    for scheme, name, params, _ in FAMILY_RECIPE_SHA256:
        recipe = compile_target(scheme, FamilyParams(name, params))
        for digest, r in zip(digests, both(recipe)):
            _simulated_bits(digest, FAMILIES[name].matrix(*params), r)
    assert [d.hexdigest() for d in digests] == [SIMULATED_SHA256["families"]] * 2


@pytest.mark.parametrize(
    "doc", [[], {"version": 1, "scheme": "I", "spectral_model": {}, "branches": {}}]
)
def test_cli_rejects_recipe_of_wrong_json_type(runner, tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(TypeError):
        recipe_from_json(bad.read_text())
    for args in (["cost", str(bad)], ["simulate", str(bad), "--out", str(tmp_path / "x.txt")]):
        res = invoke(runner, *args)
        assert res.exit_code == 2
        _single_error_line(res, "recipe-parse")
    assert not (tmp_path / "x.txt").exists()


def test_cli_rejects_deeply_nested_json(runner, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    for args, env, kind in (
        (["cost", str(deep)], None, "recipe-parse"),
        (["simulate", str(deep), "--out", str(tmp_path / "x.txt")], None, "recipe-parse"),
        (["families", "werner", "0.5"], {"QFORGE_DEFAULTS": str(deep)}, "defaults-file"),
    ):
        res = invoke(runner, *args, env=env)
        assert res.exit_code == 2
        _single_error_line(res, kind)
    assert not (tmp_path / "x.txt").exists()


# ------------------------------------------------------------------- cli


def test_cli_families_werner(runner, tmp_path):
    out = tmp_path / "w.txt"
    res = invoke(runner, "families", "werner", "0.3333333333", "--out", str(out))
    assert res.exit_code == 0
    m = validate_density(load_matrix(out))
    assert np.allclose(np.diag(m).real, [1 / 3, 1 / 6, 1 / 6, 1 / 3], atol=1e-9)


def test_cli_families_out_of_range(runner):
    res = invoke(runner, "families", "werner", "2.0")
    assert res.exit_code == 2


def test_cli_families_negative_parameters(runner, tmp_path):
    out = tmp_path / "d1.txt"
    res = invoke(runner, "families", "d1", "0.6", "0", "0", "0.8", "-0.3", "--out", str(out))
    assert res.exit_code == 0
    assert np.array_equal(load_matrix(out), FAMILIES["d1"].matrix(0.6, 0.0, 0.0, 0.8, -0.3))
    res = invoke(runner, "families", "werner", "-0.5")
    assert res.exit_code == 2
    _single_error_line(res, "out-of-range")


def test_cli_families_mems_one(runner, tmp_path):
    out = tmp_path / "m.txt"
    res = invoke(runner, "families", "mems", "1.0", "--out", str(out))
    assert res.exit_code == 0
    m = load_matrix(out)
    assert m[0, 0] == pytest.approx(0.5)
    assert m[0, 3] == pytest.approx(0.5)


def test_cli_compile_scheme1_werner(runner, tmp_path):
    w = tmp_path / "w.txt"
    r = tmp_path / "r.json"
    invoke(runner, "families", "werner", "0.5", "--out", str(w))
    res = invoke(runner, "compile", "I", str(w), "--out", str(r))
    assert res.exit_code == 0
    assert "0.625 0.125 0.125 0.125" in res.output
    assert "8" in res.output  # NLC count


def test_cli_compile_out_dash_writes_the_recipe_alone(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for scheme, target in (("I", "werner:0.5"), ("III", "mems:0.4"),
                           ("IV", "bell-diagonal:0.4,0.3,0.2,0.1")):
        res = invoke(runner, "compile", scheme, target, "--out", "-")
        assert res.exit_code == 0
        assert res.stderr == ""
        assert not (tmp_path / "-").exists()
        recipe_from_json(res.stdout)
        assert invoke(runner, "compile", scheme, target, "--out", "r.json").exit_code == 0
        assert res.stdout_bytes == (tmp_path / "r.json").read_bytes()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    """README's library example, the first python block, runs as it stands."""
    block = README.read_text(encoding="utf-8").split("\n```python\n", 1)[1].split("```\n", 1)[0]
    assert "compile_target" in block
    exec(compile(block, "README.md", "exec"), {})


def _readme_cli_lines() -> list:
    """The qforge lines of README's CLI block, in order."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("qforge ")]


def test_readme_cli_block_runs(runner, tmp_path, monkeypatch):
    """Each README CLI line, run in order in one directory, exits 0; a
    '> file' redirect writes the command's stdout to the file."""
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    for line in lines:
        args = shlex.split(line, comments=True)[1:]
        redirect = args.index(">") if ">" in args else None
        res = invoke(runner, *args[:redirect])
        assert res.exit_code == 0, f"{line}: {res.stderr}"
        if redirect is not None:
            (tmp_path / args[redirect + 1]).write_bytes(res.stdout_bytes)


def test_cli_compile_scheme4_bell_diagonal(runner, tmp_path):
    r = tmp_path / "r.json"
    res = invoke(runner, "compile", "IV", "bell-diagonal:0.4,0.3,0.2,0.1", "--out", str(r))
    assert res.exit_code == 0
    recipe = load_recipe(r)
    assert recipe.branches[1].weight == pytest.approx(0.1)


# the targets compile_target refuses, per scheme: the kind of the CLI's error line
REFUSED = {
    "I": {"missing path": "io-error"},
    "II": {"missing path": "io-error"},
    "III": dict.fromkeys(("bell-diagonal family", "array", "matrix path", "missing path"),
                         "unsupported-target"),
    "IV": dict.fromkeys(("seeded family", "array", "matrix path", "missing path"),
                        "unsupported-target"),
}
ERROR_AND_EXIT = {"io-error": (FileNotFoundError, 2), "unsupported-target": (UnsupportedTarget, 3)}


@pytest.mark.parametrize("case", ["seeded family", "bell-diagonal family", "array",
                                  "matrix path", "missing path"])
@pytest.mark.parametrize("scheme", ["I", "II", "III", "IV"])
def test_compile_target_gives_what_the_cli_gives(runner, tmp_path, scheme, case):
    """compile_target's recipe bytes, or its error, are those of `qforge compile` on
    the same target; an array is compiled as it is, as compile_scheme1 and 2 take it."""
    path, missing = tmp_path / "rho.txt", tmp_path / "missing.txt"
    # a second validate_density moves bits of this matrix, so an extra one would show
    path.write_text(format_matrix(random_density_matrix(1)), encoding="utf-8")
    rho = validate_density(load_matrix(path))  # what compile makes of the file
    spec, target = {
        "seeded family": ("mems:0.4", FamilyParams("mems", (0.4,))),
        "bell-diagonal family": ("bell-diagonal:.4,.3,.2,.1",
                                 FamilyParams("bell_diagonal", (0.4, 0.3, 0.2, 0.1))),
        "array": (str(path), rho),
        "matrix path": (str(path), path),
        "missing path": (str(missing), missing),
    }[case]
    out = tmp_path / "r.json"
    res = invoke(runner, "compile", scheme, spec, "--out", str(out))
    kind = REFUSED[scheme].get(case)
    if kind is None:
        assert res.exit_code == 0
        text = recipe_to_json(compile_target(scheme, target))
        assert text == out.read_text(encoding="utf-8")
        if case == "array":
            direct = compile_scheme1 if scheme == "I" else compile_scheme2
            assert text == recipe_to_json(direct(rho))
    else:
        error, code = ERROR_AND_EXIT[kind]
        with pytest.raises(error) as raised:
            compile_target(scheme, target)
        assert (res.exit_code, res.stderr) == (code, f"error: {kind}: {raised.value}\n")


def test_compile_target_rejects_an_unknown_scheme():
    with pytest.raises(ValueError, match="^unknown scheme 'iii'; use I, II, III or IV$"):
        compile_target("iii", FamilyParams("mems", (0.4,)))


def test_cli_simulate_and_verify_pipeline(runner, tmp_path):
    target = tmp_path / "mems.txt"
    recipe = tmp_path / "r.json"
    sim = tmp_path / "sim.txt"
    invoke(runner, "families", "mems", "0.6666666666666666", "--out", str(target))
    invoke(runner, "compile", "III", "mems:0.6666666666666666", "--out", str(recipe))
    res = invoke(runner, "simulate", str(recipe), "--out", str(sim))
    assert res.exit_code == 0
    produced = validate_density(load_matrix(sim))
    want = validate_density(load_matrix(target))
    assert np.abs(produced - want).max() < 1e-4
    res = invoke(runner, "verify", str(target), str(sim), "--min-fidelity", "0.9999")
    assert res.exit_code == 0
    assert "fidelity" in res.output


def test_cli_verify_failure_exit_code(runner, tmp_path):
    hh = tmp_path / "hh.txt"
    vv = tmp_path / "vv.txt"
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0
    hh.write_text(format_matrix(m), encoding="utf-8")
    m2 = np.zeros((4, 4), dtype=complex)
    m2[3, 3] = 1.0
    vv.write_text(format_matrix(m2), encoding="utf-8")
    res = invoke(runner, "verify", str(hh), str(vv), "--min-fidelity", "0.5")
    assert res.exit_code == 1


def test_cli_verify_identical(runner, tmp_path):
    w = tmp_path / "w.txt"
    invoke(runner, "families", "werner", "0.4", "--out", str(w))
    res = invoke(runner, "verify", str(w), str(w))
    assert res.exit_code == 0
    assert "fidelity 1" in res.output


def test_cli_simulate_grid_flag_and_analytic(runner, tmp_path):
    recipe = tmp_path / "r.json"
    invoke(runner, "compile", "III", "werner:0.5", "--out", str(recipe))
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert invoke(runner, "simulate", str(recipe), "--out", str(a), "--grid-n", "1025").exit_code == 0
    assert invoke(runner, "simulate", str(recipe), "--out", str(b), "--analytic").exit_code == 0
    assert np.abs(load_matrix(a) - load_matrix(b)).max() < 1e-6
    res = invoke(runner, "simulate", str(recipe), "--out", str(a), "--grid-n", "1024")
    assert res.exit_code == 2
    # the closed form needs no grid, but a bad size is still rejected, like one above the cap
    for n in ("4", "2", "-5"):
        res = invoke(runner, "simulate", str(recipe), "--out", str(a), "--analytic", "--grid-n", n)
        assert res.exit_code == 2
        _single_error_line(res, "out-of-range")


def _single_error_line(res, kind):
    lines = [l for l in res.stderr.splitlines() if l]
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {kind}: ")


def test_cli_simulate_default_is_exact_and_builds_no_grid(runner, tmp_path, request):
    specs = [("III", "mems:0.4"), ("IV", "bell-diagonal:0.1,0.2,0.3,0.4")]
    oracle = []
    for k, spec in enumerate(specs):
        recipe, grid = tmp_path / f"r{k}.json", tmp_path / f"grid{k}.txt"
        invoke(runner, "compile", *spec, "--out", str(recipe))
        assert invoke(runner, "simulate", str(recipe), "--out", str(grid),
                      "--grid-n", "4097").exit_code == 0
        oracle.append(load_matrix(grid))
    request.getfixturevalue("forbid_make_grid")
    for k, want in enumerate(oracle):
        exact = tmp_path / f"exact{k}.txt"
        res = invoke(runner, "simulate", str(tmp_path / f"r{k}.json"), "--out", str(exact))
        assert res.exit_code == 0
        assert np.abs(load_matrix(exact) - want).max() < 1e-8


def test_cli_rejects_unknown_recipe_scheme(runner, tmp_path):
    r = tmp_path / "r.json"
    invoke(runner, "compile", "III", "mems:0.4", "--out", str(r))
    doc = json.loads(r.read_text())
    doc["scheme"] = "V"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError):
        recipe_from_json(bad.read_text())
    for args in (["cost", str(bad)], ["simulate", str(bad), "--out", str(tmp_path / "x.txt")]):
        res = invoke(runner, *args)
        assert res.exit_code == 2
        _single_error_line(res, "value-error")
        assert "scheme 'V'" in res.stderr
    assert not (tmp_path / "x.txt").exists()


def test_cli_metrics_rejects_non_finite_matrix(runner, tmp_path):
    m = tmp_path / "m.txt"
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = rho[1, 0] = np.nan
    m.write_text(format_matrix(rho), encoding="utf-8")
    assert "nan" in m.read_text()
    res = invoke(runner, "metrics", str(m))
    assert res.exit_code == 2
    _single_error_line(res, "not-finite")


def test_cli_simulate_refuses_an_exact_chain_beyond_ten_decoherers(runner, tmp_path):
    r, bad, out = tmp_path / "r.json", tmp_path / "bad.json", tmp_path / "x.txt"
    assert invoke(runner, "compile", "III", "mems:0.4", "--out", str(r)).exit_code == 0
    doc = json.loads(r.read_text())
    stages = doc["branches"][0]["stages"]  # a rotation, then the two decoherers
    # the rotation before the last decoherer keeps the chain off the closed form
    stages[1:] = stages[1:3] * 5 + stages[0:2]
    bad.write_text(json.dumps(doc), encoding="utf-8")
    res = invoke(runner, "simulate", str(bad), "--out", str(out))
    assert res.exit_code == 2
    _single_error_line(res, "out-of-range")
    assert "a chain of 11 decoherers" in res.stderr and "--grid-n" in res.stderr
    assert not out.exists()
    assert invoke(runner, "simulate", str(bad), "--out", str(out), "--grid-n", "2049").exit_code == 0


def test_cli_simulate_takes_eleven_decoherers_of_one_axis_exactly(runner, tmp_path, request):
    r, chain = tmp_path / "r.json", tmp_path / "chain.json"
    exact, grid = tmp_path / "exact.txt", tmp_path / "grid.txt"
    assert invoke(runner, "compile", "III", "mems:0.4", "--out", str(r)).exit_code == 0
    doc = json.loads(r.read_text())
    stages = doc["branches"][0]["stages"]  # a rotation, then the two decoherers
    stages[1:] = stages[1:3] * 5 + stages[1:2]
    chain.write_text(json.dumps(doc), encoding="utf-8")
    res = invoke(runner, "simulate", str(chain), "--out", str(grid), "--grid-n", "2049")
    assert res.exit_code == 0
    request.getfixturevalue("forbid_make_grid")
    res = invoke(runner, "simulate", str(chain), "--out", str(exact))
    assert res.exit_code == 0 and res.stderr == ""
    assert np.abs(load_matrix(exact) - load_matrix(grid)).max() < 1e-8


def test_cli_simulate_rejects_garbage_recipe(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    res = invoke(runner, "simulate", str(bad), "--out", str(tmp_path / "x.txt"))
    assert res.exit_code == 2


def test_cli_metrics(runner, tmp_path):
    w = tmp_path / "w.txt"
    invoke(runner, "families", "werner", "1.0", "--out", str(w))
    res = invoke(runner, "metrics", str(w))
    assert res.exit_code == 0
    assert "tangle 1" in res.output
    assert "purity 1" in res.output


def test_cli_plane_werner_endpoints(runner, tmp_path):
    out = tmp_path / "p.csv"
    res = invoke(runner, "plane", "werner", "2", "--out", str(out))
    assert res.exit_code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "param,tangle,linear_entropy"
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[2].split(",")]
    assert first == pytest.approx([0.0, 0.0, 1.0])
    assert last == pytest.approx([1.0, 1.0, 0.0], abs=1e-9)


def test_cli_plane_mems_at_split(runner, tmp_path):
    out = tmp_path / "p.csv"
    # 151 steps puts r = 2/3 on the grid exactly
    res = invoke(runner, "plane", "mems", "151", "--out", str(out))
    assert res.exit_code == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    row = min(rows, key=lambda r: abs(float(r[0]) - 2.0 / 3.0))
    assert float(row[1]) == pytest.approx(4.0 / 9.0, abs=1e-9)
    assert float(row[2]) == pytest.approx(16.0 / 27.0, abs=1e-9)


def test_cli_plane_bad_args(runner, tmp_path):
    assert invoke(runner, "plane", "mems", "1", "--out", str(tmp_path / "x.csv")).exit_code == 2
    assert invoke(runner, "plane", "unknown", "5", "--out", str(tmp_path / "x.csv")).exit_code == 2


def test_cli_cost_table(runner, tmp_path):
    recipe = tmp_path / "r.json"
    invoke(runner, "compile", "III", "mems:0.6666666666666666", "--out", str(recipe))
    res = invoke(runner, "cost", str(recipe))
    assert res.exit_code == 0
    assert "III" in res.output
    assert "10" in res.output


def test_cli_errors_are_single_line(runner, tmp_path):
    res = invoke(runner, "families", "werner", "2.0")
    err_lines = [l for l in res.output.strip().split("\n") if l]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: ")


def test_cli_deterministic_outputs(runner, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    invoke(runner, "--seed", "7", "plane", "mems", "51", "--out", str(out1))
    invoke(runner, "--seed", "7", "plane", "mems", "51", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    invoke(runner, "compile", "III", "mems:0.4", "--out", str(r1))
    invoke(runner, "compile", "III", "mems:0.4", "--out", str(r2))
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_defaults_env_file(runner, tmp_path):
    defaults = tmp_path / "defaults.json"
    defaults.write_text(json.dumps({"delta_n": 0.018, "l_si_um": 50.0}), encoding="utf-8")
    recipe = tmp_path / "r.json"
    res = invoke(
        runner,
        "compile", "III", "werner:0.5", "--out", str(recipe),
        env={"QFORGE_DEFAULTS": str(defaults)},
    )
    assert res.exit_code == 0
    loaded = load_recipe(recipe)
    assert loaded.spectral_model.delta_n == pytest.approx(0.018)
    assert loaded.spectral_model.l_si_um == pytest.approx(50.0)
    # flags beat the file
    res = invoke(
        runner,
        "--delta-n", "0.010",
        "compile", "III", "werner:0.5", "--out", str(recipe),
        env={"QFORGE_DEFAULTS": str(defaults)},
    )
    assert res.exit_code == 0
    assert load_recipe(recipe).spectral_model.delta_n == pytest.approx(0.010)


def test_cli_defaults_env_file_bad(runner, tmp_path):
    res = invoke(
        runner,
        "families", "werner", "0.5",
        env={"QFORGE_DEFAULTS": str(tmp_path / "missing.json")},
    )
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "flags, defaults",
    [
        (["--delta-n", "nan"], None),
        (["--delta-n", "inf"], None),
        (["--l-si", "nan"], None),
        (["--l-si", "inf"], None),
        (["--pump-wavelength", "nan"], None),
        (["--pump-wavelength", "-inf"], None),
        ([], '{"delta_n": NaN}'),
        ([], '{"delta_n": -Infinity}'),
        ([], '{"l_si_um": Infinity}'),
        ([], '{"pump_wavelength_nm": NaN}'),
    ],
)
def test_cli_rejects_non_finite_constants(runner, tmp_path, flags, defaults):
    env = None
    if defaults is not None:
        path = tmp_path / "defaults.json"
        path.write_text(defaults, encoding="utf-8")
        env = {"QFORGE_DEFAULTS": str(path)}
    recipe = tmp_path / "r.json"
    res = invoke(runner, *flags, "compile", "III", "mems:0.4", "--out", str(recipe), env=env)
    assert res.exit_code == 2
    _single_error_line(res, "not-finite")
    assert not recipe.exists()


def test_spectral_model_rejects_non_finite():
    for bad in (np.nan, np.inf):
        with pytest.raises(NotFinite):
            SpectralModel(delta_eps=bad, omega=1.0)
        with pytest.raises(NotFinite):
            SpectralModel(delta_eps=1.0, omega=bad)
        with pytest.raises(NotFinite):
            default_spectral_model(l_si_um=bad)
        with pytest.raises(NotFinite):
            default_spectral_model(pump_wavelength_nm=bad)


# the scheme and fixed parameters per registry family; a family added without an
# entry here fails the CLI family test
CLI_FAMILY_PARAMS = {
    "mems": ("III", (0.4,)),
    "werner": ("III", (0.5,)),
    "collins_gisin": ("III", (0.5, 0.5236)),
    "bell_diagonal": ("IV", (0.4, 0.3, 0.2, 0.1)),
    "d1": ("III", (0.5, 0.5, 0.5, 0.5, 0.8)),
}


@pytest.mark.parametrize("key", list(FAMILIES))
def test_cli_family_pipeline(runner, tmp_path, key):
    family = FAMILIES[key]
    scheme, params = CLI_FAMILY_PARAMS[key]
    name = key.replace("_", "-")
    args = [repr(p) for p in params]
    target, recipe, produced = tmp_path / "t.txt", tmp_path / "r.json", tmp_path / "s.txt"
    assert invoke(runner, "families", name, *args, "--out", str(target)).exit_code == 0
    assert np.array_equal(load_matrix(target), family.matrix(*params))
    spec = f"{name}:{','.join(args)}"
    assert invoke(runner, "compile", scheme, spec, "--out", str(recipe)).exit_code == 0
    assert invoke(runner, "simulate", str(recipe), "--out", str(produced)).exit_code == 0
    res = invoke(runner, "verify", str(target), str(produced), "--min-fidelity", "0.999999")
    assert res.exit_code == 0
    # one parameter too many, on the families command and in a compile spec
    res = invoke(runner, "families", name, *args, "0.1")
    assert res.exit_code == 2
    _single_error_line(res, "value-error")
    res = invoke(runner, "compile", scheme, spec + ",0.1", "--out", str(tmp_path / "x.json"))
    assert res.exit_code == 2
    _single_error_line(res, "value-error")
    # plane sweeps exactly the one-parameter families
    res = invoke(runner, "plane", name, "3", "--out", str(tmp_path / "p.csv"))
    assert res.exit_code == (0 if family.arity == 1 else 2)


def test_cli_unknown_family(runner, tmp_path):
    res = invoke(runner, "families", "no-such-family", "0.5")
    assert res.exit_code == 3
    _single_error_line(res, "unsupported-target")


def test_cli_pipeline_matches_library(runner, tmp_path):
    w = tmp_path / "w.txt"
    r = tmp_path / "r.json"
    s = tmp_path / "s.txt"
    invoke(runner, "families", "werner", "0.5", "--out", str(w))
    invoke(runner, "compile", "I", str(w), "--out", str(r))
    invoke(runner, "simulate", str(r), "--out", str(s), "--analytic")
    produced = validate_density(load_matrix(s))
    assert fidelity(produced, werner(0.5)) >= 0.999999
    assert invoke(runner, "verify", str(w), str(s), "--min-fidelity", "0.999999").exit_code == 0


def test_cli_grid_refinement(runner, tmp_path):
    r = tmp_path / "r.json"
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    invoke(runner, "compile", "III", "mems:0.4", "--out", str(r))
    invoke(runner, "simulate", str(r), "--out", str(a), "--grid-n", "2049")
    invoke(runner, "simulate", str(r), "--out", str(b), "--grid-n", "4097")
    assert np.abs(load_matrix(a) - load_matrix(b)).max() < 1e-7


def test_cli_simulate_pure_recipe_gives_projector(runner, tmp_path):
    # scheme II branches carry no stages; a pure target is just a projector
    target = tmp_path / "t.txt"
    r = tmp_path / "r.json"
    s = tmp_path / "s.txt"
    invoke(runner, "families", "collins-gisin", "1.0", "0.6", "--out", str(target))
    invoke(runner, "compile", "II", str(target), "--out", str(r))
    invoke(runner, "simulate", str(r), "--out", str(s))
    assert np.abs(load_matrix(s) - load_matrix(target)).max() < 1e-9


def _nan_weight(doc):
    doc["branches"][0]["weight"] = float("nan")


def _nan_length(doc):
    doc["branches"][0]["stages"][1]["length_um"] = float("nan")


def _half_weight(doc):
    doc["branches"][0]["weight"] = 0.5


def _shared_tag(doc):
    doc["branches"][1]["timing_tag"] = doc["branches"][0]["timing_tag"]


def _non_unitary_u_a(doc):
    doc["branches"][0]["stages"][0]["u_a"][0][0] = [2.0, 0.0]


def _nan_phi(doc):
    doc["branches"][0]["seed"]["phi"] = float("nan")


def _nan_amplitude(doc):
    doc["branches"][0]["seed"]["amps"][0] = [float("nan"), 0.0]


HUGE = 10**400  # a JSON integer beyond double range


def _huge_length(doc):
    doc["branches"][0]["stages"][1]["length_um"] = HUGE


def _huge_weight(doc):
    doc["branches"][0]["weight"] = HUGE


def _huge_u_a_entry(doc):
    doc["branches"][0]["stages"][0]["u_a"][0][0] = [HUGE, 0]


def _nan_u_a_row_2(doc):  # a NaN outside row 1 fails the check too
    doc["branches"][0]["stages"][0]["u_a"][1][1][1] = float("nan")


def _nan_u_b_row_2(doc):
    doc["branches"][0]["stages"][0]["u_b"][1][0][0] = float("nan")


def _far_length(doc):  # path phase ~8e28 rad: finite, but no digit of it left
    doc["branches"][0]["stages"][1]["length_um"] = 1e30


def _overflow_length(doc):
    doc["branches"][0]["stages"][1]["length_um"] = 1e300


def _nan_recipe_delta_n(doc):
    doc["spectral_model"]["delta_n"] = float("nan")


def _nan_chain_transmission(doc):
    doc["branches"][0]["pump_split"]["chain_transmission"] = float("nan")


def _split_value(key, value):  # branch 0's pump split, one entry replaced
    def edit(doc):
        doc["branches"][0]["pump_split"][key] = value

    edit.__name__ = f"_split_{key}"
    return edit


def _drop_split(doc):
    del doc["branches"][0]["pump_split"]


def _add_split(doc):  # a scheme-I branch given a split of finite numbers
    half = [[0.5, 0.0], [0.5, 0.0]]
    doc["branches"][0]["pump_split"] = {"psi_upper": half, "psi_lower": half,
                                        "chain_transmission": 1.0, "upper_fraction": 0.5}


def _relabel(scheme):
    def edit(doc):
        doc["scheme"] = scheme

    edit.__name__ = f"_relabel_{scheme}"
    return edit


def _string_timing_tag(doc):
    doc["branches"][0]["timing_tag"] = "1"


def _note(name, value):  # a note that is not a string
    def edit(doc):
        doc["branches"][0]["note"] = value

    edit.__name__ = f"_{name}_note"
    return edit


def _put(name, *path, value):  # the entry at path replaced by value
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    edit.__name__ = f"_{name}"
    return edit


AMP_0 = ("branches", 0, "seed", "amps", 0)
U_A_00 = ("branches", 0, "stages", 0, "u_a", 0, 0)
PSI_UPPER_0 = ("branches", 0, "pump_split", "psi_upper", 0)
MODEL_DN = ("spectral_model", "delta_n")
STAGE_1_DN = ("branches", 0, "stages", 1, "delta_n")
SEED = ("branches", 0, "seed")
ONE_HH = [[1, 0], [0, 0], [0, 0], [0, 0]]


def _three_row_u_a(doc):
    u_a = doc["branches"][0]["stages"][0]["u_a"]
    u_a.append([[0.0, 0.0], [0.0, 0.0]])


def _three_amps(doc):
    del doc["branches"][0]["seed"]["amps"][3]


def _scaled_u_a(doc):  # |det u_a| = 1 + 8e-11, inside the unitarity tolerance
    for row in doc["branches"][0]["stages"][0]["u_a"]:
        for entry in row:
            entry[:] = [x * (1 + 4e-11) for x in entry]


def _scaled_weight(doc):  # weights summing to 1 + 2.5e-11, inside the weight-sum tolerance
    doc["branches"][0]["weight"] *= 1 + 4e-11


def _scaled_amps_seed(doc):  # the source state as amplitudes of norm 1 + 5e-10
    psi = spdc_pair_state(SpdcSourceSpec(**doc["branches"][0]["seed"])) * (1 + 5e-10)
    doc["branches"][0]["seed"] = {"amps": [[z.real, z.imag] for z in psi]}


@pytest.mark.parametrize("command", ["cost", "simulate"])
@pytest.mark.parametrize(
    "target, edit, kind, code",
    [
        ("mems:0.4", _nan_weight, "not-finite", 2),
        ("mems:0.4", _nan_length, "not-finite", 2),
        ("mems:0.4", _half_weight, "bad-weights", 2),
        ("werner:0.5", _shared_tag, "timing-collision", 4),
        ("mems:0.4", _non_unitary_u_a, "not-unitary", 2),
        ("mems:0.4", _nan_phi, "not-finite", 2),
        ("collins-gisin:1.0,0.6", _nan_amplitude, "not-finite", 2),
        ("mems:0.4", _huge_length, "not-finite", 2),
        ("mems:0.4", _huge_weight, "not-finite", 2),
        ("mems:0.4", _huge_u_a_entry, "recipe-parse", 2),
        ("mems:0.4", _nan_u_a_row_2, "not-unitary", 2),
        ("mems:0.4", _nan_u_b_row_2, "not-unitary", 2),
        ("mems:0.4", _far_length, "out-of-range", 2),
        ("mems:0.4", _overflow_length, "out-of-range", 2),
        ("mems:0.4", _nan_recipe_delta_n, "not-finite", 2),
        ("collins-gisin:1.0,0.6", _nan_chain_transmission, "not-finite", 2),
        ("collins-gisin:1.0,0.6", _split_value("psi_upper", [[0.0, 0.0]] * 2),
         "inconsistent-recipe", 2),
        ("collins-gisin:1.0,0.6", _split_value("chain_transmission", 0.123),
         "inconsistent-recipe", 2),
        ("collins-gisin:1.0,0.6", _split_value("upper_fraction", 7.5), "inconsistent-recipe", 2),
        ("collins-gisin:1.0,0.6", _drop_split, "inconsistent-recipe", 2),
        ("werner:0.5", _add_split, "inconsistent-recipe", 2),
        ("mems:0.4", _relabel("II"), "inconsistent-recipe", 2),
        ("collins-gisin:1.0,0.6", _relabel("I"), "inconsistent-recipe", 2),
        ("mems:0.4", _string_timing_tag, "recipe-parse", 2),
        ("werner:0.5", _note("nan", float("nan")), "recipe-parse", 2),
        ("werner:0.5", _note("number", 3.5), "recipe-parse", 2),
        ("werner:0.5", _note("null", None), "recipe-parse", 2),
        ("werner:0.5", _note("list", ["a", "b"]), "recipe-parse", 2),
        # a complex entry is a list of exactly two numbers
        ("collins-gisin:1.0,0.6", _put("short_amp", *AMP_0, value=[0.6]), "recipe-parse", 2),
        ("collins-gisin:1.0,0.6", _put("bare_amp", *AMP_0, value=0.6), "recipe-parse", 2),
        ("mems:0.4", _put("long_u_a_entry", *U_A_00, value=[1, 0, 0]), "recipe-parse", 2),
        ("mems:0.4", _put("bare_u_a_entry", *U_A_00, value=1), "recipe-parse", 2),
        ("collins-gisin:1.0,0.6", _put("long_psi_upper", *PSI_UPPER_0, value=[0.6, 0, 0]),
         "recipe-parse", 2),
        ("collins-gisin:1.0,0.6", _put("bare_psi_upper", *PSI_UPPER_0, value=0.6),
         "recipe-parse", 2),
        ("mems:0.4", _put("zero_delta_eps", "spectral_model", "delta_eps", value=0),
         "out-of-range", 2),
        ("mems:0.4", _put("negative_omega", "spectral_model", "omega", value=-1),
         "out-of-range", 2),
        # a delta_eps that makes the compiled decoherers ~4e188 dephasing lengths thick, whose
        # Gaussian exponent would overflow; one that makes them thin simulates
        ("mems:0.4", _put("wide_delta_eps", "spectral_model", "delta_eps", value=1e200),
         "out-of-range", 2),
        ("bell-diagonal:.4,.3,.2,.1",
         _put("wide_delta_eps", "spectral_model", "delta_eps", value=1e200), "out-of-range", 2),
        ("mems:0.4", _put("narrow_delta_eps", "spectral_model", "delta_eps", value=1e-200),
         None, 0),
        ("mems:0.4", _put("negative_length", "branches", 0, "stages", 1, "length_um", value=-1),
         "out-of-range", 2),
        ("mems:0.4", _put("negative_weight", "branches", 0, "weight", value=-1.0),
         "bad-weights", 2),
        ("mems:0.4", _three_row_u_a, "not-unitary", 2),
        ("collins-gisin:1.0,0.6", _three_amps, "not-normalized", 2),
        # every decoherer's delta_n is the spectral model's, exactly
        ("mems:0.4", _put("zero_model_delta_n", *MODEL_DN, value=0), "inconsistent-recipe", 2),
        ("mems:0.4", _put("negative_model_delta_n", *MODEL_DN, value=-0.02),
         "inconsistent-recipe", 2),
        ("mems:0.4", _put("large_stage_delta_n", *STAGE_1_DN, value=0.5), "inconsistent-recipe", 2),
        ("mems:0.4", _put("negated_stage_delta_n", *STAGE_1_DN, value=-0.009),
         "inconsistent-recipe", 2),
        ("mems:0.4", _put("nan_stage_delta_n", *STAGE_1_DN, value=float("nan")), "not-finite", 2),
        # a seed holds theta and phi, or amps, and nothing else
        ("mems:0.4", _put("angles_and_amps", *SEED, "amps", value=ONE_HH), "recipe-parse", 2),
        ("collins-gisin:1.0,0.6", _put("amps_and_theta", *SEED, "theta", value=0.5),
         "recipe-parse", 2),
        ("mems:0.4", _put("angles_and_note", *SEED, "note", value="x"), "recipe-parse", 2),
        # within the parse tolerances of unit norm: both accept, and simulate writes unit trace
        ("mems:0.4", _scaled_u_a, None, 0),
        ("mems:0.4", _scaled_amps_seed, None, 0),
        ("werner:0.5", _scaled_weight, None, 0),
    ],
)
def test_cli_cost_and_simulate_reject_the_same_recipes(
    runner, tmp_path, command, target, edit, kind, code
):
    r = tmp_path / "r.json"
    scheme = {"mems": "III", "werner": "I", "collins-gisin": "II",
              "bell-diagonal": "IV"}[target.partition(":")[0]]
    assert invoke(runner, "compile", scheme, target, "--out", str(r)).exit_code == 0
    doc = json.loads(r.read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    args = [command, str(bad)]
    if command == "simulate":
        args += ["--out", str(tmp_path / "x.txt")]
    res = invoke(runner, *args)
    assert res.exit_code == code
    if kind is None:
        assert res.stderr == ""
        if command == "simulate":
            validate_density(load_matrix(tmp_path / "x.txt"))
        return
    _single_error_line(res, kind)
    assert res.stdout == ""
    assert not (tmp_path / "x.txt").exists()


# a non-number where a recipe holds a number, or a seed not of one form, and what its one
# line names
@pytest.mark.parametrize("command", ["cost", "simulate"])
@pytest.mark.parametrize("path, value, named", [
    (("branches", 0, "stages", 1, "length_um"), "1", "length_um must be a number, got '1'"),
    (("spectral_model", "omega"), None, "omega must be a number, got None"),
    (("branches", 0, "weight"), "1", "weight[0] must be a number, got '1'"),
    (("branches", 0, "seed", "theta"), [0.1], "theta must be a number, got [0.1]"),
    (("branches", 0, "seed", "phi"), "x" * 1000,
     "phi must be a number, got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    (SEED, {"theta": 0.5, "phi": 0.0, "amps": ONE_HH},
     "a seed holds theta and phi, or amps alone, not ['amps', 'phi', 'theta']"),
    (SEED, {"theta": 0.5}, "a seed holds theta and phi, or amps alone, not ['theta']"),
    (SEED, [0.5, 0.0], "a seed holds theta and phi, or amps alone, not list"),
], ids=["length-string", "omega-null", "weight-string", "theta-list", "phi-long-string",
        "seed-of-both-forms", "seed-without-phi", "seed-list"])
def test_cli_names_a_non_number_in_a_recipe(runner, tmp_path, command, path, value, named):
    r = tmp_path / "r.json"
    assert invoke(runner, "compile", "III", "mems:0.4", "--out", str(r)).exit_code == 0
    doc = json.loads(r.read_text())
    _put("non_number", *path, value=value)(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    args = [command, str(bad)]
    if command == "simulate":
        args += ["--out", str(tmp_path / "x.txt")]
    res = invoke(runner, *args)
    assert (res.exit_code, res.stdout, res.stderr) == (2, "",
                                                       f"error: recipe-parse: {bad}: {named}\n")


@pytest.mark.parametrize("delta_n", ["1e290", "-1e290"])
@pytest.mark.parametrize("scheme, target", [("III", "mems:0.4"),
                                            ("IV", "bell-diagonal:.4,.3,.2,.1")])
def test_cli_grid_takes_a_large_delta_n_whose_phase_fits(runner, tmp_path, delta_n, scheme,
                                                         target):
    r, out = tmp_path / "r.json", tmp_path / "p.txt"
    assert invoke(runner, "--delta-n", delta_n, "compile", scheme, target,
                  "--out", str(r)).exit_code == 0
    res = invoke(runner, "simulate", str(r), "--out", str(out), "--grid-n", "33")
    assert (res.exit_code, res.stderr) == (0, "")
    validate_density(load_matrix(out))


@pytest.mark.parametrize("scheme", ["I", "II"])
def test_cli_grid_takes_a_decoherer_free_recipe_at_any_delta_n(runner, tmp_path, scheme):
    r, out = tmp_path / "r.json", tmp_path / "p.txt"
    assert invoke(runner, "--delta-n", "1e300", "compile", scheme, "werner:0.5",
                  "--out", str(r)).exit_code == 0
    res = invoke(runner, "simulate", str(r), "--out", str(out), "--grid-n", "33")
    assert (res.exit_code, res.stderr) == (0, "")
    validate_density(load_matrix(out))


@pytest.mark.parametrize("scheme", ["I", "II"])
def test_cli_simulates_a_target_whose_dropped_eigenvalues_leave_the_weights_short(
    runner, tmp_path, scheme
):
    # three eigenvalues below RANK_EPS give no branch: the one weight is 1 - 2.7e-12
    q, _ = np.linalg.qr(random_density_matrix(5))
    rho = (q * [1 - 2.7e-12, 0.9e-12, 0.9e-12, 0.9e-12]) @ q.conj().T
    target, recipe, out = tmp_path / "t.txt", tmp_path / "r.json", tmp_path / "o.txt"
    target.write_text(format_matrix(rho), encoding="utf-8")
    assert invoke(runner, "compile", scheme, str(target), "--out", str(recipe)).exit_code == 0
    weights = [b["weight"] for b in json.loads(recipe.read_text())["branches"]]
    assert weights == pytest.approx([1 - 2.7e-12], abs=1e-15)
    res = invoke(runner, "simulate", str(recipe), "--out", str(out))
    assert res.exit_code == 0, res.output
    assert abs(load_matrix(out).trace() - 1.0) <= 1e-15
    assert fidelity(load_matrix(out), rho) > 1 - 1e-9


@pytest.mark.parametrize("entry", [[0.6], [1, 0, 0], 0.6, "ab", [True, 0], {"re": 1}])
@pytest.mark.parametrize("compile_fn, path", [(compile_scheme2, AMP_0), (compile_scheme1, U_A_00),
                                              (compile_scheme2, PSI_UPPER_0)],
                         ids=["amps", "u_a", "psi_upper"])
def test_recipe_complex_entry_is_a_list_of_two_numbers(compile_fn, path, entry):
    doc = json.loads(recipe_to_json(compile_fn(werner(0.5))))
    _put("bad_entry", *path, value=entry)(doc)
    with pytest.raises(TypeError, match="^a complex entry must be a list of two numbers, got "):
        recipe_from_json(json.dumps(doc))


MUTANTS = (float("nan"), float("inf"), float("-inf"), HUGE, "x", None, True, False)


def _leaves(node):
    """(container, key, value) for every scalar of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        if isinstance(value, (dict, list)):
            yield from _leaves(value)
        else:
            yield node, key, value


def test_cli_leaf_mutations_end_in_one_error_line(runner, tmp_path):
    """Every scalar of three compiled recipes, replaced by each of MUTANTS:
    cost and simulate reject the file alike, each with one error line and
    exit 2, or both accept it and simulate writes a finite matrix.  Every
    numeric leaf is rejected, except a 400-digit timing tag, which is a
    valid integer."""
    bad, out = tmp_path / "bad.json", tmp_path / "x.txt"
    failures = []
    for scheme, target in (("I", "werner:0.5"), ("II", "werner:0.5"), ("III", "mems:0.4")):
        r = tmp_path / "r.json"
        assert invoke(runner, "compile", scheme, target, "--out", str(r)).exit_code == 0
        doc = json.loads(r.read_text())
        for node, key, value in _leaves(doc):
            for mutant in MUTANTS:
                node[key] = mutant
                bad.write_text(json.dumps(doc), encoding="utf-8")
                node[key] = value
                out.unlink(missing_ok=True)
                cost = runner.invoke(cli, ["cost", str(bad)])
                sim = runner.invoke(cli, ["simulate", str(bad), "--out", str(out)])
                case = f"scheme {scheme} {key}={mutant!r:.12}"
                for res in (cost, sim):
                    lines = res.stderr.splitlines()
                    if res.exit_code != 0 and not (
                        res.exit_code == 2 and len(lines) == 1
                        and re.match(r"error: [a-z-]+: ", lines[0])
                    ):
                        failures.append(f"{case}: exit {res.exit_code}, stderr {lines[:3]}")
                if (cost.exit_code == 0) != (sim.exit_code == 0):
                    failures.append(f"{case}: cost exit {cost.exit_code}, simulate {sim.exit_code}")
                elif sim.exit_code == 0:
                    if not np.isfinite(load_matrix(out)).all():
                        failures.append(f"{case}: accepted with a non-finite output")
                    numeric = isinstance(value, (int, float))
                    if numeric and not (key == "timing_tag" and mutant is HUGE):
                        failures.append(f"{case}: numeric leaf accepted")
    assert not failures, f"{len(failures)} failures:\n" + "\n".join(failures)


def test_cli_timing_collision_exit_code(runner, tmp_path):
    r = tmp_path / "r.json"
    invoke(runner, "compile", "I", "werner:0.5", "--out", str(r))
    doc = json.loads(r.read_text())
    for branch in doc["branches"]:
        branch["timing_tag"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    res = invoke(runner, "simulate", str(bad), "--out", str(tmp_path / "x.txt"), "--analytic")
    assert res.exit_code == 4
    assert "error: timing-collision" in res.output


# the exit-code contract on paths no other test reaches: (arguments, QFORGE_DEFAULTS
# text or None, exit code, the slug of the one stderr line or that whole line or None,
# text on stdout)
NOT_A_FAMILY = "error: unsupported-target: scheme III takes a family spec, not a raw matrix\n"
NOT_BELL_DIAGONAL = ("error: unsupported-target: scheme IV takes a bell-diagonal:l1,l2,l3,l4 "
                     "target\n")
CLI_CONTRACT = [
    (["compile", "III", "mems:0.4", "--out", "{tmp}/missing/x.json"], None, 2, "io-error", ""),
    (["families", "werner", "0.5"], "[1]", 2, "defaults-file", ""),
    (["families", "werner", "0.5"], '{"delta_n": "abc"}', 2, "type-error", ""),
    # the file takes delta_n, l_si_um and pump_wavelength_nm only: a misspelled key, or a
    # flag's name, is not ignored, and is named before any value is converted
    (["compile", "III", "mems:0.4", "--out", "{tmp}/x.json"], '{"delta_n": 0.018, "lsi_um": 50}',
     2, "defaults-file", ""),
    (["compile", "III", "mems:0.4", "--out", "{tmp}/x.json"], '{"l_si": 50}', 2,
     "defaults-file", ""),
    (["cost", "{tmp}/r.json"], '{"delta_n": "abc", "pump_wavelength": 351}', 2,
     "defaults-file", ""),
    (["--delta-n", "0", "compile", "III", "mems:0.4", "--out", "{tmp}/x.json"], None, 2,
     "out-of-range", ""),
    (["compile", "IV", "mems:0.4", "--out", "{tmp}/x.json"], None, 3, NOT_BELL_DIAGONAL, ""),
    (["verify", "{tmp}/hh.txt", "{tmp}/vv.txt", "--min-fidelity", "0.5"], None, 1,
     "verification-failed", "fidelity 0\n"),
    (["--seed", "7", "plane", "mems", "5"], None, 0, None, "param,tangle,linear_entropy\n"),
    (["simulate", "{tmp}/r.json", "--out", "-", "--analytic"], None, 0, None, "# simulated"),
    # the first odd grid size above spectral.MAX_GRID_N
    (["simulate", "{tmp}/r.json", "--out", "{tmp}/x.json", "--grid-n", "1048579"], None, 2,
     "out-of-range", ""),
    # a grid refuses a delta_eps outside spectral.GRID_DELTA_EPS; cost and the exact path take it
    *((["simulate", f"{{tmp}}/{name}", "--out", "{tmp}/x.json", "--grid-n", "33"], None, 2,
       f"error: out-of-range: delta_eps {delta_eps} rad/s lies outside [1e-150, 1e150] rad/s, "
       f"the range a frequency grid takes\n", "")
      for name, delta_eps in (("narrow.json", "2.99792e-186"), ("wide.json", "2.99792e+174"))),
    *(([*command, f"{{tmp}}/{name}"], None, 0, None, stdout)
      for name in ("narrow.json", "wide.json")
      for command, stdout in ((["cost"], "scheme"), (["simulate", "--out", "-"], "# simulated"))),
    # a birefringence whose decoherer phase delta_n (w/2 + 6 delta_eps) overflows on a grid;
    # cost and the exact path take it
    *((["simulate", f"{{tmp}}/{name}", "--out", "{tmp}/x.json", "--grid-n", "33"], None, 2,
       "error: out-of-range: delta_n 1e+300 makes a decoherer's phase on the frequency grid "
       "overflow a double\n", "")
      for name in ("huge-dn-iii.json", "huge-dn-iv.json")),
    *(([*command, f"{{tmp}}/{name}"], None, 0, None, stdout)
      for name in ("huge-dn-iii.json", "huge-dn-iv.json")
      for command, stdout in ((["cost"], "scheme"), (["simulate", "--out", "-"], "# simulated"))),
    # click's usage errors, raised by a command's parser and by the group's
    (["plane", "mems", "x"], None, 2, "usage-error", ""),
    (["--seed", "x", "plane", "mems", "5"], None, 2, "usage-error", ""),
    (["compile", "III", "mems:0.4"], None, 2, "usage-error", ""),
    ([], None, 2, "usage-error", ""),
    (["--help"], None, 0, None, "Usage: "),
    # NaN fails every tolerance check, and an integer beyond double range is not finite
    (["compile", "III", "d1:nan,0,0,0.8,0.5", "--out", "{tmp}/x.json"], None, 2, "bad-norm", ""),
    (["compile", "IV", "bell-diagonal:0.4,0.3,0.2,nan", "--out", "{tmp}/x.json"], None, 2,
     "bad-weights", ""),
    (["verify", "{tmp}/hh.txt", "{tmp}/hh.txt", "--min-fidelity", "nan"], None, 2,
     "not-finite", ""),
    # a fidelity bound outside [0, 1], and a sweep outside cli.MAX_PLANE_STEPS
    (["verify", "{tmp}/hh.txt", "{tmp}/hh.txt", "--min-fidelity", "1.5"], None, 2,
     "out-of-range", ""),
    (["verify", "{tmp}/hh.txt", "{tmp}/vv.txt", "--min-fidelity", "-0.5"], None, 2,
     "out-of-range", ""),
    (["plane", "mems", "1000001"], None, 2, "out-of-range", ""),
    (["plane", "mems", "1"], None, 2, "out-of-range", ""),
    pytest.param(["metrics", "{tmp}/hh.txt"], '{"l_si_um": 1%s}' % ("0" * 400), 2,
                 "not-finite", "", id="huge-int-default"),
    (["compile", "V", "mems:0.4", "--out", "{tmp}/x.json"], None, 2, "value-error", ""),
    (["--l-si", "0", "families", "werner", "0.5"], None, 2, "out-of-range", ""),
    # coherence lengths whose decoherers' path phase would overflow analytic_f
    *((["--l-si", l_si, "compile", scheme, target, "--out", "{tmp}/x.json"], None, 2,
       "out-of-range", "")
      for l_si in ("1e292", "1e305")
      for scheme, target in (("III", "mems:0.4"), ("IV", "bell-diagonal:.4,.3,.2,.1"))),
    # a birefringence so small that the decoherers' lengths l_si / |delta_n| overflow
    *((["--delta-n", "1e-320", "compile", scheme, target, "--out", "{tmp}/x.json"], None, 2,
       "error: out-of-range: delta_n 1e-320 makes the decoherers' lengths overflow a double\n",
       "")
      for scheme, target in (("III", "mems:0.4"), ("IV", "bell-diagonal:.4,.3,.2,.1"))),
    (["--pump-wavelength", "-1", "families", "werner", "0.5"], None, 2, "out-of-range", ""),
    # a bad constant fails commands that use no spectral model too
    (["--l-si", "-1", "metrics", "{tmp}/hh.txt"], None, 2, "out-of-range", ""),
    (["--delta-n", "nan", "verify", "{tmp}/hh.txt", "{tmp}/hh.txt"], None, 2, "not-finite", ""),
    (["cost", "{tmp}/r.json"], '{"l_si_um": 0}', 2, "out-of-range", ""),
    (["simulate", "{tmp}/r.json", "--out", "{tmp}/x.json"], '{"l_si_um": 0}', 2,
     "out-of-range", ""),
    # a matrix path holding ':' that names no family
    (["compile", "I", "{tmp}/h:h.txt", "--out", "{tmp}/y.json"], None, 0, None, "branches: 1"),
    # more scheme-target pairings compilers.compile_target refuses, a file before it is read
    (["compile", "III", "{tmp}/hh.txt", "--out", "{tmp}/x.json"], None, 3, NOT_A_FAMILY, ""),
    (["compile", "III", "{tmp}/missing.txt", "--out", "{tmp}/x.json"], None, 3, NOT_A_FAMILY,
     ""),
    (["compile", "III", "bell-diagonal:.4,.3,.2,.1", "--out", "{tmp}/x.json"], None, 3,
     "error: unsupported-target: bell_diagonal targets need scheme IV\n", ""),
    # the Collins-Gisin angle reaches only cos and sin, which pass a NaN on and take no infinity
    (["families", "collins-gisin", "0.5", "-inf"], None, 2,
     "error: not-finite: theta = -inf is not finite\n", ""),
    *((["compile", scheme, f"collins-gisin:0.5,{theta}", "--out", "{tmp}/x.json"], None, 2,
       f"error: not-finite: theta = {theta} is not finite\n", "")
      for scheme, theta in (("III", "inf"), ("III", "nan"), ("I", "nan"))),
]


@pytest.mark.parametrize("args, defaults, code, kind, stdout", CLI_CONTRACT)
def test_cli_exit_code_contract(runner, tmp_path, args, defaults, code, kind, stdout):
    for name, k in (("hh.txt", 0), ("vv.txt", 3), ("h:h.txt", 0)):
        m = np.zeros((4, 4), dtype=complex)
        m[k, k] = 1.0
        (tmp_path / name).write_text(format_matrix(m), encoding="utf-8")
    for flags, scheme, target, name in (
        ([], "III", "mems:0.4", "r.json"),
        # spectra so narrow and so wide that a grid would square delta_eps out of double range
        (["--l-si", "1e200"], "I", "werner:0.5", "narrow.json"),
        (["--l-si", "1e-160"], "III", "mems:0.4", "wide.json"),
        (["--delta-n", "1e300"], "III", "mems:0.4", "huge-dn-iii.json"),
        (["--delta-n", "1e300"], "IV", "bell-diagonal:.4,.3,.2,.1", "huge-dn-iv.json"),
    ):
        res = invoke(runner, *flags, "compile", scheme, target, "--out", str(tmp_path / name))
        assert res.exit_code == 0
    env = None
    if defaults is not None:
        (tmp_path / "defaults.json").write_text(defaults, encoding="utf-8")
        env = {"QFORGE_DEFAULTS": str(tmp_path / "defaults.json")}
    res = invoke(runner, *[a.format(tmp=tmp_path) for a in args], env=env)
    assert res.exit_code == code
    if kind is None:
        assert res.stderr == ""
    elif kind.endswith("\n"):
        assert res.stderr == kind
    else:
        _single_error_line(res, kind)
    assert res.stdout.startswith(stdout)
    assert not (tmp_path / "x.json").exists()


# a bad constant, from a flag or from QFORGE_DEFAULTS, and the line it ends every command with
BAD_CONSTANTS = [
    (["--l-si", "-1"], None, "error: out-of-range: l_si must be positive, got -1.0\n"),
    (["--delta-n", "nan"], None, "error: not-finite: delta_n = nan is not finite\n"),
    (["--pump-wavelength", "0"], None,
     "error: out-of-range: pump wavelength must be positive, got 0.0\n"),
    ([], '{"l_si_um": 0}', "error: out-of-range: l_si must be positive, got 0\n"),
    ([], '{"delta_n": true}', "error: type-error: delta_n must be a number, got True\n"),
    ([], '{"l_si_um": null}', "error: type-error: l_si must be a number, got None\n"),
    ([], '{"delta_n": "abc"}', "error: type-error: delta_n must be a number, got 'abc'\n"),
    ([], '{"pump_wavelength_nm": Infinity}',
     "error: not-finite: pump_wavelength = inf is not finite\n"),
    # constants whose model would overflow, named as the user set them
    (["--l-si", "1e-300"], None,
     "error: out-of-range: l_si 1e-300 um makes delta_eps overflow a double\n"),
    (["--pump-wavelength", "1e-320"], None,
     "error: out-of-range: pump wavelength 1e-320 nm makes omega overflow a double\n"),
    ([], '{"pump_wavelength_nm": 5e-324}',  # 5e-324 nm is 0.0 um in a double
     "error: out-of-range: pump wavelength 5e-324 nm makes omega overflow a double\n"),
    # a key other than the three constants ({path} is the file's), named before any value
    # is converted: a misspelling, a flag's name
    ([], '{"delta_n": 0.018, "lsi_um": 50}',
     "error: defaults-file: {path} holds unknown key(s) 'lsi_um'; it takes delta_n, l_si_um, "
     "pump_wavelength_nm only\n"),
    ([], '{"l_si": 50, "delta_n": NaN}',
     "error: defaults-file: {path} holds unknown key(s) 'l_si'; it takes delta_n, l_si_um, "
     "pump_wavelength_nm only\n"),
    ([], '{"pump_wavelength": "abc", "l_si_um": 50, "Delta_n": 1}',
     "error: defaults-file: {path} holds unknown key(s) 'pump_wavelength', 'Delta_n'; it takes "
     "delta_n, l_si_um, pump_wavelength_nm only\n"),
]
EVERY_COMMAND = [
    ["families", "werner", "0.5"],
    ["compile", "III", "mems:0.4", "--out", "{tmp}/x.json"],
    ["simulate", "{tmp}/r.json", "--out", "{tmp}/x.json"],
    ["verify", "{tmp}/w.txt", "{tmp}/w.txt"],
    ["metrics", "{tmp}/w.txt"],
    ["plane", "mems", "3"],
    ["cost", "{tmp}/r.json"],
]


@pytest.mark.parametrize("command", EVERY_COMMAND, ids=lambda c: c[0])
@pytest.mark.parametrize("flags, defaults, line", BAD_CONSTANTS)
def test_cli_bad_constant_ends_every_command_in_its_line(runner, tmp_path, command, flags,
                                                         defaults, line):
    (tmp_path / "w.txt").write_text(format_matrix(werner(0.5)), encoding="utf-8")
    (tmp_path / "r.json").write_text(recipe_to_json(compile_scheme3(FamilyParams("mems", (0.4,)))),
                                     encoding="utf-8")
    env = None
    if defaults is not None:
        (tmp_path / "defaults.json").write_text(defaults, encoding="utf-8")
        env = {"QFORGE_DEFAULTS": str(tmp_path / "defaults.json")}
    res = invoke(runner, *flags, *[a.format(tmp=tmp_path) for a in command], env=env)
    line = line.format(path=tmp_path / "defaults.json")
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", line)
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command", EVERY_COMMAND, ids=lambda c: c[0])
@pytest.mark.parametrize("flags, defaults", [
    (["--delta-n", "nan"], None),
    ([], '{"delta_n": 0.018, "lsi_um": 50}'),
], ids=["flag", "defaults-file"])
def test_cli_command_help_wins_over_a_bad_constant(runner, tmp_path, command, flags, defaults):
    # the command's pinned help on stdout, exit 0, where running it ends in its line
    env = None
    if defaults is not None:
        (tmp_path / "defaults.json").write_text(defaults, encoding="utf-8")
        env = {"QFORGE_DEFAULTS": str(tmp_path / "defaults.json")}
    args = [*flags, *[a.format(tmp=tmp_path) for a in command], "--help"]
    res = runner.invoke(cli, args, env=env, prog_name="qforge", terminal_width=78)
    assert (res.exit_code, res.stdout, res.stderr) == (0, HELP[command[0]], "")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("l_si", ["1e292", "1e300", "1e305", "1e307", "1e308"])
@pytest.mark.parametrize("scheme, target", [("III", "mems:0.4"), ("III", "mems:0.8"),
                                            ("IV", "bell-diagonal:.4,.3,.2,.1")])
def test_cli_compile_names_an_l_si_whose_decoherers_overflow(runner, tmp_path, l_si, scheme,
                                                             target):
    res = invoke(runner, "--l-si", l_si, "compile", scheme, target,
                 "--out", str(tmp_path / "x.json"))
    want = (f"error: out-of-range: l_si {float(l_si):.6g} um makes the decoherers' path phase "
            f"overflow a double\n")
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", want)


@pytest.mark.parametrize("delta_n", ["1e-320", "-1e-320", "5e-324"])
@pytest.mark.parametrize("scheme, target", [("III", "mems:0.4"), ("III", "mems:0.8"),
                                            ("IV", "bell-diagonal:.4,.3,.2,.1")])
def test_cli_compile_names_a_delta_n_whose_decoherers_overflow(runner, tmp_path, delta_n,
                                                               scheme, target):
    res = invoke(runner, "--delta-n", delta_n, "compile", scheme, target,
                 "--out", str(tmp_path / "x.json"))
    want = (f"error: out-of-range: delta_n {float(delta_n)} makes the decoherers' lengths "
            f"overflow a double\n")
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", want)


def test_cli_compile_keeps_the_path_phase_line_below_the_overflow(runner, tmp_path):
    res = invoke(runner, "--l-si", "1e291", "compile", "III", "mems:0.4",
                 "--out", str(tmp_path / "x.json"))
    assert res.exit_code == 2
    assert res.stderr == ("error: out-of-range: decoherer of 1.2234186280660878e+294 um has a "
                          "path phase of 9.86e+292 rad, beyond 2**53 rad, where no digit of it "
                          "is left\n")


def test_cli_unexpected_exception_is_one_internal_error_line(runner, tmp_path, monkeypatch):
    def broken(rho):
        raise ZeroDivisionError("float division by zero")

    path = tmp_path / "w.txt"
    path.write_text(format_matrix(werner(0.5)), encoding="utf-8")
    monkeypatch.setattr(qforge.qmath, "tangle", broken)
    res = invoke(runner, "metrics", str(path))
    assert res.exit_code == 5
    assert res.stderr == "error: internal-error: ZeroDivisionError: float division by zero\n"
    assert invoke(runner, "--help").exit_code == 0  # click's Exit still passes through


def test_cli_usage_error_as_a_process():
    src = str(Path(qforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    bare = subprocess.run([sys.executable, "-m", "qforge.cli"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert bare.returncode == 2
    assert bare.stdout == ""
    assert bare.stderr == "error: usage-error: Missing command. Try 'qforge --help'.\n"
