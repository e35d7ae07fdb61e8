import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from qforge.cli import cli
from qforge.compilers import (
    FamilyParams,
    compile_scheme1,
    compile_scheme3,
    compile_scheme4_bell_diagonal,
)
from qforge.elements import SpectralModel, default_spectral_model
from qforge.errors import NotFinite
from qforge.families import FAMILIES, werner
from qforge.matrix_io import format_matrix, load_matrix, parse_matrix, save_matrix
from qforge.qmath import fidelity, random_density_matrix, validate_density
from qforge.recipe_io import load_recipe, recipe_from_json, recipe_to_json, save_recipe


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
    save_matrix(path, m)
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


def test_recipe_json_round_trip_byte_identical():
    sm = default_spectral_model()
    for recipe in (
        compile_scheme1(werner(0.5), sm, 0.009),
        compile_scheme3(FamilyParams("mems", (0.4,)), sm, 0.009),
    ):
        text = recipe_to_json(recipe)
        again = recipe_to_json(recipe_from_json(text))
        assert text == again


def test_recipe_file_round_trip_simulates_identically(tmp_path):
    from qforge.compilers import simulate_recipe

    sm = default_spectral_model()
    recipe = compile_scheme3(FamilyParams("werner", (0.5,)), sm, 0.009)
    path = tmp_path / "r.json"
    save_recipe(path, recipe)
    loaded = load_recipe(path)
    a = simulate_recipe(recipe, analytic=True)
    b = simulate_recipe(loaded, analytic=True)
    assert np.array_equal(a, b)


def test_recipe_rejects_unknown_version():
    with pytest.raises(ValueError):
        recipe_from_json(json.dumps({"version": 99}))


# SHA-256 of the default-model recipe JSON of each family at fixed parameters
# (scheme III, scheme IV for the family scheme III has no seed for).  Family
# recipes come from closed forms; eigensolver output (schemes I/II) is not
# pinned because degenerate eigenvectors differ across LAPACK builds.
FAMILY_RECIPE_SHA256 = [
    ("mems", (0.4,), "e40cfe1f8f88fd9671d78d8a43fce588bdc1e83650c8e44c1e9f919bc9531e8c"),
    ("mems", (0.8,), "bd9e97a9220c83c481b3c2bb03a91b81a530eef513d3a71c3954f8361eb59a7c"),
    ("werner", (0.5,), "53a242864605c5ff9d0994cfc2dabba9ffaadb568d2b268544417a2f1c6ae6b8"),
    ("collins_gisin", (0.5, 0.5236),
     "51449126cfbc76ddf4d1c9699f205f3baed4a83ea332962e335658ae5d9eb605"),
    ("d1", (0.5, 0.5, 0.5, 0.5, 0.8),
     "be8ea0313f78825824c64a834ccc3a15d863dc60e5e99331d0718028c0be7154"),
    ("d1", (0.6, 0.0, 0.0, 0.8, -0.3),
     "57ea9f650a755684a3e1e7a03d04ded901fb9e53dba8874a9021665b31f81db6"),
    ("bell_diagonal", (0.4, 0.3, 0.2, 0.1),
     "f15b593efd8e1c97e122737b2e49a4a1209fbbf37a22921c5edc102aee1c63de"),
    ("bell_diagonal", (0.05, 0.05, 0.85, 0.05),
     "de03167a155e87c335f2316007b38a2807644245a91aefa1a8bc435fe7d97506"),
]


def test_family_recipe_bytes_pinned():
    assert {name for name, _, _ in FAMILY_RECIPE_SHA256} == set(FAMILIES)
    for name, params, want in FAMILY_RECIPE_SHA256:
        if FAMILIES[name].seed is None:
            recipe = compile_scheme4_bell_diagonal(*params)
        else:
            recipe = compile_scheme3(FamilyParams(name, params))
        got = hashlib.sha256(recipe_to_json(recipe).encode("utf-8")).hexdigest()
        assert got == want, (name, params)


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


def test_cli_compile_scheme4_bell_diagonal(runner, tmp_path):
    r = tmp_path / "r.json"
    res = invoke(runner, "compile", "IV", "bell-diagonal:0.4,0.3,0.2,0.1", "--out", str(r))
    assert res.exit_code == 0
    recipe = load_recipe(r)
    assert recipe.branches[1].weight == pytest.approx(0.1)


def test_cli_compile_scheme3_with_matrix_is_unsupported(runner, tmp_path):
    w = tmp_path / "w.txt"
    invoke(runner, "families", "werner", "0.5", "--out", str(w))
    res = invoke(runner, "compile", "III", str(w), "--out", str(tmp_path / "x.json"))
    assert res.exit_code == 3


def test_cli_compile_bad_target(runner, tmp_path):
    res = invoke(runner, "compile", "I", str(tmp_path / "missing.txt"), "--out",
                 str(tmp_path / "x.json"))
    assert res.exit_code == 2


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
    save_matrix(hh, m)
    m2 = np.zeros((4, 4), dtype=complex)
    m2[3, 3] = 1.0
    save_matrix(vv, m2)
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
    assert loaded.delta_n == pytest.approx(0.018)
    assert loaded.spectral_model.l_si_um == pytest.approx(50.0)
    # flags beat the file
    res = invoke(
        runner,
        "--delta-n", "0.010",
        "compile", "III", "werner:0.5", "--out", str(recipe),
        env={"QFORGE_DEFAULTS": str(defaults)},
    )
    assert res.exit_code == 0
    assert load_recipe(recipe).delta_n == pytest.approx(0.010)


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


# fixed parameters per registry family; a family added without an entry here
# fails the CLI family test
CLI_FAMILY_PARAMS = {
    "mems": (0.4,),
    "werner": (0.5,),
    "collins_gisin": (0.5, 0.5236),
    "bell_diagonal": (0.4, 0.3, 0.2, 0.1),
    "d1": (0.5, 0.5, 0.5, 0.5, 0.8),
}


@pytest.mark.parametrize("key", list(FAMILIES))
def test_cli_family_pipeline(runner, tmp_path, key):
    family = FAMILIES[key]
    params = CLI_FAMILY_PARAMS[key]
    name = key.replace("_", "-")
    args = [repr(p) for p in params]
    target, recipe, produced = tmp_path / "t.txt", tmp_path / "r.json", tmp_path / "s.txt"
    assert invoke(runner, "families", name, *args, "--out", str(target)).exit_code == 0
    assert np.array_equal(load_matrix(target), family.matrix(*params))
    scheme = "III" if family.seed is not None else "IV"
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
