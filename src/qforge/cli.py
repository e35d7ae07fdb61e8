"""Command-line frontend.

Examples:

    qforge families werner 0.5 --out werner.txt
    qforge compile I werner.txt --out recipe.json
    qforge compile III mems:0.4 --out mems.json
    qforge simulate mems.json --out produced.txt
    qforge simulate mems.json --out oracle.txt --grid-n 2049
    qforge verify werner.txt produced.txt --min-fidelity 0.999
    qforge metrics produced.txt
    qforge plane mems 101 --out plane.csv
    qforge cost recipe.json

Exit codes: 0 ok, 1 verification failed, 2 bad input, 3 unsupported
scheme/target pairing, 4 simulation contract violation.  Every error path
prints a single "error: <kind>: <reason>" line to standard error.

The env var QFORGE_DEFAULTS may point to a JSON file overriding the
physical constants, e.g. {"delta_n": 0.009, "l_si_um": 100.0,
"pump_wavelength_nm": 351.0}; explicit flags win over the file.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from . import families as fam
from . import matrix_io, qmath, recipe_io
from .compilers import (
    FamilyParams,
    Recipe,
    compile_scheme1,
    compile_scheme2,
    compile_scheme3,
    compile_scheme4_bell_diagonal,
    recipe_cost,
    simulate_recipe,
)
from .elements import (
    DEFAULT_DELTA_N,
    DEFAULT_L_SI_UM,
    DEFAULT_PUMP_WAVELENGTH_NM,
    SpectralModel,
    check_finite,
    default_spectral_model,
)
from .errors import QforgeError, TimingCollision, UnsupportedTarget

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_SIM_CONTRACT = 4


def _slug(exc: BaseException) -> str:
    name = type(exc).__name__
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def _fail(code: int, slug: str, message: str):
    message = " ".join(str(message).split())  # keep it on one line
    click.echo(f"error: {slug}: {message}", err=True)
    sys.exit(code)


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except TimingCollision as exc:
            _fail(EXIT_SIM_CONTRACT, _slug(exc), exc)
        except UnsupportedTarget as exc:
            _fail(EXIT_UNSUPPORTED, _slug(exc), exc)
        except (QforgeError, ValueError) as exc:
            _fail(EXIT_BAD_INPUT, _slug(exc), exc)
        except OSError as exc:
            _fail(EXIT_BAD_INPUT, "io-error", exc)

    return wrapper


@dataclass
class Settings:
    spectral_model: SpectralModel
    delta_n: float
    seed: int | None


def _load_defaults_file() -> dict:
    path = os.environ.get("QFORGE_DEFAULTS")
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_BAD_INPUT, "defaults-file", f"cannot read QFORGE_DEFAULTS {path}: {exc}")
    if not isinstance(data, dict):
        _fail(EXIT_BAD_INPUT, "defaults-file", f"{path} must hold a JSON object")
    return data


@click.group()
@click.option("--seed", type=int, default=None, help="Seed for any randomized operation.")
@click.option("--delta-n", type=float, default=None, help="Birefringence n_V - n_H.")
@click.option("--l-si", type=float, default=None, help="Photon coherence length [um].")
@click.option("--pump-wavelength", type=float, default=None, help="Pump wavelength [nm].")
@click.pass_context
def cli(ctx, seed, delta_n, l_si, pump_wavelength):
    """Compile and simulate two-photon polarization mixed-state recipes."""
    file_defaults = _load_defaults_file()
    dn = delta_n if delta_n is not None else file_defaults.get("delta_n", DEFAULT_DELTA_N)
    lsi = l_si if l_si is not None else file_defaults.get("l_si_um", DEFAULT_L_SI_UM)
    wl = (
        pump_wavelength
        if pump_wavelength is not None
        else file_defaults.get("pump_wavelength_nm", DEFAULT_PUMP_WAVELENGTH_NM)
    )
    try:
        check_finite(delta_n=dn)
        sm = default_spectral_model(l_si_um=lsi, pump_wavelength_nm=wl)
    except (QforgeError, ValueError, TypeError) as exc:
        _fail(EXIT_BAD_INPUT, _slug(exc), exc)
    ctx.obj = Settings(spectral_model=sm, delta_n=dn, seed=seed)


def _write_text(out: str, text: str):
    if out == "-":
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_validated(path: str) -> np.ndarray:
    return qmath.validate_density(matrix_io.load_matrix(path))


_FAMILY_USAGE = " | ".join(
    " ".join((name.replace("_", "-"),) + f.param_names) for name, f in fam.FAMILIES.items()
)


@cli.command(
    help=f"Write a named family state in the shared matrix format.\n\nFamilies: {_FAMILY_USAGE}."
)
@click.argument("family")
@click.argument("params", nargs=-1)
@click.option("--out", "-o", default="-", help="Output path ('-' for stdout).")
@click.pass_obj
@_handle_errors
def families(settings, family, params, out):
    key, params = fam.family_params(family, params)
    m = fam.FAMILIES[key].matrix(*params)
    label = f"{key}({', '.join(f'{p:.6g}' for p in params)})"
    _write_text(out, matrix_io.format_matrix(m, comments=(label,)))


def _parse_scheme(s: str) -> str:
    table = {"i": "I", "1": "I", "ii": "II", "2": "II", "iii": "III", "3": "III",
             "iv": "IV", "4": "IV"}
    key = s.lower()
    if key not in table:
        raise ValueError(f"unknown scheme {s!r}; use I, II, III or IV")
    return table[key]


def _parse_target(target: str):
    """Return ('family', kind, params) or ('matrix', path)."""
    if ":" in target:
        name, _, rest = target.partition(":")
        try:
            return ("family", *fam.family_params(name, [x for x in rest.split(",") if x.strip()]))
        except UnsupportedTarget:
            pass  # not a family name: a path holding ':'
    return ("matrix", target)


def _print_cost_table(recipe: Recipe):
    cost = recipe_cost(recipe)
    click.echo("scheme  NLC  other-optics  controllable-params")
    click.echo(
        f"{recipe.scheme:<7} {cost.nlc:<4} {cost.other_optics:<13} {cost.controllable_params}"
    )


@cli.command(name="compile")
@click.argument("scheme")
@click.argument("target")
@click.option("--out", "-o", required=True, help="Recipe output path.")
@click.pass_obj
@_handle_errors
def compile_cmd(settings, scheme, target, out):
    """Compile a target into a synthesis recipe.

    TARGET is a matrix file (schemes I, II) or a family spec like
    'mems:0.4', 'werner:0.5', 'collins-gisin:0.5,0.5236',
    'd1:0.5,0.5,0.5,0.5,0.8' (scheme III) or
    'bell-diagonal:0.4,0.3,0.2,0.1' (scheme IV).
    """
    scheme = _parse_scheme(scheme)
    kind = _parse_target(target)
    sm, dn = settings.spectral_model, settings.delta_n
    if scheme in ("I", "II"):
        if kind[0] == "family":
            rho = fam.FAMILIES[kind[1]].matrix(*kind[2])
        else:
            rho = _load_validated(kind[1])
        recipe = compile_scheme1(rho, sm, dn) if scheme == "I" else compile_scheme2(rho, sm, dn)
    elif scheme == "III":
        if kind[0] != "family":
            raise UnsupportedTarget("scheme III takes a family spec, not a raw matrix")
        recipe = compile_scheme3(FamilyParams(kind[1], kind[2]), sm, dn)
    else:  # IV takes the family that has no scheme-III seed
        if kind[0] != "family" or fam.FAMILIES[kind[1]].seed is not None:
            raise UnsupportedTarget("scheme IV takes a bell-diagonal:l1,l2,l3,l4 target")
        recipe = compile_scheme4_bell_diagonal(*kind[2], sm=sm, delta_n=dn)
    recipe_io.save_recipe(out, recipe)
    weights = " ".join(f"{b.weight:.6g}" for b in recipe.branches)
    click.echo(f"branches: {len(recipe.branches)}  weights: {weights}")
    _print_cost_table(recipe)


@cli.command()
@click.argument("recipe_path")
@click.option("--out", "-o", required=True, help="Matrix output path.")
@click.option("--grid-n", type=int, default=None,
              help="Integrate on a frequency grid of this odd size instead of "
                   "the exact default; the grid is an independent check.")
@click.option("--analytic", is_flag=True,
              help="Closed form for single-stage branches; the others stay "
                   "exact (or on the --grid-n grid).")
@click.pass_obj
@_handle_errors
def simulate(settings, recipe_path, out, grid_n, analytic):
    """Forward-simulate a recipe and write the traced density matrix.

    The simulation is exact for the Gaussian spectrum unless --grid-n is given.
    """
    try:
        recipe = recipe_io.load_recipe(recipe_path)
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        _fail(EXIT_BAD_INPUT, "recipe-parse", f"{recipe_path}: {exc}")
    if grid_n is not None and (grid_n < 3 or grid_n % 2 == 0):
        raise ValueError(f"--grid-n must be an odd integer >= 3, got {grid_n}")
    rho = simulate_recipe(recipe, analytic=analytic, grid_n=grid_n)
    comments = (f"simulated scheme {recipe.scheme} recipe from {recipe_path}",)
    _write_text(out, matrix_io.format_matrix(rho, comments=comments))


def _echo_metrics(label: str, rho: np.ndarray):
    click.echo(
        f"{label}: tangle {qmath.tangle(rho):.6g}  "
        f"linear_entropy {qmath.linear_entropy(rho):.6g}  "
        f"purity {qmath.purity(rho):.6g}"
    )


@cli.command()
@click.argument("target_path")
@click.argument("produced_path")
@click.option("--min-fidelity", type=float, default=0.999, show_default=True)
@click.pass_obj
@_handle_errors
def verify(settings, target_path, produced_path, min_fidelity):
    """Compare two matrix files; exit 1 if fidelity is below the threshold."""
    target = _load_validated(target_path)
    produced = _load_validated(produced_path)
    f = qmath.fidelity(target, produced)
    click.echo(f"fidelity {f:.9g}")
    _echo_metrics("target", target)
    _echo_metrics("produced", produced)
    if f < min_fidelity:
        click.echo(
            f"error: verification-failed: fidelity {f:.9g} < {min_fidelity:.9g}", err=True
        )
        sys.exit(EXIT_VERIFY_FAILED)


@cli.command()
@click.argument("matrix_path")
@click.pass_obj
@_handle_errors
def metrics(settings, matrix_path):
    """Print tangle, linear entropy and purity of a matrix file."""
    rho = _load_validated(matrix_path)
    click.echo(f"tangle {qmath.tangle(rho):.6g}")
    click.echo(f"linear_entropy {qmath.linear_entropy(rho):.6g}")
    click.echo(f"purity {qmath.purity(rho):.6g}")


@cli.command()
@click.argument("family")
@click.argument("steps", type=int)
@click.option("--out", "-o", default="-", help="CSV output path ('-' for stdout).")
@click.pass_obj
@_handle_errors
def plane(settings, family, steps, out):
    """Sweep a one-parameter family and tabulate the tangle-entropy plane.

    Supported families: those with one parameter, swept uniformly over [0, 1].
    """
    one_param = {k: f.matrix for k, f in fam.FAMILIES.items() if f.arity == 1}
    ctor = one_param.get(family.replace("-", "_").lower())
    if ctor is None:
        raise ValueError(f"plane supports families {' and '.join(one_param)}, got {family!r}")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    rows = ["param,tangle,linear_entropy"]
    for k in range(steps):
        r = k / (steps - 1)
        rho = ctor(r)
        rows.append(
            f"{r:.17g},{qmath.tangle(rho):.17g},{qmath.linear_entropy(rho):.17g}"
        )
    _write_text(out, "\n".join(rows) + "\n")


@cli.command()
@click.argument("recipe_path")
@click.pass_obj
@_handle_errors
def cost(settings, recipe_path):
    """Print the resource tally of a recipe."""
    try:
        recipe = recipe_io.load_recipe(recipe_path)
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        _fail(EXIT_BAD_INPUT, "recipe-parse", f"{recipe_path}: {exc}")
    _print_cost_table(recipe)


def main():
    cli(prog_name="qforge")


if __name__ == "__main__":
    main()
