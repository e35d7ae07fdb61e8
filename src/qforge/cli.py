"""Command-line frontend.

Examples:

    qforge families werner 0.5 --out werner.txt
    qforge compile I werner.txt --out recipe.json
    qforge compile III mems:0.4 --out mems.json
    qforge compile III mems:0.4 --out - > mems.json
    qforge simulate recipe.json --out produced.txt
    qforge simulate mems.json --out oracle.txt --grid-n 2049
    qforge verify werner.txt produced.txt --min-fidelity 0.999
    qforge metrics produced.txt
    qforge plane mems 101 --out plane.csv
    qforge cost recipe.json

Exit codes: 0 ok, 1 verification failed, 2 bad input (a malformed
command line included: kind usage-error), 3 unsupported scheme/target
pairing, 4 simulation contract violation, 5 internal error (any other
exception: kind internal-error).  They are mapped in one place,
`_EXIT_CODES`, and every error path prints a single
"error: <kind>: <reason>" line to standard error; --help prints to
standard output and exits 0.  `--seed` and `simulate --analytic` are
accepted and ignored: simulate picks each branch's method from its chain.

Each command loads only the qforge layers it runs, and numpy only where
it computes.  cost loads errors and recipe_io alone (home of the records a
recipe holds and of recipe_cost), and no numpy: recipe_io parses and
checks a recipe in Python scalars, and only a scheme-II recipe, whose pump
split pump_splits derives with numpy (its upper_fraction keeps
qmath._norm's bits), adds numpy and qmath.  Every other command loads
errors, qmath, matrix_io and numpy (compile matrix_io only for a file),
and verify and metrics nothing more; families and plane add families;
compile and simulate add compilers, with elements, families, synth_pure,
spectral and recipe_io.  A physical constant set by a flag or
QFORGE_DEFAULTS loads elements (and with it recipe_io and numpy) too.
Loading a layer compiles no generated source: its records are
errors.Record subclasses, which write their methods out, where frozen
dataclasses would generate six each at import (about 7 ms for the
compiler stack's 14).

The env var QFORGE_DEFAULTS may point to a JSON file overriding the
physical constants, e.g. {"delta_n": 0.009, "l_si_um": 100.0,
"pump_wavelength_nm": 351.0}; explicit flags win over the file.  Where one
is set, the group turns them into one SpectralModel, delta_n included,
before any command runs, so a bad constant fails every command; compile
then uses it.  Where none is set, compile takes the compilers' memoized
default model.  Only compilers.compile_target pairs a scheme with a target.

Every --out takes '-' for stdout; compile then writes the recipe alone,
without its summary.
"""

from __future__ import annotations

import os
import re
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

import click

from .errors import DefaultsFile, OutOfRange, QforgeError, RecipeParse, TimingCollision
from .errors import UnsupportedTarget, VerificationFailed, check_finite

if TYPE_CHECKING:
    import numpy as np

MAX_PLANE_STEPS = 10**6  # 200,001 steps took 21.6 s and 77 MB: ~107 us and ~230 B a step

# exception -> exit code, the first matching row wins; any exception outside
# _BAD_INPUT is an internal-error, and click's Exit and Abort (--help) pass through
_BAD_INPUT = (QforgeError, ValueError, TypeError, OSError, click.UsageError)
_EXIT_CODES = (
    (VerificationFailed, 1),
    (TimingCollision, 4),
    (UnsupportedTarget, 3),
    (_BAD_INPUT, 2),
    (Exception, 5),
)


def _slug(exc: BaseException) -> str:
    if isinstance(exc, OSError):
        return "io-error"
    if isinstance(exc, click.UsageError):
        return "usage-error"
    if not isinstance(exc, _BAD_INPUT):
        return "internal-error"
    return re.sub(r"(?<!^)(?=[A-Z])", "-", type(exc).__name__).lower()


def _message(exc: BaseException) -> str:
    if isinstance(exc, click.UsageError):
        hint = f" Try '{exc.ctx.command_path} --help'." if exc.ctx is not None else ""
        return exc.format_message() + hint
    return str(exc) if isinstance(exc, _BAD_INPUT) else f"{type(exc).__name__}: {exc}"


@contextmanager
def _one_line_errors():
    try:
        yield
    except (click.exceptions.Exit, click.Abort):
        raise
    except Exception as exc:
        code = next(c for kinds, c in _EXIT_CODES if isinstance(exc, kinds))
        message = " ".join(_message(exc).split())  # keep it on one line
        click.echo(f"error: {_slug(exc)}: {message}", err=True)
        sys.exit(code)


class _ErrorBoundary(click.Group):
    """Parses the group options, runs the group callback and the command, and
    ends a mapped error in one line.  The group's own usage errors are raised
    while click's main makes the context, before invoke; a subcommand's are
    raised inside invoke."""

    def make_context(self, *args, **kwargs):
        with _one_line_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _one_line_errors():
            return super().invoke(ctx)


def _load_defaults_file() -> dict:
    path = os.environ.get("QFORGE_DEFAULTS")
    if not path:
        return {}
    import json

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, RecursionError, json.JSONDecodeError) as exc:
        raise DefaultsFile(f"cannot read QFORGE_DEFAULTS {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DefaultsFile(f"{path} must hold a JSON object")
    return data


@click.group(cls=_ErrorBoundary, no_args_is_help=False)  # a bare qforge is a usage error
@click.option("--seed", type=int, expose_value=False, help="Accepted and ignored.")
@click.option("--delta-n", type=float, default=None, help="Birefringence n_V - n_H.")
@click.option("--l-si", type=float, default=None, help="Photon coherence length [um].")
@click.option("--pump-wavelength", type=float, default=None, help="Pump wavelength [nm].")
@click.pass_context
def cli(ctx, delta_n, l_si, pump_wavelength):
    """Compile and simulate two-photon polarization mixed-state recipes."""
    # a flag beats the file, which beats default_spectral_model's own default
    flags = {"delta_n": delta_n, "l_si_um": l_si, "pump_wavelength_nm": pump_wavelength}
    file_defaults = _load_defaults_file()
    chosen = {key: file_defaults[key] for key in flags if key in file_defaults}
    chosen.update((key, flag) for key, flag in flags.items() if flag is not None)
    if chosen:  # else ctx.obj stays None, and compile takes the default model
        from .elements import default_spectral_model

        ctx.obj = default_spectral_model(**chosen)


def _write_text(out: str, text: str):
    if out == "-":
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_validated(path: str) -> np.ndarray:
    from . import matrix_io, qmath

    return qmath.validate_density(matrix_io.load_matrix(path))


def _load_recipe(path: str):
    import json

    from .recipe_io import load_recipe

    try:
        return load_recipe(path)
    except (KeyError, TypeError, OverflowError, RecursionError, json.JSONDecodeError) as exc:
        raise RecipeParse(f"{path}: {exc}") from exc


class _FamiliesCommand(click.Command):
    """A command whose help ends with the families of families.FAMILIES,
    loaded only when the help is shown."""

    def format_help_text(self, ctx, formatter):
        from .families import FAMILIES

        super().format_help_text(ctx, formatter)
        usage = " | ".join(
            " ".join((name.replace("_", "-"),) + f.param_names) for name, f in FAMILIES.items()
        )
        formatter.write_paragraph()
        with formatter.indentation():
            formatter.write_text(f"Families: {usage}.")


@cli.command(
    cls=_FamiliesCommand,
    help="Write a named family state in the shared matrix format.",
    context_settings={"ignore_unknown_options": True},  # negative parameters
)
@click.argument("family")
@click.argument("params", nargs=-1)
@click.option("--out", "-o", default="-", help="Output path ('-' for stdout).")
def families(family, params, out):
    from . import families as fam
    from . import matrix_io

    t = fam.FamilyParams(family, params)
    m = fam.FAMILIES[t.kind].matrix(*t.params)
    label = f"{t.kind}({', '.join(f'{p:.6g}' for p in t.params)})"
    _write_text(out, matrix_io.format_matrix(m, comments=(label,)))


def _parse_scheme(s: str) -> str:
    table = {"i": "I", "1": "I", "ii": "II", "2": "II", "iii": "III", "3": "III",
             "iv": "IV", "4": "IV"}
    key = s.lower()
    if key not in table:
        raise ValueError(f"unknown scheme {s!r}; use I, II, III or IV")
    return table[key]


def _parse_target(target: str):
    """Return a FamilyParams, or the Path of the matrix file."""
    from . import families as fam

    if ":" in target:
        name, _, rest = target.partition(":")
        try:
            return fam.FamilyParams(name, [x for x in rest.split(",") if x.strip()])
        except UnsupportedTarget:
            pass  # not a family name: a path holding ':'
    return Path(target)


def _print_cost_table(recipe):
    from .recipe_io import recipe_cost

    cost = recipe_cost(recipe)
    click.echo("scheme  NLC  other-optics  controllable-params")
    click.echo(
        f"{recipe.scheme:<7} {cost.nlc:<4} {cost.other_optics:<13} {cost.controllable_params}"
    )


@cli.command(name="compile")
@click.argument("scheme")
@click.argument("target")
@click.option("--out", "-o", required=True,
              help="Recipe output path ('-' for stdout, which then holds the recipe alone).")
@click.pass_obj
def compile_cmd(sm, scheme, target, out):
    """Compile a target into a synthesis recipe.

    TARGET is a matrix file (schemes I, II) or a family spec like
    'mems:0.4', 'werner:0.5', 'collins-gisin:0.5,0.5236',
    'd1:0.5,0.5,0.5,0.5,0.8' (scheme III) or
    'bell-diagonal:0.4,0.3,0.2,0.1' (scheme IV).  The summary and the
    cost table follow unless the recipe goes to stdout.
    """
    from .compilers import compile_target
    from .recipe_io import recipe_to_json

    recipe = compile_target(_parse_scheme(scheme), _parse_target(target), sm)
    _write_text(out, recipe_to_json(recipe))
    if out == "-":
        return
    weights = " ".join(f"{b.weight:.6g}" for b in recipe.branches)
    click.echo(f"branches: {len(recipe.branches)}  weights: {weights}")
    _print_cost_table(recipe)


@cli.command()
@click.argument("recipe_path")
@click.option("--out", "-o", required=True, help="Matrix output path.")
@click.option("--grid-n", type=int, default=None,
              help="Integrate on a frequency grid of this size (odd, from 3 to 1,048,577) "
                   "instead of the exact default; the grid is an independent check.")
@click.option("--analytic", is_flag=True, expose_value=False,
              help="Accepted and ignored; each branch's chain picks the exact method.")
def simulate(recipe_path, out, grid_n):
    """Forward-simulate a recipe and write the traced density matrix.

    The simulation is exact for the Gaussian spectrum unless --grid-n is given:
    the closed form where a branch's chain fits it, else the delay sum.
    """
    from . import matrix_io
    from .compilers import simulate_recipe

    recipe = _load_recipe(recipe_path)
    rho = simulate_recipe(recipe, grid_n=grid_n)
    comments = (f"simulated scheme {recipe.scheme} recipe from {recipe_path}",)
    _write_text(out, matrix_io.format_matrix(rho, comments=comments))


def _echo_metrics(label: str, rho: np.ndarray):
    from . import qmath

    click.echo(
        f"{label}: tangle {qmath.tangle(rho):.6g}  "
        f"linear_entropy {qmath.linear_entropy(rho):.6g}  "
        f"purity {qmath.purity(rho):.6g}"
    )


@cli.command()
@click.argument("target_path")
@click.argument("produced_path")
@click.option("--min-fidelity", type=float, default=0.999, show_default=True)
def verify(target_path, produced_path, min_fidelity):
    """Compare two matrix files; exit 1 if fidelity is below the threshold."""
    check_finite(min_fidelity=min_fidelity)
    if not 0.0 <= min_fidelity <= 1.0:
        raise OutOfRange(f"--min-fidelity {min_fidelity:.9g} must lie in [0, 1]")
    from . import qmath

    target = _load_validated(target_path)
    produced = _load_validated(produced_path)
    f = qmath.fidelity(target, produced)
    click.echo(f"fidelity {f:.9g}")
    _echo_metrics("target", target)
    _echo_metrics("produced", produced)
    if f < min_fidelity:
        raise VerificationFailed(f"fidelity {f:.9g} < {min_fidelity:.9g}")


@cli.command()
@click.argument("matrix_path")
def metrics(matrix_path):
    """Print tangle, linear entropy and purity of a matrix file."""
    from . import qmath

    rho = _load_validated(matrix_path)
    click.echo(f"tangle {qmath.tangle(rho):.6g}")
    click.echo(f"linear_entropy {qmath.linear_entropy(rho):.6g}")
    click.echo(f"purity {qmath.purity(rho):.6g}")


@cli.command()
@click.argument("family")
@click.argument("steps", type=int)
@click.option("--out", "-o", default="-", help="CSV output path ('-' for stdout).")
def plane(family, steps, out):
    """Sweep a one-parameter family and tabulate the tangle-entropy plane.

    Families with one parameter, swept over [0, 1] in STEPS points (2 to 1,000,000).
    """
    from . import families as fam
    from . import qmath

    one_param = {k: f.matrix for k, f in fam.FAMILIES.items() if f.arity == 1}
    ctor = one_param.get(family.replace("-", "_").lower())
    if ctor is None:
        raise ValueError(f"plane supports families {' and '.join(one_param)}, got {family!r}")
    if not 2 <= steps <= MAX_PLANE_STEPS:
        raise OutOfRange(f"steps must be from 2 to {MAX_PLANE_STEPS}, got {steps}")
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
def cost(recipe_path):
    """Print the resource tally of a recipe."""
    _print_cost_table(_load_recipe(recipe_path))


def main():
    cli(prog_name="qforge")


if __name__ == "__main__":
    main()
