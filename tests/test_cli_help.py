"""The CLI's help texts, pinned byte for byte: `qforge --help` and each
command's --help, as an 80-column terminal shows them."""

import pytest
from click.testing import CliRunner

from qforge.cli import cli

HELP = {
    '': """\
Usage: qforge [OPTIONS] COMMAND [ARGS]...

  Compile and simulate two-photon polarization mixed-state recipes.

Options:
  --seed INTEGER           Accepted and ignored.
  --delta-n FLOAT          Birefringence n_V - n_H.
  --l-si FLOAT             Photon coherence length [um].
  --pump-wavelength FLOAT  Pump wavelength [nm].
  --help                   Show this message and exit.

Commands:
  compile   Compile a target into a synthesis recipe.
  cost      Print the resource tally of a recipe.
  families  Write a named family state in the shared matrix format.
  metrics   Print tangle, linear entropy and purity of a matrix file.
  plane     Sweep a one-parameter family and tabulate the tangle-entropy...
  simulate  Forward-simulate a recipe and write the traced density matrix.
  verify    Compare two matrix files; exit 1 if fidelity is below the...
""",
    'families': """\
Usage: qforge families [OPTIONS] FAMILY [PARAMS]...

  Write a named family state in the shared matrix format.

  Families: mems R | werner R | collins-gisin LAMBDA THETA | bell-diagonal L1
  L2 L3 L4 | d1 A B C D F.

Options:
  -o, --out TEXT  Output path ('-' for stdout).
  --help          Show this message and exit.
""",
    'compile': """\
Usage: qforge compile [OPTIONS] SCHEME TARGET

  Compile a target into a synthesis recipe.

  TARGET is a matrix file (schemes I, II) or a family spec like 'mems:0.4',
  'werner:0.5', 'collins-gisin:0.5,0.5236', 'd1:0.5,0.5,0.5,0.5,0.8' (scheme
  III) or 'bell-diagonal:0.4,0.3,0.2,0.1' (scheme IV).  The summary and the
  cost table follow unless the recipe goes to stdout.

Options:
  -o, --out TEXT  Recipe output path ('-' for stdout, which then holds the
                  recipe alone).  [required]
  --help          Show this message and exit.
""",
    'simulate': """\
Usage: qforge simulate [OPTIONS] RECIPE_PATH

  Forward-simulate a recipe and write the traced density matrix.

  The simulation is exact for the Gaussian spectrum unless --grid-n is given:
  the closed form where a branch's chain fits it, else the delay sum.

Options:
  -o, --out TEXT    Matrix output path.  [required]
  --grid-n INTEGER  Integrate on a frequency grid of this size (odd, from 3 to
                    1,048,577) instead of the exact default; the grid is an
                    independent check.
  --analytic        Accepted and ignored; each branch's chain picks the exact
                    method.
  --help            Show this message and exit.
""",
    'verify': """\
Usage: qforge verify [OPTIONS] TARGET_PATH PRODUCED_PATH

  Compare two matrix files; exit 1 if fidelity is below the threshold.

Options:
  --min-fidelity FLOAT  [default: 0.999]
  --help                Show this message and exit.
""",
    'metrics': """\
Usage: qforge metrics [OPTIONS] MATRIX_PATH

  Print tangle, linear entropy and purity of a matrix file.

Options:
  --help  Show this message and exit.
""",
    'plane': """\
Usage: qforge plane [OPTIONS] FAMILY STEPS

  Sweep a one-parameter family and tabulate the tangle-entropy plane.

  Families with one parameter, swept over [0, 1] in STEPS points (2 to
  1,000,000).

Options:
  -o, --out TEXT  CSV output path ('-' for stdout).
  --help          Show this message and exit.
""",
    'cost': """\
Usage: qforge cost [OPTIONS] RECIPE_PATH

  Print the resource tally of a recipe.

Options:
  --help  Show this message and exit.
""",
}


@pytest.mark.parametrize("command", HELP, ids=lambda c: c or "qforge")
def test_help_text_is_pinned(command):
    args = [command, "--help"] if command else ["--help"]
    # click wraps help at 2 columns short of an 80-column terminal, which
    # CliRunner replaces with a forced width of 80
    res = CliRunner().invoke(cli, args, prog_name="qforge", terminal_width=78)
    assert res.exit_code == 0
    assert res.stderr == ""
    assert res.stdout == HELP[command]


def test_every_command_has_a_pinned_help():
    assert set(HELP) == {"", *cli.commands}
