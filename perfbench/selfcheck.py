"""Self-check of the checks: each must pass a genuine output and reject the
same output perturbed on purpose, both as a target's first output and as a
repeat checked against what the first one verified.  A check that cannot
fail proves nothing.

    python3 perfbench/selfcheck.py     prints one line per case, exits 1 on a miss

run.py runs this after every measurement and refuses to report on failure.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import qforge.cli  # noqa: E402
import qforge.compilers as comp  # noqa: E402
import qforge.recipe_io as rio  # noqa: E402
from click.testing import CliRunner  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


def _flip_phase(rho: np.ndarray) -> np.ndarray:
    """Negate the largest off-diagonal pair: a pi phase on one coherence."""
    off = np.abs(rho - np.diag(np.diag(rho)))
    j, k = np.unravel_index(np.argmax(off), off.shape)
    out = rho.copy()
    out[j, k] *= -1.0
    out[k, j] *= -1.0
    return out


def _drop_branch(recipe) -> np.ndarray:
    rest = recipe.branches[1:]
    total = sum(b.weight for b in rest)
    branches = tuple(dataclasses.replace(b, weight=b.weight / total) for b in rest)
    return comp.simulate_recipe(dataclasses.replace(recipe, branches=branches), analytic=True)


def _mixed_cases(rng):
    t = {"kind": "rank4", "rho": workloads.random_mixed(rng, 4)}
    out = workloads.run_mixed(t)

    def check(o, memo):
        checks.mixed(t, o, rio.recipe_to_json, rio.recipe_from_json, memo)

    def with_result(field, value):
        o = copy.copy(out)
        o["I"] = dict(out["I"], **{field: value})
        return o

    res = out["I"]
    yield "mixed: scheme I/II output vs target", check, out, {
        "flipped off-diagonal phase": with_result("rho", _flip_phase(res["rho"])),
        "dropped branch": with_result("rho", _drop_branch(res["recipe"])),
    }
    yield "mixed: fidelity, tangle, linear entropy", check, out, {
        "fidelity off by 1e-4": with_result("fidelity", res["fidelity"] - 1e-4),
        "tangle off by 1e-4": with_result("tangle", res["tangle"] + 1e-4),
        "linear entropy off by 1e-9": with_result("linear_entropy", res["linear_entropy"] + 1e-9),
    }
    text = rio.recipe_to_json(res["recipe"])
    yield "recipe serialise -> parse -> serialise", lambda s, _: checks.round_trip(text, s), text, {
        "one digit changed": text.replace("0", "1", 1),
    }
    bell = ref.proj(ref.BELL["phi+"])
    yield "tangle-entropy MEMS bound", lambda rho, _: checks.boundary(rho), bell, {
        "branch counted with weight 1.2": 1.2 * bell,
    }


def _chain_cases(rng):
    fam = {"kind": "mems", "family": "mems", "params": (0.4,)}
    chain = workloads.random_chain(rng, 4)
    for t in (fam, chain):
        out = workloads.run_chain(t)
        coarse = dict(out, rho=comp.simulate_recipe(out["recipe"], grid_n=3))
        flipped = dict(out, rho=_flip_phase(out["rho"]))

        def check(o, memo, t=t):
            checks.chain(t, o, rio.recipe_to_json, rio.recipe_from_json, memo)

        yield f"decoherer_chains: {t['kind']} vs formula and delay sum", check, out, {
            "grid too coarse for the decoherer (n = 3)": coarse,
            "flipped off-diagonal phase": flipped,
        }


def _cli_pipeline(t: dict, workdir: Path, extra: dict | None = None) -> tuple[dict, dict]:
    """The pipeline run in this process through click's test runner."""
    runner = CliRunner()
    workloads.prepare_pipeline(t, workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        steps = {}
        for cmd, args in workloads.pipeline_steps(t):
            args = args + (extra or {}).get(cmd, [])
            r = runner.invoke(qforge.cli.cli, args)
            steps[cmd] = {"exit": r.exit_code, "stdout": r.stdout, "stderr": r.stderr}
        files = {n: (workdir / n).read_text() for n in ("target.txt", "recipe.json", "produced.txt")}
    finally:
        os.chdir(cwd)
    return steps, files


def _cli_cases(workdir: Path):
    t = {"kind": "III-mems", "scheme": "III", "family": "mems", "params": (0.4,)}
    steps, files = _cli_pipeline(t, workdir)

    def check(sf, _):
        checks.pipeline(t, *sf)

    def edit(cmd=None, file=None, **change):
        s, f = copy.deepcopy(steps), dict(files)
        if cmd:
            s[cmd].update(change)
        if file:
            f[file] = change["text"]
        return s, f

    coarse = _cli_pipeline(t, workdir / "coarse", {"simulate": ["--grid-n", "3"]})
    other_r = ref.write_matrix(ref.mems(0.41))
    yield "cli_pipeline: exit codes, files, printed numbers", check, (steps, files), {
        "verify exits 1": edit("verify", exit=1),
        "produced file with 15 entries": edit(
            file="produced.txt", text="\n".join(files["produced.txt"].splitlines()[:-1]) + "\n"
        ),
        "simulate --grid-n 3, pipeline as run": coarse,
        "simulate --grid-n 3 output, all exits 0": edit(
            file="produced.txt", text=coarse[1]["produced.txt"]
        ),
        "families writes mems(0.41) for mems:0.4": edit(file="target.txt", text=other_r),
        "verify prints fidelity 0.467": edit("verify", stdout="fidelity 0.467\n"),
        "metrics tangle off by 1e-3": edit(
            "metrics",
            stdout=re.sub(r"^tangle (\S+)$", lambda m: f"tangle {float(m.group(1)) + 1e-3:.6g}",
                          steps["metrics"]["stdout"], flags=re.MULTILINE),
        ),
        "cost reports 4 crystals": edit(
            "cost", stdout=steps["cost"]["stdout"].replace("III     2 ", "III     4 ")
        ),
    }


def run(workdir: Path) -> tuple[list[str], list[str]]:
    """One line per rejected perturbation, and the misses: genuine outputs
    rejected or perturbed ones passed."""
    rng = np.random.default_rng(20240)
    misses = []
    report = []
    cases = [*_mixed_cases(rng), *_chain_cases(rng), *_cli_cases(workdir)]
    for name, check, good, bad in cases:
        verified = {}  # as left by the genuine output: the path a repeat takes
        try:
            check(good, verified)
        except checks.CheckFailed as exc:
            misses.append(f"{name}: genuine output rejected ({exc})")
        for label, out in bad.items():
            for path, memo in (("first", {}), ("repeat", copy.deepcopy(verified))):
                try:
                    check(out, memo)
                except checks.CheckFailed as exc:
                    report.append(f"rejects {label:<42} as {path:<6} [{name}] {exc}")
                else:
                    misses.append(f"{name}: accepted a perturbed output ({label}, {path})")
    return report, misses


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        report, misses = run(Path(tmp))
    print("\n".join(report))
    for m in misses:
        print(f"MISS {m}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
