"""Seeded inputs and the timed operation of each workload.

A workload is a list of rounds; every round holds the same mix of target
kinds, so call counts per target repeat exactly whatever the seed and however
many rounds a run completes.  qforge functions are looked up on their modules
at call time, so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import math
import os
import subprocess
import time
from pathlib import Path

import numpy as np
import qforge.compilers as comp
import qforge.qmath as qm
import qforge.recipe_io as rio

import checks
import reference as ref

WORKLOADS = ("mixed_targets", "decoherer_chains", "cli_pipeline")
# distinct targets per in-process run, cycled: enough that the 99th
# percentile over targets has ten beyond it
POOL_TARGETS = 1100
SEAM_GAP = 1e-6  # 1/2 - |D| of the near-seam pure targets


def _state(rng, n=4) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _unitary(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _det(psi) -> complex:
    return psi[0] * psi[3] - psi[1] * psi[2]


def random_mixed(rng, rank: int) -> np.ndarray:
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def seam_state(rng, gap: float = SEAM_GAP) -> np.ndarray:
    """Pure state with 1/2 - |D| = gap: a locally rotated Bell state tilted
    toward an orthogonal random state, the tilt found by bisection."""
    bell = np.kron(_unitary(rng), _unitary(rng)) @ ref.BELL["phi+"]
    other = _state(rng)
    other -= np.vdot(bell, other) * bell
    other /= np.linalg.norm(other)
    lo, hi = 0.0, math.pi / 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abs(_det(math.cos(mid) * bell + math.sin(mid) * other)) > 0.5 - gap:
            lo = mid
        else:
            hi = mid
    psi = math.cos(lo) * bell + math.sin(lo) * other
    return psi / np.linalg.norm(psi)


def _pure_target(kind: str, psi) -> dict:
    return {"kind": kind, "rho": ref.proj(psi)}


def mixed_round(rng) -> list[dict]:
    """16 targets: ranks 4, 3, 2 and 1, the rank-1 share spanning the three
    pure-solver branches (product, maximal, generic incl. near-seam)."""
    out = [{"kind": f"rank{r}", "rho": random_mixed(rng, r)} for r in (4, 4, 4, 4, 3, 3, 3, 2, 2, 2)]
    out += [_pure_target("rank1", _state(rng)) for _ in range(3)]
    out.append(_pure_target("product", np.kron(_state(rng, 2), _state(rng, 2))))
    out.append(
        _pure_target("bell", np.kron(_unitary(rng), _unitary(rng)) @ ref.BELL["phi+"])
    )
    out.append(_pure_target("seam", seam_state(rng)))
    return out


def _bell_weights(rng, swapped: bool) -> list[float]:
    """Dirichlet(1,1,1,1) weights, drawn until the scheme-IV split is (not)
    swapped, so every round holds the same split kinds."""
    while True:
        w = rng.dirichlet(np.ones(4))
        if (abs(w[2] - w[3]) > 0.5) == swapped:
            return [float(x) for x in w]


def random_chain(rng, n_decoherers: int) -> dict:
    """Pure seed, then (local unitaries, decoherer) pairs on random arms,
    lengths uniform in [0, floor + 8 dephasing lengths]."""
    stages = []
    for _ in range(n_decoherers):
        stages.append({"kind": "local_unitary", "u_a": _unitary(rng), "u_b": _unitary(rng)})
        stages.append(
            {
                "kind": "decoherer",
                "arm": "AB"[int(rng.integers(2))],
                "length_um": float(rng.uniform(0.0, ref.FLOOR_UM + 8.0 * ref.DEPHASING_UM)),
                "delta_n": ref.DELTA_N,
                "axis": "V",
            }
        )
    return {"kind": f"chain{n_decoherers}", "text": ref.chain_recipe_json(_state(rng), stages)}


def _d1_params(rng) -> tuple:
    amps = rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    f = float(rng.uniform(0.05, 0.95) * rng.choice([-1.0, 1.0]))
    return tuple(float(a) for a in amps) + (f,)


def chains_round(rng) -> list[dict]:
    """12 targets: the scheme-III families (MEMS on both branches, Werner,
    Collins-Gisin, d1), three scheme-IV Bell-diagonal splits (one swapped)
    and four multi-stage chains given as recipe-v1 text."""
    fams = [
        ("mems", (float(rng.uniform(0.7, 1.0)),)),
        ("mems", (float(rng.uniform(0.05, 0.6)),)),
        ("werner", (float(rng.uniform(0.05, 0.95)),)),
        ("collins_gisin", (float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.2, 1.3)))),
        ("d1", _d1_params(rng)),
    ]
    out = [{"kind": k, "family": k, "params": p} for k, p in fams]
    for swapped in (False, False, True):
        out.append({"kind": "bell_diagonal", "family": "bell_diagonal",
                    "params": tuple(_bell_weights(rng, swapped))})
    out += [random_chain(rng, k) for k in (2, 3, 3, 4)]
    return out


def cli_round(rng) -> list[dict]:
    """Seven pipelines covering schemes I-IV.  Matrix targets are files the
    benchmark writes; family targets go through `families` first."""
    # MEMS on both branches, each on a fixed one: the matrix's rank, and so the
    # number of branches, differs between them
    r = [float(x) for x in rng.uniform((0.1, 0.1, 0.7, 0.1), (0.95, 0.6, 0.95, 0.95))]
    return [
        {"kind": "I-random", "scheme": "I", "rho": random_mixed(rng, 4)},
        {"kind": "II-random", "scheme": "II", "rho": random_mixed(rng, 2)},
        {"kind": "I-werner", "scheme": "I", "rho": ref.werner(r[0])},
        {"kind": "II-mems", "scheme": "II", "rho": ref.mems(r[1])},
        {"kind": "III-mems", "scheme": "III", "family": "mems", "params": (r[2],)},
        {"kind": "III-werner", "scheme": "III", "family": "werner", "params": (r[3],)},
        {"kind": "IV-bell-diagonal", "scheme": "IV", "family": "bell_diagonal",
         "params": tuple(_bell_weights(rng, False))},
    ]


def make_rounds(workload: str, seed: int, targets: int = POOL_TARGETS) -> list[list[dict]]:
    """Whole rounds holding at least `targets` targets; the CLI workload
    repeats its one round of files."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "cli_pipeline":
        return [cli_round(rng)]
    make = mixed_round if workload == "mixed_targets" else chains_round
    rounds = [make(rng)]
    while len(rounds) * len(rounds[0]) < targets:
        rounds.append(make(rng))
    return rounds


# ---------------------------------------------------------------------------
# In-process operations


def run_mixed(t: dict) -> dict:
    rho = t["rho"]
    out = {}
    for name, compile_fn in (("I", comp.compile_scheme1), ("II", comp.compile_scheme2)):
        recipe = compile_fn(rho)
        produced = comp.simulate_recipe(recipe, analytic=True)
        out[name] = {
            "recipe": recipe,
            "rho": produced,
            "fidelity": qm.fidelity(produced, rho),
            "tangle": qm.tangle(produced),
            "linear_entropy": qm.linear_entropy(produced),
        }
    return out


def compile_family(t: dict):
    if t["family"] == "bell_diagonal":
        return comp.compile_scheme4_bell_diagonal(*t["params"])
    return comp.compile_scheme3(comp.FamilyParams(t["family"], t["params"]))


def run_chain(t: dict) -> dict:
    if "text" in t:
        recipe = rio.recipe_from_json(t["text"])
    else:
        recipe = compile_family(t)
    return {"recipe": recipe, "rho": comp.simulate_recipe(recipe)}


# ---------------------------------------------------------------------------
# CLI pipelines


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def pipeline_steps(t: dict) -> list[tuple[str, list[str]]]:
    steps = []
    if "family" in t:
        name = t["family"].replace("_", "-")
        steps.append(("families", ["families", name, *map(repr, t["params"]), "--out", "target.txt"]))
        spec = f"{name}:" + ",".join(map(repr, t["params"]))
    else:
        spec = "target.txt"
    steps += [
        ("compile", ["compile", t["scheme"], spec, "--out", "recipe.json"]),
        ("simulate", ["simulate", "recipe.json", "--out", "produced.txt"]),
        ("verify", ["verify", "target.txt", "produced.txt", "--min-fidelity", repr(checks.MIN_FIDELITY)]),
        ("metrics", ["metrics", "produced.txt"]),
        ("cost", ["cost", "recipe.json"]),
    ]
    return steps


def prepare_pipeline(t: dict, workdir: Path) -> None:
    """Untimed input: the target file of a matrix target; clear old outputs."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name in ("target.txt", "recipe.json", "produced.txt"):
        (workdir / name).unlink(missing_ok=True)
    if "rho" in t:
        (workdir / "target.txt").write_text(ref.write_matrix(t["rho"], t["kind"]))


def run_process(argv: list[str], cwd: Path, env: dict, tag: str) -> dict:
    """Run one child to completion; wall time and peak RSS from wait4."""
    out_path, err_path = cwd / f"{tag}.out", cwd / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text(),
    }

