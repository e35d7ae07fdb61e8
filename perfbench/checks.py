"""Output checks.  Every reference comes from reference.py, never from qforge.

Tolerances sit above the errors measured on correct outputs and far below
what wrong physics gives (a grid too coarse for the decoherer scores
fidelity 0.47, an entry off by 1e-2 is already a different state):

  closed form (analytic=True) vs target or formula    measured <= 7e-14
  same, near-seam pure targets (1/2 - |D| = 1e-6)      measured <= 4e-10
  grid at n = 2049 vs formula or delay sum             measured <= 2e-9
"""

from __future__ import annotations

import json
import re

import numpy as np

import reference as ref

TOL_CLOSED = 1e-10
TOL_SEAM = 1e-8  # the pure solver's error grows as machine epsilon / (1/2 - |D|)
TOL_GRID = 1e-8
TOL_FAMILY = 1e-12  # `families` output vs the formula: both exact
TOL_FIDELITY = 1e-6  # eigenvalue square roots of rank-deficient states
TOL_TANGLE = 1e-6  # Wootters via eigvals of a non-normal product: ~5e-8 here
TOL_ENTROPY = 1e-12
TOL_BOUNDARY = 1e-7
MIN_FIDELITY = 0.999999  # the threshold given to `verify --min-fidelity`


class CheckFailed(Exception):
    pass


def _fail(name: str, detail: str):
    raise CheckFailed(f"{name}: {detail}")


def close(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> None:
    err = float(np.abs(np.asarray(got) - np.asarray(want)).max())
    if not err <= tol:  # also catches NaN
        _fail(name, f"max |delta rho| = {err:.3e} > {tol:.0e}")


def scores(rho: np.ndarray, target: np.ndarray, fid: float, tangle: float, entropy: float) -> None:
    """qforge's fidelity, tangle and linear entropy of a produced state against
    the independent formulas; the state must lie on or below the MEMS bound."""
    f_ref = ref.fidelity(rho, target)
    if not abs(fid - f_ref) <= TOL_FIDELITY:
        _fail("fidelity", f"qforge {fid!r} vs reference {f_ref!r}")
    c = ref.concurrence(rho)
    if not abs(tangle - c * c) <= TOL_TANGLE:
        _fail("tangle", f"qforge {tangle!r} vs Wootters C^2 {c * c!r}")
    s = ref.linear_entropy(rho)
    if not abs(entropy - s) <= TOL_ENTROPY:
        _fail("linear_entropy", f"qforge {entropy!r} vs reference {s!r}")
    boundary(rho)


def boundary(rho: np.ndarray) -> None:
    c = ref.concurrence(rho)
    s = ref.linear_entropy(rho)
    if not c * c <= ref.mems_boundary(s) + TOL_BOUNDARY:
        _fail("mems_boundary", f"tangle {c * c:.9f} above the bound {ref.mems_boundary(s):.9f}")


def round_trip(first: str, second: str) -> None:
    """serialise -> parse -> serialise must reproduce the bytes."""
    if first != second:
        at = next(i for i, (a, b) in enumerate(zip(first + "\0", second + "\1")) if a != b)
        _fail("recipe_round_trip", f"texts differ from byte {at}")


# ---------------------------------------------------------------------------
# Workload checks; `out` is what the timed operation returned.  A workload
# repeats its targets, so `memo` keeps, per target, what the first output was
# verified to give: the first output gets every check, a repeat must match the
# same references within the same tolerances.


def _same_scores(got: tuple, verified: tuple) -> None:
    for name, a, b, tol in zip(("fidelity", "tangle", "linear_entropy"), got, verified,
                               (TOL_FIDELITY, TOL_TANGLE, TOL_ENTROPY)):
        if not abs(a - b) <= tol:
            _fail(name, f"repeat gives {a!r}, verified {b!r}")


def mixed(t: dict, out: dict, to_json, from_json, memo: dict) -> None:
    tol = TOL_SEAM if t["kind"] == "seam" else TOL_CLOSED
    for scheme, res in out.items():
        close(f"scheme {scheme} vs target", res["rho"], t["rho"], tol)
        got = (res["fidelity"], res["tangle"], res["linear_entropy"])
        if scheme in memo:
            _same_scores(got, memo[scheme])
            continue
        scores(res["rho"], t["rho"], *got)
        text = to_json(res["recipe"])
        round_trip(text, to_json(from_json(text)))
        memo[scheme] = got
        memo.setdefault("recipe_bytes", []).append(len(text.encode()))


def chain(t: dict, out: dict, to_json, from_json, memo: dict) -> None:
    rho = out["rho"]
    if not memo:
        text = to_json(out["recipe"])
        if "text" in t:
            round_trip(t["text"], text)
            refs = {"chain vs delay sum": ref.recipe_rho(json.loads(t["text"]))}
        else:
            round_trip(text, to_json(from_json(text)))
            refs = {
                "family vs formula": ref.family_matrix(t["family"], t["params"]),
                "recipe vs delay sum": ref.recipe_rho(json.loads(text)),
            }
        boundary(rho)
        memo.update(refs=refs, recipe_bytes=[len(text.encode())])
    for name, want in memo["refs"].items():
        close(name, rho, want, TOL_GRID)


def _number_after(label: str, text: str) -> float:
    m = re.search(rf"^{label} (\S+)$", text, re.MULTILINE)
    if m is None:
        _fail("cli_output", f"no '{label}' line in {text!r}")
    return float(m.group(1))


def pipeline(t: dict, steps: dict, files: dict) -> None:
    """A CLI pipeline: exit codes, the files read by the benchmark's own
    matrix reader, and the printed numbers against the references."""
    for cmd, res in steps.items():
        if res["exit"] != 0:
            _fail(f"cli {cmd}", f"exit code {res['exit']}: {res['stderr'].strip()!r}")
    try:
        target_file = ref.read_matrix(files["target.txt"])
        produced = ref.read_matrix(files["produced.txt"])
        doc = json.loads(files["recipe.json"])
    except (ValueError, KeyError) as exc:
        _fail("cli_files", str(exc))
    if "family" in t:
        want = ref.family_matrix(t["family"], t["params"])
        close("families vs formula", target_file, want, TOL_FAMILY)
    else:
        want = t["rho"]
        close("target file", target_file, want, TOL_FAMILY)
    close("produced vs target", produced, want, TOL_GRID)
    close("produced vs delay sum", produced, ref.recipe_rho(doc), TOL_GRID)
    boundary(produced)

    if doc.get("version") != 1 or doc.get("scheme") != t["scheme"]:
        _fail("recipe", f"version {doc.get('version')!r}, scheme {doc.get('scheme')!r}")
    n_branches = len(doc["branches"])
    if f"branches: {n_branches} " not in steps["compile"]["stdout"]:
        _fail("cli compile", f"branch count line {steps['compile']['stdout']!r}")

    fid = _number_after("fidelity", steps["verify"]["stdout"])
    f_ref = ref.fidelity(want, produced)
    if not (fid >= MIN_FIDELITY and abs(fid - f_ref) <= TOL_FIDELITY):
        _fail("cli verify", f"fidelity {fid!r} vs reference {f_ref!r}")

    c = ref.concurrence(produced)
    printed = {k: _number_after(k, steps["metrics"]["stdout"])
               for k in ("tangle", "linear_entropy", "purity")}
    expect = {"tangle": c * c, "linear_entropy": ref.linear_entropy(produced),
              "purity": float(np.trace(produced @ produced).real)}
    for k, v in expect.items():
        if not abs(printed[k] - v) <= 1e-6 + 1e-5 * abs(v):  # printed with 6 digits
            _fail("cli metrics", f"{k} printed {printed[k]!r}, reference {v!r}")

    rows = steps["cost"]["stdout"].split("\n")
    fields = rows[1].split() if len(rows) > 1 else []
    nlc = 2 if t["scheme"] == "II" else 2 * n_branches
    if fields[:2] != [t["scheme"], str(nlc)]:
        _fail("cli cost", f"row {fields!r}, expected scheme {t['scheme']} with {nlc} crystals")

