"""Physics computed apart from qforge: the references the benchmark checks against.

Nothing here imports qforge.  States use the basis {HH, HV, VH, VV}; photon A
is the first factor.  Family matrices follow the paper's definitions, chains
are evaluated as a Gaussian delay sum, and concurrence comes from the
eigenvalues of rho (sy x sy) rho* (sy x sy).
"""

from __future__ import annotations

import json
import math

import numpy as np

C_UM_PER_S = 2.99792458e14
DELTA_N = 0.009
L_SI_UM = 100.0
PUMP_NM = 351.0
DELTA_EPS = C_UM_PER_S / L_SI_UM  # Gaussian half-width of the pair spectrum
OMEGA = 2.0 * math.pi * C_UM_PER_S / (PUMP_NM * 1e-3)
DEPHASING_UM = C_UM_PER_S / (DELTA_EPS * DELTA_N)
FLOOR_UM = 10.0 * DEPHASING_UM

_POL = {"A": np.array([0, 0, 1, 1]), "B": np.array([0, 1, 0, 1])}
_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)

S2 = 1.0 / math.sqrt(2.0)
BELL = {
    "phi+": np.array([S2, 0, 0, S2], dtype=complex),
    "phi-": np.array([S2, 0, 0, -S2], dtype=complex),
    "psi+": np.array([0, S2, S2, 0], dtype=complex),
    "psi-": np.array([0, S2, -S2, 0], dtype=complex),
}


def proj(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# Target families, from the paper's definitions


def mems(c: float) -> np.ndarray:
    """Maximally entangled mixed state of concurrence c; g(c) = c/2 or 1/3."""
    g = c / 2.0 if c >= 2.0 / 3.0 else 1.0 / 3.0
    m = np.diag([g, 1.0 - 2.0 * g, 0.0, g]).astype(complex)
    m[0, 3] = m[3, 0] = c / 2.0
    return m


def werner(r: float) -> np.ndarray:
    return r * proj(BELL["phi+"]) + (1.0 - r) * np.eye(4) / 4.0


def collins_gisin(lam: float, theta: float) -> np.ndarray:
    psi = np.array([math.cos(theta), 0, 0, math.sin(theta)], dtype=complex)
    return lam * proj(psi) + (1.0 - lam) * proj([0, 1, 0, 0])


def family_d1(a, b, c, d, f) -> np.ndarray:
    """Pure state (a, b, c, d) whose HH-VV coherence is scaled by f."""
    amps = np.array([a, b, c, d], dtype=complex)
    m = np.diag(np.abs(amps) ** 2).astype(complex)
    m[0, 3] = f * amps[0] * np.conj(amps[3])
    m[3, 0] = np.conj(m[0, 3])
    return m


def bell_diagonal(*weights) -> np.ndarray:
    """sum_k w_k |B_k><B_k| over (phi+, phi-, psi+, psi-)."""
    return sum(w * proj(BELL[k]) for w, k in zip(weights, ("phi+", "phi-", "psi+", "psi-")))


FAMILIES = {
    "mems": mems, "werner": werner, "collins_gisin": collins_gisin,
    "d1": family_d1, "bell_diagonal": bell_diagonal,
}


def family_matrix(kind: str, params) -> np.ndarray:
    return FAMILIES[kind](*params)


# ---------------------------------------------------------------------------
# Entanglement and mixedness


def concurrence(rho: np.ndarray) -> float:
    """Wootters: C = max(0, l1 - l2 - l3 - l4), l_i the square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy), in decreasing order."""
    ev = np.linalg.eigvals(rho @ _YY @ rho.conj() @ _YY)
    lam = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def linear_entropy(rho: np.ndarray) -> float:
    return float(4.0 / 3.0 * (1.0 - np.trace(rho @ rho).real))


def mems_boundary(s: float) -> float:
    """Largest tangle at linear entropy s, traced by mems(c), c in [0, 1].

    For c >= 2/3, s = 8c(1 - c)/3; for c <= 2/3, s = 8/9 - 2c^2/3; no
    entangled state exists beyond s = 8/9.
    """
    if s <= 16.0 / 27.0:
        c = 0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - 1.5 * s))
    elif s <= 8.0 / 9.0:
        c = math.sqrt(1.5 * (8.0 / 9.0 - s))
    else:
        c = 0.0
    return c * c


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (sum_i sqrt(mu_i))^2, mu_i the eigenvalues of
    sqrt(rho) sigma sqrt(rho)."""
    w, v = np.linalg.eigh(rho)
    sq = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    mu = np.linalg.eigvalsh(sq @ sigma @ sq)
    return float(np.sum(np.sqrt(np.clip(mu, 0.0, None))) ** 2)


# ---------------------------------------------------------------------------
# Chains: exact Gaussian delay sum


def seed_vector(seed: dict) -> np.ndarray:
    """Recipe-v1 seed: source angles or direct amplitudes."""
    if "theta" in seed:
        t, p = seed["theta"], seed["phi"]
        return np.array([math.cos(t), 0, 0, np.exp(1j * p) * math.sin(t)], dtype=complex)
    return np.array([complex(re, im) for re, im in seed["amps"]])


def _mat(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def chain_rho(psi: np.ndarray, stages: list[dict], delta_eps: float, omega: float) -> np.ndarray:
    """rho = sum_pq exp(-(delta_eps (t_p - t_q))^2 / 2) v_p v_q^dag.

    Each term is a 4-vector v tagged with its delay t (the eps-linear part of
    its phase).  A decoherer of length L on arm A gives V light the phase
    dn L (omega/2 + eps) / c; arm B sees omega/2 - eps.  The base index adds
    the same phase to every term and is left out.
    """
    terms = [(0.0, np.asarray(psi, dtype=complex))]
    for st in stages:
        if st["kind"] == "local_unitary":
            u4 = np.kron(_mat(st["u_a"]), _mat(st["u_b"]))
            terms = [(t, u4 @ v) for t, v in terms]
            continue
        pol = _POL[st["arm"]]
        dl = st["delta_n"] * st["length_um"] / C_UM_PER_S
        sign = 1.0 if st["arm"] == "A" else -1.0
        split = []
        for t, v in terms:
            split.append((t, np.where(pol == 0, v, 0)))
            split.append((t + sign * dl, np.where(pol == 1, v, 0) * np.exp(0.5j * omega * dl)))
        terms = split
    t = np.array([x[0] for x in terms])
    vecs = np.array([x[1] for x in terms])
    kernel = np.exp(-0.5 * (delta_eps * (t[:, None] - t[None, :])) ** 2)
    return vecs.T @ kernel @ vecs.conj()


def recipe_rho(doc: dict) -> np.ndarray:
    """Delay-sum simulation of a parsed recipe-v1 document."""
    sm = doc["spectral_model"]
    rho = np.zeros((4, 4), dtype=complex)
    for b in doc["branches"]:
        rho += b["weight"] * chain_rho(
            seed_vector(b["seed"]), b["stages"], sm["delta_eps"], sm["omega"]
        )
    return rho


# ---------------------------------------------------------------------------
# File formats


def _cpairs(m) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).reshape(-1)]


def chain_recipe_json(seed_amps, stages: list[dict]) -> str:
    """Recipe-v1 text for one weight-1 branch, with the default spectral model."""
    out_stages = []
    for st in stages:
        if st["kind"] == "local_unitary":
            out_stages.append(
                {
                    "kind": "local_unitary",
                    "u_a": [_cpairs(r) for r in st["u_a"]],
                    "u_b": [_cpairs(r) for r in st["u_b"]],
                }
            )
        else:
            out_stages.append(dict(st))
    doc = {
        "version": 1,
        "scheme": "III",
        "spectral_model": {"delta_eps": DELTA_EPS, "omega": OMEGA, "delta_n": DELTA_N},
        "branches": [
            {"weight": 1.0, "timing_tag": 1, "seed": {"amps": _cpairs(seed_amps)},
             "stages": out_stages}
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_matrix(m: np.ndarray, comment: str = "") -> str:
    """The 16-line 're im' matrix format, row-major, 17 significant digits."""
    lines = [f"# {comment}"] if comment else []
    lines += [f"{z.real:.17g} {z.imag:.17g}" for z in np.asarray(m, dtype=complex).reshape(-1)]
    return "\n".join(lines) + "\n"


def read_matrix(text: str) -> np.ndarray:
    vals = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        re_s, im_s = line.split()
        vals.append(complex(float(re_s), float(im_s)))
    if len(vals) != 16:
        raise ValueError(f"matrix file holds {len(vals)} entries, not 16")
    return np.array(vals).reshape(4, 4)
