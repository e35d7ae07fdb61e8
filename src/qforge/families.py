"""Constructors for the named two-qubit state families used as targets.

All constructors return validated density matrices with real nonnegative
off-diagonal elements (the free phase of those entries is set to zero).
FAMILIES is the one table of families: the CLI and the compilers read
names, parameter counts, constructors and scheme-III seeds from it.
FamilyParams is a family target, checked once where it is built.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import BadF, BadNorm, BadWeights, OutOfRange, Record, UnsupportedTarget, check_finite
from .qmath import validate_density

MEMS_BRANCH_SPLIT = 2.0 / 3.0  # branches coincide at r = 2/3
ROUND_OFF_TOL = 1e-12  # a Bell weight, weight sum, |f| or entropy this far past its bound
AMPS_NORM_TOL = 1e-9  # d1 amplitudes: |a|^2 + .. + |d|^2 this close to 1


def _check_unit_interval(name: str, x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise OutOfRange(f"{name} = {x} outside [0, 1]")


def mems(r: float) -> np.ndarray:
    """Maximally entangled mixed state with concurrence r.

    Branch I applies for r >= 2/3, branch II for r <= 2/3; the two agree
    at the split.
    """
    _check_unit_interval("r", r)
    m = np.zeros((4, 4), dtype=complex)
    if r >= MEMS_BRANCH_SPLIT:
        m[0, 0] = m[3, 3] = r / 2.0
        m[1, 1] = 1.0 - r
    else:
        m[0, 0] = m[1, 1] = m[3, 3] = 1.0 / 3.0
    m[0, 3] = m[3, 0] = r / 2.0
    return validate_density(m)


def werner(r: float) -> np.ndarray:
    """r |Phi+><Phi+| + (1 - r) I/4."""
    _check_unit_interval("r", r)
    m = np.diag([(1.0 + r) / 4.0, (1.0 - r) / 4.0, (1.0 - r) / 4.0, (1.0 + r) / 4.0]).astype(
        complex
    )
    m[0, 3] = m[3, 0] = r / 2.0
    return validate_density(m)


def collins_gisin(lam: float, theta: float) -> np.ndarray:
    """lam |psi_theta><psi_theta| + (1 - lam)|HV><HV| with
    psi_theta = cos(theta)|HH> + sin(theta)|VV>."""
    _check_unit_interval("lambda", lam)
    check_finite(theta=theta)
    ct, st = math.cos(theta), math.sin(theta)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = lam * ct * ct
    m[1, 1] = 1.0 - lam
    m[3, 3] = lam * st * st
    m[0, 3] = m[3, 0] = lam * ct * st
    return validate_density(m)


def bell_weights(l1: float, l2: float, l3: float, l4: float) -> np.ndarray:
    """Bell-diagonal weights as an array, checked nonnegative and summing
    to one; round-off negatives down to -ROUND_OFF_TOL are clipped to zero."""
    lam = np.array([l1, l2, l3, l4], dtype=float)
    if lam.min() < -ROUND_OFF_TOL:
        raise BadWeights(f"negative weight in {lam.tolist()}")
    if not abs(lam.sum() - 1.0) <= ROUND_OFF_TOL:  # NaN fails too
        raise BadWeights(f"weights sum to {lam.sum()}, not 1")
    return np.clip(lam, 0.0, None)


def bell_diagonal(l1: float, l2: float, l3: float, l4: float) -> np.ndarray:
    """Mixture of the four Bell states with the given weights."""
    lam = bell_weights(l1, l2, l3, l4)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = (lam[0] + lam[1]) / 2.0
    m[1, 1] = m[2, 2] = (lam[2] + lam[3]) / 2.0
    m[0, 3] = m[3, 0] = (lam[0] - lam[1]) / 2.0
    m[1, 2] = m[2, 1] = (lam[2] - lam[3]) / 2.0
    return validate_density(m)


def _check_d1(a: complex, b: complex, c: complex, d: complex, f: complex) -> np.ndarray:
    """Amplitudes (a, b, c, d) renormalized, after checking that their norm
    is 1 to AMPS_NORM_TOL and that |f| <= 1."""
    amps = np.array([a, b, c, d], dtype=complex)
    norm2 = float(np.sum(np.abs(amps) ** 2))
    if not abs(norm2 - 1.0) <= AMPS_NORM_TOL:  # NaN fails too
        raise BadNorm(f"|a|^2+..+|d|^2 = {norm2} differs from 1")
    if not abs(complex(f)) <= 1.0 + ROUND_OFF_TOL:
        raise BadF(f"|f| = {abs(complex(f))} is not at most 1")
    return amps / math.sqrt(norm2)


def family_d1(a: complex, b: complex, c: complex, d: complex, f: complex) -> np.ndarray:
    """Single-decoherence-stage family: diagonal (|a|^2 ... |d|^2) with the
    HH<->VV coherence reduced by the factor f.

    |f| <= 1 guarantees positivity (|f a d*| <= |a||d|), so only the input
    norm can fail.
    """
    amps = _check_d1(a, b, c, d, f)
    m = np.diag(np.abs(amps) ** 2).astype(complex)
    m[0, 3] = complex(f) * amps[0] * np.conjugate(amps[3])
    m[3, 0] = np.conjugate(m[0, 3])
    return validate_density(m)


# Scheme-III seeds: amplitudes entering the single decoherence stage and the
# real (signed) decoherence factor that turns them into the family state.


def _mems_seed(r: float) -> tuple[np.ndarray, float]:
    _check_unit_interval("r", r)
    if r >= MEMS_BRANCH_SPLIT:
        return np.array([math.sqrt(r / 2.0), math.sqrt(1.0 - r), 0.0, math.sqrt(r / 2.0)]), 1.0
    third = math.sqrt(1.0 / 3.0)
    return np.array([third, third, 0.0, third]), 1.5 * r


def _werner_seed(r: float) -> tuple[np.ndarray, float]:
    _check_unit_interval("r", r)
    hi = math.sqrt((1.0 + r) / 4.0)
    lo = math.sqrt((1.0 - r) / 4.0)
    return np.array([hi, lo, lo, hi]), 2.0 * r / (1.0 + r)


def _collins_gisin_seed(lam: float, theta: float) -> tuple[np.ndarray, float]:
    _check_unit_interval("lambda", lam)
    check_finite(theta=theta)
    rl = math.sqrt(lam)
    return np.array([rl * math.cos(theta), math.sqrt(1.0 - lam), 0.0, rl * math.sin(theta)]), 1.0


def _d1_seed(a: float, b: float, c: float, d: float, f: float) -> tuple[np.ndarray, float]:
    _check_d1(a, b, c, d, f)
    return np.array([a, b, c, d]), f


class Family(Record):
    """A named family: its parameter names (their count is the arity), the
    density-matrix constructor, and the scheme-III seed, None when scheme
    III cannot produce the family."""

    param_names: tuple[str, ...]
    matrix: Callable[..., np.ndarray]
    seed: Optional[Callable[..., tuple[np.ndarray, float]]] = None

    def __init__(self, param_names: tuple, matrix: Callable, seed: Optional[Callable] = None):
        self.__dict__.update(param_names=param_names, matrix=matrix, seed=seed)

    @property
    def arity(self) -> int:
        return len(self.param_names)


# The constructors are called through the module globals (the lambdas look
# them up at call time), so a rebinding of families.mems etc. is seen here.
FAMILIES = {
    "mems": Family(("R",), lambda r: mems(r), _mems_seed),
    "werner": Family(("R",), lambda r: werner(r), _werner_seed),
    "collins_gisin": Family(
        ("LAMBDA", "THETA"), lambda lam, theta: collins_gisin(lam, theta), _collins_gisin_seed
    ),
    "bell_diagonal": Family(("L1", "L2", "L3", "L4"), lambda *w: bell_diagonal(*w)),
    "d1": Family(("A", "B", "C", "D", "F"), lambda *p: family_d1(*p), _d1_seed),
}


class FamilyParams(Record):
    """A named family target, checked when built: kind is the registry key
    of the name ('Collins-Gisin' -> 'collins_gisin'; an unknown name is
    UnsupportedTarget) and params its parameters as floats, as many as the
    family's arity."""

    kind: str
    params: tuple

    def __init__(self, kind: str, params: tuple):
        key = kind.replace("-", "_").lower()
        if key not in FAMILIES:
            raise UnsupportedTarget(f"unknown family {kind!r}; known: {', '.join(FAMILIES)}")
        params = tuple(float(p) for p in params)
        arity = FAMILIES[key].arity
        if len(params) != arity:
            raise ValueError(f"family {key} takes {arity} parameter(s), got {len(params)}")
        self.__dict__.update(kind=key, params=params)


def mems_boundary_tangle(linear_entropy: float) -> float:
    """Largest tangle compatible with the given linear entropy.

    The curve is traced by mems(r) for r in [0, 1]: branch I covers
    entropies up to 16/27, branch II continues linearly to 8/9, and no
    entangled state exists beyond 8/9.
    """
    s = linear_entropy
    if not 0.0 <= s <= 1.0 + ROUND_OFF_TOL:
        raise OutOfRange(f"linear entropy {s} outside [0, 1]")
    s_split = 16.0 / 27.0  # entropy of mems(2/3)
    s_edge = 8.0 / 9.0  # entropy of mems(0)
    if s <= s_split:
        r = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - 1.5 * s)))
        return r * r
    if s <= s_edge:
        return max(0.0, 4.0 / 3.0 - 1.5 * s)
    return 0.0
