"""Forward simulator for the joint polarization (x) frequency state.

Waveplates act identically at every frequency; a decoherer imprints a
phase linear in the frequency deviation eps on the polarization that
sees its extra index, and tracing out frequency yields the polarization
density matrix.

This module holds only the frequency grid and the simulators; the stage
records they apply live in recipe_io.

simulate_chain simulates any chain.  It is exact by default: the state
stays a short list of delay-tagged polarization 4-vectors, and the
spectrum traces out in closed form, through _delay_factor, where alone the
exact paths read its shape (elements.coherence).  Its pair tables depend
only on the number of decoherers K: they are built once per K and kept,
K * 4**K bytes (10.5 MB at K = 10, 13.5 MB over every K).  Given a FrequencyGrid (from
make_grid) it instead runs one private loop, _simulate_on_grid, that
keeps one amplitude per polarization basis state and grid point, applies
the stages slice by slice and traces frequency out by the trapezoid rule;
that loop is the independent oracle for the exact path.

analytic_single_stage is the one closed form: it gives the chain that
schemes III and IV build (rotations, then decoherers of one axis, then
rotations) in a single formula, and None for any other chain.
compilers.simulate_recipe tries it on every branch before simulate_chain,
so MAX_EXACT_DECOHERERS binds only chains the closed form does not fit.

Branch results are returned as the Hermitian part of the traced matrix,
not validated; compilers.simulate_recipe validates their weighted sum.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence, Union

import numpy as np

from . import elements
from .errors import OutOfRange, Record
from .qmath import _norm
from .recipe_io import C_UM_PER_S, DecohererStage, LocalRotationStage, SpectralModel

DEFAULT_GRID_N = 2049
GRID_HALF_SPAN = 6.0  # grid covers +/- 6 delta_eps
# a grid point costs ~210 B of peak memory: 2**20 + 1 points took ~250 MB
MAX_GRID_N = 2**20 + 1
# delta_eps [rad/s] keeping delta_eps**2 and (GRID_HALF_SPAN delta_eps)**2 normal doubles,
# as spectral_amplitude's (2 pi delta_eps**2)**-1/4 and exp(-eps**2 / 4 delta_eps**2) need
GRID_DELTA_EPS = (1e-150, 1e150)
# the exact path's pair tables hold 4**K entries: K = 11 took ~0.6 GB
MAX_EXACT_DECOHERERS = 10

# polarization of each photon in the basis order HH, HV, VH, VV (0 = H, 1 = V)
_POL_A = np.array([0, 0, 1, 1])
_POL_B = np.array([0, 1, 0, 1])
_DPOL_A = _POL_A[:, None] - _POL_A[None, :]  # pol_j - pol_k of coherence (j, k)
_DPOL_B = _POL_B[:, None] - _POL_B[None, :]


class FrequencyGrid(Record):
    """Uniform symmetric grid over the frequency deviation eps with
    trapezoid quadrature weights."""

    def __init__(self, points: np.ndarray, weights: np.ndarray):
        self.__dict__.update(points=points, weights=weights)


def make_grid(sm: SpectralModel, n: int = DEFAULT_GRID_N) -> FrequencyGrid:
    """Trapezoid-rule grid over [-6 delta_eps, +6 delta_eps] with n odd points,
    from 3 to MAX_GRID_N of them, for a delta_eps within GRID_DELTA_EPS (else
    OutOfRange, before anything is allocated)."""
    if n < 3 or n % 2 == 0 or n > MAX_GRID_N:
        raise OutOfRange(f"grid size {n} must be odd, from 3 to {MAX_GRID_N} points (~210 B each)")
    if not GRID_DELTA_EPS[0] <= sm.delta_eps <= GRID_DELTA_EPS[1]:
        raise OutOfRange(f"delta_eps {sm.delta_eps:.6g} rad/s lies outside [1e-150, 1e150] rad/s, "
                         f"the range a frequency grid takes")
    pts = np.linspace(-GRID_HALF_SPAN * sm.delta_eps, GRID_HALF_SPAN * sm.delta_eps, n)
    w = np.full(n, pts[1] - pts[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return FrequencyGrid(points=pts, weights=w)


StageList = Sequence[Union[LocalRotationStage, DecohererStage]]


def _u4(stage: LocalRotationStage) -> np.ndarray:
    """The two-photon unitary u_a (x) u_b, without np.kron's general-shape
    overhead; the stage holds ndarrays or, parsed, tuples of rows."""
    a = np.asarray(stage.u_a, dtype=complex)
    b = np.asarray(stage.u_b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


@functools.lru_cache(maxsize=MAX_EXACT_DECOHERERS + 1)
def _pair_planes(k: int) -> np.ndarray:
    """Read-only int8 planes[j, p, q] = c_pj - c_qj over the 2**k terms of k
    decoherers: V parts follow the H parts, so c_pj is bit j of p."""
    took_v = ((np.arange(2**k) >> np.arange(k)[:, None]) & 1).astype(np.int8)
    planes = took_v[:, :, None] - took_v[:, None, :]
    planes.flags.writeable = False
    return planes


def _simulate_on_grid(
    psi: np.ndarray, stages: StageList, sm: SpectralModel, grid: FrequencyGrid
) -> np.ndarray:
    """The quadrature oracle: amps[j, m] is the amplitude of polarization
    basis state j at eps = grid.points[m], normalized on the grid.

    A decoherer multiplies by e^{i n_j L w_arm / c}, where arm A sees
    w/2 + eps and arm B w/2 - eps; n_j counts from n_H (n_H = 0, n_V =
    stage.effective_delta_n(sm)), since an index common to both polarizations
    adds only a global phase per slice.  Frequency is traced out by the
    trapezoid rule, rho_jk = sum_m w_m amps[j, m] conj(amps[k, m]).
    """
    psi = np.asarray(psi, dtype=complex).reshape(4)
    amps = np.outer(psi, elements.spectral_amplitude(sm, grid.points))
    amps = amps / np.sqrt(np.sum(grid.weights * np.abs(amps) ** 2))
    for stage in stages:
        if isinstance(stage, LocalRotationStage):
            amps = _u4(stage) @ amps
        elif isinstance(stage, DecohererStage):
            if stage.arm == "A":
                pol, w_arm = _POL_A, 0.5 * sm.omega + grid.points
            else:
                pol, w_arm = _POL_B, 0.5 * sm.omega - grid.points
            if math.isinf(sm.delta_n * float(np.abs(w_arm).max())):  # else n_j w_arm overflows
                raise OutOfRange(f"delta_n {sm.delta_n:.6g} makes a decoherer's phase on the "
                                 f"frequency grid overflow a double")
            n_j = stage.effective_delta_n(sm) * pol
            amps = amps * np.exp(1j * np.outer(n_j, w_arm) * (stage.length_um / C_UM_PER_S))
        else:
            raise TypeError(f"unknown stage type {type(stage).__name__}")
    rho = (amps * grid.weights) @ amps.conj().T
    return 0.5 * (rho + rho.conj().T)


def _delay_factor(ds: np.ndarray, dt: np.ndarray, sm: SpectralModel) -> np.ndarray:
    """exp(i w ds / 2c) chi(delta_eps dt / c), chi = elements.coherence: the factor on
    a coherence whose terms' optical paths [um] differ by ds, and by dt signed by arm."""
    const = ds * sm.omega / (2.0 * C_UM_PER_S)
    return np.exp(1j * const) * elements.coherence(sm.delta_eps * (dt / C_UM_PER_S))


def simulate_chain(
    psi: np.ndarray,
    stages: StageList,
    sm: SpectralModel,
    grid: FrequencyGrid | None = None,
) -> np.ndarray:
    """Apply the stages in order to psi and trace out frequency.

    Without a grid the result is exact for the Gaussian spectrum.  The
    state is a set of terms v_p: a local unitary acts on every term, and
    decoherer k splits each term into its H part, unchanged, and its V
    part, whose optical path grows by P_k = dn L (dn =
    stage.effective_delta_n(sm)).  Term p took the V part at the decoherers
    with c_pk = 1; its amplitude at eps is v_p e^{i w s_p / 2c} e^{i eps
    t_p} with s_p = sum_k c_pk P_k and t_p = sum_k c_pk (+-P_k) / c, + on
    arm A and - on arm B.  Tracing out the spectrum, of coherence chi, gives

        rho = sum_pq e^{i w (s_p - s_q) / 2c} chi(delta_eps (t_p - t_q)) v_p v_q^dag

    The term count doubles per decoherer: the compilers emit at most two
    per branch (four terms), and a chain of four decoherers holds sixteen.
    More than MAX_EXACT_DECOHERERS raise OutOfRange; the grid takes any chain.

    Each factor is evaluated from the integer differences c_p - c_q, so
    pairs with the same difference get bitwise the same factor.  The
    trace then stays 1 to the rounding of the 4-vectors, however the
    large phases w P_k / 2c (~1e4 rad) round, and a single-stage chain
    reproduces analytic_single_stage to rounding.

    With a grid, _simulate_on_grid integrates the same physics by
    quadrature instead.
    """
    if grid is not None:
        return _simulate_on_grid(psi, stages, sm, grid)

    psi = np.asarray(psi, dtype=complex).reshape(4)
    terms = (psi / _norm(psi))[None, :]  # row p holds v_p
    paths = []  # (P_k, P_k signed by arm) [um]
    for stage in stages:
        if isinstance(stage, LocalRotationStage):
            terms = terms @ _u4(stage).T
        elif isinstance(stage, DecohererStage):
            if len(paths) == MAX_EXACT_DECOHERERS:
                count = sum(isinstance(s, DecohererStage) for s in stages)
                raise OutOfRange(f"a chain of {count} decoherers exceeds the exact simulator's "
                                 f"{MAX_EXACT_DECOHERERS}; simulate it on a grid (--grid-n)")
            path = float(stage.effective_delta_n(sm) * stage.length_um)  # int8 * an int stays int8
            if stage.arm == "A":
                pol, signed = _POL_A, path
            else:
                pol, signed = _POL_B, -path
            paths.append((path, signed))
            terms = np.concatenate([terms * (1 - pol), terms * pol])
        else:
            raise TypeError(f"unknown stage type {type(stage).__name__}")
    # elementwise over the planes of c_p - c_q: equal differences, equal sums
    ds = np.zeros((len(terms), len(terms)))
    dt = np.zeros((len(terms), len(terms)))
    for diff, (path, signed) in zip(_pair_planes(len(paths)), paths):
        ds += diff * path
        dt += diff * signed
    rho = terms.T @ _delay_factor(ds, dt, sm) @ terms.conj()
    return 0.5 * (rho + rho.conj().T)


def analytic_single_stage(
    psi: np.ndarray, stages: StageList, sm: SpectralModel
) -> np.ndarray | None:
    """Closed form of a chain of rotations, then decoherers of one axis, then
    rotations, acting on the pure state psi; None for any other chain, which
    simulate_chain takes instead.

    This is the single-stage construction of schemes III and IV: each
    coherence (j, k) picks up the _delay_factor of its optical path
    differences, exact for the Gaussian spectrum.  The HH<->VV entry
    reproduces analytic_f.  A chain with no decoherer gives the projector.
    """
    length_a = length_b = 0.0
    delta_n = None
    prefix, suffix = [], []  # rotations before and after the decoherers
    for stage in stages:  # the fit is decided before any u4 is built
        if isinstance(stage, LocalRotationStage):
            (prefix if delta_n is None else suffix).append(stage)
        elif isinstance(stage, DecohererStage) and not suffix and (
            delta_n is None or delta_n == stage.effective_delta_n(sm)
        ):
            delta_n = stage.effective_delta_n(sm)
            if stage.arm == "A":
                length_a += stage.length_um
            else:
                length_b += stage.length_um
        else:
            return None
    psi = np.asarray(psi, dtype=complex).reshape(4)
    for stage in prefix:
        psi = _u4(stage) @ psi
    if delta_n is None:
        return psi[:, None] * psi.conj()
    da = delta_n * _DPOL_A * length_a
    db = delta_n * _DPOL_B * length_b
    rho = np.outer(psi, psi.conj()) * _delay_factor(da + db, da - db, sm)
    rho = 0.5 * (rho + rho.conj().T)
    for u4 in map(_u4, suffix):
        rho = u4 @ rho @ u4.conj().T
    return rho
