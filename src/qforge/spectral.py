"""Forward simulator for the joint polarization (x) frequency state.

Waveplates act identically at every frequency; a decoherer imprints a
phase linear in the frequency deviation eps on the polarization that
sees its extra index, and tracing out frequency yields the polarization
density matrix.

simulate_chain is exact by default: the state stays a short list of
delay-tagged polarization 4-vectors, and the Gaussian spectrum traces out
in closed form.  Given a FrequencyGrid it instead keeps one amplitude per
polarization basis state and grid point and integrates by quadrature;
that path is the independent oracle for the exact one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .elements import C_UM_PER_S, DecohererSpec, SpectralModel, spectral_amplitude
from .qmath import validate_density

DEFAULT_GRID_N = 2049
GRID_HALF_SPAN = 6.0  # grid covers +/- 6 delta_eps

# polarization of each photon in the basis order HH, HV, VH, VV (0 = H, 1 = V)
_POL_A = np.array([0, 0, 1, 1])
_POL_B = np.array([0, 1, 0, 1])


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform symmetric grid over the frequency deviation eps with
    trapezoid quadrature weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.points.size % 2 == 0:
            raise ValueError("frequency grid must have an odd number of points")


def make_grid(sm: SpectralModel, n: int = DEFAULT_GRID_N) -> FrequencyGrid:
    """Trapezoid-rule grid over [-6 delta_eps, +6 delta_eps] with n odd points."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"grid size must be an odd integer >= 3, got {n}")
    pts = np.linspace(-GRID_HALF_SPAN * sm.delta_eps, GRID_HALF_SPAN * sm.delta_eps, n)
    w = np.full(n, pts[1] - pts[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return FrequencyGrid(points=pts, weights=w)


@dataclass(frozen=True)
class JointSpectralState:
    """amps[j, k]: amplitude of polarization basis state j at frequency
    deviation grid.points[k]; normalized so sum_k w_k sum_j |amps|^2 = 1."""

    amps: np.ndarray
    grid: FrequencyGrid

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.grid.weights * np.abs(self.amps) ** 2)))


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b for 2x2 matrices, without np.kron's general-shape overhead."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


@dataclass(frozen=True)
class LocalRotationStage:
    """Frequency-independent local unitaries, one per arm."""

    u_a: np.ndarray
    u_b: np.ndarray

    @property
    def u4(self) -> np.ndarray:
        """The two-photon unitary u_a (x) u_b."""
        return _kron2(self.u_a, self.u_b)


@dataclass(frozen=True)
class DecohererStage:
    """A decoherer inserted in one arm ('A' or 'B')."""

    arm: str
    spec: DecohererSpec

    def __post_init__(self):
        if self.arm not in ("A", "B"):
            raise ValueError(f"arm must be 'A' or 'B', got {self.arm!r}")


Stage = Union[LocalRotationStage, DecohererStage]
StageList = Sequence[Stage]


def lift(psi: np.ndarray, sm: SpectralModel, grid: FrequencyGrid) -> JointSpectralState:
    """Tensor the polarization amplitudes with the Gaussian spectral profile."""
    psi = np.asarray(psi, dtype=complex).reshape(4)
    prof = spectral_amplitude(sm, grid.points)
    amps = np.outer(psi, prof)
    n = np.sqrt(np.sum(grid.weights * np.abs(amps) ** 2))
    return JointSpectralState(amps=amps / n, grid=grid)


def apply_local_unitary(
    s: JointSpectralState, u_a: np.ndarray, u_b: np.ndarray
) -> JointSpectralState:
    """Apply u_a (x) u_b to every frequency slice."""
    return JointSpectralState(amps=_kron2(u_a, u_b) @ s.amps, grid=s.grid)


def apply_decoherer(
    s: JointSpectralState,
    arm: str,
    d: DecohererSpec,
    sm: SpectralModel,
) -> JointSpectralState:
    """Phase e^{i n_j L w_arm / c} per slice; arm A sees w/2 + eps, arm B w/2 - eps.

    n_j counts from n_H: n_H = 0 and n_V = d.effective_delta_n, since an
    index common to both polarizations adds only a global phase per slice."""
    if arm == "A":
        pol = _POL_A
        w_arm = 0.5 * sm.omega + s.grid.points
    elif arm == "B":
        pol = _POL_B
        w_arm = 0.5 * sm.omega - s.grid.points
    else:
        raise ValueError(f"arm must be 'A' or 'B', got {arm!r}")
    n_j = d.effective_delta_n * pol
    phases = np.exp(1j * np.outer(n_j, w_arm) * (d.length_um / C_UM_PER_S))
    return JointSpectralState(amps=s.amps * phases, grid=s.grid)


def trace_to_polarization(s: JointSpectralState) -> np.ndarray:
    """Trace out frequency: rho_jk = sum_m w_m amps[j,m] conj(amps[k,m])."""
    rho = (s.amps * s.grid.weights) @ s.amps.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return validate_density(rho)


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
    spec.effective_delta_n).  Term p took the V part at the decoherers
    with c_pk = 1; its amplitude at eps is v_p e^{i w s_p / 2c} e^{i eps
    t_p} with s_p = sum_k c_pk P_k and t_p = sum_k c_pk (+-P_k) / c, + on
    arm A and - on arm B.  Tracing out the Gaussian spectrum gives

        rho = sum_pq e^{i w (s_p - s_q) / 2c} e^{-(delta_eps (t_p - t_q))^2 / 2} v_p v_q^dag

    The term count doubles per decoherer: the compilers emit at most two
    per branch (four terms), and a chain of four decoherers holds sixteen.

    Each factor is evaluated from the integer differences c_p - c_q, so
    pairs with the same difference get bitwise the same factor.  The
    trace then stays 1 to the rounding of the 4-vectors, however the
    large phases w P_k / 2c (~1e4 rad) round, and a single-stage chain
    reproduces analytic_single_stage to rounding.

    With a grid, psi is lifted onto it and the frequency trace is the
    trapezoid quadrature.
    """
    if grid is not None:
        state = lift(psi, sm, grid)
        for stage in stages:
            if isinstance(stage, LocalRotationStage):
                state = apply_local_unitary(state, stage.u_a, stage.u_b)
            elif isinstance(stage, DecohererStage):
                state = apply_decoherer(state, stage.arm, stage.spec, sm)
            else:
                raise TypeError(f"unknown stage type {type(stage).__name__}")
        return trace_to_polarization(state)

    psi = np.asarray(psi, dtype=complex).reshape(4)
    terms = (psi / np.linalg.norm(psi))[None, :]  # row p holds v_p
    paths = []  # (P_k, P_k signed by arm) [um]
    for stage in stages:
        if isinstance(stage, LocalRotationStage):
            terms = terms @ stage.u4.T
        elif isinstance(stage, DecohererStage):
            path = stage.spec.effective_delta_n * stage.spec.length_um
            if stage.arm == "A":
                pol, signed = _POL_A, path
            else:
                pol, signed = _POL_B, -path
            paths.append((path, signed))
            terms = np.concatenate([terms * (1 - pol), terms * pol])
        else:
            raise TypeError(f"unknown stage type {type(stage).__name__}")
    # V parts are appended after the H parts, so c_pk is bit k of p
    took_v = (np.arange(len(terms))[:, None] >> np.arange(len(paths))) & 1
    diff = took_v[:, None, :] - took_v[None, :, :]
    ds = np.zeros(diff.shape[:2])
    dt = np.zeros(diff.shape[:2])
    for k, (path, signed) in enumerate(paths):  # elementwise: equal c_p - c_q, equal sums
        ds += diff[:, :, k] * path
        dt += diff[:, :, k] * signed
    const = ds * sm.omega / (2.0 * C_UM_PER_S)
    lin = dt / C_UM_PER_S
    kernel = np.exp(1j * const) * np.exp(-0.5 * (sm.delta_eps * lin) ** 2)
    rho = terms.T @ kernel @ terms.conj()
    return validate_density(0.5 * (rho + rho.conj().T))


def analytic_single_stage(
    psi: np.ndarray,
    length_a_um: float,
    length_b_um: float,
    delta_n: float,
    sm: SpectralModel,
) -> np.ndarray:
    """Closed form for one decoherer per arm acting on a pure state;
    delta_n is the effective birefringence n_V - n_H.

    Each coherence (j, k) picks up exp(i phi) exp(-(delta_eps t)^2 / 2)
    where phi and t are the constant and eps-linear parts of the optical
    phase difference; exact for the Gaussian spectrum.  The HH<->VV entry
    reproduces analytic_f.
    """
    psi = np.asarray(psi, dtype=complex).reshape(4)
    da = delta_n * (_POL_A[:, None] - _POL_A[None, :]) * length_a_um
    db = delta_n * (_POL_B[:, None] - _POL_B[None, :]) * length_b_um
    const = (da + db) * sm.omega / (2.0 * C_UM_PER_S)
    lin = (da - db) / C_UM_PER_S
    factors = np.exp(1j * const) * np.exp(-0.5 * (sm.delta_eps * lin) ** 2)
    rho = np.outer(psi, psi.conj()) * factors
    return validate_density(rho)
