"""Optical element models: SPDC source, waveplates, decoherers.

This module holds the optics formulas: the spectral amplitude, the pair
state a source gives, waveplate Jones matrices and their QWP-HWP-QWP
synthesis, and the decoherence factor with its inverse.  The records they
read (SpectralModel, SpdcSourceSpec, DecohererStage) and the rotation
stage live in recipe_io, which reads, writes and tallies recipes without
numpy; only its pump_splits imports numpy, for a scheme-II split, whose
upper_fraction must keep qmath._norm's bits.

Conventions used throughout:
  * angles in radians, lengths in micrometers, frequencies in rad/s;
  * the downconversion spectrum |A(eps)|^2 is Gaussian with half-width
    delta_eps around zero deviation from half the pump frequency;
  * a decoherer of thickness L advances the phase of polarization V by
    delta_n L w / c at frequency w relative to H (an index common to
    both polarizations adds only a global phase);
  * Jones matrices are defined up to a global phase.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import MismatchedDecoherers, OutOfRange, Record, TargetOutOfRange, check_finite
from .recipe_io import C_UM_PER_S, DEFAULT_DELTA_N, MAX_PATH_PHASE, DecohererStage
from .recipe_io import SpdcSourceSpec, SpectralModel, _path_phase, check_path_phase

# defaults for examples and the CLI; working regime is l_p >> |dn| L >> l_si
DEFAULT_PUMP_WAVELENGTH_NM = 351.0
DEFAULT_L_SI_UM = 100.0

# full-dephasing floor: decoherers at least 10 dephasing lengths thick
DEPHASING_FLOOR_FACTOR = 10.0
# |f| targets below this are treated as zero (tau capped at 8 -> e^-32)
TAU_CAP = 8.0
F_FLOOR = 1.3e-14


@functools.lru_cache(typed=True)
def default_spectral_model(
    l_si_um: float = DEFAULT_L_SI_UM,
    pump_wavelength_nm: float = DEFAULT_PUMP_WAVELENGTH_NM,
    delta_n: float = DEFAULT_DELTA_N,
) -> SpectralModel:
    """Spectral model from photon coherence length, pump wavelength and
    decoherer birefringence.  Memoized: the model is frozen, and each call
    with the same arguments returns the one instance."""
    check_finite(delta_n=delta_n, l_si=l_si_um, pump_wavelength=pump_wavelength_nm)
    if l_si_um <= 0.0:
        raise OutOfRange(f"l_si must be positive, got {l_si_um}")
    if pump_wavelength_nm <= 0.0:
        raise OutOfRange(f"pump wavelength must be positive, got {pump_wavelength_nm}")
    delta_eps = C_UM_PER_S / l_si_um
    omega = 2.0 * math.pi * C_UM_PER_S / (pump_wavelength_nm * 1e-3)
    return SpectralModel(delta_eps=delta_eps, omega=omega, delta_n=delta_n)


def spectral_amplitude(sm: SpectralModel, eps: np.ndarray) -> np.ndarray:
    """Gaussian amplitude A(eps) with |A|^2 the normal density of width delta_eps."""
    d2 = sm.delta_eps**2
    return (2.0 * math.pi * d2) ** -0.25 * np.exp(-np.asarray(eps) ** 2 / (4.0 * d2))


def spdc_pair_state(src: SpdcSourceSpec) -> np.ndarray:
    """Photon pair cos(theta)|HH> + e^{i phi} sin(theta)|VV> from the source.

    The V pump component downconverts to |HH> in the first crystal and the
    H component to |VV> in the second.
    """
    return np.array(
        [math.cos(src.theta), 0.0, 0.0, np.exp(1j * src.phi) * math.sin(src.theta)],
        dtype=complex,
    )


class WaveplateSpec(Record):
    """Retarder with given retardance, fast axis at axis_angle from horizontal;
    a NaN or infinite axis_angle is NotFinite."""

    retardance: float
    axis_angle: float

    def __init__(self, retardance: float, axis_angle: float):
        if not 0.0 < retardance < 2.0 * math.pi:
            raise OutOfRange(f"retardance {retardance} outside (0, 2 pi)")
        if not (type(axis_angle) is float and math.isfinite(axis_angle)):
            check_finite(axis_angle=axis_angle)  # only where it is not a finite float
        self.__dict__.update(retardance=retardance, axis_angle=axis_angle)


def hwp(axis_angle: float) -> WaveplateSpec:
    return WaveplateSpec(retardance=math.pi, axis_angle=axis_angle)


def qwp(axis_angle: float) -> WaveplateSpec:
    return WaveplateSpec(retardance=math.pi / 2.0, axis_angle=axis_angle)


def rotation(t: float) -> np.ndarray:
    """Counterclockwise rotation of the polarization plane by t."""
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


def waveplate_unitary(wp: WaveplateSpec) -> np.ndarray:
    """Jones matrix R(t) diag(1, e^{-i delta}) R(-t) of the waveplate.

    A half-waveplate at angle t is the reflection about the axis t; a
    quarter-waveplate at 45 degrees sends |H> to (|H> + i|V>)/sqrt(2),
    both up to global phase.
    """
    t = wp.axis_angle
    retarder = np.diag([1.0, np.exp(-1j * wp.retardance)])
    return rotation(t) @ retarder @ rotation(-t)


def su2_to_waveplates(u: np.ndarray) -> tuple[WaveplateSpec, WaveplateSpec, WaveplateSpec]:
    """Realize a single-qubit unitary as QWP - HWP - QWP.

    Returns the plates in traversal order (first plate hits the photon
    first), so the matrices compose as last @ middle @ first = u up to a
    global phase.
    """
    (p, q), (r, s) = np.asarray(u, dtype=complex).tolist()
    root = (p * s - q * r) ** 0.5
    # first row of su = u / sqrt(det u), in SU(2); its Euler Y-X-Y angles:
    # su = exp(i a sy) exp(i th sx) exp(i c sy)
    a_entry, v_entry = p / root, q / root
    cos_th = math.hypot(a_entry.real, v_entry.real)
    sin_th = math.hypot(a_entry.imag, v_entry.imag)
    theta = math.atan2(sin_th, cos_th)
    apc = math.atan2(v_entry.real, a_entry.real) if cos_th > 1e-15 else 0.0
    amc = math.atan2(a_entry.imag, v_entry.imag) if sin_th > 1e-15 else 0.0
    a_ang = 0.5 * (apc + amc)
    c_ang = 0.5 * (apc - amc)
    # the quarter-half-quarter sandwich composes (up to phase) to
    # exp(-i q_last sy) exp(-i g sx) exp(i q_first sy) with g = 2h - sum(q)
    q_last = -a_ang
    q_first = c_ang
    h_mid = 0.5 * (-theta + q_last + q_first)
    return (WaveplateSpec(math.pi / 2.0, _axis_angle(q_first)),
            WaveplateSpec(math.pi, _axis_angle(h_mid)),
            WaveplateSpec(math.pi / 2.0, _axis_angle(q_last)))


def _axis_angle(t: float) -> float:
    """t modulo pi, in [0, pi): for t just below 0, t % pi rounds to pi itself."""
    return t % math.pi % math.pi


def compose_waveplates(plates) -> np.ndarray:
    """Jones matrix of a sequence of plates given in traversal order."""
    u = np.eye(2, dtype=complex)
    for wp in plates:
        u = waveplate_unitary(wp) @ u
    return u


def dephasing_length_um(sm: SpectralModel) -> float:
    """Length scale c / (delta_eps |delta_n|) over which coherence dies."""
    if sm.delta_n == 0.0:
        raise OutOfRange("delta_n must be nonzero for a decoherer")
    return C_UM_PER_S / (sm.delta_eps * abs(sm.delta_n))


def full_dephasing_floor_um(sm: SpectralModel) -> float:
    """Minimum thickness used for 'fully dephasing' decoherers."""
    return DEPHASING_FLOOR_FACTOR * dephasing_length_um(sm)


def analytic_f(d_a: DecohererStage, d_b: DecohererStage, sm: SpectralModel) -> complex:
    """Decoherence factor on the HH<->VV coherence for decoherers of
    lengths L1 = d_a.length_um (arm A) and L2 = d_b.length_um (arm B).

    f = exp(-tau^2/2) exp(-i dn (L1+L2) w / 2c), tau = dn (L1-L2) delta_eps / c.
    |f| = 1 exactly when L1 = L2.  check_path_phase guards each length first.
    """
    if d_a.axis != d_b.axis:
        raise MismatchedDecoherers(f"decoherers differ: axis {d_a.axis} vs {d_b.axis}")
    check_path_phase(d_a, sm)
    check_path_phase(d_b, sm)
    dn = d_a.effective_delta_n(sm)
    tau = dn * (d_a.length_um - d_b.length_um) * sm.delta_eps / C_UM_PER_S
    phase = -dn * (d_a.length_um + d_b.length_um) * sm.omega / (2.0 * C_UM_PER_S)
    return complex(np.exp(-0.5 * tau * tau) * np.exp(1j * phase))


def invert_f(target_abs_f: float, sm: SpectralModel) -> tuple[float, float]:
    """Thicknesses (L1, L2) with |analytic_f(L1, L2)| = target_abs_f at sm.delta_n.

    L2 sits at the full-dephasing floor and L1 >= L2.  Targets in
    [0, F_FLOOR), zero included, are treated as zero: the length difference
    is capped at tau = 8, where the Gaussian is ~1.3e-14.

    The lengths scale with l_si / |delta_n| and their path phase with l_si
    alone, as w (10 + tau) / (2 delta_eps).  Where the phase of L1 overflows
    a double, the model is OutOfRange, named by what overflows: its l_si
    where that phase lies beyond MAX_PATH_PHASE (from about l_si = 1e292 um
    at the default pump), else its delta_n, too small for lengths l_si /
    |delta_n| a double holds.  Finite phases beyond MAX_PATH_PHASE are left
    to check_path_phase.
    """
    if not 0.0 <= target_abs_f <= 1.0:
        raise TargetOutOfRange(f"|f| target {target_abs_f} outside [0, 1]")
    tau = TAU_CAP if target_abs_f < F_FLOOR else math.sqrt(2.0 * math.log(1.0 / target_abs_f))
    floor = full_dephasing_floor_um(sm)
    l1 = floor + tau * dephasing_length_um(sm)
    if not math.isfinite(_path_phase(l1, sm)):  # an infinite length too
        if sm.omega * (DEPHASING_FLOOR_FACTOR + tau) / (2.0 * sm.delta_eps) <= MAX_PATH_PHASE:
            raise OutOfRange(f"delta_n {sm.delta_n} makes the decoherers' lengths "
                             f"overflow a double")
        raise OutOfRange(f"l_si {sm.l_si_um:.6g} um makes the decoherers' path phase "
                         f"overflow a double")
    return l1, floor
