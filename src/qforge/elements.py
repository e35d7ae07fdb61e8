"""Optical element models: SPDC source, waveplates, decoherers.

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import MismatchedDecoherers, NotFinite, OutOfRange, TargetOutOfRange

C_UM_PER_S = 2.99792458e14  # speed of light in micrometers per second

# defaults for examples and the CLI; working regime is l_p >> |dn| L >> l_si
DEFAULT_PUMP_WAVELENGTH_NM = 351.0
DEFAULT_L_SI_UM = 100.0
DEFAULT_DELTA_N = 0.009  # quartz-like birefringence

# full-dephasing floor: decoherers at least 10 dephasing lengths thick
DEPHASING_FLOOR_FACTOR = 10.0
# |f| targets below this are treated as zero (tau capped at 8 -> e^-32)
TAU_CAP = 8.0
F_FLOOR = 1.3e-14


def check_finite(**values: float) -> None:
    """Raise NotFinite naming the first keyword whose value is NaN or infinite."""
    for name, x in values.items():
        if not math.isfinite(x):
            raise NotFinite(f"{name} = {x} is not finite")


@dataclass(frozen=True)
class SpectralModel:
    """Gaussian downconversion spectrum parameters.

    delta_eps is the half-width of |A(eps)|^2 and omega the pump central
    frequency, both in rad/s.
    """

    delta_eps: float
    omega: float

    def __post_init__(self):
        check_finite(delta_eps=self.delta_eps, omega=self.omega)
        if self.delta_eps <= 0.0:
            raise OutOfRange(f"delta_eps must be positive, got {self.delta_eps}")
        if self.omega <= 0.0:
            raise OutOfRange(f"omega must be positive, got {self.omega}")

    @property
    def l_si_um(self) -> float:
        """Coherence length of the downconversion photons, c / delta_eps."""
        return C_UM_PER_S / self.delta_eps


def default_spectral_model(
    l_si_um: float = DEFAULT_L_SI_UM,
    pump_wavelength_nm: float = DEFAULT_PUMP_WAVELENGTH_NM,
) -> SpectralModel:
    """Spectral model from photon coherence length and pump wavelength."""
    check_finite(l_si=l_si_um, pump_wavelength=pump_wavelength_nm)
    if l_si_um <= 0.0:
        raise OutOfRange(f"l_si must be positive, got {l_si_um}")
    if pump_wavelength_nm <= 0.0:
        raise OutOfRange(f"pump wavelength must be positive, got {pump_wavelength_nm}")
    delta_eps = C_UM_PER_S / l_si_um
    omega = 2.0 * math.pi * C_UM_PER_S / (pump_wavelength_nm * 1e-3)
    return SpectralModel(delta_eps=delta_eps, omega=omega)


def spectral_amplitude(sm: SpectralModel, eps: np.ndarray) -> np.ndarray:
    """Gaussian amplitude A(eps) with |A|^2 the normal density of width delta_eps."""
    d2 = sm.delta_eps**2
    return (2.0 * math.pi * d2) ** -0.25 * np.exp(-np.asarray(eps) ** 2 / (4.0 * d2))


@dataclass(frozen=True)
class SpdcSourceSpec:
    """Two-crystal source pumped by cos(theta)|V> + e^{i phi} sin(theta)|H>."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2.0 + 1e-12:
            raise OutOfRange(f"theta {self.theta} outside [0, pi/2]")
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))


def spdc_pair_state(src: SpdcSourceSpec) -> np.ndarray:
    """Photon pair cos(theta)|HH> + e^{i phi} sin(theta)|VV> from the source.

    The V pump component downconverts to |HH> in the first crystal and the
    H component to |VV> in the second.
    """
    return np.array(
        [math.cos(src.theta), 0.0, 0.0, np.exp(1j * src.phi) * math.sin(src.theta)],
        dtype=complex,
    )


@dataclass(frozen=True)
class WaveplateSpec:
    """Retarder with given retardance, fast axis at axis_angle from horizontal."""

    retardance: float
    axis_angle: float

    def __post_init__(self):
        if not 0.0 < self.retardance < 2.0 * math.pi:
            raise OutOfRange(f"retardance {self.retardance} outside (0, 2 pi)")


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


def _strip_phase(u: np.ndarray) -> np.ndarray:
    """Divide a 2x2 unitary by a square root of its determinant."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    return u / np.sqrt(det)


def su2_to_waveplates(u: np.ndarray) -> tuple[WaveplateSpec, WaveplateSpec, WaveplateSpec]:
    """Realize a single-qubit unitary as QWP - HWP - QWP.

    Returns the plates in traversal order (first plate hits the photon
    first), so the matrices compose as last @ middle @ first = u up to a
    global phase.
    """
    u = np.asarray(u, dtype=complex)
    su = _strip_phase(u)
    a_entry, v_entry = su[0, 0], su[0, 1]
    # Euler Y-X-Y angles: su = exp(i a sy) exp(i th sx) exp(i c sy)
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

    def norm_axis(t: float) -> float:
        return t % math.pi

    return (
        qwp(norm_axis(q_first)),
        hwp(norm_axis(h_mid)),
        qwp(norm_axis(q_last)),
    )


def compose_waveplates(plates) -> np.ndarray:
    """Jones matrix of a sequence of plates given in traversal order."""
    u = np.eye(2, dtype=complex)
    for wp in plates:
        u = waveplate_unitary(wp) @ u
    return u


@dataclass(frozen=True)
class DecohererSpec:
    """Thick birefringent crystal: the polarization named by axis sees an
    index delta_n above the other one."""

    length_um: float
    delta_n: float = DEFAULT_DELTA_N
    axis: str = "V"

    def __post_init__(self):
        if self.length_um < 0.0:
            raise OutOfRange(f"decoherer length {self.length_um} must be >= 0")
        if self.axis not in ("H", "V"):
            raise OutOfRange(f"axis must be 'H' or 'V', got {self.axis!r}")

    @property
    def effective_delta_n(self) -> float:
        """n_V - n_H: +delta_n for axis 'V', -delta_n for axis 'H'."""
        return self.delta_n if self.axis == "V" else -self.delta_n


def dephasing_length_um(sm: SpectralModel, delta_n: float) -> float:
    """Length scale c / (delta_eps |delta_n|) over which coherence dies."""
    if delta_n == 0.0:
        raise OutOfRange("delta_n must be nonzero for a decoherer")
    return C_UM_PER_S / (sm.delta_eps * abs(delta_n))


def full_dephasing_floor_um(sm: SpectralModel, delta_n: float) -> float:
    """Minimum thickness used for 'fully dephasing' decoherers."""
    return DEPHASING_FLOOR_FACTOR * dephasing_length_um(sm, delta_n)


def analytic_f(d1: DecohererSpec, d2: DecohererSpec, sm: SpectralModel) -> complex:
    """Decoherence factor on the HH<->VV coherence for decoherers L1 (arm A)
    and L2 (arm B).

    f = exp(-tau^2/2) exp(-i dn (L1+L2) w / 2c), tau = dn (L1-L2) delta_eps / c.
    |f| = 1 exactly when L1 = L2.
    """
    if d1.delta_n != d2.delta_n or d1.axis != d2.axis:
        raise MismatchedDecoherers(
            f"decoherers differ: delta_n {d1.delta_n} vs {d2.delta_n}, "
            f"axis {d1.axis} vs {d2.axis}"
        )
    dn = d1.effective_delta_n
    tau = dn * (d1.length_um - d2.length_um) * sm.delta_eps / C_UM_PER_S
    phase = -dn * (d1.length_um + d2.length_um) * sm.omega / (2.0 * C_UM_PER_S)
    return complex(np.exp(-0.5 * tau * tau) * np.exp(1j * phase))


def invert_f(target_abs_f: float, sm: SpectralModel, delta_n: float) -> tuple[float, float]:
    """Thicknesses (L1, L2) with |analytic_f(L1, L2)| = target_abs_f.

    L2 sits at the full-dephasing floor and L1 >= L2.  Targets in
    (0, F_FLOOR) are treated as zero: the length difference is capped at
    tau = 8, where the Gaussian is ~1.3e-14.  A target of exactly zero is
    unreachable and raises TargetOutOfRange.
    """
    if not 0.0 < target_abs_f <= 1.0:
        raise TargetOutOfRange(
            f"|f| target {target_abs_f} outside (0, 1]; use lengths at the "
            f"dephasing floor for |f| ~ 0"
        )
    tau = TAU_CAP if target_abs_f < F_FLOOR else math.sqrt(2.0 * math.log(1.0 / target_abs_f))
    floor = full_dephasing_floor_um(sm, delta_n)
    diff = tau * dephasing_length_um(sm, delta_n)
    return floor + diff, floor
