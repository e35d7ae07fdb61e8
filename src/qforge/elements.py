"""Optical element models: SPDC source, waveplates, decoherers.

The stage records a recipe branch applies after its seed live here:
LocalRotationStage and DecohererStage.  spectral simulates chains of
them; recipe_io reads and writes them.

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
    """Raise NotFinite naming the first keyword whose value is NaN, infinite
    or an integer beyond double range (a JSON number may be one); a bool,
    which Python would read as 0 or 1, is a TypeError."""
    for name, x in values.items():
        if isinstance(x, bool):
            raise TypeError(f"{name} must be a number, got {x}")
        try:
            finite = math.isfinite(x)
        except OverflowError:
            raise NotFinite(f"{name} is an integer beyond double range") from None
        if not finite:
            raise NotFinite(f"{name} = {x} is not finite")


@dataclass(frozen=True)
class SpectralModel:
    """Gaussian downconversion spectrum parameters and the decoherers'
    birefringence.

    delta_eps is the half-width of |A(eps)|^2 and omega the pump central
    frequency, both in rad/s.  delta_n = n_V - n_H is the birefringence of
    every decoherer in a recipe; it is checked finite, and zero is allowed
    (schemes I and II emit no decoherer).
    """

    delta_eps: float
    omega: float
    delta_n: float = DEFAULT_DELTA_N

    def __post_init__(self):
        check_finite(delta_eps=self.delta_eps, omega=self.omega)
        if self.delta_eps <= 0.0:
            raise OutOfRange(f"delta_eps must be positive, got {self.delta_eps}")
        if self.omega <= 0.0:
            raise OutOfRange(f"omega must be positive, got {self.omega}")
        check_finite(delta_n=self.delta_n)  # last: a bad delta_eps or omega is named first

    @property
    def l_si_um(self) -> float:
        """Coherence length of the downconversion photons, c / delta_eps."""
        return C_UM_PER_S / self.delta_eps


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


@dataclass(frozen=True)
class SpdcSourceSpec:
    """Two-crystal source pumped by cos(theta)|V> + e^{i phi} sin(theta)|H>."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        check_finite(theta=self.theta, phi=self.phi)
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
    return qwp(_axis_angle(q_first)), hwp(_axis_angle(h_mid)), qwp(_axis_angle(q_last))


def _axis_angle(t: float) -> float:
    """t modulo pi, in [0, pi): for t just below 0, t % pi rounds to pi itself."""
    return t % math.pi % math.pi


def compose_waveplates(plates) -> np.ndarray:
    """Jones matrix of a sequence of plates given in traversal order."""
    u = np.eye(2, dtype=complex)
    for wp in plates:
        u = waveplate_unitary(wp) @ u
    return u


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
    """Thick birefringent crystal in one arm ('A' or 'B'): the polarization
    named by axis sees an index sm.delta_n, shared by every decoherer, above
    the other one; the stage keeps no birefringence of its own."""

    arm: str
    length_um: float
    axis: str = "V"

    def __post_init__(self):
        check_finite(length_um=self.length_um)
        if self.length_um < 0.0:
            raise OutOfRange(f"decoherer length {self.length_um} must be >= 0")
        if self.axis not in ("H", "V"):
            raise OutOfRange(f"axis must be 'H' or 'V', got {self.axis!r}")
        if self.arm not in ("A", "B"):
            raise ValueError(f"arm must be 'A' or 'B', got {self.arm!r}")

    def effective_delta_n(self, sm: SpectralModel) -> float:
        """n_V - n_H: +sm.delta_n for axis 'V', -sm.delta_n for axis 'H'."""
        return sm.delta_n if self.axis == "V" else -sm.delta_n


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
    |f| = 1 exactly when L1 = L2.
    """
    if d_a.axis != d_b.axis:
        raise MismatchedDecoherers(f"decoherers differ: axis {d_a.axis} vs {d_b.axis}")
    dn = d_a.effective_delta_n(sm)
    tau = dn * (d_a.length_um - d_b.length_um) * sm.delta_eps / C_UM_PER_S
    phase = -dn * (d_a.length_um + d_b.length_um) * sm.omega / (2.0 * C_UM_PER_S)
    return complex(np.exp(-0.5 * tau * tau) * np.exp(1j * phase))


def invert_f(target_abs_f: float, sm: SpectralModel) -> tuple[float, float]:
    """Thicknesses (L1, L2) with |analytic_f(L1, L2)| = target_abs_f at sm.delta_n.

    L2 sits at the full-dephasing floor and L1 >= L2.  Targets in
    [0, F_FLOOR), zero included, are treated as zero: the length difference
    is capped at tau = 8, where the Gaussian is ~1.3e-14.
    """
    if not 0.0 <= target_abs_f <= 1.0:
        raise TargetOutOfRange(f"|f| target {target_abs_f} outside [0, 1]")
    tau = TAU_CAP if target_abs_f < F_FLOOR else math.sqrt(2.0 * math.log(1.0 / target_abs_f))
    floor = full_dephasing_floor_um(sm)
    diff = tau * dephasing_length_um(sm)
    return floor + diff, floor
