"""Closed-form synthesis of arbitrary two-qubit pure states.

Given target amplitudes (a, b, c, d) over {HH, HV, VH, VV}, find source
settings (theta, phi) and local unitaries U_A, U_B such that

    (U_A x U_B)(cos(theta)|HH> + e^{i phi} sin(theta)|VV>)

equals the target up to a global phase.  The solver dispatches on the
determinant D = ad - bc of the reshaped amplitude matrix:

  * |D| = 0: product state, built from |HH> with independent rotations;
  * 0 < |D| < 1/2: generic entangled state, closed-form branch;
  * near |D| = 1/2, where the closed form loses digits: a 2x2 SVD;
  * |D| = 1/2: maximally entangled state, its own construction.
"""

from __future__ import annotations

import math

import numpy as np

from .elements import WaveplateSpec, spdc_pair_state, su2_to_waveplates
from .errors import Record
from .qmath import _norm, check_pure
from .recipe_io import SpdcSourceSpec

PRODUCT_THRESHOLD = 1e-12
# 1 - 2|D| below this is |D| = 1/2 up to rounding (exact Bell states sit
# about 2e-16 off): the maximal construction
MAXIMAL_GUARD = 1e-15
# the generic branch divides by |alpha|^2 - |beta|^2 = -(1 - 2|D|) (to first
# order) and loses digits as eps / (1 - 2|D|); below this gap the SVD takes over
SEAM_BAND = 1e-3

_DEGENERATE = 1e-9


class PureRecipe(Record):
    """Source setting plus local rotations that produce a pure target.

    wp_a / wp_b are the quarter-half-quarter waveplate expansions of the
    unitaries, in traversal order.
    """

    def __init__(self, source: SpdcSourceSpec, u_a: np.ndarray, u_b: np.ndarray,
                 wp_a: tuple[WaveplateSpec, WaveplateSpec, WaveplateSpec],
                 wp_b: tuple[WaveplateSpec, WaveplateSpec, WaveplateSpec]):
        self.__dict__.update(source=source, u_a=u_a, u_b=u_b, wp_a=wp_a, wp_b=wp_b)

    def state(self) -> np.ndarray:
        return np.kron(self.u_a, self.u_b) @ spdc_pair_state(self.source)


def _su2_form(u: complex, v: complex) -> np.ndarray:
    m = np.array([[u, v], [-np.conjugate(v), np.conjugate(u)]])
    return m / _norm(m[:, 0])


def _column_extension(col: np.ndarray) -> np.ndarray:
    """Unitary whose first column is the given unit vector."""
    c0, c1 = col
    return np.array([[c0, -np.conjugate(c1)], [c1, np.conjugate(c0)]])


def _source_from_coeffs(alpha: float, beta: complex) -> SpdcSourceSpec:
    theta = np.arctan2(abs(beta), alpha)
    phi = float(np.arctan2(beta.imag, beta.real)) if abs(beta) > 0.0 else 0.0
    return SpdcSourceSpec(theta=float(theta), phi=phi)


def _solve_product(psi: np.ndarray):
    """Factor a product state; |HH> seed plus one rotation per arm."""
    u, s, vh = np.linalg.svd(psi.reshape(2, 2))
    u_a = _column_extension(u[:, 0])
    u_b = _column_extension(vh[0, :])
    return SpdcSourceSpec(theta=0.0, phi=0.0), u_a, u_b


def _solve_generic(psi: np.ndarray, det: complex):
    """Closed-form branch for 0 < |D| < 1/2.

    alpha^2 = (1 - sqrt(1 - 4|D|^2))/2, computed in the rationalized form
    2|D|^2 / (1 + sqrt(...)) to stay accurate for small |D|; note alpha is
    the smaller coefficient (alpha <= |beta|).  The intermediate products
      z1 = u1 u2, z2 = v1 v2, z3 = v1 u2*, z4 = u1 v2*
    determine the unitary entries once the phase convention u1 real >= 0
    is applied; the factorization below handles every vanishing-entry case.
    """
    a, b, c, d = psi
    abs_d = abs(det)
    root = math.sqrt(max(0.0, 1.0 - 4.0 * abs_d * abs_d))
    alpha = abs_d * math.sqrt(2.0 / (1.0 + root))
    beta = det / alpha
    den = alpha * alpha - abs(beta) ** 2  # = -root, nonzero away from |D| = 1/2
    z1 = (a * alpha - np.conjugate(d) * beta) / den
    z2 = (np.conjugate(d) * alpha - a * np.conjugate(beta)) / den
    z3 = (-np.conjugate(c) * alpha - b * np.conjugate(beta)) / den
    z4 = (-b * alpha - np.conjugate(c) * beta) / den

    mag_u2 = np.hypot(abs(z1), abs(z3))
    if mag_u2 > _DEGENERATE:
        u1 = abs(z1) / mag_u2
        if u1 > _DEGENERATE:
            u2 = z1 / u1
            v2 = np.conjugate(z4) / u1
            v1 = z3 / np.conjugate(u2)
        else:  # U_A is anti-diagonal; fix its phase as v1 = 1
            v1 = 1.0 + 0.0j
            u2 = np.conjugate(z3)
            v2 = z2
    else:  # u2 = 0: U_B is anti-diagonal
        mag_v2 = np.hypot(abs(z2), abs(z4))
        u1 = abs(z4) / mag_v2
        if u1 > _DEGENERATE:
            v2 = np.conjugate(z4) / u1
            v1 = z2 / v2
        else:
            v1 = 1.0 + 0.0j
            v2 = z2
        u2 = 0.0j

    u_a = _su2_form(u1, v1)
    u_b = _su2_form(u2, v2)
    return _source_from_coeffs(float(alpha), complex(beta)), u_a, u_b


def _solve_near_seam(psi: np.ndarray):
    """SVD for MAXIMAL_GUARD <= 1 - 2|D| < SEAM_BAND, exact at every |D|.

    psi reshaped is u diag(cos theta, sin theta) vh, so U_A = u and
    U_B = vh^T, each scaled into SU(2) (a global phase).
    """
    u, s, vh = np.linalg.svd(psi.reshape(2, 2))
    u_b = vh.T
    source = SpdcSourceSpec(theta=float(np.arctan2(s[1], s[0])), phi=0.0)
    return source, u / np.sqrt(np.linalg.det(u)), u_b / np.sqrt(np.linalg.det(u_b))


def _solve_maximal(psi: np.ndarray):
    """Construction for |D| = 1/2.

    With e^{i gamma} = a/d* = -b/c* (taken from whichever pair is nonzero),
    the seed (e^{i gamma}, 1)/sqrt(2) and the unitaries below reproduce the
    target exactly; the two columns of U_B are orthogonal for any (c, d)
    and only need normalizing.
    """
    a, b, c, d = psi
    z = a * d if abs(a * d) >= abs(b * c) else -b * c
    gamma = np.arctan2(z.imag, z.real)
    eig = np.exp(1j * gamma)
    u_a = np.array([[1.0, eig], [-np.conjugate(eig), 1.0]]) / np.sqrt(2.0)
    u_b = np.array(
        [
            [np.conjugate(d) - c, np.conjugate(d) + c],
            [-d - np.conjugate(c), d - np.conjugate(c)],
        ]
    )
    for k in range(2):
        u_b[:, k] /= _norm(u_b[:, k])
    # seed (e^{i gamma}, 1)/sqrt(2) == (1, e^{-i gamma})/sqrt(2) up to phase
    source = SpdcSourceSpec(theta=np.pi / 4.0, phi=-gamma)
    return source, u_a, u_b


def solve_pure(target: np.ndarray) -> PureRecipe:
    """Compile a pure target state into source settings and local rotations."""
    psi = check_pure(target)
    det = psi[0] * psi[3] - psi[1] * psi[2]
    gap = 1.0 - 2.0 * abs(det)
    if abs(det) < PRODUCT_THRESHOLD:
        source, u_a, u_b = _solve_product(psi)
    elif gap < MAXIMAL_GUARD:
        source, u_a, u_b = _solve_maximal(psi)
    elif gap < SEAM_BAND:
        source, u_a, u_b = _solve_near_seam(psi)
    else:
        source, u_a, u_b = _solve_generic(psi, det)
    return PureRecipe(
        source=source,
        u_a=u_a,
        u_b=u_b,
        wp_a=su2_to_waveplates(u_a),
        wp_b=su2_to_waveplates(u_b),
    )
