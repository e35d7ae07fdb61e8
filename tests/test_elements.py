import math

import numpy as np
import pytest

from qforge.elements import (
    WaveplateSpec,
    analytic_f,
    compose_waveplates,
    default_spectral_model,
    dephasing_length_um,
    full_dephasing_floor_um,
    hwp,
    invert_f,
    qwp,
    spdc_pair_state,
    su2_to_waveplates,
    waveplate_unitary,
)
from qforge.errors import MismatchedDecoherers, NotFinite, OutOfRange, TargetOutOfRange
from qforge.recipe_io import DecohererStage, SpdcSourceSpec

from kit import random_su2

SM = default_spectral_model()


def phase_free_distance(u, v):
    """1 - |tr(u^dag v)| / 2, zero iff u = v up to global phase."""
    return 1.0 - abs(np.trace(u.conj().T @ v)) / 2.0


def test_hwp_at_45_swaps_h_and_v():
    u = waveplate_unitary(hwp(math.pi / 4.0))
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    assert phase_free_distance(u, swap) < 1e-12


def test_hwp_at_0_is_diag_1_minus1():
    u = waveplate_unitary(hwp(0.0))
    assert phase_free_distance(u, np.diag([1.0, -1.0]).astype(complex)) < 1e-12


def test_hwp_reflects_about_axis():
    for t in (0.1, 0.7, 1.3):
        u = waveplate_unitary(hwp(t))
        refl = np.array(
            [[math.cos(2 * t), math.sin(2 * t)], [math.sin(2 * t), -math.cos(2 * t)]],
            dtype=complex,
        )
        assert phase_free_distance(u, refl) < 1e-12


def test_qwp_at_45_maps_h_to_circular():
    u = waveplate_unitary(qwp(math.pi / 4.0))
    out = u @ np.array([1.0, 0.0], dtype=complex)
    want = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    assert abs(np.vdot(want, out)) > 1.0 - 1e-12


def test_waveplates_unitary():
    rng = np.random.default_rng(4)
    for _ in range(200):
        wp = WaveplateSpec(
            retardance=rng.uniform(1e-3, 2 * math.pi - 1e-3),
            axis_angle=rng.uniform(0, math.pi),
        )
        u = waveplate_unitary(wp)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12


def test_waveplate_retardance_range():
    with pytest.raises(OutOfRange):
        WaveplateSpec(retardance=0.0, axis_angle=0.0)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize("plate", [hwp, qwp, lambda t: WaveplateSpec(math.pi, t)],
                         ids=["hwp", "qwp", "spec"])
def test_waveplate_axis_angle_must_be_finite(plate, angle):
    # such a plate's Jones matrix would be all NaN
    with pytest.raises(NotFinite, match=f"^axis_angle = {angle} is not finite$"):
        plate(angle)
    with pytest.raises(OutOfRange):  # the retardance is checked first
        WaveplateSpec(0.0, angle)
    assert plate(np.float64(3.0)).axis_angle == plate(3).axis_angle == 3.0


def test_su2_decomposition_identity():
    plates = su2_to_waveplates(np.eye(2, dtype=complex))
    assert phase_free_distance(compose_waveplates(plates), np.eye(2, dtype=complex)) < 1e-10


def test_su2_decomposition_hwp_target():
    target = waveplate_unitary(hwp(math.pi / 4.0))
    plates = su2_to_waveplates(target)
    assert phase_free_distance(compose_waveplates(plates), target) < 1e-10


def test_su2_decomposition_random_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        u = random_su2(rng)
        plates = su2_to_waveplates(u)
        assert phase_free_distance(compose_waveplates(plates), u) < 1e-10
        for wp in plates:
            assert 0.0 <= wp.axis_angle < math.pi


def _edge_unitaries():
    """diag(g, +-g) and antidiag(g, +-g) for assorted global phases g: the
    first row of u / sqrt(det u) is real or imaginary, so one Euler angle
    comes from its 1e-15 fallback.  At g = exp(-2.34i) an angle lands
    just below 0, where t % pi rounds to pi."""
    for t in (0.0, 0.3, math.pi / 2, math.pi, -2.0, -2.34):
        g = np.exp(1j * t)
        for sign in (1.0, -1.0):
            yield np.array([[g, 0.0], [0.0, sign * g]])
            yield np.array([[0.0, g], [sign * g, 0.0]])


@pytest.mark.parametrize("case", ["u2_global_phase", "diagonal_and_anti_diagonal"])
def test_su2_decomposition_of_u2_inputs(case):
    if case == "u2_global_phase":  # as a recipe file's unitaries may carry
        rng = np.random.default_rng(13)
        inputs = [random_su2(rng) * np.exp(2j * math.pi * rng.random()) for _ in range(1000)]
    else:
        inputs = list(_edge_unitaries())
        su_rows = [(u / np.sqrt(np.linalg.det(u)))[0] for u in inputs]
        assert all(min(np.hypot(*row.real), np.hypot(*row.imag)) <= 1e-15 for row in su_rows)
    for u in inputs:
        plates = su2_to_waveplates(u)
        assert phase_free_distance(compose_waveplates(plates), u) < 1e-10
        for wp in plates:
            assert 0.0 <= wp.axis_angle < math.pi


def test_spdc_pair_states():
    assert np.allclose(spdc_pair_state(SpdcSourceSpec(theta=0.0)), [1, 0, 0, 0])
    out = spdc_pair_state(SpdcSourceSpec(theta=math.pi / 4.0, phi=0.0))
    assert np.allclose(out, np.array([1, 0, 0, 1]) / math.sqrt(2.0))
    out = spdc_pair_state(SpdcSourceSpec(theta=math.pi / 3.0, phi=math.pi / 2.0))
    assert np.allclose(out, [0.5, 0.0, 0.0, 0.5j * math.sqrt(3.0)])


def test_spdc_schmidt_basis_is_hv():
    rng = np.random.default_rng(8)
    for _ in range(100):
        src = SpdcSourceSpec(theta=rng.uniform(0, math.pi / 2), phi=rng.uniform(0, 2 * math.pi))
        psi = spdc_pair_state(src)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        m = psi.reshape(2, 2)
        assert abs(m[0, 1]) == 0.0 and abs(m[1, 0]) == 0.0  # diagonal => Schmidt basis {H, V}


def test_source_angle_ranges():
    with pytest.raises(OutOfRange):
        SpdcSourceSpec(theta=2.0)
    assert SpdcSourceSpec(theta=0.3, phi=-1.0).phi == pytest.approx(2 * math.pi - 1.0)


def test_analytic_f_equal_lengths_unit_magnitude():
    f = analytic_f(DecohererStage("A", 5000.0), DecohererStage("B", 5000.0), SM)
    assert abs(abs(f) - 1.0) < 1e-12


def test_analytic_f_zero_lengths():
    assert analytic_f(DecohererStage("A", 0.0), DecohererStage("B", 0.0), SM) == 1.0 + 0.0j


def test_analytic_f_tau_one():
    # tau = 1 -> |f| = e^{-1/2}
    diff = dephasing_length_um(SM)
    f = analytic_f(DecohererStage("A", diff), DecohererStage("B", 0.0), SM)
    assert abs(abs(f) - math.exp(-0.5)) < 1e-12


def test_analytic_f_mismatch():
    with pytest.raises(MismatchedDecoherers):
        analytic_f(DecohererStage("A", 10.0, axis="V"), DecohererStage("B", 10.0, axis="H"), SM)


def test_analytic_f_monotone_and_symmetric():
    base = 2000.0
    diffs = np.linspace(0.0, 5.0 * dephasing_length_um(SM), 40)
    mags = []
    for d in diffs:
        f = analytic_f(DecohererStage("A", base + d), DecohererStage("B", base), SM)
        swapped = analytic_f(DecohererStage("A", base), DecohererStage("B", base + d), SM)
        assert abs(abs(f) - abs(swapped)) < 1e-15
        mags.append(abs(f))
    assert all(a >= b - 1e-15 for a, b in zip(mags, mags[1:]))


def test_invert_f_unit_target():
    l1, l2 = invert_f(1.0, SM)
    assert l1 == l2 == full_dephasing_floor_um(SM)


def test_invert_f_example_target_0p6():
    l1, l2 = invert_f(0.6, SM)
    want = math.sqrt(2.0 * math.log(1.0 / 0.6))
    assert abs((l1 - l2) / dephasing_length_um(SM) - want) < 1e-12
    assert abs(want - 1.0108) < 1e-4


def test_invert_f_round_trip_grid():
    for target in np.arange(0.01, 1.0 + 1e-9, 0.01):
        l1, l2 = invert_f(float(target), SM)
        f = analytic_f(DecohererStage("A", l1), DecohererStage("B", l2), SM)
        assert abs(abs(f) - target) < 1e-10
        assert l1 >= l2 >= full_dephasing_floor_um(SM)


def test_invert_f_rejects_zero_and_out_of_range():
    for bad in (-0.1, 1.5):
        with pytest.raises(TargetOutOfRange):
            invert_f(bad, SM)
    assert invert_f(0.0, SM) == invert_f(1e-20, SM)  # zero takes the cap


def test_invert_f_below_floor_capped():
    l1, l2 = invert_f(1e-20, SM)
    f = analytic_f(DecohererStage("A", l1), DecohererStage("B", l2), SM)
    assert abs(f) < 1.3e-14
    assert abs(abs(f) - 1e-20) < 1e-12  # both effectively zero


def test_invert_f_names_an_l_si_whose_path_phase_overflows():
    # the phase of L1 overflows from l_si = 1e292 um at the default pump; below
    # that, the lengths come back and analytic_f's check_path_phase names them
    l1, _ = invert_f(0.6, default_spectral_model(l_si_um=1e291))
    assert math.isfinite(l1)
    with pytest.raises(OutOfRange, match="beyond 2\\*\\*53 rad"):
        analytic_f(DecohererStage("A", l1), DecohererStage("B", l1), SM)
    for l_si, target in ((1e292, 0.6), (1e292, 1.0), (1e307, 0.0), (1e308, 1.0)):
        with pytest.raises(OutOfRange) as info:
            invert_f(target, default_spectral_model(l_si_um=l_si))
        assert str(info.value) == (f"l_si {l_si:.6g} um makes the decoherers' path phase "
                                   f"overflow a double")


def test_spectral_model_lengths():
    assert abs(SM.l_si_um - 100.0) < 1e-9
