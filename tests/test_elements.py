import math

import numpy as np
import pytest

from qforge.elements import (
    DecohererSpec,
    SpdcSourceSpec,
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
from qforge.errors import MismatchedDecoherers, OutOfRange, TargetOutOfRange
from qforge.qmath import random_su2

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
    d = DecohererSpec(5000.0)
    f = analytic_f(d, d, SM)
    assert abs(abs(f) - 1.0) < 1e-12


def test_analytic_f_zero_lengths():
    d = DecohererSpec(0.0)
    assert analytic_f(d, d, SM) == 1.0 + 0.0j


def test_analytic_f_tau_one():
    # tau = 1 -> |f| = e^{-1/2}
    diff = dephasing_length_um(SM, 0.009)
    f = analytic_f(DecohererSpec(diff), DecohererSpec(0.0), SM)
    assert abs(abs(f) - math.exp(-0.5)) < 1e-12


def test_analytic_f_mismatch():
    with pytest.raises(MismatchedDecoherers):
        analytic_f(DecohererSpec(10.0, delta_n=0.009), DecohererSpec(10.0, delta_n=0.01), SM)
    with pytest.raises(MismatchedDecoherers):
        analytic_f(DecohererSpec(10.0, axis="V"), DecohererSpec(10.0, axis="H"), SM)


def test_analytic_f_monotone_and_symmetric():
    base = 2000.0
    diffs = np.linspace(0.0, 5.0 * dephasing_length_um(SM, 0.009), 40)
    mags = []
    for d in diffs:
        f = analytic_f(DecohererSpec(base + d), DecohererSpec(base), SM)
        swapped = analytic_f(DecohererSpec(base), DecohererSpec(base + d), SM)
        assert abs(abs(f) - abs(swapped)) < 1e-15
        mags.append(abs(f))
    assert all(a >= b - 1e-15 for a, b in zip(mags, mags[1:]))


def test_invert_f_unit_target():
    l1, l2 = invert_f(1.0, SM, 0.009)
    assert l1 == l2 == full_dephasing_floor_um(SM, 0.009)


def test_invert_f_example_target_0p6():
    l1, l2 = invert_f(0.6, SM, 0.009)
    want = math.sqrt(2.0 * math.log(1.0 / 0.6))
    assert abs((l1 - l2) / dephasing_length_um(SM, 0.009) - want) < 1e-12
    assert abs(want - 1.0108) < 1e-4


def test_invert_f_round_trip_grid():
    for target in np.arange(0.01, 1.0 + 1e-9, 0.01):
        l1, l2 = invert_f(float(target), SM, 0.009)
        f = analytic_f(DecohererSpec(l1), DecohererSpec(l2), SM)
        assert abs(abs(f) - target) < 1e-10
        assert l1 >= l2 >= full_dephasing_floor_um(SM, 0.009)


def test_invert_f_rejects_zero_and_out_of_range():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(TargetOutOfRange):
            invert_f(bad, SM, 0.009)


def test_invert_f_below_floor_capped():
    l1, l2 = invert_f(1e-20, SM, 0.009)
    f = analytic_f(DecohererSpec(l1), DecohererSpec(l2), SM)
    assert abs(f) < 1.3e-14
    assert abs(abs(f) - 1e-20) < 1e-12  # both effectively zero


def test_spectral_model_lengths():
    assert abs(SM.l_si_um - 100.0) < 1e-9
