import numpy as np
import pytest

from qforge.errors import BadF, BadNorm, BadWeights, OutOfRange, UnsupportedTarget
from qforge.families import (
    FamilyParams,
    bell_diagonal,
    collins_gisin,
    family_d1,
    mems,
    mems_boundary_tangle,
    werner,
)
from qforge.qmath import canonical_decompose, linear_entropy, tangle, validate_density

from kit import bell_state, ppt_separable, projector


def test_mems_split_point():
    m = mems(2.0 / 3.0)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = want[1, 1] = want[3, 3] = want[0, 3] = want[3, 0] = 1.0 / 3.0
    assert np.abs(m - want).max() < 1e-14
    # both branch formulas agree there
    eps = 1e-13
    assert np.abs(mems(2.0 / 3.0 - eps) - mems(2.0 / 3.0 + eps)).max() < 1e-12


def test_mems_endpoints():
    assert np.abs(mems(1.0) - projector(bell_state("phi+"))).max() < 1e-14
    want = np.diag([1 / 3, 1 / 3, 0.0, 1 / 3]).astype(complex)
    assert np.abs(mems(0.0) - want).max() < 1e-14


def test_mems_metrics_identities():
    for r in np.linspace(2.0 / 3.0, 1.0, 12):
        rho = mems(float(r))
        assert abs(tangle(rho) - r * r) < 1e-10
        assert abs(linear_entropy(rho) - (8.0 / 3.0) * r * (1.0 - r)) < 1e-10


def test_mems_concurrence_is_r_below_split():
    for r in np.linspace(0.0, 2.0 / 3.0, 9):
        assert abs(tangle(mems(float(r))) - r * r) < 1e-10


def test_werner_examples():
    w = werner(1.0 / 3.0)
    assert np.allclose(np.diag(w).real, [1 / 3, 1 / 6, 1 / 6, 1 / 3])
    assert w[0, 3] == pytest.approx(1 / 6)
    assert np.abs(werner(0.0) - np.eye(4) / 4.0).max() < 1e-14
    assert np.abs(werner(1.0) - projector(bell_state("phi+"))).max() < 1e-14


def test_werner_separability_threshold():
    for r in np.arange(0.0, 1.0 + 1e-9, 0.1):
        assert ppt_separable(werner(float(r))) == (r <= 1.0 / 3.0 + 1e-12)
        if r <= 1.0 / 3.0:
            assert tangle(werner(float(r))) < 1e-12
        else:
            assert tangle(werner(float(r))) > 0.0
    assert ppt_separable(werner(1.0 / 3.0 - 1e-9))
    assert not ppt_separable(werner(1.0 / 3.0 + 1e-6))


def test_collins_gisin_examples():
    assert np.abs(collins_gisin(1.0, np.pi / 4.0) - projector(bell_state("phi+"))).max() < 1e-14
    hv = projector(np.array([0, 1, 0, 0], dtype=complex))
    assert np.abs(collins_gisin(0.0, 0.7) - hv).max() < 1e-14
    m = collins_gisin(0.5, np.pi / 6.0)
    assert m[0, 0] == pytest.approx(3.0 / 8.0)
    assert m[1, 1] == pytest.approx(0.5)
    assert m[3, 3] == pytest.approx(1.0 / 8.0)
    assert m[0, 3] == pytest.approx(np.sqrt(3.0) / 8.0)


def test_bell_diagonal_examples():
    assert np.abs(bell_diagonal(1, 0, 0, 0) - projector(bell_state("phi+"))).max() < 1e-14
    assert np.abs(bell_diagonal(0.25, 0.25, 0.25, 0.25) - np.eye(4) / 4.0).max() < 1e-14
    m = bell_diagonal(0.4, 0.3, 0.2, 0.1)
    assert np.allclose(np.diag(m).real, [0.35, 0.15, 0.15, 0.35])
    assert m[0, 3] == pytest.approx(0.05)
    assert m[1, 2] == pytest.approx(0.05)


def test_bell_diagonal_eigenstructure():
    rng = np.random.default_rng(9)
    bells = [bell_state(n) for n in ("phi+", "phi-", "psi+", "psi-")]
    for _ in range(50):
        lam = rng.dirichlet(np.ones(4))
        rho = bell_diagonal(*lam)
        # commutes with every Bell projector
        for b in bells:
            p = projector(b)
            assert np.abs(rho @ p - p @ rho).max() < 1e-12
        dec = canonical_decompose(rho)
        assert np.abs(np.sort(dec.eigenvalues) - np.sort(lam)).max() < 1e-10


def test_family_d1_pure_and_diagonal_limits():
    s = 1.0 / np.sqrt(2.0)
    pure = family_d1(s, 0, 0, s, 1.0)
    assert np.abs(pure - projector(bell_state("phi+"))).max() < 1e-14
    diag = family_d1(0.5, 0.5, 0.5, 0.5, 0.0)
    assert np.abs(diag - np.eye(4) / 4.0).max() < 1e-14


def test_family_d1_mems_relation():
    # MEMS branch-II construction: |f| = 3r/2 on the 1/sqrt(3) seed
    r = 0.4
    t = 1.0 / np.sqrt(3.0)
    rho = family_d1(t, t, 0.0, t, 1.5 * r)
    assert np.abs(rho - mems(r)).max() < 1e-12


def test_family_d1_complex_f():
    s = 1.0 / np.sqrt(2.0)
    rho = family_d1(s, 0, 0, s, 0.3 + 0.4j)
    assert rho[0, 3] == pytest.approx((0.3 + 0.4j) * 0.5)
    validate_density(rho)


def test_constructor_errors():
    with pytest.raises(OutOfRange):
        mems(1.2)
    with pytest.raises(OutOfRange):
        werner(-0.1)
    with pytest.raises(OutOfRange):
        collins_gisin(2.0, 0.0)
    with pytest.raises(BadWeights):
        bell_diagonal(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(BadWeights):
        bell_diagonal(0.3, 0.3, 0.3, 0.3)
    with pytest.raises(BadNorm):
        family_d1(1.0, 1.0, 0.0, 0.0, 0.5)
    with pytest.raises(BadF):
        family_d1(0.5, 0.5, 0.5, 0.5, 1.5)


def test_family_params_is_the_checked_family_target():
    t = FamilyParams("Collins-Gisin", ("0.5", 1))
    assert (t.kind, t.params) == ("collins_gisin", (0.5, 1.0))
    with pytest.raises(UnsupportedTarget, match="unknown family 'ghz'"):
        FamilyParams("ghz", (0.5,))
    with pytest.raises(ValueError, match="family werner takes 1 parameter"):
        FamilyParams("werner", (0.5, 0.1))
    with pytest.raises(ValueError):
        FamilyParams("werner", ("x",))


def test_nan_parameters_are_rejected():
    nan = float("nan")
    with pytest.raises(BadWeights):
        bell_diagonal(0.4, 0.3, 0.2, nan)
    with pytest.raises(BadNorm):
        family_d1(nan, 0.0, 0.0, 0.8, 0.5)
    with pytest.raises(BadF):
        family_d1(0.6, 0.0, 0.0, 0.8, nan)
    with pytest.raises(OutOfRange):
        mems_boundary_tangle(nan)


def test_all_constructors_validate():
    rng = np.random.default_rng(13)
    for _ in range(100):
        validate_density(mems(float(rng.uniform(0, 1))))
        validate_density(werner(float(rng.uniform(0, 1))))
        validate_density(collins_gisin(float(rng.uniform(0, 1)), float(rng.uniform(0, np.pi))))
        validate_density(bell_diagonal(*rng.dirichlet(np.ones(4))))


def test_boundary_matches_mems_sweep():
    for r in np.linspace(0.0, 1.0, 201):
        rho = mems(float(r))
        s = linear_entropy(rho)
        t = tangle(rho)
        assert abs(mems_boundary_tangle(s) - t) < 1e-9
    assert mems_boundary_tangle(1.0) == 0.0
    assert mems_boundary_tangle(0.0) == 1.0
