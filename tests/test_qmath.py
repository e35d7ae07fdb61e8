import itertools
import threading

import numpy as np
import pytest

from qforge import families
from qforge.errors import NotFinite, NotHermitian, NotPositive, TraceNotOne
from qforge.qmath import (
    _eigh,
    _norm,
    _svdvals,
    _trace,
    canonical_decompose,
    concurrence,
    fidelity,
    linear_entropy,
    purity,
    tangle,
    validate_density,
)

from kit import (
    bell_state,
    partial_transpose,
    ppt_separable,
    projector,
    random_density_matrix,
    random_pure_state,
)


def test_validate_accepts_maximally_mixed():
    rho = validate_density(np.eye(4) / 4.0)
    assert np.allclose(rho, np.eye(4) / 4.0)


def test_validate_rejects_bad_trace():
    with pytest.raises(TraceNotOne):
        validate_density(0.9 * np.eye(4) / 4.0)


def _skewed_eye():
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = 0.1
    return m


@pytest.mark.parametrize("m, match", [
    (_skewed_eye(), "exceeds"),
    (np.eye(3) / 3.0, "expected a 4x4 matrix"),
])
def test_validate_rejects_non_hermitian(m, match):
    with pytest.raises(NotHermitian, match=match):
        validate_density(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_validate_rejects_non_finite_entries(bad):
    # a symmetric pair passes the hermiticity check; it must not reach eigh
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(NotFinite):
        validate_density(m)
    m = np.eye(4, dtype=complex) / 4.0
    m[2, 2] = bad
    with pytest.raises(NotFinite):
        validate_density(m)


def test_validate_rejects_negative_eigenvalue():
    m = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
    with pytest.raises(NotPositive):
        validate_density(m)


def test_validate_clamps_tiny_negative_eigenvalue():
    psi = bell_state("phi+")
    m = projector(psi)
    m = m - 5e-11 * projector(bell_state("psi-")) + 5e-11 * m
    rho = validate_density(0.5 * (m + m.conj().T) / m.trace().real)
    assert np.linalg.eigvalsh(rho).min() >= 0.0
    assert abs(rho.trace() - 1.0) < 1e-14


def test_validate_accepts_one_third_mems_matrix():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = m[3, 3] = 1.0 / 3.0
    m[0, 3] = m[3, 0] = 1.0 / 3.0
    rho = validate_density(m)
    assert np.allclose(rho, m)


def test_bell_state_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown Bell state 'phi'"):
        bell_state("phi")


def test_canonical_bell_state():
    dec = canonical_decompose(projector(bell_state("phi+")))
    assert np.allclose(dec.eigenvalues, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert abs(np.vdot(dec.eigenstates[0], bell_state("phi+"))) > 1.0 - 1e-12


def test_canonical_werner_third():
    dec = canonical_decompose(families.werner(1.0 / 3.0))
    assert np.allclose(dec.eigenvalues, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-12)


def test_canonical_mems_two_thirds():
    dec = canonical_decompose(families.mems(2.0 / 3.0))
    assert np.allclose(dec.eigenvalues, [2 / 3, 1 / 3, 0.0, 0.0], atol=1e-12)


def _phase_fixed_reference(rho):
    """The eigenstates, one vector at a time: descending eigenvalues, each
    vector rotated so its first largest-magnitude entry is real, positive."""
    evals, evecs = np.linalg.eigh(validate_density(rho))
    rows = []
    for k in np.argsort(evals)[::-1]:
        v = evecs[:, k]
        mags = np.abs(v)
        i = int(np.argmax(mags))
        rows.append(v * (v[i].conjugate() / mags[i]))
    return np.array(rows)


def _rank_targets():
    """Seeded matrices of rank 1-4, and degenerate spectra."""
    rng = np.random.default_rng(5)
    for rank in (1, 2, 3, 4):
        for _ in range(25):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            m = g @ g.conj().T
            yield 0.5 * (m + m.conj().T) / m.trace().real
    yield np.eye(4, dtype=complex) / 4.0
    for r in (0.0, 1 / 3, 0.5, 0.9, 1.0):
        yield families.werner(r)
    for r in (0.1, 0.5, 2 / 3, 0.8, 1.0):
        yield families.mems(r)


def test_canonical_phase_convention():
    for rho in _rank_targets():
        dec = canonical_decompose(rho)
        assert dec.eigenstates.tobytes() == _phase_fixed_reference(rho).tobytes()
        for v in dec.eigenstates:
            i = int(np.argmax(np.abs(v)))
            assert v[i].real > 0.0
            assert abs(v[i].imag) < 1e-12


def _decompose_by_argsort(rho):
    """canonical_decompose as first written: argsort of eigh's eigenvalues,
    reversed, and fancy indexing of the eigenvector rows."""
    evals, evecs = _eigh(validate_density(rho))
    order = np.argsort(evals)[::-1]
    states = evecs.T[order]
    mags = np.abs(states)
    peak = mags.argmax(axis=1)
    rows = np.arange(4)
    states = states * (states[rows, peak].conj() / mags[rows, peak])[:, None]
    return np.maximum(evals[order], 0.0), states


def _tied_spectra():
    """Spectra with equal eigenvalues, bare and under a seeded local unitary."""
    bells = [projector(bell_state(name)) for name in ("phi+", "phi-", "psi+", "psi-")]
    spectra = [np.eye(4, dtype=complex) / 4.0, np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex),
               np.diag([0.0, 0.5, 0.0, 0.5]).astype(complex)]
    spectra += [families.werner(r) for r in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0)]
    for w in ((0.25,) * 4, (0.5, 0.5, 0.0, 0.0), (0.4, 0.4, 0.1, 0.1), (0.3, 0.1, 0.3, 0.3),
              (0.0, 0.0, 0.5, 0.5)):
        spectra.append(sum(x * b for x, b in zip(w, bells)))
    rng = np.random.default_rng(18)
    for rho in spectra:
        yield rho
        u = np.kron(*(np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                      for _ in range(2)))
        turned = u @ rho @ u.conj().T
        yield 0.5 * (turned + turned.conj().T)


def test_canonical_decompose_keeps_the_argsort_order_on_tied_spectra():
    # eigh returns ascending eigenvalues, and argsort of them is the identity,
    # ties included: reversing eigh's order gives the same bits
    for rho in itertools.chain(_tied_spectra(), _rank_targets()):
        dec = canonical_decompose(rho)
        evals, states = _decompose_by_argsort(rho)
        assert _bits(dec.eigenvalues) == _bits(evals)
        assert _bits(dec.eigenstates) == _bits(states)


def _concurrence_by_mask(rho):
    """concurrence as first written: the kept eigenpairs gathered by mask always."""
    mu, vec = _eigh(0.5 * (rho + rho.conj().T))
    keep = mu > 1e-15 * max(1.0, float(mu[-1]))
    w = vec[:, keep] * np.sqrt(mu[keep])
    lam = _svdvals(w.T @ np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]]) @ w).tolist() + [0.0] * 4
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def test_concurrence_matches_the_mask_gather_bitwise():
    for rho in itertools.chain(_tied_spectra(), _rank_targets(), HELPER_MATRICES):
        assert _bits(concurrence(rho)) == _bits(_concurrence_by_mask(rho))


def test_fidelity_examples():
    rho = families.werner(0.37)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-12
    hh = projector(np.array([1, 0, 0, 0], dtype=complex))
    vv = projector(np.array([0, 0, 0, 1], dtype=complex))
    assert fidelity(hh, vv) < 1e-12
    # <Phi+| rho_W |Phi+> = (1 + 3r)/4 = 1/2 at r = 1/3
    assert abs(fidelity(families.werner(1 / 3), projector(bell_state("phi+"))) - 0.5) < 1e-12


def test_fidelity_symmetric():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = random_density_matrix(rng)
        b = random_density_matrix(rng)
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-12


def test_tangle_examples():
    assert abs(tangle(projector(bell_state("phi+"))) - 1.0) < 1e-12
    assert tangle(np.eye(4) / 4.0) == 0.0
    assert tangle(families.werner(1 / 3)) < 1e-12  # PPT boundary


@pytest.mark.parametrize(
    "rho, rank, want",
    [(families.werner(1.0), 1, 1.0)]
    + [(families.mems(r), 2 if r < 1.0 else 1, r * r) for r in (0.7, 0.8, 0.95, 1.0)]
    + [(families.mems(r), 3, r * r) for r in (0.1, 0.4, 0.6)],
)
def test_tangle_of_rank_deficient_states(rho, rank, want):
    # fewer kept eigenvalues than four: the spin-flip SVD returns `rank` values
    assert (np.linalg.eigvalsh(rho) > 1e-15).sum() == rank
    assert abs(tangle(rho) - want) < 1e-12
    assert abs(concurrence(rho) - np.sqrt(want)) < 1e-12


def test_linear_entropy_examples():
    assert linear_entropy(projector(bell_state("psi-"))) < 1e-12
    assert abs(linear_entropy(np.eye(4) / 4.0) - 1.0) < 1e-12
    assert abs(linear_entropy(families.mems(2 / 3)) - 16.0 / 27.0) < 1e-12


def test_ppt_examples():
    assert not ppt_separable(projector(bell_state("phi+")))
    assert ppt_separable(families.werner(1 / 3))
    assert not ppt_separable(families.werner(0.5))
    # min PT eigenvalue of werner(r) is (1 - 3r)/4
    evals = np.linalg.eigvalsh(partial_transpose(families.werner(0.5)))
    assert abs(evals.min() + 1.0 / 8.0) < 1e-12


def test_random_state_invariants():
    # canonical reconstruction, metric ranges, tangle <-> PPT agreement
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        rho = validate_density(random_density_matrix(rng))
        dec = canonical_decompose(rho)
        assert np.abs(dec.reconstruct() - rho).max() < 1e-9
        t = tangle(rho)
        s = linear_entropy(rho)
        assert 0.0 <= t <= 1.0
        assert 0.0 <= s <= 1.0
        c = concurrence(rho)
        if ppt_separable(rho):
            assert c <= 1e-8
        else:
            assert c > 0.0
        assert t <= families.mems_boundary_tangle(s) + 1e-8


def test_random_pure_state_invariants():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        psi = random_pure_state(rng)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert linear_entropy(projector(psi)) < 1e-10


def test_purity_range():
    assert abs(purity(np.eye(4) / 4.0) - 0.25) < 1e-14
    assert abs(purity(projector(bell_state("phi+"))) - 1.0) < 1e-12


def _ginibre(seed, rank):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    return m / m.trace().real


HELPER_MATRICES = [
    *(_ginibre(seed, rank) for rank in (1, 2, 3, 4) for seed in range(5)),
    *(projector(bell_state(name)) for name in ("phi+", "phi-", "psi+", "psi-")),
    np.eye(4, dtype=complex) / 4.0,
]


def _bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("m", HELPER_MATRICES)
def test_linalg_helpers_match_numpy_bitwise(m):
    # the helpers skip numpy's wrappers, not its arithmetic: bit for bit the
    # same results, on the matrix, its transposed (strided) view, the k x k
    # blocks concurrence passes to _svdvals, and strided rows and columns
    for a in (m, m.T, *(m[:k, :k] for k in (1, 2, 3))):
        assert list(map(_bits, _eigh(a))) == list(map(_bits, np.linalg.eigh(a)))
        assert _bits(_svdvals(a)) == _bits(np.linalg.svd(a, compute_uv=False))
    for v in (*m, *m.T, *m[:2, :2].T, m[::2, 1], m.ravel()[::3]):
        assert _bits(_norm(v)) == _bits(np.linalg.norm(v))


def _signed_zero_diagonals():
    # every sign pattern of zero on the real and imaginary parts of the
    # diagonal, alone and on top of a state's off-diagonal entries
    for signs in itertools.product((0.0, -0.0), repeat=8):
        diag = [complex(re, im) for re, im in zip(signs[::2], signs[1::2])]
        bare = np.zeros((4, 4), dtype=complex)
        bare[np.diag_indices(4)] = diag
        dressed = HELPER_MATRICES[0].copy()
        dressed[np.diag_indices(4)] = diag
        yield bare
        yield dressed


@pytest.mark.parametrize("m", HELPER_MATRICES)
def test_trace_matches_numpy_bitwise(m):
    # the matrix, its transposed view and its real part cast to complex
    for a in (m, m.T, m.real.astype(complex), m.real.T.astype(complex)):
        assert _bits(np.complex128(_trace(a))) == _bits(a.trace())


def test_trace_keeps_numpys_signed_zeros():
    for a in _signed_zero_diagonals():
        assert _bits(np.complex128(_trace(a))) == _bits(a.trace())


def _caller_handler(err, flag):
    raise AssertionError("the caller's error handler ran")


def _helpers_keep_the_error_state():
    good = HELPER_MATRICES[0]
    bad = np.full((4, 4), np.nan, dtype=complex)
    for helper, message in ((_eigh, "Eigenvalues did not converge"),
                            (_svdvals, "SVD did not converge")):
        before = (np.geterr(), np.geterrcall())
        helper(good)
        assert (np.geterr(), np.geterrcall()) == before
        with pytest.raises(np.linalg.LinAlgError) as info:
            helper(bad)
        assert str(info.value) == message
        assert (np.geterr(), np.geterrcall()) == before
    # the metrics set their own state too, and reset it on return and on NotFinite
    for metric in (concurrence, purity, lambda m: fidelity(m, m)):
        before = (np.geterr(), np.geterrcall())
        metric(good)
        assert (np.geterr(), np.geterrcall()) == before
        for m in NON_FINITE.values():
            with pytest.raises(NotFinite):
                metric(m)
            assert (np.geterr(), np.geterrcall()) == before


def test_linalg_helpers_restore_the_callers_error_state():
    _helpers_keep_the_error_state()
    with np.errstate(all="raise"):
        _helpers_keep_the_error_state()
        assert np.geterr() == dict.fromkeys(("divide", "over", "under", "invalid"), "raise")
    with np.errstate(all="call", call=_caller_handler):
        _helpers_keep_the_error_state()
        assert np.geterrcall() is _caller_handler
    errors = []

    def in_thread():
        try:
            with np.errstate(divide="raise"):
                _helpers_keep_the_error_state()
            _helpers_keep_the_error_state()
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)

    outside = (np.geterr(), np.geterrcall())
    worker = threading.Thread(target=in_thread)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert errors == []
    assert (np.geterr(), np.geterrcall()) == outside


NOT_4X4 = {"2x2": np.eye(2) / 2.0, "3x3": np.eye(3) / 3.0, "3x4": np.full((3, 4), 0.25),
           "0x0": np.zeros((0, 0)), "4-vector": np.full(4, 0.25)}


@pytest.mark.parametrize("shape", NOT_4X4)
@pytest.mark.parametrize(
    "metric", [validate_density, fidelity, concurrence, tangle, purity, linear_entropy],
    ids=lambda f: f.__name__)
def test_metrics_reject_a_matrix_that_is_not_4x4(metric, shape):
    m = NOT_4X4[shape]
    rho = np.eye(4) / 4.0
    for args in ([(m, rho), (rho, m), (m, m)] if metric is fidelity else [(m,)]):
        with pytest.raises(NotHermitian) as info:
            metric(*args)
        assert str(info.value) == f"expected a 4x4 matrix, got shape {m.shape}"


def test_metrics_trust_a_validated_matrix():
    # the metrics take a density matrix validated where it entered, as the CLI
    # does, and check nothing more per call: of these two, which validation
    # rejects, they read half and return a clean state's values
    h = np.eye(4, dtype=complex) / 4.0
    h[0, 1] = 0.3
    assert (fidelity(h, np.eye(4) / 4.0), tangle(h), purity(h)) == (1.0, 0.0, 0.25)
    with pytest.raises(NotHermitian):
        validate_density(h)
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 3] = np.inf
    assert fidelity(rho, np.eye(4) / 4.0) == 1.0
    with pytest.raises(NotFinite):
        validate_density(rho)


NON_FINITE = {"nan": np.full((4, 4), np.nan, dtype=complex),
              "inf": np.full((4, 4), np.inf, dtype=complex)}
METRICS = {"tangle": tangle, "concurrence": concurrence, "fidelity": fidelity,
           "linear_entropy": linear_entropy, "purity": purity}
# (matrix, metric) -> the numpy error that the metric's NotFinite is raised
# from, None where its arithmetic ends in NaN unraised.  RuntimeWarning is an error
# in this suite: on the inf matrix 0.5 * (inf + inf) and inf @ inf would warn,
# and under eigh's error state, which the metrics run in, they raise eigh's
# LinAlgError instead.
EIGH_ERROR = (np.linalg.LinAlgError, "Eigenvalues did not converge")
NON_FINITE_CONTEXT = {
    ("nan", "tangle"): EIGH_ERROR,
    ("nan", "concurrence"): EIGH_ERROR,
    ("nan", "fidelity"): EIGH_ERROR,
    ("nan", "linear_entropy"): None,
    ("nan", "purity"): None,
    ("inf", "tangle"): EIGH_ERROR,
    ("inf", "concurrence"): EIGH_ERROR,
    ("inf", "fidelity"): EIGH_ERROR,
    ("inf", "linear_entropy"): EIGH_ERROR,
    ("inf", "purity"): EIGH_ERROR,
}


def _not_finite_message():
    with pytest.raises(NotFinite) as info:
        validate_density(NON_FINITE["nan"])
    return str(info.value)


@pytest.mark.parametrize("case", NON_FINITE_CONTEXT, ids="-".join)
def test_metrics_on_non_finite_input_raise_not_finite(case):
    # validate_density's error, raised from numpy's own type and message where
    # LAPACK saw the matrix: a numpy whose private LAPACK entry points changed
    # fails here rather than in a user's hands
    m = NON_FINITE[case[0]]
    metric = METRICS[case[1]]
    with pytest.raises(NotFinite) as info:
        metric(*((m, m) if metric is fidelity else (m,)))
    assert str(info.value) == _not_finite_message()
    context = info.value.__context__
    if NON_FINITE_CONTEXT[case] is None:
        assert context is None
    else:
        raises, message = NON_FINITE_CONTEXT[case]
        assert type(context) is raises and str(context) == message


NON_FINITE_ENTRIES = (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(0.0, np.nan),
                      complex(np.inf, -np.inf))
# a full-rank, a pure and a rank-2 state: the pure and rank-2 ones take
# concurrence's dropped-eigenvalue path when finite
NON_FINITE_BASES = (np.eye(4, dtype=complex) / 4.0, np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex),
                    _ginibre(7, 2))


@pytest.mark.parametrize("name", METRICS)
def test_every_non_finite_entry_a_metric_reads_raises_not_finite(name):
    # each entry of each base state replaced by each non-finite value; fidelity
    # reads all of sigma, and of rho what eigh reads: the strict lower triangle
    # and the real part of the diagonal
    metric, message = METRICS[name], _not_finite_message()
    for base, value, (i, j) in itertools.product(
            NON_FINITE_BASES, NON_FINITE_ENTRIES, itertools.product(range(4), repeat=2)):
        m = base.copy()
        m[i, j] = value
        if metric is not fidelity:
            calls = [(m,)]
        elif i > j or (i == j and not np.isfinite(m[i, j].real)):  # read in rho too
            calls = [(base, m), (m, base)]
        else:
            calls = [(base, m)]
        for args in calls:
            with pytest.raises(NotFinite) as info:
                metric(*args)
            assert str(info.value) == message, (name, value, i, j)
