"""Metric, Gram analysis and classification-sequence tests."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullcartan import (
    ClassificationError,
    DegenerateBasisError,
    DimensionMismatchError,
    PseudoMetric,
    SequenceReport,
    family_nullity_sequence,
)
from nullcartan.metric import _row_norms, _shared_metric

from conftest import exact_rank, golden_L1, golden_N1, random_isometry, rational_gram


@pytest.fixture
def m5():
    return PseudoMetric(5)


# ---------------------------------------------------------------------------
# inner
# ---------------------------------------------------------------------------

def test_inner_on_basis_vectors(m5):
    e = np.eye(5)
    assert m5.inner(e[0], e[0]) == -1.0
    assert m5.inner(e[1], e[1]) == -1.0
    assert m5.inner(e[2], e[2]) == 1.0
    assert m5.inner(e[2], e[3]) == 0.0


def test_inner_golden_frame_pairing(m5):
    # <L1(0), N1(0)> = 1 for the bundled quintic's frame
    assert m5.inner(golden_L1(0.0), golden_N1(0.0)) == pytest.approx(1.0, abs=1e-15)


def test_inner_rejects_dimension_mismatch(m5):
    with pytest.raises(DimensionMismatchError):
        m5.inner(np.ones(4), np.ones(5))


def test_metric_rejects_small_dimension():
    with pytest.raises(DimensionMismatchError):
        PseudoMetric(3)


def test_inner_bilinear_and_symmetric(m5):
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, y, z = rng.normal(size=(3, 5))
        a, b = rng.normal(size=2)
        left = m5.inner(a * x + b * y, z)
        right = a * m5.inner(x, z) + b * m5.inner(y, z)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-12)
        assert m5.inner(x, y) == pytest.approx(m5.inner(y, x), rel=1e-15)


# ---------------------------------------------------------------------------
# gram
# ---------------------------------------------------------------------------

def test_gram_of_negative_plane(m5):
    e = np.eye(5)
    assert np.allclose(m5.gram([e[0], e[1]]), np.diag([-1.0, -1.0]))


def test_gram_of_null_pair_vanishes(m5):
    from conftest import golden_L2
    G = m5.gram([golden_L1(1.0), golden_L2(1.0)])
    assert np.max(np.abs(G)) < 1e-14


def test_gram_empty_list_is_empty_matrix(m5):
    assert m5.gram([]).shape == (0, 0)


def test_gram_matches_pairwise_inner(m5):
    rng = np.random.default_rng(5)
    vs = list(rng.normal(size=(3, 5)))
    G = m5.gram(vs)
    for i in range(3):
        for j in range(3):
            assert G[i, j] == pytest.approx(m5.inner(vs[i], vs[j]), rel=1e-14)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(4, 8), m=st.integers(1, 9), k=st.integers(0, 9),
       scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
def test_stacked_inner_and_gram_match_single_systems(n, m, k, scale, seed):
    rng = np.random.default_rng(seed)
    metric = PseudoMetric(n)
    X, Y = scale * rng.normal(size=(2, m, n))
    M = scale * rng.normal(size=(m, k, n))
    inner, gram = metric.inner(X, Y), metric.gram(M)
    assert inner.shape == (m,) and gram.shape == (m, k, k)
    for i in range(m):  # bitwise: the stack runs the single-system arithmetic
        assert inner[i] == metric.inner(X[i], Y[i])
        assert np.array_equal(gram[i], metric.gram(list(M[i])))
    # an isometry A moves row vectors to x A^T and keeps every pairing
    A = random_isometry(n, rng)
    size = np.linalg.norm(X, axis=-1) * np.linalg.norm(Y, axis=-1)
    assert np.all(np.abs(metric.inner(X @ A.T, Y @ A.T) - inner) <= 1e-12 * size)
    norms = np.linalg.norm(M, axis=-1)
    moved = metric.gram(M @ A.T)
    assert np.all(np.abs(moved - gram) <= 1e-12 * norms[..., :, None] * norms[..., None, :])


@pytest.mark.parametrize("n", [5, 6, 8, 12])
@pytest.mark.parametrize("m", [1, 3, 7, 17, 61, 240, 257])
def test_gram_is_the_strided_product_bit_for_bit(n, m):
    # the oracle multiplies by the strided transpose, as the Gram did before
    # it copied the transpose contiguous; stacks of k = 3 derivative rows and
    # of k = n frame rows, with exact zeros of both signs among the entries
    rng = np.random.default_rng(1000 * n + m)
    metric = PseudoMetric(n)
    for k in (3, n):
        for scale in (1e-6, 1.0, 1e6):
            M = scale * rng.normal(size=(m, k, n))
            M[rng.random(M.shape) < 0.2] = 0.0
            M[rng.random(M.shape) < 0.05] = -0.0
            want = (M * metric.signs) @ M.swapaxes(-1, -2)
            assert metric._gram(M).tobytes() == want.tobytes()
            assert metric.gram(M).tobytes() == want.tobytes()
            assert metric.gram(M[0]).tobytes() == want[0].tobytes()


# ---------------------------------------------------------------------------
# subspace_profile
# ---------------------------------------------------------------------------

def test_profile_definite_directions(m5):
    e = np.eye(5)
    p = m5.subspace_profile([e[0], e[2]])
    assert (p.rank, p.radical_dim, p.index) == (2, 0, 1)


def test_profile_golden_totally_degenerate_pair(m5):
    from conftest import golden_L2
    p = m5.subspace_profile([golden_L1(1.0), golden_L2(1.0)])
    assert (p.radical_dim, p.index) == (2, 0)


def test_profile_empty_and_zero_systems(m5):
    p = m5.subspace_profile([])
    assert (p.rank, p.radical_dim, p.index) == (0, 0, 0)
    p = m5.subspace_profile([np.zeros(5)])
    assert (p.rank, p.radical_dim, p.index) == (0, 1, 0)


def test_profile_matches_exact_rational_rank(m5):
    rng = np.random.default_rng(17)
    for _ in range(25):
        ints = rng.integers(-4, 5, size=(4, 5))
        vs = [row.astype(float) for row in ints]
        frac = [[Fraction(int(v)) for v in row] for row in ints]
        G = rational_gram(frac, 5)
        want_rank = exact_rank(G)
        p = m5.subspace_profile(vs)
        assert p.rank == want_rank
        assert p.radical_dim == 4 - want_rank


def test_profile_invariant_under_row_scaling(m5):
    rng = np.random.default_rng(23)
    for _ in range(25):
        vs = rng.normal(size=(3, 5))
        scales = rng.choice([-3.0, -0.5, 0.25, 2.0, 10.0], size=3)
        p0 = m5.subspace_profile(list(vs))
        p1 = m5.subspace_profile([c * v for c, v in zip(scales, vs)])
        assert (p0.rank, p0.radical_dim, p0.index) == (p1.rank, p1.radical_dim, p1.index)


# ---------------------------------------------------------------------------
# sequence_report
# ---------------------------------------------------------------------------

def golden_derivative_rows(s):
    from conftest import golden_L1, golden_L2, golden_N1, golden_N2, golden_W3
    return [golden_L1(s), golden_L2(s), golden_W3(s), golden_N2(s), golden_N1(s)]


def test_sequence_report_golden(m5):
    rep = m5.sequence_report(golden_derivative_rows(1.0))
    assert rep.nullity_sequence == (0, 1, 2, 2, 1, 0)
    assert rep.degeneration_degree == 2


def test_sequence_report_orthonormal_basis(m5):
    e = np.eye(5)
    # spacelike spans first, then the two negative directions
    rep = m5.sequence_report([e[2], e[3], e[4], e[0], e[1]])
    assert rep.nullity_sequence == (0,) * 6
    assert rep.index_sequence == (0, 0, 0, 0, 1, 2)
    assert rep.degeneration_degree == 0


def test_sequence_report_rejects_dependent_prefix(m5):
    e = np.eye(5)
    with pytest.raises(ClassificationError) as exc:
        m5.sequence_report([e[0], e[1], e[0] + e[1], e[2], e[3]])
    assert exc.value.prefix_length == 3


def test_sequence_step_laws_on_random_bases():
    rng = np.random.default_rng(100)
    for _ in range(100):
        n = int(rng.integers(4, 9))
        m = PseudoMetric(n)
        while True:
            B = rng.normal(size=(n, n))
            if abs(np.linalg.det(B)) > 1e-3:
                break
        rep = m.sequence_report(list(B))
        r, q = rep.nullity_sequence, rep.index_sequence
        assert r[0] == q[0] == 0 and r[-1] == 0 and q[-1] == 2
        for i in range(1, n + 1):
            assert abs(r[i] - r[i - 1]) <= 1
            assert q[i] - q[i - 1] in (0, 1)
        assert 2 * rep.degeneration_degree == sum(
            abs(r[i] - r[i - 1]) for i in range(1, n + 1))


def _outcome(fn):
    try:
        return fn()
    except ClassificationError as exc:
        return type(exc), str(exc), exc.prefix_length


# chosen to break the step laws at tol = 0.1 under a threshold scaled per
# prefix; against one threshold the nested blocks of QᵀSQ keep them, with
# eigenvalues -0.44 | -1, 0.11 | -1, -0.53, 1 | -1, -1, 1, 1
STEP_BREAK = np.array([[3, 2, -2, 1], [0, 2, -2, 1], [2, 3, -2, 0], [-3, -3, -3, 0]], float)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(4, 9), m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       defect=st.sampled_from([None, "dependent", "step"]), where=st.floats(0.0, 1.0))
def test_stacked_reports_match_pointwise(n, m, seed, defect, where):
    rng = np.random.default_rng(seed)
    metric = PseudoMetric(n)
    tol = 1e-9
    B = rng.normal(size=(m, n, n))
    j = min(int(where * m), m - 1)
    if defect == "dependent":
        i = int(rng.integers(1, n))
        B[j, i] = rng.normal(size=i) @ B[j, :i]
    elif defect == "step":
        tol = 0.1  # permuted, perturbed identities classify cleanly at this tol
        B = np.eye(n)[np.argsort(rng.random((m, n)), axis=1)]
        B += 0.05 * rng.normal(size=B.shape)
        B[j] = 4.0 * np.eye(n)
        B[j, :4, :4] = STEP_BREAK
    pointwise = []
    for b in B:  # a loop over the stack stops at its first error
        pointwise.append(_outcome(lambda: metric.sequence_report(list(b), tol)))
        if isinstance(pointwise[-1], tuple):
            break
    stacked = _outcome(lambda: metric.sequence_reports(B, tol))
    if defect is None:
        assert stacked == pointwise
        for rep, b in zip(stacked, B):  # each prefix profiled on its own
            profiles = [metric.subspace_profile(list(b[:i]), tol) for i in range(1, n + 1)]
            assert rep.nullity_sequence == (0, *(p.radical_dim for p in profiles))
            assert rep.index_sequence == (0, *(p.index for p in profiles))
    elif defect == "step":  # nested blocks against one threshold keep the step laws
        assert stacked == pointwise
        assert stacked[j] == SequenceReport((0,) * (n + 1), (0, 1, 1) + (2,) * (n - 2), 0)
    else:
        assert len(pointwise) == j + 1
        assert stacked == pointwise[-1]
        assert "dependent at prefix" in stacked[1]


@pytest.mark.parametrize("broken", [{2}, {0, 3}, {1, 2, 4}])
def test_step_law_refusal_is_the_first_in_stack_order(monkeypatch, broken):
    # no real basis breaks the step laws (see STEP_BREAK), so the eigenvalue
    # array is patched: prefix 2 of each broken basis reads n null eigenvalues
    rng = np.random.default_rng(7)
    metric, B = PseudoMetric(5), rng.normal(size=(6, 5, 5))
    original, first = np.linalg.eigvalsh, [0]

    def patched(blocks):
        w = original(blocks)
        for b in range(len(w)):
            if first[0] + b in broken:
                w[b, 1] = 0.0
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", patched)
    pointwise = []
    for i, b in enumerate(B):
        first[0] = i
        pointwise.append(_outcome(lambda: metric.sequence_report(list(b))))
        if isinstance(pointwise[-1], tuple):
            break
    first[0] = 0
    stacked = _outcome(lambda: metric.sequence_reports(B))
    assert len(pointwise) == min(broken) + 1
    assert stacked == pointwise[-1]
    assert stacked[1].startswith("sequence step law violated at i=2: dr=")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(4, 12), seed=st.integers(0, 2**32 - 1), golden=st.booleans(),
       exponents=st.lists(st.floats(-6.0, 6.0), min_size=12, max_size=12))
def test_step_laws_hold_and_profiles_ignore_row_scaling(n, seed, golden, exponents):
    # a random basis, or the quintic's derivative rows moved by an isometry
    rng = np.random.default_rng(seed)
    if golden:
        n = 5
        B = np.stack(golden_derivative_rows(rng.uniform(-1.0, 1.0))) @ random_isometry(5, rng).T
    else:
        B = rng.normal(size=(n, n))
    metric = PseudoMetric(n)
    rep = metric.sequence_report(list(B))
    r, q = rep.nullity_sequence, rep.index_sequence
    assert r[-1] == 0 and q[-1] == 2
    for i in range(1, n + 1):
        assert abs(r[i] - r[i - 1]) <= 1 and q[i] - q[i - 1] in (0, 1)
    if golden:
        assert r == family_nullity_sequence(5)
    scaled = B * 10.0 ** np.array(exponents[:n])[:, None]
    assert metric.sequence_report(list(scaled)) == rep
    for i in range(1, n + 1):
        assert metric.subspace_profile(list(scaled[:i])) == metric.subspace_profile(list(B[:i]))


def test_profile_counts_a_dependent_row_in_the_radical_before_independent_ones(m5):
    # Householder QR gives the repeated e0 an arbitrary direction, here e1,
    # which e1 itself then reads as dependent: the profile drops the repeat
    e = np.eye(5)
    p = m5.subspace_profile([e[0], e[0], e[1]])
    assert (p.rank, p.radical_dim, p.index) == (2, 1, 2)
    p = m5.subspace_profile([e[2], 2 * e[2], e[3], e[4], e[0], e[1], e[0] + e[3]])
    assert (p.rank, p.radical_dim, p.index) == (5, 2, 2)


def test_family_sequence_shapes():
    assert family_nullity_sequence(5) == (0, 1, 2, 2, 1, 0)
    assert family_nullity_sequence(6) == (0, 1, 2, 2, 1, 0, 0)
    assert family_nullity_sequence(8) == (0, 1, 2, 2, 1, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# orientation_sign
# ---------------------------------------------------------------------------

def test_orientation_standard_basis(m5):
    e = np.eye(5)
    assert m5.orientation_sign(list(e)) == 1
    swapped = [e[1], e[0], e[2], e[3], e[4]]
    assert m5.orientation_sign(swapped) == -1


def test_orientation_golden_derivatives_at_one(m5):
    # frozen from the direct 5x5 determinant of the derivative rows
    rows = golden_derivative_rows(1.0)
    det = np.linalg.det(np.stack(rows))
    assert m5.orientation_sign(rows) == int(np.sign(det)) == -1


def test_orientation_rejects_degenerate(m5):
    e = np.eye(5)
    with pytest.raises(DegenerateBasisError):
        m5.orientation_sign([e[0], e[1], e[2], e[3], e[0] + e[1]])


# ---------------------------------------------------------------------------
# Shared per-n constants and the one norm
# ---------------------------------------------------------------------------

def test_a_shared_metric_is_built_once_per_n_read_only_and_bounded():
    metric = _shared_metric(6)
    assert metric is _shared_metric(6) and metric.dimension == 6
    assert _shared_metric(7) is not metric
    with pytest.raises(ValueError):
        metric._signs[0] = 1.0  # no caller can change the form the others read
    assert np.array_equal(metric._signs, PseudoMetric(6).signs)
    signs = metric.signs
    signs[0] = 1.0  # a copy
    assert metric._signs[0] == -1.0
    maxsize = _shared_metric.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
    with pytest.raises(DimensionMismatchError):
        _shared_metric(3)


@pytest.mark.parametrize("shape", [(5,), (1, 5), (61, 6), (9, 8, 8), (3, 16)])
def test_row_norms_are_numpys_norm_bit_for_bit(shape):
    rng = np.random.default_rng(len(shape) + shape[-1])
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-200, 200, size=shape)
    x.flat[::7] = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, 5e-324][:len(x.flat[::7])]
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _row_norms(x), np.linalg.norm(x, axis=-1)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
