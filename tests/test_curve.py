"""Curve model, classification and reparametrization tests."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import make_interp_spline

from nullcartan import (
    ArcLengthCurve,
    ClassificationError,
    Curve,
    ExprEvaluationError,
    FamilyError,
    HypothesisError,
    InputError,
    MappedCurve,
    PseudoMetric,
    ReparametrizedCurve,
    SampledCurve,
    SplineCurve,
    bertrand_check,
    bertrand_mate,
    classify,
    evolute,
    frenet_residuals,
    involute,
    pseudo_arc_reparam,
    pseudo_spherical_test,
    require_family,
)
from nullcartan.bundled import NULL_QUINTIC
from nullcartan.constructions import involute_frame_check
from nullcartan.curve import JET_BUDGET, CumulativeIntegral, pointwise_order
from nullcartan.frame import cartan_frames

from conftest import golden_L1, polynomial_derivative_oracle


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_golden_first_derivative_at_zero(golden):
    d1 = golden.derivatives(0.0, 1)[0]
    assert np.allclose(d1, golden_L1(0.0), atol=1e-15)
    scale = 1.0 / (4.0 * math.sqrt(15.0))
    assert np.allclose(d1, [scale, 0, 0, 0, scale], atol=1e-15)


def test_straight_null_line_derivatives():
    line = Curve.from_strings(["s", "0", "s", "0", "0"], domain=(0.0, 2.0))
    d1, d2 = line.derivatives(1.0, 2)
    assert np.allclose(d1, [1, 0, 1, 0, 0])
    assert np.allclose(d2, 0.0)


def test_polynomial_curve_derivatives_match_coefficient_oracle():
    rng = np.random.default_rng(31)
    coeff_rows = [rng.normal(size=6) for _ in range(5)]
    comps = [" + ".join(f"({c:.17g})*s^{k}" for k, c in enumerate(row))
             for row in coeff_rows]
    curve = Curve.from_strings(comps, domain=(-1.0, 1.0))
    t = 0.37
    derivs = curve.derivatives(t, 5)
    for k in range(1, 6):
        want = [polynomial_derivative_oracle(row, t, k) for row in coeff_rows]
        assert np.allclose(derivs[k - 1], want, rtol=1e-12, atol=1e-12)


def test_derivatives_enforce_domain_and_budget(golden):
    with pytest.raises(InputError):
        golden.derivatives(5.0, 1)
    with pytest.raises(InputError):
        golden.derivatives(0.5, JET_BUDGET + 1)


def test_negative_jet_orders_are_refused(golden):
    # jet_eval already refused them; the curve paths raised IndexError
    for call in (lambda: golden.derivatives(0.5, -1), lambda: golden.vec_jet(0.5, -1),
                 lambda: golden.vec_jets(np.array([0.5]), -1)):
        with pytest.raises(InputError, match="jet order -1 is negative"):
            call()


# every public grid entry: the curve it reads, and the call on a grid
GRID_ENTRIES = {
    "classify": ("quintic", lambda c, grid: classify(c, grid=grid)),
    "require_family": ("quintic", lambda c, grid: require_family(c, grid=grid)),
    "bertrand_check": ("quintic", lambda c, grid: bertrand_check(c, grid=grid)),
    "bertrand_mate": ("quintic", lambda c, grid: bertrand_mate(c, 1.0, grid=grid)),
    "cartan_frames": ("quintic", cartan_frames),
    "pseudo_spherical_test": ("synth6", lambda c, grid: pseudo_spherical_test(c, grid=grid)),
    "evolute": ("synth6", lambda c, grid: evolute(c, grid=grid)),
    "involute_frame_check": ("synth6", involute_frame_check),
    "involute": ("helix", lambda c, grid: involute(c, 0.0, grid=grid)),
    "frenet_residuals": ("quintic", frenet_residuals),
}


@pytest.fixture(scope="module")
def grid_curves(golden, synth6):
    helix = Curve.from_strings(["0", "0", "cos(s)", "sin(s)", "s"], domain=(0.0, 1.0))
    return {"quintic": golden, "synth6": synth6, "helix": helix}


@pytest.mark.parametrize("entry", list(GRID_ENTRIES))
def test_an_empty_grid_is_an_input_error(entry, grid_curves):
    name, call = GRID_ENTRIES[entry]
    # frenet_residuals counts its grid before it reads a point
    message = ("residual grid needs at least 7 points" if entry == "frenet_residuals"
               else "the parameter grid is empty")
    with pytest.raises(InputError, match=message):
        call(grid_curves[name], [])


@pytest.mark.parametrize("kind", ["outside", "nan"])
@pytest.mark.parametrize("entry", list(GRID_ENTRIES))
def test_a_grid_point_outside_the_domain_is_an_input_error(entry, kind, grid_curves):
    # a uniform grid whose first six points are valid and whose last lies
    # past the domain; the NaN case puts a NaN at the fourth point
    name, call = GRID_ENTRIES[entry]
    curve = grid_curves[name]
    a, b = curve.domain
    grid = np.linspace(a, b, 7) + 0.1 * (b - a)
    if kind == "nan":
        grid[3] = np.nan
    message = f"parameter {grid[-1] if kind == 'outside' else 'nan'} outside domain"
    if entry == "frenet_residuals" and kind == "nan":
        message = "residual grid must be uniformly spaced"  # read before any point
    with pytest.raises(InputError, match=re.escape(message)):
        call(curve, grid)


def test_classify_raises_the_first_failing_point_of_a_grid():
    # the straight null line fails classification at 0.5 before the grid
    # leaves its domain at 5.0, so that earlier error is the one raised
    line = Curve.from_strings(["s", "0", "s", "0", "0"], domain=(0.0, 2.0))
    with pytest.raises(ClassificationError, match="linearly dependent"):
        classify(line, [0.5, 5.0])
    with pytest.raises(InputError, match="parameter 5.0 outside domain"):
        classify(line, [5.0, 0.5])


def test_single_points_outside_the_domain_are_refused(golden):
    with pytest.raises(InputError):
        golden.point(5.0)
    with pytest.raises(InputError):
        golden.vec_jet(5.0, 0)
    # a grid is checked by the same rule: vec_jets is the one checked entry
    with pytest.raises(InputError, match="parameter 5.0 outside domain"):
        golden.vec_jets(np.array([0.5, 5.0]), 0)


def test_non_finite_jet_names_its_component_at_the_first_grid_point():
    # (1e200 s)^2 overflows to inf for every s on the grid but 0
    curve = Curve.from_strings(["s", "s^2", "s^3", "s^4", "(1e200*s)*(1e200*s)"],
                               domain=(0.0, 1.0))
    grid = np.linspace(0.0, 1.0, 11)
    with np.errstate(over="ignore"), pytest.raises(ExprEvaluationError) as exc:
        pointwise_order(lambda ts: curve.vec_jets(ts, 0).value, grid)
    assert str(exc.value).startswith("component 4: non-finite jet at s=0.1 ")


def test_overflowing_function_call_is_an_evaluation_error():
    curve = Curve.from_strings(["s", "s^2", "s^3", "s^4", "s + exp(800)"])
    with pytest.raises(ExprEvaluationError) as exc:
        curve.vec_jets(np.array([0.5]), 1)
    assert str(exc.value).startswith("component 4: math range error")


def test_component_count_must_match_dimension():
    from nullcartan import parse
    exprs = tuple(parse(t) for t in ("s", "s^2", "s^3"))
    with pytest.raises(InputError):
        Curve(5, exprs)
    with pytest.raises(InputError):
        Curve.from_strings(["s", "s^2", "s^3"])  # dimension below 4


def test_evaluation_error_names_component():
    curve = Curve.from_strings(["s", "s", "1/(s - 1)", "s", "s"], domain=(0.0, 2.0))
    with pytest.raises(ExprEvaluationError) as exc:
        curve.derivatives(1.0, 2)
    assert "component 2" in str(exc.value)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_golden(golden):
    rep = classify(golden, grid=[0.2, 0.5, 1.0])
    assert rep.report.nullity_sequence == (0, 1, 2, 2, 1, 0)
    assert rep.report.degeneration_degree == 2
    assert rep.family


def test_classify_default_grid_is_chebyshev(golden):
    rep = classify(golden)
    assert len(rep.grid) == 17
    assert rep.family


def test_classify_circle_fails_independence():
    # a circle's derivative system is linearly dependent from order 3 on,
    # so the classification errors out with the offending prefix length
    circle = Curve.from_strings(["0", "0", "cos(s)", "sin(s)", "0"],
                                domain=(0.0, 1.0))
    with pytest.raises(ClassificationError) as exc:
        classify(circle, grid=[0.3, 0.7])
    assert exc.value.prefix_length == 3


def test_classify_generic_independent_curve_not_in_family():
    curve = Curve.from_strings(["s", "s^2/2", "s^3/6", "s^4/24", "s^5/120"],
                               domain=(-0.5, 0.5))
    rep = classify(curve, grid=[-0.2, 0.1, 0.4])
    assert rep.report.nullity_sequence[1] == 0  # timelike tangent, not null
    assert not rep.family
    with pytest.raises(FamilyError):
        require_family(curve, grid=[-0.2, 0.1, 0.4])


def test_classify_synth6(synth6):
    rep = classify(synth6, grid=np.linspace(0.05, 0.95, 7))
    assert rep.report.nullity_sequence == (0, 1, 2, 2, 1, 0, 0)
    assert rep.family


def test_classify_synth8(synth8):
    rep = classify(synth8, grid=np.linspace(0.05, 0.95, 5))
    assert rep.report.nullity_sequence == (0, 1, 2, 2, 1, 0, 0, 0, 0)
    assert rep.family


def test_classify_lapack_calls_do_not_grow_with_the_grid(synth8, monkeypatch):
    calls = {"eigvalsh": 0, "svd": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rep = classify(synth8, grid=np.linspace(0.02, 0.98, 17))
    assert rep.family
    # one stacked eigvalsh per prefix length, one stacked rank check
    assert calls == {"eigvalsh": 8, "svd": 1}


def test_null_chain_identities_on_family_curves(golden, synth6):
    m5, m6 = PseudoMetric(5), PseudoMetric(6)
    for curve, metric in ((golden, m5), (synth6, m6)):
        for t in np.linspace(curve.domain[0] + 0.05, curve.domain[1] - 0.05, 9):
            d = curve.derivatives(float(t), 3)
            for a, b in [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2)]:
                assert abs(metric.inner(d[a], d[b])) < 1e-9


# ---------------------------------------------------------------------------
# pseudo-arc reparametrization
# ---------------------------------------------------------------------------

def test_reparam_identity_on_golden(golden):
    res = pseudo_arc_reparam(golden, grid_density=65)
    assert np.max(np.abs(res.table_s - res.table_t)) < 1e-9
    assert res.unit_speed_defect < 1e-6
    # identity resampling: points at sbar match direct evaluation
    for s, p in zip(res.sampled.grid[::8], res.sampled.points[::8]):
        assert np.allclose(p, golden.point(float(s)), atol=1e-9)


def test_reparam_linear_stretch(golden):
    # t = 2u doubles the rate: sbar(u) = 2u exactly (1/6-power homogeneity)
    stretched = golden.precompose("2*u", parameter="u", domain=(0.0, 0.6))
    res = pseudo_arc_reparam(stretched, grid_density=33)
    assert np.max(np.abs(res.table_s - 2.0 * res.table_t)) < 1e-9


def test_reparam_smooth_change_restores_unit_speed(golden):
    warped = golden.precompose("u + 0.1*u^2", parameter="u", domain=(0.0, 1.0))
    res = pseudo_arc_reparam(warped, grid_density=129)
    assert res.unit_speed_defect < 1e-6


def test_reparam_covariance(golden):
    # the reparametrized view is pointwise invariant under precomposition:
    # matching pseudo-arc coordinates address the same points and derivatives
    warped = golden.precompose("u + 0.1*u^2", parameter="u", domain=(0.0, 1.0))
    rep_direct = ReparametrizedCurve(golden)
    rep_warped = ReparametrizedCurve(warped)
    for u in np.linspace(0.05, 0.95, 7):
        t = u + 0.1 * u * u
        s_w = rep_warped.pseudo_arc_of(float(u))
        s_d = rep_direct.pseudo_arc_of(float(t))
        p1 = rep_warped.point(s_w)
        p2 = rep_direct.point(s_d)
        assert np.allclose(p1, golden.point(float(t)), atol=1e-9)
        assert np.allclose(p1, p2, atol=1e-9)
        d1 = rep_warped.derivatives(s_w, 3)
        d2 = rep_direct.derivatives(s_d, 3)
        for k in range(3):
            assert np.allclose(d1[k], d2[k], atol=1e-8)


def test_classify_invariant_under_reparam(golden):
    warped = golden.precompose("u + 0.1*u^2", parameter="u", domain=(0.0, 1.0))
    rep = ReparametrizedCurve(warped)
    grid = np.linspace(rep.domain[0] + 0.02, rep.domain[1] - 0.02, 5)
    out = classify(rep, grid=grid)
    assert out.family
    assert out.report.nullity_sequence == (0, 1, 2, 2, 1, 0)


def test_reparam_refuses_nonpositive_integrand():
    # a curve whose third derivative is timelike cannot be pseudo-arc scaled
    curve = Curve.from_strings(["s^3/6", "0", "s", "s^2/2", "0"],
                               domain=(0.0, 1.0))
    with pytest.raises(FamilyError):
        ReparametrizedCurve(curve)


def test_reparam_family_gate():
    curve = Curve.from_strings(["s", "s^2/2", "s^3/6", "s^4/24", "s^5/120"],
                               domain=(-0.5, 0.5))
    with pytest.raises(FamilyError):
        pseudo_arc_reparam(curve)


# ---------------------------------------------------------------------------
# sampled curves, splines, parameter maps
# ---------------------------------------------------------------------------

def test_sampled_curve_validation():
    with pytest.raises(InputError):
        SampledCurve(np.array([0.0, 0.0, 1.0]), np.zeros((3, 5)))
    with pytest.raises(InputError):
        SampledCurve(np.array([0.0, 1.0]), np.zeros((3, 5)))


def test_sampled_curve_holds_read_only_copies():
    g = np.linspace(0.0, 1.0, 8)
    p = np.zeros((8, 5))
    sampled = SampledCurve(g, p)
    g[3] = 5.0
    p[0, 0] = 1.0
    assert np.all(np.diff(sampled.grid) > 0)
    assert sampled.points[0, 0] == 0.0
    for values in (sampled.grid, sampled.points):
        with pytest.raises(ValueError):
            values[0] = 2.0


def test_spline_refuses_single_points_outside_its_grid(golden):
    grid = np.linspace(-0.1, 1.1, 40)
    spline = SplineCurve(SampledCurve(grid, golden.vec_jets(grid, 0).value))
    with pytest.raises(InputError):
        spline.point(1.15)
    with pytest.raises(InputError):
        spline.vec_jet(-0.15, 1)
    with pytest.raises(InputError, match="parameter 1.15 outside domain"):
        spline.vec_jets(np.array([-0.1, 1.15]), 0)
    # the grid ends are served, by the end polynomials that reproduce the quintic
    ends = np.array([-0.1, 1.1])
    assert np.allclose(spline.vec_jets(ends, 0).value,
                       golden.vec_jets(ends, 0).value, rtol=0, atol=1e-9)


def test_spline_curve_tracks_samples(golden):
    grid = np.linspace(-0.1, 1.1, 200)
    points = np.stack([golden.point(float(t)) for t in grid])
    spline = SplineCurve(SampledCurve(grid, points))
    t = 0.493
    assert np.allclose(spline.point(t), golden.point(t), atol=1e-10)
    d = spline.derivatives(t, 3)
    want = golden.derivatives(t, 3)
    for k in range(3):
        assert np.allclose(d[k], want[k], atol=1e-5)
    with pytest.raises(InputError):
        spline.derivatives(t, 6)


def _smooth_samples(grid):
    return np.stack([np.sin(2 * grid), np.cos(3 * grid), np.exp(grid / 2),
                     grid ** 3 - grid, np.log(2 + grid)], axis=1)


@pytest.mark.parametrize("order", [3, 4, 5])
@pytest.mark.parametrize("samples", [33, 129])
def test_spline_matches_the_scipy_interpolant(samples, order):
    # scipy's not-a-knot spline is the oracle: same knots, same interpolant;
    # derivatives differ by roundoff that 1/h^k amplifies in both
    grid = np.linspace(-0.3, 1.2, samples)
    points = _smooth_samples(grid)
    spline = SplineCurve(SampledCurve(grid, points), order)
    oracle = make_interp_spline(grid, points, k=order)
    ts = np.concatenate((grid, np.random.default_rng(7).uniform(grid[0], grid[-1], 200)))
    grid_jets = spline.vec_jets(ts, 3)
    got = [grid_jets.derivative_value(k) for k in range(4)]
    for k in range(4):
        want = oracle.derivative(k)(ts) if k else oracle(ts)
        tol = 1e-12 if k == 0 else 1e-9
        assert np.max(np.abs(got[k] - want)) <= tol * np.max(np.abs(want))
    jets = spline.vec_jets(ts, order)
    for k in range(1, 4):
        assert np.allclose(jets.derivative_value(k), got[k], rtol=1e-14, atol=0)
    t = 0.4321
    assert spline.point(t).shape == (5,)
    assert np.allclose(spline.point(t), oracle(t), rtol=0, atol=1e-14)
    assert np.allclose(spline.derivatives(t, 2)[1], oracle.derivative(2)(t), atol=1e-9)
    with pytest.raises(InputError):
        spline.vec_jets(ts, order + 1)


def test_spline_memory_is_linear_in_the_samples():
    # the collocation system is solved in its band: a dense matrix on 5000
    # samples would take 200 MB
    grid = np.linspace(0.0, 1.0, 5000)
    sampled = SampledCurve(grid, _smooth_samples(grid))
    tracemalloc.start()
    try:
        spline = SplineCurve(sampled)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert np.allclose(spline.vec_jets(grid[::97], 0).value, sampled.points[::97],
                       rtol=0, atol=1e-12)


def test_mapped_curve_equals_precompose(golden):
    # the oracle does not compose: the quintic's components with 2u written in
    mapped = golden.precompose("2*u", parameter="u", domain=(0.0, 0.6))
    assert isinstance(mapped, MappedCurve)
    spliced = Curve.from_strings([re.sub(r"\bs\b", "(2*u)", text)
                                  for text in NULL_QUINTIC["components"]],
                                 parameter="u", domain=(0.0, 0.6))
    for u in (0.1, 0.33, 0.58):
        assert np.allclose(mapped.point(u), spliced.point(u), atol=1e-14)
        got = mapped.derivatives(u, 4)
        want = spliced.derivatives(u, 4)
        for k in range(4):
            assert np.allclose(got[k], want[k], rtol=1e-10, atol=1e-10)


def test_precompose_refuses_a_map_that_leaves_the_domain(golden):
    with pytest.raises(InputError, match="domain must be a finite interval"):
        golden.precompose("u", domain=(1.0, 0.0))
    # the quintic lives on [-0.2, 1.2]: 3u leaves it at the endpoint u = 1
    with pytest.raises(InputError, match=r"parameter 3.0 outside domain \[-0.2, 1.2\]"):
        golden.precompose("3*u", domain=(0.0, 1.0))
    # u + 3u(1 - u) maps both endpoints inside but peaks at 1.25 at u = 1/2
    bulged = golden.precompose("u + 3*u*(1 - u)", domain=(0.0, 1.0))
    assert np.allclose(bulged.point(0.1), golden.point(0.1 + 0.3 * 0.9), atol=1e-15)
    with pytest.raises(InputError, match=r"parameter 1.25 outside domain"):
        bulged.point(0.5)
    with pytest.raises(InputError, match=r"parameter 1.25 outside domain"):
        bulged.vec_jets(np.linspace(0.0, 1.0, 5), 3)


def test_arc_length_curve_unit_speed():
    # planar ellipse-like spacelike curve in the positive block
    curve = Curve.from_strings(["0", "0", "2*cos(s)", "sin(s)", "0"],
                               domain=(0.0, 1.5))
    unit = ArcLengthCurve(curve)
    m = PseudoMetric(5)
    total, _ = quad(lambda t: math.hypot(2 * math.sin(t), math.cos(t)), 0.0, 1.5)
    assert unit.domain[1] == pytest.approx(total, abs=1e-10)
    for s in np.linspace(0.05, unit.domain[1] - 0.05, 7):
        d1 = unit.derivatives(float(s), 1)[0]
        assert m.inner(d1, d1) == pytest.approx(1.0, abs=1e-9)


def test_arc_length_curve_refuses_a_curve_that_is_not_spacelike():
    timelike = Curve.from_strings(["s", "0", "0.5*s", "0", "0"], domain=(0.0, 1.0))
    with pytest.raises(HypothesisError) as exc:
        ArcLengthCurve(timelike)
    assert exc.value.condition == "<c',c'> > 0"
    # the first table point: a Gauss-Kronrod panel has no node at its edge
    assert exc.value.location == CumulativeIntegral.sample_points(0.0, 1.0, 512)[0]


def test_classify_reports_disagreeing_points():
    # sequences that genuinely change along the domain name two grid points
    curve = Curve.from_strings(["s", "s^2/2", "s^3/6", "s^4/24", "s^5/120"],
                               domain=(0.0, 1.0))
    with pytest.raises(ClassificationError) as exc:
        classify(curve)
    assert exc.value.points is not None
    a, b = exc.value.points
    assert 0.0 <= a < b <= 1.0


def test_reparam_result_arrays_are_read_only(golden):
    res = pseudo_arc_reparam(golden, grid_density=17)
    for values in (res.table_t, res.table_s, res.sampled.grid, res.sampled.points):
        with pytest.raises(ValueError):
            values[0] = 0.0


def test_reparam_view_is_unit_speed_at_the_samples(golden):
    res = pseudo_arc_reparam(golden, grid_density=33)
    d3 = res.curve.vec_jets(res.sampled.grid[2:-2], 3).derivative_value(3)
    m = PseudoMetric(5)
    # third derivative in the new parameter has unit self-product
    for row in d3:
        assert m.inner(row, row) == pytest.approx(1.0, abs=1e-8)
