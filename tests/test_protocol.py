"""The curve protocol: ``dimension``, ``domain`` and ``vec_jets(ts, order)``.

Every curve class serves its single-point surface (``point``, ``vec_jet``,
``derivatives``) as the batched evaluation on a one-point grid, so the three
must agree at every order, order 0 included.  ``vec_jets`` refuses a point
outside the domain, so all four refuse it.
"""

import numpy as np
import pytest

from nullcartan import (
    ArcLengthCurve,
    CurvatureProfile,
    Curve,
    InputError,
    MappedCurve,
    ReparametrizedCurve,
    frenet_residuals,
    pseudo_spherical_test,
    synthesize,
)
from nullcartan.curve import JET_BUDGET

from conftest import ELLIPSE, PROTOCOL_CLASSES, warped_quintic

@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("name", PROTOCOL_CLASSES)
def test_single_point_surface_is_the_batched_evaluation(protocol_curves, name, order):
    curve = protocol_curves[name]
    a, b = curve.domain
    t = a + 0.37 * (b - a)
    batched = curve.vec_jets(np.array([t]), order)
    assert batched.coeffs.shape == (order + 1, 1, curve.dimension)
    single = curve.vec_jet(t, order)
    assert single.coeffs.shape == (order + 1, curve.dimension)
    assert np.array_equal(single.coeffs, batched.coeffs[:, 0])
    point = np.asarray(curve.point(t))
    assert point.shape == (curve.dimension,)
    assert np.allclose(point, single.value, rtol=1e-13, atol=1e-15)
    derivs = curve.derivatives(t, order)
    assert len(derivs) == order
    for k, d in enumerate(derivs, 1):
        assert np.allclose(d, single.derivative_value(k), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("name", PROTOCOL_CLASSES)
def test_single_points_outside_the_domain_are_refused(protocol_curves, name):
    curve = protocol_curves[name]
    a, b = curve.domain
    for t in (a - 0.25 * (b - a), b + 0.25 * (b - a)):
        for query in (lambda: curve.point(t), lambda: curve.vec_jet(t, 1),
                      lambda: curve.derivatives(t, 1),
                      lambda: curve.vec_jets(np.array([t]), 1)):
            with pytest.raises(InputError, match="outside domain"):
                query()


@pytest.mark.parametrize("name", PROTOCOL_CLASSES)
def test_negative_jet_orders_are_refused_on_a_grid(protocol_curves, name):
    curve = protocol_curves[name]
    a, b = curve.domain
    with pytest.raises(InputError, match="jet order -1 is negative"):
        curve.vec_jets(np.array([a, 0.5 * (a + b)]), -1)


def test_derivatives_share_one_jet_budget(protocol_curves):
    for curve in protocol_curves.values():
        a, b = curve.domain
        with pytest.raises(InputError, match="jet budget"):
            curve.derivatives(0.5 * (a + b), JET_BUDGET + 1)


@pytest.mark.parametrize("kind", ["pseudo-arc", "arc length"])
def test_monotone_reparametrizations_serve_order_zero(golden, kind):
    if kind == "pseudo-arc":
        base = warped_quintic(golden)
        curve = ReparametrizedCurve(base)
    else:
        base = Curve.from_strings(ELLIPSE, domain=(0.0, 1.5))
        curve = ArcLengthCurve(base)
    ss = np.linspace(curve.domain[0], curve.domain[1], 9)
    want = base.vec_jets(curve.parameter_of(ss), 0).value
    assert np.allclose(curve.vec_jets(ss, 0).value, want, rtol=0, atol=1e-14)
    for s, p in zip(ss, want):
        assert np.allclose(curve.vec_jet(s, 0).value, p, rtol=0, atol=1e-14)
        assert curve.derivatives(s, 0) == []


def test_frenet_residuals_on_a_reparametrized_curve(golden):
    # the quintic is pseudo-arc, so the warped curve's pseudo-arc view is the
    # quintic again: the residuals match the quintic's on the same grid
    rep = ReparametrizedCurve(warped_quintic(golden))
    grid = np.linspace(0.05, 1.05, 17)
    got = frenet_residuals(rep, grid)
    want = frenet_residuals(golden, grid)
    assert got.overall == pytest.approx(want.overall, rel=1e-6)
    assert got.overall <= 1e-4


def test_pseudo_spherical_test_on_a_reparametrized_curve():
    # constant curvatures with k3 = 2 lie on the pseudo-sphere of radius 1/2;
    # warping the parameter and reparametrizing back keeps the verdict
    synth = synthesize(CurvatureProfile.from_strings(6, ["0.2", "-0.1", "2"]), (0.0, 1.0))
    warped = MappedCurve(synth, "(u + u^2)/2", (0.0, 1.0), parameter="u")
    rep = ReparametrizedCurve(warped)
    grid = np.linspace(rep.domain[0] + 0.05, rep.domain[1] - 0.05, 9)
    report = pseudo_spherical_test(rep, grid)
    assert report.is_spherical
    assert report.radius == pytest.approx(0.5, abs=1e-9)
