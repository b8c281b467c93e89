"""Every grid gate fails a NaN at its grid point.

Each gate states the condition that must hold and raises through
``errors.require`` at the first index where it does not.  A NaN fails every
such condition, so a NaN placed at one known grid point must raise the gate's
own error there, with the gate's type and location.
"""

import re

import numpy as np
import pytest

from nullcartan import (
    ArcLengthCurve,
    ClassificationError,
    CurvatureProfile,
    Curve,
    DegenerateBasisError,
    FamilyError,
    Frame,
    FrameDegeneracyError,
    HypothesisError,
    InputError,
    InvoluteCurve,
    Jet,
    PseudoMetric,
    ReparametrizedCurve,
    SampledCurve,
    SingularRecursionError,
    StepSizeError,
    VecJet,
    classify,
    evolute,
    frenet_residuals,
    involute_frame_check,
    pseudo_spherical_test,
    sphere_coefficients,
    synthesize,
)
from nullcartan import constructions
from nullcartan.curve import CumulativeIntegral, _check_in_domain
from nullcartan.errors import require
from nullcartan.frame import frame_grid

GRID = np.linspace(0.1, 0.9, 9)
BAD = GRID[4]


class Poisoned:
    """``base`` with NaN Taylor coefficients of the given ``orders`` at the
    one parameter ``at``; every other point and order is left alone."""

    def __init__(self, base, at, orders):
        self.base, self.at, self.orders = base, at, orders
        self.dimension, self.domain = base.dimension, base.domain

    def vec_jets(self, ts, order):
        vj = self.base.vec_jets(ts, order)
        coeffs = vj.coeffs.copy()
        hit = np.asarray(ts) == self.at
        for k in self.orders:
            if k <= order:
                coeffs[k, hit] = np.nan
        return VecJet(vj.base, coeffs)


def poison_curvature(monkeypatch, index, at, order=0):
    """Make the constructions' frame extraction report a NaN Taylor
    coefficient ``order`` of curvature ``index`` (0-based) at the parameter
    ``at``.  A real frame cannot: a NaN anywhere in the curve's jets reaches
    the normalizer floor, which refuses it first."""
    real = constructions.frame_grid

    def frame_grid(curve, ts, extra_order=0):
        fj = real(curve, ts, extra_order)
        k = fj.curvatures[index]
        coeffs = k.coeffs.copy()
        coeffs[order, np.abs(np.asarray(ts) - at) < 1e-9] = np.nan
        ks = list(fj.curvatures)
        ks[index] = Jet(k.base, coeffs)
        return Frame(fj.rows, fj.t, tuple(ks), fj.closure_residual, fj.orientation)

    monkeypatch.setattr(constructions, "frame_grid", frame_grid)


# ---------------------------------------------------------------------------

def test_require_raises_at_the_first_failing_index():
    values = np.array([0.5, np.nan, -1.0, 2.0])
    with pytest.raises(IndexError) as exc:
        require(values > 0.0, lambda j: IndexError(j))
    assert exc.value.args == (1,)
    assert require(values[[0, 3]] > 0.0, lambda j: IndexError(j)) is None


def test_null_chain_gate_fails_a_nan(synth6):
    # a NaN in alpha' fails <a',a'> first; a NaN that reached <a''',a'''>
    # would fail <a',a'''> before the pseudo-arc gate could see it
    curve = Poisoned(synth6, BAD, [1])
    with pytest.raises(FamilyError, match=rf"<a',a'> = nan violated at t={BAD};"):
        frame_grid(curve, GRID)


def test_normalizer_floor_fails_a_nan(synth6):
    # alpha'''' feeds N2 and the floor's scale, not the family gates
    curve = Poisoned(synth6, BAD, [4])
    with pytest.raises(FrameDegeneracyError, match=rf"aborted at t={BAD}$") as exc:
        frame_grid(curve, GRID)
    assert exc.value.index == 3
    assert exc.value.partial.t == BAD


def test_orientation_signs_fail_a_nan():
    # the NaN basis comes before the zero-vector one, so it is reported
    bases = np.stack([np.eye(5), np.eye(5)[::-1], np.eye(5), np.eye(5)])
    bases[2, 1, 3] = np.nan
    bases[3, 0] = 0.0
    with np.errstate(invalid="ignore"):
        with pytest.raises(DegenerateBasisError, match=r"alpha\^\(2\) is not finite$"):
            PseudoMetric(5).orientation_signs(bases)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_orientation_signs_refuse_an_infinite_basis_as_not_finite(value):
    # the message sequence_reports gives the same basis, not an ambiguous
    # determinant
    bases = np.stack([np.eye(5), np.eye(5)])
    bases[1, 3, 0] = value
    metric = PseudoMetric(5)
    with np.errstate(invalid="ignore"):
        for refuse in (metric.orientation_signs, metric.sequence_reports):
            with pytest.raises(DegenerateBasisError, match=r"alpha\^\(4\) is not finite$"):
                refuse(bases)


def test_sequence_reports_refuse_a_nan_basis_as_numerical():
    # a non-finite basis is a numerical failure, not a dependent prefix
    # (a family verdict)
    bases = np.stack([np.eye(5), np.eye(5)])
    bases[1, 2, 1] = np.nan
    with pytest.raises(DegenerateBasisError, match=r"alpha\^\(3\) is not finite$") as exc:
        PseudoMetric(5).sequence_reports(bases)
    assert exc.value.category == "numerical"
    bases[1, 4, 0] = np.inf
    with pytest.raises(DegenerateBasisError, match=r"alpha\^\(3\) is not finite$"):
        PseudoMetric(5).sequence_report(bases[1])


def test_a_dependent_basis_ahead_of_a_nan_one_is_refused_first():
    bases = np.stack([np.eye(5), np.eye(5)])
    bases[0, 2] = bases[0, 1]
    bases[1, 2, 1] = np.nan
    with pytest.raises(ClassificationError, match="dependent at prefix length 3") as exc:
        PseudoMetric(5).sequence_reports(bases)
    assert exc.value.prefix_length == 3
    with pytest.raises(DegenerateBasisError):
        PseudoMetric(5).sequence_reports(bases[::-1])


def test_profile_refuses_a_non_finite_vector():
    metric = PseudoMetric(5)
    with pytest.raises(DegenerateBasisError, match="vector 0 is not finite") as exc:
        metric.subspace_profile([[np.nan, 0, 0, 0, 0], [0, 0, 1, 0, 0]])
    assert exc.value.category == "numerical"
    # past the n rows that the QR reads, too
    rows = [*np.eye(5), [0, 0, 0, np.inf, 0]]
    with pytest.raises(DegenerateBasisError, match="vector 5 is not finite"):
        metric.subspace_profile(rows)


def test_classify_refuses_a_nan_jet_as_numerical(golden):
    # a wrapper passes the NaN on: a Curve refuses its own non-finite jets first
    with pytest.raises(DegenerateBasisError, match=r"alpha\^\(3\) is not finite$") as exc:
        classify(Poisoned(golden, BAD, [3]), GRID)
    assert exc.value.category == "numerical"


def test_domain_check_fails_a_nan():
    with pytest.raises(InputError, match=r"parameter nan outside domain \[0, 1\]"):
        _check_in_domain(np.array([0.1, np.nan, 2.0]), (0, 1))


@pytest.mark.parametrize("field, index, value, message", [
    ("grid", 2, np.nan, r"sample 2 at t=nan is not finite"),
    ("grid", 0, np.inf, r"sample 0 at t=inf is not finite"),
    ("points", 3, np.nan, r"sample 3 at t=0\.3 is not finite"),
    ("points", 1, -np.inf, r"sample 1 at t=0\.1 is not finite"),
])
def test_sampled_curve_refuses_non_finite_samples(field, index, value, message):
    data = {"grid": np.arange(6) / 10, "points": np.ones((6, 5))}
    data[field][index] = value
    with pytest.raises(InputError, match=message):
        SampledCurve(data["grid"], data["points"])


def test_table_solve_fails_a_nan_target():
    table = CumulativeIntegral(lambda t: 1.0 + t * t, 0.0, 1.0, 16)
    with pytest.raises(InputError, match=r"target nan outside the table range"):
        table.solve(np.array([0.1, np.nan, 5.0]))


def test_pseudo_arc_rate_fails_a_nan(golden):
    a, b = golden.domain
    bad = CumulativeIntegral.sample_points(a, b, 64)[20]
    with pytest.raises(FamilyError, match=rf"= nan <= 0 near t={bad}: monotone"):
        ReparametrizedCurve(Poisoned(golden, bad, [3]), intervals=64)


def test_arc_length_rate_fails_a_nan():
    helix = Curve.from_strings(["0", "0", "cos(s)", "sin(s)", "s"], domain=(0.0, 2.0))
    # a Kronrod node of the second panel that its Gauss rule skips
    bad = CumulativeIntegral.sample_points(0.0, 2.0, 64)[21]
    with pytest.raises(HypothesisError, match="not spacelike") as exc:
        ArcLengthCurve(Poisoned(helix, bad, [1]), intervals=64)
    assert exc.value.condition == "<c',c'> > 0"
    assert exc.value.location == bad


def test_residual_grid_check_fails_a_nan(golden):
    grid = np.linspace(0.1, 1.1, 9)
    grid[4] = np.nan
    with pytest.raises(InputError, match="residual grid must be uniformly spaced"):
        frenet_residuals(golden, grid)


# k3 is 1 until exp(400 t)^2 overflows near t = 0.887, then inf - inf = NaN
NAN_K3 = "1 + (exp(400*t)*exp(400*t) - exp(400*t)*exp(400*t))"


def test_synthesis_gram_gate_fails_a_nan():
    profile = CurvatureProfile.from_strings(6, ["0.2", "-0.1", NAN_K3])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StepSizeError, match=r"defect nan at t=0\.89 "):
            synthesize(profile, (0.0, 1.0), step=0.01)


def test_sphere_recursion_guard_fails_a_nan():
    profile = CurvatureProfile.from_strings(6, ["0.2", "-0.1", NAN_K3])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularRecursionError, match=r"k3 = nan vanishes at t=0\.9$") as exc:
            sphere_coefficients(profile, np.array([0.5, 0.7, 0.9, 1.0]))
    assert exc.value.index == 3


def test_sphere_hypothesis_fails_a_nan(synth6, monkeypatch):
    poison_curvature(monkeypatch, -1, BAD)
    with pytest.raises(HypothesisError, match="k_3 = nan") as exc:
        pseudo_spherical_test(synth6, GRID)
    assert exc.value.condition == "k_3 != 0"
    assert exc.value.location == BAD


def test_evolute_k3_gate_fails_a_nan(synth6_evolute, monkeypatch):
    poison_curvature(monkeypatch, 2, BAD)
    with pytest.raises(HypothesisError, match="k3 = nan") as exc:
        evolute(synth6_evolute, GRID)
    assert exc.value.condition == "k3 != 0"
    assert exc.value.location == BAD


def test_evolute_slope_gate_fails_a_nan(synth6_evolute, monkeypatch):
    poison_curvature(monkeypatch, 2, BAD, order=1)
    with pytest.raises(HypothesisError, match=r"\(1/k3\)' = nan") as exc:
        evolute(synth6_evolute, GRID)
    assert exc.value.condition == "(1/k3)' != 0"
    assert exc.value.location == BAD


def test_involute_k3_gate_fails_a_nan(unit_speed_evolute, monkeypatch):
    c = unit_speed_evolute
    s = np.linspace(0.5, 2.0, 7)
    inv = InvoluteCurve(c, c.domain[0], arc_offset=c.domain[0], unit_speed=True)
    sbar = ReparametrizedCurve(inv).pseudo_arc_of(s[3])
    poison_curvature(monkeypatch, 2, sbar)
    with pytest.raises(HypothesisError, match="extracted k3 = nan") as exc:
        involute_frame_check(c, s)
    assert exc.value.condition == "k3 != 0"
    assert exc.value.location == s[3]


def test_involute_w4_sign_gate_names_the_first_flipped_point(unit_speed_evolute,
                                                            monkeypatch):
    c = unit_speed_evolute
    s = np.linspace(0.5, 2.0, 7)
    inv = InvoluteCurve(c, c.domain[0], arc_offset=c.domain[0], unit_speed=True)
    sbar = ReparametrizedCurve(inv).pseudo_arc_of(s[3])
    real = constructions.frame_grid

    def frame_grid(curve, ts, extra_order=0):  # W4 (row 6) reversed at sbar
        fj = real(curve, ts, extra_order)
        coeffs = fj.rows.coeffs.copy()
        coeffs[:, np.abs(np.asarray(ts) - sbar) < 1e-9, 6] *= -1.0
        return Frame(VecJet(fj.rows.base, coeffs), fj.t, fj.curvatures,
                     fj.closure_residual, fj.orientation)

    monkeypatch.setattr(constructions, "frame_grid", frame_grid)
    with pytest.raises(HypothesisError, match="sign flips across the grid at s=1.25") as exc:
        involute_frame_check(c, s)
    assert exc.value.condition == "W4 = +/- T consistently"
    assert exc.value.location == s[3]


def test_involute_evidence_gate_fails_a_nan(unit_speed_evolute):
    s = np.linspace(0.5, 2.0, 7)
    message = re.escape("|<c',c'> - 1| = nan at s=1.0")
    with pytest.raises(HypothesisError, match=message) as exc:
        involute_frame_check(Poisoned(unit_speed_evolute, s[2], [1]), s)
    assert exc.value.condition == "<c',c'> = 1"
    assert exc.value.location == s[2]


@pytest.mark.parametrize("order, condition", [
    (2, "<c'',c''> = 0"),
    (4, "<c'''',c''''> > 0"),
    (6, "independent derivatives"),
])
def test_involute_evidence_gates_fail_a_nan_jet(unit_speed_evolute, order, condition):
    # c^(6) feeds only the QR pivots of c'', ..., c^(6): a NaN pivot fails the gate
    s = np.linspace(0.5, 2.0, 7)
    with pytest.raises(HypothesisError) as exc:
        involute_frame_check(Poisoned(unit_speed_evolute, s[2], [order]), s)
    assert exc.value.condition == condition
    assert exc.value.location == s[2]
