"""The Taylor-shift fold of polynomial curves against the op-list interpreter.

A Curve whose components are polynomials of degree at most FOLD_DEGREE reads
its jets off one folded coefficient block; every other curve runs its
compiled program.  The reference here is always ``Program.run`` on the same
grid, which is what the interpreter path of ``Curve.vec_jets`` computes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nullcartan import Curve, ExprEvaluationError, Jet
from nullcartan.curve import FOLD_DEGREE
from nullcartan.expr import Program, parse


def interpreted(curve, ts, order):
    return np.stack(curve._program.run(Jet.variable(ts, order).coeffs), axis=-1)


@pytest.mark.parametrize("texts, degree", [
    (["3"], 0),
    (["s"], 1),
    (["2 - s", "-s + 2", "s*3/2", "sqrt(4)*s"], 1),
    (["s^2*s^3"], 5),
    (["(s^2 + s)^3", "s"], 6),
    (["s^0", "(s^9)^0"], 0),
    (["s", "sin(s)"], None),
    (["1/s"], None),
    (["s^2/s"], None),
    (["s^-1"], None),
])
def test_program_degree(texts, degree):
    assert Program(tuple(parse(t) for t in texts)).degree == degree


# ---------------------------------------------------------------------------
# Folded jets match the interpreter
# ---------------------------------------------------------------------------

numbers = st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 3))
DOMAINS = [(0.0, 1.0), (-0.2, 1.2), (-1.0, 1.0), (99.0, 101.0)]
DIMENSION = 5
BASE = ["s", "s^2", "s^3", "s^4"]


@st.composite
def polynomial_texts(draw, domain):
    """One component of degree 0..FOLD_DEGREE, written expanded as
    sum a_j s^j or factored as a prod (s - root) with roots near the domain."""
    degree = draw(st.integers(0, FOLD_DEGREE))
    if draw(st.booleans()):
        coeffs = draw(st.lists(numbers, min_size=degree + 1, max_size=degree + 1))
        return " + ".join(f"({a})*s^{j}" for j, a in enumerate(coeffs))
    a, b = domain
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    lead = draw(numbers)
    roots = draw(st.lists(st.floats(-1.5, 1.5).map(lambda u: round(c + r * u, 3)),
                          min_size=degree, max_size=degree))
    return "*".join([f"({lead})"] + [f"(s - ({z}))" for z in roots])


@st.composite
def folded_cases(draw):
    domain = draw(st.sampled_from(DOMAINS))
    texts = [draw(polynomial_texts(domain)) for _ in range(DIMENSION)]
    a, b = domain
    grid = a + (b - a) * np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                                max_size=9)))
    order = draw(st.integers(0, 2 * DIMENSION + 2))
    return Curve.from_strings(texts, domain=domain), grid, order


def assert_fold_matches(curve, grid, order):
    assert curve._fold is not None
    got = curve.vec_jets(grid, order).coeffs
    want = interpreted(curve, grid, order)
    assert got.shape == want.shape
    # within 1e-12 of each component's largest value over the domain at each
    # order; where that is 0 (orders above the degree) the fold is exactly 0
    dense = np.concatenate((grid, np.linspace(*curve.domain, 33)))
    scale = np.max(np.abs(interpreted(curve, dense, order)), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=folded_cases())
def test_folded_jets_match_the_interpreter(case):
    assert_fold_matches(*case)


def test_the_factored_chebyshev_polynomial_at_the_degree_cap():
    # the worst case found for the cap: 128 prod (s - cos((2k+1) pi/16))
    # on [-1, 1], about 3e-13 of the largest value
    roots = np.cos((2 * np.arange(FOLD_DEGREE) + 1) * np.pi / (2 * FOLD_DEGREE))
    t8 = "*".join([str(2.0 ** (FOLD_DEGREE - 1))] + [f"(s - ({float(z)!r}))" for z in roots])
    curve = Curve.from_strings([t8] + BASE, domain=(-1.0, 1.0))
    assert curve._program.degree == FOLD_DEGREE
    assert_fold_matches(curve, np.linspace(-1.0, 1.0, 401), FOLD_DEGREE + 2)


def test_the_bundled_quintic_is_folded(golden):
    assert golden._program.degree == 5
    assert golden._fold is not None
    grid = np.linspace(-0.2, 1.2, 15)
    want = interpreted(golden, grid, 12)
    got = golden.vec_jets(grid, 12).coeffs
    assert np.all(got[6:] == 0.0)
    assert np.allclose(got, want, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# Every other curve takes the interpreter, bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("last, domain, grid, order", [
    ("sin(s)", (0.5, 1.5), [0.5, 0.9, 1.5], 7),
    ("s^3/s", (0.5, 1.5), [0.5, 0.9, 1.5], 7),
    ("s^-2 + s", (0.5, 1.5), [0.5, 0.9, 1.5], 7),
    (f"s^{FOLD_DEGREE + 1}", (-0.2, 1.2), [-0.2, 0.4, 1.2], 7),
    ("(s^3 + 1)^3", (-0.2, 1.2), [-0.2, 0.4, 1.2], 7),
    # the fold overflows, though the interpreter's value is finite at s = 0 ...
    ("(1e200*s)*(1e200*s)", (0.0, 1.0), [0.0], 0),
    # ... or the shift divides by r^k = 0 on a domain of width 1e-300
    ("s^2 + 1", (0.0, 1e-300), [0.0, 1e-300], 7),
])
def test_curves_that_are_not_folded_take_the_interpreter(last, domain, grid, order):
    curve = Curve.from_strings(BASE + [last], domain=domain)
    assert curve._fold is None
    grid = np.array(grid)
    want = interpreted(curve, grid, order)
    assert np.array_equal(curve.vec_jets(grid, order).coeffs, want)


def test_a_non_finite_constant_stays_on_the_interpreter(golden):
    # exp(700)^2 folds to inf at compile time, inf - inf to NaN: a polynomial
    # program of degree 5 whose block is not finite
    texts = [str(c) for c in golden.components]
    texts[2] += " + s*(exp(700)*exp(700) - exp(700)*exp(700))"
    curve = Curve.from_strings(texts, domain=golden.domain)
    assert curve._program.degree == 5
    assert curve._fold is None
    with pytest.raises(ExprEvaluationError) as exc:
        curve.vec_jets(np.array([0.5]), 3)
    assert str(exc.value).startswith("component 2: non-finite jet at s=0.5")
