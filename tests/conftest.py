"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the library's jet path: finite
differences run in extended precision on a plain AST walker, polynomial
derivatives use numpy's coefficient calculus, and exact subspace ranks come
from Fraction Gaussian elimination.
"""

import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import strategies as st

from nullcartan import (
    ArcLengthCurve,
    CurvatureProfile,
    Curve,
    EvoluteCurve,
    Frame,
    InvoluteCurve,
    MappedCurve,
    OffsetCurve,
    ReparametrizedCurve,
    evolute,
    standard_initial_frame,
    synthesize,
)
from nullcartan.bundled import null_quintic_curve
from nullcartan.expr import BinOp, Call, IntPow, Neg, Num, Param

LD = np.longdouble


# ---------------------------------------------------------------------------
# Golden curve data (closed forms)
# ---------------------------------------------------------------------------

R15 = math.sqrt(15.0)
R6 = math.sqrt(6.0)


def golden_L1(s):
    return np.array([(1 - 5 * s**4) / (4 * R15), (2 * s + 4 * s**3) / (4 * R6),
                     s * s / 2, (2 * s - 4 * s**3) / (4 * R6),
                     (1 + 5 * s**4) / (4 * R15)])


def golden_L2(s):
    return np.array([-5 * s**3 / R15, (2 + 12 * s * s) / (4 * R6), s,
                     (2 - 12 * s * s) / (4 * R6), 5 * s**3 / R15])


def golden_W3(s):
    return np.array([-R15 * s * s, R6 * s, 1.0, -R6 * s, R15 * s * s])


def golden_N2(s):
    return np.array([-2 * R15 * s, R6, 0.0, -R6, 2 * R15 * s])


def golden_N1(s):
    return np.array([-2 * R15, 0.0, 0.0, 0.0, 2 * R15])


def golden_mate(s, mu):
    return np.array([
        (s - 60 * mu * s**2 - s**5) / (4 * R15),
        (24 * mu * s + s**2 + s**4) / (4 * R6),
        (s**3 + 6 * mu) / 6,
        (-24 * mu * s + s**2 - s**4) / (4 * R6),
        (s + 60 * mu * s**2 + s**5) / (4 * R15)])


@pytest.fixture(scope="session")
def golden():
    return null_quintic_curve()


# ---------------------------------------------------------------------------
# Synthesized fixtures (session-scoped: they back many tests)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def synth_flat5():
    """n=5, k1 = k2 = 0: the flat quintic-type system."""
    return synthesize(CurvatureProfile.from_strings(5, ["0", "0"]), (0.0, 1.0))


# curvature profiles of the synth6 and synth8 fixtures, by dimension
SYNTH_PROFILES = {
    6: ["0.2", "-0.1", "1 + t"],
    8: ["0.1 + 0.05*t", "-0.2", "1.5 + 0.3*sin(t)", "1 + 0.2*t", "2 - 0.3*t"],
}


@pytest.fixture(scope="session")
def synth6():
    """n=6 with (k1, k2, k3) = (0.2, -0.1, 1 + t)."""
    return synthesize(CurvatureProfile.from_strings(6, SYNTH_PROFILES[6]), (0.0, 1.0))


@pytest.fixture(scope="session")
def synth8():
    """n=8 with a smooth strictly nonvanishing profile."""
    return synthesize(CurvatureProfile.from_strings(8, SYNTH_PROFILES[8]), (0.0, 1.0))


@pytest.fixture(scope="session")
def synth6_evolute():
    """n=6 with k3 = 1/(1+t): (1/k3)' = 1, the evolute fixture."""
    profile = CurvatureProfile.from_strings(6, ["0.15", "-0.05", "1/(1 + t)"])
    return synthesize(profile, (-0.7, 1.2))


@pytest.fixture(scope="session")
def unit_speed_evolute(synth6_evolute):
    """The evolute of synth6_evolute in its arc length, a unit-speed
    spacelike curve with s > 0: the involute check's fixture."""
    ev = evolute(synth6_evolute, np.linspace(-0.6, 1.1, 9))
    return MappedCurve(ev.curve, "s - 1", (0.4, 2.1))


# ---------------------------------------------------------------------------
# One curve of every class the curve protocol serves
# ---------------------------------------------------------------------------

# spacelike curves in the positive block (an ellipse and a helix)
ELLIPSE = ["0", "0", "2*cos(s)", "sin(s)", "0"]
HELIX = ["0", "0", "cos(s)", "sin(s)", "s"]

PROTOCOL_CLASSES = ["Curve", "FrenetCurve", "OffsetCurve", "EvoluteCurve", "InvoluteCurve",
                    "ReparametrizedCurve", "ArcLengthCurve", "MappedCurve"]


def warped_quintic(golden):
    """The quintic precomposed with u + 0.1 u^2: not pseudo-arc parametrized."""
    return golden.precompose("u + 0.1*u^2", parameter="u", domain=(0.0, 1.0))


@pytest.fixture(scope="session")
def protocol_curves(golden, synth6, synth6_evolute):
    """One curve of each of PROTOCOL_CLASSES, by class name."""
    curves = [
        golden,
        synth6,
        OffsetCurve(golden, 0.7),
        EvoluteCurve(synth6_evolute),
        InvoluteCurve(Curve.from_strings(HELIX, domain=(0.0, 2.0)), 0.3),
        ReparametrizedCurve(warped_quintic(golden)),
        ArcLengthCurve(Curve.from_strings(ELLIPSE, domain=(0.0, 1.5))),
        MappedCurve(golden, "2*u", (0.0, 0.6), parameter="u"),
    ]
    return {type(c).__name__: c for c in curves}


def random_isometry(n, rng):
    """Random isometry M of the index-2 metric, M^T G M = G: the exponential
    of G S for a skew S lies in its Lie algebra."""
    from scipy.linalg import expm
    signs = np.ones(n)
    signs[:2] = -1.0
    G = np.diag(signs)
    S = rng.normal(scale=0.3, size=(n, n))
    S = S - S.T
    M = expm(G @ S)
    assert np.allclose(M.T @ G @ M, G, atol=1e-12)
    return M


def random_isometry_frame(n, rng, alpha=None):
    """Initial frame moved by a random isometry of the index-2 metric."""
    M = random_isometry(n, rng)
    std = standard_initial_frame(n)
    return Frame(np.stack([np.zeros(n) if alpha is None else alpha,
                           *(M @ v for v in std.rows[1:])]))


# ---------------------------------------------------------------------------
# Independent derivative oracles
# ---------------------------------------------------------------------------

def eval_longdouble(expr, x):
    """AST walker in extended precision; independent of the jet engine."""
    if isinstance(expr, Num):
        return LD(expr.value)
    if isinstance(expr, Param):
        return LD(x)
    if isinstance(expr, Neg):
        return -eval_longdouble(expr.arg, x)
    if isinstance(expr, IntPow):
        return eval_longdouble(expr.arg, x) ** expr.exponent
    if isinstance(expr, Call):
        fn = {"sqrt": np.sqrt, "sin": np.sin, "cos": np.cos,
              "exp": np.exp, "log": np.log}[expr.func]
        return fn(eval_longdouble(expr.arg, x))
    a = eval_longdouble(expr.left, x)
    b = eval_longdouble(expr.right, x)
    if expr.op == "+":
        return a + b
    if expr.op == "-":
        return a - b
    if expr.op == "*":
        return a * b
    return a / b


def central_diff(f, x, k, h):
    total = LD(0)
    for j in range(k + 1):
        total += LD((-1) ** j * comb(k, j)) * f(LD(x) + (LD(k) / 2 - j) * LD(h))
    return total / LD(h) ** k


def _richardson_once(f, x, k, h0, levels):
    T = np.zeros((levels, levels), dtype=LD)
    best = None
    best_err = np.inf
    for i in range(levels):
        T[i, 0] = central_diff(f, x, k, h0 / 2**i)
        for j in range(1, i + 1):
            T[i, j] = (LD(4) ** j * T[i, j - 1] - T[i - 1, j - 1]) / (LD(4) ** j - 1)
        if i > 0:
            err = abs(T[i, i] - T[i - 1, i - 1])
            if err < best_err:
                best_err = err
                best = T[i, i]
    return float(best), float(best_err)


def richardson_derivative(f, x, k, levels=6):
    """Richardson-extrapolated central differences in extended precision.

    Runs the tableau from several starting steps and keeps the diagonal entry
    whose successive change is smallest, the usual stopping rule; extended
    precision keeps the small-step tableaus above the roundoff floor.
    """
    candidates = [_richardson_once(f, x, k, h0, levels)
                  for h0 in (0.35, 0.55, 0.8, 1.15)]
    return min(candidates, key=lambda c: c[1])[0]


def random_expression(rng, depth=3):
    """Random elementary-function expression text, safe around s in [0, 1.5].

    log and sqrt arguments and denominators are kept positive by shifting;
    transcendental nesting is capped so the 10th-plus derivatives stay small
    enough for the finite-difference oracle to converge.
    """
    def term(d, budget):
        if d == 0 or (budget <= 0 and rng.integers(0, 2) == 0):
            return str(rng.choice(["s", "s", f"{rng.uniform(0.3, 2.0):.3f}"]))
        kind = int(rng.integers(0, 7))
        if kind <= 4 and budget <= 0:
            kind = 5 + int(rng.integers(0, 2))
        if kind == 0:
            return f"sin(0.6*({term(d - 1, budget - 1)}))"
        if kind == 1:
            return f"cos(0.6*({term(d - 1, budget - 1)}))"
        if kind == 2:
            return f"exp(0.5*({term(d - 1, budget - 1)}))"
        if kind == 3:
            return f"sqrt(2.5 + sin(0.6*({term(d - 1, budget - 2)})))"
        if kind == 4:
            return f"log(2.5 + cos(0.6*({term(d - 1, budget - 2)})))"
        if kind == 5:
            return f"({term(d - 1, budget)} + {term(d - 1, budget)})"
        return f"({term(d - 1, budget)}) * ({term(d - 1, budget)})"

    base = term(depth, 2)
    if rng.integers(0, 2):
        base = f"({base}) / (2.5 + sin(s))"
    return base


def expression_trees(numbers):
    """Hypothesis strategy: expression trees over the full grammar, with the
    values of number leaves drawn from ``numbers``."""
    leaves = st.one_of(st.just(Param("s")), numbers.map(Num))

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda a: BinOp(*a)),
            st.tuples(children, st.integers(-3, 4)).map(lambda a: IntPow(*a)),
            st.tuples(st.sampled_from(["sqrt", "sin", "cos", "exp", "log"]), children).map(
                lambda a: Call(*a)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def polynomial_derivative_oracle(coeffs, x, k):
    """k-th derivative of an ascending-coefficient polynomial at x."""
    d = np.polynomial.polynomial.polyder(coeffs, k) if k else np.asarray(coeffs)
    return float(np.polynomial.polynomial.polyval(x, d))


# ---------------------------------------------------------------------------
# Exact rational rank oracle
# ---------------------------------------------------------------------------

def exact_rank(rows):
    """Rank of a matrix of Fractions by Gaussian elimination, no rounding."""
    M = [list(r) for r in rows]
    if not M:
        return 0
    nrows, ncols = len(M), len(M[0])
    rank = 0
    col = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if M[r][col] != 0), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        inv = Fraction(1, 1) / M[rank][col]
        M[rank] = [v * inv for v in M[rank]]
        for r in range(nrows):
            if r != rank and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [a - factor * b for a, b in zip(M[r], M[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def rational_gram(vectors, n):
    """Exact index-2 Gram matrix of Fraction vectors."""
    signs = [Fraction(-1)] * 2 + [Fraction(1)] * (n - 2)
    return [[sum(s * a * b for s, a, b in zip(signs, u, v)) for v in vectors]
            for u in vectors]
