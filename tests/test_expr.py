"""Parser and jet-arithmetic tests against independent derivative oracles."""

import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nullcartan import (
    Curve,
    ExprEvaluationError,
    ExprSyntaxError,
    Jet,
    PseudoMetric,
    jet_eval,
    parse,
)
from nullcartan.expr import (
    BinOp,
    Num,
    Param,
    Program,
    VecJet,
    _antidiagonal_sum,
    _compose,
    _mul,
    _scale,
    _toeplitz,
    _toeplitz_index,
    jet_compose,
    jet_invert,
)

from conftest import (
    eval_longdouble,
    expression_trees,
    polynomial_derivative_oracle,
    random_expression,
    richardson_derivative,
)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_power_divide_tree():
    e = parse("s^3/6")
    assert jet_eval(e, 2.0, 0).value == pytest.approx(8.0 / 6.0)


def test_golden_first_component_parses():
    e = parse("(s - s^5)/(4*sqrt(15))")
    assert jet_eval(e, 0.0, 0).value == 0.0
    assert jet_eval(e, 1.0, 0).value == 0.0


def test_double_star_is_an_error():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("s**3")
    assert exc.value.position == 2


@pytest.mark.parametrize("text,column", [
    ("(s + 1", 6),          # unbalanced parenthesis
    ("2 * t", 4),           # unknown identifier
    ("tan(s)", 0),          # unknown function name
    ("s ^ x", 4),           # non-integer exponent
    ("", 0),                # empty input
    ("s @ 2", 2),           # stray character
])
def test_syntax_errors_carry_columns(text, column):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert exc.value.position == column


def test_parameter_name_is_configurable():
    e = parse("u^2 + 1", parameter="u")
    assert jet_eval(e, 3.0, 0).value == 10.0
    with pytest.raises(ExprSyntaxError):
        parse("s^2", parameter="u")


def test_power_binds_tighter_than_unary_minus():
    e = parse("-s^2")
    assert jet_eval(e, 3.0, 0).value == -9.0


def test_negative_integer_exponent():
    e = parse("s^-2")
    assert jet_eval(e, 2.0, 0).value == pytest.approx(0.25)


def test_precompose_substitutes_the_map():
    outer = Curve.from_strings(["s^2 + sin(s)", "0", "0", "0"], domain=(0.0, 1.0))
    composed = outer.precompose("2*u", domain=(0.0, 0.5))
    assert composed.point(0.3)[0] == pytest.approx(0.36 + math.sin(0.6))
    # d/du (4u^2 + sin 2u) = 8u + 2 cos 2u
    assert composed.derivatives(0.3, 1)[0][0] == pytest.approx(2.4 + 2.0 * math.cos(0.6))


# parse builds negative numbers as Neg(Num), so number leaves are nonnegative:
# the trees are the ones parse can return
@settings(max_examples=200, deadline=None, derandomize=True)
@given(tree=expression_trees(st.floats(min_value=0.0, allow_infinity=False).map(abs)))
@example(tree=parse("0.123456789*s"))
@example(tree=parse("1e-7 + 1e22*s^-3"))
def test_printing_round_trips_through_parse(tree):
    assert parse(str(tree)) == tree


# ---------------------------------------------------------------------------
# Jet evaluation
# ---------------------------------------------------------------------------

def test_square_jet_coefficients():
    j = jet_eval(parse("s^2"), 3.0, 3)
    assert np.allclose(j.coeffs, [9.0, 6.0, 1.0, 0.0])


def test_golden_component_jet_matches_quintic():
    # first component (s - s^5)/(4 sqrt 15): f'(0) = 1/(4 sqrt 15),
    # f^(5)(0) = -120/(4 sqrt 15), everything else zero at 0
    j = jet_eval(parse("(s - s^5)/(4*sqrt(15))"), 0.0, 5)
    scale = 1.0 / (4.0 * math.sqrt(15.0))
    assert j.derivative(1) == pytest.approx(scale, rel=1e-15)
    assert j.derivative(5) == pytest.approx(-120.0 * scale, rel=1e-15)
    for k in (0, 2, 3, 4):
        assert abs(j.derivative(k)) < 1e-15


def test_sin_exp_derivatives_against_richardson():
    e = parse("sin(s)*exp(s)")
    j = jet_eval(e, 0.7, 6)
    f = lambda x: np.sin(x) * np.exp(x)
    for k in range(1, 7):
        want = richardson_derivative(f, 0.7, k)
        assert j.derivative(k) == pytest.approx(want, rel=1e-6, abs=1e-6)


def test_derivative_rejects_out_of_range():
    j = jet_eval(parse("s^2"), 3.0, 2)
    assert j.derivative(2) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        j.derivative(3)
    with pytest.raises(ValueError):
        j.derivative(-1)


def test_constant_jet_has_zero_derivative():
    j = jet_eval(parse("7"), 1.3, 4)
    assert j.derivative(1) == 0.0


def test_polynomial_jets_match_coefficient_calculus():
    rng = np.random.default_rng(42)
    for _ in range(20):
        coeffs = rng.normal(size=rng.integers(2, 8))
        text = " + ".join(f"({c:.17g})*s^{k}" if k else f"({c:.17g})"
                          for k, c in enumerate(coeffs))
        base = float(rng.uniform(-1.5, 1.5))
        j = jet_eval(parse(text), base, len(coeffs) + 1)
        for k in range(len(coeffs) + 2):
            want = polynomial_derivative_oracle(coeffs, base, k)
            assert j.derivative(k) == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("folded, run, s", [
    ("exp(2.1)", "exp(s)", 2.1),
    ("exp(5.8)", "exp(s)", 5.8),
    ("log(2.1)", "log(s)", 2.1),
    ("sin(2.1)", "sin(s)", 2.1),
    ("cos(2.1)", "cos(s)", 2.1),
    ("sqrt(2.1)", "sqrt(s)", 2.1),
    ("2.1^-3", "s^-3", 2.1),
    ("1/2.1", "1/s", 2.1),
    ("0.1*exp(2.1)", "0.1*exp(s)", 2.1),
])
def test_a_folded_constant_is_its_run_time_value(folded, run, s):
    # a constant subtree folds through the kernel a run evaluates it with
    program = Program((parse(folded),))
    assert len(program) == 0
    assert jet_eval(parse(folded), 0.0, 0).value == jet_eval(parse(run), s, 0).value


def test_division_by_zero_constant_term_names_subexpression():
    with pytest.raises(ExprEvaluationError) as exc:
        jet_eval(parse("1/(s - 1)"), 1.0, 2)
    assert "(s - 1)" in str(exc.value)


def test_sqrt_log_domain_violations():
    with pytest.raises(ExprEvaluationError):
        jet_eval(parse("sqrt(s)"), -1.0, 2)
    with pytest.raises(ExprEvaluationError):
        jet_eval(parse("log(s)"), 0.0, 2)


class PrintedKeyProgram(Program):
    """The compiler with subtrees looked up by their printed form, which
    shows the whole subtree, instead of by node value and hash."""

    def _emit(self, node, output):
        key = str(node)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._emit_new(node, output)
        return hit


def moved_quintic_components(rng):
    """The bundled quintic's components mixed by a random matrix plus a
    shift, each written "0 +/- c +/- m*(q_1) ...", so every quintic
    component is a subtree of all five."""
    quintic = ["(s - s^5)/(4*sqrt(15))", "(s^2 + s^4)/(4*sqrt(6))", "s^3/6",
               "(s^2 - s^4)/(4*sqrt(6))", "(s + s^5)/(4*sqrt(15))"]
    M, shift = rng.normal(size=(5, 5)), rng.normal(size=5)

    def signed(x, factor=""):
        return f" {'-' if x < 0 else '+'} {float(abs(x))!r}{factor}"

    return ["0" + signed(shift[i]) + "".join(signed(M[i, j], f"*({quintic[j]})")
                                             for j in range(5)) for i in range(5)]


@pytest.mark.parametrize("texts, ops", [
    (moved_quintic_components(np.random.default_rng(1)), None),
    (["sin(s^2 + 1)*sin(s^2 + 1) + (s^2 + 1)^3 - cos(sin(s^2 + 1))",
      "(s^2 + 1)^3", "sin(s^2 + 1)"], 8),
], ids=["moved quintic", "repeated subtrees"])
def test_program_op_lists_share_every_repeated_subtree(texts, ops):
    exprs = tuple(parse(t) for t in texts)
    program, reference = Program(exprs), PrintedKeyProgram(exprs)

    def listing(p):
        return ([(kind, inputs, number, str(node), output)
                 for kind, inputs, number, node, output in p._ops],
                p._outputs, p._release, p.degree)

    assert listing(program) == listing(reference)
    if ops is not None:
        assert len(program) == ops


def test_a_node_hash_is_taken_once_when_it_is_built():
    node = Param("s")
    for _ in range(5000):
        node = BinOp("+", node, Num(1.0))
    # a hash over the whole chain would recurse 5000 levels deep
    assert hash(node) == hash(BinOp("+", node.left, Num(1.0)))
    assert hash(parse("s^2 + sin(s)")) == hash(parse("s^2 + sin(s)"))


# ---------------------------------------------------------------------------
# Jet algebra properties
# ---------------------------------------------------------------------------

def test_ring_laws_and_leibniz():
    rng = np.random.default_rng(7)
    for _ in range(30):
        order = 8
        base = float(rng.uniform(-1, 1))
        a = Jet(base, rng.normal(size=order + 1))
        b = Jet(base, rng.normal(size=order + 1))
        c = Jet(base, rng.normal(size=order + 1))
        assert np.allclose((a + b).coeffs, (b + a).coeffs)
        assert np.allclose((a * b).coeffs, (b * a).coeffs)
        assert np.allclose(((a + b) + c).coeffs, (a + (b + c)).coeffs, atol=1e-12)
        assert np.allclose(((a * b) * c).coeffs, (a * (b * c)).coeffs, atol=1e-10)
        # Leibniz convolution: (f g)_k = sum_j f_j g_{k-j} exactly
        prod = (a * b).coeffs
        for k in range(order + 1):
            want = sum(a.coeffs[j] * b.coeffs[k - j] for j in range(k + 1))
            assert prod[k] == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_chain_rule_consistency_sin_of_square():
    # jet of sin(s^2) must equal the sine series composed with the jet of s^2
    base, order = 0.8, 10
    direct = jet_eval(parse("sin(s^2)"), base, order)
    inner = jet_eval(parse("s^2"), base, order)
    composed = inner.sin()
    scale = np.maximum(np.abs(direct.coeffs), 1.0)
    assert np.all(np.abs(direct.coeffs - composed.coeffs) / scale < 1e-12)


def test_division_inverts_multiplication():
    rng = np.random.default_rng(3)
    base = 0.4
    a = Jet(base, rng.normal(size=9))
    b = Jet(base, rng.normal(size=9))
    b.coeffs[0] = 2.0 + abs(b.coeffs[0])
    assert np.allclose(((a * b) / b).coeffs, a.coeffs, atol=1e-12)


def test_sqrt_squares_back():
    j = jet_eval(parse("2 + sin(s)"), 0.3, 8)
    r = j.sqrt()
    assert np.allclose((r * r).coeffs, j.coeffs, atol=1e-13)


def test_exp_log_inverse():
    j = jet_eval(parse("1.5 + 0.3*cos(s)"), 0.2, 8)
    assert np.allclose(j.log().exp().coeffs, j.coeffs, atol=1e-13)


def test_integer_power_matches_repeated_multiplication():
    j = jet_eval(parse("1 + s + s^2"), 0.5, 6)
    assert np.allclose((j ** 4).coeffs, (j * j * j * j).coeffs, atol=1e-12)


@pytest.mark.parametrize("cache", [_toeplitz_index, _antidiagonal_sum])
def test_series_kernel_tables_are_built_once_immutable_and_bounded(cache):
    table = cache(7)
    assert table is cache(7)
    # every product of 7-term series reads this array: no caller may change it
    with pytest.raises(ValueError):
        table[0, 0] = 1
    maxsize = cache.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_antiderivative_then_differentiate_round_trip():
    j = jet_eval(parse("sin(s)"), 0.9, 6)
    assert np.allclose(j.antiderivative(5.0).differentiate().coeffs, j.coeffs)


def test_jets_on_different_bases_are_not_combined():
    rng = np.random.default_rng(5)
    scalar = [Jet(b, rng.normal(size=3)) for b in (0.1, 0.2)]
    vector = [VecJet(b, rng.normal(size=(3, 5))) for b in (0.1, 0.2)]
    grids = [VecJet(np.array(b), rng.normal(size=(3, 2, 5))) for b in ([0.1, 0.2], [0.1, 0.3])]
    for call in (lambda: scalar[0] + scalar[1], lambda: vector[0] + vector[1],
                 lambda: vector[0] - vector[1], lambda: vector[0].scale(scalar[1]),
                 lambda: PseudoMetric(5).inner_jet(vector[0], vector[1]),
                 lambda: grids[0] + grids[1]):
        with pytest.raises(ValueError, match="jet bases differ"):
            call()
    # the same base, as a copy of the same grid, is combined
    same = VecJet(grids[0].base.copy(), grids[1].coeffs)
    assert np.array_equal((grids[0] + same).coeffs, grids[0].coeffs + grids[1].coeffs)
    assert vector[0].scale(scalar[0]).base == 0.1


_MIXED = {
    "vector + scalar": lambda v, j: v + j,
    "vector - scalar": lambda v, j: v - j,
    "scalar + vector": lambda v, j: j + v,
    "scalar - vector": lambda v, j: j - v,
    "scalar * vector": lambda v, j: j * v,
    "vector * scalar": lambda v, j: v * j,
    "vector + number": lambda v, j: v + 1.0,
    "number + vector": lambda v, j: 1.0 + v,
    "vector - number": lambda v, j: v - 1.0,
}


@pytest.mark.parametrize("combine", _MIXED.values(), ids=_MIXED)
@pytest.mark.parametrize("n", [5, 3])
def test_scalar_and_vector_jets_do_not_mix(combine, n):
    # n = K + 1 = 5 is the shape numpy would broadcast without a word
    j = Jet(0.1, np.arange(5.0))
    v = VecJet(0.1, np.zeros((5, n)))
    with pytest.raises(TypeError):
        combine(v, j)


@pytest.mark.parametrize("base", [0.4, np.linspace(0.1, 0.9, 4)])
def test_a_number_operand_is_applied_as_a_compiled_program_applies_it(base):
    # both sides of + - * / against the op list that compiles the same text
    j = jet_eval(parse("1.5 + sin(s)"), base, 6)
    for text, got in [("f + 2.5", j + 2.5), ("2.5 + f", 2.5 + j),
                      ("f - 2.5", j - 2.5), ("2.5 - f", 2.5 - j),
                      ("f * 2.5", j * 2.5), ("2.5 * f", 2.5 * j),
                      ("f / 2.5", j / 2.5), ("2.5 / f", 2.5 / j)]:
        want = jet_eval(parse(text.replace("f", "(1.5 + sin(s))")), base, 6)
        assert isinstance(got, Jet) and np.array_equal(got.coeffs, want.coeffs), text
    with pytest.raises(ZeroDivisionError):
        j / 0.0


@pytest.mark.parametrize("array", [np.array([2.0]), np.array([1.0, 2.0])], ids=["(1,)", "(2,)"])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_an_array_does_not_broadcast_over_a_jet(array, op):
    # numpy defers to the jet instead of building an object array of jets,
    # and the jet takes no array but a 0-d one
    j = Jet(0.1, np.arange(1.0, 4.0))
    with pytest.raises(TypeError):
        op(array, j)
    with pytest.raises(TypeError):
        op(j, array)


@pytest.mark.parametrize("number", [np.float64(2.0), np.array(2.0)], ids=["float64", "0-d"])
def test_a_numpy_scalar_operand_is_a_number(number):
    j = Jet(0.1, np.arange(1.0, 4.0))
    for got, want in [(number * j, 2.0 * j), (j * number, j * 2.0), (number - j, 2.0 - j),
                      (j / number, j / 2.0), (number / j, 2.0 / j), (number + j, 2.0 + j)]:
        assert type(got) is Jet and np.array_equal(got.coeffs, want.coeffs)


@pytest.mark.parametrize("jet", [Jet(0.1, np.ones(1)), VecJet(0.1, np.ones((1, 3))),
                                 VecJet(np.array([0.1, 0.2]), np.ones((1, 2, 3)))],
                         ids=["scalar", "vector", "vector grid"])
def test_an_order_0_jet_cannot_be_differentiated(jet):
    with pytest.raises(ValueError, match="cannot differentiate an order-0 jet"):
        jet.differentiate()


def test_compose_and_invert():
    # phi(s) = s + 0.3 s^2 around s0 = 0.5; psi = phi^{-1}
    phi = jet_eval(parse("s + 0.3*s^2"), 0.5, 8)
    psi = jet_invert(phi)
    assert psi.value == pytest.approx(0.5)
    ident = jet_compose(phi, psi)
    want = np.zeros(9)
    want[0], want[1] = phi.value, 1.0
    assert np.allclose(ident.coeffs, want, atol=1e-12)


def _compose_gathering_each_step(outer, inner):
    """The Horner composition that gathers the Toeplitz matrix of the same
    shifted inner series again at each of its K steps; the oracle of the one
    gather :func:`_compose` makes."""
    K = min(len(outer), len(inner)) - 1
    shifted = inner[:K + 1].copy()
    shifted[0] = 0.0
    vector = outer.ndim > inner.ndim
    result = np.zeros((K + 1,) + np.broadcast_shapes(
        outer.shape[1:], shifted.shape[1:] + ((1,) if vector else ())))
    result[0] = outer[K]
    for k in range(K - 1, -1, -1):
        result = _scale(shifted, result) if vector else _mul(result, shifted)
        result[0] += outer[k]
    return result


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("batch", [(), (7,)], ids=["point", "grid"])
def test_compose_gathers_one_toeplitz_matrix_bit_for_bit(vector, batch, monkeypatch):
    rng = np.random.default_rng(17)
    inner = rng.normal(size=(9,) + batch)
    outer = rng.normal(size=(9,) + batch + ((5,) if vector else ()))
    want = _compose_gathering_each_step(outer, inner)
    gathers = []
    monkeypatch.setattr("nullcartan.expr._toeplitz", lambda a: gathers.append(a) or _toeplitz(a))
    assert np.array_equal(_compose(outer, inner), want)
    assert len(gathers) == 1


def test_random_expressions_against_richardson():
    rng = np.random.default_rng(2024)
    base = 0.7
    for _ in range(10):
        text = random_expression(rng)
        expr = parse(text)
        j = jet_eval(expr, base, 6)
        f = lambda x: eval_longdouble(expr, x)
        scale = max(1.0, max(abs(j.derivative(k)) for k in range(7)))
        for k in range(1, 7):
            want = richardson_derivative(f, base, k)
            assert abs(j.derivative(k) - want) / scale < 1e-6, (text, k)


def test_polynomial_jets_at_ulp_scale():
    # coefficient errors stay within a few ulps of the coefficient scale
    rng = np.random.default_rng(99)
    eps = np.finfo(float).eps
    for _ in range(25):
        coeffs = rng.normal(size=int(rng.integers(2, 8)))
        text = " + ".join(f"({c:.17g})*s^{k}" if k else f"({c:.17g})"
                          for k, c in enumerate(coeffs))
        base = float(rng.uniform(-1.2, 1.2))
        order = len(coeffs) + 1
        j = jet_eval(parse(text), base, order)
        want = np.array([polynomial_derivative_oracle(coeffs, base, k)
                         / math.factorial(k) for k in range(order + 1)])
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(j.coeffs - want)) <= 8 * eps * scale
