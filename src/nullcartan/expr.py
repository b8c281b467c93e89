"""Expression parsing and truncated-Taylor (jet) arithmetic.

Curve components are written in a small expression language, e.g.
``(s - s^5)/(4*sqrt(15))``.  Evaluation propagates truncated Taylor series
("jets") through the expression, so derivatives up to any requested order
come out exact to rounding instead of degrading the way finite differences
do.  A jet stores the coefficients ``c_k = f^(k)(base)/k!``.

Jets carry an optional batch axis after the order axis: a :class:`Jet` has
coefficients of shape ``(K+1,)`` at one base point or ``(K+1, m)`` at a grid
of ``m`` base points, and a :class:`VecJet` has ``(K+1, n)`` or
``(K+1, m, n)``.  Every operation is written once, over whatever batch shape
its operands carry, so a whole grid is one numpy pass per operation.  The
scalar entry points (``jet_eval`` at a float base, a single-point
``vec_jet``) are the same code with the batch axis absent or of length one.
Both classes derive from one series base that holds what they share (order,
``at``, ``differentiate``, ``truncate``, the same-base check, ``+``, ``-``).

Each parsed expression (or tuple of expressions, e.g. the components of a
curve) is compiled into a flat op list, a :class:`Program` its owner keeps
(``jet_eval`` compiles on each call): constant subtrees are folded
to numbers, repeated subtrees are evaluated once, and registers are released
after their last use.  A constant subtree folds through the kernel that
evaluates its op, on one-term series, so it folds to the value a run
computes.  An evaluation error names the same subexpression the tree walk
would have reached first.  A jet operator runs the kernel of its op too, and
maps a number operand to an op by the rule a compiled program uses
(``_number_op``), so both give the same jet bit for bit.

A program whose ops are all polynomial knows its degree d.  Its jets at any
point are then a Taylor shift of one coefficient block of length d + 1,
which the program computes once by a run on a short series; the shift
kernels here turn that block into jets on a grid with a powers table and one
``einsum`` instead of one pass per op (see :class:`Program`).  A
:class:`~nullcartan.curve.Curve` is folded that way when its components are
polynomials of degree at most ``curve.FOLD_DEGREE`` (8); rounding in the
shifted monomial basis grows with the degree, so higher degrees, and every
program with a division by a series, a negative power or a function call,
keep the op list.

Grammar (``^`` takes a literal integer exponent and binds tighter than unary
minus; ``sqrt`` covers half powers)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' integer)?
    atom   := number | parameter | func '(' expr ')' | '(' expr ')'
    func   := sqrt | sin | cos | exp | log
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

import numpy as np

from .errors import ExprEvaluationError, ExprSyntaxError
from .record import Record

__all__ = [
    "Jet",
    "VecJet",
    "Expr",
    "Program",
    "parse",
    "jet_eval",
    "jet_compose",
    "jet_invert",
]


# ---------------------------------------------------------------------------
# Series kernels: coefficient arrays of shape (K+1, *batch), order axis first
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _toeplitz_index(size):
    """Read-only gather index of the lower-triangular Toeplitz matrix;
    ``size`` picks the zero row appended by :func:`_toeplitz`."""
    idx = np.full((size, size), size)
    for k in range(size):
        idx[k, :k + 1] = np.arange(k, -1, -1)
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=64)
def _antidiagonal_sum(size):
    """Read-only (size*size, size) 0/1 matrix that sums P[j, l] over j + l = k."""
    T = np.zeros((size, size, size))
    for j in range(size):
        for k in range(j, size):
            T[j, k - j, k] = 1.0
    T = T.reshape(size * size, size)
    T.flags.writeable = False
    return T


def _toeplitz(a):
    """``T[k, j] = a[k - j]`` for ``j <= k`` and 0 above; trailing axes kept."""
    padded = np.zeros((len(a) + 1,) + a.shape[1:])
    padded[:-1] = a
    return padded.take(_toeplitz_index(len(a)), axis=0, mode="clip")


def _toeplitz_product(T, x, vector):
    """Cauchy product of the series whose :func:`_toeplitz` matrix is ``T``
    with a series ``x`` of the same length: a vector series (K+1, *b, n) if
    ``vector``, else a scalar series (K+1, *b)."""
    if not vector:
        return np.einsum("j...,kj...->k...", x, T)
    if x.ndim == 2:
        return T @ x
    return np.matmul(T.transpose(2, 0, 1), x.swapaxes(0, 1)).swapaxes(0, 1)


def _mul(a, b):
    """Cauchy product along axis 0, truncated to the shorter series."""
    size = min(len(a), len(b))
    return _toeplitz_product(_toeplitz(b[:size]), a[:size], False)


def _scale(s, v):
    """Cauchy product of scalar series (K+1, *b) with vector series (K+1, *b, n)."""
    size = min(len(s), len(v))
    return _toeplitz_product(_toeplitz(s[:size]), v[:size], True)


def _weighted_inner(a, b, weights):
    """Series of ``sum_i w_i a_i b_i`` for vector series of equal batch shape."""
    size = min(len(a), len(b))
    a = a[:size]
    wb = b[:size] * weights
    T = _antidiagonal_sum(size)
    if a.ndim == 2:
        return (a @ wb.T).reshape(-1) @ T
    P = np.matmul(a.swapaxes(0, 1), wb.transpose(1, 2, 0))  # (m, size, size)
    return (P.reshape(len(P), -1) @ T).T


def _constant(value, like):
    c = np.zeros(like.shape)
    c[0] = value
    return c


def _shift_table(block, scale):
    """Taylor-shift table of the polynomials ``sum_j block[j] x^j``, x = (t - c)/scale.

    ``block`` is (d+1, n).  Entry ``[i, k]`` is ``C(i + k, k) block[i + k] /
    scale^k``, 0 where i + k > d, so the order-k jet coefficient at t is
    ``sum_i x^i table[i, k]`` (von zur Gathen & Gerhard, ISSAC 1997).
    """
    size = len(block)
    table = np.zeros((size,) + block.shape)
    for k in range(size):
        weights = np.array([math.comb(i + k, k) for i in range(size - k)], dtype=float)
        table[:size - k, k] = weights[:, None] * block[k:] / scale ** k
    return table


def _shift_jets(table, x, order):
    """Jet coefficients (order+1, *x.shape, n) at the scaled points x; orders
    above the degree are exactly 0."""
    size = len(table)
    rows = min(order, size - 1) + 1
    powers = np.asarray(x)[..., None] ** np.arange(size)
    out = np.zeros((order + 1,) + np.shape(x) + table.shape[2:])
    out[:rows] = np.einsum("...i,ikn->k...n", powers, table[:, :rows])
    return out


def _div(a, b):
    size = min(len(a), len(b))
    b0 = b[0]
    if (b0 == 0.0).any():
        raise ZeroDivisionError("division by a jet with zero constant term")
    h = np.empty(np.broadcast(a[:size], b[:size]).shape)
    h[0] = a[0] / b0
    for k in range(1, size):
        h[k] = (a[k] - np.einsum("j...,j...->...", h[:k], b[k:0:-1])) / b0
    return h


def _div_number(a, c):
    """Series divided by a constant series: the recurrence reduces to a / c."""
    if c == 0.0:
        raise ZeroDivisionError("division by a jet with zero constant term")
    return a / c


def _pow(a, p):
    if p < 0:
        a = _div(_constant(1.0, a), a)
        p = -p
    result = None
    square = a
    while p:
        if p & 1:
            result = square if result is None else _mul(result, square)
        p >>= 1
        if p:
            square = _mul(square, square)
    return _constant(1.0, a) if result is None else result


@lru_cache(maxsize=256)
def _orders(size, ndim):
    """Read-only column 0, 1, ..., size-1 along axis 0 of an ndim-array."""
    column = np.arange(size, dtype=float).reshape((-1,) + (1,) * (ndim - 1))
    column.flags.writeable = False
    return column


def _weighted(f):
    """Rows ``j * f_j`` (the series of t f'(t) shifted), for the ODE recurrences."""
    return f * _orders(len(f), f.ndim)


def _sqrt(f):
    if (f[0] <= 0.0).any():
        raise ValueError("sqrt of a jet with nonpositive constant term")
    h = np.empty_like(f)
    h[0] = np.sqrt(f[0])
    twice = 2.0 * h[0]
    for k in range(1, len(f)):
        acc = f[k]
        if k >= 2:
            acc = acc - np.einsum("j...,j...->...", h[1:k], h[k - 1:0:-1])
        h[k] = acc / twice
    return h


def _exp(f):
    h = np.empty_like(f)
    with np.errstate(over="ignore"):
        h[0] = np.exp(f[0])
    if (np.isinf(h[0]) & np.isfinite(f[0])).any():
        raise OverflowError("math range error")
    jf = _weighted(f)
    for k in range(1, len(f)):
        h[k] = np.einsum("j...,j...->...", jf[1:k + 1], h[k - 1::-1]) / k
    return h


def _log(f):
    if (f[0] <= 0.0).any():
        raise ValueError("log of a jet with nonpositive constant term")
    h = np.empty_like(f)
    h[0] = np.log(f[0])
    for k in range(1, len(f)):
        acc = f[k]
        if k >= 2:
            jh = _weighted(h[:k])
            acc = acc - np.einsum("j...,j...->...", jh[1:k], f[k - 1:0:-1]) / k
        h[k] = acc / f[0]
    return h


def _sincos(f):
    s = np.empty_like(f)
    c = np.empty_like(f)
    s[0], c[0] = np.sin(f[0]), np.cos(f[0])
    jf = _weighted(f)
    for k in range(1, len(f)):
        s[k] = np.einsum("j...,j...->...", jf[1:k + 1], c[k - 1::-1]) / k
        c[k] = -np.einsum("j...,j...->...", jf[1:k + 1], s[k - 1::-1]) / k
    return s, c


_CALLS = {
    "sqrt": _sqrt,
    "exp": _exp,
    "log": _log,
    "sin": lambda f: _sincos(f)[0],
    "cos": lambda f: _sincos(f)[1],
}


def _shift(x, c):
    out = x.copy()
    out[0] += c
    return out


# the kernel of each op kind; a kind ending (starting) in c takes a number as
# its right (left) operand
_KERNELS = {
    "neg": lambda x: -x,
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": _mul,
    "div": _div,
    "addc": _shift,
    "csub": lambda x, c: _shift(-x, c),
    "mulc": lambda x, c: x * c,
    "divc": _div_number,
    "cdiv": lambda x, c: _div(_constant(c, x), x),
    "pow": _pow,
    **_CALLS,
}


def _number_op(kind, number, reflected):
    """Kind and number of the op that applies binary ``kind`` to a series and
    a number, ``reflected`` when the number is the left operand; ``x - c``
    runs as ``x + (-c)``.  Jet operators and :class:`Program` both use it."""
    if kind == "sub" and not reflected:
        kind, number = "add", -number
    if kind == "div" and not reflected:
        return "divc", number
    return {"add": "addc", "sub": "csub", "mul": "mulc", "div": "cdiv"}[kind], number


def _compose(outer, inner):
    """Horner evaluation of series ``outer`` at ``inner - inner[0]``.

    ``outer`` may carry one trailing vector axis more than ``inner``.
    """
    K = min(len(outer), len(inner)) - 1
    shifted = inner[:K + 1].copy()
    shifted[0] = 0.0
    vector = outer.ndim > inner.ndim
    result = np.zeros((K + 1,) + np.broadcast_shapes(
        outer.shape[1:], shifted.shape[1:] + ((1,) if vector else ())))
    result[0] = outer[K]
    T = _toeplitz(shifted)  # every Horner step multiplies by the same series
    for k in range(K - 1, -1, -1):
        result = _toeplitz_product(T, result, vector)
        result[0] += outer[k]
    return result


def _batch_value(c0):
    return float(c0) if c0.ndim == 0 else c0.copy()


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

def _operator(kind, reflected=False):
    """The operator method of a binary op kind; see :meth:`_Series._binary`."""
    return lambda self, other: self._binary(kind, other, reflected)


def _function(kind):
    """The :class:`Jet` method of an elementary function: its kernel."""
    return lambda self: Jet(self.base, _CALLS[kind](self.coeffs))


class _Series(Record, eq=False):
    """What :class:`Jet` and :class:`VecJet` share: a truncated Taylor series
    with coefficients ``coeffs`` (order axis first) at ``base``.

    Arithmetic between two series of one type requires a common base and
    truncates to the shorter order; it runs the kernel a compiled
    :class:`Program` runs for the op.  An operand of another series type, an
    array that is not 0-d, or a number where the class takes none, gives
    ``NotImplemented``.
    """

    base: float | np.ndarray
    coeffs: np.ndarray

    def __init__(self, base, coeffs):  # written out: every jet op builds one
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coeffs", coeffs)

    _takes_numbers = False  # whether a number operand follows _number_op
    # numpy defers to the series operators instead of broadcasting an array
    # over a series into an object array of series
    __array_ufunc__ = None

    @property
    def order(self):
        return len(self.coeffs) - 1

    def at(self, i):
        """The jet at the i-th base point of a batch."""
        return type(self)(float(self.base[i]), self.coeffs[:, i].copy())

    def differentiate(self):
        """Jet of the derivative at the same base, one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        return type(self)(self.base, _weighted(self.coeffs)[1:])

    def truncate(self, order):
        if order >= self.order:
            return self
        return type(self)(self.base, self.coeffs[: order + 1])

    def _require_same_base(self, other):
        """Refuse to combine with a jet (scalar or vector) on another base.

        The comparison is exact, so jets combined in one operation must be
        evaluated on the same base array (or bit-identical copies of it); bases
        that differ by roundoff are refused as different points.
        """
        a, b = self.base, other.base
        if a is not b and not (np.shape(a) == np.shape(b) and np.all(np.equal(a, b))):
            raise ValueError("jet bases differ")

    def _binary(self, kind, other, reflected):
        """``self kind other``, or ``other kind self`` if ``reflected``."""
        if isinstance(other, type(self)):
            self._require_same_base(other)
            size = min(len(self.coeffs), len(other.coeffs))
            a, b = self.coeffs[:size], other.coeffs[:size]
            return type(self)(self.base, _KERNELS[kind](*((b, a) if reflected else (a, b))))
        if isinstance(other, _Series) or not self._takes_numbers or getattr(other, "ndim", 0):
            return NotImplemented
        kind, number = _number_op(kind, float(other), reflected)
        return type(self)(self.base, _KERNELS[kind](self.coeffs, number))

    __add__ = _operator("add")
    __sub__ = _operator("sub")

    def __neg__(self):
        return type(self)(self.base, -self.coeffs)


class Jet(_Series):
    """Truncated Taylor expansion of a scalar function at ``base``.

    ``coeffs[k]`` is ``f^(k)(base)/k!``.  ``base`` is a float with coeffs of
    shape ``(K+1,)``, or an array of m points with coeffs ``(K+1, m)``.  A
    number operand on either side of ``+ - * /`` is applied as a compiled
    program applies it.
    """

    _takes_numbers = True

    @classmethod
    def variable(cls, base, order):
        jet = cls.constant(base, base, order)
        if order >= 1:
            jet.coeffs[1] = 1.0
        return jet

    @classmethod
    def constant(cls, value, base, order):
        base = float(base) if np.ndim(base) == 0 else np.asarray(base, dtype=float)
        c = np.zeros((order + 1,) + np.shape(base))
        c[0] = value
        return cls(base, c)

    @property
    def value(self):
        """f(base): a float, or an array over the batch."""
        return _batch_value(self.coeffs[0])

    def derivative(self, k):
        """k-th derivative value at the base point, ``k! * coeffs[k]``."""
        if not 0 <= k <= self.order:
            raise ValueError(f"derivative order {k} outside jet order {self.order}")
        return math.factorial(k) * _batch_value(self.coeffs[k])

    def antiderivative(self, constant):
        """Jet of the antiderivative with value ``constant`` at the base."""
        k = np.arange(1, self.order + 2).reshape((-1,) + (1,) * (self.coeffs.ndim - 1))
        c = np.empty((self.order + 2,) + self.coeffs.shape[1:])
        c[0] = constant
        c[1:] = self.coeffs / k
        return Jet(self.base, c)

    # -- arithmetic ---------------------------------------------------------

    __radd__ = _operator("add", reflected=True)
    __rsub__ = _operator("sub", reflected=True)
    __mul__ = _operator("mul")
    __rmul__ = _operator("mul", reflected=True)
    __truediv__ = _operator("div")
    __rtruediv__ = _operator("div", reflected=True)

    def __pow__(self, p):
        if not isinstance(p, (int, np.integer)):
            raise TypeError("jet powers take integer exponents only")
        return Jet(self.base, _pow(self.coeffs, int(p)))

    # -- elementary functions ------------------------------------------------

    sqrt = _function("sqrt")
    exp = _function("exp")
    log = _function("log")
    sin = _function("sin")
    cos = _function("cos")


def jet_compose(outer, inner):
    """Jet of ``outer o inner`` at ``inner.base``.

    ``inner.value`` must equal ``outer.base`` (the expansion points line up).
    ``outer`` may be a :class:`VecJet`, composed componentwise.  Evaluated by
    Horner's scheme on the truncated series.
    """
    gap = np.abs(np.asarray(inner.value) - outer.base)
    if np.any(gap > 1e-9 * (1 + np.abs(outer.base))):
        raise ValueError("composition base mismatch")
    return type(outer)(inner.base, _compose(outer.coeffs, inner.coeffs))


def jet_invert(phi):
    """Inverse series of a jet with nonvanishing first coefficient.

    Given the jet of a map ``phi`` at ``s0``, returns the jet of the inverse
    map at ``phi(s0)``; its value is ``s0``.  Solved order by order from
    ``phi(psi(v)) = v``.  An order-0 jet inverts to the constant ``s0``.
    """
    b = phi.coeffs
    K = phi.order
    if K >= 1 and np.any(b[1] == 0.0):
        raise ValueError("inverse series needs a nonzero first-order coefficient")
    c = np.zeros(b.shape)
    c[0] = phi.base
    c[1:2] = 1.0 / b[1:2]
    for m in range(2, K + 1):
        # residual at order m from the k >= 2 part of phi, using c_{<m}
        d = np.zeros((m + 1,) + b.shape[1:])
        d[1:m] = c[1:m]
        power = d
        acc = 0.0
        for k in range(2, m + 1):
            power = _mul(power, d)
            acc = acc + b[k] * power[m]
        c[m] = -acc / b[1]
    return Jet(phi.value, c)


# ---------------------------------------------------------------------------
# Vector jets
# ---------------------------------------------------------------------------

class VecJet(_Series):
    """Truncated Taylor expansion of a vector-valued function.

    ``coeffs[k]`` is the vector ``F^(k)(base)/k!``; row 0 is the value.  The
    shape is ``(K+1, n)`` at one base point and ``(K+1, m, n)`` on a grid.
    Only another vector jet on the same base adds to or subtracts from it.
    """

    @property
    def value(self):
        return self.coeffs[0].copy()

    def derivative_value(self, k):
        return math.factorial(k) * self.coeffs[k]

    def scale(self, s):
        """Multiply by a scalar jet (or plain number) coefficientwise."""
        if not isinstance(s, Jet):
            return VecJet(self.base, float(s) * self.coeffs)
        self._require_same_base(s)
        return VecJet(self.base, _scale(s.coeffs, self.coeffs))


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------

class Expr(Record):
    """Base class for expression nodes; see module docstring for the grammar.

    A node's hash is taken once, when it is built, from its children's:
    :class:`Program` looks every subtree up by value, and a hash over the
    whole subtree on each lookup would make compiling quadratic in depth.
    The parser builds nodes on its hot path, so each node class writes its
    own ``__init__``: it sets the fields and ``_hash``, the hash of the class
    and the field values that the base's ``__post_init__`` would take.
    """

    def __post_init__(self):
        object.__setattr__(self, "_hash", super().__hash__())

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # a copy or unpickled node is built again, never handed a stored
        # hash: the hash of a string differs from one process to the next
        return type(self), self._key(self)[1:]

    def __str__(self):
        raise NotImplementedError


class Num(Expr):
    value: float

    def __init__(self, value):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash((type(self), value)))

    def __str__(self):
        # the shortest text that parses back to this float; 1.0 prints as 1
        text = repr(self.value)
        return text[:-2] if text.endswith(".0") else text


class Param(Expr):
    name: str

    def __init__(self, name):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash((type(self), name)))

    def __str__(self):
        return self.name


class Neg(Expr):
    arg: Expr

    def __init__(self, arg):
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "_hash", hash((type(self), arg)))

    def __str__(self):
        return f"-({self.arg})"


class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __init__(self, op, left, right):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash", hash((type(self), op, left, right)))

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


class IntPow(Expr):
    arg: Expr
    exponent: int

    def __init__(self, arg, exponent):
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "_hash", hash((type(self), arg, exponent)))

    def __str__(self):
        return f"({self.arg})^{self.exponent}"


class Call(Expr):
    func: str
    arg: Expr

    def __init__(self, func, arg):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "_hash", hash((type(self), func, arg)))

    def __str__(self):
        return f"{self.func}({self.arg})"


# ---------------------------------------------------------------------------
# Compilation to a flat op list
# ---------------------------------------------------------------------------

# op kinds whose failures the tree walk reported as evaluation errors:
# ZeroDivisionError from divisions and powers, ValueError from functions
_DIVISION_OPS = ("div", "cdiv", "divc", "pow")


class Program:
    """Expressions in one parameter compiled to a flat op list.

    Each op reads registers (register 0 is the parameter series) plus at most
    one number folded from a constant subtree, and writes one new register.
    A subtree that occurs more than once is evaluated once, and a register
    is dropped after the op that reads it last.  ``run`` maps a parameter
    series of shape (K+1, *batch) to one series per expression.

    ``degree`` bounds the polynomial degree of the expressions, worked out
    from the op list, or is None when an op is a division by a series, a
    negative power or a function call.  A polynomial program of degree d is
    exact on series of length d + 1, so one run on ``[c, r, 0, ...]`` gives
    every coefficient of p(c + r x); :class:`~nullcartan.curve.Curve` folds
    its components that way.
    """

    def __init__(self, exprs):
        self._ops = []  # (kind, input registers, number, node, output index)
        self._memo = {}
        self._outputs = [self._emit(e, i) for i, e in enumerate(exprs)]
        del self._memo
        last = {}
        for n, op in enumerate(self._ops):
            for r in op[1]:
                last[r] = n
        for out in self._outputs:
            if isinstance(out, int):
                last.pop(out, None)
        self._release = [[] for _ in self._ops]
        for r, n in last.items():
            if r > 0:
                self._release[n].append(r)
        self.degree = self._degree()

    def _degree(self):
        degrees = [1]  # register 0, the parameter
        for kind, inputs, number, _node, _output in self._ops:
            d = [degrees[r] for r in inputs]
            if kind == "const":
                degrees.append(0)
            elif kind in ("neg", "addc", "csub", "mulc", "divc"):
                degrees.append(d[0])
            elif kind in ("add", "sub"):
                degrees.append(max(d))
            elif kind == "mul":
                degrees.append(sum(d))
            elif kind == "pow" and number >= 0:
                degrees.append(d[0] * number)
            else:
                return None
        return max((degrees[o] for o in self._outputs if isinstance(o, int)), default=0)

    def __len__(self):
        return len(self._ops)

    def _op(self, kind, inputs, number, node, output):
        self._ops.append((kind, inputs, number, node, output))
        return len(self._ops)  # register index (register 0 is the parameter)

    def _emit(self, node, output):
        hit = self._memo.get(node)
        if hit is None:
            hit = self._memo[node] = self._emit_new(node, output)
        return hit

    def _emit_new(self, node, output):
        """Register index (int) or folded constant (float) of a subtree.

        When every operand is a number, the op's kernel runs on one-term
        series, so the subtree folds to the value a run computes.  If the
        kernel raises, the numbers become registers and the run reports the
        error."""
        if isinstance(node, Num):
            return float(node.value)
        if isinstance(node, Param):
            return 0
        number = None
        if isinstance(node, BinOp):
            kind = {"+": "add", "-": "sub", "*": "mul", "/": "div"}[node.op]
            children = (node.left, node.right)
        elif isinstance(node, IntPow):
            kind, children, number = "pow", (node.arg,), node.exponent
        elif isinstance(node, Neg):
            kind, children = "neg", (node.arg,)
        elif isinstance(node, Call):
            kind, children = node.func, (node.arg,)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        args = [self._emit(child, output) for child in children]
        if all(isinstance(x, float) for x in args):
            series = [np.array([x]) for x in args] + ([] if number is None else [number])
            try:
                with np.errstate(all="ignore"):
                    return float(_KERNELS[kind](*series)[0])
            except (ZeroDivisionError, ValueError, OverflowError):
                args = [self._op("const", (), x, child, output)
                        for x, child in zip(args, children)]
        if len(args) == 2 and any(isinstance(x, float) for x in args):
            reflected = isinstance(args[0], float)
            number, series = args if reflected else args[::-1]
            kind, number = _number_op(kind, number, reflected)
            return self._op(kind, (series,), number, node, output)
        return self._op(kind, tuple(args), number, node, output)

    def jets(self, base, order):
        """One jet per expression at ``base``, a float or an array of points."""
        param = Jet.variable(base, order)
        return [Jet(param.base, c) for c in self.run(param.coeffs)]

    def run(self, param):
        """One series per expression for the parameter series ``param``."""
        regs = [param]
        for n, (kind, inputs, number, node, output) in enumerate(self._ops):
            args = [regs[r] for r in inputs]
            try:
                if kind == "const":
                    value = _constant(number, param)
                elif number is None:
                    value = _KERNELS[kind](*args)
                else:
                    value = _KERNELS[kind](*args, number)
            except ZeroDivisionError as exc:
                if kind not in _DIVISION_OPS:
                    raise
                raise _evaluation_error(exc, node, output) from None
            except (ValueError, OverflowError) as exc:
                if kind not in _CALLS:
                    raise
                raise _evaluation_error(exc, node, output) from None
            regs.append(value)
            for r in self._release[n]:
                regs[r] = None
        return [regs[o] if isinstance(o, int) else _constant(o, param)
                for o in self._outputs]


def _evaluation_error(exc, node, output):
    err = ExprEvaluationError(str(exc), str(node))
    err.output = output
    return err


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_FUNCS = ("sqrt", "sin", "cos", "exp", "log")

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


class _Token(Record):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int

    def __init__(self, kind, text, pos):  # written out: one per token
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "pos", pos)


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[i]!r}", i)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(), i))
        i = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, parameter):
        self.tokens = tokens
        self.parameter = parameter
        self.i = 0

    @property
    def tok(self):
        return self.tokens[self.i]

    def advance(self):
        self.i += 1

    def expect_op(self, text):
        if self.tok.kind != "op" or self.tok.text != text:
            raise ExprSyntaxError(f"expected '{text}'", self.tok.pos)
        self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while self.tok.kind == "op" and self.tok.text in "+-":
            op = self.tok.text
            self.advance()
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.tok.kind == "op" and self.tok.text in "*/":
            op = self.tok.text
            self.advance()
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self):
        if self.tok.kind == "op" and self.tok.text == "-":
            self.advance()
            return Neg(self.parse_factor())
        node = self.parse_atom()
        if self.tok.kind == "op" and self.tok.text == "^":
            self.advance()
            node = IntPow(node, self.parse_int_exponent())
        return node

    def parse_int_exponent(self):
        sign = 1
        if self.tok.kind == "op" and self.tok.text == "-":
            sign = -1
            self.advance()
        tok = self.tok
        if tok.kind != "num" or not tok.text.isdigit():
            raise ExprSyntaxError("power exponents must be literal integers", tok.pos)
        self.advance()
        return sign * int(tok.text)

    def parse_atom(self):
        tok = self.tok
        if tok.kind == "num":
            self.advance()
            try:
                return Num(float(tok.text))
            except ValueError:
                raise ExprSyntaxError(f"malformed number {tok.text!r}", tok.pos) from None
        if tok.kind == "name":
            self.advance()
            if tok.text in _FUNCS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            if tok.text == self.parameter:
                return Param(tok.text)
            raise ExprSyntaxError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input",
                              tok.pos)


def parse(text, parameter="s"):
    """Parse expression text into an AST; raises ExprSyntaxError with column."""
    parser = _Parser(_tokenize(text), parameter)
    node = parser.parse_expr()
    if parser.tok.kind != "end":
        raise ExprSyntaxError(f"unexpected token {parser.tok.text!r}", parser.tok.pos)
    return node


def jet_eval(expr, base, order):
    """Evaluate an expression as a jet of the given order at ``base``.

    ``base`` is a float, or an array of points for a batched jet.
    """
    if order < 0:
        raise ValueError("jet order must be nonnegative")
    return Program((expr,)).jets(base, order)[0]
