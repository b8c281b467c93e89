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

Each parsed expression (or tuple of expressions, e.g. the components of a
curve) is compiled once into a flat op list: constant subtrees are folded
to numbers, repeated subtrees are evaluated once, and registers are released
after their last use.  An evaluation error names the same subexpression the
tree walk would have reached first.

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ExprEvaluationError, ExprSyntaxError

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

@lru_cache(maxsize=None)
def _toeplitz_index(size):
    """Gather index of the lower-triangular Toeplitz matrix; ``size`` picks
    the zero row appended by :func:`_toeplitz`."""
    idx = np.full((size, size), size)
    for k in range(size):
        idx[k, :k + 1] = np.arange(k, -1, -1)
    return idx


@lru_cache(maxsize=None)
def _antidiagonal_sum(size):
    """(size*size, size) 0/1 matrix that sums P[j, l] over j + l = k."""
    T = np.zeros((size, size, size))
    for j in range(size):
        for k in range(j, size):
            T[j, k - j, k] = 1.0
    return T.reshape(size * size, size)


def _toeplitz(a):
    """``T[k, j] = a[k - j]`` for ``j <= k`` and 0 above; trailing axes kept."""
    padded = np.zeros((len(a) + 1,) + a.shape[1:])
    padded[:-1] = a
    return padded.take(_toeplitz_index(len(a)), axis=0)


def _mul(a, b):
    """Cauchy product along axis 0, truncated to the shorter series."""
    size = min(len(a), len(b))
    return np.einsum("j...,kj...->k...", a[:size], _toeplitz(b[:size]))


def _scale(s, v):
    """Cauchy product of scalar series (K+1, *b) with vector series (K+1, *b, n)."""
    size = min(len(s), len(v))
    S = _toeplitz(s[:size])
    v = v[:size]
    if v.ndim == 2:
        return S @ v
    return np.matmul(S.transpose(2, 0, 1), v.swapaxes(0, 1)).swapaxes(0, 1)


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
    if np.any(b0 == 0.0):
        raise ZeroDivisionError("division by a jet with zero constant term")
    h = np.empty(np.broadcast_shapes(a[:size].shape, b[:size].shape))
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
    if np.any(f[0] <= 0.0):
        raise ValueError("sqrt of a jet with nonpositive constant term")
    h = np.empty_like(f)
    h[0] = np.sqrt(f[0])
    for k in range(1, len(f)):
        acc = f[k]
        if k >= 2:
            acc = acc - np.einsum("j...,j...->...", h[1:k], h[k - 1:0:-1])
        h[k] = acc / (2.0 * h[0])
    return h


def _exp(f):
    h = np.empty_like(f)
    with np.errstate(over="ignore"):
        h[0] = np.exp(f[0])
    if np.any(np.isinf(h[0]) & np.isfinite(f[0])):
        raise OverflowError("math range error")
    jf = _weighted(f)
    for k in range(1, len(f)):
        h[k] = np.einsum("j...,j...->...", jf[1:k + 1], h[k - 1::-1]) / k
    return h


def _log(f):
    if np.any(f[0] <= 0.0):
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
    for k in range(K - 1, -1, -1):
        result = _scale(shifted, result) if vector else _mul(result, shifted)
        result[0] += outer[k]
    return result


def _same_base(a, b):
    """Whether two jet bases are the same point or grid.

    The comparison is exact, so jets combined in one operation must be
    evaluated on the same base array (or bit-identical copies of it); bases
    that differ by roundoff are refused as different points.
    """
    if a is b:
        return True
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return a == b
    return np.shape(a) == np.shape(b) and bool(np.all(np.equal(a, b)))


def _require_same_base(a, b):
    """Refuse to combine two jets (scalar or vector) on different bases."""
    if a.base is not b.base and not _same_base(a.base, b.base):
        raise ValueError("jet bases differ")


def _batch_value(c0):
    return float(c0) if c0.ndim == 0 else c0.copy()


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Jet:
    """Truncated Taylor expansion of a scalar function at ``base``.

    ``coeffs[k]`` is ``f^(k)(base)/k!``.  ``base`` is a float with coeffs of
    shape ``(K+1,)``, or an array of m points with coeffs ``(K+1, m)``.
    Arithmetic between two jets requires a common base and truncates to the
    shorter order.
    """

    base: float | np.ndarray
    coeffs: np.ndarray

    @classmethod
    def variable(cls, base, order):
        base = float(base) if np.ndim(base) == 0 else np.asarray(base, dtype=float)
        c = np.zeros((order + 1,) + np.shape(base))
        c[0] = base
        if order >= 1:
            c[1] = 1.0
        return cls(base, c)

    @classmethod
    def constant(cls, value, base, order):
        base = float(base) if np.ndim(base) == 0 else np.asarray(base, dtype=float)
        c = np.zeros((order + 1,) + np.shape(base))
        c[0] = value
        return cls(base, c)

    @property
    def order(self):
        return len(self.coeffs) - 1

    @property
    def value(self):
        """f(base): a float, or an array over the batch."""
        return _batch_value(self.coeffs[0])

    def at(self, i):
        """The jet at the i-th base point of a batch."""
        return Jet(float(self.base[i]), self.coeffs[:, i].copy())

    def derivative(self, k):
        """k-th derivative value at the base point, ``k! * coeffs[k]``."""
        if not 0 <= k <= self.order:
            raise ValueError(f"derivative order {k} outside jet order {self.order}")
        return math.factorial(k) * _batch_value(self.coeffs[k])

    def differentiate(self):
        """Jet of f' at the same base, one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(self.base, _weighted(self.coeffs)[1:])

    def antiderivative(self, constant):
        """Jet of the antiderivative with value ``constant`` at the base."""
        k = np.arange(1, self.order + 2).reshape((-1,) + (1,) * (self.coeffs.ndim - 1))
        c = np.empty((self.order + 2,) + self.coeffs.shape[1:])
        c[0] = constant
        c[1:] = self.coeffs / k
        return Jet(self.base, c)

    def truncate(self, order):
        if order >= self.order:
            return self
        return Jet(self.base, self.coeffs[: order + 1])

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            _require_same_base(self, other)
            return other
        return Jet(self.base, _constant(float(other), self.coeffs))

    def _pair(self, other):
        other = self._coerce(other)
        size = min(len(self.coeffs), len(other.coeffs))
        return self.coeffs[:size], other.coeffs[:size]

    def __add__(self, other):
        if not isinstance(other, Jet):
            c = self.coeffs.copy()
            c[0] += float(other)
            return Jet(self.base, c)
        a, b = self._pair(other)
        return Jet(self.base, a + b)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return Jet(self.base, a - b)

    def __rsub__(self, other):
        a, b = self._pair(other)
        return Jet(self.base, b - a)

    def __neg__(self):
        return Jet(self.base, -self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.base, self.coeffs * float(other))
        a, b = self._pair(other)
        return Jet(self.base, _mul(a, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._pair(other)
        return Jet(self.base, _div(a, b))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, p):
        if not isinstance(p, (int, np.integer)):
            raise TypeError("jet powers take integer exponents only")
        return Jet(self.base, _pow(self.coeffs, int(p)))

    # -- elementary functions ------------------------------------------------

    def sqrt(self):
        return Jet(self.base, _sqrt(self.coeffs))

    def exp(self):
        return Jet(self.base, _exp(self.coeffs))

    def log(self):
        return Jet(self.base, _log(self.coeffs))

    def sin(self):
        return Jet(self.base, _sincos(self.coeffs)[0])

    def cos(self):
        return Jet(self.base, _sincos(self.coeffs)[1])


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

@dataclass(frozen=True, eq=False)
class VecJet:
    """Truncated Taylor expansion of a vector-valued function.

    ``coeffs[k]`` is the vector ``F^(k)(base)/k!``; row 0 is the value.  The
    shape is ``(K+1, n)`` at one base point and ``(K+1, m, n)`` on a grid.
    As with :class:`Jet`, arithmetic between two jets requires a common base.
    """

    base: float | np.ndarray
    coeffs: np.ndarray

    @property
    def order(self):
        return self.coeffs.shape[0] - 1

    @property
    def value(self):
        return self.coeffs[0].copy()

    def at(self, i):
        """The vector jet at the i-th base point of a batch."""
        return VecJet(float(self.base[i]), self.coeffs[:, i].copy())

    def derivative_value(self, k):
        return math.factorial(k) * self.coeffs[k]

    def differentiate(self):
        return VecJet(self.base, _weighted(self.coeffs)[1:])

    def truncate(self, order):
        if order >= self.order:
            return self
        return VecJet(self.base, self.coeffs[: order + 1])

    def _pair(self, other):
        _require_same_base(self, other)
        K = min(self.order, other.order)
        return self.coeffs[: K + 1], other.coeffs[: K + 1]

    def __add__(self, other):
        a, b = self._pair(other)
        return VecJet(self.base, a + b)

    def __sub__(self, other):
        a, b = self._pair(other)
        return VecJet(self.base, a - b)

    def __neg__(self):
        return VecJet(self.base, -self.coeffs)

    def scale(self, s):
        """Multiply by a scalar jet (or plain number) coefficientwise."""
        if not isinstance(s, Jet):
            return VecJet(self.base, float(s) * self.coeffs)
        _require_same_base(self, s)
        return VecJet(self.base, _scale(s.coeffs, self.coeffs))

    def weighted_inner(self, other, weights):
        """Jet of ``sum_i weights[i] * self_i(t) * other_i(t)``."""
        _require_same_base(self, other)
        return Jet(self.base, _weighted_inner(self.coeffs, other.coeffs,
                                              np.asarray(weights)))


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expression nodes; see module docstring for the grammar."""

    def substitute(self, replacement):
        """Replace every parameter occurrence with another expression."""
        raise NotImplementedError

    def __str__(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def substitute(self, replacement):
        return self

    def __str__(self):
        # the shortest text that parses back to this float; 1.0 prints as 1
        text = repr(self.value)
        return text[:-2] if text.endswith(".0") else text


@dataclass(frozen=True)
class Param(Expr):
    name: str

    def substitute(self, replacement):
        return replacement

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def substitute(self, replacement):
        return Neg(self.arg.substitute(replacement))

    def __str__(self):
        return f"-({self.arg})"


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def substitute(self, replacement):
        return BinOp(self.op, self.left.substitute(replacement),
                     self.right.substitute(replacement))

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class IntPow(Expr):
    arg: Expr
    exponent: int

    def substitute(self, replacement):
        return IntPow(self.arg.substitute(replacement), self.exponent)

    def __str__(self):
        return f"({self.arg})^{self.exponent}"


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr

    def substitute(self, replacement):
        return Call(self.func, self.arg.substitute(replacement))

    def __str__(self):
        return f"{self.func}({self.arg})"


# ---------------------------------------------------------------------------
# Compilation to a flat op list
# ---------------------------------------------------------------------------

def _fold_pow(v, p):
    """Integer power of a number in the order the series kernel multiplies."""
    if p < 0:
        v = 1.0 / v
        p = -p
    result = None
    square = v
    while p:
        if p & 1:
            result = square if result is None else result * square
        p >>= 1
        if p:
            square = square * square
    return 1.0 if result is None else result


_FOLD_BINOP = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
               "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def _fold_call(func, v):
    if func in ("sqrt", "log") and v <= 0.0:
        raise ValueError(func)
    return getattr(math, func)(v)


# op kinds whose failures the tree walk reported as evaluation errors:
# ZeroDivisionError from divisions and powers, ValueError from functions
_DIVISION_OPS = ("div", "cdiv", "divc", "pow")


def _shift(x, c):
    out = x.copy()
    out[0] += c
    return out


_KERNELS = {
    "neg": lambda x: -x,
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": _mul,
    "div": _div,
    "addc": _shift,
    "csub": lambda x, c: _shift(-x, c),
    "mulc": lambda x, c: x * c,
    "divc": lambda x, c: _div_number(x, c),
    "cdiv": lambda x, c: _div(_constant(c, x), x),
    "pow": _pow,
    **_CALLS,
}


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

    def _materialize(self, operand, node, output):
        if isinstance(operand, int):
            return operand
        return self._op("const", (), operand, node, output)

    def _emit(self, node, output):
        hit = self._memo.get(node)
        if hit is None:
            hit = self._memo[node] = self._emit_new(node, output)
        return hit

    def _emit_new(self, node, output):
        """Register index (int) or folded constant (float) of a subtree."""
        if isinstance(node, Num):
            return float(node.value)
        if isinstance(node, Param):
            return 0
        if isinstance(node, Neg):
            x = self._emit(node.arg, output)
            return -x if isinstance(x, float) else self._op("neg", (x,), None, node, output)
        if isinstance(node, BinOp):
            x = self._emit(node.left, output)
            y = self._emit(node.right, output)
            xc, yc = isinstance(x, float), isinstance(y, float)
            if xc and yc:
                try:
                    return _FOLD_BINOP[node.op](x, y)
                except ZeroDivisionError:
                    x = self._materialize(x, node.left, output)
                    y = self._materialize(y, node.right, output)
            elif xc:
                kind = {"+": "addc", "-": "csub", "*": "mulc", "/": "cdiv"}[node.op]
                return self._op(kind, (y,), x, node, output)
            elif yc:
                if node.op == "-":
                    return self._op("addc", (x,), -y, node, output)
                kind = {"+": "addc", "*": "mulc", "/": "divc"}[node.op]
                return self._op(kind, (x,), y, node, output)
            kind = {"+": "add", "-": "sub", "*": "mul", "/": "div"}[node.op]
            return self._op(kind, (x, y), None, node, output)
        if isinstance(node, IntPow):
            x = self._emit(node.arg, output)
            if isinstance(x, float):
                try:
                    return _fold_pow(x, node.exponent)
                except ZeroDivisionError:
                    x = self._materialize(x, node.arg, output)
            return self._op("pow", (x,), node.exponent, node, output)
        if isinstance(node, Call):
            x = self._emit(node.arg, output)
            if isinstance(x, float):
                try:
                    return _fold_call(node.func, x)
                except (ValueError, OverflowError):
                    x = self._materialize(x, node.arg, output)
            return self._op(node.func, (x,), None, node, output)
        raise TypeError(f"not an expression node: {node!r}")

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


def _program_of(expr):
    """The compiled program of one expression, cached on the node."""
    program = expr.__dict__.get("_program")
    if program is None:
        program = Program((expr,))
        object.__setattr__(expr, "_program", program)
    return program


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_FUNCS = ("sqrt", "sin", "cos", "exp", "log")

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


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
    param = Jet.variable(base, order)
    return Jet(param.base, _program_of(expr).run(param.coeffs)[0])
