"""Index-2 pseudo-Euclidean bilinear form and classification sequences.

The metric on R^n (n >= 4) weighs the first two coordinates negatively:
``<x, y> = -x1*y1 - x2*y2 + sum_{i>=3} xi*yi``.  One QR of the spanning rows
decides a spanned subspace: a row is dependent where its relative pivot
|R_ii| / |row i| is below the tolerance, and the radical dimension and
negative index are read off the eigenvalues of QᵀSQ, in [-1, 1] however the
rows are scaled.  Prefix by prefix on a stack of derivative bases (m, n, n)
they give the nullity-degree and index sequences and the degeneration
degree; the orientation of a basis and its ambiguity come from its QR too.
A NaN or infinite entry is a numerical failure, DegenerateBasisError.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    ClassificationError,
    DegenerateBasisError,
    DimensionMismatchError,
    require,
)
from .expr import Jet, _weighted_inner
from .record import Record

__all__ = [
    "PseudoMetric",
    "SubspaceProfile",
    "SequenceReport",
    "family_nullity_sequence",
]

DEFAULT_TOL = 1e-9


class SubspaceProfile(Record):
    """Gram-matrix diagnostics of a spanning system."""

    rank: int
    radical_dim: int
    index: int
    tolerance_used: float


class SequenceReport(Record):
    """Nullity-degree sequence, index sequence and degeneration degree."""

    nullity_sequence: tuple[int, ...]
    index_sequence: tuple[int, ...]
    degeneration_degree: int


def family_nullity_sequence(n):
    """The supported family: {0,1,2,2,1,0,...,0} with n+1 entries."""
    return (0, 1, 2, 2, 1) + (0,) * (n - 4)


def _row_norms(x):
    """Euclidean norms over the last axis: the formula ``numpy.linalg``'s
    ``norm(x, axis=-1)`` runs on real floats, bit for bit, without its
    argument handling.  Every such norm in the package is this one."""
    return np.sqrt(np.add.reduce(x * x, -1))


_TINY = np.finfo(float).tiny


def _span_qr(M, mode, norms=None):
    """One batched QR of Mᵀ for a stack M (m, k, n), k <= n: in mode "reduced"
    its Q (m, n, k), whose first i columns span the first i rows (in mode
    "raw", numpy's Householder form), and the relative pivots |R_ii| / |row i|
    (m, k), the sine of the angle of row i to the span of the rows before it
    (0 for a zero row, NaN for a NaN one).  ``norms`` are the
    :func:`_row_norms` of M when the caller has them."""
    a, b = np.linalg.qr(M.swapaxes(-1, -2), mode)
    r = (a if mode == "raw" else b).diagonal(0, -2, -1)
    return a, np.abs(r) / np.maximum(_row_norms(M) if norms is None else norms, _TINY)


class PseudoMetric:
    """The index-2 bilinear form on R^n, n >= 4."""

    def __init__(self, dimension):
        if dimension < 4:
            raise DimensionMismatchError("index-2 metric needs dimension >= 4")
        self.dimension = int(dimension)
        self.index = 2
        signs = np.ones(self.dimension)
        signs[:2] = -1.0
        signs.flags.writeable = False  # a shared metric's form cannot change
        self._signs = signs

    @property
    def signs(self):
        return self._signs.copy()

    def __repr__(self):
        return f"PseudoMetric(dimension={self.dimension})"

    def _check(self, x):
        """``x`` as floats whose last axis, a vector, has length n."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dimension,):
            raise DimensionMismatchError(
                f"expected a vector of length {self.dimension}, got shape {x.shape}")
        return x

    def inner(self, x, y):
        """<x, y> over the last axis: a float for two vectors, an array for stacks."""
        x, y = self._check(x), self._check(y)
        g = ((x * self._signs)[..., None, :] @ y[..., :, None])[..., 0, 0]
        return float(g) if g.ndim == 0 else g

    def inner_series(self, a, b):
        """Series (K+1, *batch) of <a(t), b(t)> for two vector coefficient
        arrays (K+1, *batch, n) batched alike, truncated to the shorter."""
        return _weighted_inner(a, b, self._signs)

    def inner_jet(self, a, b):
        """Jet of <a(t), b(t)> for two vector jets (batched alike): the
        :meth:`inner_series` of their coefficients."""
        a._require_same_base(b)
        return Jet(a.base, self.inner_series(a.coeffs, b.coeffs))

    def _bases(self, bases):
        """``bases`` as floats of shape (m, n, n), a stack of bases of R^n."""
        M = np.asarray(bases, dtype=float)
        if M.ndim != 3 or M.shape[1:] != (self.dimension,) * 2:
            raise DimensionMismatchError(
                f"expected bases of {self.dimension} vectors, got shape {M.shape}")
        return M

    def _rows(self, vectors):
        """Checked vectors as the rows of a (k, n) array."""
        return np.array([self._check(v) for v in vectors]).reshape(-1, self.dimension)

    def gram(self, vectors):
        """Gram matrix of k vectors (k, n), or of each system of a stack (..., k, n)."""
        M = self._check(vectors) if getattr(vectors, "ndim", 1) >= 2 else self._rows(vectors)
        return self._gram(M)

    def _gram(self, M):
        """:meth:`gram` of a float stack (..., k, n) whose shape is already checked.
        The transpose is copied contiguous first: matmul would pack a strided
        one at a higher cost than the copy on a synthesis block of states,
        and the product is bit for bit that of the strided operand."""
        return (M * self._signs) @ np.ascontiguousarray(M.swapaxes(-1, -2))

    def subspace_profile(self, vectors, tol=DEFAULT_TOL):
        """Rank, radical dimension and negative index of span(vectors).  A
        dependent row counts in the radical, and the others are profiled
        without it: QR gives its column a direction that later rows may use.
        A non-finite vector raises DegenerateBasisError."""
        M = self._rows(vectors)
        require(np.isfinite(M).all(axis=-1), lambda j: DegenerateBasisError(
            f"vector {j} is not finite"))
        pivots, nullity, index = self._prefix_profiles(M[None, :self.dimension], tol)
        # the first dependent row: row n at the latest, if there are more
        j = min([*np.flatnonzero(~(pivots[0] >= tol)), self.dimension])
        if j < len(M):
            p = self.subspace_profile(np.delete(M, j, axis=0), tol)
            return SubspaceProfile(p.rank, p.radical_dim + 1, p.index, tol)
        radical, negative = (int(a[0, -1:].sum()) for a in (nullity, index))  # 0 for no rows
        return SubspaceProfile(len(M) - radical, radical, negative, tol)

    def _prefix_profiles(self, M, tol):
        """Relative pivots, nullity and negative index (m, k) of the span of
        the first i = 1..k rows of each system in a stack (m, k, n), k <= n,
        from one eigvalsh of the leading blocks of QᵀSQ padded with 1 to k x k."""
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        Q, pivots = _span_qr(M, "reduced")
        G = np.nan_to_num(self.gram(Q.swapaxes(-1, -2)))  # eigvalsh refuses a NaN
        i = np.arange(M.shape[-2])
        leading = np.maximum(i[:, None], i) <= i[:, None, None]
        w = np.linalg.eigvalsh(np.where(leading, G[:, None], np.eye(len(i))))
        return pivots, np.sum(np.abs(w) <= tol, axis=-1), np.sum(w < -tol, axis=-1)

    def sequence_report(self, derivs, tol=DEFAULT_TOL):
        """:meth:`sequence_reports` of one ordered basis of n derivative vectors."""
        return self.sequence_reports(self._rows(derivs)[None], tol)[0]

    def sequence_reports(self, derivs, tol=DEFAULT_TOL):
        """Classification sequences of each basis in a stack of shape (m, n, n).

        Entry i comes from the span of the first i rows, alpha' ... alpha^(i).
        The first refused basis raises: DegenerateBasisError if not finite,
        ClassificationError if dependent (at the prefix length of its first
        pivot below ``tol``) or off the step laws |dr| <= 1, 0 <= dq <= 1,
        r_n = 0, q_n = 2.
        """
        reports, bad, refusal = self._classified(derivs, tol)
        require(~bad, refusal)
        return reports

    def _classified(self, derivs, tol):
        """Reports of a stack of bases, which to refuse, and ``refusal(j)``."""
        M = self._bases(derivs)
        pivots, nullity, index = self._prefix_profiles(M, tol)
        finite = np.isfinite(M).all(axis=-1)
        dependent = ~(pivots >= tol)
        dr, dq = np.diff(nullity, prepend=0), np.diff(index, prepend=0)
        step = (np.abs(dr) > 1) | (dq < 0) | (dq > 1)
        bad = (~finite | dependent | step).any(-1) | (nullity[:, -1] != 0) | (index[:, -1] != 2)

        def refusal(j):
            if not finite[j].all():
                return DegenerateBasisError(f"alpha^({finite[j].argmin() + 1}) is not finite")
            if dependent[j].any():
                i = int(dependent[j].argmax()) + 1
                return ClassificationError(f"derivative system is linearly dependent at "
                                           f"prefix length {i}", prefix_length=i)
            if np.any(step[j]):
                i = int(np.argmax(step[j]))
                return ClassificationError(
                    f"sequence step law violated at i={i + 1}: dr={dr[j, i]}, dq={dq[j, i]} "
                    "(bug or tolerance failure)")
            return ClassificationError(
                f"full-space profile inconsistent: r_n={nullity[j, -1]}, q_n={index[j, -1]}")
        degree = np.sum(np.abs(dr), axis=-1) // 2  # even, as r_0 = r_n = 0
        return [SequenceReport((0, *r), (0, *q), d) for r, q, d in
                zip(nullity.tolist(), index.tolist(), degree.tolist())], bad, refusal

    def orientation_sign(self, basis):
        """Sign of det of the coordinate matrix of n basis vectors; a basis
        with a relative QR pivot below 1e-12 is ambiguous and raises
        DegenerateBasisError."""
        return int(self.orientation_signs(self._rows(basis)[None])[0])

    def orientation_signs(self, bases):
        """:meth:`orientation_sign` of each basis in a stack (m, n, n); the first
        ambiguous or non-finite one raises DegenerateBasisError naming its
        first non-finite row, or else its normalized determinant."""
        M = self._bases(bases)
        return self._orientations(M, _row_norms(M))

    def _orientations(self, M, norms):
        """:meth:`orientation_signs` of a float stack (m, n, n) whose shape is
        already checked, with the :func:`_row_norms` of its rows."""
        pivots = _span_qr(M, "raw", norms)[1]
        require(pivots.min(axis=-1) >= 1e-12, lambda j: DegenerateBasisError(
            f"alpha^({np.isfinite(M[j]).all(-1).argmin() + 1}) is not finite"
            if not np.isfinite(M[j]).all() else "zero vector in basis"
            if (M[j] == 0.0).all(axis=-1).any() else
            f"orientation ambiguous: normalized determinant {np.prod(pivots[j]):.3e}"))
        return np.where(np.linalg.slogdet(M)[0] > 0, 1, -1)  # a sign that cannot underflow


@lru_cache(maxsize=32)
def _shared_metric(dimension):
    """The :class:`PseudoMetric` of a dimension, built once and shared by the
    library's hot paths; its sign vector is read-only."""
    return PseudoMetric(dimension)
