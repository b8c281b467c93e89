"""Index-2 pseudo-Euclidean bilinear form and classification sequences.

The metric on R^n (n >= 4) weighs the first two coordinates negatively:
``<x, y> = -x1*y1 - x2*y2 + sum_{i>=3} xi*yi``.  Rank, radical dimension and
negative index of a spanned subspace are read off the eigenvalues of the Gram
matrix of the spanning system.  Prefix by prefix on a derivative basis, or on
a stack of bases of shape (m, n, n), they give the nullity-degree and index
sequences and the degeneration degree.
"""

from __future__ import annotations

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


def _unit_rows(M):
    """Rows scaled to unit length (a positive congruence), and which are zero."""
    norms = np.linalg.norm(M, axis=-1)
    return M / np.where(norms > 0.0, norms, 1.0)[..., None], norms == 0.0


class PseudoMetric:
    """The index-2 bilinear form on R^n, n >= 4."""

    def __init__(self, dimension):
        if dimension < 4:
            raise DimensionMismatchError("index-2 metric needs dimension >= 4")
        self.dimension = int(dimension)
        self.index = 2
        signs = np.ones(self.dimension)
        signs[:2] = -1.0
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

    def _rows(self, vectors):
        """Checked vectors as the rows of a (k, n) array."""
        return np.array([self._check(v) for v in vectors]).reshape(-1, self.dimension)

    def gram(self, vectors):
        """Gram matrix of k vectors (k, n), or of each system of a stack (..., k, n)."""
        M = self._check(vectors) if getattr(vectors, "ndim", 1) >= 2 else self._rows(vectors)
        return (M * self._signs) @ M.swapaxes(-1, -2)

    def subspace_profile(self, vectors, tol=DEFAULT_TOL):
        """Rank, radical dimension and negative index of span(vectors)."""
        M = self._rows(vectors)
        [[rank]], [[index]] = self._prefix_profiles(M[None], tol, [len(M)])
        return SubspaceProfile(int(rank), len(M) - int(rank), int(index), tol)

    def _prefix_profiles(self, M, tol, lengths):
        """Rank and negative index, shape (m, len(lengths)), of the span of
        the first i rows of each system in a stack (m, k, n), i in ``lengths``.

        Rows are normalized (a positive congruence) and the Gram is built
        once.  Eigenvalues of its leading i x i block below
        ``tol * max(|eig|, 1)`` count as zero, the unit floor keeping totally
        degenerate systems off roundoff; the index counts the negative rest.
        """
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        G = self.gram(_unit_rows(M)[0])
        rank, index = [], []
        for i in lengths:
            w = np.linalg.eigvalsh(G[:, :i, :i])
            threshold = tol * np.maximum(np.max(np.abs(w), axis=-1, initial=0.0), 1.0)
            rank.append(np.sum(np.abs(w) > threshold[:, None], axis=-1))
            index.append(np.sum(w < -threshold[:, None], axis=-1))
        return np.stack(rank, axis=-1), np.stack(index, axis=-1)

    def sequence_report(self, derivs, tol=DEFAULT_TOL):
        """:meth:`sequence_reports` of one ordered basis of n derivative vectors."""
        return self.sequence_reports(self._rows(derivs)[None], tol)[0]

    def sequence_reports(self, derivs, tol=DEFAULT_TOL):
        """Classification sequences of each basis in a stack of shape (m, n, n).

        Entry i comes from the span of the first i rows, alpha' ... alpha^(i).
        One SVD checks independence and one eigvalsh per prefix length serves
        the stack.  ClassificationError names the first basis that is
        dependent (and the prefix length) or breaks the step laws |dr| <= 1,
        0 <= dq <= 1, r_n = 0, q_n = 2.
        """
        n = self.dimension
        M = np.asarray(derivs, dtype=float)
        if M.ndim != 3 or M.shape[1:] != (n, n):
            raise DimensionMismatchError(
                f"expected bases of {n} derivative vectors, got shape {M.shape}")

        def ranks(A):  # relative to the largest singular value
            sv = np.linalg.svd(A, compute_uv=False)
            return np.sum(sv > tol * np.where(sv[..., :1] > 0.0, sv[..., :1], 1.0), axis=-1)

        dependent = ranks(M) < n
        rank, index = self._prefix_profiles(M, tol, range(1, n + 1))
        nullity = np.arange(1, n + 1) - rank
        dr, dq = np.diff(nullity, prepend=0), np.diff(index, prepend=0)
        step = (np.abs(dr) > 1) | (dq < 0) | (dq > 1)
        bad = dependent | np.any(step, axis=-1) | (nullity[:, -1] != 0) | (index[:, -1] != 2)

        def refusal(j):
            if dependent[j]:
                i = next(i for i in range(1, n + 1) if ranks(M[j, :i]) < i)
                return ClassificationError(f"derivative system is linearly dependent at "
                                           f"prefix length {i}", prefix_length=i)
            if np.any(step[j]):
                i = int(np.argmax(step[j]))
                return ClassificationError(
                    f"sequence step law violated at i={i + 1}: dr={dr[j, i]}, dq={dq[j, i]} "
                    "(bug or tolerance failure)")
            return ClassificationError(
                f"full-space profile inconsistent: r_n={nullity[j, -1]}, q_n={index[j, -1]}")
        require(~bad, refusal)
        degree = np.sum(np.abs(dr), axis=-1) // 2  # even, as r_0 = r_n = 0
        return [SequenceReport((0, *r), (0, *q), d)
                for r, q, d in zip(nullity.tolist(), index.tolist(), degree.tolist())]

    def orientation_sign(self, basis):
        """Sign of det of the coordinate matrix of n basis vectors.

        Rows are normalized first so the ambiguity threshold (1e-12) is
        scale-free; a determinant below it raises DegenerateBasisError.
        """
        M = self._rows(basis)
        if len(M) != self.dimension:
            raise DimensionMismatchError(
                f"expected {self.dimension} basis vectors, got {len(M)}")
        return int(self.orientation_signs(M[None])[0])

    def orientation_signs(self, bases):
        """:meth:`orientation_sign` of each basis in a stack of shape (m, n, n);
        the first ambiguous basis in the stack, or one whose determinant is
        NaN, raises DegenerateBasisError."""
        M, zero_rows = _unit_rows(np.asarray(bases, dtype=float))
        zero, det = zero_rows.any(axis=-1), np.linalg.det(M)
        require(~zero & (np.abs(det) >= 1e-12), lambda j: DegenerateBasisError(
            "zero vector in basis" if zero[j] else
            f"orientation ambiguous: normalized determinant {det[j]:.3e}"))
        return np.where(det > 0, 1, -1)
