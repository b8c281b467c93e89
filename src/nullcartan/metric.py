"""Index-2 pseudo-Euclidean bilinear form and classification sequences.

The metric on R^n (n >= 4) weighs the first two coordinates negatively:
``<x, y> = -x1*y1 - x2*y2 + sum_{i>=3} xi*yi``.  Rank, radical dimension and
negative index of a spanned subspace are read off the eigenvalues of the Gram
matrix of the spanning system; prefix-by-prefix application to a derivative
basis yields the nullity-degree and index sequences and the degeneration
degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassificationError,
    DegenerateBasisError,
    DimensionMismatchError,
)

__all__ = [
    "PseudoMetric",
    "SubspaceProfile",
    "SequenceReport",
    "family_nullity_sequence",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class SubspaceProfile:
    """Gram-matrix diagnostics of a spanning system."""

    rank: int
    radical_dim: int
    index: int
    tolerance_used: float


@dataclass(frozen=True)
class SequenceReport:
    """Nullity-degree sequence, index sequence and degeneration degree."""

    nullity_sequence: tuple[int, ...]
    index_sequence: tuple[int, ...]
    degeneration_degree: int


def family_nullity_sequence(n):
    """The supported family: {0,1,2,2,1,0,...,0} with n+1 entries."""
    return (0, 1, 2, 2, 1) + (0,) * (n - 4)


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
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"expected a vector of length {self.dimension}, got shape {x.shape}")
        return x

    def inner(self, x, y):
        x = self._check(x)
        y = self._check(y)
        return float(np.dot(self._signs * x, y))

    def inner_jet(self, a, b):
        """Jet of <a(t), b(t)> for two vector jets (batched alike)."""
        return a.weighted_inner(b, self._signs)

    def norm_jet(self, a):
        """Jet of sqrt(<a, a>); requires a spacelike value."""
        return self.inner_jet(a, a).sqrt()

    def gram(self, vectors):
        vs = [self._check(v) for v in vectors]
        if not vs:
            return np.zeros((0, 0))
        M = np.stack(vs)
        return (M * self._signs) @ M.T

    def subspace_profile(self, vectors, tol=DEFAULT_TOL):
        """Rank, radical dimension and negative index of span(vectors).

        Rows are normalized first (a positive diagonal congruence, so rank and
        index are untouched); Gram eigenvalues below ``tol * max(|eig|, 1)``
        then count as zero.  Without the unit floor a totally degenerate
        system would compare its eigenvalues against pure roundoff.  The index
        of a degenerate restriction is the count of surviving negative
        eigenvalues, i.e. the index on any complement of the radical.
        """
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        m = len(vectors)
        if m == 0:
            return SubspaceProfile(0, 0, 0, tol)
        M = np.stack([self._check(v) for v in vectors])
        norms = np.linalg.norm(M, axis=1)
        safe = np.where(norms > 0.0, norms, 1.0)
        M = M / safe[:, None]
        w = np.linalg.eigvalsh((M * self._signs) @ M.T)
        threshold = tol * max(float(np.max(np.abs(w))), 1.0)
        rank = int(np.sum(np.abs(w) > threshold))
        index = int(np.sum(w < -threshold))
        return SubspaceProfile(rank, m - rank, index, tol)

    def _coordinate_rank(self, matrix, tol):
        if matrix.shape[0] == 0:
            return 0
        sv = np.linalg.svd(matrix, compute_uv=False)
        scale = sv[0] if sv[0] > 0.0 else 1.0
        return int(np.sum(sv > tol * scale))

    def sequence_report(self, derivs, tol=DEFAULT_TOL):
        """Classification sequences of an ordered basis of derivative vectors.

        ``derivs`` must hold exactly n linearly independent vectors; the i-th
        sequence entries come from the span of the first i of them.  Raises
        ClassificationError (with the offending prefix length) on a dependent
        system, and on any violation of the step laws |dr| <= 1, 0 <= dq <= 1,
        r_n = 0, q_n = 2.
        """
        n = self.dimension
        vs = [self._check(v) for v in derivs]
        if len(vs) != n:
            raise DimensionMismatchError(
                f"expected {n} derivative vectors, got {len(vs)}")
        M = np.stack(vs)
        if self._coordinate_rank(M, tol) < n:
            for i in range(1, n + 1):
                if self._coordinate_rank(M[:i], tol) < i:
                    raise ClassificationError(
                        f"derivative system is linearly dependent at prefix length {i}",
                        prefix_length=i)
        nullity = [0]
        index = [0]
        for i in range(1, n + 1):
            p = self.subspace_profile(vs[:i], tol)
            nullity.append(p.radical_dim)
            index.append(p.index)
        for i in range(1, n + 1):
            dr = nullity[i] - nullity[i - 1]
            dq = index[i] - index[i - 1]
            if abs(dr) > 1 or dq not in (0, 1):
                raise ClassificationError(
                    f"sequence step law violated at i={i}: dr={dr}, dq={dq} "
                    "(bug or tolerance failure)")
        if nullity[-1] != 0 or index[-1] != 2:
            raise ClassificationError(
                f"full-space profile inconsistent: r_n={nullity[-1]}, q_n={index[-1]}")
        total = sum(abs(nullity[i] - nullity[i - 1]) for i in range(1, n + 1))
        if total % 2:
            raise ClassificationError("degeneration degree is not integral")
        return SequenceReport(tuple(nullity), tuple(index), total // 2)

    def orientation_sign(self, basis):
        """Sign of det of the coordinate matrix of n basis vectors.

        Rows are normalized first so the ambiguity threshold (1e-12) is
        scale-free; a determinant below it raises DegenerateBasisError.
        """
        vs = [self._check(v) for v in basis]
        if len(vs) != self.dimension:
            raise DimensionMismatchError(
                f"expected {self.dimension} basis vectors, got {len(vs)}")
        return int(self.orientation_signs(np.stack(vs)[None])[0])

    def orientation_signs(self, bases, strict=True):
        """:meth:`orientation_sign` of each basis in a stack of shape (m, n, n).

        With ``strict`` an ambiguous basis raises DegenerateBasisError (the
        first one in the stack); otherwise its sign is reported as 0.
        """
        M = np.asarray(bases, dtype=float)
        norms = np.linalg.norm(M, axis=-1)
        zero = np.any(norms == 0.0, axis=-1)
        det = np.linalg.det(M / np.where(norms == 0.0, 1.0, norms)[..., None])
        ambiguous = zero | (np.abs(det) < 1e-12)
        if strict and np.any(ambiguous):
            j = int(np.argmax(ambiguous))
            if zero[j]:
                raise DegenerateBasisError("zero vector in basis")
            raise DegenerateBasisError(
                f"orientation ambiguous: normalized determinant {det[j]:.3e}")
        return np.where(ambiguous, 0, np.where(det > 0, 1, -1))
