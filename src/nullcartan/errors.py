"""Exception hierarchy.

Each class states its CLI exit category in ``category``, and a subclass
inherits it: ``input`` for problems with files, expressions or dimensions,
``hypothesis`` for a violated theorem hypothesis, ``numerical`` for a
numerical breakdown (degenerate curvatures, step-size failures), and
``family`` for the rest, violations of family membership.  The CLI prints
the category in its diagnostic and maps it to the exit code.  :func:`require`
is the one rule by which a grid gate raises.
"""

import numpy as np


def require(ok, error):
    """Raise ``error(j)`` at the first index j where the bool array ``ok`` is
    False.  Every grid gate raises through here, stating the condition that
    must hold (``np.abs(v) <= limit``, ``sq > 0.0``), so a NaN fails it."""
    if np.count_nonzero(ok) < ok.size:
        raise error(int(ok.argmin()))


class NullCartanError(Exception):
    """Base class for all library errors."""

    category = "family"


class InputError(NullCartanError, ValueError):
    """Malformed input file or argument."""

    category = "input"


class DimensionMismatchError(InputError):
    """Vector or component count does not match the ambient dimension."""


class ExprSyntaxError(InputError):
    """Expression text failed to parse.

    ``position`` is the 0-based column of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (column {position})")
        self.position = position


class ExprEvaluationError(NullCartanError, ArithmeticError):
    """Expression hit a domain violation during jet evaluation.

    ``reason`` is the message without the location that ``subexpression``
    adds to it.
    """

    category = "numerical"

    def __init__(self, message, subexpression):
        super().__init__(f"{message} in '{subexpression}'")
        self.reason = message
        self.subexpression = subexpression


class ClassificationError(NullCartanError):
    """Derivative system unusable for the classification sequences.

    Either a linearly dependent prefix (``prefix_length`` set) or sequences
    that disagree between two grid points (``points`` set).
    """

    def __init__(self, message, prefix_length=None, points=None):
        super().__init__(message)
        self.prefix_length = prefix_length
        self.points = points


class DegenerateBasisError(NullCartanError):
    """Orientation ambiguous (a relative QR pivot at roundoff) or against the
    frame's, a derivative too large for floating point, or a non-finite basis."""

    category = "numerical"


class FamilyError(NullCartanError):
    """Curve is not in the supported nullity-sequence family."""


class HypothesisError(NullCartanError):
    """A theorem hypothesis fails on the requested grid.

    Distinct from a negative verdict: the construction/test does not apply.
    ``evidence``, when set, is the result the hypothesis was read from, so a
    caller that reports the failure need not compute it again.
    """

    category = "hypothesis"

    def __init__(self, message, condition=None, location=None, evidence=None):
        super().__init__(message)
        self.condition = condition
        self.location = location
        self.evidence = evidence


class FrameDegeneracyError(NullCartanError):
    """A frame normalizer curvature fell below tolerance.

    ``index`` is the curvature index that vanished; ``partial``, when given,
    is the jet frame at that point of the rows found before it.
    """

    category = "numerical"

    def __init__(self, message, index=None, partial=None):
        super().__init__(message)
        self.index = index
        self.partial = partial


class SingularRecursionError(NullCartanError):
    """Division by a vanishing curvature inside the sphere recursion."""

    category = "numerical"

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class StepSizeError(NullCartanError):
    """Integration step too coarse for the requested frame-defect budget."""

    category = "numerical"
