"""Cartan frames, curvatures and classification sequences for null curves in
pseudo-Euclidean spaces of index two, with constructive verification of the
Bertrand, pseudo-sphere and evolute/involute characterizations."""

from .bundled import NULL_QUINTIC, null_quintic_curve
from .constructions import (
    BertrandMateResult,
    BertrandVerdict,
    CurvatureProfile,
    EvoluteCurve,
    EvoluteResult,
    FrenetCurve,
    InvoluteCurve,
    InvoluteFrameReport,
    InvoluteResult,
    OffsetCurve,
    PairReport,
    SphereReport,
    bertrand_check,
    bertrand_mate,
    evolute,
    involute,
    involute_frame_check,
    pseudo_spherical_test,
    sphere_coefficients,
    standard_initial_frame,
    synthesize,
)
from .curve import (
    ArcLengthCurve,
    MappedCurve,
    ClassificationReport,
    Curve,
    ReparametrizedCurve,
    SampledCurve,
    SplineCurve,
    chebyshev_grid,
    classify,
    pseudo_arc_reparam,
    require_family,
)
from .errors import (
    ClassificationError,
    DegenerateBasisError,
    DimensionMismatchError,
    ExprEvaluationError,
    ExprSyntaxError,
    FamilyError,
    FrameDegeneracyError,
    HypothesisError,
    InputError,
    NullCartanError,
    SingularRecursionError,
    StepSizeError,
)
from .expr import Jet, VecJet, jet_eval, parse
from .frame import (
    Frame,
    FrenetResidualReport,
    cartan_frame_at,
    frame_jets,
    frenet_residuals,
)
from .metric import (
    PseudoMetric,
    SequenceReport,
    SubspaceProfile,
    family_nullity_sequence,
)

__version__ = "0.1.0"
