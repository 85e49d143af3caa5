"""Exact Hopf algebroids over finite base spaces.

Build the convolution algebroid of a finite groupoid acting on a bundle of
rational Lie algebras (with truncated enveloping fibers), or import explicit
structure tables; verify every Hopf-algebroid law exactly; recover primitive
and grouplike structure; and decide the Cartier-Gabriel-Kostant decomposition
through an explicit per-point comparison map.
"""

from .algebroid import (
    AlgebroidElement,
    AxiomCheck,
    AxiomReport,
    ConvolutionAlgebroid,
    FiberTensor,
    HopfAlgebroid,
    TableAlgebroid,
    check_axioms,
)
from .analysis import (
    Analysis,
    DecisionReport,
    GoodPair,
    PrimBasis,
    RoundTripReport,
    SpectralGroupoid,
    ThetaMap,
    analyze,
    build_prim_action,
    build_spectral_groupoid,
    build_theta,
    canonical_good_pair,
    conjugate_by_pair,
    make_good_pair,
    prim_bundle,
    roundtrip,
    solve_grouplikes_at,
    solve_primitives,
)
from .enveloping import UElement
from .errors import (
    AnalysisError,
    CoherenceError,
    DimensionMismatch,
    FinhopfError,
    ModelFormatError,
    NotAGoodPair,
    SizeGuardExceeded,
    SolverIncomplete,
    TruncationOverflow,
)
from .groupoid import (
    BaseFun,
    BaseSpace,
    FiniteGroupoid,
    GroupoidIsomorphism,
    groupoid_isomorphic,
    is_isomorphism,
)
from .liebundle import BundleAction, LieBundle, LieFiber
from .linalg import QMatrix, rational_eigenvalues, rational_roots
from .modelio import (
    MODEL_SCHEMA,
    carrier_from_model,
    load_carrier,
    load_model,
    save_model,
    validate_model,
)
from .models import build_model, funs3_model, pairh3_model, random_model, z2line_model
from .rationals import rat, rat_str

__version__ = "0.1.0"

__all__ = [
    "AlgebroidElement",
    "Analysis",
    "AnalysisError",
    "AxiomCheck",
    "AxiomReport",
    "BaseFun",
    "BaseSpace",
    "BundleAction",
    "CoherenceError",
    "ConvolutionAlgebroid",
    "DecisionReport",
    "DimensionMismatch",
    "FiberTensor",
    "FiniteGroupoid",
    "FinhopfError",
    "GoodPair",
    "GroupoidIsomorphism",
    "HopfAlgebroid",
    "LieBundle",
    "LieFiber",
    "MODEL_SCHEMA",
    "ModelFormatError",
    "NotAGoodPair",
    "PrimBasis",
    "QMatrix",
    "RoundTripReport",
    "SizeGuardExceeded",
    "SolverIncomplete",
    "SpectralGroupoid",
    "TableAlgebroid",
    "ThetaMap",
    "TruncationOverflow",
    "UElement",
    "analyze",
    "build_model",
    "build_prim_action",
    "build_spectral_groupoid",
    "build_theta",
    "canonical_good_pair",
    "carrier_from_model",
    "check_axioms",
    "conjugate_by_pair",
    "funs3_model",
    "groupoid_isomorphic",
    "is_isomorphism",
    "load_carrier",
    "load_model",
    "make_good_pair",
    "pairh3_model",
    "prim_bundle",
    "random_model",
    "rat",
    "rat_str",
    "rational_eigenvalues",
    "rational_roots",
    "roundtrip",
    "save_model",
    "solve_grouplikes_at",
    "solve_primitives",
    "validate_model",
    "z2line_model",
]
