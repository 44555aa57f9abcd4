"""Workbench for finite rough-set approximation spaces and their algebras."""

from roughwork.approx import (
    ApproximationSpace,
    ApproxTriple,
    RoughClass,
    SpaceMismatchError,
    Subset,
    Universe,
    UniverseMismatchError,
    UnknownAtomError,
)
from roughwork.cera import CeraModel, MixedElement, UndefinedOperationError
from roughwork.counting import CountTag, IndiscernibilityRelation, close, ipc
from roughwork.crad import CradModel, DialecticalPair, UndefinedResultError
from roughwork.granular import (
    GranularModel,
    OperatorTable,
    check_admissibility,
    check_gos_axioms,
    search_admissible_granulations,
)
from roughwork.model_io import LoadedModel, ModelFormatError, load_model
from roughwork.negation import (
    BoundedPoset,
    NegationProfile,
    UnaryOp,
    check_negation,
    falsify_theorem,
)
from roughwork.opposition import (
    CaseSpace,
    Figure,
    classify_from_questions,
    classify_pair,
    hexagon,
    joint_consistency,
    reference_tables,
)
from roughwork.parthood import ParthoodKind, analyze, holds
from roughwork.prerough import (
    FiniteAlgebraCandidate,
    QuotientAlgebra,
    check_essential_pre_rough,
    check_pre_rough,
    quotient_algebra,
)
from roughwork.propsys import PropertySystem

__all__ = [
    "ApproximationSpace",
    "ApproxTriple",
    "BoundedPoset",
    "CaseSpace",
    "CeraModel",
    "CountTag",
    "CradModel",
    "DialecticalPair",
    "Figure",
    "FiniteAlgebraCandidate",
    "GranularModel",
    "IndiscernibilityRelation",
    "LoadedModel",
    "MixedElement",
    "ModelFormatError",
    "NegationProfile",
    "OperatorTable",
    "ParthoodKind",
    "PropertySystem",
    "QuotientAlgebra",
    "RoughClass",
    "SpaceMismatchError",
    "Subset",
    "UnaryOp",
    "UndefinedOperationError",
    "UndefinedResultError",
    "Universe",
    "UniverseMismatchError",
    "UnknownAtomError",
    "analyze",
    "check_admissibility",
    "check_essential_pre_rough",
    "check_gos_axioms",
    "check_negation",
    "check_pre_rough",
    "classify_from_questions",
    "classify_pair",
    "close",
    "falsify_theorem",
    "hexagon",
    "holds",
    "ipc",
    "joint_consistency",
    "load_model",
    "quotient_algebra",
    "reference_tables",
    "search_admissible_granulations",
]

__version__ = "0.1.0"
