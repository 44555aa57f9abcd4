"""Workbench for finite rough-set approximation spaces and their algebras."""

from types import ModuleType as _ModuleType

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

# Every public name bound above; importing a submodule binds its name here too.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"
