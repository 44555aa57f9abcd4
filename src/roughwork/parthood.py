"""Parthood catalog over subsets, mixed elements, and dialectical pairs.

Each kind is tied to the carrier its defining condition speaks about:
the bound-based and granule-based kinds compare plain subsets, the
algebraic kinds compare mixed elements, and the natural kind compares
dialectical pairs.  Each bound-based kind is one mask expression, which
``holds`` evaluates on one pair of subsets and ``relation_matrix`` on the
bound tables of every subset at once; the algebraic and natural matrices
index the mixed tables and the quotient order; the g-simple matrix
compares granule codes.  Order-theoretic structure is decided by
exhaustive scan on one thread (transitivity ORs bit-packed rows: BLAS
worker threads outlive a product) and reported with witnesses; the
carrier is labels, so only a witness's elements are ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import numpy as np

from roughwork.approx import ApproximationSpace, Labels, RoughClass, Subset, check_cap
from roughwork.approx import CapExceededError as CarrierCapExceededError  # raised past a cap
from roughwork.cera import CeraModel, MixedElement
from roughwork.crad import CradModel, DialecticalPair
from roughwork.granular import (
    AxiomCheck, GranularModel, _mask_tables, first_violation, relation_square
)

MATRIX_CAP = 1024


class ParthoodKind(Enum):
    VERY_CAUTIOUS = "very-cautious"
    CAUTIOUS = "cautious"
    LATERAL = "lateral"
    POSSIBILIST = "possibilist"
    ULTRA_CAUTIOUS = "ultra-cautious"
    LATERAL_PLUS = "lateral-plus"
    BILATERAL = "bilateral"
    LATERAL_PLUS_PLUS = "lateral-plus-plus"
    G_SIMPLE = "g-simple"
    ROUGHLY_CONSISTENT = "roughly-consistent"
    ADDITIVE = "additive"
    COMMON = "common"
    NATURAL_CRAD = "natural-crad"

    @classmethod
    def from_name(cls, name: str) -> ParthoodKind:
        for kind in cls:
            if kind.value == name:
                return kind
        known = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown parthood kind {name!r}; expected one of {known}")


# The condition of each bound-based kind on the lower and upper bounds of
# a and b, as masks: Python ints for one pair, arrays for a whole matrix.
_BOUND_CONDITIONS = {
    ParthoodKind.VERY_CAUTIOUS: lambda la, ua, lb, ub: la & ~lb == 0,
    ParthoodKind.CAUTIOUS: lambda la, ua, lb, ub: la & ~ub == 0,
    ParthoodKind.LATERAL: lambda la, ua, lb, ub: la & ~(ub & ~lb) == 0,
    ParthoodKind.POSSIBILIST: lambda la, ua, lb, ub: ua & ~ub == 0,
    ParthoodKind.ULTRA_CAUTIOUS: lambda la, ua, lb, ub: ua & ~lb == 0,
    ParthoodKind.LATERAL_PLUS: lambda la, ua, lb, ub: ua & ~(ub & ~lb) == 0,
    ParthoodKind.BILATERAL: lambda la, ua, lb, ub: ua & ~la & ~(ub & ~lb) == 0,
    ParthoodKind.LATERAL_PLUS_PLUS: lambda la, ua, lb, ub: ua & ~la & ~lb == 0,
}
SUBSET_KINDS = frozenset(_BOUND_CONDITIONS) | {ParthoodKind.G_SIMPLE}
MIXED_KINDS = frozenset(
    {ParthoodKind.ROUGHLY_CONSISTENT, ParthoodKind.ADDITIVE, ParthoodKind.COMMON}
)


@dataclass(frozen=True)
class RelationReport:
    reflexive: AxiomCheck
    transitive: AxiomCheck
    antisymmetric: AxiomCheck


def _class_of(model: CeraModel, el: MixedElement) -> RoughClass:
    if el.is_type2:
        return el.payload
    return model.space.rough_class_of(el.payload)


def holds(kind: ParthoodKind, model, a, b) -> bool:
    """Evaluate the defining condition of one parthood kind."""
    if kind in SUBSET_KINDS and not (isinstance(a, Subset) and isinstance(b, Subset)):
        raise TypeError(f"{kind.value} parthood compares plain subsets")
    _carrier(kind, model)  # raises TypeError unless the model suits the kind
    if kind is ParthoodKind.G_SIMPLE:
        return all(
            g.is_subset_of(b)
            for g in model.granules
            if g.is_subset_of(a)
        )
    if kind in SUBSET_KINDS:
        lower, upper = model.lower, model.upper
        return _BOUND_CONDITIONS[kind](
            lower(a).mask, upper(a).mask, lower(b).mask, upper(b).mask
        )
    if kind in MIXED_KINDS:
        if not (isinstance(a, MixedElement) and isinstance(b, MixedElement)):
            raise TypeError(f"{kind.value} parthood compares mixed elements")
        if kind is ParthoodKind.ROUGHLY_CONSISTENT:
            return model.quotient.leq(_class_of(model, a), _class_of(model, b))
        if kind is ParthoodKind.ADDITIVE:
            return model.oplus(a, b) == b
        return model.commonality(a, b) == a
    if not (isinstance(a, DialecticalPair) and isinstance(b, DialecticalPair)):
        raise TypeError("natural parthood compares dialectical pairs")
    return model.natural_parthood(a, b)


def _carrier(kind: ParthoodKind, model) -> Labels:
    """The carrier the kind quantifies over, as labels."""
    if kind in SUBSET_KINDS:
        if kind is ParthoodKind.G_SIMPLE and not isinstance(model, GranularModel):
            raise TypeError("g-simple parthood needs a granular model")
        if isinstance(model, (GranularModel, ApproximationSpace)):
            return model.universe.labels()
        raise TypeError(
            "subset parthoods need an approximation space or granular model,"
            f" got {model!r}"
        )
    if kind in MIXED_KINDS:
        if not isinstance(model, CeraModel):
            raise TypeError(f"{kind.value} parthood needs the mixed algebra")
        return model.labels()
    if not isinstance(model, CradModel):
        raise TypeError("natural parthood needs the dialectical pair model")
    return model.labels()


def relation_matrix(
    kind: ParthoodKind, model, cap: int = MATRIX_CAP
) -> tuple[Labels, np.ndarray]:
    """The carrier of the kind, as labels, and its relation as a boolean matrix.

    The matrix needs only the carrier size and the model's tables, and the
    cap is checked first; label i builds element i of the carrier, in the
    order the witnesses of ``analyze`` follow.
    """
    elements = _carrier(kind, model)
    check_cap(elements, cap, "carrier of size {size} exceeds the matrix cap {cap}")
    r = np.arange(len(elements))
    if kind is ParthoodKind.G_SIMPLE:
        granules = np.array([g.mask for g in model.granules])[:, None]
        codes = np.packbits(granules & ~r == 0, axis=0)
        return elements, ~(codes[:, :, None] & ~codes[:, None, :]).any(axis=0)
    if kind in SUBSET_KINDS:
        if isinstance(model, GranularModel):
            _, lower, upper = _mask_tables(model.universe, model.lower_op, model.upper_op)
        else:
            lower, upper = model.masks[:2]
        condition = _BOUND_CONDITIONS[kind]
        return elements, condition(lower[:, None], upper[:, None], lower, upper)
    if kind is ParthoodKind.ADDITIVE:
        return elements, model.table("oplus") == r
    if kind is ParthoodKind.COMMON:
        return elements, model.table("commonality") == r[:, None]
    # roughly consistent and natural parthood compare the classes of the elements
    quotient = model.quotient if kind in MIXED_KINDS else model.cera.quotient
    classes = model.class_ids()
    return elements, quotient.leq_matrix()[classes][:, classes]


def analyze(kind: ParthoodKind, model, cap: int = MATRIX_CAP) -> RelationReport:
    """Decide reflexivity, transitivity, and antisymmetry exhaustively."""
    elements, m = relation_matrix(kind, model, cap)

    reflexive = AxiomCheck.of(first_violation(~np.diagonal(m), (elements,)))

    unclosed = relation_square(m) > m
    i, k = np.unravel_index(unclosed.argmax(), unclosed.shape)
    j = (m[i] & m[:, k]).argmax()
    transitive = AxiomCheck.of((elements[i], elements[j], elements[k]) if unclosed.any() else None)

    sym = m & m.T
    np.fill_diagonal(sym, False)
    antisymmetric = AxiomCheck.of(first_violation(sym, (elements, elements)))
    return RelationReport(reflexive, transitive, antisymmetric)
