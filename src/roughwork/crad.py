"""Dialectical pair carrier built over the mixed algebra.

K holds every subset twinned with its rough class, in both component
orders; membership asks the class whether it holds the subset, which
reads ``space.masks``, so no query builds K or the quotient carrier.
The binary operations are partial: a componentwise value only counts
when the pair lands back in K, and mixed-orientation cases are gated by
an explicit side condition that is checked first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from roughwork.approx import Labels, Subset
from roughwork.cera import CeraModel, MixedElement, UndefinedOperationError


class UndefinedResultError(UndefinedOperationError):
    """A partial pair operation has no value; carries the failed condition."""

    def __init__(self, condition: str):
        super().__init__(f"undefined result: {condition}")
        self.condition = condition


@dataclass(frozen=True)
class DialecticalPair:
    """Ordered pair of mixed elements; valid ones live in a model's K."""

    first: MixedElement
    second: MixedElement

    def describe(self) -> str:
        return f"({self.first.describe()}, {self.second.describe()})"

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"


class CradModel:
    """K with its partial operations, parthood, and constants; K is listed on demand."""

    def __init__(self, cera: CeraModel):
        self.cera = cera
        self.top_pair = DialecticalPair(cera.top, cera.one)
        self.one_pair = DialecticalPair(cera.one, cera.top)
        self.zero_pair = DialecticalPair(cera.zero, cera.bottom)
        self.bottom_pair = DialecticalPair(cera.bottom, cera.zero)
        constants = (self.top_pair, self.one_pair, self.zero_pair, self.bottom_pair)
        assert all(map(self.contains, constants))

    @cached_property
    def carrier(self) -> tuple[DialecticalPair, ...]:
        return tuple(self.labels())

    def labels(self) -> Labels:
        """K, each pair built when indexed: every first_pair(x), then every second_pair(x)."""
        return Labels(range(2 * len(self.cera.space.universe.labels())), self.pair)

    def pair(self, i: int) -> DialecticalPair:
        """Pair i of ``labels()``, from elements of the mixed carrier."""
        cera, size = self.cera, len(self.cera.space.masks.lower)
        x = cera.element(i % size)
        c = cera.element(size + cera.space.masks.class_id.item(i % size))
        return DialecticalPair(x, c) if i < size else DialecticalPair(c, x)

    def class_ids(self) -> np.ndarray:
        """The class index of each pair of ``labels()``: that of its subset."""
        return np.tile(self.cera.space.masks.class_id, 2)

    def first_pair(self, x: Subset) -> DialecticalPair:
        """The subset-first element (x, 0 (+) x) of K."""
        el = MixedElement.type1(x)
        return DialecticalPair(el, self.cera.oplus(self.cera.zero, el))

    def second_pair(self, x: Subset) -> DialecticalPair:
        """The class-first element (x (+) 0, x) of K."""
        el = MixedElement.type1(x)
        return DialecticalPair(self.cera.oplus(el, self.cera.zero), el)

    def contains(self, p: DialecticalPair) -> bool:
        """p pairs a subset of the space with its rough class, in either order."""
        a, b = p.first, p.second
        if a.is_type1 == b.is_type1:
            return False
        x, c = (a.payload, b.payload) if a.is_type1 else (b.payload, a.payload)
        space = self.cera.space
        if x.universe != space.universe or c.space != space:
            return False
        return c.contains(x)

    def _require(self, *pairs: DialecticalPair) -> None:
        for p in pairs:
            if not self.contains(p):
                raise ValueError(f"{p} is not in the carrier")

    def _in_k(self, result: DialecticalPair, noun: str) -> DialecticalPair:
        """The result, if it lies in K; a partial operation is undefined otherwise."""
        if not self.contains(result):
            raise UndefinedResultError(f"componentwise {noun} lies outside the carrier")
        return result

    def _combine(self, p, q, op, symbol: str, noun: str) -> DialecticalPair:
        a, b = p.first, p.second
        c, e = q.first, q.second
        if a.is_type1 == c.is_type1:
            return self._in_k(DialecticalPair(op(a, c), op(b, e)), noun)
        if a.is_type1:
            second, target, gate = op(e, a), op(a, c), "(e {0} a) {0} 0 = a {0} c"
        else:
            second, target, gate = op(c, b), op(a, e), "(c {0} b) {0} 0 = a {0} e"
        if op(second, self.cera.zero) != target:
            raise UndefinedResultError(f"{gate.format(symbol)} fails")
        # the aggregation gate already forces membership; the
        # commonality gate does not, so keep the carrier discipline
        return self._in_k(DialecticalPair(target, second), noun)

    def _componentwise(self, p: DialecticalPair, op, noun: str) -> DialecticalPair:
        self._require(p)
        return self._in_k(DialecticalPair(op(p.first), op(p.second)), noun)

    def plus(self, p: DialecticalPair, q: DialecticalPair) -> DialecticalPair:
        self._require(p, q)
        return self._combine(p, q, self.cera.oplus, "(+)", "sum")

    def times(self, p: DialecticalPair, q: DialecticalPair) -> DialecticalPair:
        self._require(p, q)
        return self._combine(p, q, self.cera.commonality, "(.)", "product")

    def l_star(self, p: DialecticalPair) -> DialecticalPair:
        return self._componentwise(p, self.cera.frak_l, "interior")

    def sim_star(self, p: DialecticalPair) -> DialecticalPair:
        return self._componentwise(p, self.cera.sim_neg, "negation")

    def natural_parthood(self, p: DialecticalPair, q: DialecticalPair) -> bool:
        """Componentwise comparison of the classes of the components.

        Both components of a pair in K have the class of its subset, which
        its class component holds, so one comparison decides both.
        """
        self._require(p, q)
        return self.cera.quotient.leq(_class(p), _class(q))


def _class(p: DialecticalPair):
    return (p.first if p.first.is_type2 else p.second).payload
