"""Indiscernible-predecessor primitive counting and the discernibility square."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from roughwork.opposition import Figure, pair_figures

CLOSURE_MODES = ("equivalence", "reflexive-transitive")

# The worked counting example, the defaults of ``count ipc``.
IPC_SEQUENCE = tuple("fbcakinhelgm")
IPC_PAIRS = (("a", "b"), ("b", "c"), ("e", "f"), ("i", "k"), ("l", "m"), ("m", "n"), ("g", "h"))


class UnknownElementError(KeyError):
    """A pair or sequence mentions an element outside the carrier."""


def _check_known(elements, *items) -> None:
    for item in items:
        if item not in elements:
            raise UnknownElementError(f"unknown element {item!r}")


@dataclass(frozen=True)
class IndiscernibilityRelation:
    """Materialized closure of the generating pairs."""

    elements: tuple
    mode: str
    related: frozenset

    def holds(self, a, b) -> bool:
        _check_known(self.elements, a, b)
        return (a, b) in self.related


def close(
    elements: Iterable,
    pairs: Iterable[tuple],
    mode: str = "equivalence",
) -> IndiscernibilityRelation:
    """Reflexive-transitive closure; equivalence mode adds symmetry."""
    elements = tuple(elements)
    if mode not in CLOSURE_MODES:
        raise ValueError(f"closure mode must be one of {CLOSURE_MODES}")
    succ = {x: {x} for x in elements}
    for a, b in pairs:
        _check_known(succ, a, b)
        succ[a].add(b)
        if mode == "equivalence":
            succ[b].add(a)
    for k in elements:
        for i in elements:
            if k in succ[i]:
                succ[i] |= succ[k]
    related = frozenset((a, b) for a in elements for b in succ[a])
    return IndiscernibilityRelation(elements, mode, related)


@dataclass(frozen=True, order=True)
class CountTag:
    """The tag r_j: the r-th successor step inside block j."""

    block: int
    value: int

    def __post_init__(self):
        if self.value < 1 or self.block < 1:
            raise ValueError("count tags start at 1_1")

    def __str__(self) -> str:
        return f"{self.value}_{self.block}"

    @classmethod
    def parse(cls, text: str) -> CountTag:
        value, _, block = text.partition("_")
        return cls(value=int(value), block=int(block))


def ipc(sequence: Sequence, rel: IndiscernibilityRelation) -> list[CountTag]:
    """Count the sequence by the three predecessor rules.

    The first element gets 1_1. A successor related to its immediate
    predecessor opens the next block at 1; an unrelated successor
    steps the value inside the current block.
    """
    tags: list[CountTag] = []
    previous = None
    for item in sequence:
        _check_known(rel.elements, item)
        if previous is None:
            tags.append(CountTag(block=1, value=1))
        elif (previous, item) in rel.related:
            tags.append(CountTag(block=tags[-1].block + 1, value=1))
        else:
            tags.append(CountTag(block=tags[-1].block, value=tags[-1].value + 1))
        previous = item
    return tags


SQUARE_PREDICATES = ("IS", "IS.NOT", "IND", "DIS")


@dataclass(frozen=True)
class DiscernibilitySquare:
    """The four pair predicates plus their pairwise opposition figures."""

    elements: tuple
    extents: Mapping[str, frozenset]
    figures: Mapping[tuple[str, str], Figure]

    def __post_init__(self):
        assert self.extents["IS"] <= self.extents["IND"]
        assert self.extents["DIS"] <= self.extents["IS.NOT"]

    def holds(self, predicate: str, a, b) -> bool:
        _check_known(self.elements, a, b)
        return (a, b) in self.extents[predicate]

    def figure_of(self, p: str, q: str) -> Figure:
        return self.figures[(p, q)] if (p, q) in self.figures else self.figures[(q, p)]


def discernibility_square(rel: IndiscernibilityRelation) -> DiscernibilitySquare:
    """Evaluate the four predicates over all ordered element pairs."""
    worlds = frozenset((a, b) for a in rel.elements for b in rel.elements)
    identity = frozenset((a, a) for a in rel.elements)
    extents = {
        "IS": identity,
        "IS.NOT": worlds - identity,
        "IND": frozenset(rel.related),
        "DIS": worlds - rel.related,
    }
    return DiscernibilitySquare(rel.elements, extents, pair_figures(extents, worlds))
