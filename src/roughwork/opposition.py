"""Figures of opposition over finite case spaces.

Classification runs off the two simultaneity questions (can the pair be
true together, false together), with Belnap-style (t, f) world
valuations underneath so that gluts are representable. The reference
catalog is shipped as immutable data, and the truth-grade machine walks
the eight-node figure of weak and strong truths.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

from roughwork.approx import ApproximationSpace, Subset


class NonClassicalValuationError(ValueError):
    """A sentence carries a glut or gap where two-valuedness is required."""


class MissingAnnotationError(KeyError):
    """A dialectical pattern was requested without its annotation."""


class DegeneratePartitionWarning(UserWarning):
    """One of the three hexagon regions is empty."""


class Figure(Enum):
    CONTRADICTION = "Contradiction"
    CONTRARIETY = "Contrariety"
    SUB_CONTRARIETY = "SubContrariety"
    SUB_ALTERNATION = "SubAlternation"


def classify_from_questions(tt_possible: bool, ff_possible: bool) -> Figure:
    """Read the figure off the two answers; a total bijection."""
    if tt_possible:
        return Figure.SUB_ALTERNATION if ff_possible else Figure.SUB_CONTRARIETY
    return Figure.CONTRARIETY if ff_possible else Figure.CONTRADICTION


def figure_of(a, b, every) -> Figure:
    """The figure of two classical sentences from their extents, frozensets of
    worlds or int masks, with ``every`` all worlds: true together iff ``a & b``
    is nonempty, false together iff ``a | b`` is not ``every``."""
    return classify_from_questions(bool(a & b), (a | b) != every)


def pair_figures(extents: Mapping, every) -> dict:
    """The figure of each pair of sentences named in ``extents``, keyed
    (p, q) in the order ``extents`` lists them, by ``figure_of``."""
    return {(p, q): figure_of(extents[p], extents[q], every) for p, q in combinations(extents, 2)}


@dataclass(frozen=True)
class CaseSpace:
    """Worlds with a (t, f) valuation for every sentence at every world."""

    worlds: tuple
    valuation: Mapping

    def __post_init__(self):
        if not self.worlds:
            raise ValueError("a case space needs at least one world")
        for i, w in enumerate(self.worlds):
            if w in self.worlds[:i]:
                raise ValueError(f"world {w!r} listed twice")
        for sentence, per_world in self.valuation.items():
            for w in per_world:
                if w not in self.worlds:
                    raise ValueError(f"sentence {sentence!r} valued at unlisted world {w!r}")
            for w in self.worlds:
                if w not in per_world:
                    raise ValueError(f"sentence {sentence!r} unvalued at {w!r}")
                pair = per_world[w]
                shaped = isinstance(pair, Sequence) and len(pair) == 2
                if not shaped or not all(isinstance(v, (bool, int)) and v in (0, 1) for v in pair):
                    raise ValueError("valuations must be (t, f) bit pairs")

    @classmethod
    def from_sets(cls, worlds: Sequence, extents: Mapping) -> CaseSpace:
        """Classical valuation: t iff the world lies in the sentence's extent."""
        worlds = tuple(worlds)
        valuation = {
            name: {w: (w in extent, w not in extent) for w in worlds}
            for name, extent in extents.items()
        }
        return cls(worlds, valuation)

    def pair(self, sentence, world) -> tuple[bool, bool]:
        try:
            t, f = self.valuation[sentence][world]
        except KeyError as exc:
            raise KeyError(f"no valuation for {sentence!r} at {world!r}") from exc
        return bool(t), bool(f)

    def extent(self, sentence, bit: int, worlds: Iterable | None = None) -> frozenset:
        """Worlds of ``worlds`` (default all, in order) where bit 0 (t) or bit 1 (f) is set."""
        worlds = self.worlds if worlds is None else worlds
        return frozenset(w for w in worlds if self.pair(sentence, w)[bit])

    def is_classical(self, sentence) -> bool:
        return all(
            self.pair(sentence, w) in ((True, False), (False, True))
            for w in self.worlds
        )


@dataclass(frozen=True)
class PairClassification:
    figure: Figure
    tt_possible: bool
    ff_possible: bool
    row_profile: Mapping[str, str]


def classify_pair(
    cs: CaseSpace, a, b, classical: bool = True
) -> PairClassification:
    """Answer the simultaneity questions for a sentence pair.

    The row profile marks each of TT/TF/FT/FF as realized ("T") or not
    ("NP") so it can be laid beside the four classical row patterns.
    """
    if classical:
        for s in (a, b):
            if not cs.is_classical(s):
                raise NonClassicalValuationError(
                    f"sentence {s!r} is not two-valued in this case space"
                )
    ta, tb = cs.extent(a, 0), cs.extent(b, 0)
    every = frozenset(cs.worlds)
    row = {"TT": ta & tb, "TF": ta - tb, "FT": tb - ta, "FF": every - ta - tb}
    profile = {k: ("T" if v else "NP") for k, v in row.items()}
    tt, ff = bool(row["TT"]), bool(row["FF"])
    return PairClassification(classify_from_questions(tt, ff), tt, ff, profile)


HEXAGON_NODE_ORDER = ("L", "B", "E", "U", "Lc", "LE")


@dataclass(frozen=True)
class HexagonReport:
    nodes: Mapping[str, Subset]
    figures: Mapping[tuple[str, str], Figure]
    degenerate: tuple[str, ...]

    def figure_of(self, a: str, b: str) -> Figure:
        return self.figures[(a, b)] if (a, b) in self.figures else self.figures[(b, a)]


def hexagon(space: ApproximationSpace, x: Subset) -> HexagonReport:
    """Classify the six membership sentences induced by an approximation.

    Nodes: lower L, boundary B, exterior E, upper U, the complement of
    L, and L with E adjoined. Worlds are the universe elements. Empty
    L, B, or E regions are flagged as a degenerate partition.
    """
    lower = space.lower(x)
    upper = space.upper(x)
    regions = {
        "L": lower,
        "B": upper - lower,
        "E": upper.complement(),
        "U": upper,
        "Lc": lower.complement(),
        "LE": lower | upper.complement(),
    }
    degenerate = tuple(name for name in ("L", "B", "E") if regions[name].is_empty)
    if degenerate:
        warnings.warn(
            f"empty region(s): {', '.join(degenerate)}",
            DegeneratePartitionWarning,
            stacklevel=2,
        )
    figures = pair_figures({k: r.mask for k, r in regions.items()}, space.universe.full.mask)
    return HexagonReport(nodes=regions, figures=figures, degenerate=degenerate)


@dataclass(frozen=True)
class ReferenceTable:
    """One transcribed catalog entry; rows are (left, right, entry)."""

    name: str
    kind: str
    left: str
    right: str
    rows: tuple[tuple[str, str, str], ...]
    label: str


# The value patterns each kind of table has a row for, in row order.
_PATTERNS = {
    "resolution": (("T", "T"), ("T", "F"), ("F", "T"), ("F", "F")),
    "simultaneity": (("T", "T"), ("F", "F")),
}


def _table(kind, left, right, entries, label) -> ReferenceTable:
    rows = tuple((a, b, e) for (a, b), e in zip(_PATTERNS[kind], entries))
    return ReferenceTable(
        name=f"{left}/{right} {kind}",
        kind=kind,
        left=left,
        right=right,
        rows=rows,
        label=label,
    )


_REFERENCE_TABLES = (
    _table("resolution", "AP", "APN", ("IN", "T", "T", "IN"), "Contradiction?"),
    _table("resolution", "AP", "AP0", ("IN", "T", "T", "IN"), "Contradiction?"),
    _table("resolution", "CP", "CPN", ("NP", "T", "T", "NP"), "Contradiction"),
    _table("resolution", "CP", "CP0", ("NP", "T", "T", "T"), "Contrariety"),
    _table("resolution", "CPN", "CP0", ("NP", "T", "T", "NP"), "Contradiction"),
    _table("resolution", "CI", "CP", ("T", "NP", "T", "T"), "Sub-alternation"),
    _table("simultaneity", "AP", "APN", ("NP", "NP"), "Contradiction"),
    _table("simultaneity", "AP", "AP0", ("T", "NP"), "Sub-Contrariety"),
    _table("simultaneity", "CP", "CPN", ("NP", "NP"), "Contradiction"),
    _table("simultaneity", "CP", "CP0", ("NP", "NP"), "Contradiction"),
    _table("simultaneity", "CPN", "CP0", ("NP", "NP"), "Contradiction"),
    _table("simultaneity", "CI", "CP", ("T", "T"), "Sub-alternation"),
)


def reference_tables() -> tuple[ReferenceTable, ...]:
    return _REFERENCE_TABLES


@dataclass(frozen=True)
class JointConsistencyResult:
    satisfiable: bool
    model: Mapping[str, bool] | None
    assignments_checked: int


def joint_consistency(tables: Iterable[ReferenceTable]) -> JointConsistencyResult:
    """Search for one truth assignment respecting every NP constraint.

    A row marked NP forbids the corresponding value combination; T and
    IN rows permit it. The search is exhaustive over the predicate
    family, so an unsatisfiable answer is a proof of emptiness.
    """
    tables = tuple(tables)
    names = list(dict.fromkeys(p for t in tables for p in (t.left, t.right)))
    forbidden = [
        (t.left, t.right, a == "T", b == "T")
        for t in tables for a, b, entry in t.rows if entry == "NP"
    ]
    for checked, values in enumerate(product((True, False), repeat=len(names)), 1):
        model = dict(zip(names, values))
        if not any(model[p] == pv and model[q] == qv for p, q, pv, qv in forbidden):
            return JointConsistencyResult(True, model, checked)
    return JointConsistencyResult(False, None, 1 << len(names))


COMBINATION_PATTERNS = (
    ("T", "T"),
    ("F", "F"),
    ("bet", "bet"),
    ("delta", "delta"),
    ("delta", "bet"),
    ("beta", "beta"),
    ("beta", "bet"),
    ("beta", "T"),
    ("beta", "F"),
    ("delta", "T"),
    ("delta", "F"),
    ("delta", "beta"),
)


def combination_profile(
    cs: CaseSpace,
    a,
    b,
    beta: Mapping | None = None,
    bet: Mapping | None = None,
) -> frozenset[str]:
    """Which of the twelve column patterns are realized in some world.

    A label T demands the t bit, F the f bit, delta both; beta and bet
    additionally demand the annotated statement to be at-least-true in
    that world. Patterns whose annotation was not supplied are left out
    of the scan entirely; a supplied annotation missing the relevant
    sentence or pair raises.
    """

    def annotated_beta(s) -> bool:
        if s not in beta:
            raise MissingAnnotationError(f"beta annotation missing for {s!r}")
        return bool(beta[s])

    def annotated_bet() -> bool:
        for key in ((a, b), (b, a)):
            if key in bet:
                return bool(bet[key])
        raise MissingAnnotationError(f"bet annotation missing for {(a, b)!r}")

    def extent(label: str, s, worlds) -> frozenset:
        if label == "F":
            return cs.extent(s, 1, worlds)
        t = cs.extent(s, 0, worlds)  # an unvalued sentence raises before its annotation is read
        if label == "delta":
            return t & cs.extent(s, 1, worlds)
        if label == "T" or (annotated_beta(s) if label == "beta" else annotated_bet()):
            return t
        return frozenset()

    realized = set()
    for la, lb in COMBINATION_PATTERNS:
        if beta is None and "beta" in (la, lb):
            continue
        if bet is None and "bet" in (la, lb):
            continue
        # the right label is read only where the left holds, as a world-by-world scan reads it
        left = extent(la, a, cs.worlds)
        if left and extent(lb, b, [w for w in cs.worlds if w in left]):
            realized.add(f"{la}/{lb}")
    return frozenset(realized)


class TruthGrade(Enum):
    T_STAR = "T*"
    T_LOW_STAR = "T_*"
    TRUE = "T"
    T_MINUS = "T^-"
    T_LOW_MINUS = "T_-"
    F_MINUS = "F^-"
    F_LOW_MINUS = "F_-"
    FALSE = "F"

    @classmethod
    def from_name(cls, text: str) -> TruthGrade:
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"unknown truth grade {text!r}")


# directed edges point from stronger truth toward falsity
TSR_EDGES = (
    (TruthGrade.T_STAR, TruthGrade.T_LOW_STAR),
    (TruthGrade.T_LOW_STAR, TruthGrade.TRUE),
    (TruthGrade.TRUE, TruthGrade.F_MINUS),
    (TruthGrade.F_MINUS, TruthGrade.F_LOW_MINUS),
    (TruthGrade.F_LOW_MINUS, TruthGrade.FALSE),
    (TruthGrade.TRUE, TruthGrade.T_MINUS),
    (TruthGrade.T_MINUS, TruthGrade.T_LOW_MINUS),
    (TruthGrade.T_LOW_MINUS, TruthGrade.FALSE),
)

BRANCH_POLICIES = ("weak-falsity", "weak-truth")


def tsr_step(
    grade: TruthGrade,
    evidence: str,
    branch_policy: str = "weak-falsity",
) -> TruthGrade:
    """Move one grade along (oppose) or against (support) the edges.

    The walk branches when opposing at T and when supporting at F; the
    policy picks the falsity-side chain by default. Steps saturate at
    the endpoints.
    """
    if evidence not in ("support", "oppose"):
        raise ValueError(f"evidence must be support or oppose, got {evidence!r}")
    if branch_policy not in BRANCH_POLICIES:
        raise ValueError(f"unknown branch policy {branch_policy!r}")
    edges = TSR_EDGES if evidence == "oppose" else [(b, a) for a, b in TSR_EDGES]
    steps = [b for a, b in edges if a is grade]
    if not steps:
        return grade
    # at a branch the falsity-side edge is listed first, as in BRANCH_POLICIES
    return steps[BRANCH_POLICIES.index(branch_policy)] if len(steps) > 1 else steps[0]


def tsr_walk(
    start: TruthGrade,
    evidence: Iterable[str],
    branch_policy: str = "weak-falsity",
) -> list[TruthGrade]:
    """Trace of grades visited, starting point included."""
    trace = [start]
    for item in evidence:
        trace.append(tsr_step(trace[-1], item, branch_policy))
    return trace
