"""The nested-loop law checkers, kept as oracles for the table sweeps.

These are the scans that ``prerough``, ``granular`` and ``negation`` ran
before their laws became index expressions over operation tables.  They
call one Python predicate per cell, in nested-loop order, and stop at the
first violation; ``test_differential.py`` asserts that the table sweeps
report the same status and the same first witness for every law.

The granulation search and admissibility check that tested every family
whole, through the signature groups of the generated field, are kept
here too, with the brute-force closure of that field.

So are the object fills that built whole-carrier tables one operation
call per cell, before those tables became index expressions over a
space's ``BoundMasks``: the rough classes, the quotient candidate, the
mixed tables of the identity suite, the parthood relation matrices with
the bound kinds on ``Subset`` operations, and the maximal antichains of
the quotient order.

And so are the bounded poset that stored its order, meet and join as
lists of lists, filled by one scan per cell, the quotient implication
composed from five other quotient operations, the quotient possibility
composed as ¬L¬a, and the block scans that decided whether a pair of
bounds is realizable before ``RoughClass`` read ``space.masks``.

And the pair carrier K as ``CradModel`` built it on construction, whole
and as a frozenset, with membership a set lookup; and the pair operations
as ``CradModel`` wrote them before its K gates became one helper, each
gate spelled out where it applies.

And the falsifier as it built its witness map once per claim, before the
claims shared one construction.

And ``BoundedPoset.is_distributive`` as it compared x ∧ (y ∨ z) with
(x ∧ y) ∨ (x ∧ z) one x at a time, before it read the join-irreducible
certificate; and the six same-type ternary identities of the mixed
algebra, one cell at a time, before certificates decided their PASS;
and the identity suite's tag detectors, one ``rightsquig`` and one
``partial_neg`` call per element, before they read the bound masks.

And the lattice enumeration that scanned every upper-triangular relation
and checked transitivity on bit rows before ``BoundedPoset`` checked it
again, with its relabeling key read off those rows; and ``from_pairs`` as
a union-find over atom names, before it merged block masks.

And ``BoundedPoset``'s meet table filled one row at a time, before it
read each meet off packed down-sets, with the order check it made through
the boolean product ``~rel @ rel.T``; and the candidate validation that
checked list tables one entry at a time, before tables became arrays.

And the ternary row laws as the pre-rough base and the mixed identity
suite each built them, with their own intp table copies and certificate
calls, before both took them from ``granular.lattice_laws``.

And the N5 iterate index as tuples of elements, one ``f`` call per value
and one weak comparison per earlier iterate, before it read the index
array of ``f``.

And the quotient order as ``negation check`` built it, a ``BoundedPoset``
from the pairs of ``leq_matrix()`` with the negation as a ``UnaryOp``,
before it read the quotient's own meet, join and negation tables.

And ``cli.main`` as it built a new parser on every call, before it built
its parser once per process.

And each carrier as its readers wrote it out, before each was stated once
by the model that owns it: the 2^n subsets, class j from its bounds, the
mixed carrier of 2^n + classes elements, K of 2·2^n pairs, their sizes
as ``parthood`` counted them, and the class of each mixed element and
pair as ``relation_matrix`` laid it out on 2^n.

And the candidate's derived join and order as ``FiniteAlgebraCandidate``
methods, which only these scans called.

And the figures of opposition read world by world, before each was read
off the extents of its two sentences: the pair classification that keyed
each world TT/TF/FT/FF, the hexagon and the discernibility square that
rebuilt their extents as a ``CaseSpace`` and classified each pair through
it, and the combination profile that tested every pattern at every world
through its label closures.

And the quotient and mixed operations as ``QuotientAlgebra`` and ``CeraModel``
wrote them on objects, one method each, before each became one rule on bounds
that the element method and the table both read.  The oracles that fill whole
tables cell by cell (the quotient candidate, the mixed tables, the tag
detectors) and the composed implication and possibility call these, so no
rule is compared with itself.

And the joint consistency search as it re-read every table's NP rows for
each assignment, before it listed the forbidden rows once per call.
"""

from __future__ import annotations

import operator
import warnings
from functools import partial
from itertools import chain, combinations, permutations, product
from math import comb
from typing import Callable, Iterable, Sequence

import numpy as np

from roughwork import cli, negation
from roughwork.approx import (
    ApproximationSpace,
    BoundMasks,
    RoughClass,
    Subset,
    Universe,
    UniverseMismatchError,
)
from roughwork.cera import CeraModel, MixedElement, UndefinedOperationError
from roughwork.counting import SQUARE_PREDICATES, DiscernibilitySquare, IndiscernibilityRelation
from roughwork.crad import CradModel, DialecticalPair, UndefinedResultError
from roughwork.granular import (
    INCLUSION,
    SEARCH_CANDIDATE_CAP,
    AdmissibilityReport,
    AxiomCheck,
    AxiomReport,
    GranularModel,
    OperatorTable,
    ParthoodPredicate,
    SearchCapExceededError,
    associative,
    distributive,
)
from roughwork.negation import (
    CLAIM_IDS,
    FALSIFY_SIZE_CAP,
    BoundedPoset,
    FalsificationWitness,
    NegationProfile,
    SearchTooLargeError,
    UnaryOp,
    enumerate_distributive_lattices,
)
from roughwork.negation import check_negation as _table_check_negation
from roughwork.opposition import (
    COMBINATION_PATTERNS,
    HEXAGON_NODE_ORDER,
    CaseSpace,
    DegeneratePartitionWarning,
    HexagonReport,
    JointConsistencyResult,
    MissingAnnotationError,
    NonClassicalValuationError,
    PairClassification,
    ReferenceTable,
    classify_from_questions,
)
from roughwork.parthood import (
    MATRIX_CAP,
    MIXED_KINDS,
    SUBSET_KINDS,
    CarrierCapExceededError,
    ParthoodKind,
    carrier_elements,
    holds,
)
from roughwork.prerough import FiniteAlgebraCandidate, QuotientAlgebra


def _scan1(cand: FiniteAlgebraCandidate, ok: Callable[[int], bool]) -> AxiomCheck:
    for a in range(cand.size):
        if not ok(a):
            return AxiomCheck(False, (cand.carrier[a],))
    return AxiomCheck(True)


def _scan2(cand: FiniteAlgebraCandidate, ok: Callable[[int, int], bool]) -> AxiomCheck:
    for a in range(cand.size):
        for b in range(cand.size):
            if not ok(a, b):
                return AxiomCheck(False, (cand.carrier[a], cand.carrier[b]))
    return AxiomCheck(True)


def _scan3(
    cand: FiniteAlgebraCandidate, ok: Callable[[int, int, int], bool]
) -> AxiomCheck:
    for a in range(cand.size):
        for b in range(cand.size):
            for c in range(cand.size):
                if not ok(a, b, c):
                    return AxiomCheck(
                        False, (cand.carrier[a], cand.carrier[b], cand.carrier[c])
                    )
    return AxiomCheck(True)


def _join_of(cand: FiniteAlgebraCandidate, a: int, b: int) -> int:
    """The join table's entry, or the join derived as ¬(¬a ∧ ¬b)."""
    if cand.join is not None:
        return cand.join[a][b]
    return cand.neg[cand.meet[cand.neg[a]][cand.neg[b]]]


def _leq(cand: FiniteAlgebraCandidate, a: int, b: int) -> bool:
    return cand.meet[a][b] == a


def _lattice_base(cand: FiniteAlgebraCandidate) -> dict[str, AxiomCheck]:
    mt, jn = cand.meet.__getitem__, partial(_join_of, cand)
    results = {
        "meet-idempotent": _scan1(cand, lambda a: mt(a)[a] == a),
        "meet-commutative": _scan2(cand, lambda a, b: mt(a)[b] == mt(b)[a]),
        "meet-associative": _scan3(
            cand, lambda a, b, c: mt(mt(a)[b])[c] == mt(a)[mt(b)[c]]
        ),
        "join-idempotent": _scan1(cand, lambda a: jn(a, a) == a),
        "join-commutative": _scan2(cand, lambda a, b: jn(a, b) == jn(b, a)),
        "join-associative": _scan3(
            cand, lambda a, b, c: jn(jn(a, b), c) == jn(a, jn(b, c))
        ),
        "absorption": _scan2(
            cand, lambda a, b: mt(a)[jn(a, b)] == a and jn(a, mt(a)[b]) == a
        ),
        "distributivity": _scan3(
            cand,
            lambda a, b, c: mt(a)[jn(b, c)] == jn(mt(a)[b], mt(a)[c])
            and jn(a, mt(b)[c]) == mt(jn(a, b))[jn(a, c)],
        ),
        "bounds": _scan1(
            cand,
            lambda a: jn(cand.zero, a) == a
            and mt(cand.zero)[a] == cand.zero
            and mt(cand.one)[a] == a
            and jn(cand.one, a) == cand.one,
        ),
        "negation-involution": _scan1(cand, lambda a: cand.neg[cand.neg[a]] == a),
        "negation-de-morgan": _scan2(
            cand,
            lambda a, b: cand.neg[jn(a, b)] == mt(cand.neg[a])[cand.neg[b]]
            and cand.neg[mt(a)[b]] == jn(cand.neg[a], cand.neg[b]),
        ),
    }
    return results


def check_pre_rough(cand: FiniteAlgebraCandidate) -> AxiomReport:
    """Distributive De Morgan lattice plus the modal-operator identities."""
    mt, jn, ng, L = cand.meet.__getitem__, partial(_join_of, cand), cand.neg, cand.necessity
    results = _lattice_base(cand)
    results.update(
        {
            "L-contraction": _scan1(cand, lambda a: mt(L[a])[a] == L[a]),
            "L-join-distribution": _scan2(
                cand, lambda a, b: L[jn(a, b)] == jn(L[a], L[b])
            ),
            "L-possibility-stable": _scan1(
                cand, lambda a: ng[L[ng[L[a]]]] == L[a]
            ),
            "L-idempotence": _scan1(cand, lambda a: L[L[a]] == L[a]),
            "L-top": AxiomCheck(L[cand.one] == cand.one)
            if L[cand.one] == cand.one
            else AxiomCheck(False, (cand.carrier[cand.one],)),
            "L-meet-distribution": _scan2(
                cand, lambda a, b: L[mt(a)[b]] == mt(L[a])[L[b]]
            ),
            "L-excluded-middle": _scan1(
                cand, lambda a: jn(ng[L[a]], L[a]) == cand.one
            ),
            "quasi-equation": _scan2(
                cand,
                lambda a, b: not (
                    mt(L[a])[L[b]] == L[a]
                    and ng[L[ng[mt(a)[b]]]] == ng[L[ng[a]]]
                )
                or mt(a)[b] == a,
            ),
        }
    )
    # On a finite carrier the lattice is complete, so complete
    # distributivity reduces to the plain distributive law.
    results["completely-distributive-finite"] = results["distributivity"]
    return AxiomReport(results)


def check_essential_pre_rough(cand: FiniteAlgebraCandidate) -> AxiomReport:
    """Quasi-Boolean base plus the six defining conditions."""
    mt, ng, L = cand.meet.__getitem__, cand.neg, cand.necessity
    dia = lambda a: ng[L[ng[a]]]
    results = _lattice_base(cand)
    results.update(
        {
            "E1-top": AxiomCheck(True)
            if L[cand.one] == cand.one
            else AxiomCheck(False, (cand.carrier[cand.one],)),
            "E2-contraction": _scan1(cand, lambda a: mt(L[a])[a] == L[a]),
            "E3-meet-distribution": _scan2(
                cand, lambda a, b: L[mt(a)[b]] == mt(L[a])[L[b]]
            ),
            "E4-possibility-stable": _scan1(cand, lambda a: ng[L[ng[L[a]]]] == L[a]),
            "E5-no-contradiction": _scan1(
                cand, lambda a: mt(ng[L[a]])[L[a]] == cand.zero
            ),
            "E6-order-determination": _scan2(
                cand,
                lambda a, b: not (
                    _leq(cand, dia(a), dia(b)) and _leq(cand, L[a], L[b])
                )
                or _leq(cand, a, b),
            ),
        }
    )
    return AxiomReport(results)


def check_gos_axioms(model: GranularModel, strict_upper: bool = False) -> AxiomReport:
    """The defining operator axioms, each with a first-failure witness.

    strict_upper additionally demands a^u to be a proper subset of a^uu,
    matching one printed reading that classical models cannot satisfy.
    """
    u = model.universe
    subsets = list(u.subsets())
    results: dict[str, AxiomCheck] = {}

    def scan(name: str, ok: Callable[[Subset], bool]) -> None:
        for x in subsets:
            if not ok(x):
                results[name] = AxiomCheck(False, (x,))
                return
        results[name] = AxiomCheck(True)

    scan("lower-contraction", lambda x: model.lower(x) <= x)
    scan("lower-idempotence", lambda x: model.lower(model.lower(x)) == model.lower(x))
    scan("upper-expansion", lambda x: x <= model.upper(x))
    if strict_upper:
        scan("upper-strict-expansion", lambda x: model.upper(x) < model.upper(model.upper(x)))
    else:
        scan("upper-weak-expansion", lambda x: model.upper(x) <= model.upper(model.upper(x)))

    def scan_monotone(name: str, op: Callable[[Subset], Subset]) -> None:
        for x in subsets:
            for y in subsets:
                if x <= y and not op(x) <= op(y):
                    results[name] = AxiomCheck(False, (x, y))
                    return
        results[name] = AxiomCheck(True)

    scan_monotone("lower-monotonicity", model.lower)
    scan_monotone("upper-monotonicity", model.upper)

    empty_ok = model.lower(u.empty).is_empty and model.upper(u.empty).is_empty
    results["empty-fixed"] = AxiomCheck(empty_ok, None if empty_ok else (u.empty,))
    top_ok = model.lower(u.full) <= u.full and model.upper(u.full) <= u.full
    results["top-bounded"] = AxiomCheck(top_ok, None if top_ok else (u.full,))
    return AxiomReport(results)


def check_operator_axioms(table: OperatorTable, kind: str) -> AxiomReport:
    """Standalone table discipline: lower-style or upper-style."""
    if kind not in ("lower", "upper"):
        raise ValueError(f"kind must be 'lower' or 'upper', got {kind!r}")
    u = table.universe
    subsets = list(u.subsets())
    results: dict[str, AxiomCheck] = {}

    def scan(name: str, ok: Callable[[Subset], bool]) -> None:
        for x in subsets:
            if not ok(x):
                results[name] = AxiomCheck(False, (x,))
                return
        results[name] = AxiomCheck(True)

    if kind == "lower":
        scan("non-increasing", lambda x: not x < table(x))
        scan("idempotence", lambda x: table(table(x)) == table(x))
    else:
        scan("increasing", lambda x: x <= table(x))
    name = "monotonicity"
    for x in subsets:
        hit = None
        for y in subsets:
            if x <= y and not table(x) <= table(y):
                hit = (x, y)
                break
        if hit:
            results[name] = AxiomCheck(False, hit)
            break
    else:
        results[name] = AxiomCheck(True)
    return AxiomReport(results)


def check_negation(poset: BoundedPoset, f: UnaryOp) -> NegationProfile:
    """Decide N1-N6 and N9 exhaustively; undefined sides never falsify."""
    els = poset.elements
    carrier = set(els)
    for x, fx in f.mapping.items():
        if x not in carrier or fx not in carrier:
            raise ValueError(f"operation leaves the carrier at {x!r}")
    bot = poset.bottom
    results: dict[str, AxiomCheck] = {}

    def first(name: str, violations) -> None:
        witness = next(iter(violations), None)
        results[name] = AxiomCheck(witness is None, witness)

    first(
        "N1",
        (
            (x,)
            for x in els
            if f(x) is not None
            and poset.meet(x, f(x)) is not None
            and poset.meet(x, f(x)) != bot
        ),
    )
    first(
        "N2",
        (
            (x, y)
            for x in els
            for y in els
            if poset.leq(x, y)
            and f(x) is not None
            and f(y) is not None
            and not poset.leq(f(y), f(x))
        ),
    )
    first(
        "N3",
        (
            (x,)
            for x in els
            if f.iterate(x, 2) is not None and not poset.leq(x, f.iterate(x, 2))
        ),
    )
    first(
        "N4",
        (
            (x, y)
            for x in els
            for y in els
            if f(y) is not None
            and poset.leq(x, f(y))
            and f(x) is not None
            and not poset.leq(y, f(x))
        ),
    )
    index = iterate_index(els, f)
    results["N5"] = AxiomCheck(True)

    def n6_violations():
        for x in els:
            for y in els:
                join = poset.join(x, y)
                left = None if join is None else f(join)
                fx, fy = f(x), f(y)
                right = (
                    None
                    if fx is None or fy is None
                    else poset.meet(fx, fy)
                )
                if left is not None and right is not None and left != right:
                    yield (x, y)

    first("N6", n6_violations())

    def n9_violations():
        for x in els:
            fx = f(x)
            if fx is None:
                continue
            for y in els:
                m = poset.meet(x, y)
                disjoint = m is None or m == bot
                if disjoint != poset.leq(y, fx):
                    yield (x, y)

    first("N9", n9_violations())

    m, n = index
    return NegationProfile(AxiomReport(results), index, n, n - m)


def _signature_groups(size: int, granule_masks: Sequence[int]) -> list[int]:
    """Masks of the atom groups sharing a granule-membership signature.

    These groups are the atoms of the field of sets generated by the
    granules, so a subset lies in the field iff it splits no group.
    """
    buckets: dict[tuple[int, ...], int] = {}
    for i in range(size):
        sig = tuple(g >> i & 1 for g in granule_masks)
        buckets[sig] = buckets.get(sig, 0) | (1 << i)
    return list(buckets.values())


def _field_contains(groups: list[int], masks: Iterable[int]) -> bool:
    """Whether every mask splits no signature group, i.e. lies in the field."""
    for m in masks:
        for group in groups:
            inter = m & group
            if inter != 0 and inter != group:
                return False
    return True


def generated_field_masks(universe: Universe, granules: Sequence[Subset]) -> set[int]:
    """The field by brute closure under union, intersection and complement.

    Independent of the signature route; the two must agree everywhere.
    """
    full = universe.full.mask
    masks = {0, full} | {g.mask for g in granules}
    while True:
        fresh = set()
        current = list(masks)
        for i, a in enumerate(current):
            c = a ^ full
            if c not in masks:
                fresh.add(c)
            for b in current[i:]:
                if a | b not in masks:
                    fresh.add(a | b)
                if a & b not in masks:
                    fresh.add(a & b)
        if not fresh:
            return masks
        masks |= fresh


def admissibility_oracle(model: GranularModel) -> AdmissibilityReport:
    """Representability, lower stability, and pairwise full underlap.

    Underlap quantifies over distinct granule pairs; the defining text
    glosses it as every two distinct granules sitting properly inside a
    common definite object, and a one-granule model holds vacuously.
    """
    u = model.universe
    groups = _signature_groups(u.size, [g.mask for g in model.granules])
    wra = AxiomCheck(True)
    for x in u.subsets():
        for out in (model.lower(x), model.upper(x)):
            if not _field_contains(groups, (out.mask,)):
                wra = AxiomCheck(False, (x, out))
                break
        if not wra.passed:
            break

    ls = AxiomCheck(True)
    part = model.parthood
    for g in model.granules:
        for a in u.subsets():
            if part.holds(g, a) and not part.holds(g, model.lower(a)):
                ls = AxiomCheck(False, (g, a))
                break
        if not ls.passed:
            break

    fu = AxiomCheck(True)
    for x, y in combinations(model.granules, 2):
        found = False
        for z in u.subsets():
            if (
                part.proper(x, z)
                and part.proper(y, z)
                and model.lower(z) == z
                and model.upper(z) == z
            ):
                found = True
                break
        if not found:
            fu = AxiomCheck(False, (x, y))
            break
    return AdmissibilityReport(wra=wra, ls=ls, fu=fu)


def search_oracle(
    lower_op: OperatorTable,
    upper_op: OperatorTable,
    max_granules: int,
    parthood: ParthoodPredicate = INCLUSION,
    candidate_cap: int = SEARCH_CANDIDATE_CAP,
) -> list[tuple[Subset, ...]]:
    """All granule families of bounded size admissible for the given tables.

    Families are drawn from nonempty subsets in canonical order, so the
    result order is deterministic.  The candidate count is bounded up
    front; an oversized search raises instead of running forever.
    """
    if max_granules < 1:
        raise ValueError("max_granules must be at least 1")
    if lower_op.universe != upper_op.universe:
        raise UniverseMismatchError("operator tables over different universes")
    universe = lower_op.universe
    pool_size = (1 << universe.size) - 1
    total = sum(comb(pool_size, k) for k in range(1, max_granules + 1))
    if total > candidate_cap:
        raise SearchCapExceededError(
            f"{total} candidate families exceed the cap of {candidate_cap}"
        )
    pool = [Subset(universe, m) for m in range(1, 1 << universe.size)]
    # Representability only depends on the tables' distinct outputs, so a
    # cheap mask-level split test culls most families before the full check.
    outputs = {lower_op(x).mask for x in universe.subsets()}
    outputs |= {upper_op(x).mask for x in universe.subsets()}
    n = universe.size
    found = []
    for k in range(1, max_granules + 1):
        for family in combinations(pool, k):
            groups = _signature_groups(n, [g.mask for g in family])
            if not _field_contains(groups, outputs):
                continue
            model = GranularModel(
                universe=universe,
                granules=family,
                lower_op=lower_op,
                upper_op=upper_op,
                parthood=parthood,
            )
            if admissibility_oracle(model).all_pass:
                found.append(family)
    return found


class ScanPoset:
    """Finite poset with a least element and partial meet/join.

    Meet and join are the infimum and supremum where those exist; the
    lattice and distributivity flags are derived, not declared.
    """

    def __init__(self, elements: Sequence, leq_pairs: Iterable[tuple]):
        self.elements = tuple(elements)
        if not self.elements or len(set(self.elements)) != len(self.elements):
            raise ValueError("elements must be nonempty and distinct")
        self._index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        rel = [[i == j for j in range(n)] for i in range(n)]
        for a, b in leq_pairs:
            rel[self._index[a]][self._index[b]] = True
        for i in range(n):
            for j in range(n):
                if i != j and rel[i][j] and rel[j][i]:
                    raise ValueError("order is not antisymmetric")
                if rel[i][j]:
                    for k in range(n):
                        if rel[j][k] and not rel[i][k]:
                            raise ValueError("order is not transitive")
        self._rel = rel
        bottoms = [i for i in range(n) if all(rel[i])]
        if not bottoms:
            raise ValueError("poset has no least element")
        self._bottom = bottoms[0]
        tops = [i for i in range(n) if all(rel[j][i] for j in range(n))]
        self._top = tops[0] if tops else None
        self._meet = [[self._extreme(i, j, True) for j in range(n)] for i in range(n)]
        self._join = [[self._extreme(i, j, False) for j in range(n)] for i in range(n)]

    def _extreme(self, i: int, j: int, lower: bool) -> int | None:
        n = len(self.elements)
        if lower:
            bounds = [k for k in range(n) if self._rel[k][i] and self._rel[k][j]]
            best = [g for g in bounds if all(self._rel[k][g] for k in bounds)]
        else:
            bounds = [k for k in range(n) if self._rel[i][k] and self._rel[j][k]]
            best = [g for g in bounds if all(self._rel[g][k] for k in bounds)]
        return best[0] if best else None

    @property
    def bottom(self):
        return self.elements[self._bottom]

    @property
    def top(self):
        return None if self._top is None else self.elements[self._top]

    def leq(self, a, b) -> bool:
        return self._rel[self._index[a]][self._index[b]]

    def meet(self, a, b):
        got = self._meet[self._index[a]][self._index[b]]
        return None if got is None else self.elements[got]

    def join(self, a, b):
        got = self._join[self._index[a]][self._index[b]]
        return None if got is None else self.elements[got]

    @property
    def is_lattice(self) -> bool:
        return all(
            v is not None for row in self._meet for v in row
        ) and all(v is not None for row in self._join for v in row)

    @property
    def is_distributive(self) -> bool | None:
        """True/False for lattices, None otherwise."""
        if not self.is_lattice:
            return None
        for x in self.elements:
            for y in self.elements:
                for z in self.elements:
                    left = self.meet(x, self.join(y, z))
                    right = self.join(self.meet(x, y), self.meet(x, z))
                    if left != right:
                        return False
        return True


class ObjectQuotient:
    """The quotient operations as ``QuotientAlgebra`` wrote them on Subset
    bounds, one method each, before each became one rule on bound masks."""

    def __init__(self, space: ApproximationSpace):
        self.space = space
        self.zero = self._cls(space.universe.empty, space.universe.empty)
        self.one = self._cls(space.universe.full, space.universe.full)

    def _cls(self, lower: Subset, upper: Subset) -> RoughClass:
        return RoughClass(self.space, lower, upper)

    def meet(self, a: RoughClass, b: RoughClass) -> RoughClass:
        return self._cls(a.lower & b.lower, a.upper & b.upper)

    def join(self, a: RoughClass, b: RoughClass) -> RoughClass:
        return self._cls(a.lower | b.lower, a.upper | b.upper)

    def neg(self, a: RoughClass) -> RoughClass:
        return self._cls(a.upper.complement(), a.lower.complement())

    def necessity(self, a: RoughClass) -> RoughClass:
        return self._cls(a.lower, a.lower)

    def possibility(self, a: RoughClass) -> RoughClass:
        return self._cls(a.upper, a.upper)

    def implies(self, a: RoughClass, b: RoughClass) -> RoughClass:
        a.lower._check(b.lower)
        x = (a.lower.complement() | b.lower) & (a.upper.complement() | b.upper)
        return self._cls(x, x)

    def leq(self, a: RoughClass, b: RoughClass) -> bool:
        a.lower._check(b.lower)
        return a.lower.mask & ~b.lower.mask | a.upper.mask & ~b.upper.mask == 0


def _or_not(x: Subset, y: Subset) -> Subset:
    return x | y.complement()


class ObjectCera:
    """The operations of ``CeraModel`` as it wrote them on objects, before
    each mixed operation became one rule: the tag dispatch of ``_binary``
    with its collapse sides given at each call, over ``ObjectQuotient``.
    ``_binary`` and ``ObjectQuotient.implies`` check the two operands a rule
    reads before it runs, so a foreign operand's error names what was
    passed, not a complement the rule takes."""

    def __init__(self, model: CeraModel):
        self.space = space = model.space
        self.soft = model.soft
        self.quotient = ObjectQuotient(space)
        self.top = MixedElement.type1(space.universe.full)

    def class_of(self, x: Subset) -> MixedElement:
        return MixedElement.type2(self.space.rough_class_of(x))

    def frak_l(self, x: MixedElement) -> MixedElement:
        if x.is_type1:
            return MixedElement.type1(self.space.lower(x.payload))
        return MixedElement.type2(self.quotient.necessity(x.payload))

    def black_lozenge(self, x: MixedElement) -> MixedElement:
        if x.is_type1:
            return MixedElement.type1(self.space.upper(x.payload))
        return MixedElement.type2(self.quotient.possibility(x.payload))

    def _binary(
        self, x, y, on_subsets, left, right, on_classes, lift=MixedElement.type1
    ) -> MixedElement:
        if x.is_type1 and y.is_type1:
            x.payload._check(y.payload)
            return lift(on_subsets(x.payload, y.payload))
        if x.is_type2 and y.is_type2:
            return MixedElement.type2(on_classes(x.payload, y.payload))
        a = getattr(x.payload, left) if x.is_type2 else x.payload
        b = getattr(y.payload, right) if y.is_type2 else y.payload
        a._check(b)
        return self.class_of(on_subsets(a, b))

    def oplus(self, x: MixedElement, y: MixedElement) -> MixedElement:
        return self._binary(x, y, operator.or_, "upper", "upper", self.quotient.join)

    def odot(self, x: MixedElement, y: MixedElement) -> MixedElement:
        return self._binary(x, y, operator.and_, "lower", "lower", self.quotient.meet)

    def circ(self, x: MixedElement, y: MixedElement) -> MixedElement:
        return self._binary(x, y, operator.and_, "upper", "upper", self.quotient.meet)

    def commonality(self, x: MixedElement, y: MixedElement) -> MixedElement:
        collapse = "upper" if self.soft else "lower"
        return self._binary(x, y, operator.and_, collapse, collapse, self.quotient.meet)

    def sim_neg(self, x: MixedElement) -> MixedElement:
        if x.is_type1:
            if x.payload.universe != self.space.universe:
                raise UniverseMismatchError(f"{x.payload!r} is over a foreign universe")
            return MixedElement.type1(x.payload.complement())
        return MixedElement.type2(self.quotient.neg(x.payload))

    def partial_neg(self, x: MixedElement) -> MixedElement:
        if x.is_type1:
            raise UndefinedOperationError(
                f"negation undefined on type-1 element {x}"
            )
        return MixedElement.type2(self.quotient.neg(x.payload))

    def rightsquig(self, x: MixedElement, y: MixedElement) -> MixedElement:
        return self._binary(x, y, _or_not, "upper", "lower", self.quotient.implies)

    def two_head(self, x: MixedElement, y: MixedElement) -> MixedElement:
        return self._binary(
            x, y, _or_not, "upper", "lower", self.quotient.implies, self.class_of
        )


def implies(q: QuotientAlgebra, a: RoughClass, b: RoughClass) -> RoughClass:
    """``QuotientAlgebra.implies`` composed from the other quotient operations
    in their object forms."""
    q = ObjectQuotient(q.space)
    left = q.join(q.neg(q.necessity(a)), q.necessity(b))
    right = q.join(q.necessity(q.neg(a)), q.neg(q.necessity(q.neg(b))))
    return q.meet(left, right)


def possibility(q: QuotientAlgebra, a: RoughClass) -> RoughClass:
    """``QuotientAlgebra.possibility`` composed as ¬L¬a in object forms."""
    q = ObjectQuotient(q.space)
    return q.neg(q.necessity(q.neg(a)))


def realizable(space: ApproximationSpace, lower: Subset, upper: Subset) -> bool:
    """Whether (lower, upper) bound a rough class, by the block scans that
    ``RoughClass`` made before it read ``space.masks``: the bounds are
    ordered and definite, and every block the boundary meets lies inside
    it and has at least two atoms."""
    if not lower <= upper:
        return False
    if space.lower(lower) != lower or space.upper(upper) != upper:
        return False
    boundary = upper - lower
    blocks = [b for b in space.blocks if b.mask & boundary.mask]
    covered = 0
    for b in blocks:
        if not b <= boundary or b.size < 2:
            return False
        covered |= b.mask
    return covered == boundary.mask


def rough_classes(space: ApproximationSpace, include_empty: bool = False) -> list[RoughClass]:
    """Classes of nonempty subsets, by scanning every mask, ordered by smallest member."""
    seen: dict[tuple[int, int], None] = {}
    for mask in range(1, 1 << space.universe.size):
        x = Subset(space.universe, mask)
        seen.setdefault((space.lower(x).mask, space.upper(x).mask), None)
    classes = [
        RoughClass(space, Subset(space.universe, lo), Subset(space.universe, up))
        for lo, up in seen
    ]
    classes.sort(key=lambda c: c.sample_member().mask)
    if include_empty:
        classes.insert(0, space.rough_class_of(space.universe.empty))
    return classes


def subsets(universe: Universe) -> list[Subset]:
    """``Universe.subsets`` as it counted the 2^n masks itself."""
    return [Subset(universe, mask) for mask in range(1 << universe.size)]


def class_at(space: ApproximationSpace, j: int) -> RoughClass:
    """Class j as ``QuotientAlgebra.element`` built it from the bounds in ``space.masks``."""
    u, bm = space.universe, space.masks
    return RoughClass(space, Subset(u, bm.class_lower.item(j)), Subset(u, bm.class_upper.item(j)))


def rough_classes_by_bounds(space: ApproximationSpace, include_empty: bool = False) -> list:
    """``ApproximationSpace.rough_classes`` as it zipped the class bounds itself."""
    u, bm = space.universe, space.masks
    classes = [
        RoughClass(space, Subset(u, lo), Subset(u, up))
        for lo, up in zip(bm.class_lower.tolist(), bm.class_upper.tolist())
    ]
    return classes if include_empty else classes[1:]


def quotient_carrier(q: QuotientAlgebra) -> tuple[RoughClass, ...]:
    """``QuotientAlgebra.carrier`` over the class count it read off ``space.masks``."""
    return tuple(class_at(q.space, j) for j in range(len(q.space.masks.class_lower)))


def mixed_element(model: CeraModel, i: int) -> MixedElement:
    """``CeraModel.element``: subset i, then class i - 2^n."""
    j = i - len(model.space.masks.lower)
    if j < 0:
        return MixedElement.type1(Subset(model.space.universe, i))
    return MixedElement.type2(class_at(model.space, j))


def cera_elements(model: CeraModel) -> list[MixedElement]:
    """``CeraModel.elements`` over the size 2^n + classes it wrote out."""
    bm = model.space.masks
    return [mixed_element(model, i) for i in range(len(bm.lower) + len(bm.class_lower))]


def crad_carrier(model: CradModel) -> tuple[DialecticalPair, ...]:
    """``CradModel.carrier`` over the size 2·2^n it wrote out: pair i from the
    mixed elements i mod 2^n and 2^n + the class of that subset."""
    bm = model.cera.space.masks
    size = len(bm.lower)

    def pair(i: int) -> DialecticalPair:
        x = mixed_element(model.cera, i % size)
        c = mixed_element(model.cera, size + bm.class_id.item(i % size))
        return DialecticalPair(x, c) if i < size else DialecticalPair(c, x)

    return tuple(map(pair, range(2 * size)))


def carrier_size(kind: ParthoodKind, model) -> int:
    """The carrier size ``parthood._carrier`` wrote out for the kind."""
    if kind in SUBSET_KINDS:
        return 1 << model.universe.size
    if kind in MIXED_KINDS:
        return (1 << model.space.universe.size) + len(model.space.masks.class_lower)
    return 2 << model.cera.space.universe.size


def element_classes(kind: ParthoodKind, model) -> np.ndarray:
    """The class of each mixed element or pair, as ``relation_matrix`` laid it
    out: mixed element 2^n + j is class j, and pair 2^n + j the class-first
    pair on subset j."""
    quotient = model.quotient if kind in MIXED_KINDS else model.cera.quotient
    class_id = quotient.space.masks.class_id
    j = np.arange(carrier_size(kind, model))[len(class_id) :] - len(class_id)
    return np.concatenate([class_id, j if kind in MIXED_KINDS else class_id[j]])


def quotient_candidate(q: QuotientAlgebra) -> FiniteAlgebraCandidate:
    """``to_candidate`` by one object quotient operation per cell."""
    carrier, ops = q.carrier, ObjectQuotient(q.space)
    index = {c: i for i, c in enumerate(carrier)}
    return FiniteAlgebraCandidate(
        carrier=carrier,
        meet=[[index[ops.meet(a, b)] for b in carrier] for a in carrier],
        join=[[index[ops.join(a, b)] for b in carrier] for a in carrier],
        neg=[index[ops.neg(a)] for a in carrier],
        necessity=[index[ops.necessity(a)] for a in carrier],
        zero=index[q.space.rough_class_of(q.space.universe.empty)],
        one=index[q.space.rough_class_of(q.space.universe.full)],
    )


def int64_masks(space: ApproximationSpace) -> BoundMasks:
    """``space.masks`` with its class ids from an int64 running count."""
    bm = space.masks
    smallest = bm.lower | (bm.lowbits & bm.upper & ~bm.lower)
    starts = smallest == np.arange(len(smallest))
    return bm._replace(class_id=(np.cumsum(starts, dtype=np.int64) - 1)[smallest])


def quotient_poset(space: ApproximationSpace) -> tuple[BoundedPoset, UnaryOp]:
    """The quotient order rebuilt as a ``BoundedPoset``, and its negation."""
    quotient = QuotientAlgebra(space)
    carrier = quotient.carrier
    pairs = [(carrier[i], carrier[j]) for i, j in zip(*quotient.leq_matrix().nonzero())]
    neg = quotient.tables()[2]
    return BoundedPoset(carrier, pairs), UnaryOp({c: carrier[i] for c, i in zip(carrier, neg)})


def cera_tables(model: CeraModel) -> tuple[np.ndarray, ...]:
    """``CeraModel.tables`` by one object operation per cell."""
    els, ops = model.elements(), ObjectCera(model)
    index = {el: i for i, el in enumerate(els)}
    n = len(els)
    dtype = np.min_scalar_type(n - 1)
    plus = np.empty((n, n), dtype=dtype)
    times = np.empty((n, n), dtype=dtype)
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            plus[i, j] = index[ops.oplus(a, b)]
            times[i, j] = index[ops.commonality(a, b)]
    low = np.array([index[ops.frak_l(a)] for a in els], dtype=dtype)
    dia = np.array([index[ops.black_lozenge(a)] for a in els], dtype=dtype)
    neg = np.array([index[ops.sim_neg(a)] for a in els], dtype=dtype)
    return plus, times, low, dia, neg


def cera_tag_detectors(model: CeraModel) -> dict[str, AxiomCheck]:
    """The ``type-1`` and ``type-2`` checks of ``check_cera_identities``, by
    one object ``rightsquig`` and one ``partial_neg`` call per element."""
    els, ops = model.elements(), ObjectCera(model)
    size = 1 << model.space.universe.size

    def neg_defined(a: MixedElement) -> bool:
        try:
            ops.partial_neg(a)
        except UndefinedOperationError:
            return False
        return True

    laws = (
        ("type-1", "x ~> x = T iff type-1", lambda a: ops.rightsquig(a, a) == ops.top),
        ("type-2", "neg defined iff type-2", lambda a: not neg_defined(a)),
    )
    out = {}
    for name, clause, holds_iff_type1 in laws:
        witness = next(
            ((clause, a) for i, a in enumerate(els) if holds_iff_type1(a) != (i < size)),
            None,
        )
        out[name] = AxiomCheck(witness is None, witness)
    return out


def cera_ternary_laws(model: CeraModel) -> dict[str, AxiomCheck]:
    """The ``ter-*`` identities of ``check_cera_identities``, one cell at a time."""
    plus, times = (t.tolist() for t in model.tables()[:2])
    els = model.elements()
    size = 1 << model.space.universe.size
    laws = (
        ("1", "(+) associative", lambda x, y, z: plus[plus[x][y]][z] == plus[x][plus[y][z]]),
        ("2", "(+) over (.)", lambda x, y, z: plus[x][times[y][z]] == times[plus[x][y]][plus[x][z]]),
        ("3", "(.) associative", lambda x, y, z: times[times[x][y]][z] == times[x][times[y][z]]),
    )
    out = {}
    for tag, block in (("1", range(size)), ("2", range(size, len(els)))):
        for law, clause, ok in laws:
            witness = next(
                (
                    (clause, els[x], els[y], els[z])
                    for x in block
                    for y in block
                    for z in block
                    if not ok(x, y, z)
                ),
                None,
            )
            out[f"ter-{tag}{law}"] = AxiomCheck(witness is None, witness)
    return out


def lattice_rows(mt: np.ndarray, jn: np.ndarray) -> dict[str, tuple]:
    """The ternary laws of ``prerough._lattice_base``, built on intp copies."""
    r = np.arange(len(mt))
    mti, jni = mt.astype(np.intp), jn.astype(np.intp)
    dist = distributive(mti, jni)
    m_ok, j_ok = dist or associative(mti), dist or associative(jni)
    return {
        "meet-associative": (() if m_ok else r, lambda a: mt[mt[a]] != mt[a][mti]),
        "join-associative": (() if j_ok else r, lambda a: jn[jn[a]] != jn[a][jni]),
        "distributivity": (() if dist else r, lambda a: (mt[a][jni] != jn[mt[a]][:, mt[a]])
        | (jn[a][mti] != mt[jn[a]][:, jn[a]])),
    }


def cera_block_rows(plus: np.ndarray, times: np.ndarray, idxs: np.ndarray, dist) -> tuple:
    """``ter-{tag}1``, ``ter-{tag}2`` and ``ter-{tag}3`` of one block of
    ``check_cera_identities``, built on fancy-index copies of the block."""

    def assoc(table: np.ndarray, certified: bool):
        sub = table[idxs][:, idxs].astype(np.intp)
        cols = table[:, idxs]
        row = lambda i: table[idxs[i]][sub] != cols[table[idxs[i], idxs]]
        return ((), row) if certified else row

    def distrib(certified: bool):
        tsub = times[idxs][:, idxs].astype(np.intp)

        def row(i: int) -> np.ndarray:
            sums = plus[idxs[i], idxs]
            return plus[idxs[i]][tsub] != times[sums][:, sums]

        return ((), row) if certified else row

    own_p, own_t = (t[idxs[:, None], idxs].astype(np.intp) - idxs[0] for t in (plus, times))
    dist = dist or distributive(own_t, own_p)
    p_ok, t_ok = dist or associative(own_p), dist or associative(own_t)
    return assoc(plus, p_ok), distrib(dist), assoc(times, t_ok)


def is_distributive(poset: BoundedPoset) -> bool | None:
    """``BoundedPoset.is_distributive`` by the distributive law, one x at a time."""
    if not poset.is_lattice:
        return None
    mt, jn = poset._meet, poset._join
    return all(
        (mt[x, jn] == jn[mt[x, :, None], mt[x, None, :]]).all() for x in range(len(mt))
    )


def _bound_holds(kind: ParthoodKind, a: tuple[Subset, Subset], b: tuple[Subset, Subset]) -> bool:
    """The condition of a bound-based kind on (lower, upper) of a and of b."""
    (la, ua), (lb, ub) = a, b
    if kind is ParthoodKind.VERY_CAUTIOUS:
        return la.is_subset_of(lb)
    if kind is ParthoodKind.CAUTIOUS:
        return la.is_subset_of(ub)
    if kind is ParthoodKind.LATERAL:
        return la.is_subset_of(ub - lb)
    if kind is ParthoodKind.POSSIBILIST:
        return ua.is_subset_of(ub)
    if kind is ParthoodKind.ULTRA_CAUTIOUS:
        return ua.is_subset_of(lb)
    if kind is ParthoodKind.LATERAL_PLUS:
        return ua.is_subset_of(ub - lb)
    if kind is ParthoodKind.BILATERAL:
        return (ua - la).is_subset_of(ub - lb)
    return (ua - la).is_subset_of(lb)


def relation_matrix(kind: ParthoodKind, model, cap: int = MATRIX_CAP):
    """The relation cell by cell: one ``holds`` call per cell, except that
    the bound-based kinds compare each element's bounds as Subsets."""
    elements = carrier_elements(kind, model)
    if len(elements) > cap:
        raise CarrierCapExceededError(
            f"carrier of size {len(elements)} exceeds the matrix cap {cap}"
        )
    if kind in SUBSET_KINDS and kind is not ParthoodKind.G_SIMPLE:
        bounds = [(model.lower(a), model.upper(a)) for a in elements]
        rows = [[_bound_holds(kind, a, b) for b in bounds] for a in bounds]
    else:
        rows = [[holds(kind, model, a, b) for b in elements] for a in elements]
    return elements, np.array(rows, dtype=bool)


def maximal_antichains(elements: Sequence[RoughClass], limit: int) -> list[tuple]:
    """Maximal antichains of classes under bound inclusion, by DFS."""
    if limit < 1:
        raise ValueError("limit must be at least 1")

    def comparable(a: RoughClass, b: RoughClass) -> bool:
        return (a.lower <= b.lower and a.upper <= b.upper) or (
            b.lower <= a.lower and b.upper <= a.upper
        )

    n = len(elements)
    comp = [[comparable(elements[i], elements[j]) for j in range(n)] for i in range(n)]
    out: list[tuple] = []

    def extend(prefix: list[int], start: int) -> None:
        if len(out) >= limit:
            return
        if prefix and all(any(comp[j][m] for m in prefix) for j in range(n)):
            out.append(tuple(elements[i] for i in prefix))
            if len(out) >= limit:
                return
        for k in range(start, n):
            if all(not comp[k][m] for m in prefix):
                extend(prefix + [k], k + 1)

    extend([], 0)
    return out


def crad_members(model: CradModel) -> tuple[tuple[DialecticalPair, ...], frozenset]:
    """K in carrier order and as a set: first_pair(x) for every subset x
    in mask order, then second_pair(x)."""
    cera = model.cera
    subsets = [MixedElement.type1(x) for x in cera.space.universe.subsets()]
    classes = [MixedElement.type2(c) for c in cera.quotient.carrier]
    of = [classes[c] for c in cera.space.masks.class_id.tolist()]
    carrier = tuple(
        [DialecticalPair(x, c) for x, c in zip(subsets, of)]
        + [DialecticalPair(c, x) for x, c in zip(subsets, of)]
    )
    members = frozenset(carrier)
    # orientations never collide: the tags of the components differ
    assert len(members) == len(carrier)
    return carrier, members


class MemberSetCrad(CradModel):
    """``CradModel`` with K built whole on construction; membership is a set lookup."""

    def __init__(self, cera: CeraModel):
        self.cera = cera
        self.carrier, self._members = crad_members(self)
        super().__init__(cera)

    def contains(self, p: DialecticalPair) -> bool:
        return p in self._members


class GateCrad(CradModel):
    """``CradModel`` with each pair operation's K gate written out in place."""

    def _combine(self, p, q, op, symbol: str, noun: str) -> DialecticalPair:
        a, b = p.first, p.second
        c, e = q.first, q.second
        if a.is_type1 == c.is_type1:
            result = DialecticalPair(op(a, c), op(b, e))
            if not self.contains(result):
                raise UndefinedResultError(
                    f"componentwise {noun} lies outside the carrier"
                )
            return result
        if a.is_type1:
            gate = op(op(e, a), self.cera.zero)
            target = op(a, c)
            if gate != target:
                raise UndefinedResultError(
                    f"(e {symbol} a) {symbol} 0 = a {symbol} c fails"
                )
            result = DialecticalPair(target, op(e, a))
        else:
            gate = op(op(c, b), self.cera.zero)
            target = op(a, e)
            if gate != target:
                raise UndefinedResultError(
                    f"(c {symbol} b) {symbol} 0 = a {symbol} e fails"
                )
            result = DialecticalPair(target, op(c, b))
        if not self.contains(result):
            raise UndefinedResultError(
                f"componentwise {noun} lies outside the carrier"
            )
        return result

    def plus(self, p: DialecticalPair, q: DialecticalPair) -> DialecticalPair:
        self._require(p, q)
        return self._combine(p, q, self.cera.oplus, "(+)", "sum")

    def times(self, p: DialecticalPair, q: DialecticalPair) -> DialecticalPair:
        self._require(p, q)
        return self._combine(p, q, self.cera.commonality, "(.)", "product")

    def l_star(self, p: DialecticalPair) -> DialecticalPair:
        self._require(p)
        result = DialecticalPair(
            self.cera.frak_l(p.first), self.cera.frak_l(p.second)
        )
        if not self.contains(result):
            raise UndefinedResultError(
                "componentwise interior lies outside the carrier"
            )
        return result

    def sim_star(self, p: DialecticalPair) -> DialecticalPair:
        self._require(p)
        result = DialecticalPair(
            self.cera.sim_neg(p.first), self.cera.sim_neg(p.second)
        )
        if not self.contains(result):
            raise UndefinedResultError(
                "componentwise negation lies outside the carrier"
            )
        return result


def condition_masks(poset: BoundedPoset) -> tuple[np.ndarray, ...]:
    """``negation._condition_masks`` with one pass per pair (x, y)."""
    n = len(poset.elements)
    leq, meet = poset._rel, poset._meet
    bot = poset._bottom
    maps = np.array(list(product(range(n), repeat=n)), dtype=np.int16)
    cols = np.arange(n)
    n1 = (meet[cols[None, :], maps] == bot).all(axis=1)
    n2 = np.ones(len(maps), dtype=bool)
    n9 = np.ones(len(maps), dtype=bool)
    for x in range(n):
        for y in range(n):
            if leq[x, y]:
                n2 &= leq[maps[:, y], maps[:, x]]
            n9 &= leq[y, maps[:, x]] == (meet[x, y] == bot)
    rows = np.arange(len(maps))[:, None]
    ff = maps[rows, maps]
    n3 = leq[cols[None, :], ff].all(axis=1)
    return maps, n1, n2, n3, n9


def falsify_theorem(claim_id: str, size_cap: int = 5) -> FalsificationWitness | None:
    """``negation.falsify_theorem`` with one witness construction per claim."""
    if claim_id not in CLAIM_IDS:
        raise ValueError(f"unknown claim {claim_id!r}; expected one of {CLAIM_IDS}")
    if size_cap > FALSIFY_SIZE_CAP:
        raise SearchTooLargeError(
            f"size cap {size_cap} exceeds the bound {FALSIFY_SIZE_CAP}"
        )
    for n in range(1, size_cap + 1):
        for poset in enumerate_distributive_lattices(n):
            maps, n1, n2, n3, n9 = condition_masks(poset)
            if claim_id == "no-index-0-n":
                candidates = n1 & n2 & (np.sort(maps, axis=1) == np.arange(n)).all(axis=1)
                for row in maps[candidates]:
                    op = UnaryOp(dict(zip(poset.elements, (poset.elements[v] for v in row))))
                    profile = _table_check_negation(poset, op)
                    m, k = profile.index
                    if m == 0 and k > 2:
                        return FalsificationWitness(
                            claim_id, poset, op, f"index (0, {k})"
                        )
            elif claim_id == "n123-bottom-top":
                idx = {e: i for i, e in enumerate(poset.elements)}
                bot, top = idx[poset.bottom], idx[poset.top]
                bad = (maps[:, bot] != top) | (maps[:, top] != bot)
                hits = n1 & n2 & n3 & bad
                if hits.any():
                    row = maps[np.flatnonzero(hits)[0]]
                    op = UnaryOp(dict(zip(poset.elements, (poset.elements[v] for v in row))))
                    return FalsificationWitness(
                        claim_id, poset, op, "regular yet moves the bounds wrongly"
                    )
            elif claim_id == "n123-not-n9-witness":
                hits = n1 & n2 & n3 & ~n9
                if hits.any():
                    row = maps[np.flatnonzero(hits)[0]]
                    op = UnaryOp(dict(zip(poset.elements, (poset.elements[v] for v in row))))
                    return FalsificationWitness(
                        claim_id, poset, op, "satisfies N1-N3 but not N9"
                    )
            else:
                hits = n9 & ~(n1 & n2 & n3)
                if hits.any():
                    row = maps[np.flatnonzero(hits)[0]]
                    op = UnaryOp(dict(zip(poset.elements, (poset.elements[v] for v in row))))
                    return FalsificationWitness(
                        claim_id, poset, op, "satisfies N9 but not all of N1-N3"
                    )
    return None


def canonical_relation(n: int, rel_rows: list[int]) -> tuple:
    """The least sorted image of the strict order, read off bit rows."""
    best = None
    for perm in permutations(range(n)):
        image = sorted(
            (perm[i], perm[j])
            for i in range(n)
            for j in range(n)
            if i != j and rel_rows[i] >> j & 1
        )
        key = tuple(image)
        if best is None or key < best:
            best = key
    return best


def enumerate_lattices(n: int) -> list[BoundedPoset]:
    """``negation.enumerate_lattices`` over every upper-triangular relation,
    with its own transitivity scan on bit rows."""
    if n == 1:
        return [BoundedPoset([0], [])]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    seen: set[tuple] = set()
    for bits in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                rows[i] |= 1 << j
        ok = True
        for i in range(n):
            reach = rows[i]
            for j in range(n):
                if rows[i] >> j & 1 and rows[j] & ~reach:
                    ok = False
                    break
            if not ok:
                break
        if not ok or rows[0] != (1 << n) - 1:
            continue
        poset = BoundedPoset(
            list(range(n)),
            [(i, j) for i, j in pairs if rows[i] >> j & 1],
        )
        if not poset.is_lattice:
            continue
        canon = canonical_relation(n, rows)
        if canon in seen:
            continue
        seen.add(canon)
        out.append(poset)
    return out


def from_pairs(atoms: Sequence[str], pairs: Iterable[tuple[str, str]]) -> ApproximationSpace:
    """``ApproximationSpace.from_pairs`` by a union-find over atom names."""
    universe = Universe(atoms)
    parent = {name: name for name in universe.atoms}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        universe.index(a), universe.index(b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[str, list[str]] = {}
    for name in universe.atoms:
        groups.setdefault(find(name), []).append(name)
    return ApproximationSpace(universe, [universe.subset(g) for g in groups.values()])


def weak_equal_maps(left: tuple, right: tuple) -> bool:
    return all(
        a is None or b is None or a == b for a, b in zip(left, right)
    )


def iterate_index(elements: tuple, f: UnaryOp) -> tuple[int, int]:
    """Least n admitting m < n with f^m weakly equal to f^n pointwise;
    past ``negation.ITERATE_CAP`` iterates it raises, as the kernel does."""
    maps = [tuple(elements)]
    for _ in range(negation.ITERATE_CAP):
        nxt = tuple(None if v is None else f(v) for v in maps[-1])
        # every pair of older iterates already failed, so test the new one only
        for m, earlier in enumerate(maps):
            if weak_equal_maps(earlier, nxt):
                return m, len(maps)
        maps.append(nxt)
    raise SearchTooLargeError(f"no repeat within the iterate cap {negation.ITERATE_CAP}")


def meet_table(rel: np.ndarray) -> np.ndarray:
    """Meet indices under ``rel``, -1 where none, one row at a time: the
    common lower bound whose down-set is as large as the common lower bounds."""
    n = len(rel)
    down = rel.sum(axis=0)
    table = np.empty((n, n), dtype=np.min_scalar_type(-n))
    for i in range(n):
        common = rel[:, i, None] & rel
        hit = common & (down[:, None] == common.sum(axis=0))
        table[i] = np.where(hit.any(axis=0), hit.argmax(axis=0), -1)
    return table


def order_error(rel: np.ndarray) -> str | None:
    """The error ``BoundedPoset`` raises for a reflexive relation, or None.

    The first bad cell in row-major order names it, antisymmetry first; a
    cell (i, j) is unclosed if i <= j <= k for some k not above i.
    """
    n = len(rel)
    cycle = rel & rel.T & ~np.eye(n, dtype=bool)
    bad = cycle | (rel & (~rel @ rel.T))
    if not bad.any():
        return None
    return "order is not " + ("antisymmetric" if cycle.flat[bad.argmax()] else "transitive")


def _check_indices(name: str, values: Iterable, n: int) -> None:
    try:
        values = list(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{name} has a non-integer entry") from None
    low, high = min(values), max(values)
    if low < 0 or high >= n:
        bad = low if low < 0 else high
        raise ValueError(f"{name} entry {bad} is not an index below {n}")


def validate_candidate(cand: FiniteAlgebraCandidate) -> None:
    """``FiniteAlgebraCandidate._validate`` on list tables, entry by entry."""
    n = len(cand.carrier)
    if n == 0:
        raise ValueError("carrier must be nonempty")
    for name, table in (("meet", cand.meet), ("join", cand.join)):
        if table is None:
            continue
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError(f"{name} table must be {n}x{n}")
        _check_indices(name, chain.from_iterable(table), n)
    for name in ("neg", "necessity"):
        if len(getattr(cand, name)) != n:
            raise ValueError(f"{name} table must have {n} entries")
        _check_indices(name, getattr(cand, name), n)
    _check_indices("zero/one", (cand.zero, cand.one), n)


def main_with_a_fresh_parser(argv: list[str]) -> int:
    """``cli.main`` with a parser built for this call alone."""
    cached = cli.build_parser
    cli.build_parser = cached.__wrapped__
    try:
        return cli.main(argv)
    finally:
        cli.build_parser = cached


def classify_pair(cs: CaseSpace, a, b, classical: bool = True) -> PairClassification:
    """``opposition.classify_pair`` keying each world TT/TF/FT/FF by its t bits."""
    if classical:
        for s in (a, b):
            if not cs.is_classical(s):
                raise NonClassicalValuationError(
                    f"sentence {s!r} is not two-valued in this case space"
                )
    seen = {key: False for key in ("TT", "TF", "FT", "FF")}
    for w in cs.worlds:
        ta = cs.pair(a, w)[0]
        tb = cs.pair(b, w)[0]
        key = ("T" if ta else "F") + ("T" if tb else "F")
        seen[key] = True
    profile = {k: ("T" if v else "NP") for k, v in seen.items()}
    return PairClassification(
        figure=classify_from_questions(seen["TT"], seen["FF"]),
        tt_possible=seen["TT"],
        ff_possible=seen["FF"],
        row_profile=profile,
    )


def hexagon(space: ApproximationSpace, x: Subset) -> HexagonReport:
    """``opposition.hexagon`` classifying its node pairs through a ``CaseSpace``."""
    lower = space.lower(x)
    upper = space.upper(x)
    regions = {
        "L": lower,
        "B": space.boundary(x),
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
    worlds = space.universe.atoms
    cs = CaseSpace.from_sets(
        worlds, {name: set(sub.atom_names()) for name, sub in regions.items()}
    )
    figures = {
        (p, q): classify_pair(cs, p, q, classical=False).figure
        for p, q in combinations(HEXAGON_NODE_ORDER, 2)
    }
    return HexagonReport(nodes=regions, figures=figures, degenerate=degenerate)


def discernibility_square(rel: IndiscernibilityRelation) -> DiscernibilitySquare:
    """``counting.discernibility_square`` classifying its pairs through a ``CaseSpace``."""
    worlds = tuple((a, b) for a in rel.elements for b in rel.elements)
    identity = frozenset((a, a) for a in rel.elements)
    extents = {
        "IS": identity,
        "IS.NOT": frozenset(worlds) - identity,
        "IND": frozenset(rel.related),
        "DIS": frozenset(worlds) - rel.related,
    }
    cs = CaseSpace.from_sets(worlds, extents)
    figures = {}
    for i, p in enumerate(SQUARE_PREDICATES):
        for q in SQUARE_PREDICATES[i + 1 :]:
            figures[(p, q)] = classify_pair(cs, p, q, classical=False).figure
    return DiscernibilitySquare(rel.elements, extents, figures)


def combination_profile(
    cs: CaseSpace,
    a,
    b,
    beta=None,
    bet=None,
) -> frozenset[str]:
    """``opposition.combination_profile`` testing each pattern world by world."""

    def annotated_beta(s) -> bool:
        if s not in beta:
            raise MissingAnnotationError(f"beta annotation missing for {s!r}")
        return bool(beta[s])

    def annotated_bet() -> bool:
        for key in ((a, b), (b, a)):
            if key in bet:
                return bool(bet[key])
        raise MissingAnnotationError(f"bet annotation missing for {(a, b)!r}")

    def holds(label: str, s, w) -> bool:
        t, f = cs.pair(s, w)
        if label == "T":
            return t
        if label == "F":
            return f
        if label == "delta":
            return t and f
        if label == "beta":
            return annotated_beta(s) and t
        return annotated_bet() and t

    realized = set()
    for la, lb in COMBINATION_PATTERNS:
        if beta is None and "beta" in (la, lb):
            continue
        if bet is None and "bet" in (la, lb):
            continue
        if any(holds(la, a, w) and holds(lb, b, w) for w in cs.worlds):
            realized.add(f"{la}/{lb}")
    return frozenset(realized)


def joint_consistency(tables: Iterable[ReferenceTable]) -> JointConsistencyResult:
    """``opposition.joint_consistency`` reading every table's rows for each assignment."""
    tables = tuple(tables)
    names: list[str] = []
    for table in tables:
        for predicate in (table.left, table.right):
            if predicate not in names:
                names.append(predicate)
    checked = 0
    for values in product((True, False), repeat=len(names)):
        assignment = dict(zip(names, values))
        checked += 1
        ok = True
        for table in tables:
            lv = assignment[table.left]
            rv = assignment[table.right]
            for left, right, entry in table.rows:
                if entry == "NP" and (left == "T") == lv and (right == "T") == rv:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return JointConsistencyResult(True, assignment, checked)
    return JointConsistencyResult(False, None, checked)
