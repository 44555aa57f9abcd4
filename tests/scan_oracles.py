"""The nested-loop law checkers, kept as oracles for the table sweeps.

These are the scans that ``prerough``, ``granular`` and ``negation`` ran
before their laws became index expressions over operation tables.  They
call one Python predicate per cell, in nested-loop order, and stop at the
first violation; ``test_differential.py`` asserts that the table sweeps
report the same status and the same first witness for every law.
"""

from __future__ import annotations

from typing import Callable

from roughwork.approx import Subset
from roughwork.granular import AxiomCheck, AxiomReport, GranularModel, OperatorTable
from roughwork.negation import BoundedPoset, NegationProfile, UnaryOp, _iterate_index
from roughwork.prerough import FiniteAlgebraCandidate


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


def _lattice_base(cand: FiniteAlgebraCandidate) -> dict[str, AxiomCheck]:
    mt, jn = cand.meet.__getitem__, cand.join_of
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
    mt, jn, ng, L = cand.meet.__getitem__, cand.join_of, cand.neg, cand.necessity
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
                    cand.leq(dia(a), dia(b)) and cand.leq(L[a], L[b])
                )
                or cand.leq(a, b),
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
    index = _iterate_index(els, f)
    results["N5"] = AxiomCheck(index is not None, None if index else ("no-cycle",))

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

    if index is None:
        return NegationProfile(AxiomReport(results), None, None, None)
    m, n = index
    return NegationProfile(AxiomReport(results), index, n, n - m)
