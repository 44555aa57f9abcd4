"""Negation condition checks, falsification search, dialectical laws."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scan_oracles as oracle
from roughwork import negation
from roughwork.negation import (
    CLAIM_IDS,
    BoundedPoset,
    FalsificationWitness,
    PreconditionError,
    SearchTooLargeError,
    UnaryOp,
    check_dialectical_predicate,
    check_negation,
    enumerate_distributive_lattices,
    enumerate_lattices,
    falsify_theorem,
    interior_compose,
)

B4 = BoundedPoset.boolean_lattice(2)
COMPLEMENT = UnaryOp.total(B4.elements, lambda x: x ^ 3)
CONDITIONS = ("N1", "N2", "N3", "N4", "N5", "N6", "N9")


def test_poset_construction_and_bounds():
    assert B4.bottom == 0 and B4.top == 3
    assert B4.meet(1, 2) == 0 and B4.join(1, 2) == 3
    assert B4.is_lattice and B4.is_distributive

    chain = BoundedPoset.chain(["lo", "mid", "hi"])
    assert chain.bottom == "lo" and chain.top == "hi"
    assert repr(chain) == "<BoundedPoset ['lo', 'mid', 'hi']>"
    assert repr(COMPLEMENT) == "UnaryOp({0: 3, 1: 2, 2: 1, 3: 0})"
    assert chain.leq("lo", "hi") and not chain.leq("hi", "mid")

    # bottom plus two incomparable atoms: no top, joins missing
    vee = BoundedPoset(["o", "p", "q"], [("o", "p"), ("o", "q")])
    assert vee.top is None
    assert vee.join("p", "q") is None
    assert not vee.is_lattice and vee.is_distributive is None


def test_poset_rejects_non_orders():
    with pytest.raises(ValueError):
        BoundedPoset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError, match="least"):
        BoundedPoset(["a", "b"], [])
    with pytest.raises(ValueError, match="transitive"):
        # the full order relation is required, not a cover set
        BoundedPoset(["a", "b", "c"], [("a", "b"), ("b", "c")])


def test_diamond_is_a_non_distributive_lattice():
    m3 = BoundedPoset(
        ["bot", "x", "y", "z", "top"],
        [("bot", a) for a in ("x", "y", "z", "top")]
        + [(a, "top") for a in ("x", "y", "z")],
    )
    assert m3.is_lattice
    assert m3.is_distributive is False


def test_boolean_complement_profile():
    profile = check_negation(B4, COMPLEMENT)
    assert all(profile.passed(name) for name in CONDITIONS)
    assert profile.index == (0, 2)
    assert profile.period == 2 and profile.pace == 2


def test_one_element_poset_profile():
    one = BoundedPoset([0], [])
    profile = check_negation(one, UnaryOp({0: 0}))
    assert all(profile.passed(name) for name in CONDITIONS)
    assert profile.index == (0, 1)


def test_constant_top_fails_n1():
    two = BoundedPoset.chain(["bot", "top"])
    profile = check_negation(two, UnaryOp.total(two.elements, lambda _: "top"))
    assert not profile.passed("N1")
    assert profile.checks["N1"].witness == ("top",)
    assert not profile.passed("N9")
    assert profile.index == (1, 2) and profile.pace == 1


def test_known_regular_map_without_n9():
    f = UnaryOp({0: 3, 1: 0, 2: 0, 3: 0})
    profile = check_negation(B4, f)
    assert profile.passed("N1") and profile.passed("N2") and profile.passed("N3")
    assert profile.passed("N4") and profile.passed("N6")
    assert not profile.passed("N9")
    x, y = profile.checks["N9"].witness
    assert {x, y} == {1, 2}
    assert profile.index == (1, 3)
    assert profile.period == 3 and profile.pace == 2


def test_partial_map_checks_are_vacuous_off_domain():
    f = UnaryOp({0: 3})
    profile = check_negation(B4, f)
    assert all(profile.passed(name) for name in CONDITIONS)
    # all iterates of length two are undefined, so the weak reading
    # matches them against the identity straight away
    assert profile.index == (0, 2)


def test_operation_must_stay_inside_the_carrier():
    with pytest.raises(ValueError, match="carrier"):
        check_negation(B4, UnaryOp({0: 9}))


def _naive_index(poset, f):
    maps = [tuple(poset.elements)]
    for _ in range(64):
        maps.append(tuple(None if v is None else f(v) for v in maps[-1]))
    for n in range(1, len(maps)):
        for m in range(n):
            if all(a is None or b is None or a == b for a, b in zip(maps[m], maps[n])):
                return m, n
    return None


def test_index_compares_each_new_iterate_with_its_predecessors_only(monkeypatch):
    # cycles of lengths 3, 4, 5 and 7: the first repeat is f^420 = f^0
    cycles = [range(0, 3), range(3, 7), range(7, 12), range(12, 19)]
    perm = {c[k]: c[(k + 1) % len(c)] for c in cycles for k in range(len(c))}
    calls = []
    real = oracle.weak_equal_maps

    def counted(left, right):
        calls.append(None)
        return real(left, right)

    monkeypatch.setattr(oracle, "weak_equal_maps", counted)
    assert oracle.iterate_index(tuple(range(19)), UnaryOp(perm)) == (0, 420)
    assert len(calls) <= 420 * 421 // 2
    # The kernel finds the same index on the index array of the same map.
    F = np.array([perm[x] for x in range(19)], dtype=np.int8)
    assert negation._iterate_index(F, np.arange(19, dtype=np.int8)) == (0, 420)


def test_n5_passes_up_to_the_iterate_cap_and_raises_past_it(monkeypatch):
    # cycles of lengths 3, 4, 5 and 7: the first repeat is f^420 = f^0
    cycles = [range(0, 3), range(3, 7), range(7, 12), range(12, 19)]
    perm = UnaryOp({c[k]: c[(k + 1) % len(c)] for c in cycles for k in range(len(c))})
    chain = BoundedPoset.chain(range(19))
    monkeypatch.setattr(negation, "ITERATE_CAP", 420)
    profile = check_negation(chain, perm)
    assert profile.passed("N5")
    assert (profile.index, profile.period, profile.pace) == ((0, 420), 420, 420)
    # a finite map's iterates always repeat, so past the cap N5 raises rather than fails
    monkeypatch.setattr(negation, "ITERATE_CAP", 419)
    with pytest.raises(SearchTooLargeError, match="^no repeat within the iterate cap 419$"):
        check_negation(chain, perm)
    with pytest.raises(SearchTooLargeError):
        oracle.check_negation(chain, perm)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_index_matches_naive_search_and_is_minimal(data):
    poset = data.draw(st.sampled_from([B4, BoundedPoset.chain(range(3))]))
    mapping = {
        x: data.draw(st.sampled_from(poset.elements), label=f"f({x})")
        for x in poset.elements
    }
    profile = check_negation(poset, UnaryOp(mapping))
    assert profile.index == _naive_index(poset, UnaryOp(mapping))
    m, n = profile.index
    assert 0 <= m < n


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_n9_forces_n1_n2_n3(data):
    poset = data.draw(
        st.sampled_from(enumerate_distributive_lattices(4) + enumerate_lattices(3))
    )
    mapping = {
        x: data.draw(st.sampled_from(poset.elements), label=f"f({x})")
        for x in poset.elements
    }
    profile = check_negation(poset, UnaryOp(mapping))
    if profile.passed("N9"):
        assert profile.passed("N1")
        assert profile.passed("N2")
        assert profile.passed("N3")


def test_lattice_enumeration_counts():
    assert [len(enumerate_lattices(n)) for n in range(1, 6)] == [1, 1, 1, 2, 5]
    assert [len(enumerate_distributive_lattices(n)) for n in range(1, 6)] == [
        1,
        1,
        1,
        2,
        3,
    ]
    for poset in enumerate_lattices(5):
        assert poset.is_lattice and poset.bottom == 0 and poset.top is not None


def test_falsify_impossibility_claims_find_nothing():
    assert falsify_theorem("no-index-0-n", size_cap=5) is None
    assert falsify_theorem("n123-bottom-top", size_cap=5) is None
    assert falsify_theorem("n9-implies-n123", size_cap=5) is None


def test_falsify_returns_the_non_implication_witness():
    got = falsify_theorem("n123-not-n9-witness", size_cap=5)
    assert isinstance(got, FalsificationWitness)
    assert len(got.poset.elements) == 4
    assert got.op.mapping == {0: 3, 1: 0, 2: 0, 3: 0}
    profile = check_negation(got.poset, got.op)
    assert profile.passed("N1") and profile.passed("N2") and profile.passed("N3")
    assert not profile.passed("N9")


def test_falsify_guards():
    with pytest.raises(ValueError, match="unknown claim"):
        falsify_theorem("bogus")
    with pytest.raises(SearchTooLargeError):
        falsify_theorem(CLAIM_IDS[0], size_cap=7)


def test_interior_compose_with_identity_reproduces_the_negation():
    ident = UnaryOp.total(B4.elements, lambda x: x)
    g, check = interior_compose(B4, COMPLEMENT, ident)
    assert g.mapping == COMPLEMENT.mapping
    assert check.passed


def test_interior_compose_with_a_proper_interior():
    # keeps the first atom, discards the second
    keep = UnaryOp({0: 0, 1: 1, 2: 0, 3: 1})
    g, check = interior_compose(B4, COMPLEMENT, keep)
    assert g.mapping == {0: 1, 1: 0, 2: 1, 3: 0}
    assert check.passed
    two = g.iterate(0, 2)
    assert g.iterate(0, 4) == two


def test_interior_compose_preconditions_name_the_failed_law():
    with pytest.raises(PreconditionError, match="N1"):
        interior_compose(B4, UnaryOp.total(B4.elements, lambda x: x), UnaryOp({}))
    with pytest.raises(PreconditionError, match="idempotence"):
        interior_compose(B4, COMPLEMENT, UnaryOp({0: 0, 1: 0, 2: 2, 3: 1}))
    with pytest.raises(PreconditionError, match="contraction"):
        interior_compose(B4, COMPLEMENT, UnaryOp({0: 1, 1: 1, 2: 2, 3: 3}))
    with pytest.raises(PreconditionError, match="monotonicity"):
        interior_compose(B4, COMPLEMENT, UnaryOp({0: 0, 1: 1, 2: 2, 3: 1}))
    with pytest.raises(PreconditionError, match="undefined"):
        interior_compose(B4, COMPLEMENT, UnaryOp({0: 0}))


def test_dialectical_inequality_on_a_join_semilattice():
    report = check_dialectical_predicate([0, 1], lambda a, b: a != b, max)
    assert report["commutativity"].passed
    assert report["anti-reflexivity"].passed
    assert not report["aggregation"].passed
    a, b, c = report["aggregation"].witness
    assert a != b and max(a, c) == max(b, c)


def test_dialectical_empty_relation_is_vacuous():
    report = check_dialectical_predicate([0, 1, 2], lambda a, b: False, max)
    assert report.all_pass


def test_dialectical_disjointness_under_union():
    sets = [frozenset(), frozenset("x"), frozenset("y"), frozenset("xy")]
    report = check_dialectical_predicate(
        sets, lambda a, b: not (a & b), lambda a, b: a | b
    )
    assert report["commutativity"].passed
    assert not report["anti-reflexivity"].passed
    assert report["anti-reflexivity"].witness == (frozenset(),)
    assert not report["aggregation"].passed
    a, b, c = report["aggregation"].witness
    assert not (a & b) and (a | c) & (b | c)


def test_falsify_default_cap_is_the_named_default():
    default = inspect.signature(falsify_theorem).parameters["size_cap"].default
    assert default == negation.FALSIFY_DEFAULT_CAP <= negation.FALSIFY_SIZE_CAP
