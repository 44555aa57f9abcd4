"""Dialectical pairs: K membership, partial operations, natural parthood."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from roughwork.approx import Universe
from roughwork.cera import CeraModel
from roughwork.crad import CradModel, DialecticalPair, UndefinedResultError
from roughwork.model_io import load_model
from test_approx import spaces


@pytest.fixture(scope="module")
def model(example_space) -> CradModel:
    return CradModel(CeraModel(example_space))


def pair1(model: CradModel, text: str) -> DialecticalPair:
    return model.first_pair(model.cera.space.universe.parse(text))


def pair2(model: CradModel, text: str) -> DialecticalPair:
    return model.second_pair(model.cera.space.universe.parse(text))


def test_carrier_shape(model):
    assert len(model.carrier) == 2 * 64
    assert len(set(model.carrier)) == len(model.carrier)
    for p in model.carrier:
        assert p.first.is_type1 != p.second.is_type1
        assert model.contains(p)


def test_known_carrier_elements(model):
    a = pair1(model, "a")
    assert a.second.payload.lower.is_empty
    assert str(a.second.payload.upper) == "abc"
    # the class twin of fq is {eq, fq}
    fq = pair1(model, "fq")
    assert {str(s) for s in fq.second.payload.members()} == {"eq", "fq"}
    assert len(list(fq.second.payload.members())) == 2
    mirrored = pair2(model, "bc")
    assert mirrored.first.is_type2 and str(mirrored.second) == "bc"
    abc = pair1(model, "abc")
    assert list(abc.second.payload.members()) == [model.cera.space.universe.parse("abc")]


def test_constants_lie_in_carrier(model):
    c = model.cera
    assert model.top_pair == DialecticalPair(c.top, c.one)
    assert model.one_pair == DialecticalPair(c.one, c.top)
    assert model.zero_pair == DialecticalPair(c.zero, c.bottom)
    assert model.bottom_pair == DialecticalPair(c.bottom, c.zero)
    for const in (model.top_pair, model.one_pair, model.zero_pair, model.bottom_pair):
        assert model.contains(const)


def test_sum_walkthrough_mixed_orientation_rejected(model):
    """(a, [a]) + ([fq], fq) has no value.

    The gate compares (fq (+) a) (+) 0, the class of afq with bounds
    (q, S), against a (+) [fq], the class of aefq with bounds (efq, S).
    """
    cera = model.cera
    u = cera.space.universe
    gate = cera.oplus(
        cera.oplus(model.second_pair(u.parse("fq")).second, pair1(model, "a").first),
        cera.zero,
    )
    assert (str(gate.payload.lower), str(gate.payload.upper)) == ("q", "S")
    target = cera.oplus(pair1(model, "a").first, model.second_pair(u.parse("fq")).first)
    assert (str(target.payload.lower), str(target.payload.upper)) == ("efq", "S")
    with pytest.raises(UndefinedResultError) as err:
        model.plus(pair1(model, "a"), pair2(model, "fq"))
    assert err.value.condition == "(e (+) a) (+) 0 = a (+) c fails"


def test_sum_same_orientation_cases(model):
    assert model.plus(pair1(model, "a"), pair1(model, "b")) == pair1(model, "ab")
    with pytest.raises(UndefinedResultError) as err:
        model.plus(pair1(model, "a"), pair1(model, "bc"))
    assert "outside the carrier" in err.value.condition


def test_sum_mixed_orientation_defined(model):
    assert model.plus(pair1(model, "e"), pair2(model, "f")) == pair2(model, "ef")
    # each argument order has its own gate: the mirrored order compares
    # the class join [f] | [e] against [ef] and is undefined here
    with pytest.raises(UndefinedResultError):
        model.plus(pair2(model, "f"), pair1(model, "e"))
    # on a definite first component both orders are defined and agree
    both = model.plus(pair1(model, "abc"), pair2(model, "ab"))
    assert both == pair2(model, "abc")
    assert model.plus(pair2(model, "ab"), pair1(model, "abc")) == both


def test_product_cases(model):
    abc = pair1(model, "abc")
    assert model.times(abc, abc) == abc
    q = pair1(model, "q")
    assert model.times(q, q) == q
    with pytest.raises(UndefinedResultError):
        model.times(pair1(model, "a"), pair1(model, "b"))
    assert model.times(pair1(model, "a"), pair2(model, "q")) == model.zero_pair


def test_product_side_condition_alone_is_not_enough(model):
    """(b, [b]) . ([b], b) passes its printed gate yet stays undefined.

    Both sides of the gate equal the zero class, but the componentwise
    value ([0], b) pairs the zero class with b itself, which is not an
    element of K.  The carrier check must therefore run after the gate.
    """
    cera = model.cera
    p, q = pair1(model, "b"), pair2(model, "b")
    gate = cera.commonality(cera.commonality(q.second, p.first), cera.zero)
    target = cera.commonality(p.first, q.first)
    assert gate == target == cera.zero
    with pytest.raises(UndefinedResultError) as err:
        model.times(p, q)
    assert err.value.condition == "componentwise product lies outside the carrier"


def test_interior_and_negation_are_total(model):
    for p in model.carrier:
        lp = model.l_star(p)
        np_ = model.sim_star(p)
        assert model.contains(lp) and model.contains(np_)
        assert model.l_star(lp) == lp
        assert model.sim_star(np_) == p


def test_interior_and_negation_examples(model):
    assert model.l_star(pair1(model, "a")) == model.bottom_pair
    abc = pair1(model, "abc")
    assert model.l_star(abc) == abc
    assert model.sim_star(model.bottom_pair) == model.top_pair
    assert model.sim_star(model.one_pair) == model.zero_pair


def test_operands_must_lie_in_carrier(model):
    stray = DialecticalPair(model.cera.top, model.cera.zero)
    with pytest.raises(ValueError):
        model.plus(stray, model.top_pair)
    with pytest.raises(ValueError):
        model.natural_parthood(model.top_pair, stray)


def test_defined_results_stay_in_carrier_and_commute(model):
    plus_results = {}
    times_results = {}
    for p in model.carrier:
        for q in model.carrier:
            for op, store in ((model.plus, plus_results), (model.times, times_results)):
                try:
                    r = op(p, q)
                except UndefinedResultError:
                    continue
                assert model.contains(r)
                store[(p, q)] = r
    assert plus_results and times_results
    for store in (plus_results, times_results):
        for (p, q), r in store.items():
            if (q, p) in store:
                assert store[(q, p)] == r


def test_natural_parthood_examples(model):
    assert model.natural_parthood(pair1(model, "a"), pair1(model, "ab"))
    assert not model.natural_parthood(pair1(model, "q"), pair1(model, "a"))
    # orientation does not matter: only the classes of the components do
    assert model.natural_parthood(pair1(model, "a"), pair2(model, "b"))
    assert model.natural_parthood(pair2(model, "b"), pair1(model, "a"))


def test_natural_parthood_is_a_preorder(model):
    cera = model.cera
    classes = [
        p.first.payload if p.first.is_type2 else cera.space.rough_class_of(p.first.payload)
        for p in model.carrier
    ]
    for p in model.carrier:
        assert model.natural_parthood(p, p)
    for i, p in enumerate(model.carrier):
        for j, q in enumerate(model.carrier):
            expected = cera.quotient.leq(classes[i], classes[j])
            assert model.natural_parthood(p, q) == expected
    order = cera.quotient
    for x in order.carrier:
        for y in order.carrier:
            if not order.leq(x, y):
                continue
            for z in order.carrier:
                if order.leq(y, z):
                    assert order.leq(x, z)


@settings(max_examples=20, deadline=None)
@given(spaces(max_atoms=3))
def test_random_spaces_closure(space):
    model = CradModel(CeraModel(space))
    assert len(model.carrier) == 2 * (1 << space.universe.size)
    for p in model.carrier:
        assert model.contains(model.l_star(p))
        assert model.contains(model.sim_star(p))
        for q in model.carrier:
            for op in (model.plus, model.times):
                try:
                    r = op(p, q)
                except UndefinedResultError:
                    continue
                assert model.contains(r)


def test_queries_never_enumerate_the_subsets(ten_atom_model, monkeypatch):
    """Loading a model and answering pair queries reads the bound masks only,
    and builds neither K nor the quotient carrier."""

    def refuse(self):
        raise AssertionError("a single query enumerated every subset")

    monkeypatch.setattr(Universe, "subsets", refuse)
    space = load_model(ten_atom_model).space
    model = CradModel(CeraModel(space))
    u = space.universe
    p, q = model.first_pair(u.parse("ad")), model.first_pair(u.parse("abcdef"))
    assert model.plus(p, q) == q
    assert model.times(p, q) == p
    assert model.natural_parthood(p, q)
    assert "carrier" not in model.__dict__
    assert "carrier" not in model.cera.quotient.__dict__
