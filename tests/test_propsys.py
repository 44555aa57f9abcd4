"""Property-system constructors against direct quantifier oracles."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughwork import Universe, UniverseMismatchError
from roughwork.propsys import PropertySystem


def _oracle_i_diamond(ps, a):
    return ps.properties.subset(
        h for h in ps.properties.atoms if any((g, h) in ps.manifests for g in a)
    )


def _oracle_e_diamond(ps, b):
    return ps.objects.subset(
        g for g in ps.objects.atoms if any((g, h) in ps.manifests for h in b)
    )


def _oracle_i_box(ps, a):
    return ps.properties.subset(
        h
        for h in ps.properties.atoms
        if all(g in a for g in ps.objects.atoms if (g, h) in ps.manifests)
    )


def _oracle_e_box(ps, b):
    return ps.objects.subset(
        g
        for g in ps.objects.atoms
        if all(h in b for h in ps.properties.atoms if (g, h) in ps.manifests)
    )


def _random_system(rng: random.Random, n_obj: int, n_prop: int) -> PropertySystem:
    objects = [f"g{i}" for i in range(1, n_obj + 1)]
    properties = [f"h{i}" for i in range(1, n_prop + 1)]
    pairs = [
        (g, h) for g in objects for h in properties if rng.random() < 0.5
    ]
    return PropertySystem.build(objects, properties, pairs)


def test_single_pair_examples():
    ps = PropertySystem.build(["g1", "g2"], ["h1", "h2"], [("g1", "h1")])
    o, p = ps.objects, ps.properties
    assert ps.i_diamond(o.parse("g1")) == p.parse("h1")
    assert ps.i_diamond(o.empty) == p.empty
    assert ps.e_diamond(p.parse("h1")) == o.parse("g1")
    assert ps.e_diamond(p.empty) == o.empty
    assert ps.i_box(o.parse("g2")) == p.parse("h2")
    assert ps.i_box(o.full) == p.full
    assert ps.e_box(p.parse("h1")) == o.full
    assert ps.e_box(p.full) == o.full


def test_full_and_empty_relations():
    objects, properties = ["g1", "g2"], ["h1", "h2"]
    full = PropertySystem.build(
        objects, properties, itertools.product(objects, properties)
    )
    o, p = full.objects, full.properties
    assert full.i_diamond(o.full) == p.full
    assert full.i_box(o.parse("g1")) == p.empty
    assert full.e_box(p.empty) == o.empty
    empty = PropertySystem.build(objects, properties, [])
    assert empty.e_diamond(empty.properties.full) == empty.objects.empty


def test_invalid_pairs_rejected():
    with pytest.raises(Exception):
        PropertySystem.build(["g1"], ["h1"], [("g1", "nope")])


def test_universe_mismatch():
    ps = PropertySystem.build(["g1"], ["h1"], [("g1", "h1")])
    with pytest.raises(UniverseMismatchError):
        ps.i_diamond(ps.properties.full)
    with pytest.raises(UniverseMismatchError):
        ps.e_box(ps.objects.full)


def test_constructors_match_oracles_on_every_relation_up_to_3x3():
    """Every relation of 1-3 objects and 1-3 properties, every operand, and
    an operand from the wrong side for each constructor."""
    for n_obj, n_prop in itertools.product(range(1, 4), repeat=2):
        objects = [f"g{i}" for i in range(1, n_obj + 1)]
        properties = [f"h{i}" for i in range(1, n_prop + 1)]
        all_pairs = list(itertools.product(objects, properties))
        for bits in range(1 << len(all_pairs)):
            pairs = [p for i, p in enumerate(all_pairs) if bits >> i & 1]
            ps = PropertySystem.build(objects, properties, pairs)
            for a in ps.objects.subsets():
                assert ps.i_diamond(a) == _oracle_i_diamond(ps, a)
                assert ps.i_box(a) == _oracle_i_box(ps, a)
            for b in ps.properties.subsets():
                assert ps.e_diamond(b) == _oracle_e_diamond(ps, b)
                assert ps.e_box(b) == _oracle_e_box(ps, b)
            for constructor, side, wrong in (
                (ps.i_diamond, "object", ps.properties.full),
                (ps.i_box, "object", ps.properties.full),
                (ps.e_diamond, "property", ps.objects.full),
                (ps.e_box, "property", ps.objects.full),
            ):
                with pytest.raises(UniverseMismatchError) as info:
                    constructor(wrong)
                assert str(info.value) == f"{wrong!r} is not over the {side} universe"


def test_adjunction_exhaustive_2x2():
    objects, properties = ["g1", "g2"], ["h1", "h2"]
    all_pairs = list(itertools.product(objects, properties))
    for bits in range(1 << len(all_pairs)):
        pairs = [p for i, p in enumerate(all_pairs) if bits >> i & 1]
        ps = PropertySystem.build(objects, properties, pairs)
        for a in ps.objects.subsets():
            for b in ps.properties.subsets():
                assert ps.e_diamond(b).is_subset_of(a) == b.is_subset_of(ps.i_box(a))


def test_adjunction_seeded_sample():
    rng = random.Random(90411)
    for _ in range(200):
        ps = _random_system(rng, rng.randint(1, 4), rng.randint(1, 4))
        for a in ps.objects.subsets():
            for b in ps.properties.subsets():
                assert ps.e_diamond(b).is_subset_of(a) == b.is_subset_of(ps.i_box(a))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_monotonicity_and_duality(data):
    rng = random.Random(data.draw(st.integers(0, 2**20)))
    ps = _random_system(rng, rng.randint(1, 4), rng.randint(1, 4))
    o, p = ps.objects, ps.properties
    a_mask = data.draw(st.integers(0, (1 << o.size) - 1))
    grow = data.draw(st.integers(0, (1 << o.size) - 1))
    a1, a2 = o.from_mask(a_mask), o.from_mask(a_mask | grow)
    assert ps.i_diamond(a1) <= ps.i_diamond(a2)
    assert ps.i_box(a1) <= ps.i_box(a2)
    b_mask = data.draw(st.integers(0, (1 << p.size) - 1))
    bgrow = data.draw(st.integers(0, (1 << p.size) - 1))
    b1, b2 = p.from_mask(b_mask), p.from_mask(b_mask | bgrow)
    assert ps.e_diamond(b1) <= ps.e_diamond(b2)
    assert ps.e_box(b1) <= ps.e_box(b2)
    assert ps.i_box(a1) == ps.i_diamond(a1.complement()).complement()
    assert ps.e_box(b1) == ps.e_diamond(b1.complement()).complement()
