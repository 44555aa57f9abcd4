"""Approximation space core: oracles, frozen example values, order structure.

The oracle functions recompute approximations atom by atom, independently
of the block-scan implementation under test.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixture_data
import roughwork
from roughwork import (
    ApproximationSpace,
    RoughClass,
    Subset,
    Universe,
    UniverseMismatchError,
    UnknownAtomError,
)
from roughwork.approx import ApproxTriple
from roughwork.cera import CeraModel, MixedElement
from roughwork.crad import CradModel
from roughwork.granular import GranularModel, OperatorTable, search_admissible_granulations
from roughwork.parthood import ParthoodKind, holds
from roughwork.prerough import quotient_algebra

ATOM_POOL = "abcdefgh"

# The package's public names, each defined by one of its modules.
EXPORTS = [
    "ApproxTriple", "ApproximationSpace", "BoundedPoset", "CaseSpace", "CeraModel",
    "CountTag", "CradModel", "DialecticalPair", "Figure", "FiniteAlgebraCandidate",
    "GranularModel", "IndiscernibilityRelation", "LoadedModel", "MixedElement",
    "ModelFormatError", "NegationProfile", "OperatorTable", "ParthoodKind", "PropertySystem",
    "QuotientAlgebra", "RoughClass", "SpaceMismatchError", "Subset", "UnaryOp",
    "UndefinedOperationError", "UndefinedResultError", "Universe", "UniverseMismatchError",
    "UnknownAtomError", "analyze", "check_admissibility", "check_essential_pre_rough",
    "check_gos_axioms", "check_negation", "check_pre_rough", "classify_from_questions",
    "classify_pair", "close", "falsify_theorem", "hexagon", "holds", "ipc",
    "joint_consistency", "load_model", "quotient_algebra", "reference_tables",
    "search_admissible_granulations",
]


def _lower_oracle(space: ApproximationSpace, x: Subset) -> Subset:
    keep = [
        a
        for a in space.universe.atoms
        if all(m in x for m in space.block_of(a))
    ]
    return space.universe.subset(keep)


def _upper_oracle(space: ApproximationSpace, x: Subset) -> Subset:
    keep = [
        a
        for a in space.universe.atoms
        if any(m in x for m in space.block_of(a))
    ]
    return space.universe.subset(keep)


@st.composite
def spaces(draw, max_atoms: int = 6) -> ApproximationSpace:
    n = draw(st.integers(1, max_atoms))
    atoms = tuple(ATOM_POOL[:n])
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups: dict[int, list[str]] = {}
    for atom, label in zip(atoms, labels):
        groups.setdefault(label, []).append(atom)
    return ApproximationSpace.from_partition(atoms, list(groups.values()))


def test_package_exports_its_public_names_and_no_module():
    assert sorted(roughwork.__all__) == EXPORTS
    for name in EXPORTS:
        obj = getattr(roughwork, name)
        assert obj.__module__.startswith("roughwork.") and obj.__name__ == name
        assert getattr(sys.modules[obj.__module__], name) is obj
    namespace: dict = {}
    exec("from roughwork import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS


def test_lower_upper_match_oracle_exhaustively(example_space):
    for x in example_space.universe.subsets():
        assert example_space.lower(x) == _lower_oracle(example_space, x)
        assert example_space.upper(x) == _upper_oracle(example_space, x)


def test_known_approximations(example_space):
    u = example_space.universe
    assert example_space.lower(u.parse("aq")) == u.parse("q")
    assert example_space.lower(u.empty) == u.empty
    assert example_space.lower(u.parse("abc")) == u.parse("abc")
    assert example_space.upper(u.parse("bf")) == u.parse("abcef")
    assert example_space.upper(u.full) == u.full
    assert example_space.upper(u.parse("eq")) == u.parse("efq")


def test_triples_match_frozen_listing(example_space):
    u = example_space.universe
    triples = example_space.triples()
    assert len(triples) == 63
    by_subset = {t.x: t for t in triples}
    assert len(by_subset) == 63
    for x_s, lo_s, up_s in fixture_data.PRINTED_TRIPLES:
        t = by_subset[u.parse(x_s)]
        assert t.lower == u.parse(lo_s), f"lower of {x_s}"
        assert t.upper == u.parse(up_s), f"upper of {x_s}"
    for x_s, (lo_s, up_s) in fixture_data.OMITTED_TRIPLES.items():
        t = by_subset[u.parse(x_s)]
        assert (t.lower, t.upper) == (u.parse(lo_s), u.parse(up_s))


def test_triples_canonical_order(example_space):
    masks = [t.x.mask for t in example_space.triples()]
    assert masks == list(range(1, 64))
    assert repr(example_space.triples()[5]) == "(bc, 0, abc)"


def test_rough_eq(example_space):
    u = example_space.universe
    assert example_space.rough_eq(u.parse("ab"), u.parse("bc"))
    assert example_space.rough_eq(u.parse("aq"), u.parse("aq"))
    assert not example_space.rough_eq(u.parse("abc"), u.parse("ab"))


def test_rough_classes_match_frozen_listing(example_space):
    u = example_space.universe
    classes = example_space.rough_classes()
    assert len(classes) == 17
    got = {frozenset(m.mask for m in c.members()) for c in classes}
    want = {
        frozenset(u.parse(s).mask for s in listing)
        for listing in fixture_data.CLASS_LISTING
    }
    assert got == want


def test_rough_classes_partition_nonempty_subsets(example_space):
    classes = example_space.rough_classes()
    seen: set[int] = set()
    for c in classes:
        for m in c.members():
            assert not m.is_empty
            assert m.mask not in seen
            seen.add(m.mask)
            assert example_space.lower(m) == c.lower
            assert example_space.upper(m) == c.upper
    assert len(seen) == 63


def test_class_of_empty_set_is_separate(example_space):
    zero = example_space.rough_class_of(example_space.universe.empty)
    assert zero.lower.is_empty and zero.upper.is_empty
    assert list(zero.members()) == [example_space.universe.empty]
    assert len(example_space.rough_classes(include_empty=True)) == 18


def test_rough_class_rejects_singleton_boundary(example_space):
    u = example_space.universe
    with pytest.raises(ValueError):
        RoughClass(example_space, u.empty, u.parse("q"))


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_rough_class_rejects_bounds_over_a_foreign_universe(flags):
    """The kernel sees only masks, so the universe check must survive -O."""
    code = (
        "from roughwork import ApproximationSpace, RoughClass, Universe, UniverseMismatchError\n"
        "space = ApproximationSpace.from_partition('ab', [['a', 'b']])\n"
        "u, other = space.universe, Universe(['x', 'y'])\n"
        "for make in (\n"
        "    lambda: RoughClass(space, other.empty, u.full),\n"
        "    lambda: RoughClass(space, u.empty, other.full),\n"
        "    lambda: RoughClass(space, other.empty, other.full),\n"
        "    lambda: RoughClass(space, u.empty, u.full).contains(other.full),\n"
        "):\n"
        "    try:\n"
        "        make()\n"
        "    except UniverseMismatchError as exc:\n"
        "        print('rejected:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.splitlines()
    assert len(out) == 4 and all(line.startswith("rejected: ") for line in out)


def test_definiteness(example_space):
    u = example_space.universe
    assert example_space.definiteness(u.parse("efq")) == {
        "lowerDefinite": True,
        "upperDefinite": True,
        "definite": True,
    }
    assert example_space.definiteness(u.empty)["definite"]
    assert example_space.definiteness(u.parse("aq")) == {
        "lowerDefinite": False,
        "upperDefinite": False,
        "definite": False,
    }


def test_quotient_order_bounds_and_laws(example_space):
    poset = quotient_algebra(example_space)
    assert len(poset.carrier) == 18
    bottom, top = poset.zero, poset.one
    assert (bottom.lower.mask, bottom.upper.mask) == (0, 0)
    assert top.lower == example_space.universe.full
    assert top.upper == example_space.universe.full
    els = poset.carrier
    for a in els:
        assert poset.leq(a, a)
        assert poset.leq(bottom, a) and poset.leq(a, top)
    for a in els:
        for b in els:
            if poset.leq(a, b) and poset.leq(b, a):
                assert a == b
            for c in els:
                if poset.leq(a, b) and poset.leq(b, c):
                    assert poset.leq(a, c)


def test_quotient_order_example_pair(example_space):
    u = example_space.universe
    cls_a = example_space.rough_class_of(u.parse("a"))
    cls_abcq = example_space.rough_class_of(u.parse("abcq"))
    poset = quotient_algebra(example_space)
    assert poset.leq(cls_a, cls_abcq)
    assert not poset.leq(cls_abcq, cls_a)


def test_maximal_antichains_on_chain():
    space = ApproximationSpace.from_partition("ab", [["a", "b"]])
    poset = quotient_algebra(space)
    # 3-chain: [empty] < [a] (bounds (0, ab)) < [ab]
    chains = poset.maximal_antichains(limit=10)
    assert sorted(len(c) for c in chains) == [1, 1, 1]
    assert {c[0] for c in chains} == set(poset.carrier)


def test_maximal_antichains_properties(example_space):
    poset = quotient_algebra(example_space)
    families = poset.maximal_antichains(limit=40)
    assert families, "expected at least one maximal antichain"
    assert families == poset.maximal_antichains(limit=40)
    for fam in families:
        assert poset.is_antichain(fam)
        for extra in poset.carrier:
            if extra in fam:
                continue
            assert not poset.is_antichain(tuple(fam) + (extra,)), (
                f"{fam} extendable by {extra}"
            )
    assert len(poset.maximal_antichains(limit=3)) == 3


def test_duality_exhaustive(example_space):
    for x in example_space.universe.subsets():
        assert example_space.upper(x) == example_space.lower(x.complement()).complement()


@settings(max_examples=60, deadline=None)
@given(spaces(), st.data())
def test_space_properties_random(space, data):
    n = space.universe.size
    mask = data.draw(st.integers(0, (1 << n) - 1))
    other = data.draw(st.integers(0, (1 << n) - 1))
    x = space.universe.from_mask(mask)
    y = space.universe.from_mask(mask | other)
    lo, up = space.lower(x), space.upper(x)
    assert lo <= x <= up
    assert space.lower(lo) == lo
    assert space.upper(up) == up
    assert space.lower(x) <= space.lower(y)
    assert space.upper(x) <= space.upper(y)
    assert up == space.lower(x.complement()).complement()


def test_serialization_round_trip(example_space):
    u = example_space.universe
    for x in u.subsets():
        assert u.parse(str(x)) == x
    assert str(u.empty) == "0"
    assert str(u.full) == "S"


def test_parse_rejects_unknown_atoms(example_space):
    with pytest.raises(UnknownAtomError):
        example_space.universe.parse("az")


def test_universe_mismatch_raises(example_space):
    other = Universe("xy")
    with pytest.raises(UniverseMismatchError):
        example_space.lower(other.parse("x"))
    with pytest.raises(UniverseMismatchError):
        example_space.universe.parse("a").union(other.parse("x"))
    with pytest.raises(UniverseMismatchError):
        example_space.universe.parse("a").intersection(other.parse("x"))


def test_universe_size_cap():
    names = [f"t{i}" for i in range(17)]
    with pytest.raises(ValueError):
        Universe(names)
    assert Universe(names, max_atoms=32).size == 17


def test_member_enumeration_counts(example_space):
    for c in example_space.rough_classes():
        members = list(c.members())
        assert len(members) == c.member_count()
        assert len(set(m.mask for m in members)) == len(members)
        sample = c.sample_member()
        assert sample in members
        assert all(sample.mask <= m.mask or sample.mask < m.mask for m in members)
        assert min(m.mask for m in members) == sample.mask


def test_from_pairs_builds_least_equivalence():
    space = ApproximationSpace.from_pairs("abcd", [("a", "b"), ("b", "a")])
    assert {str(b) for b in space.blocks} == {"ab", "c", "d"}
    # equal spaces over equal universes, built apart, hash equal
    same = ApproximationSpace.from_partition("abcd", [["a", "b"], ["c"], ["d"]])
    assert same == space and hash(same) == hash(space)
    assert same.universe is not space.universe and hash(same.universe) == hash(space.universe)


def test_block_of_every_atom_and_unknown_atoms(example_space):
    for block in example_space.blocks:
        for name in block:
            assert example_space.block_of(name) is block
    with pytest.raises(UnknownAtomError, match="unknown atom 'z'"):
        example_space.block_of("z")


def test_subset_names_complement_and_text_on_every_mask():
    u = Universe(["a", "bb", "c", "dd", "e"])
    full = (1 << u.size) - 1
    for mask in range(1 << u.size):
        x = u.from_mask(mask)
        names = tuple(name for i, name in enumerate(u.atoms) if mask >> i & 1)
        assert x.atom_names() == names
        assert x.complement().mask == full ^ mask
        assert str(x) == {0: "0", full: "S"}.get(mask, "".join(names))



def _assign_mask():
    Universe("ab").parse("a").mask = 1


def _refusals() -> dict:
    """Each call, by name, with the error type and text it raises."""
    ab, xy = Universe("ab"), Universe("xy")
    space = ApproximationSpace.from_partition("ab", [["a", "b"]])
    a, b = ab.parse("a"), ab.parse("b")
    ident = OperatorTable.from_callable(ab, lambda x: x)
    foreign = OperatorTable.from_callable(xy, lambda x: x)
    model = CeraModel(space)
    out_of_range = "mask {} out of range for Universe(['a', 'b'])"
    return {
        "empty-universe": (
            lambda: Universe([]),
            ValueError,
            "universe must contain at least one atom",
        ),
        "mask-above-range": (lambda: Subset(ab, 4), ValueError, out_of_range.format("0x4")),
        "mask-below-range": (lambda: Subset(ab, -1), ValueError, out_of_range.format("-0x1")),
        "subset-assignment": (_assign_mask, AttributeError, "Subset is immutable"),
        "triple-sandwich": (
            lambda: ApproxTriple(a, b, ab.full),
            ValueError,
            "(a, b, S) breaks lower <= x <= upper",
        ),
        "foreign-block": (
            lambda: ApproximationSpace(ab, [xy.full]),
            UniverseMismatchError,
            "block over a foreign universe",
        ),
        "empty-block": (
            lambda: ApproximationSpace(ab, [ab.empty, ab.full]),
            ValueError,
            "blocks must be nonempty",
        ),
        "type1-payload": (
            lambda: MixedElement.type1("a"),
            TypeError,
            "type-1 elements hold subsets, got 'a'",
        ),
        "type2-payload": (
            lambda: MixedElement.type2(a),
            TypeError,
            "type-2 elements hold rough classes, got <Subset a>",
        ),
        "foreign-table-output": (
            lambda: OperatorTable.from_callable(ab, lambda x: xy.empty),
            UniverseMismatchError,
            "operator output over foreign universe",
        ),
        "foreign-table-input": (
            lambda: ident(xy.empty),
            UniverseMismatchError,
            "<Subset 0> not over the table's universe",
        ),
        "no-granules": (
            lambda: GranularModel(ab, (), ident, ident),
            ValueError,
            "granule list must be nonempty",
        ),
        "foreign-granule": (
            lambda: GranularModel(ab, (xy.full,), ident, ident),
            UniverseMismatchError,
            "granule over a foreign universe",
        ),
        "empty-granule": (
            lambda: GranularModel(ab, (ab.empty,), ident, ident),
            ValueError,
            "granules must be nonempty",
        ),
        # Underlap quantifies over distinct granules, so a repeat would flip it.
        "repeated-granule": (
            lambda: GranularModel(ab, (a, ab.full, a), ident, ident),
            ValueError,
            "granule a listed twice",
        ),
        "search-no-granules": (
            lambda: search_admissible_granulations(ident, ident, 0),
            ValueError,
            "max_granules must be at least 1",
        ),
        "search-two-universes": (
            lambda: search_admissible_granulations(ident, foreign, 2),
            UniverseMismatchError,
            "operator tables over different universes",
        ),
        "subset-parthood-on-mixed-elements": (
            lambda: holds(ParthoodKind.CAUTIOUS, space, model.one, model.one),
            TypeError,
            "cautious parthood compares plain subsets",
        ),
        "mixed-parthood-on-subsets": (
            lambda: holds(ParthoodKind.ADDITIVE, model, a, b),
            TypeError,
            "additive parthood compares mixed elements",
        ),
        "natural-parthood-on-subsets": (
            lambda: holds(ParthoodKind.NATURAL_CRAD, CradModel(model), a, b),
            TypeError,
            "natural parthood compares dialectical pairs",
        ),
        "no-antichains": (
            lambda: quotient_algebra(space).maximal_antichains(0),
            ValueError,
            "limit must be at least 1",
        ),
    }


REFUSALS = _refusals()


@pytest.mark.parametrize("case", list(REFUSALS))
def test_library_refuses_bad_input_with_its_own_error(case):
    """Checks that no other test reaches, each with its typed error and
    exact text; ``pytest.raises`` still checks both under ``python -O``."""
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
