"""Closure modes, IPC rule application, discernibility square."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughwork.counting import (
    CountTag,
    UnknownElementError,
    close,
    discernibility_square,
    ipc,
)
from roughwork.opposition import Figure

ELEMENTS = tuple("fbcakinhelgm")
PAIRS = [
    ("a", "b"),
    ("b", "c"),
    ("e", "f"),
    ("i", "k"),
    ("l", "m"),
    ("m", "n"),
    ("g", "h"),
]
SEQUENCE = list("fbcakinhelgm")

# what the three rules actually produce for the sequence above
LITERAL_TAGS = "1_1 2_1 1_2 1_3 2_3 1_4 2_4 3_4 4_4 5_4 6_4 7_4".split()
# the displayed line in the source text; it departs from the rules at
# the ninth step by opening blocks with no related predecessor
DISPLAYED_TAGS = "1_1 2_1 1_2 1_3 2_3 1_4 2_4 3_4 1_5 2_5 1_6 2_6".split()


def test_equivalence_closure_relates_the_chain():
    rel = close("abc", [("a", "b"), ("b", "c")])
    assert all(rel.holds(x, y) for x in "abc" for y in "abc")


def test_empty_pairs_close_to_the_diagonal():
    rel = close("abc", [])
    assert sorted(rel.related) == [("a", "a"), ("b", "b"), ("c", "c")]


def test_directed_closure_keeps_orientation():
    rel = close("abc", [("a", "b"), ("b", "c")], mode="reflexive-transitive")
    assert rel.holds("a", "c")
    assert not rel.holds("c", "a")


def test_closure_input_validation():
    with pytest.raises(ValueError, match="closure mode"):
        close("ab", [], mode="symmetric")
    with pytest.raises(UnknownElementError):
        close("ab", [("a", "z")])


def test_worked_sequence_follows_the_rules_literally():
    rel = close(ELEMENTS, PAIRS)
    tags = [str(t) for t in ipc(SEQUENCE, rel)]
    assert tags == LITERAL_TAGS


def test_displayed_fixture_diverges_only_in_the_tail():
    assert LITERAL_TAGS[:8] == DISPLAYED_TAGS[:8]
    assert all(a != b for a, b in zip(LITERAL_TAGS[8:], DISPLAYED_TAGS[8:]))
    # the displayed tail opens fresh blocks although e, l, g, m are
    # unrelated to their immediate predecessors
    rel = close(ELEMENTS, PAIRS)
    for prev, cur in (("h", "e"), ("e", "l"), ("l", "g"), ("g", "m")):
        assert not rel.holds(prev, cur)


def test_degenerate_sequences():
    rel = close(ELEMENTS, PAIRS)
    assert ipc([], rel) == []
    assert [str(t) for t in ipc(["e"], rel)] == ["1_1"]
    with pytest.raises(UnknownElementError):
        ipc(["e", "z"], rel)


def test_count_tag_validation_and_round_trip():
    with pytest.raises(ValueError):
        CountTag(block=0, value=1)
    with pytest.raises(ValueError):
        CountTag(block=1, value=0)
    tag = CountTag.parse("7_4")
    assert (tag.value, tag.block) == (7, 4)
    assert str(tag) == "7_4"
    assert CountTag(block=1, value=2) < CountTag(block=2, value=1)


def _assert_structural(tags):
    if not tags:
        return
    assert tags[0] == CountTag(block=1, value=1)
    for prev, cur in zip(tags, tags[1:]):
        if cur.block != prev.block:
            assert cur.block == prev.block + 1
            assert cur.value == 1
        else:
            assert cur.value == prev.value + 1


def test_worked_sequence_structural_invariants():
    rel = close(ELEMENTS, PAIRS)
    _assert_structural(ipc(SEQUENCE, rel))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_random_instances_keep_structure_and_determinism(data):
    size = data.draw(st.integers(min_value=1, max_value=7))
    elements = tuple("abcdefgh"[:size])
    pairs = data.draw(
        st.lists(
            st.tuples(st.sampled_from(elements), st.sampled_from(elements)),
            max_size=10,
        )
    )
    mode = data.draw(st.sampled_from(("equivalence", "reflexive-transitive")))
    rel = close(elements, pairs, mode=mode)
    sequence = data.draw(st.lists(st.sampled_from(elements), max_size=12))
    tags = ipc(sequence, rel)
    assert len(tags) == len(sequence)
    _assert_structural(tags)
    assert tags == ipc(sequence, rel)
    # blocks never decrease and values stay positive
    assert all(a.block <= b.block for a, b in zip(tags, tags[1:]))


def test_discernibility_square_on_the_worked_relation():
    square = discernibility_square(close(ELEMENTS, PAIRS))
    assert square.figure_of("IS", "IS.NOT") is Figure.CONTRADICTION
    assert square.figure_of("IND", "DIS") is Figure.CONTRADICTION
    assert square.figure_of("IND", "IS.NOT") is Figure.SUB_CONTRARIETY
    assert square.figure_of("IS", "IND") is Figure.SUB_ALTERNATION
    assert square.holds("IND", "a", "c")
    assert square.holds("DIS", "a", "e")
    assert not square.holds("IS", "a", "c")


def test_discernibility_square_refuses_elements_outside_the_carrier():
    """As the relation does, for every predicate and either side of the pair."""
    rel = close("ab", [("a", "b")])
    square = discernibility_square(rel)
    for predicate in ("IS", "IS.NOT", "IND", "DIS"):
        for pair in (("zz", "a"), ("a", "zz")):
            with pytest.raises(UnknownElementError, match="unknown element 'zz'"):
                square.holds(predicate, *pair)
    with pytest.raises(UnknownElementError, match="unknown element 'zz'"):
        rel.holds("zz", "a")


def test_discernibility_square_collapses_on_the_diagonal_relation():
    square = discernibility_square(close("ab", []))
    # with no indiscernibility beyond identity the pair turns into a
    # plain contradiction
    assert square.figure_of("IND", "IS.NOT") is Figure.CONTRADICTION
    assert square.extents["IS"] == square.extents["IND"]
