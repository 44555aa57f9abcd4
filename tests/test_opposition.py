"""Opposition figures, reference catalog, combination profiles, TSR."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughwork.approx import ApproximationSpace
from roughwork.opposition import (
    BRANCH_POLICIES,
    COMBINATION_PATTERNS,
    CaseSpace,
    DegeneratePartitionWarning,
    Figure,
    MissingAnnotationError,
    NonClassicalValuationError,
    TruthGrade,
    classify_from_questions,
    classify_pair,
    combination_profile,
    hexagon,
    joint_consistency,
    reference_tables,
    tsr_step,
    tsr_walk,
)


def test_question_table_is_a_bijection():
    assert classify_from_questions(False, False) is Figure.CONTRADICTION
    assert classify_from_questions(False, True) is Figure.CONTRARIETY
    assert classify_from_questions(True, False) is Figure.SUB_CONTRARIETY
    assert classify_from_questions(True, True) is Figure.SUB_ALTERNATION
    outputs = {classify_from_questions(tt, ff) for tt in (0, 1) for ff in (0, 1)}
    assert outputs == set(Figure)


def test_classify_pair_on_region_sentences(example_space):
    worlds = example_space.universe.atoms
    cs = CaseSpace.from_sets(worlds, {"inL": {"e", "f"}, "inE": {"q"}})
    got = classify_pair(cs, "inL", "inE")
    assert got.figure is Figure.CONTRARIETY
    assert got.row_profile == {"TT": "NP", "TF": "T", "FT": "T", "FF": "T"}


def test_classify_pair_degenerate_and_complement_cases():
    cs = CaseSpace.from_sets(
        ("w1", "w2", "w3"), {"A": {"w1"}, "coA": {"w2", "w3"}}
    )
    assert classify_pair(cs, "A", "A").figure is Figure.SUB_ALTERNATION
    assert classify_pair(cs, "A", "coA").figure is Figure.CONTRADICTION


def test_classify_pair_rejects_gluts_in_classical_mode():
    cs = CaseSpace(("w",), {"A": {"w": (1, 1)}, "B": {"w": (0, 1)}})
    with pytest.raises(NonClassicalValuationError):
        classify_pair(cs, "A", "B")
    # off the classical reading the t bits are used as-is
    assert classify_pair(cs, "A", "B", classical=False).tt_possible is False


def test_case_space_validation():
    with pytest.raises(ValueError, match="at least one world"):
        CaseSpace((), {})
    with pytest.raises(ValueError, match="unvalued"):
        CaseSpace(("w1", "w2"), {"A": {"w1": (1, 0)}})
    # A valuation at a world the space does not list is refused, not dropped.
    with pytest.raises(ValueError, match="sentence 'A' valued at unlisted world 'w9'"):
        CaseSpace(("w1",), {"A": {"w1": (1, 0), "w9": (1, 1)}})
    with pytest.raises(ValueError, match="world 'w1' listed twice"):
        CaseSpace(("w1", "w1"), {"A": {"w1": (1, 0)}})


def test_case_space_checks_each_valuation_shape_before_unpacking_it():
    for value in (5, (1, 0, 1), (1,), None, "tf", (2, -1), (1, 2)):
        with pytest.raises(ValueError, match=r"valuations must be \(t, f\) bit pairs"):
            CaseSpace(("w1",), {"A": {"w1": value}})


def test_hexagon_worked_example(example_space):
    x = example_space.universe.parse("aef")
    report = hexagon(example_space, x)
    assert report.degenerate == ()
    shown = {name: str(sub) for name, sub in report.nodes.items()}
    assert shown == {
        "L": "ef",
        "B": "abc",
        "E": "q",
        "U": "abcef",
        "Lc": "abcq",
        "LE": "efq",
    }
    for pair in (("L", "B"), ("B", "E"), ("L", "E")):
        assert report.figure_of(*pair) is Figure.CONTRARIETY
    assert report.figure_of("U", "Lc") is Figure.SUB_CONTRARIETY
    assert report.figure_of("L", "U") is Figure.SUB_ALTERNATION
    assert report.figure_of("L", "Lc") is Figure.CONTRADICTION


def test_hexagon_flags_definite_sets(example_space):
    x = example_space.universe.parse("abc")
    with pytest.warns(DegeneratePartitionWarning, match="B"):
        report = hexagon(example_space, x)
    assert report.degenerate == ("B",)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_hexagon_invariants_hold_on_random_spaces(data):
    # one block fully inside, one split by the cut, one fully outside
    atoms = tuple("uvwxyz")
    ordering = data.draw(st.permutations(atoms))
    k1 = data.draw(st.integers(min_value=1, max_value=2))
    k2 = data.draw(st.integers(min_value=2, max_value=3))
    inside, split, outside = (
        ordering[:k1],
        ordering[k1 : k1 + k2],
        ordering[k1 + k2 :],
    )
    space = ApproximationSpace.from_partition(atoms, [inside, split, outside])
    cut = data.draw(st.integers(min_value=1, max_value=len(split) - 1))
    x = space.universe.subset(set(inside) | set(split[:cut]))
    report = hexagon(space, x)
    assert report.degenerate == ()
    for pair in (("L", "B"), ("B", "E"), ("L", "E")):
        assert report.figure_of(*pair) is Figure.CONTRARIETY
    assert report.figure_of("U", "Lc") is Figure.SUB_CONTRARIETY
    assert report.figure_of("L", "Lc") is Figure.CONTRADICTION
    assert classify_pair(
        CaseSpace.from_sets(
            atoms,
            {
                "inL": set(report.nodes["L"].atom_names()),
                "inU": set(report.nodes["U"].atom_names()),
            },
        ),
        "inL",
        "inU",
    ).row_profile["TF"] == "NP"


FROZEN_CATALOG = (
    ("AP/APN resolution", ("IN", "T", "T", "IN"), "Contradiction?"),
    ("AP/AP0 resolution", ("IN", "T", "T", "IN"), "Contradiction?"),
    ("CP/CPN resolution", ("NP", "T", "T", "NP"), "Contradiction"),
    ("CP/CP0 resolution", ("NP", "T", "T", "T"), "Contrariety"),
    ("CPN/CP0 resolution", ("NP", "T", "T", "NP"), "Contradiction"),
    ("CI/CP resolution", ("T", "NP", "T", "T"), "Sub-alternation"),
    ("AP/APN simultaneity", ("NP", "NP"), "Contradiction"),
    ("AP/AP0 simultaneity", ("T", "NP"), "Sub-Contrariety"),
    ("CP/CPN simultaneity", ("NP", "NP"), "Contradiction"),
    ("CP/CP0 simultaneity", ("NP", "NP"), "Contradiction"),
    ("CPN/CP0 simultaneity", ("NP", "NP"), "Contradiction"),
    ("CI/CP simultaneity", ("T", "T"), "Sub-alternation"),
)


def test_reference_catalog_matches_the_frozen_transcription():
    tables = reference_tables()
    assert len(tables) == 12
    for table, (name, entries, label) in zip(tables, FROZEN_CATALOG):
        assert table.name == name
        assert table.label == label
        assert tuple(row[2] for row in table.rows) == entries
        expected_patterns = (
            (("T", "T"), ("T", "F"), ("F", "T"), ("F", "F"))
            if table.kind == "resolution"
            else (("T", "T"), ("F", "F"))
        )
        assert tuple(row[:2] for row in table.rows) == expected_patterns
    # IN entries never collapse into another value
    assert {row[2] for t in tables[:2] for row in t.rows} == {"IN", "T"}


def _by_name():
    return {t.name: t for t in reference_tables()}


def test_joint_consistency_single_table():
    result = joint_consistency([_by_name()["AP/APN simultaneity"]])
    assert result.satisfiable
    assert result.model["AP"] != result.model["APN"]


def test_joint_consistency_exactly_one_triangle_is_unsatisfiable():
    by = _by_name()
    trio = [
        by["CP/CPN simultaneity"],
        by["CP/CP0 simultaneity"],
        by["CPN/CP0 simultaneity"],
    ]
    result = joint_consistency(trio)
    assert not result.satisfiable
    assert result.model is None
    assert result.assignments_checked == 8


def test_joint_consistency_trivial_and_resolution_inputs():
    assert joint_consistency([]).satisfiable
    got = joint_consistency([_by_name()["CI/CP resolution"]])
    assert got.satisfiable
    # the NP row rules out CI true with CP false
    assert not (got.model["CI"] and not got.model["CP"])


def test_combination_profile_classical_complements():
    cs = CaseSpace.from_sets(("w1", "w2"), {"A": {"w1"}, "B": {"w2"}})
    assert combination_profile(cs, "A", "B") == frozenset()


def test_combination_profile_reads_gluts_as_delta():
    cs = CaseSpace(
        ("w1", "w2"),
        {"A": {"w1": (1, 1), "w2": (0, 1)}, "B": {"w1": (1, 0), "w2": (0, 1)}},
    )
    profile = combination_profile(cs, "A", "B")
    assert profile == {"T/T", "F/F", "delta/T"}
    annotated = combination_profile(
        cs, "A", "B", beta={"A": True, "B": False}, bet={("A", "B"): True}
    )
    assert "bet/bet" in annotated
    assert "beta/T" in annotated and "delta/bet" in annotated
    assert "beta/beta" not in annotated


def test_combination_profile_missing_annotation():
    cs = CaseSpace.from_sets(("w",), {"A": {"w"}, "B": {"w"}})
    with pytest.raises(MissingAnnotationError):
        combination_profile(cs, "A", "B", beta={"A": True})
    with pytest.raises(MissingAnnotationError):
        combination_profile(cs, "A", "B", beta={"A": True, "B": True}, bet={})


def test_combination_pattern_list_is_the_published_column_order():
    assert COMBINATION_PATTERNS[:4] == (
        ("T", "T"),
        ("F", "F"),
        ("bet", "bet"),
        ("delta", "delta"),
    )
    assert len(COMBINATION_PATTERNS) == 12


def test_tsr_single_steps():
    assert tsr_step(TruthGrade.TRUE, "oppose") is TruthGrade.F_MINUS
    assert tsr_step(TruthGrade.TRUE, "oppose", "weak-truth") is TruthGrade.T_MINUS
    assert tsr_step(TruthGrade.TRUE, "support") is TruthGrade.T_LOW_STAR
    assert tsr_step(TruthGrade.FALSE, "oppose") is TruthGrade.FALSE
    assert tsr_step(TruthGrade.T_STAR, "support") is TruthGrade.T_STAR
    assert tsr_step(TruthGrade.FALSE, "support") is TruthGrade.F_LOW_MINUS
    assert tsr_step(TruthGrade.FALSE, "support", "weak-truth") is TruthGrade.T_LOW_MINUS


def test_tsr_walk_and_saturation_bound():
    trace = tsr_walk(TruthGrade.T_STAR, ["oppose"] * 7)
    assert [g.value for g in trace] == ["T*", "T_*", "T", "F^-", "F_-", "F", "F", "F"]
    for grade in TruthGrade:
        for evidence in ("support", "oppose"):
            for policy in BRANCH_POLICIES:
                state = grade
                for _ in range(7):
                    state = tsr_step(state, evidence, policy)
                assert tsr_step(state, evidence, policy) is state


def test_tsr_input_validation():
    with pytest.raises(ValueError, match="evidence"):
        tsr_step(TruthGrade.TRUE, "waffle")
    with pytest.raises(ValueError, match="policy"):
        tsr_step(TruthGrade.TRUE, "oppose", "coin-flip")
    assert TruthGrade.from_name("T_*") is TruthGrade.T_LOW_STAR
    with pytest.raises(ValueError, match="grade"):
        TruthGrade.from_name("T**")
