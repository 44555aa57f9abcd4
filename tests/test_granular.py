"""Granular models: operator axioms, admissibility, inverse search."""

from __future__ import annotations

import dataclasses
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scan_oracles as oracle
from fixture_data import TEN_ATOM_MODEL
from roughwork import ApproximationSpace, Subset, Universe, UniverseMismatchError, granular
from roughwork.granular import (
    INCLUSION,
    GranularModel,
    OperatorTable,
    SearchCapExceededError,
    check_admissibility,
    check_gos_axioms,
    from_space,
    search_admissible_granulations,
)
from scan_oracles import ADMISSIBLE, generated_field_masks


@pytest.fixture(scope="module")
def example_model(example_space) -> GranularModel:
    return from_space(example_space)


def test_from_space_granules_and_tables(example_space, example_model):
    u = example_space.universe
    assert {str(g) for g in example_model.granules} == {"abc", "ef", "q"}
    assert example_model.lower(u.parse("aq")) == u.parse("q")
    assert example_model.upper(u.parse("bf")) == u.parse("abcef")
    single = from_space(ApproximationSpace.from_partition("ab", [["a", "b"]]))
    assert [str(g) for g in single.granules] == ["S"]


def test_gos_axioms_pass_on_classical(example_model):
    report = check_gos_axioms(example_model)
    assert report.all_pass, repr(report)
    assert repr(report) == "<AxiomReport all pass>"


def test_gos_strict_upper_fails_on_classical(example_model):
    report = check_gos_axioms(example_model, strict_upper=True)
    assert not report["upper-strict-expansion"].passed
    assert repr(report) == "<AxiomReport failing: upper-strict-expansion>"


def test_gos_monotonicity_witness(example_space):
    u = example_space.universe
    broken = OperatorTable.from_callable(
        u, lambda x: u.empty if x == u.full else x
    )
    model = GranularModel(
        universe=u,
        granules=tuple(example_space.blocks),
        lower_op=broken,
        upper_op=OperatorTable.from_callable(u, example_space.upper),
    )
    report = check_gos_axioms(model)
    check = report["lower-monotonicity"]
    assert not check.passed
    x, y = check.witness
    assert x <= y and not broken(x) <= broken(y)


def test_gos_constant_empty_lower_passes_lower_axioms(example_space):
    u = example_space.universe
    const = OperatorTable.from_callable(u, lambda x: u.empty)
    model = GranularModel(
        universe=u,
        granules=tuple(example_space.blocks),
        lower_op=const,
        upper_op=OperatorTable.from_callable(u, example_space.upper),
    )
    report = check_gos_axioms(model)
    for name in ("lower-contraction", "lower-idempotence", "lower-monotonicity"):
        assert report[name].passed


def test_operator_axioms(example_space):
    u = example_space.universe
    lower = OperatorTable.from_callable(u, example_space.lower)
    identity = OperatorTable.from_callable(u, lambda x: x)
    report = check_gos_axioms(GranularModel(u, tuple(example_space.blocks), lower, identity))
    assert report.all_pass
    for name, check in oracle.operator_laws_as_gos(lower, identity):
        assert report[name] == check


def test_admissibility_on_classical_example(example_model):
    assert check_admissibility(example_model) == ADMISSIBLE


def test_admissibility_wra_fails_for_ab_granule(example_space):
    u = example_space.universe
    model = GranularModel(
        universe=u,
        granules=(u.parse("ab"),),
        lower_op=OperatorTable.from_callable(u, example_space.lower),
        upper_op=OperatorTable.from_callable(u, example_space.upper),
    )
    report = check_admissibility(model)
    assert not report.wra.passed
    x, out = report.wra.witness
    assert out in (example_space.lower(x), example_space.upper(x))
    assert out.mask not in generated_field_masks(u, model.granules)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_model_refuses_a_table_over_a_foreign_universe(side):
    ab, xy = Universe("ab"), Universe("xy")
    own = OperatorTable.from_callable(ab, lambda x: x)
    foreign = OperatorTable.from_callable(xy, lambda x: x)
    tables = {"lower_op": own, "upper_op": own, f"{side}_op": foreign}
    with pytest.raises(UniverseMismatchError, match=rf"^{side} table over a foreign universe$"):
        GranularModel(ab, (ab.parse("a"),), **tables)
    # a table over an equal universe built apart is the model's own
    again = OperatorTable.from_callable(Universe("ab"), lambda x: x)
    GranularModel(ab, (ab.parse("a"),), **{**tables, f"{side}_op": again})


def test_inclusion_predicate_answers_as_subset_test_did():
    """INCLUSION.holds on one universe object, on equal universes built
    apart and on foreign ones: the inclusion test, or the mismatch error
    ``Subset._check`` raised ahead of every inclusion test."""
    u = Universe("abc")
    groups = [
        [(u, u)],
        [(u, Universe("abc"))],
        [(u, Universe("abd")), (u, Universe("ab")), (Universe("xy"), u)],
    ]
    for pairs in groups:
        for left, right in pairs:
            for a in left.subsets():
                for b in right.subsets():
                    if left == right:
                        want = a.mask & ~b.mask == 0
                    else:
                        want = (
                            UniverseMismatchError,
                            f"{a!r} of {left!r} and {b!r} of {right!r}"
                            " belong to different universes",
                        )
                    for holds in (INCLUSION.holds, Subset.is_subset_of, operator.le):
                        try:
                            got = holds(a, b)
                        except UniverseMismatchError as exc:
                            got = type(exc), str(exc)
                        assert got == want


def test_admissibility_discrete_singletons():
    space = ApproximationSpace.discrete("abcd")
    assert check_admissibility(from_space(space)) == ADMISSIBLE


def test_admissibility_single_block_vacuous_underlap():
    space = ApproximationSpace.from_partition("abc", [["a", "b", "c"]])
    assert check_admissibility(from_space(space)) == ADMISSIBLE


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_admissibility_classical_spaces(data):
    n = data.draw(st.integers(1, 6))
    atoms = "abcdef"[:n]
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups: dict[int, list[str]] = {}
    for a, l in zip(atoms, labels):
        groups.setdefault(l, []).append(a)
    space = ApproximationSpace.from_partition(atoms, list(groups.values()))
    assert check_admissibility(from_space(space)) == ADMISSIBLE


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generated_field_two_routes_agree(data):
    n = data.draw(st.integers(1, 5))
    u = Universe("abcde"[:n])
    k = data.draw(st.integers(1, min(3, (1 << n) - 1)))
    masks = data.draw(
        st.lists(st.integers(1, (1 << n) - 1), min_size=k, max_size=k, unique=True)
    )
    field = generated_field_masks(u, [u.from_mask(m) for m in masks])
    cover = granular._cover(n, masks)
    for x in range(1 << n):
        assert (x in field) == (granular._separation(n, x) & ~cover == 0)


def test_generated_field_closure_properties(example_space):
    u = example_space.universe
    field = generated_field_masks(u, example_space.blocks)
    full = u.full.mask
    assert 0 in field and full in field
    for a in field:
        assert a ^ full in field
        for b in field:
            assert a | b in field and a & b in field
    # Three disjoint generators yield the 2^3-element field.
    assert len(field) == 8


def test_search_finds_block_granulation(example_space):
    lower = OperatorTable.from_callable(example_space.universe, example_space.lower)
    upper = OperatorTable.from_callable(example_space.universe, example_space.upper)
    families = search_admissible_granulations(lower, upper, max_granules=3)
    target = frozenset(b.mask for b in example_space.blocks)
    assert target in {frozenset(g.mask for g in fam) for fam in families}
    for fam in families:
        model = GranularModel(
            universe=example_space.universe,
            granules=fam,
            lower_op=lower,
            upper_op=upper,
        )
        assert check_admissibility(model) == ADMISSIBLE


def test_search_empty_for_complement_lower():
    u = Universe("ab")
    complement = OperatorTable.from_callable(u, lambda x: x.complement())
    identity = OperatorTable.from_callable(u, lambda x: x)
    assert search_admissible_granulations(complement, identity, max_granules=2) == []


def test_search_one_atom_identity():
    u = Universe("a")
    identity = OperatorTable.from_callable(u, lambda x: x)
    families = search_admissible_granulations(identity, identity, max_granules=1)
    assert [tuple(str(g) for g in fam) for fam in families] == [("S",)]


def test_search_cap(example_space):
    lower = OperatorTable.from_callable(example_space.universe, example_space.lower)
    with pytest.raises(SearchCapExceededError):
        search_admissible_granulations(lower, lower, max_granules=6, candidate_cap=100)


def test_operator_table_must_be_total():
    u = Universe("ab")
    with pytest.raises(ValueError):
        OperatorTable(u, {0: 0})


@pytest.mark.parametrize(
    "table, message",
    [
        ([0, 1, 2], "total"),
        ([0, 1, 2, 3, 0], "total"),
        ([0, 1, 4, 3], "output 0x4 out of range"),
        ([0, -1, 2, 9], "output -0x1 out of range"),
    ],
)
def test_operator_table_from_list_is_total_and_in_range(table, message):
    u = Universe("ab")
    with pytest.raises(ValueError, match=message):
        OperatorTable.from_list(u, table)
    if len(table) == 4:
        entries = dict(enumerate(table))
        with pytest.raises(ValueError, match=message):
            OperatorTable(u, entries)


def test_operator_table_from_list_keeps_its_own_copy():
    u = Universe("ab")
    table = [0, 1, 2, 3]
    op = OperatorTable.from_list(u, table)
    table[1] = 3
    assert op == OperatorTable(u, {0: 0, 1: 1, 2: 2, 3: 3})


@pytest.mark.parametrize("entry", [1.5, 1.0, "1", None])
def test_operator_table_rejects_non_integer_entries(entry):
    u = Universe("ab")
    table = [0, entry, 2, 3]
    with pytest.raises(ValueError, match="non-integer"):
        OperatorTable.from_list(u, table)
    with pytest.raises(ValueError, match="non-integer"):
        OperatorTable(u, dict(enumerate(table)))


def test_operator_table_stores_integer_entries_as_ints():
    u = Universe("ab")
    op = OperatorTable.from_list(u, np.array([0, 1, 3, 3]))
    assert all(type(v) is int for v in op._table)
    assert str(op(u.parse("b"))) == "S"


def test_monotonicity_witness_lies_below_the_first_failing_cover():
    # Over {a, b} the first cover to fail is {a} ⊂ S, but the first pair
    # in row order to fail is (∅, S): op(∅) = a is not inside op(S) = ∅.
    u = Universe("ab")
    table = OperatorTable.from_list(u, [1, 1, 3, 0])
    first = (u.empty, u.full)
    model = GranularModel(universe=u, granules=(u.full,), lower_op=table, upper_op=table)
    report = check_gos_axioms(model)
    for name in ("lower-monotonicity", "upper-monotonicity"):
        assert report[name].witness == first
    assert list(report.items()) == list(oracle.check_gos_axioms(model).items())
    for name, check in oracle.operator_laws_as_gos(table, table):
        assert report[name] == check


@pytest.fixture
def swept_rows(monkeypatch) -> list[int]:
    """The rows every monotonicity sweep visits, in visiting order."""
    rows: list[int] = []
    real = granular._monotonicity

    def spy(masks, op):
        marked, row = real(masks, op)

        def counted(x):
            rows.append(int(x))
            return row(x)

        return marked, counted

    monkeypatch.setattr(granular, "_monotonicity", spy)
    return rows


def test_passing_ten_atom_partition_sweeps_no_monotonicity_row(swept_rows):
    space = ApproximationSpace.from_partition(
        TEN_ATOM_MODEL["universe"], TEN_ATOM_MODEL["partition"]
    )
    model = from_space(space)
    assert check_gos_axioms(model).all_pass
    assert swept_rows == []


def test_perturbed_table_sweeps_only_rows_below_a_failing_cover(swept_rows):
    n = 7
    space = ApproximationSpace.from_partition(
        "abcdefg", [["a", "b", "c"], ["d", "e"], ["f"], ["g"]]
    )
    model = from_space(space)
    rng = random.Random(3301)
    failing = 0
    for side in ("lower", "upper"):
        for _ in range(6):
            table = list(getattr(model, f"{side}_op")._table)
            table[rng.randrange(1 << n)] = rng.randrange(1 << n)
            op = OperatorTable.from_list(space.universe, table)
            # the other side passes monotonicity with no marked row
            perturbed = dataclasses.replace(model, **{f"{side}_op": op})
            swept_rows.clear()
            check = check_gos_axioms(perturbed)[f"{side}-monotonicity"]
            assert check == oracle.check_operator_axioms(op, side)["monotonicity"]
            covers = {
                x
                for x in range(1 << n)
                for i in range(n)
                if not x >> i & 1 and table[x] & ~table[x | 1 << i]
            }
            below = [r for r in range(1 << n) if any(r & ~c == 0 for c in covers)]
            if check.passed:
                assert covers == set() and swept_rows == []
            else:
                failing += 1
                last = check.witness[0].mask
                assert swept_rows == [r for r in below if r <= last]
    assert failing >= 4


def test_gos_and_operator_checks_build_no_power_set(monkeypatch):
    atoms = "abcdefghijkl"
    space = ApproximationSpace.from_partition(
        atoms, [list(atoms[i : i + 2]) for i in range(0, 12, 2)]
    )
    model = from_space(space)
    u = model.universe
    table = list(model.lower_op._table)
    table[-1] = 0
    broken = OperatorTable.from_list(u, table)

    def refuse(self):
        raise AssertionError("the power set was built")

    monkeypatch.setattr(Universe, "subsets", refuse)
    assert check_gos_axioms(model).all_pass
    check = check_gos_axioms(dataclasses.replace(model, lower_op=broken))["lower-monotonicity"]
    assert check.witness == (u.parse("ab"), u.full)


def test_admissibility_separates_each_distinct_table_output_once(monkeypatch):
    atoms = "abcdefghijkl"
    model = from_space(
        ApproximationSpace.from_partition(atoms, [atoms[i : i + 2] for i in range(0, 12, 2)])
    )
    calls: list[int] = []
    real = granular._separation

    def spy(n: int, m: int) -> int:
        calls.append(m)
        return real(n, m)

    monkeypatch.setattr(granular, "_separation", spy)
    assert check_admissibility(model) == ADMISSIBLE
    outputs = {*model.lower_op._table, *model.upper_op._table}
    # 64 distinct outputs among 2 · 4096 table cells, and one call per granule
    assert len(calls) <= len(outputs) + len(model.granules)
