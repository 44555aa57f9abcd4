"""Mixed algebra: worked values, member-route agreement, identity suite."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from roughwork.approx import (
    ApproximationSpace,
    RoughClass,
    SpaceMismatchError,
    Subset,
    Universe,
    UniverseMismatchError,
)
from roughwork.cera import (
    CeraModel,
    MixedElement,
    UndefinedOperationError,
    check_cera_identities,
)
from roughwork.granular import first_violation
from test_approx import spaces

IDENTITY_NAMES = (
    "type-1", "type-2", "ov-1", "ov-2", "ov-3", "qov-1", "qov-2",
    "u1", "u2", "ter-11", "ter-12", "ter-13", "bi-1",
    "ter-21", "ter-22", "ter-23", "bi-2", "bm", "hra1",
)


@pytest.fixture(scope="module")
def model(example_space) -> CeraModel:
    return CeraModel(example_space)


def el1(model: CeraModel, text: str) -> MixedElement:
    return MixedElement.type1(model.space.universe.parse(text))


def el2(model: CeraModel, text: str) -> MixedElement:
    return model.class_of(model.space.universe.parse(text))


def bounds(el: MixedElement) -> tuple[str, str]:
    assert el.is_type2
    return str(el.payload.lower), str(el.payload.upper)


def test_aggregation_worked_values(model):
    assert model.oplus(el1(model, "bc"), el2(model, "bf")) == el2(model, "abcef")
    mixed = model.oplus(el1(model, "b"), el2(model, "f"))
    assert bounds(mixed) == ("ef", "abcef")
    # symmetric order collapses through the first argument instead
    assert model.oplus(el2(model, "f"), el1(model, "b")) == mixed
    x = el1(model, "acq")
    assert model.oplus(model.bottom, x) == x


def test_commonality_worked_values(model):
    assert model.odot(el1(model, "bc"), el2(model, "bf")) == model.zero
    assert model.odot(el1(model, "b"), el2(model, "f")) == model.zero
    assert model.odot(el1(model, "abcq"), el2(model, "q")) == el2(model, "q")
    x = el1(model, "bq")
    assert model.odot(x, x) == x


def test_relaxed_commonality_worked_values(model):
    assert model.circ(el1(model, "b"), el2(model, "f")) == model.zero
    assert model.circ(el1(model, "bc"), el2(model, "bf")) == el2(model, "bc")
    assert bounds(model.circ(el1(model, "bc"), el2(model, "bf"))) == ("0", "abc")
    x = el1(model, "ef")
    assert model.circ(x, x) == x


def test_squiggly_arrow_worked_values(model):
    assert model.rightsquig(el1(model, "bc"), el2(model, "bf")) == model.one
    assert bounds(model.rightsquig(el1(model, "bc"), el2(model, "S"))) == ("0", "abc")
    assert model.rightsquig(el1(model, "a"), el1(model, "c")) == el1(model, "abefq")


def test_squiggly_arrow_follows_the_member_rule(model):
    """The mixed rule unions x with each member's complement.

    For x = bc against the class of abceq (members abceq and abcfq) the
    two unions are bcf and bce, so the result is the class of bcef with
    bounds (ef, abcef).  Collapsing the result to the single definite
    set abcef would not be a value of the displayed rule.
    """
    result = model.rightsquig(el1(model, "bc"), el2(model, "abceq"))
    assert bounds(result) == ("ef", "abcef")
    assert result == el2(model, "bcef")


def test_double_arrow_worked_values(model):
    assert model.two_head(el2(model, "bf"), el1(model, "bc")) == model.one
    a = el1(model, "a")
    assert model.two_head(a, a) == model.one
    assert model.two_head(a, a).is_type2
    assert model.rightsquig(a, a) == model.top
    assert model.rightsquig(a, a).is_type1
    # the arrows only differ when both arguments are plain subsets
    cls_a = el2(model, "a")
    assert model.two_head(cls_a, cls_a) == model.rightsquig(cls_a, cls_a) == model.one


def test_interior_and_closure_dispatch(model):
    assert model.frak_l(el1(model, "aq")) == el1(model, "q")
    assert model.frak_l(el2(model, "a")) == model.zero
    assert model.frak_l(model.bottom) == model.bottom
    assert model.black_lozenge(el1(model, "bf")) == el1(model, "abcef")
    assert model.black_lozenge(el2(model, "a")) == el2(model, "abc")
    assert model.black_lozenge(model.top) == model.top


def test_negations(model):
    assert model.sim_neg(el1(model, "bc")) == el1(model, "aefq")
    assert model.sim_neg(model.bottom) == model.top
    assert model.sim_neg(model.zero) == model.one
    assert bounds(model.partial_neg(el2(model, "a"))) == ("efq", "S")
    with pytest.raises(UndefinedOperationError):
        model.partial_neg(el1(model, "a"))


def test_unary_operations_refuse_a_subset_over_a_foreign_universe(model):
    x = MixedElement.type1(Universe("xy").parse("x"))
    for op in (model.sim_neg, model.frak_l, model.black_lozenge):
        with pytest.raises(UniverseMismatchError, match=r"^<Subset x> is over a foreign universe$"):
            op(x)


def test_binary_operations_refuse_a_class_of_another_partition():
    """``ab|c`` against the discrete space on ``abc``: a class of the one
    is no operand of the other, in the quotient case and the mixed one,
    while the same partition built apart is the model's own."""
    s = CeraModel(ApproximationSpace.from_partition("abc", [["a", "b"], ["c"]]))
    d = CeraModel(ApproximationSpace.discrete("abc"))
    ab_of_d = el2(d, "ab")
    message = (
        rf"^{re.escape(repr(ab_of_d.payload))} is a class of another space than "
        rf"{re.escape(repr(s.space))}$"
    )
    for name in ("oplus", "odot", "circ", "commonality", "rightsquig", "two_head"):
        op = getattr(s, name)
        for other in (el2(s, "c"), el1(s, "c")):
            for args in ((other, ab_of_d), (ab_of_d, other)):
                with pytest.raises(SpaceMismatchError, match=message):
                    op(*args)
    again = CeraModel(ApproximationSpace.from_partition("abc", [["a", "b"], ["c"]]))
    assert s.oplus(el2(s, "c"), el2(again, "a")) == el2(s, "ac")
    assert s.oplus(el1(s, "c"), el2(again, "a")) == el2(s, "abc")


def test_a_foreign_operand_error_names_the_operands_the_rule_reads():
    """``ab|c`` against ``xy|z``: the arrows and the quotient implication
    name what was passed (a bound its class enters as), not the complement
    their rule takes of it (``S`` = ¬0, ``bc`` = ¬a, ``c`` = ¬ab)."""
    s = CeraModel(ApproximationSpace.from_partition("abc", [["a", "b"], ["c"]]))
    t = CeraModel(ApproximationSpace.from_partition("xyz", [["x", "y"], ["z"]]))
    a, x, xy = el1(s, "a"), el2(t, "x"), el2(t, "xy")
    abc, xyz = "Universe(['a', 'b', 'c'])", "Universe(['x', 'y', 'z'])"
    cases = [
        (s.rightsquig, (a, x), f"<Subset a> of {abc} and <Subset 0> of {xyz}"),  # lower of [x]
        (s.two_head, (a, x), f"<Subset a> of {abc} and <Subset 0> of {xyz}"),
        (s.two_head, (x, a), f"<Subset xy> of {xyz} and <Subset a> of {abc}"),  # upper of [x]
        (s.rightsquig, (a, el1(t, "x")), f"<Subset a> of {abc} and <Subset x> of {xyz}"),
        (
            s.quotient.implies,
            (el2(s, "ab").payload, xy.payload),
            f"<Subset ab> of {abc} and <Subset xy> of {xyz}",
        ),
    ]
    for op, args, names in cases:
        message = rf"^{re.escape(names)} belong to different universes$"
        with pytest.raises(UniverseMismatchError, match=message):
            op(*args)


def test_constants(model):
    assert model.bottom.is_type1 and model.top.is_type1
    assert model.zero.is_type2 and model.one.is_type2
    assert str(model.bottom) == "0" and str(model.top) == "S"
    assert bounds(model.zero) == ("0", "0") and bounds(model.one) == ("S", "S")


def test_carrier_enumeration(model):
    els = model.elements()
    assert len(els) == 64 + 18
    assert len(set(els)) == len(els)
    assert sum(1 for e in els if e.is_type1) == 64
    assert {model.bottom, model.top, model.zero, model.one} <= set(els)


def test_describe_formats(model):
    assert el1(model, "bc").describe() == "bc"
    assert el2(model, "q").describe() == "[q] bounds=(q,q)"


def _fold(op, parts):
    acc = None
    for part in parts:
        acc = part if acc is None else op(acc, part)
    return acc


def test_mixed_cases_agree_with_member_enumeration(model):
    """Bound shortcuts must match folding the rule over actual members."""
    union = Subset.union
    inter = Subset.intersection
    classes = [e for e in model.elements() if e.is_type2]
    for x in model.space.universe.subsets():
        xe = MixedElement.type1(x)
        for ye in classes:
            members = list(ye.payload.members())
            all_union = _fold(union, members)
            all_inter = _fold(inter, members)
            assert model.oplus(xe, ye) == model.class_of(x | all_union)
            assert model.oplus(ye, xe) == model.class_of(all_union | x)
            assert model.odot(xe, ye) == model.class_of(x & all_inter)
            assert model.odot(ye, xe) == model.class_of(all_inter & x)
            assert model.circ(xe, ye) == model.class_of(x & all_union)
            assert model.circ(ye, xe) == model.class_of(all_union & x)
            squig = _fold(union, [x | z.complement() for z in members])
            assert model.rightsquig(xe, ye) == model.class_of(squig)
            head = _fold(union, [z | x.complement() for z in members])
            assert model.rightsquig(ye, xe) == model.class_of(head)
            assert model.two_head(xe, ye) == model.class_of(squig)
            assert model.two_head(ye, xe) == model.class_of(head)


def test_operations_closed_over_carrier(model):
    els = model.elements()
    carrier = set(els)
    for unary in (model.frak_l, model.black_lozenge, model.sim_neg):
        assert all(unary(x) in carrier for x in els)
    for x in els:
        for y in els:
            assert model.oplus(x, y) in carrier
            assert model.commonality(x, y) in carrier
            assert model.rightsquig(x, y) in carrier
            assert model.two_head(x, y) in carrier


def test_identity_suite_on_example(model):
    report = check_cera_identities(model)
    assert tuple(name for name, _ in report.items()) == IDENTITY_NAMES
    assert report.all_pass
    for _, chk in report.items():
        assert chk.witness is None


def test_identity_suite_on_soft_variant(example_space):
    report = check_cera_identities(CeraModel(example_space, soft=True))
    assert report.all_pass


def test_soft_flag_switches_commonality_slot(example_space):
    hard = CeraModel(example_space)
    soft = CeraModel(example_space, soft=True)
    x, y = el1(hard, "bc"), el2(hard, "bf")
    assert hard.commonality(x, y) == hard.odot(x, y) == hard.zero
    assert soft.commonality(x, y) == soft.circ(x, y) == el2(soft, "bc")


@settings(max_examples=25, deadline=None)
@given(spaces(max_atoms=4))
def test_identity_suite_on_random_spaces(space):
    assert check_cera_identities(CeraModel(space)).all_pass


@pytest.mark.parametrize("soft", [False, True])
def test_certified_blocks_build_no_block_tables(soft):
    # 10 atoms in blocks of two: 1024 subsets and 243 classes.  Every
    # ternary law is certified, so no 1024² intp block table is built.
    atoms = "abcdefghij"
    space = ApproximationSpace.from_partition(atoms, [atoms[i : i + 2] for i in range(0, 10, 2)])
    model = CeraModel(space, soft=soft)
    tracemalloc.start()
    try:
        assert check_cera_identities(model).all_pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20


def test_witness_mapping_points_at_cells():
    bad = np.zeros((2, 3), dtype=bool)
    bad[1, 2] = True
    axes = (np.array(["r0", "r1"]), np.array(["c0", "c1", "c2"]))
    assert first_violation(bad, axes) == ("r1", "c2")
    assert first_violation(np.zeros((2, 3), dtype=bool), axes) is None
    single = np.array([True])
    assert first_violation(single, (np.array(["k"]),)) == ("k",)
    assert first_violation((range(2), lambda i: bad[i]), axes) == ("r1", "c2")


def test_payload_validation():
    with pytest.raises(TypeError):
        MixedElement("bc")
