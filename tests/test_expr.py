"""Parser, printer, and evaluator for the mixed-expression syntax."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughwork.approx import UnknownAtomError
from roughwork.cera import CeraModel, UndefinedOperationError
from roughwork.expr import (
    BINOPS,
    BinaryExpr,
    ParseError,
    SetLit,
    UnaryExpr,
    eval_expr,
    parse,
    unparse,
)


def test_parse_mixed_aggregation():
    node = parse("bc (+) [bf]")
    assert node == BinaryExpr("(+)", SetLit("bc", False), SetLit("bf", True))


def test_parse_single_unary():
    assert parse("L aq") == UnaryExpr("L", SetLit("aq", False))


def test_parse_left_association():
    node = parse("a (+) b (.) c")
    assert node == BinaryExpr(
        "(.)", BinaryExpr("(+)", SetLit("a", False), SetLit("b", False)),
        SetLit("c", False),
    )


def test_parse_parens_override_association():
    node = parse("a (+) (b (.) c)")
    assert node == BinaryExpr(
        "(+)", SetLit("a", False),
        BinaryExpr("(.)", SetLit("b", False), SetLit("c", False)),
    )


def test_parse_nested_unary_and_arrows():
    # "~>" must not be read as "~" followed by ">"
    node = parse("D bc ~> [S]")
    assert node == BinaryExpr(
        "~>", UnaryExpr("D", SetLit("bc", False)), SetLit("S", True)
    )


def test_dangling_operator_reports_end_of_input():
    with pytest.raises(ParseError) as err:
        parse("bc (+)")
    assert err.value.position == len("bc (+)")


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("@", 0),
        ("(a", 2),
        ("[bc", 3),
        ("bc ]", 3),
        ("[ (+) ]", 2),
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position


def test_unparse_is_canonical():
    assert unparse(parse("( bc (+) [bf] )")) == "bc (+) [bf]"
    assert unparse(parse("neg (a (+) b)")) == "neg (a (+) b)"
    assert unparse(parse("a (+) (b (.) c)")) == "a (+) (b (.) c)"


_setlits = st.builds(
    SetLit, st.sampled_from(["a", "b", "bc", "abc", "q", "ef", "0", "S"]),
    st.booleans(),
)
_exprs = st.recursive(
    _setlits,
    lambda inner: st.one_of(
        st.builds(UnaryExpr, st.sampled_from(["L", "D", "~", "neg"]), inner),
        st.builds(BinaryExpr, st.sampled_from(list(BINOPS)), inner, inner),
    ),
    max_leaves=8,
)


@settings(max_examples=120, deadline=None)
@given(_exprs)
def test_round_trip(node):
    assert parse(unparse(node)) == node


@pytest.fixture(scope="module")
def model(example_space):
    return CeraModel(example_space)


def test_eval_worked_values(model):
    u = model.space.universe

    result = eval_expr(model, parse("bc (+) [bf]"))
    assert result == model.class_of(u.parse("abcef"))
    assert result.describe() == "[abcef] bounds=(abcef,abcef)"

    assert eval_expr(model, parse("abcq (.) [q]")).describe() == "[q] bounds=(q,q)"
    assert eval_expr(model, parse("bc ~> [S]")) == model.class_of(u.parse("a"))
    assert eval_expr(model, parse("[bf] ->> bc")) == model.class_of(u.full)
    assert eval_expr(model, parse("L aq")).payload == u.parse("q")


def test_eval_zero_literals(model):
    # bare 0 is the empty set; its complement is the full set; the
    # bracketed form lands in the class domain and gives the unit
    assert eval_expr(model, parse("~ 0")) == model.top
    assert eval_expr(model, parse("~ [0]")) == model.one


def test_eval_partial_negation_names_the_subterm(model):
    with pytest.raises(UndefinedOperationError, match="'neg bc'"):
        eval_expr(model, parse("neg bc"))
    # nested, it is named once, as the innermost failing subterm
    with pytest.raises(UndefinedOperationError) as raised:
        eval_expr(model, parse("L (neg a)"))
    assert str(raised.value) == "negation undefined on type-1 element a in 'neg a'"


def test_eval_unknown_atom(model):
    with pytest.raises(UnknownAtomError):
        eval_expr(model, parse("xz"))
