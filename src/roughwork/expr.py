"""Surface syntax for mixed-domain expressions.

One precedence tier for all binary operators, mandatory left
association, and explicit brackets for class literals. The words L, D
and neg are reserved; universes whose atoms collide with them cannot be
written in this syntax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from roughwork.cera import CeraModel, MixedElement, UndefinedOperationError

BINOPS = ("(+)", "(.)", "(o)", "~>", "->>")
UNARY_WORDS = ("L", "D", "neg")

# fixed tokens tried in order; the longer arrow must win over "~"
_FIXED = ("->>", "~>", "(+)", "(.)", "(o)", "~", "[", "]", "(", ")")


class ParseError(ValueError):
    """Bad surface syntax; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    position: int


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for fixed in _FIXED:
            if text.startswith(fixed, i):
                out.append(Token(fixed, fixed, i))
                i += len(fixed)
                break
        else:
            if ch.isalnum():
                j = i
                while j < len(text) and text[j].isalnum():
                    j += 1
                out.append(Token("word", text[i:j], i))
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", i)
    return out


@dataclass(frozen=True)
class SetLit:
    text: str
    is_class: bool


@dataclass(frozen=True)
class UnaryExpr:
    op: str
    arg: "Expr"


@dataclass(frozen=True)
class BinaryExpr:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[SetLit, UnaryExpr, BinaryExpr]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {kind!r} before end of input", len(self.text))
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.position)
        return self.take()

    def expr(self) -> Expr:
        node = self.unary()
        while (tok := self.peek()) is not None and tok.kind in BINOPS:
            self.take()
            node = BinaryExpr(tok.kind, node, self.unary())
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        if tok.kind == "word" and tok.text in UNARY_WORDS:
            self.take()
            return UnaryExpr(tok.text, self.unary())
        if tok.kind == "~":
            self.take()
            return UnaryExpr("~", self.unary())
        return self.primary()

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "(":
            self.take()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "[":
            self.take()
            inner = self.expect("word")
            self.expect("]")
            return SetLit(inner.text, True)
        if tok.kind == "word":
            self.take()
            return SetLit(tok.text, False)
        raise ParseError(f"unexpected token {tok.text!r}", tok.position)


def parse(text: str) -> Expr:
    parser = _Parser(text)
    node = parser.expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected trailing {trailing.text!r}", trailing.position)
    return node


def unparse(expr: Expr) -> str:
    """Canonical rendering; parse(unparse(e)) == e."""
    if isinstance(expr, SetLit):
        return f"[{expr.text}]" if expr.is_class else expr.text
    if isinstance(expr, UnaryExpr):
        inner = unparse(expr.arg)
        if isinstance(expr.arg, BinaryExpr):
            inner = f"({inner})"
        return f"{expr.op} {inner}"
    left = unparse(expr.left)
    right = unparse(expr.right)
    if isinstance(expr.right, BinaryExpr):
        right = f"({right})"
    return f"{left} {expr.op} {right}"


_UNARY_DISPATCH = {
    "L": "frak_l",
    "D": "black_lozenge",
    "~": "sim_neg",
    "neg": "partial_neg",
}

_BINARY_DISPATCH = {
    "(+)": "oplus",
    "(.)": "odot",
    "(o)": "circ",
    "~>": "rightsquig",
    "->>": "two_head",
}


def eval_expr(model: CeraModel, expr: Expr) -> MixedElement:
    """Evaluate against a model; partial-operation failures name the subterm."""
    if isinstance(expr, SetLit):
        subset = model.space.universe.parse(expr.text)
        if expr.is_class:
            return model.class_of(subset)
        return MixedElement.type1(subset)
    if isinstance(expr, UnaryExpr):
        fn = getattr(model, _UNARY_DISPATCH[expr.op])
        args = (eval_expr(model, expr.arg),)
    else:
        fn = getattr(model, _BINARY_DISPATCH[expr.op])
        args = (eval_expr(model, expr.left), eval_expr(model, expr.right))
    try:
        return fn(*args)
    except UndefinedOperationError as exc:
        raise UndefinedOperationError(f"{exc} in {unparse(expr)!r}") from exc
