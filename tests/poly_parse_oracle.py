"""Reference polynomial parser, kept as a test oracle.

This is the two-pass parser that ``delpezzo.parse`` used before it
evaluated while reading: the grammar is first read into a tree of node
dataclasses, then ``expand`` walks the tree to the exponent-tuple ->
coefficient map.  It shares the tokenizer and ``ParseError`` with the
engine, so a comparison with ``poly_terms`` checks the grammar, the term
maps and every error message and column.

One known difference: ``expand`` never evaluates the base of a power
with exponent 0, so an unknown variable there ("q^0 + x") is accepted
here and refused by the engine.

Products are taken by ``poly_mul`` below, the Fraction term product that
``delpezzo.exactnum.poly_mul`` computed before it moved to integer
numerators over one denominator, so the comparison checks that product
too, key order included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from delpezzo.exactnum import Rat
from delpezzo.parse import POLY_VARS, ParseError, _tokenize, _Token


def poly_mul(a: dict, b: dict) -> dict:
    """Product of two exponent-tuple -> coefficient maps, term by term in
    Fractions (zero terms dropped)."""
    out: dict[tuple[int, ...], Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


@dataclass(frozen=True)
class Num:
    value: Rat


@dataclass(frozen=True)
class Var:
    name: str
    pos: int


@dataclass(frozen=True)
class Add:
    left: "PolyExpr"
    right: "PolyExpr"


@dataclass(frozen=True)
class Sub:
    left: "PolyExpr"
    right: "PolyExpr"


@dataclass(frozen=True)
class Mul:
    left: "PolyExpr"
    right: "PolyExpr"


@dataclass(frozen=True)
class Pow:
    base: "PolyExpr"
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: "PolyExpr"


PolyExpr = Num | Var | Add | Sub | Mul | Pow | Neg


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.pos)
        return self.take()

    def parse(self) -> PolyExpr:
        expr = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return expr

    def expr(self) -> PolyExpr:
        tok = self.peek()
        negate = False
        if tok.kind == "op" and tok.text in "+-":
            self.take()
            negate = tok.text == "-"
        node: PolyExpr = self.term()
        if negate:
            node = Neg(node)
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                rhs = self.term()
                node = Add(node, rhs) if tok.text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> PolyExpr:
        node = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.take()
                node = Mul(node, self.factor())
            elif tok.kind in ("num", "name") or (tok.kind == "op" and tok.text == "("):
                node = Mul(node, self.factor())   # implicit multiplication
            else:
                return node

    def factor(self) -> PolyExpr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.take()
            return Neg(self.factor())
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.take()
            etok = self.peek()
            if etok.kind != "num" or etok.value.denominator != 1:
                raise ParseError("expected integer exponent after '^'", etok.pos)
            self.take()
            node = Pow(node, int(etok.value))
        return node

    def atom(self) -> PolyExpr:
        tok = self.take()
        if tok.kind == "num":
            value = tok.value
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "/":
                self.take()
                den = self.peek()
                if den.kind != "num" or den.value.denominator != 1 or den.value == 0:
                    raise ParseError("expected nonzero integer denominator", den.pos)
                self.take()
                value = value / den.value
            return Num(value)
        if tok.kind == "name":
            return Var(tok.text, tok.pos)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if tok.kind == "op" and tok.text == "/":
            raise ParseError("division is only allowed inside rational literals", tok.pos)
        raise ParseError("expected a number, variable or '('", tok.pos)


def parse_poly(src: str) -> PolyExpr:
    """Parse a polynomial expression to its tree (positioned errors)."""
    return _Parser(src).parse()


def expand(expr: PolyExpr, variables: Sequence[str] = POLY_VARS,
           ) -> dict[tuple[int, ...], Rat]:
    """Expand a tree to a finite exponent-to-coefficient map."""
    index = {v: i for i, v in enumerate(variables)}
    zero = tuple(0 for _ in variables)

    def go(node: PolyExpr) -> dict:
        if isinstance(node, Num):
            return {zero: node.value} if node.value != 0 else {}
        if isinstance(node, Var):
            if node.name not in index:
                # juxtaposed single-letter variables ("xyz") multiply
                if len(node.name) > 1 and all(ch in index for ch in node.name):
                    acc = {zero: Fraction(1)}
                    for ch in node.name:
                        acc = poly_mul(acc, go(Var(ch, node.pos)))
                    return acc
                raise ParseError(
                    f"unknown variable {node.name!r} (allowed: {', '.join(variables)})",
                    node.pos)
            key = tuple(int(i == index[node.name]) for i in range(len(variables)))
            return {key: Fraction(1)}
        if isinstance(node, Neg):
            return {k: -v for k, v in go(node.operand).items()}
        if isinstance(node, Add):
            out = dict(go(node.left))
            for k, v in go(node.right).items():
                out[k] = out.get(k, Fraction(0)) + v
            return {k: v for k, v in out.items() if v != 0}
        if isinstance(node, Sub):
            out = dict(go(node.left))
            for k, v in go(node.right).items():
                out[k] = out.get(k, Fraction(0)) - v
            return {k: v for k, v in out.items() if v != 0}
        if isinstance(node, Mul):
            return poly_mul(go(node.left), go(node.right))
        if isinstance(node, Pow):
            acc = {zero: Fraction(1)}
            for _ in range(node.exponent):
                acc = poly_mul(acc, go(node.base))
            return acc
        raise TypeError(f"unknown node {node!r}")

    return go(expr)


def poly_terms(src: str, variables: Sequence[str] = POLY_VARS) -> dict[tuple[int, ...], Rat]:
    """Parse and expand in two passes."""
    return expand(parse_poly(src), variables)
