"""Input grammar: polynomial expressions, read also as divisor expressions.

The polynomial grammar covers the caller's variables (x, y, z, w by
default), integer and "p/q" literals ("3", "5/6"; no decimals), +, -, explicit
or implicit multiplication (juxtaposed single-letter variables such as
"xyz" multiply too), integer exponents and parentheses; division appears
only inside rational literals, anything else is rejected as
non-polynomial.  The parser evaluates as it reads, so a polynomial goes
straight to its exponent-tuple -> coefficient map with no syntax tree in
between.  Errors carry the 1-based column of the offending token; the
first syntax error is reported before any unknown variable.

A divisor expression ("3H - E1 - 1/2 Q", "2(H - E1)") is read by the same
grammar over the surface's labels, as a polynomial of degree one with no
constant term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .exactnum import Rat, poly_mul
from .lattice import DivClass, SurfaceModel

POLY_VARS = ("x", "y", "z", "w")

# Bounds on the work of one polynomial: a power is expanded by repeated
# multiplication, so its cost grows with the exponent, and a product of
# polynomials with a and b terms has up to a * b terms.
MAX_EXPONENT = 100
MAX_TERMS = 2_000


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (column {pos + 1})")


@dataclass(frozen=True)
class _Token:
    kind: str   # num | name | op | end
    text: str
    pos: int
    value: Rat | None = None


def _tokenize(src: str) -> list[_Token]:
    toks: list[_Token] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(_Token("num", src[i:j], i, Fraction(int(src[i:j]))))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Token("name", src[i:j], i))
            i = j
            continue
        if ch in "+-*^()/":
            toks.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(_Token("end", "", n))
    return toks


class _Parser:
    """Recursive descent that evaluates as it reads: each rule returns the
    term map (exponent tuple -> nonzero coefficient) of what it has read.

    Syntax errors are raised where they are read.  The first unknown
    variable in reading order is only recorded, and raised once the whole
    input has parsed, so a syntax error anywhere takes precedence.
    ``wording`` gives that error's text for the unknown name.
    """

    def __init__(self, src: str, variables: Sequence[str], wording):
        self.toks = _tokenize(src)
        self.i = 0
        self.variables = variables
        self.wording = wording
        self.index = {v: i for i, v in enumerate(variables)}
        self.zero = (0,) * len(variables)
        self.unknown: ParseError | None = None

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def at_op(self, ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def parse(self) -> dict[tuple[int, ...], Rat]:
        terms = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        if self.unknown is not None:
            raise self.unknown
        return terms

    def expr(self) -> dict:
        negate = self.at_op("+-") and self.take().text == "-"
        terms = self.term()
        if negate:
            terms = {k: -v for k, v in terms.items()}
        while self.at_op("+-"):
            sign = -1 if self.take().text == "-" else 1
            out = dict(terms)
            for k, v in self.term().items():
                out[k] = out.get(k, Fraction(0)) + sign * v
            terms = {k: v for k, v in out.items() if v != 0}
        return terms

    def term(self) -> dict:
        terms = self.factor()
        while True:
            if self.at_op("*"):
                self.take()
            elif not (self.peek().kind in ("num", "name") or self.at_op("(")):
                return terms
            pos = self.peek().pos
            other = self.factor()
            if len(terms) * len(other) > MAX_TERMS:
                raise ParseError(f"product may have more than {MAX_TERMS} terms", pos)
            terms = poly_mul(terms, other)   # explicit or implicit

    def factor(self) -> dict:
        if self.at_op("-"):
            self.take()
            return {k: -v for k, v in self.factor().items()}
        base = self.atom()
        if not self.at_op("^"):
            return base
        self.take()
        etok = self.peek()
        if etok.kind != "num" or etok.value.denominator != 1:
            raise ParseError("expected integer exponent after '^'", etok.pos)
        self.take()
        e = int(etok.value)
        if e > MAX_EXPONENT:
            raise ParseError(f"exponent {e} exceeds {MAX_EXPONENT}", etok.pos)
        # each term of base^e is a product of e terms of base, in any order
        if base and comb(len(base) + e - 1, e) > MAX_TERMS:
            raise ParseError(f"power may have more than {MAX_TERMS} terms", etok.pos)
        terms = {self.zero: Fraction(1)}
        for _ in range(e):
            terms = poly_mul(terms, base)
        return terms

    def atom(self) -> dict:
        tok = self.take()
        if tok.kind == "num":
            value = tok.value
            if self.at_op("/"):
                self.take()
                den = self.peek()
                if den.kind != "num" or den.value.denominator != 1 or den.value == 0:
                    raise ParseError("expected nonzero integer denominator", den.pos)
                self.take()
                value = value / den.value
            return {self.zero: value} if value != 0 else {}
        if tok.kind == "name":
            return self.monomial(tok)
        if tok.kind == "op" and tok.text == "(":
            terms = self.expr()
            if not self.at_op(")"):
                raise ParseError("expected ')'", self.peek().pos)
            self.take()
            return terms
        if tok.kind == "op" and tok.text == "/":
            raise ParseError("division is only allowed inside rational literals", tok.pos)
        raise ParseError("expected a number, variable or '('", tok.pos)

    def monomial(self, tok: _Token) -> dict:
        """A variable, or juxtaposed single-letter variables ("xyz") multiplied."""
        letters = [tok.text] if tok.text in self.index else list(tok.text)
        if any(letter not in self.index for letter in letters):
            if self.unknown is None:
                self.unknown = ParseError(self.wording(tok.text), tok.pos)
            return {}
        exps = [0] * len(self.variables)
        for letter in letters:
            exps[self.index[letter]] += 1
        return {tuple(exps): Fraction(1)}


def poly_terms(src: str, variables: Sequence[str] = POLY_VARS) -> dict[tuple[int, ...], Rat]:
    """The exponent-tuple -> coefficient map of a polynomial expression."""
    return _Parser(src, variables, lambda name: (
        f"unknown variable {name!r} (allowed: {', '.join(variables)})")).parse()


def div_from_expr(m: SurfaceModel, src: str) -> DivClass:
    """The class on ``m`` of a divisor expression, whose variables are the
    names in ``src`` that ``m`` resolves; an unknown label is a ParseError
    at the label's column."""
    if not src.strip():
        raise ParseError("empty divisor expression", 0)
    labels = tuple(dict.fromkeys(tok.text for tok in _tokenize(src)
                                 if tok.kind == "name" and m.named(tok.text) is not None))
    terms = _Parser(src, labels,
                    lambda name: f"unknown divisor label {name!r} on {m.name}").parse()
    total = DivClass((Fraction(0),) * m.rank)
    for exps, coeff in terms.items():
        if sum(exps) != 1:
            raise ParseError("divisor expression has a constant term" if sum(exps) == 0
                             else "divisor expression multiplies labels", 0)
        total = total + m.named(labels[exps.index(1)]).scale(coeff)
    return total
