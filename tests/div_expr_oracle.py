"""Reference divisor-expression reader, kept as a test oracle.

This is the hand-written grammar that ``delpezzo.parse`` used before
divisor expressions were read by the polynomial grammar: a sum of terms,
each an optional sign, an optional "p/q" coefficient, an optional "*" and
one label.  Where it accepts, ``div_from_expr`` must give the same class.
"""

from __future__ import annotations

from fractions import Fraction

from delpezzo.exactnum import Rat
from delpezzo.lattice import DivClass, SurfaceModel
from delpezzo.parse import ParseError, _tokenize


def parse_div_expr(src: str, resolve) -> list[tuple[Rat, str]]:
    """(coeff, label) terms of a divisor expression like "3H - E1 - 1/2Q";
    ``resolve`` is called with each label and its 0-based column."""
    toks = _tokenize(src)
    terms: list[tuple[Rat, str]] = []
    i = 0
    first = True
    while toks[i].kind != "end":
        sign = Fraction(1)
        tok = toks[i]
        if tok.kind == "op" and tok.text in "+-":
            sign = Fraction(-1) if tok.text == "-" else Fraction(1)
            i += 1
        elif not first:
            raise ParseError("expected '+' or '-' between divisor terms", tok.pos)
        coeff = Fraction(1)
        tok = toks[i]
        if tok.kind == "num":
            coeff = tok.value
            i += 1
            if toks[i].kind == "op" and toks[i].text == "/":
                den = toks[i + 1]
                if den.kind != "num" or den.value == 0:
                    raise ParseError("expected nonzero integer denominator", toks[i].pos)
                coeff = coeff / den.value
                i += 2
            if toks[i].kind == "op" and toks[i].text == "*":
                i += 1
        tok = toks[i]
        if tok.kind != "name":
            raise ParseError("expected a divisor label", tok.pos)
        resolve(tok.text, tok.pos)
        terms.append((sign * coeff, tok.text))
        i += 1
        first = False
    if not terms:
        raise ParseError("empty divisor expression", 0)
    return terms


def div_from_expr(m: SurfaceModel, src: str) -> DivClass:
    """The class on ``m`` of a divisor expression over its labels."""
    def check(label, pos):
        if m.named(label) is None:
            raise ParseError(f"unknown divisor label {label!r} on {m.name}", pos)
    total = DivClass((Fraction(0),) * m.rank)
    for coeff, label in parse_div_expr(src, check):
        total = total + m.named(label).scale(coeff)
    return total
