"""Exact rational arithmetic and piecewise-polynomial calculus.

Everything downstream (intersection numbers, volume profiles, the
integral invariants) reduces to arithmetic in Q and to integrating
piecewise polynomials with rational breakpoints.  Floating point is
deliberately never used: every quantity the engine reports is an exact
rational number and results are compared bit-exactly.

All values here are immutable after construction and every operation is
a pure function, so concurrent use needs no locking.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import isqrt, lcm
from operator import add
from typing import Iterable, Sequence, Union

#: Exact rational scalar.  ``fractions.Fraction`` already maintains the
#: invariants we need: reduced form and a positive denominator.
Rat = Fraction

RatLike = Union[Rat, int, str]


class DomainError(ValueError):
    """Raised when an operation is evaluated outside its domain."""


def rat(x: RatLike) -> Rat:
    """Coerce an int, Fraction or "p/q" string to an exact rational.  A string
    is only a sign, digits and a nonzero "/" denominator: no exponent, no
    decimal point, and neither p nor q longer than Python's limit on integer
    strings (``sys.get_int_max_str_digits()``)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        num, slash, den = x.strip().partition("/")
        digits = num[1:] if num.startswith(("+", "-")) else num
        if not (digits.isascii() and digits.isdigit()
                and (not slash or den.isascii() and den.isdigit() and den.strip("0"))):
            raise ValueError(f"{x!r} is not a rational p/q with a nonzero denominator q")
        # 0 means no limit, as on Python < 3.10.7, which has none
        limit = getattr(sys, "get_int_max_str_digits", int)()
        longest = max(len(digits), len(den))
        if limit and longest > limit:
            raise ValueError(f"a rational p/q whose p or q has {longest} digits is longer "
                             f"than the limit of {limit} digits")
        return Fraction(int(num), int(den) if slash else 1)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def rat_str(x: RatLike) -> str:
    """Render a rational as "p/q" ("p" when the denominator is 1)."""
    q = rat(x)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def combination_str(terms: Iterable[tuple[Rat, str]]) -> str:
    """Render the sum of c * x over (c, x) pairs as "x - 3/4*y + 2": zero terms
    are dropped, a coefficient of magnitude 1 is left out before a name x, a
    term with x = "" is the constant c, and the empty sum is "0"."""
    parts = []
    for c, x in terms:
        if c:
            mag = rat_str(abs(c))
            term = f"{mag}*{x}" if x and mag != "1" else x or mag
            parts.append(("- " if c < 0 else "+ ") + term)
    s = " ".join(parts)
    return "0" if not s else s[2:] if s.startswith("+ ") else "-" + s[2:]


def sqrt_rat(x: Rat) -> Rat | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def over_one_denominator(values: Sequence[Rat]) -> tuple[int, list[int]]:
    """(s, n) with values[i] = n[i] / s: integer numerators over the least
    common denominator s."""
    s = lcm(*(v.denominator for v in values))
    return s, [v.numerator * (s // v.denominator) for v in values]


def poly_mul(a: dict, b: dict) -> dict:
    """Product of two multivariate polynomials kept as exponent-tuple ->
    coefficient maps (zero terms dropped).

    Each factor is cleared to integer numerators over one denominator, so
    the term products are integer products and sums, and a Fraction is
    built once per term of the result; keys come in the order the term
    products first reach them."""
    sa, na = over_one_denominator(list(a.values()))
    sb, nb = over_one_denominator(list(b.values()))
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in zip(a, na):
        for eb, cb in zip(b, nb):
            key = tuple(map(add, ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    s = sa * sb
    return {k: Fraction(v, s) for k, v in out.items() if v}


class Poly:
    """Univariate polynomial with exact rational coefficients.

    Coefficients are stored lowest degree first with trailing zeros
    stripped; the zero polynomial has an empty coefficient tuple and the
    sentinel degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        """Degree, with -1 as the zero-polynomial sentinel."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Rat:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __call__(self, x: RatLike) -> Rat:
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other: "Poly | RatLike") -> "Poly":
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return Poly([c * rat(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "Poly":
        return Poly([Fraction(0)] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def integrate(self, a: RatLike, b: RatLike) -> Rat:
        a, b = rat(a), rat(b)
        if a > b:
            raise DomainError(f"integration bounds reversed: {a} > {b}")
        F = self.antiderivative()
        return F(b) - F(a)

    def format(self) -> str:
        """Highest degree first in the variable t, as "-3/4*t^2 + t - 2"."""
        return combination_str((self.coeffs[k], "" if k == 0 else "t" if k == 1 else f"t^{k}")
                               for k in reversed(range(len(self.coeffs))))

    def __repr__(self) -> str:
        return f"Poly({self.format()})"


def rational_roots(p: Poly) -> list[Rat]:
    """Exact rational roots of a polynomial of degree <= 2, sorted.

    Quadratics with an irrational root pair return only the rational
    roots (none, for an irrational discriminant).
    """
    d = p.degree
    if d <= 0:
        return []
    if d == 1:
        return [-p.coeff(0) / p.coeff(1)]
    if d == 2:
        a, b, c = p.coeff(2), p.coeff(1), p.coeff(0)
        disc = b * b - 4 * a * c
        r = sqrt_rat(disc)
        if r is None:
            return []
        roots = {(-b - r) / (2 * a), (-b + r) / (2 * a)}
        return sorted(roots)
    raise ValueError("rational_roots handles degree <= 2 only")


class PiecewisePoly:
    """Continuous piecewise polynomial on [b_0, b_k].

    ``pieces[i]`` is valid on [breakpoints[i], breakpoints[i+1]].
    Continuity at interior breakpoints is enforced at construction: the
    functions this models (volume profiles) are continuous, so a
    discontinuous construction attempt signals an upstream bug.
    """

    __slots__ = ("breakpoints", "pieces")

    def __init__(self, breakpoints: Sequence[RatLike], pieces: Sequence[Poly]):
        bps = tuple(rat(b) for b in breakpoints)
        pcs = tuple(pieces)
        if len(bps) != len(pcs) + 1:
            raise ValueError("need exactly one more breakpoint than pieces")
        if not pcs:
            raise ValueError("need at least one piece")
        for lo, hi in zip(bps, bps[1:]):
            if not lo < hi:
                raise ValueError(f"breakpoints not strictly increasing: {lo} >= {hi}")
        for i in range(len(pcs) - 1):
            b = bps[i + 1]
            if pcs[i](b) != pcs[i + 1](b):
                raise ValueError(f"pieces disagree at breakpoint {b}: "
                                 f"{pcs[i](b)} != {pcs[i + 1](b)}")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pcs)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("PiecewisePoly is immutable")

    @property
    def domain(self) -> tuple[Rat, Rat]:
        return self.breakpoints[0], self.breakpoints[-1]

    def piece_index(self, x: Rat) -> int:
        lo, hi = self.domain
        if not lo <= x <= hi:
            raise DomainError(f"{x} outside domain [{lo}, {hi}]")
        for i in range(len(self.pieces)):
            if x <= self.breakpoints[i + 1]:
                return i
        return len(self.pieces) - 1

    def __call__(self, x: RatLike) -> Rat:
        x = rat(x)
        return self.pieces[self.piece_index(x)](x)

    def integrate(self, a: RatLike, b: RatLike) -> Rat:
        a, b = rat(a), rat(b)
        if a > b:
            raise DomainError(f"integration bounds reversed: {a} > {b}")
        lo, hi = self.domain
        if a < lo or b > hi:
            raise DomainError(f"[{a}, {b}] outside domain [{lo}, {hi}]")
        total = Fraction(0)
        for i, p in enumerate(self.pieces):
            plo, phi = self.breakpoints[i], self.breakpoints[i + 1]
            s, e = max(a, plo), min(b, phi)
            if s < e:
                total += p.integrate(s, e)
        return total

    def __eq__(self, other) -> bool:
        return (isinstance(other, PiecewisePoly)
                and self.breakpoints == other.breakpoints
                and self.pieces == other.pieces)

    def __hash__(self) -> int:
        return hash(("PiecewisePoly", self.breakpoints, self.pieces))

    def to_report(self) -> list[dict]:
        """Serialize to the report form: [{from, to, coeffs}] with "p/q" rationals."""
        return [
            {
                "from": rat_str(self.breakpoints[i]),
                "to": rat_str(self.breakpoints[i + 1]),
                "coeffs": [rat_str(c) for c in p.coeffs] or ["0"],
            }
            for i, p in enumerate(self.pieces)
        ]

    def __repr__(self) -> str:
        bits = ", ".join(
            f"{p.format()} on [{rat_str(self.breakpoints[i])}, {rat_str(self.breakpoints[i + 1])}]"
            for i, p in enumerate(self.pieces))
        return f"PiecewisePoly({bits})"
