"""Local volumes of quotient surface singularities and degeneration data.

Covers the normalized-volume side of the engine: closed-form normalized
volumes of cyclic quotient points, the local-to-global volume inequality,
smoothability (T-singularity) filtering, the per-degree singularity
budget, Markov mutation trees and weighted-projective-plane volumes.

A leaf module: it imports nothing from the package but ``exactnum``, so
the lattice and the catalog can read its singularity records.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable

from .exactnum import Rat, rat

_SING_RE = re.compile(r"^1/(\d+)\((\d+),(\d+)\)$")

@dataclass(frozen=True, eq=False)
class QuotientSing:
    """Cyclic quotient surface singularity 1/n(a, b).

    The action is free in codimension 1, i.e. gcd(a, n) = gcd(b, n) = 1;
    n = 1 is a smooth point.  Instances compare equal up to the usual
    equivalences (swapping weights, multiplying by a unit mod n).
    """

    index: int
    weights: tuple[int, int] = (1, 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, QuotientSing) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(("QuotientSing",) + self.key())

    def __post_init__(self):
        n = self.index
        a, b = self.weights
        if n < 1:
            raise ValueError(f"index must be >= 1, got {n}")
        if n > 1 and (gcd(a % n, n) != 1 or gcd(b % n, n) != 1):
            raise ValueError(
                f"1/{n}({a},{b}) is not free in codimension 1: "
                "weights must be coprime to the index")

    @property
    def canonical_weight(self) -> int:
        """Smallest q with 1/n(1, q) equivalent to this singularity."""
        n = self.index
        if n == 1:
            return 0
        a, b = self.weights
        q = (pow(a, -1, n) * b) % n
        return min(q, pow(q, -1, n))

    def key(self) -> tuple[int, int]:
        return (self.index, self.canonical_weight)

    @property
    def display(self) -> str:
        n = self.index
        if n == 1:
            return "smooth"
        q = self.canonical_weight
        # A_{n-1} is 1/n(1, n-1); its canonical weight is min(n-1, (n-1)^{-1}).
        if QuotientSing(n, (1, n - 1)).canonical_weight == q:
            return f"A{n - 1}"
        return f"1/{n}(1,{q})"

    def __str__(self) -> str:
        return self.display


def parse_sing(text: str) -> QuotientSing:
    """Parse "1/n(a,b)", "Ak"/"A_k" or "smooth"."""
    s = text.strip().replace(" ", "")
    if s.lower() == "smooth":
        return QuotientSing(1)
    m = re.fullmatch(r"A_?(\d+)", s)
    if m:
        k = int(m.group(1))
        if k < 1:
            raise ValueError("A_k needs k >= 1")
        return QuotientSing(k + 1, (1, k))
    m = _SING_RE.fullmatch(s)
    if m:
        n, a, b = (int(g) for g in m.groups())
        return QuotientSing(n, (a, b))
    raise ValueError(f"cannot parse singularity {text!r}")


def nvol_quotient(s: QuotientSing) -> Rat:
    """Normalized volume of a quotient surface point: 2^2 / index."""
    return Fraction(4, s.index)


def monomial_nvol(w1, w2) -> Rat:
    """Normalized volume of the monomial valuation with weights (w1, w2).

    Log discrepancy w1 + w2, volume 1/(w1 w2); the product is
    (w1 + w2)^2/(w1 w2) >= 4 with equality exactly at w1 = w2.
    """
    w1, w2 = rat(w1), rat(w2)
    if w1 <= 0 or w2 <= 0:
        raise ValueError("monomial weights must be positive")
    return (w1 + w2) ** 2 / (w1 * w2)


def is_T_singularity(s: QuotientSing) -> bool:
    """Whether the quotient admits a Q-Gorenstein smoothing.

    Classical classification: the smoothable cyclic quotients are exactly
    1/(d n^2)(1, dna - 1) with d, n >= 1 and gcd(a, n) = 1, compared up
    to the unit/swap equivalence.  n = 1 recovers the A_{d-1} chain.
    """
    if s.index == 1:
        return True
    total = s.index
    q = s.canonical_weight
    targets = {q % total, pow(q, -1, total) % total}
    n = 1
    while n * n <= total:
        if total % (n * n) == 0:
            d = total // (n * n)
            for a in range(1, n + 1):
                if gcd(a, n) != 1:
                    continue
                if (d * n * a - 1) % total in targets:
                    return True
        n += 1
    return False


@dataclass(frozen=True)
class LocalGlobalReport:
    passed: bool
    vol: Rat
    threshold: Rat
    margin: Rat
    binding: str

    def as_dict(self) -> dict:
        return {
            "verdict": "pass" if self.passed else "fail",
            "vol": self.vol,
            "threshold": self.threshold,
            "margin": self.margin,
            "binding_singularity": self.binding,
        }


def local_global_check(vol, sings: Iterable[QuotientSing]) -> LocalGlobalReport:
    """Anticanonical-volume bound (-K)^2 <= (3/2)^2 * nvol(x) at every point.

    The minimum runs over the listed singular points together with an
    implicit smooth point, so the threshold never exceeds 9.
    """
    vol = rat(vol)
    if vol <= 0:
        raise ValueError("anticanonical volume must be positive")
    best = Fraction(4)
    binding = "smooth"
    for s in sings:
        v = nvol_quotient(s)
        if v < best:
            best, binding = v, s.display
    threshold = Fraction(9, 4) * best
    passed = vol <= threshold
    return LocalGlobalReport(passed, vol, threshold, abs(threshold - vol), binding)


def _sings_of_index(n: int) -> list[QuotientSing]:
    """All quotient singularities of index n up to equivalence, sorted."""
    if n == 1:
        return [QuotientSing(1)]
    seen: dict[int, QuotientSing] = {}
    for q in range(1, n):
        if gcd(q, n) != 1:
            continue
        s = QuotientSing(n, (1, q))
        seen.setdefault(s.canonical_weight, s)
    return [seen[k] for k in sorted(seen)]


def singularity_budget(degree: int) -> list[QuotientSing]:
    """Admissible smoothable quotient points on a degree-d member.

    The quotient-order bound gives |G| <= floor(9/d); candidates are then
    filtered by smoothability.  The smooth point is always included.
    """
    if not 1 <= degree <= 9:
        raise ValueError("degree must lie in 1..9")
    out: list[QuotientSing] = []
    for n in range(1, 9 // degree + 1):
        for s in _sings_of_index(n):
            if is_T_singularity(s):
                out.append(s)
    return out


@dataclass(frozen=True)
class MarkovTriple:
    """Sorted positive solution of a^2 + b^2 + c^2 = 3abc, pairwise coprime."""

    triple: tuple[int, int, int]

    def __post_init__(self):
        a, b, c = self.triple
        if not (0 < a <= b <= c):
            raise ValueError("triple must be positive and sorted ascending")
        if a * a + b * b + c * c != 3 * a * b * c:
            raise ValueError(f"{self.triple} does not solve the Markov equation")
        if gcd(a, b) != 1 or gcd(a, c) != 1 or gcd(b, c) != 1:
            raise ValueError(f"{self.triple} is not pairwise coprime")

    @classmethod
    def of(cls, a: int, b: int, c: int) -> "MarkovTriple":
        return cls(tuple(sorted((a, b, c))))

    def mutate(self, i: int) -> "MarkovTriple":
        """Replace the i-th entry x by 3*(product of others) - x."""
        a, b, c = self.triple
        vals = [a, b, c]
        others = [v for j, v in enumerate(vals) if j != i]
        vals[i] = 3 * others[0] * others[1] - vals[i]
        return MarkovTriple.of(*vals)

    def __str__(self) -> str:
        return "({},{},{})".format(*self.triple)


# The tree doubles with each level: depth 14 holds 8193 triples, depth 16
# 32769.  Callers build at most depth 10.
MARKOV_MAX_DEPTH = 14


def markov_tree(depth: int) -> list[MarkovTriple]:
    """Breadth-first closure of (1,1,1) under coordinate mutations.

    Triples are deduplicated in sorted form; the result is the set seen
    within `depth` mutation steps, stable-sorted for reproducible diffs.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > MARKOV_MAX_DEPTH:
        raise ValueError(f"depth must be <= {MARKOV_MAX_DEPTH} "
                         "(the tree doubles with each level)")
    root = MarkovTriple.of(1, 1, 1)
    seen = {root.triple: root}
    frontier = [root]
    for _ in range(depth):
        nxt = []
        for t in frontier:
            for i in range(3):
                m = t.mutate(i)
                if m.triple not in seen:
                    seen[m.triple] = m
                    nxt.append(m)
        frontier = nxt
    return [seen[k] for k in sorted(seen)]


def wps_volume(a: int, b: int, c: int) -> Rat:
    """Anticanonical self-intersection (a+b+c)^2/(abc) of P(a,b,c)."""
    if min(a, b, c) < 1:
        raise ValueError("weights must be positive integers")
    if gcd(a, b) != 1 or gcd(a, c) != 1 or gcd(b, c) != 1:
        raise ValueError(f"({a},{b},{c}) is not pairwise coprime")
    return Fraction((a + b + c) ** 2, a * b * c)
