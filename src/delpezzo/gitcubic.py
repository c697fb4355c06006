"""Torus stability of cubic forms in four variables.

A one-parameter subgroup of the torus acts on a monomial x^m by the
pairing of its integer weight vector (summing to zero) with the exponent
m.  The form degenerates to zero under the subgroup exactly when the
minimal pairing over its support is positive, so:

    unstable w.r.t. the fixed torus
        <=>  some weight vector is positive on the whole support
        <=>  the barycenter (3/4, 3/4, 3/4, 3/4) lies outside the
             convex hull of the support.

One exact rational LP decides hull membership.  When it is
infeasible, its Farkas vector y (y.A <= 0 < y.b) is the witness:
with u = -y[0:4], u.p >= y[4] > (3/4) sum(u) for every support point p,
and since sum(p) = 3 the centred w = u - (sum(u)/4)(1,1,1,1) has
w.p > 0 on the whole support.  Scaled to a primitive integer vector, it
is re-verified against the support before being returned.

Every verdict rests on the LP's own certificate: the convex combination
that ``lp.eq_feasibility`` re-checks, or a witness of positive weight.

Full GIT (quantifying over all coordinate systems) is out of scope:
verdicts for smooth normal forms in the shipped table carry a literature
flag for the coordinate quantifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from . import lp
from .exactnum import Rat, combination_str, over_one_denominator, poly_mul, rat
from .linalg import bareiss

VARS = ("x", "y", "z", "w")
WEIGHT_BOUND = 9  # bound on the weights ``brute_force_destabilizer`` searches


@dataclass(frozen=True)
class CubicForm:
    """Homogeneous cubic in x, y, z, w as an exponent-indexed term map."""

    terms: tuple[tuple[tuple[int, int, int, int], Rat], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("cubic form must have at least one term")
        for expo, coeff in self.terms:
            if len(expo) != 4 or any(e < 0 for e in expo) or sum(expo) != 3:
                raise ValueError(f"exponent {expo} is not a degree-3 monomial")
            if coeff == 0:
                raise ValueError("term coefficients must be nonzero")

    @classmethod
    def from_terms(cls, terms: Mapping[Sequence[int], Rat]) -> "CubicForm":
        clean = {tuple(int(e) for e in k): rat(v) for k, v in terms.items() if rat(v) != 0}
        return cls(tuple(sorted(clean.items(), reverse=True)))

    @property
    def support(self) -> tuple[tuple[int, int, int, int], ...]:
        return tuple(e for e, _ in self.terms)

    def format(self) -> str:
        return combination_str(
            (c, "".join(v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, expo) if e))
            for expo, c in self.terms)


@dataclass(frozen=True)
class OnePS:
    """Integer weight cocharacter of the torus, weights summing to zero."""

    weights: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.weights) != 4 or any(not isinstance(w, int) for w in self.weights):
            raise ValueError("need 4 integer weights")
        if sum(self.weights) != 0:
            raise ValueError("weights must sum to zero")


def hm_weight(f: CubicForm, lam: OnePS) -> Rat:
    """min over the support of <weights, exponents>.

    Sign convention: the form is non-semistable for ``lam`` exactly when
    this is positive (the limit of the form under the subgroup is zero).
    """
    return Fraction(min(sum(w * e for w, e in zip(lam.weights, expo))
                        for expo in f.support))


def barycenter_in_hull(f: CubicForm) -> bool:
    """Exact membership of (3/4,...,3/4) in the convex hull of the support.
    No engine caller; kept for the benchmark tracer (ROADMAP item 1)."""
    return torus_destabilizer(f) is None


def brute_force_destabilizer(f: CubicForm) -> OnePS | None:
    """First weight vector (lexicographic, entries within WEIGHT_BOUND) that
    is strictly positive on the whole support; an oracle for the decision
    of ``torus_destabilizer``, whose witnesses may exceed the bound.

    With w4 = -(w1 + w2 + w3), a monomial e pairs to r + c*w3, where
    r = w1*(e1 - e4) + w2*(e2 - e4) and c = e3 - e4.  For fixed (w1, w2)
    each monomial with c != 0 bounds w3 from one side, one with c = 0
    passes or rules out the pair, and |w3|, |w4| <= WEIGHT_BOUND bound w3
    from both.  The first witness is the low end of the first nonempty
    interval; the zero vector pairs to 0 and so is never in one.

    A test oracle with no engine caller, kept for the benchmark tracer
    until ROADMAP item 1 moves it to the tests."""
    diffs = [(e[0] - e[3], e[1] - e[3], e[2] - e[3]) for e in f.support]
    bound = WEIGHT_BOUND
    rng = range(-bound, bound + 1)
    for w1 in rng:
        for w2 in rng:
            lo, hi = max(-bound, -bound - w1 - w2), min(bound, bound - w1 - w2)
            for a, b, c in diffs:
                r = w1 * a + w2 * b
                if c > 0:
                    lo = max(lo, -r // c + 1)   # w3 > -r/c
                elif c < 0:
                    hi = min(hi, (r - 1) // -c)  # w3 < r/(-c)
                elif r <= 0:
                    break
                if lo > hi:
                    break
            else:
                return OnePS((w1, w2, lo, -(w1 + w2 + lo)))
    return None


def torus_destabilizer(f: CubicForm) -> OnePS | None:
    """Destabilizing one-parameter subgroup for the fixed torus, if any.

    None inside the hull, else the Farkas witness (module docstring);
    ArithmeticError if ``hm_weight`` does not verify it.
    """
    pts = f.support
    a = [[p[i] for p in pts] for i in range(4)] + [[1] * len(pts)]
    res = lp.eq_feasibility(a, [Fraction(3, 4)] * 4 + [1])
    if res.feasible:
        return None
    u = [-y for y in res.farkas[:4]]
    _, ints = over_one_denominator([x - sum(u) / 4 for x in u])
    g = gcd(*ints) or 1
    witness = OnePS(tuple(x // g for x in ints))
    if hm_weight(f, witness) <= 0:
        raise ArithmeticError(f"Farkas witness {witness.weights} is not "
                              f"positive on the support of {f.format()}")
    return witness


def apply_coordinate_change(f: CubicForm, matrix: Sequence[Sequence[Rat]]) -> CubicForm:
    """Exact expansion of f(M x): substitute x_i -> sum_j M[i][j] x_j."""
    m = [[rat(x) for x in row] for row in matrix]
    if len(m) != 4 or any(len(row) != 4 for row in m):
        raise ValueError("need a 4x4 matrix")
    _, det, _ = bareiss([over_one_denominator(row)[1] for row in m], [])
    if det == 0:
        raise ValueError("coordinate change must be invertible")

    unit = {(0, 0, 0, 0): Fraction(1)}

    linear_forms = []
    for i in range(4):
        form = {}
        for j in range(4):
            if m[i][j] != 0:
                key = tuple(int(j == t) for t in range(4))
                form[key] = m[i][j]
        linear_forms.append(form)

    total: dict[tuple[int, int, int, int], Fraction] = {}
    for expo, coeff in f.terms:
        term = unit
        for i, e in enumerate(expo):
            for _ in range(e):
                term = poly_mul(term, linear_forms[i])
        for k, v in term.items():
            total[k] = total.get(k, Fraction(0)) + coeff * v
    return CubicForm.from_terms(total)


FERMAT = CubicForm.from_terms({
    (3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1})
TRIPLE_A2 = CubicForm.from_terms({(1, 1, 1, 0): 1, (0, 0, 0, 3): -1})  # xyz - w^3
CONE_PLANE_CUBIC = CubicForm.from_terms({
    (3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1})


def catalog_verdicts() -> list[dict]:
    """Shipped normal forms with torus verdicts recomputed at call time.

    Smooth-form entries rely on the classical coordinate-quantified
    classification for their literature column; the torus column is what
    this module actually certifies.
    """
    entries = [
        ("fermat", FERMAT, "K-stable (smooth, classical classification)", None),
        ("xyz-w3", TRIPLE_A2, "strictly polystable (three A2 points)",
         "strictly semistable in literature"),
        ("cone-plane-cubic", CONE_PLANE_CUBIC, "unstable (cone singularity)", None),
    ]
    out = []
    for name, form, literature, flag in entries:
        witness = torus_destabilizer(form)
        row = {
            "name": name,
            "form": form.format(),
            "torus_verdict": "torus-unstable" if witness else "torus-semistable",
            "literature_verdict": literature,
        }
        if witness is not None:
            row["witness"] = list(witness.weights)
            row["witness_weight"] = hm_weight(form, witness)
        if flag:
            row["flag"] = flag
        out.append(row)
    return out
