"""Discrepancies, singularity classes, log canonical thresholds and the
A/S/beta/delta invariants of divisors over catalogued surfaces.

Discrepancies are solved from the exceptional dual graph by adjunction:
for each vertex j,

    sum_i a_i (E_i . E_j) = 2 g_j - 2 - e_j + sum_l b_l inc(l, j),

an exact linear system against the (negative-definite) intersection
matrix.  Thresholds of plane-curve germs use the Newton-polygon diagonal
rule.  The divisorial invariants reduce to volume profiles:

    S(E) = (1/L^2) * integral_0^tau vol(L - tE) dt,
    beta(E) = A(E) - S(E),        delta(E) = A(E)/S(E),

with A(E) the log discrepancy.  For the divisor E that a catalogue link
extracts it is read on the link's target pair (Y, D_Y) alone, as
A = 1 - H_Y.E/E^2 for H_Y = -(K_Y + D_Y) (``ModelLink.extracted``).
A negative beta certifies instability of the pair.  ``invariants(m,
spec)`` resolves a divisor spec once and walks its profile once; the
``Invariants`` record it returns carries A, the profile, S, beta and
delta, and every report and flag bound reads them from there.

``p114_pair_report`` is the P(1,1,4) study: beta = A - S at the exceptional
curve of its resolution F_4, as the boundary coefficient moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .catalog import get_model
from .exactnum import Rat, over_one_denominator, rat, rat_str
from .lattice import (MAX_GRAPH_VERTICES, DivClass, GraphVertex, ModelLink, ResolutionGraph,
                      StrictTransform, SurfaceModel)
from .linalg import bareiss, sylvester_negative_definite
from .positivity import VolumeProfile, volume_profile


def discrepancies(g: ResolutionGraph) -> list[Rat]:
    """Exact discrepancy vector a of the adjunction system M a = b, b cleared
    to integers n / s.  One Bareiss elimination of the integer intersection
    matrix M certifies it negative definite by its leading principal minors
    and gives X with M X = det(M) n, so that a = X / (det(M) s)."""
    mat = g.intersection_matrix()
    rhs = []
    for j, v in enumerate(g.vertices):
        val = Fraction(2 * v.genus - 2 - v.self_int)
        for st in g.strict_transforms:
            for i, mult in st.incidences:
                if i == j:
                    val += st.coeff * mult
        rhs.append(val)
    s, nums = over_one_denominator(rhs)
    minors, det, xs = bareiss(mat, [nums])
    if not sylvester_negative_definite(minors, len(mat)):
        raise ValueError("intersection matrix is not negative definite")
    return [Fraction(x, det * s) for x in xs[0]]


@dataclass(frozen=True)
class SingClass:
    """Classification with the witnessing minimal discrepancy."""

    kind: str  # terminal | canonical | klt | plt-boundary | lc | not-lc
    min_discrepancy: Rat


def classify(g: ResolutionGraph) -> SingClass:
    """Singularity class of the pair presented by the graph.

    Computed from min(a_i, 1 - b_l, 1) once all a_i >= -1; any a_i < -1
    already puts the pair outside log canonicity.
    """
    a = discrepancies(g)
    min_a = min(a)
    if min_a < -1:
        return SingClass("not-lc", min_a)
    coeffs = [st.coeff for st in g.strict_transforms]
    d = min([min_a, Fraction(1)] + [1 - b for b in coeffs])
    if d > 0:
        return SingClass("terminal", d)
    if d == 0:
        return SingClass("canonical", d)
    if d > -1:
        if all(b < 1 for b in coeffs):
            return SingClass("klt", d)
        return SingClass("plt-boundary", d)
    return SingClass("lc", d)


# --- named graphs ------------------------------------------------------------

def cone_graph(genus: int, self_int: int) -> ResolutionGraph:
    return ResolutionGraph((GraphVertex("E", genus, self_int),))


def an_chain_graph(n: int) -> ResolutionGraph:
    if n < 1:
        raise ValueError("A_n needs n >= 1")
    if n > MAX_GRAPH_VERTICES:  # refused before n vertices are built
        raise ValueError(f"resolution graph has {n} vertices, more than the "
                         f"bound of {MAX_GRAPH_VERTICES}")
    verts = tuple(GraphVertex(f"E{i + 1}", 0, -2) for i in range(n))
    edges = tuple((i, i + 1, 1) for i in range(n - 1))
    return ResolutionGraph(verts, edges)


def named_graph(spec: str) -> ResolutionGraph:
    """Built-in graphs: quadric-cone, elliptic-cone, rnc-cone:n[+ruling],
    cone-genus:g, An:n."""
    s = spec.strip()
    if s == "quadric-cone":
        return cone_graph(0, -2)
    if s == "elliptic-cone":
        return cone_graph(1, -1)
    if s.startswith("cone-genus:"):
        return cone_graph(int(s.split(":")[1]), -1)
    if s.startswith("An:"):
        return an_chain_graph(int(s.split(":")[1]))
    if s.startswith("rnc-cone:"):
        rest = s.split(":")[1]
        with_ruling = rest.endswith("+ruling")
        n = int(rest[:-len("+ruling")] if with_ruling else rest)
        if n < 1:
            raise ValueError("rational normal curve degree must be >= 1")
        st = (StrictTransform(Fraction(1), ((0, 1),)),) if with_ruling else ()
        return ResolutionGraph((GraphVertex("E", 0, -n),), strict_transforms=st)
    raise ValueError(f"unknown graph {spec!r}")


# --- Newton-polygon thresholds ----------------------------------------------

@dataclass(frozen=True)
class PlaneCurveGerm:
    """Plane curve germ at the origin, kept as its exponent support."""

    terms: tuple[tuple[tuple[int, int], Rat], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("germ must have nonempty support")
        for (i, j), c in self.terms:
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            if (i, j) == (0, 0):
                raise ValueError("germ must vanish at the origin")
            if c == 0:
                raise ValueError("support coefficients must be nonzero")

    @classmethod
    def from_terms(cls, terms: Mapping[tuple[int, int], Rat]) -> "PlaneCurveGerm":
        return cls(tuple(sorted((k, rat(v)) for k, v in terms.items())))

    @property
    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(k for k, _ in self.terms)


def _lower_hull(points: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Vertices of the lower-left boundary of the Newton polygon."""
    best: dict[int, int] = {}
    for i, j in points:
        if i not in best or j < best[i]:
            best[i] = j
    pts = sorted(best.items())
    hull: list[tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it lies on or above the segment hull[-2] -> p
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    # drop trailing points absorbed by the horizontal ray (rising tail)
    while len(hull) >= 2 and hull[-1][1] >= hull[-2][1]:
        hull.pop()
    return hull


def diagonal_parameter(f: PlaneCurveGerm) -> Rat:
    """Smallest t with (t, t) on the Newton polygon of the germ.

    Equals max over nonnegative weights w of mult_w(f)/(w1 + w2); the
    maximum is attained on an edge normal or a coordinate weight.
    """
    supp = f.support
    cands: list[Rat] = []
    min_i = min(i for i, _ in supp)
    min_j = min(j for _, j in supp)
    cands.append(Fraction(min_i))   # weight (1, 0)
    cands.append(Fraction(min_j))   # weight (0, 1)
    hull = _lower_hull(supp)
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        w1, w2 = y1 - y2, x2 - x1
        mult = min(w1 * i + w2 * j for i, j in supp)
        cands.append(Fraction(mult, w1 + w2))
    return max(cands)


def degenerate_edge(f: PlaneCurveGerm) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The first compact edge of the Newton polygon on which f is degenerate,
    or None when f is Newton-nondegenerate.

    The terms of f on the edge from (i, j) to (k, l), in order along it, are
    the coefficients c_s of its edge polynomial q(u) = sum_s c_s u^s, of degree
    g = gcd(k - i, j - l).  Both endpoints are terms of f, so every root of q
    is nonzero, and f is degenerate on the edge when q has a repeated root.
    A two-term q = c_0 + c_g u^g has none.  Otherwise q has one exactly when
    it shares a root with q', that is when their resultant, the determinant
    of their Sylvester matrix, is 0."""
    coeffs = dict(f.terms)
    hull = _lower_hull(f.support)
    for (i, j), (k, l) in zip(hull, hull[1:]):
        g = gcd(k - i, j - l)
        q = [coeffs.get((i + s * (k - i) // g, j - s * (j - l) // g), Fraction(0))
             for s in range(g + 1)]
        if sum(1 for c in q if c) > 2:
            q = over_one_denominator(q)[1]
            dq = [s * c for s, c in enumerate(q)][1:]
            sylvester = ([[0] * r + q + [0] * (g - 2 - r) for r in range(g - 1)]
                         + [[0] * r + dq + [0] * (g - 1 - r) for r in range(g)])
            if bareiss(sylvester, [])[1] == 0:
                return (i, j), (k, l)
    return None


def lct_newton(f: PlaneCurveGerm) -> Rat:
    """Log canonical threshold min(1, 1/t0) by the Newton diagonal rule.

    The rule is exact for Newton-nondegenerate germs.  On a germ that is
    degenerate on some edge (``degenerate_edge``) it only bounds the lct from
    above, and ArithmeticError is raised with that bound instead.
    """
    t0 = diagonal_parameter(f)
    # t0 > 0 whenever the support is nonempty and misses the origin
    bound = min(Fraction(1), 1 / t0)
    edge = degenerate_edge(f)
    if edge is not None:
        (i, j), (k, l) = edge
        raise ArithmeticError(
            f"the germ is Newton-degenerate on the edge ({i},{j})-({k},{l}); the diagonal "
            f"rule only bounds its lct from above by {rat_str(bound)}")
    return bound


def lct_n_lines(n: int) -> Rat:
    """lct of n distinct lines through the origin via x^n - y^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return Fraction(1)
    germ = PlaneCurveGerm.from_terms({(n, 0): Fraction(1), (0, n): Fraction(-1)})
    return lct_newton(germ)


# --- divisor specs over a model ----------------------------------------------

class DivisorSpecError(ValueError):
    """Unknown or unusable divisor spec."""


@dataclass(frozen=True)
class ResolvedDivisor:
    """A divisor over the base surface, realized on a working model."""

    base: SurfaceModel
    work: SurfaceModel
    L: DivClass          # pullback of -K - Delta to the working model
    E: DivClass
    label: str
    A: Rat
    kind: str            # "on-surface" | "blowup" | "resolution" | "raw"


def _linked(m: SurfaceModel, link: ModelLink, kind: str) -> ResolvedDivisor:
    target = get_model(link.target)
    E, A = link.extracted(target)
    return ResolvedDivisor(m, target, link.pull(m.polarization()), E,
                           link.exceptional_label, A, kind)


def _raw(m: SurfaceModel, cls: DivClass) -> ResolvedDivisor:
    if len(cls) != m.rank:
        raise DivisorSpecError("raw class has the wrong rank")
    return ResolvedDivisor(m, m, m.polarization(), cls, m.render(cls), Fraction(1), "raw")


def resolve_divisor_spec(m: SurfaceModel, spec: "str | DivClass") -> ResolvedDivisor:
    """Resolve a link keyword ("exceptional:pt", "exceptional"), a name or
    a raw class on the surface.  A name reads its class and A from the
    model's table (``names``); a bare basis label is a raw class.

    A keyword the surface cannot resolve reports why; any other string is
    read as a divisor expression ("3H - E1 - E2"), resolved as a raw class."""
    if isinstance(spec, DivClass):
        return _raw(m, spec)
    name = spec.strip()
    if name == "exceptional:pt":
        if m.blowup is None:
            raise DivisorSpecError(f"{m.name} has no catalogued point blow-up")
        return _linked(m, m.blowup, "blowup")
    if name in ("exceptional", "e") and m.resolution is not None:
        return _linked(m, m.resolution, "resolution")
    if name in m.names:
        cls, a = m.names[name]
        return (_raw(m, cls) if a is None  # a bare basis label
                else ResolvedDivisor(m, m, m.polarization(), cls, name, a, "on-surface"))
    if name == "exceptional":
        raise DivisorSpecError(f"{m.name} has no catalogued resolution")
    from .parse import ParseError, div_from_expr  # the grammar only expressions need
    try:
        return _raw(m, div_from_expr(m, spec))
    except ParseError as exc:
        raise DivisorSpecError(str(exc)) from exc


@dataclass(frozen=True)
class Invariants:
    """A, the profile vol(L - tE), S, beta and delta of one divisor over a pair."""

    divisor: ResolvedDivisor
    profile: VolumeProfile

    @property
    def A(self) -> Rat:
        return self.divisor.A

    @property
    def S(self) -> Rat:
        return self.profile.S

    @property
    def beta(self) -> Rat:
        """A(E) - S(E); a negative value certifies instability."""
        return self.A - self.S

    @property
    def delta(self) -> Rat | None:
        """A(E)/S(E), or None when S(E) = 0."""
        return self.A / self.S if self.S != 0 else None

    def as_dict(self) -> dict:
        """The divisor's row of a ``beta`` report."""
        return {"divisor": self.divisor.label, "kind": self.divisor.kind,
                "A": self.A, "S": self.S, "beta": self.beta, "delta": self.delta}


def invariants(m: SurfaceModel, spec: "str | DivClass") -> Invariants:
    """Resolve the spec once and walk its volume profile once."""
    rd = resolve_divisor_spec(m, spec)
    return Invariants(rd, volume_profile(rd.work, rd.L, rd.E))


def profile_for(m: SurfaceModel, spec: "str | DivClass") -> VolumeProfile:
    return invariants(m, spec).profile


def beta_report(m: SurfaceModel, spec: "str | DivClass") -> dict:
    return invariants(m, spec).as_dict()


def unstable_certificate(m: SurfaceModel,
                         candidates: Iterable["str | DivClass"],
                         known: Mapping["str | DivClass", Invariants] = {},
                         ) -> tuple["str | DivClass", Rat] | None:
    """First candidate with beta < 0 (input order), with its beta value: the
    one rule by which a divisor certifies instability.  A raw class is
    skipped: its A = 1 is the log discrepancy only of a prime divisor on the
    surface, which a class is not known to be.  A candidate in ``known`` is
    read from the invariants the caller already holds, not walked again."""
    for spec in candidates:
        inv = known.get(spec) or invariants(m, spec)
        if inv.divisor.kind != "raw" and inv.beta < 0:
            return spec, inv.beta
    return None


def p114_pair_report(d: int) -> dict:
    """Worked boundary-pair study on P(1,1,4) with curves in |O(4d)|.

    Part (a): for a boundary curve through the singular point with the
    minimal multiplicity 4 there, beta at the exceptional divisor e of the
    weighted blow-up.  On F4, -K - cD pulls back to (6 - 4cd) L1, with
    L1 = e/4 + f the pullback of O(1), and S is homogeneous of degree 1 in
    L, so beta(e)(c) = 1/2 - c - (6 - 4cd) S1 with S1 = S(e) for L1: one
    exact integration gives the constant 1/2 - 6 S1 and the slope
    4d S1 - 1.  Part (b): if the curve misses the singular point, the
    volume bound at the 1/4(1,1) point caps the log-Fano range.  All
    values are produced by this package's own integration and flagged
    self-certified.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    work = get_model("F4~P(1,1,4)")
    s1 = volume_profile(work, DivClass((Fraction(1, 4), Fraction(1))), work.curve("e")).S
    # A = 1/2 - c: log discrepancy 2/4, minus c * ord_e(pullback of D)
    b1, slope = Fraction(1, 2) - 6 * s1, 4 * d * s1 - 1
    log_fano_sup = Fraction(3, 2 * d)
    beta_zero = -b1 / slope if slope != 0 else None
    if slope < 0:
        certified = log_fano_sup
    elif beta_zero is not None and beta_zero > 0:
        certified = min(log_fano_sup, beta_zero)
    else:
        certified = Fraction(0)
    return {
        "d": d,
        "beta_exceptional": {
            "constant": b1,
            "slope_in_c": slope,
            "formula": f"beta(e)(c) = {rat_str(b1)} + ({rat_str(slope)})*c",
        },
        "multiplicity_at_singular_point": 4,
        "log_fano_range": (Fraction(0), log_fano_sup),
        "beta_negative_for_c_below": beta_zero,
        "certified_unstable_range": (Fraction(0), certified),
        "covers_full_log_fano_range": certified >= log_fano_sup,
        "index_bound_semistable_needs": Fraction(3, 4 * d),
        "self_certified": True,
    }
