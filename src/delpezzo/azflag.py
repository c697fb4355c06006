"""Surface flag adjunction: restricted invariants and local delta bounds.

For a plt-type curve E over the surface, the chamber data of the profile
u -> vol(L - uE) (positive part P(u), negative part N(u), threshold tau)
induces a lower bound for the local invariant at a point p on E:

    S(W; p) = (2/L^2) * int_0^tau [ (P(u).E) ord_p(N(u)|_E)
                                    + deg_p(u)^2 / 2 ] du,
    delta_p >= min( A(E)/S(E),  (1 - ord_p Delta_E) / S(W; p) ),

where deg_p(u) is the mass of P(u)|_E free to concentrate at p (the full
degree P(u).E minus any component forced away from p) and Delta_E is the
different.  Flag chamber data is derived from the positivity module, so
the two computation paths cross-validate.  P(u).E is read from the
chamber's volume piece as -vol'(u)/2: inside a chamber P(u).C_i = 0 on the
support, so d/du P(u)^2 = -2 P(u).E.

Plt-type and primitivity of catalogued flags are asserted by the
catalog; user-supplied flags are accepted at the caller's risk and the
reports say so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .exactnum import Poly, Rat
from .lattice import JsonValue, SurfaceModel
from .valuative import Invariants, invariants, unstable_certificate


class FlagDataError(ValueError):
    """Flag lacks data needed for the requested point."""


class CoverageError(ValueError):
    """The supplied flags do not cover every point class of the surface."""


@dataclass(frozen=True)
class FlagPoint:
    """Point class on the flag curve E.

    ``diff_coeff`` is ord_p of the different; ``n_orders`` gives
    ord_p(N(u)|_E) per chamber when p lies under the negative part;
    ``deg_corrections`` subtracts mass of P(u)|_E forced away from p.
    """

    label: str
    diff_coeff: Rat = Fraction(0)
    under_n: bool = False
    n_orders: tuple[Poly, ...] | None = None
    deg_corrections: tuple[Poly, ...] | None = None


@dataclass(frozen=True)
class FlagSpec:
    """Catalogue-backed flag: the invariants of the curve E (its resolved
    divisor and chamber data) and the point classes on E."""

    name: str
    divisor_spec: str
    inv: Invariants
    points: tuple[FlagPoint, ...]
    asserted_plt: bool = True

    def point(self, label: str) -> FlagPoint:
        for p in self.points:
            if p.label == label:
                return p
        raise FlagDataError(f"flag {self.name} has no point class {label!r}")


def flag_from_divisor(m: SurfaceModel, spec: str, *, name: str,
                      points: Sequence[FlagPoint],
                      asserted_plt: bool = True) -> FlagSpec:
    """Build a flag from a catalogued divisor spec via the profile machinery."""
    return FlagSpec(name=name, divisor_spec=spec, inv=invariants(m, spec),
                    points=tuple(points), asserted_plt=asserted_plt)


def restricted_S(flag: FlagSpec, p: str) -> Rat:
    """Restricted invariant S(W; p) for a declared point class on E."""
    pt = flag.point(p)
    if pt.under_n and pt.n_orders is None:
        raise FlagDataError(
            f"point {p!r} lies under the negative part but flag {flag.name} "
            "carries no N-restriction data")
    total = Fraction(0)
    for i, ch in enumerate(flag.inv.profile.chambers):
        pe = ch.vol.derivative() * Fraction(-1, 2)  # P(u) . E
        deg = pe
        if pt.deg_corrections is not None:
            deg = deg - pt.deg_corrections[i]
        integrand = deg * deg * Fraction(1, 2)
        if pt.under_n:
            integrand = integrand + pe * pt.n_orders[i]
        total += integrand.integrate(ch.lo, ch.hi)
    return 2 * total / flag.inv.profile.L2


def delta_p_lower_bound(flag: FlagSpec, p: str) -> Rat:
    """min(A_E/S_E, (1 - ord_p Delta_E)/S(W; p)), exact."""
    pt = flag.point(p)
    first = flag.inv.delta
    s_wp = restricted_S(flag, p)
    numer = 1 - pt.diff_coeff
    if s_wp == 0:
        return first
    return min(first, numer / s_wp)


@dataclass(frozen=True)
class SemistableReport:
    verdict: bool
    bounds: tuple[tuple[str, Rat], ...]           # point class -> best bound
    destabilizer: tuple[str, Rat] | None = None
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        out = {
            "verdict": "K-semistable (certified by flags)" if self.verdict
            else "not K-semistable",
            "bounds": dict(self.bounds),
        }
        if self.destabilizer is not None:
            spec, b = self.destabilizer
            out["destabilizer"] = {"divisor": str(spec), "beta": b}
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def semistable_via_flags(m: SurfaceModel,
                         flags: Sequence[tuple[FlagSpec, Sequence[str]]],
                         ) -> SemistableReport:
    """Certified semistability via per-point-class flag bounds.

    A catalogued destabilizer (``unstable_certificate``) short-circuits to
    False; missing point-class coverage raises rather than returning a
    false positive.  A candidate that is also the divisor of a flag on ``m``
    reads that flag's invariants instead of walking its profile again.
    """
    known = {flag.divisor_spec: flag.inv for flag, _ in flags
             if flag.inv.divisor.base is m}
    destab = unstable_certificate(m, m.beta_candidates, known)
    if destab is not None:
        spec, beta = destab
        return SemistableReport(
            False, (), destabilizer=(str(spec), beta),
            notes=("destabilizing divisor found; flag bounds not consulted",))
    covered: dict[str, Rat] = {}
    notes: list[str] = []
    for flag, classes in flags:
        if not flag.asserted_plt:
            notes.append(f"flag {flag.name}: plt type not catalogued; "
                         "bound valid only under the caller's assertion")
        flag_bound = min(delta_p_lower_bound(flag, pt.label) for pt in flag.points)
        for cls in classes:
            if cls not in m.point_classes:
                raise CoverageError(f"{m.name} has no point class {cls!r}")
            if cls not in covered or covered[cls] < flag_bound:
                covered[cls] = flag_bound
    missing = [c for c in m.point_classes if c not in covered]
    if missing:
        raise CoverageError(
            f"point classes not covered by any flag on {m.name}: {', '.join(missing)}")
    bounds = tuple((c, covered[c]) for c in m.point_classes)
    verdict = all(b >= 1 for _, b in bounds)
    return SemistableReport(verdict, bounds, notes=tuple(notes))


def _polys(r: JsonValue) -> tuple[Poly, ...] | None:
    return None if r.value is None else tuple(Poly(cs.rats()) for cs in r.items())


def flag_from_dict(data: Any, m: SurfaceModel) -> tuple[FlagSpec, tuple[str, ...]]:
    """Load a flag from its declarative form.

    Mirrors the FlagSpec fields: {"name", "divisor_spec", "points":
    [{"label", "diff_coeff", "under_n", "n_orders": [[c0, c1], ...],
    "deg_corrections": ...}], "covers", "asserted_plt"}.  Chamber data is
    derived through the positivity module from the divisor spec, so the
    loaded flag cross-validates against the profile machinery.  Files
    default to asserted_plt = false: the plt hypothesis is the caller's.
    """
    r = JsonValue(data, "flag").named()
    spec = r.get("divisor_spec").of(str)
    points = tuple(FlagPoint(label=p.get("label").of(str),
                             diff_coeff=p.get("diff_coeff", 0).rat(),
                             under_n=p.get("under_n", False).of(bool),
                             n_orders=_polys(p.get("n_orders", None)),
                             deg_corrections=_polys(p.get("deg_corrections", None)))
                   for p in r.get("points", [{"label": "generic"}]).items())
    covers = r.get("covers", ["generic"]).strs()
    flag = flag_from_divisor(m, spec, name=r.get("name", spec).of(str), points=points,
                             asserted_plt=r.get("asserted_plt", False).of(bool))
    n_chambers = len(flag.inv.profile.chambers)
    for pt in flag.points:
        for field_name in ("n_orders", "deg_corrections"):
            seq = getattr(pt, field_name)
            if seq is not None and len(seq) != n_chambers:
                raise FlagDataError(
                    f"flag {flag.name}: point {pt.label!r} carries "
                    f"{len(seq)} {field_name} entries for {n_chambers} chambers")
    return flag, covers


def builtin_flags(m: SurfaceModel) -> list[tuple[FlagSpec, tuple[str, ...]]]:
    """Shipped flags: cubic anticanonical curves, P(1,1,2) rulings and
    exceptional (with or without the boundary Q), F1 exceptional."""
    name = m.name
    flags: list[tuple[FlagSpec, tuple[str, ...]]] = []
    if name == "dP3":
        flags.append((flag_from_divisor(
            m, "anticanonical-curve", name="anticanonical-curve",
            points=(FlagPoint("generic"),)), ("generic",)))
    elif name.startswith("P(1,1,2)"):
        c = Fraction(0)
        for part in m.boundary:
            if part.label == "Q":
                c = part.coeff
        ruling_points = [FlagPoint("generic")]
        covers = ["generic"]
        if m.boundary:
            # E meets Q in one point; the different there has coefficient c
            ruling_points.append(FlagPoint("on-Q", diff_coeff=c))
            covers.append("on-Q")
        flags.append((flag_from_divisor(
            m, "ruling", name="ruling", points=tuple(ruling_points)),
            tuple(covers)))
        flags.append((flag_from_divisor(
            m, "exceptional", name="exceptional",
            points=(FlagPoint("generic"),)), ("vertex",)))
    elif name == "dP8":
        flags.append((flag_from_divisor(
            m, "E1", name="exceptional", points=(FlagPoint("generic"),)),
            ("generic",)))
    return flags
