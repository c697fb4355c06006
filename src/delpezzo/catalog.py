"""Built-in surface catalog: construction and name lookup.

Canonical names are degree-based: "dP9" (= "P2") down to "dP1" for the
blow-ups of the plane at general points, "P1xP1", weighted planes
"P(1,1,n)" with their ruled-surface resolution models "Fn~P(1,1,n)",
and boundary pairs "P(1,1,n)+cQ" (c a rational in [0,1), Q the
hyperplane section at infinity).  Blown-up points are always in general
position; special-position surfaces are rejected rather than mis-modeled.

The constructors below are the only source of the fixed catalog, and
parameterized entries (generic "P(a,b,c)", pairs for arbitrary c) are
built on demand by the same constructors.  Built-in models are code, so
they are not re-validated when they load; the test suite and the
``catalog:<name>`` rows of reproduce-paper validate them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Mapping

from .exactnum import rat, rat_str
from .lattice import (BoundaryPart, DivClass, GraphData, LabeledCurve, ModelLink,
                      SingularPoint, SurfaceModel, UnknownSurfaceError, curve_label,
                      enumerate_neg_curves)
from .localvol import QuotientSing

_ALIASES = {
    "P2": "dP9",
    "F1": "dP8",
    "cubic": "dP3",
    "P1xP1": "P1xP1",
}

_PAIR_RE = re.compile(r"^(?P<base>.+?)\+(?P<coeff>\d+(?:/\d+)?)Q$")
_WPS_RE = re.compile(r"^P\((\d+),(\d+),(\d+)\)$")


def _smooth_point_graph(label: str = "E") -> GraphData:
    return GraphData(vertices=((label, 0, -1),))


def _dp_model(degree: int) -> SurfaceModel:
    """General-position blow-up of the plane with (-K)^2 = degree."""
    k = 9 - degree
    labels = ("H",) + tuple(f"E{i}" for i in range(1, k + 1))
    gram = tuple(tuple(Fraction(1 if i == j == 0 else (-1 if i == j else 0))
                       for j in range(k + 1)) for i in range(k + 1))
    canonical = DivClass.of([-3] + [1] * k)
    curves = enumerate_neg_curves(k)
    if k == 0:
        gens = (LabeledCurve("line", DivClass.of([1])),)
    elif k == 1:
        gens = (LabeledCurve("E1", DivClass.of([0, 1])),
                LabeledCurve("f", DivClass.of([1, -1])))
    else:
        gens = tuple(LabeledCurve(curve_label(c, i), c) for i, c in enumerate(curves))
    named: dict[str, DivClass] = {}
    candidates: tuple[str, ...]
    if degree == 9:
        named["line"] = DivClass.of([1])
        candidates = ("exceptional:pt", "line")
    elif degree == 8:
        named["exceptional"] = DivClass.of([0, 1])
        candidates = ("E1",)
    elif degree == 7:
        named["Ltilde"] = DivClass.of([1, -1, -1])
        named["line-through-2pts"] = DivClass.of([1, -1, -1])
        candidates = ("L12", "E1", "E2")
    else:
        candidates = ("exceptional:pt",)
    if degree == 3:
        named["anticanonical-curve"] = DivClass.of([3] + [-1] * 6)
    blowup = None
    if degree >= 2:
        target = f"dP{degree - 1}"
        pullback = tuple(tuple(Fraction(1 if i == j else 0) for j in range(k + 1))
                         for i in range(k + 2))
        blowup = ModelLink(
            target=target, pullback=pullback,
            exceptional_label=f"E{k + 1}",
            exceptional=DivClass.of([0] * (k + 1) + [1]),
            graph=_smooth_point_graph(f"E{k + 1}"),
        )
    return SurfaceModel(
        name=f"dP{degree}",
        basis_labels=labels,
        gram=gram,
        canonical=canonical,
        neg_curves=gens,
        named_divisors=named,
        del_pezzo=True,
        blowup=blowup,
        beta_candidates=candidates,
    )


def _p1xp1_model() -> SurfaceModel:
    gram = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    blowup = ModelLink(
        target="dP7",
        # rulings through the blown-up point become the lines H-E1, H-E2
        pullback=((Fraction(1), Fraction(1)),
                  (Fraction(-1), Fraction(0)),
                  (Fraction(0), Fraction(-1))),
        exceptional_label="L12",
        exceptional=DivClass.of([1, -1, -1]),
        graph=_smooth_point_graph("L12"),
    )
    return SurfaceModel(
        name="P1xP1",
        basis_labels=("f1", "f2"),
        gram=gram,
        canonical=DivClass.of([-2, -2]),
        neg_curves=(LabeledCurve("f1", DivClass.of([1, 0])),
                    LabeledCurve("f2", DivClass.of([0, 1]))),
        del_pezzo=True,
        blowup=blowup,
        beta_candidates=("exceptional:pt",),
    )


def _wps11n_model(n: int) -> SurfaceModel:
    """Rank-1 model of the cone P(1,1,n) over the degree-n rational normal curve."""
    if n < 2:
        raise ValueError("use dP9/dP8 for n = 1")
    resolution = ModelLink(
        target=f"F{n}~P(1,1,{n})",
        pullback=((Fraction(1, n),), (Fraction(1),)),
        exceptional_label="e",
        exceptional=DivClass.of([1, 0]),
        graph=GraphData(vertices=(("e", 0, -n),)),
    )
    return SurfaceModel(
        name=f"P(1,1,{n})",
        basis_labels=("O1",),
        gram=((Fraction(1, n),),),
        canonical=DivClass.of([-(n + 2)]),
        neg_curves=(LabeledCurve("O1", DivClass.of([1])),),
        sings=(SingularPoint(QuotientSing(n, (1, 1)), "vertex"),),
        named_divisors={"ruling": DivClass.of([1]), "Q": DivClass.of([n])},
        point_classes=("generic", "vertex"),
        resolution=resolution,
        beta_candidates=("exceptional", "ruling"),
    )


def _fn_model(n: int) -> SurfaceModel:
    """Ruled surface F_n presenting the minimal resolution of P(1,1,n)."""
    return SurfaceModel(
        name=f"F{n}~P(1,1,{n})",
        basis_labels=("e", "f"),
        gram=((Fraction(-n), Fraction(1)), (Fraction(1), Fraction(0))),
        canonical=DivClass.of([-2, -(n + 2)]),
        neg_curves=(LabeledCurve("e", DivClass.of([1, 0])),
                    LabeledCurve("f", DivClass.of([0, 1]))),
    )


def _wps_model(a: int, b: int, c: int) -> SurfaceModel:
    """Rank-1 volume/budget model of a general well-formed P(a,b,c)."""
    weights = sorted((a, b, c))
    if weights[0] < 1:
        raise ValueError("weights must be positive")
    for u, v in ((a, b), (a, c), (b, c)):
        if gcd(u, v) != 1:
            raise ValueError(f"P({a},{b},{c}) is not well-formed (weights not coprime)")
    sings = tuple(
        SingularPoint(QuotientSing(w, (o1 % w, o2 % w)), f"vertex-{tag}")
        for w, o1, o2, tag in ((a, b, c, "x"), (b, a, c, "y"), (c, a, b, "z"))
        if w > 1)
    return SurfaceModel(
        name=f"P({a},{b},{c})",
        basis_labels=("O1",),
        gram=((Fraction(1, a * b * c),),),
        canonical=DivClass.of([-(a + b + c)]),
        neg_curves=(LabeledCurve("O1", DivClass.of([1])),),
        sings=sings,
        point_classes=("generic",) + tuple(s.location for s in sings),
    )


def _with_boundary_q(base: SurfaceModel, c: Fraction) -> SurfaceModel:
    """Pair model: attach the boundary cQ to a P(1,1,n) model and its resolution."""
    q_cls = base.named_divisors["Q"]
    resolution = None
    if base.resolution is not None:
        resolution = ModelLink(
            target=f"{base.resolution.target}+{rat_str(c)}Q",
            pullback=base.resolution.pullback,
            exceptional_label=base.resolution.exceptional_label,
            exceptional=base.resolution.exceptional,
            graph=base.resolution.graph,
            boundary_mults=(Fraction(0),),  # Q misses the vertex
        )
    return SurfaceModel(
        name=f"{base.name}+{rat_str(c)}Q",
        basis_labels=base.basis_labels,
        gram=base.gram,
        canonical=base.canonical,
        neg_curves=base.neg_curves,
        boundary=(BoundaryPart("Q", q_cls, c),),
        sings=base.sings,
        named_divisors=dict(base.named_divisors),
        point_classes=("generic", "on-Q", "vertex"),
        resolution=resolution,
        beta_candidates=("exceptional", "Q", "ruling"),
    )


def _fn_pair(base: SurfaceModel, c: Fraction) -> SurfaceModel:
    """Resolution-side presentation of (P(1,1,n), cQ); Q pulls back to e + n f."""
    n = -int(base.gram[0][0])
    return SurfaceModel(
        name=f"{base.name}+{rat_str(c)}Q",
        basis_labels=base.basis_labels,
        gram=base.gram,
        canonical=base.canonical,
        neg_curves=base.neg_curves,
        boundary=(BoundaryPart("Q", DivClass.of([1, n]), c),),
        named_divisors=dict(base.named_divisors),
    )


def builtin_models() -> list[SurfaceModel]:
    models: list[SurfaceModel] = [_dp_model(d) for d in range(9, 0, -1)]
    models.append(_p1xp1_model())
    for n in range(2, 7):
        models.append(_wps11n_model(n))
        models.append(_fn_model(n))
    return models


@lru_cache(maxsize=1)
def _builtin() -> dict[str, SurfaceModel]:
    return {m.name: m for m in builtin_models()}


def builtin_names() -> list[str]:
    return sorted(_builtin())


def canonical_name(name: str) -> str:
    s = name.strip().replace(" ", "")
    if s in ("P(1,1,2)+Q/2",):
        return "P(1,1,2)+1/2Q"
    return _ALIASES.get(s, s)


def _pair(base: SurfaceModel, c: Fraction) -> SurfaceModel:
    """The validated pair (base, cQ)."""
    if not 0 <= c < 1:
        raise UnknownSurfaceError(
            f"boundary coefficient {rat_str(c)} must lie in [0,1)")
    if base.name.startswith("F"):
        return _fn_pair(base, c).validate_strict()
    if "Q" not in base.named_divisors:
        raise UnknownSurfaceError(f"{base.name} has no boundary section Q")
    return _with_boundary_q(base, c).validate_strict()


@lru_cache(maxsize=32)
def _builtin_pair(base_name: str, c: Fraction) -> SurfaceModel:
    """Pairs over built-in bases are built and validated once per process."""
    return _pair(_builtin()[base_name], c)


@lru_cache(maxsize=32)
def _weighted_plane(a: int, b: int, c: int) -> SurfaceModel:
    """Generic weighted planes are built and validated once per process."""
    return _wps_model(a, b, c).validate_strict()


def get_model(name: str, extra: Mapping[str, SurfaceModel] | None = None) -> SurfaceModel:
    s = canonical_name(name)
    if extra and s in extra:
        return extra[s]
    if extra and name.strip() in extra:
        return extra[name.strip()]
    builtin = _builtin()
    if s in builtin:
        return builtin[s]
    pair = _PAIR_RE.match(s)
    if pair:
        base = get_model(pair.group("base"), extra=extra)
        c = rat(pair.group("coeff"))
        if builtin.get(base.name) is base:
            return _builtin_pair(base.name, c)
        return _pair(base, c)
    wps = _WPS_RE.match(s)
    if wps:
        a, b, c = (int(g) for g in wps.groups())
        if sorted((a, b, c)) == [1, 1, 1]:
            return builtin["dP9"]
        if a == 1 and b == 1:
            raise UnknownSurfaceError(
                f"P(1,1,{c}) beyond the built-in range; load it with --catalog")
        try:
            return _weighted_plane(a, b, c)
        except ValueError as exc:
            raise UnknownSurfaceError(str(exc)) from exc
    raise UnknownSurfaceError(f"unknown surface {name!r}")
