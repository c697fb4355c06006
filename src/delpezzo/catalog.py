"""Built-in surface catalog: construction, lookup by name (``get_model``,
the lookup's only name), the list of names and the checks of a model's
links against the models they name.

Canonical names are degree-based: "dP9" (= "P2") down to "dP1" for the
blow-ups of the plane at general points, "P1xP1", weighted planes
"P(1,1,n)" with their ruled-surface resolution models "Fn~P(1,1,n)",
and boundary pairs "P(1,1,n)+cQ" (c a rational in [0,1), Q the
hyperplane section at infinity; a pair over a pair is refused).  Blown-up
points are always in general position; special-position surfaces are
rejected rather than mis-modeled.

The constructors below are the only source of the catalog.  Every model
is built on its first lookup and then kept, one per canonical name: the
20 fixed models from the name -> constructor table, pairs over them
and generic "P(a,b,c)" by the same constructors.  Listing the names
builds nothing.  Fixed models are code, so they are not re-validated
when they are built; the test suite and the ``catalog:<name>`` rows of
reproduce-paper validate them.  Pairs and generic weighted planes are
validated when they are built.  While a ``--catalog`` overlay is given,
a pair (whose base the overlay may supply) is built and validated on
every lookup instead.
"""

from __future__ import annotations

import re
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd
from typing import Mapping

from .exactnum import rat, rat_str
from .lattice import (BoundaryPart, DivClass, LabeledCurve, ModelLink, SingularPoint,
                      SurfaceModel, curve_label, enumerate_neg_curves)
from .localvol import QuotientSing


class UnknownSurfaceError(ValueError):
    """Requested catalog name is not known."""


_ALIASES = {
    "P2": "dP9",
    "F1": "dP8",
    "cubic": "dP3",
    "P(1,1,2)+Q/2": "P(1,1,2)+1/2Q",
}

_PAIR_RE = re.compile(r"^(?P<base>.+?)\+(?P<coeff>\d+(?:/0*[1-9]\d*)?)Q$")
_WPS_RE = re.compile(r"^P\((\d+),(\d+),(\d+)\)$")


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
    else:  # dP1 has no blow-up link, so no point to blow up
        candidates = ("exceptional:pt",) if degree >= 2 else ()
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
    resolution = ModelLink(
        target=f"F{n}~P(1,1,{n})",
        pullback=((Fraction(1, n),), (Fraction(1),)),
        exceptional_label="e",
        exceptional=DivClass.of([1, 0]),
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
        # the coordinate curve of least weight w spans the cone, in class O(w)
        neg_curves=(LabeledCurve(f"O{weights[0]}", DivClass.of([weights[0]])),),
        sings=sings,
        point_classes=("generic",) + tuple(s.location for s in sings),
    )


_FIXED = {
    **{f"dP{d}": partial(_dp_model, d) for d in range(9, 0, -1)},
    "P1xP1": _p1xp1_model,
    **{f"P(1,1,{n})": partial(_wps11n_model, n) for n in range(2, 7)},
    **{f"F{n}~P(1,1,{n})": partial(_fn_model, n) for n in range(2, 7)},
}


def builtin_names() -> list[str]:
    return sorted(_FIXED)


def catalog_names(extra: Mapping[str, SurfaceModel] | None = None) -> list[str]:
    return sorted({*_FIXED, *(extra or ())})


def canonical_name(name: str) -> str:
    s = name.strip().replace(" ", "")
    return _ALIASES.get(s, s)


def _pair(base: SurfaceModel, c: Fraction) -> SurfaceModel:
    """The validated pair (base, cQ) over P(1,1,n), or over its resolution F_n,
    where Q pulls back to e + n f."""
    if not 0 <= c < 1:
        raise UnknownSurfaceError(
            f"boundary coefficient {rat_str(c)} must lie in [0,1)")
    suffix = f"+{rat_str(c)}Q"
    if base.boundary:
        raise UnknownSurfaceError(
            f"{base.name} already has a boundary; a pair over a pair is not "
            "a catalog surface")
    fields = {}
    if base.name.startswith("F"):
        q_cls = DivClass.of([1, -int(base.gram[0][0])])
    elif "Q" in base.named_divisors:
        q_cls = base.named_divisors["Q"]
        fields = dict(
            point_classes=("generic", "on-Q", "vertex"),
            beta_candidates=("exceptional", "Q", "ruling"),
            # Q misses the vertex
            resolution=base.resolution and replace(
                base.resolution, target=base.resolution.target + suffix,
                boundary_mults=(Fraction(0),)))
    else:
        raise UnknownSurfaceError(f"{base.name} has no boundary section Q")
    return replace(base, name=base.name + suffix, boundary=(BoundaryPart("Q", q_cls, c),),
                   named_divisors=dict(base.named_divisors), **fields).validate_strict()


@lru_cache(maxsize=None)
def _builtin(name: str) -> SurfaceModel | None:
    """The catalog model with canonical name ``name``, built (and a pair or a
    weighted plane validated) on its first lookup; None for an unknown name."""
    if name in _FIXED:
        return _FIXED[name]()
    pair = _PAIR_RE.match(name)
    if pair:
        base, coeff = pair.group("base"), pair.group("coeff")
        c = rat(coeff)
        if rat_str(c) != coeff:  # one model per coefficient value
            return _builtin(f"{base}+{rat_str(c)}Q")
        return _pair(get_model(base), c)
    wps = _WPS_RE.match(name)
    if wps:
        a, b, c = (int(g) for g in wps.groups())
        if sorted((a, b, c)) == [1, 1, 1]:
            return _builtin("dP9")
        if a == 1 and b == 1:
            raise UnknownSurfaceError(
                f"P(1,1,{c}) beyond the built-in range; load it with --catalog")
        try:
            return _wps_model(a, b, c).validate_strict()
        except ValueError as exc:
            raise UnknownSurfaceError(str(exc)) from exc
    return None


def get_model(name: str, extra: Mapping[str, SurfaceModel] | None = None) -> SurfaceModel:
    """Look up a built-in (or overlay) surface model by name."""
    s = canonical_name(name)
    if extra:
        for key in (s, name.strip()):
            if key in extra:
                return extra[key]
        pair = _PAIR_RE.match(s)
        if pair:  # its base may come from the overlay: built on every lookup
            return _pair(get_model(pair.group("base"), extra=extra),
                         rat(pair.group("coeff")))
    model = _builtin(s)
    if model is None:
        raise UnknownSurfaceError(f"unknown surface {name!r}")
    return model


def validate_links(m: SurfaceModel) -> list[str]:
    """Problems of a validated model's blow-up and resolution links (empty
    when healthy), each checked against ``get_model(link.target)``, the
    built-in model that divisor specs are resolved on.

    Kept apart from ``SurfaceModel.validate`` so that building a pair does
    not also build and validate its resolution target.
    """
    problems: list[str] = []
    for kind, link in (("blowup", m.blowup), ("resolution", m.resolution)):
        if link is None:
            continue
        where = f"{m.name}: {kind} link to {link.target}"
        try:
            target = get_model(link.target)
        except UnknownSurfaceError:
            problems.append(f"{where}: target is not a built-in surface")
            continue
        pulled: list[DivClass] = []
        seen = len(problems)
        if (len(link.pullback) != target.rank
                or any(len(row) != m.rank for row in link.pullback)):
            problems.append(f"{where}: pullback is not {target.rank} x {m.rank}")
        else:
            # the pullback of the i-th basis class is the i-th column
            pulled = [DivClass(tuple(row[i] for row in link.pullback))
                      for i in range(m.rank)]
            for i, a in enumerate(pulled):
                for j in range(i, m.rank):
                    if target.intersect(a, pulled[j]) != m.gram[i][j]:
                        problems.append(
                            f"{where}: pullback changes the pairing of "
                            f"{m.basis_labels[i]} and {m.basis_labels[j]}")
        e = link.exceptional
        if len(e) != target.rank:
            problems.append(f"{where}: exceptional class has wrong length")
        else:
            sq = target.intersect(e, e)
            if sq >= 0:
                problems.append(f"{where}: exceptional class has square {rat_str(sq)} >= 0")
            for label, a in zip(m.basis_labels, pulled):
                if target.intersect(e, a) != 0:
                    problems.append(
                        f"{where}: exceptional class meets the pullback of {label}")
            # then E is the target curve it names (a multiple would scale A and
            # S), and K_Y = f*K_X + aE holds, the identity a is read from
            if pulled and len(problems) == seen:
                if next((c.cls for c in target.neg_curves
                         if c.label == link.exceptional_label), None) != e:
                    problems.append(f"{where}: exceptional class is not the class of "
                                    f"{target.name}'s curve {link.exceptional_label}")
                elif (link.pull(m.canonical) + e.scale(link.discrepancy(target))
                      != target.canonical):
                    problems.append(
                        f"{where}: the target's canonical class is not the pullback of "
                        "the model's plus a multiple of the exceptional class")
        if len(link.boundary_mults) != len(m.boundary):
            problems.append(
                f"{where}: {len(link.boundary_mults)} boundary multiplicities for "
                f"{len(m.boundary)} boundary parts")
            continue
        # mult_i is read into A; where the target carries B~_i it is
        # (f*B_i - B~_i) / E, else only its sign is known
        for part, mult in zip(m.boundary, link.boundary_mults):
            strict = next((b.cls for b in target.boundary if b.label == part.label), None)
            if strict is None:
                if mult < 0:
                    problems.append(f"{where}: boundary multiplicity of {part.label} "
                                    f"is {rat_str(mult)} < 0")
            elif len(problems) == seen and link.pull(part.cls) - strict != e.scale(mult):
                problems.append(
                    f"{where}: the pullback of {part.label} is not its strict "
                    f"transform plus {rat_str(mult)} times the exceptional class")
    return problems
