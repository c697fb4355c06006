"""Picard-lattice surface models and the built-in catalog interface.

A SurfaceModel fixes a basis of the rational Picard lattice, the
intersection Gram matrix, the canonical class, the generators of the
cone of effective curves, an optional boundary divisor (for log pairs)
and the quotient singularities of the surface.  Everything downstream
(nef tests, Zariski decompositions, volume profiles, the invariants)
is exact linear algebra against this data.

Models are immutable once built; the catalog is static data, so any
number of callers may share models concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from pathlib import Path
from typing import Mapping, Sequence

from .exactnum import Rat, rat, rat_str
from .linalg import Matrix, mat, symmetric_signature
from .localvol import QuotientSing, parse_sing


# Number of (-1)-curves on a smooth del Pezzo surface of each degree K^2
# (degree 8 is F1 with one, or P1xP1 with none).
_DEL_PEZZO_LINES = {9: (0,), 8: (0, 1), 7: (3,), 6: (6,), 5: (10,), 4: (16,),
                   3: (27,), 2: (56,), 1: (240,)}


class UnknownSurfaceError(KeyError):
    """Requested catalog name is not known."""


class ModelInvariantError(ValueError):
    """A surface model violates one of its structural invariants."""


@dataclass(frozen=True)
class DivClass:
    """Divisor class as rational coordinates against a model's basis."""

    coeffs: tuple[Rat, ...]

    @classmethod
    def of(cls, values: Sequence) -> "DivClass":
        return cls(tuple(rat(v) for v in values))

    def __len__(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "DivClass") -> "DivClass":
        return DivClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __sub__(self, other: "DivClass") -> "DivClass":
        return DivClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __neg__(self) -> "DivClass":
        return DivClass(tuple(-a for a in self.coeffs))

    def scale(self, s) -> "DivClass":
        s = rat(s)
        return DivClass(tuple(s * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)


@dataclass(frozen=True)
class LabeledCurve:
    label: str
    cls: DivClass


@dataclass(frozen=True)
class BoundaryPart:
    label: str
    cls: DivClass
    coeff: Rat


@dataclass(frozen=True)
class SingularPoint:
    sing: QuotientSing
    location: str


@dataclass(frozen=True)
class GraphData:
    """Raw exceptional-configuration data carried by a model link.

    vertices: (label, genus, self_intersection); edges: (i, j, mult).
    The valuation module turns this into a resolution graph when it
    needs log discrepancies.
    """

    vertices: tuple[tuple[str, int, int], ...]
    edges: tuple[tuple[int, int, int], ...] = ()


@dataclass(frozen=True)
class ModelLink:
    """Blow-up or resolution relation from a model to a catalogued model.

    ``pullback`` maps divisor coordinates on the source model to the
    target model (rank_target x rank_source); ``exceptional`` is the
    class of the extracted divisor on the target; ``boundary_mults[i]``
    is the multiplicity of the i-th boundary part's pullback along it.
    """

    target: str
    pullback: Matrix
    exceptional_label: str
    exceptional: DivClass
    graph: GraphData
    boundary_mults: tuple[Rat, ...] = ()

    def pull(self, d: DivClass) -> DivClass:
        rows = self.pullback
        return DivClass(tuple(
            sum((row[j] * d.coeffs[j] for j in range(len(d))), Fraction(0))
            for row in rows))


@dataclass(frozen=True)
class SurfaceModel:
    name: str
    basis_labels: tuple[str, ...]
    gram: Matrix
    canonical: DivClass
    neg_curves: tuple[LabeledCurve, ...]
    boundary: tuple[BoundaryPart, ...] = ()
    sings: tuple[SingularPoint, ...] = ()
    named_divisors: Mapping[str, DivClass] = field(default_factory=dict)
    point_classes: tuple[str, ...] = ("generic",)
    del_pezzo: bool = False
    blowup: ModelLink | None = None
    resolution: ModelLink | None = None
    beta_candidates: tuple[str, ...] = ()

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    def div(self, values: Sequence) -> DivClass:
        d = DivClass.of(values)
        if len(d) != self.rank:
            raise ValueError(f"class has {len(d)} coordinates, model rank is {self.rank}")
        return d

    def intersect(self, d1: DivClass, d2: DivClass) -> Rat:
        if len(d1) != self.rank or len(d2) != self.rank:
            raise ValueError("rank mismatch in intersection pairing")
        total = Fraction(0)
        for i, a in enumerate(d1.coeffs):
            if a == 0:
                continue
            row = self.gram[i]
            total += a * sum((row[j] * b for j, b in enumerate(d2.coeffs)), Fraction(0))
        return total

    @cached_property
    def _curve_vectors(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(q, V) with (G.C)_i = V[i][k] / q for the k-th catalogued curve C."""
        if any(len(c.cls) != self.rank for c in self.neg_curves):
            raise ValueError("rank mismatch in intersection pairing")
        gc = [[sum((g * b for g, b in zip(row, c.cls.coeffs)), Fraction(0))
               for c in self.neg_curves] for row in self.gram]
        q = 1
        for row in gc:
            for x in row:
                q = lcm(q, x.denominator)
        return q, tuple(tuple(x.numerator * (q // x.denominator) for x in row) for row in gc)

    def curve_pairings(self, d: DivClass) -> tuple[Rat, ...]:
        """d . C for every catalogued curve C, in ``neg_curves`` order.

        The same values as ``intersect(d, c.cls)`` curve by curve.  The
        vectors G.C are computed once per model and kept as integers over
        one denominator; d is cleared to integer numerators over one
        denominator, so the pairings are integer sums and one Fraction
        each.
        """
        if len(d) != self.rank:
            raise ValueError("rank mismatch in intersection pairing")
        q, vectors = self._curve_vectors
        den = 1
        for a in d.coeffs:
            den = lcm(den, a.denominator)
        acc = [0] * len(self.neg_curves)
        for a, row in zip(d.coeffs, vectors):
            if a:
                a = a.numerator * (den // a.denominator)
                acc = [s + a * x for s, x in zip(acc, row)]
        q *= den
        return tuple(Fraction(s, q) for s in acc)

    def minus_k(self) -> DivClass:
        return -self.canonical

    def polarization(self) -> DivClass:
        """The log anticanonical class -K - sum(c_i * B_i)."""
        d = self.minus_k()
        for part in self.boundary:
            d = d - part.cls.scale(part.coeff)
        return d

    def curve_labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.neg_curves)

    def curve(self, label: str) -> DivClass:
        for c in self.neg_curves:
            if c.label == label:
                return c.cls
        raise KeyError(f"no curve {label!r} on {self.name}")

    def named(self, name: str) -> DivClass | None:
        if name in self.named_divisors:
            return self.named_divisors[name]
        if name in self.basis_labels:
            i = self.basis_labels.index(name)
            return DivClass(tuple(Fraction(int(j == i)) for j in range(self.rank)))
        for c in self.neg_curves:
            if c.label == name:
                return c.cls
        for b in self.boundary:
            if b.label == name:
                return b.cls
        if name == "K":
            return self.canonical
        if name == "-K":
            return self.minus_k()
        return None

    def render(self, d: DivClass) -> str:
        parts = []
        for c, lab in zip(d.coeffs, self.basis_labels):
            if c == 0:
                continue
            mag = "" if abs(c) == 1 else rat_str(abs(c)) + "*"
            parts.append(("- " if c < 0 else "+ ") + mag + lab)
        if not parts:
            return "0"
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def validate(self) -> list[str]:
        """Return a list of invariant violations (empty when healthy)."""
        problems: list[str] = []
        n = self.rank
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            return [f"{self.name}: gram shape does not match rank {n}"]
        for i in range(n):
            for j in range(i + 1, n):
                if self.gram[i][j] != self.gram[j][i]:
                    problems.append(f"{self.name}: gram not symmetric at ({i},{j})")
        if not problems:  # the signature is defined for a symmetric gram only
            sig = symmetric_signature(self.gram)
            if sig != (1, n - 1, 0):
                problems.append(
                    f"{self.name}: gram signature {sig} is not (1, {n - 1}, 0)")
        if len(self.canonical) != n:
            problems.append(f"{self.name}: canonical class has wrong length")
        if not self.neg_curves:
            problems.append(f"{self.name}: no effective-cone generators listed")
        short = [c.label for c in self.neg_curves if len(c.cls) != n]
        problems += [f"{self.name}: curve {label} has wrong length" for label in short]
        # The pairings need every class at full length.  They are read one row
        # at a time, so no N x N table is held (dP1 has 240 generators).
        curves = () if short else self.neg_curves
        mk = (self.minus_k() if self.del_pezzo and len(self.canonical) == n and not short
              else None)
        mk_dot = self.curve_pairings(mk) if mk is not None else ()
        lines: set[DivClass] = set()
        for i, c in enumerate(curves):
            row = self.curve_pairings(c.cls)
            sq = row[i]
            if sq > 0 and n > 1:
                problems.append(
                    f"{self.name}: generator {c.label} has positive square {sq} "
                    "on a rank >= 2 model")
            if mk is not None and sq == -1:
                if mk_dot[i] != 1:
                    problems.append(
                        f"{self.name}: (-1)-curve {c.label} has -K.C != 1")
                else:
                    lines.add(c.cls)
            # two distinct irreducible curves meet non-negatively
            for other, v in zip(curves[i + 1:], row[i + 1:]):
                if v < 0 and other.cls != c.cls:
                    problems.append(
                        f"{self.name}: generators {c.label} and {other.label} "
                        f"pair negatively ({rat_str(v)})")
        if mk is not None:
            degree = self.intersect(mk, mk)
            want = _DEL_PEZZO_LINES.get(degree)
            if want is None:
                problems.append(f"{self.name}: del Pezzo degree {degree} outside 1..9")
            elif len(lines) not in want:
                problems.append(
                    f"{self.name}: {len(lines)} (-1)-curves listed, a del Pezzo "
                    f"surface of degree {degree} has {' or '.join(map(str, want))}")
        for b in self.boundary:
            if not 0 <= b.coeff < 1:
                problems.append(
                    f"{self.name}: boundary coefficient {rat_str(b.coeff)} outside [0,1)")
        return problems

    def validate_strict(self) -> "SurfaceModel":
        problems = self.validate()
        if problems:
            raise ModelInvariantError("; ".join(problems))
        return self


def is_nef(m: SurfaceModel, d: DivClass) -> bool:
    """Nefness against the catalogued effective-cone generators."""
    if not m.neg_curves:
        raise ModelInvariantError(f"{m.name}: no cone generators to test against")
    return all(v >= 0 for v in m.curve_pairings(d))


def enumerate_neg_curves(k: int, c0_bound: int = 6) -> list[DivClass]:
    """All (-1)-curve classes on the blow-up of the plane at k general points.

    Bounded search over c0*H + sum(d_i * E_i) with C^2 = -1 and -K.C = 1,
    that is sum(d_i) = 1 - 3*c0 and sum(d_i^2) = c0^2 + 1, for 0 <= c0 <=
    c0_bound and every d_i in [-(c0+1), 1].  One ordered recursion over the
    k positions, pruned by Cauchy-Schwarz on the positions still free;
    c0 <= 6 suffices for k <= 8 and larger bounds reproduce the identical
    set.  Sorted canonically (by degree, then multiplicities).
    """
    if not 0 <= k <= 8:
        raise ValueError("k must lie in 0..8")
    sols: list[tuple[int, ...]] = []

    def rec(head: tuple[int, ...], rem_sum: int, rem_sq: int) -> None:
        slots = k + 1 - len(head)
        if slots == 0:
            if rem_sum == 0 and rem_sq == 0:
                sols.append(head)
            return
        for d in range(1, -(head[0] + 2), -1):
            sq = d * d
            if sq > rem_sq:
                if d > 0:
                    continue
                break
            ns, nq = rem_sum - d, rem_sq - sq
            # Cauchy-Schwarz prune: the free positions must reach sum ns with squares nq.
            if ns * ns > (slots - 1) * nq:
                continue
            rec(head + (d,), ns, nq)

    for c0 in range(c0_bound + 1):
        rec((c0,), 1 - 3 * c0, c0 * c0 + 1)
    sols.sort(key=lambda s: (s[0], tuple(-d for d in s[1:])))
    return [DivClass.of(s) for s in sols]


def curve_label(cls: DivClass, index: int) -> str:
    """Canonical label: exceptionals 'Ei', lines 'Lij', otherwise 'C<index>'."""
    c = cls.coeffs
    c0, rest = c[0], c[1:]
    if c0 == 0 and sum(rest) == 1 and all(x in (0, 1) for x in rest):
        return f"E{rest.index(1) + 1}"
    if c0 == 1 and sum(1 for x in rest if x == -1) == 2 \
            and all(x in (0, -1) for x in rest):
        ij = [i + 1 for i, x in enumerate(rest) if x == -1]
        return f"L{ij[0]}{ij[1]}"
    return f"C{index}"


# --- declarative model files -------------------------------------------------

def model_to_dict(m: SurfaceModel) -> dict:
    """Serialize to the declarative file form (rationals as "p/q")."""
    def link_dict(link: ModelLink | None) -> dict | None:
        if link is None:
            return None
        return {
            "target": link.target,
            "pullback": [[rat_str(x) for x in row] for row in link.pullback],
            "exceptional_label": link.exceptional_label,
            "exceptional": [rat_str(x) for x in link.exceptional.coeffs],
            "graph": {
                "vertices": [[lab, g, e] for lab, g, e in link.graph.vertices],
                "edges": [list(e) for e in link.graph.edges],
            },
            "boundary_mults": [rat_str(x) for x in link.boundary_mults],
        }

    return {
        "name": m.name,
        "basis": list(m.basis_labels),
        "gram": [[rat_str(x) for x in row] for row in m.gram],
        "canonical": [rat_str(x) for x in m.canonical.coeffs],
        "neg_curves": [{"label": c.label,
                        "coeffs": [rat_str(x) for x in c.cls.coeffs]}
                       for c in m.neg_curves],
        "boundary": [{"label": b.label,
                      "coeffs": [rat_str(x) for x in b.cls.coeffs],
                      "coeff": rat_str(b.coeff)} for b in m.boundary],
        "sings": [{"sing": s.sing.display if s.sing.index == 1 else
                   f"1/{s.sing.index}({s.sing.weights[0]},{s.sing.weights[1]})",
                   "location": s.location} for s in m.sings],
        "named_divisors": {k: [rat_str(x) for x in v.coeffs]
                           for k, v in sorted(m.named_divisors.items())},
        "point_classes": list(m.point_classes),
        "del_pezzo": m.del_pezzo,
        "blowup": link_dict(m.blowup),
        "resolution": link_dict(m.resolution),
        "beta_candidates": list(m.beta_candidates),
    }


def model_from_dict(data: Mapping, validate: bool = True) -> SurfaceModel:
    """Load a model from its declarative form; validates unless told not to."""
    def link_from(d) -> ModelLink | None:
        if d is None:
            return None
        return ModelLink(
            target=d["target"],
            pullback=mat(d["pullback"]),
            exceptional_label=d["exceptional_label"],
            exceptional=DivClass.of(d["exceptional"]),
            graph=GraphData(
                vertices=tuple((v[0], int(v[1]), int(v[2]))
                               for v in d["graph"]["vertices"]),
                edges=tuple(tuple(int(x) for x in e) for e in d["graph"]["edges"]),
            ),
            boundary_mults=tuple(rat(x) for x in d.get("boundary_mults", [])),
        )

    m = SurfaceModel(
        name=data["name"],
        basis_labels=tuple(data["basis"]),
        gram=mat(data["gram"]),
        canonical=DivClass.of(data["canonical"]),
        neg_curves=tuple(LabeledCurve(c["label"], DivClass.of(c["coeffs"]))
                         for c in data["neg_curves"]),
        boundary=tuple(BoundaryPart(b["label"], DivClass.of(b["coeffs"]), rat(b["coeff"]))
                       for b in data.get("boundary", [])),
        sings=tuple(SingularPoint(parse_sing(s["sing"]), s["location"])
                    for s in data.get("sings", [])),
        named_divisors={k: DivClass.of(v)
                        for k, v in data.get("named_divisors", {}).items()},
        point_classes=tuple(data.get("point_classes", ["generic"])),
        del_pezzo=bool(data.get("del_pezzo", False)),
        blowup=link_from(data.get("blowup")),
        resolution=link_from(data.get("resolution")),
        beta_candidates=tuple(data.get("beta_candidates", [])),
    )
    if validate:
        m.validate_strict()
    return m


def load_models(path: str | Path, validate: bool = True) -> list[SurfaceModel]:
    """Read one model or a {"models": [...]} collection from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "models" in data:
        entries = data["models"]
    elif isinstance(data, dict):
        entries = [data]
    else:
        entries = data
    return [model_from_dict(e, validate=validate) for e in entries]


def catalog(name: str, extra: Mapping[str, SurfaceModel] | None = None) -> SurfaceModel:
    """Look up a built-in (or overlay) surface model by name."""
    return get_model(name, extra=extra)


def catalog_names(extra: Mapping[str, SurfaceModel] | None = None) -> list[str]:
    names = builtin_names()
    if extra:
        names = sorted(set(names) | set(extra))
    return names


# Imported last, as the catalog module needs the names above; loaded here, before
# the package binds its ``catalog`` function, it can never rebind that name.
from .catalog import builtin_names, get_model  # noqa: E402
