"""Picard-lattice surface models, their intersection pairing and their JSON form.

A SurfaceModel fixes a basis of the rational Picard lattice, the
intersection Gram matrix, the canonical class, the generators of the
cone of effective curves, an optional boundary divisor (for log pairs)
and the quotient singularities of the surface.  Everything downstream
(nef tests, Zariski decompositions, volume profiles, the invariants)
is exact linear algebra against this data.

Models are immutable once built, so callers may share them concurrently;
the built-in models and their lookup by name live in ``catalog``.

Models (with their blow-up and resolution links) and resolution graphs
are also read from JSON.  Each loader reads every value through one
``JsonValue``, which checks the JSON type it needs and names the object
and field in an InputShapeError when the value has another type.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd, lcm
from operator import mul
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .exactnum import Rat, combination_str, over_one_denominator, rat, rat_str
from .linalg import Matrix, bareiss, symmetric_signature
from .localvol import QuotientSing, parse_sing


# Number of (-1)-curves on a smooth del Pezzo surface of each degree K^2.
# In degree 8 the lattice's parity decides (None): F1's odd lattice has one
# (-1)-class, and P1xP1's even lattice none.
_DEL_PEZZO_LINES = {9: 0, 8: None, 7: 3, 6: 6, 5: 10, 4: 16, 3: 27, 2: 56, 1: 240}


def _pair_numerators(d: DivClass, q: int, vectors: Sequence[Sequence[int]],
                     start: int = 0) -> tuple[int, list[int]]:
    """(r, n) with d . C = n[k - start] / r for each column k >= start of
    ``vectors``, where (G.C)_i = vectors[i][k] / q: integers only, r > 0.
    The one integer pairing loop: against the integer Gram its columns are
    the basis classes, against ``_curve_vectors`` the catalogued curves."""
    if len(d) != len(vectors):
        raise ValueError("rank mismatch in intersection pairing")
    den, nums = over_one_denominator(d.coeffs)
    acc = [0] * (len(vectors[0]) - start if vectors else 0)
    for a, row in zip(nums, vectors):
        if a:
            acc = [s + a * x for s, x in zip(acc, row[start:])]
    return q * den, acc


class ModelInvariantError(ValueError):
    """A surface model violates one of its structural invariants."""


class InputShapeError(ValueError):
    """A declarative (JSON) input does not have the shape its loader reads."""


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "an integer", float: "a float", type(None): "null"}


class JsonValue:
    """A JSON input value and its place: the object it belongs to ("model 'dP7'")
    and the path inside it ("gram[0][1]").  Each read checks the JSON type it
    needs, and an InputShapeError names the place when the value has another."""

    __slots__ = ("value", "owner", "path")

    def __init__(self, value: Any, owner: str, path: str = ""):
        self.value, self.owner, self.path = value, owner, path

    def __str__(self) -> str:
        return f"{self.owner}: {self.path}" if self.path else self.owner

    def of(self, kind: type, want: str = "") -> Any:
        """The value, if its JSON type is ``kind`` (a boolean is not an int)."""
        v = self.value
        if type(v) is not kind:
            raise InputShapeError(f"{self} is {_JSON_KINDS.get(type(v), type(v).__name__)}, "
                                  f"not {want or _JSON_KINDS[kind]}")
        return v

    def get(self, name: str, *default: Any) -> "JsonValue":
        """The field ``name`` of this object, or ``default`` when it is absent."""
        obj = self.of(dict)
        if name not in obj and not default:
            raise InputShapeError(f"{self} lacks field {name!r}")
        path = f"{self.path}.{name}" if self.path else name
        return JsonValue(obj[name] if name in obj else default[0], self.owner, path)

    def named(self) -> "JsonValue":
        """This object, owned as "<owner> '<name>'" when it has a name field."""
        if "name" not in self.of(dict):
            return self
        return JsonValue(self.value, f"{self.owner} {self.get('name').of(str)!r}")

    def items(self, n: int | None = None) -> list["JsonValue"]:
        """The entries (exactly n when given); top-level ones are "<owner> entry"."""
        arr = self.of(list)
        if n is not None and len(arr) != n:
            raise InputShapeError(f"{self} has {len(arr)} entries, not {n}")
        if not self.path:
            return [JsonValue(v, f"{self.owner} entry") for v in arr]
        return [JsonValue(v, self.owner, f"{self.path}[{i}]") for i, v in enumerate(arr)]

    def rat(self) -> Rat:
        """A JSON integer, or a string that ``rat`` reads ("p/q")."""
        v = self.value if type(self.value) is int else self.of(str, "a rational")
        try:
            return rat(v)
        except ValueError:
            raise InputShapeError(f"{self} is {v!r}, not a rational") from None

    def strs(self) -> tuple[str, ...]:
        return tuple(x.of(str) for x in self.items())

    def rats(self) -> tuple[Rat, ...]:
        return tuple(x.rat() for x in self.items())

    def rows(self) -> Matrix:
        return tuple(x.rats() for x in self.items())


def read_json(path: str | Path, load: Callable[[Any], Any]) -> Any:
    """load(data) for the JSON document at ``path``, with the file named in
    front of a ValueError raised while reading or building from it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load(json.load(fh))
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


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
class GraphVertex:
    label: str
    genus: int
    self_int: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if self.self_int >= 0:
            raise ValueError("exceptional curves have negative self-intersection")


@dataclass(frozen=True)
class StrictTransform:
    """Boundary component meeting the exceptional locus.

    ``incidences`` pairs vertex indices with intersection multiplicities.
    """

    coeff: Rat
    incidences: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not 0 <= self.coeff <= 1:
            raise ValueError("strict-transform coefficient must lie in [0, 1]")
        for _, mult in self.incidences:
            if mult < 0:
                raise ValueError("incidence multiplicities must be >= 0")


# The most vertices a resolution graph may have: the discrepancy solve is a
# dense elimination, cubic in the vertex count (400 vertices take seconds).
MAX_GRAPH_VERTICES = 100


@dataclass(frozen=True)
class ResolutionGraph:
    """Exceptional dual graph; discrepancies are solved from it by adjunction.
    A graph of more than ``MAX_GRAPH_VERTICES`` vertices is refused."""

    vertices: tuple[GraphVertex, ...]
    edges: tuple[tuple[int, int, int], ...] = ()
    strict_transforms: tuple[StrictTransform, ...] = ()

    def __post_init__(self):
        n = len(self.vertices)
        if n > MAX_GRAPH_VERTICES:
            raise ValueError(f"resolution graph has {n} vertices, more than the "
                             f"bound of {MAX_GRAPH_VERTICES}")
        for i, j, mult in self.edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad edge ({i},{j})")
            if mult < 0:
                raise ValueError("edge multiplicities must be >= 0")
        for st in self.strict_transforms:
            for i, _ in st.incidences:
                if not 0 <= i < n:
                    raise ValueError("strict transform meets unknown vertex")

    def intersection_matrix(self) -> list[list[int]]:
        n = len(self.vertices)
        mat = [[0] * n for _ in range(n)]
        for i, v in enumerate(self.vertices):
            mat[i][i] = v.self_int
        for i, j, mult in self.edges:
            mat[i][j] += mult
            mat[j][i] += mult
        return mat

    @classmethod
    def from_dict(cls, data: Any) -> "ResolutionGraph":
        r = JsonValue(data, "resolution graph")
        return cls(
            vertices=tuple(GraphVertex(v.get("label").of(str), v.get("genus").of(int),
                                       v.get("self_int").of(int))
                           for v in r.get("vertices").items()),
            edges=_int_rows(r.get("edges", []), 3),
            strict_transforms=tuple(
                StrictTransform(st.get("coeff").rat(), _int_rows(st.get("incidences"), 2))
                for st in r.get("strict_transforms", []).items()),
        )


def _int_rows(r: JsonValue, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(x.of(int) for x in row.items(n)) for row in r.items())


@dataclass(frozen=True)
class ModelLink:
    """Blow-up or resolution relation from a model to a catalogued model.

    ``pullback`` maps divisor coordinates on the source model to the
    target model (rank_target x rank_source); ``exceptional`` is the
    class of the extracted divisor E on the target; ``boundary_mults[i]``
    is the multiplicity of the i-th boundary part's pullback along it.
    E is the one divisor extracted, so K_Y = f*K_X + aE on the target.
    """

    target: str
    pullback: Matrix
    exceptional_label: str
    exceptional: DivClass
    boundary_mults: tuple[Rat, ...] = ()

    def pull(self, d: DivClass) -> DivClass:
        return DivClass(tuple(sum((x * c for x, c in zip(row, d.coeffs) if x), Fraction(0))
                              for row in self.pullback))

    def discrepancy(self, target: SurfaceModel) -> Rat:
        """a in K_Y = f*K_X + aE: K_Y.E / E^2, as f*K_X.E = 0."""
        e = self.exceptional
        return target.intersect(target.canonical, e) / target.intersect(e, e)


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

    def intersect(self, d1: DivClass, d2: DivClass) -> Rat:
        """d1 . d2 through the model's Gram matrix.

        The Gram matrix is held once per model as integers over one
        denominator.  ``_pair_numerators`` pairs d1 against it, d2 is
        cleared to integer numerators over one denominator, and the
        pairing is their integer dot product over one Fraction.
        """
        if len(d2) != self.rank:
            raise ValueError("rank mismatch in intersection pairing")
        r, row = _pair_numerators(d1, *self._int_gram)
        s, b = over_one_denominator(d2.coeffs)
        return Fraction(sum(map(mul, row, b)), r * s)

    @cached_property
    def _int_gram(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(q, G) with gram[i][j] = G[i][j] / q."""
        q, flat = over_one_denominator([x for row in self.gram for x in row])
        entries = iter(flat)
        return q, tuple(tuple(islice(entries, len(row))) for row in self.gram)

    @cached_property
    def _curve_vectors(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(q, V) with (G.C)_i = V[i][k] / q for the k-th catalogued curve C.

        ``_pair_numerators`` gives G.C as an integer column over the Gram's
        denominator times the curve's (G is symmetric).  Its gcd with that
        denominator leaves the column's least denominator, and q is the lcm
        of those: the (q, V) that reducing every entry as a Fraction and
        clearing them to one denominator gives.
        """
        columns, dens = [], []
        for c in self.neg_curves:
            r, col = _pair_numerators(c.cls, *self._int_gram)
            g = gcd(r, *col)
            columns.append([x // g for x in col])
            dens.append(r // g)
        q = lcm(*dens)
        columns = [[x * (q // d) for x in col] for col, d in zip(columns, dens)]
        return q, tuple(tuple(col[i] for col in columns) for i in range(len(self.gram)))

    @cached_property
    def _generator_rows(self) -> tuple[tuple[int, ...], ...]:
        """The catalogued curves' coordinates as integer rows (rank x n): the
        k-th column is the k-th curve's class cleared to integer numerators
        over its least denominator, the LP's columns in ``pseff_certificate``."""
        columns = [over_one_denominator(c.cls.coeffs)[1] for c in self.neg_curves]
        return tuple(tuple(col[i] for col in columns) for i in range(self.rank))

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
        return combination_str(zip(d.coeffs, self.basis_labels))

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
        # a class is keyed by its (numerator, denominator) pairs: a Fraction hashes slowly
        keys = [tuple([(x.numerator, x.denominator) for x in c.cls.coeffs])
                for c in self.neg_curves]
        labels: set[str] = set()
        classes: dict[tuple, str] = {}
        for c, key in zip(self.neg_curves, keys):
            if c.label in labels:
                problems.append(f"{self.name}: generator label {c.label} is listed twice")
            labels.add(c.label)
            if key in classes:
                problems.append(f"{self.name}: generators {classes[key]} and "
                                f"{c.label} have the same class")
            classes.setdefault(key, c.label)
        short = [c.label for c in self.neg_curves if len(c.cls) != n]
        problems += [f"{self.name}: curve {label} has wrong length" for label in short]
        # The pairings need every class at full length.  They are read one row
        # at a time, as integer numerators over the row's denominator and from
        # the diagonal on, so no N x N table is held (dP1 has 240 generators);
        # a Fraction is built only for a reported value.
        curves = () if short else self.neg_curves
        mk = (self.minus_k() if self.del_pezzo and len(self.canonical) == n and not short
              else None)
        q, vectors = (1, ()) if short else self._curve_vectors
        if mk is not None:
            mk_den, mk_dot = _pair_numerators(mk, q, vectors)
        lines: set[tuple] = set()
        for i, c in enumerate(curves):
            den, row = _pair_numerators(c.cls, q, vectors, i)
            sq = row[0]
            if sq > 0 and n > 1:
                problems.append(
                    f"{self.name}: generator {c.label} has positive square "
                    f"{Fraction(sq, den)} on a rank >= 2 model")
            if mk is not None and sq == -den:
                if mk_dot[i] != mk_den:
                    problems.append(
                        f"{self.name}: (-1)-curve {c.label} has -K.C != 1")
                else:
                    lines.add(keys[i])
            # two distinct irreducible curves meet non-negatively
            for other, v in zip(curves[i + 1:], row[1:]):
                if v < 0 and other.cls != c.cls:
                    problems.append(
                        f"{self.name}: generators {c.label} and {other.label} "
                        f"pair negatively ({rat_str(Fraction(v, den))})")
        if mk is not None:
            degree = self.intersect(mk, mk)
            q, g = self._int_gram
            if degree not in _DEL_PEZZO_LINES:
                problems.append(f"{self.name}: del Pezzo degree {degree} outside 1..9")
            elif q != 1 or n != 10 - int(degree) or abs(bareiss(g, [])[1]) != 1:
                problems.append(
                    f"{self.name}: gram is not a unimodular integer matrix of rank "
                    f"{10 - int(degree)}, as a del Pezzo surface of degree {degree} has")
            else:
                want, kind = _DEL_PEZZO_LINES[degree], ""
                if want is None:  # an odd lattice has an odd square on its diagonal
                    odd = any(row[i] % 2 for i, row in enumerate(g))
                    want, kind = int(odd), f" with an {'odd' if odd else 'even'} lattice"
                if len(lines) != want:
                    problems.append(
                        f"{self.name}: {len(lines)} (-1)-curves listed, a del Pezzo "
                        f"surface of degree {degree}{kind} has {want}")
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
    """Nefness against the catalogued effective-cone generators: the sign of
    d . C for each one is read from its integer numerator over a positive
    denominator (``_pair_numerators``), with no Fraction built."""
    if not m.neg_curves:
        raise ModelInvariantError(f"{m.name}: no cone generators to test against")
    return all(v >= 0 for v in _pair_numerators(d, *m._curve_vectors)[1])


def enumerate_neg_curves(k: int) -> list[DivClass]:
    """All (-1)-curve classes on the blow-up of the plane at k general points.

    Search over c0*H + sum(d_i * E_i) with C^2 = -1 and -K.C = 1, that is
    sum(d_i) = 1 - 3*c0 and sum(d_i^2) = c0^2 + 1, for c0 >= 0 (H is nef)
    and every d_i in [-(c0+1), 1].  Cauchy-Schwarz over the k values gives
    (3*c0 - 1)^2 <= k*(c0^2 + 1), a convex quadratic condition on c0 that
    holds at c0 = 0 for k >= 1, so c0 runs up from 0 while it holds (to
    0, 1, 1, 1, 2, 2, 3, 7 for k = 1..8) and the search is complete.  One
    ordered recursion over the k positions, pruned by the same inequality
    on the positions still free.  Sorted canonically (by degree, then
    multiplicities).
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

    c0 = 0
    while (3 * c0 - 1) ** 2 <= k * (c0 * c0 + 1):
        rec((c0,), 1 - 3 * c0, c0 * c0 + 1)
        c0 += 1
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


def _link_from(r: JsonValue) -> ModelLink | None:
    if r.value is None:
        return None
    return ModelLink(
        target=r.get("target").of(str),
        pullback=r.get("pullback").rows(),
        exceptional_label=r.get("exceptional_label").of(str),
        exceptional=DivClass(r.get("exceptional").rats()),
        boundary_mults=r.get("boundary_mults", []).rats(),
    )


def model_from_dict(data: Any) -> SurfaceModel:
    """Load a model from its declarative form.  It is not validated: check it
    with ``validate_strict`` (and its links with ``catalog.validate_links``)."""
    r = JsonValue(data, "model").named()
    named = r.get("named_divisors", {})
    return SurfaceModel(
        name=r.get("name").of(str),
        basis_labels=r.get("basis").strs(),
        gram=r.get("gram").rows(),
        canonical=DivClass(r.get("canonical").rats()),
        neg_curves=tuple(LabeledCurve(c.get("label").of(str), DivClass(c.get("coeffs").rats()))
                         for c in r.get("neg_curves").items()),
        boundary=tuple(BoundaryPart(b.get("label").of(str), DivClass(b.get("coeffs").rats()),
                                    b.get("coeff").rat())
                       for b in r.get("boundary", []).items()),
        sings=tuple(SingularPoint(parse_sing(s.get("sing").of(str)), s.get("location").of(str))
                    for s in r.get("sings", []).items()),
        named_divisors={k: DivClass(named.get(k).rats()) for k in named.of(dict)},
        point_classes=r.get("point_classes", ["generic"]).strs(),
        del_pezzo=r.get("del_pezzo", False).of(bool),
        blowup=_link_from(r.get("blowup", None)),
        resolution=_link_from(r.get("resolution", None)),
        beta_candidates=r.get("beta_candidates", []).strs(),
    )


def load_models(path: str | Path) -> list[SurfaceModel]:
    """Read one model, a list or a {"models": [...]} collection, unvalidated."""
    def load(data) -> list[SurfaceModel]:
        if isinstance(data, dict):
            data = data.get("models", [data])
        return [model_from_dict(e.of(dict)) for e in JsonValue(data, "model list").items()]

    return read_json(path, load)
