"""Name resolution by scans of the model, kept as a test oracle.

These are the forms that ``SurfaceModel.named`` and
``valuative.resolve_divisor_spec`` had before a model read every name from
one table (``SurfaceModel.names``): a precedence chain over the named
divisors, the basis labels, the generators, the boundary parts and K, -K;
a second scan that reads a bare basis label as a raw class; and a separate
scan of the boundary for A.  On a model whose names agree, the table must
give the same answers.
"""

from __future__ import annotations

from fractions import Fraction

from delpezzo.lattice import DivClass
from delpezzo.parse import ParseError, div_from_expr
from delpezzo.valuative import DivisorSpecError, ResolvedDivisor, _linked, _raw


def named(m, name: str) -> DivClass | None:
    """The class ``name`` denotes on m, or None."""
    if name in m.named_divisors:
        return m.named_divisors[name]
    if name in m.basis_labels:
        i = m.basis_labels.index(name)
        return DivClass(tuple(Fraction(int(j == i)) for j in range(m.rank)))
    for c in m.neg_curves:
        if c.label == name:
            return c.cls
    for b in m.boundary:
        if b.label == name:
            return b.cls
    if name == "K":
        return m.canonical
    if name == "-K":
        return m.minus_k()
    return None


def resolve(m, spec: str) -> ResolvedDivisor:
    """The divisor a spec names on m: a link keyword, a name or an expression."""
    name = spec.strip()
    if name == "exceptional:pt":
        if m.blowup is None:
            raise DivisorSpecError(f"{m.name} has no catalogued point blow-up")
        return _linked(m, m.blowup, "blowup")
    if name in ("exceptional", "e") and m.resolution is not None:
        return _linked(m, m.resolution, "resolution")
    cls = named(m, name)
    if name in m.basis_labels and name not in m.named_divisors and all(
            x.label != name for x in (*m.neg_curves, *m.boundary)):
        return _raw(m, cls)
    if cls is None:
        if name == "exceptional":
            raise DivisorSpecError(f"{m.name} has no catalogued resolution")
        try:
            return _raw(m, div_from_expr(m, spec))
        except ParseError as exc:
            raise DivisorSpecError(str(exc)) from exc
    a = Fraction(1)
    for part in m.boundary:
        if part.label == name:
            a -= part.coeff
    return ResolvedDivisor(m, m, m.polarization(), cls, name, a, "on-surface")
