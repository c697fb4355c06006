"""Reference Zariski loop over Fraction entries, kept as a test oracle.

This is the loop that ``delpezzo.positivity.zariski`` ran before the
support kernel returned P . C: the LP first, then on every iteration the
support solved by Fraction elimination, P rebuilt as a Fraction class and
paired with every catalogued curve through ``intersect``.  It returns
the same ``ZariskiDecomp`` and raises the same errors with the same texts.
"""

from __future__ import annotations

from delpezzo.lattice import DivClass, LabeledCurve, SurfaceModel
from delpezzo.positivity import (ConeDataError, NotPseudoeffectiveError, ZariskiDecomp,
                                 pseff_certificate)
from walk_oracle import _solve_support


def zariski(m: SurfaceModel, d: DivClass) -> ZariskiDecomp:
    """Grow the support of curves P pairs negatively with, re-solving the
    Gram system in Fractions until P is nef."""
    ok, cert = pseff_certificate(m, d)
    if not ok:
        raise NotPseudoeffectiveError(m, d, cert, m.intersect(cert, d))
    support: list[LabeledCurve] = []
    for _ in range(len(m.neg_curves) + 1):
        (xs,) = _solve_support(m, support, [d])
        p = d
        for c, x in zip(support, xs):
            p = p - c.cls.scale(x)
        violating = [c for c in m.neg_curves
                     if m.intersect(p, c.cls) < 0 and c not in support]
        if not violating:
            dec = ZariskiDecomp(p, tuple((c.label, x) for c, x in zip(support, xs)))
            problems = dec.verify(m, d)
            if problems:
                raise ConeDataError("; ".join(problems))
            return dec
        support.extend(violating)
    raise ConeDataError(f"Zariski loop stalled on {m.name}; cone data possibly incomplete")
