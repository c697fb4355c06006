"""Reference chamber walk over Fraction entries, kept as a test oracle.

This is the walk that ``delpezzo.positivity.volume_profile`` ran before it
moved to integers: P_const and P_slope rebuilt as Fraction classes in each
chamber, every curve paired and tested in Fractions, and the support
solved by Fraction elimination with a signature certificate.  It returns
a ``VolumeProfile`` whose chambers are its own ``ChamberRecord``s, with
P(t) and N(t) built in the walk, and raises the same errors with the same
texts, so a comparison of every chamber's derived records checks the
whole walk: chambers, support order, pieces, tau and the chamber classes.
At the start of a chamber it lets curves enter first, solves again and
only then lets support curves leave, where the integer walk moves both at
once, so a comparison also checks that the two rules agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from delpezzo.exactnum import Poly, PiecewisePoly, Rat, rat_str, rational_roots
from delpezzo.lattice import DivClass, LabeledCurve, SurfaceModel, is_nef
from delpezzo.linalg import is_negative_definite
from delpezzo.positivity import ConeDataError, VolumeProfile
from solve_oracle import solve


@dataclass(frozen=True)
class ChamberRecord:
    """A chamber with the values ``positivity.Chamber`` derives on read."""

    lo: Rat
    hi: Rat
    support: tuple[str, ...]
    p_const: DivClass
    p_slope: DivClass
    n_coeffs: tuple[tuple[str, Poly], ...]
    vol: Poly


def _solve_support(m: SurfaceModel, support: Sequence[LabeledCurve],
                   classes: Sequence[DivClass]) -> list[list[Rat]]:
    """For each class d the coefficients x with (d - sum x_i C_i) . C_j = 0
    on the support, whose Gram matrix is first certified negative definite
    by its signature."""
    if not support:
        return [[] for _ in classes]
    gram = tuple(tuple(m.intersect(a.cls, b.cls) for b in support) for a in support)
    if not is_negative_definite(gram):
        raise ConeDataError(
            f"support {{{', '.join(c.label for c in support)}}} on {m.name} is not "
            "negative definite; cone data possibly incomplete")
    return [solve(gram, [m.intersect(d, c.cls) for c in support]) for d in classes]


def volume_profile(m: SurfaceModel, L: DivClass, E: DivClass) -> VolumeProfile:
    """Exact profile of vol(L - tE) for L big and nef, E effective and prime.

    Chamber walls are roots of the linear functions t -> P(t) . C over the
    catalogued generators; the walk ends at the pseudoeffective threshold,
    where the (at most quadratic) volume piece vanishes.
    """
    if not is_nef(m, L):
        raise ValueError(f"{m.render(L)} is not nef on {m.name}")
    l2 = m.intersect(L, L)
    if l2 <= 0:
        raise ValueError(f"{m.render(L)} is not big on {m.name}")
    if E.is_zero():
        raise ValueError("E must be a nonzero effective class")
    le = m.intersect(L, E)
    if le < 0:  # a nef class pairs >= 0 with every effective class
        raise ValueError(
            f"E = {m.render(E)} is not effective on {m.name}: the nef class L = "
            f"{m.render(L)} pairs to {rat_str(le)} < 0 with it")

    support: list[LabeledCurve] = []
    t_cur = Fraction(0)
    breakpoints: list[Rat] = [t_cur]
    pieces: list[Poly] = []
    chambers: list[ChamberRecord] = []

    for _ in range(2 * len(m.neg_curves) + 6):
        c0, c1 = _solve_support(m, support, [L, -E])
        p_const, p_slope = L, -E
        for c, a, b in zip(support, c0, c1):
            p_const = p_const - c.cls.scale(a)
            p_slope = p_slope - c.cls.scale(b)
        n_polys = [Poly([a, b]) for a, b in zip(c0, c1)]

        # (P_const . C, P_slope . C) for every curve outside the support.
        pairings = [(c, m.intersect(p_const, c.cls), m.intersect(p_slope, c.cls))
                    for c in m.neg_curves if c not in support]
        # A value negative just after t_cur (negative, or zero and falling)
        # means a curve enters, or a support curve leaves, right here.
        entering_now = [c for c, a, b in pairings
                        if (v := a + t_cur * b) < 0 or (v == 0 and b < 0)]
        if entering_now:
            support.extend(entering_now)
            continue
        leaving_now = [c for c, a, b in zip(support, c0, c1)
                       if (v := a + t_cur * b) < 0 or (v == 0 and b < 0)]
        if leaving_now:
            support = [c for c in support if c not in leaving_now]
            continue

        vol = Poly([
            m.intersect(p_const, p_const),
            2 * m.intersect(p_const, p_slope),
            m.intersect(p_slope, p_slope),
        ])

        wall_events: list[tuple[Rat, str, LabeledCurve]] = []
        for c, a, b in pairings:
            if b < 0:
                root = -a / b
                if root > t_cur:
                    wall_events.append((root, "enter", c))
        for c, n in zip(support, n_polys):
            if n.degree == 1 and n.coeff(1) < 0:
                root = -n.coeff(0) / n.coeff(1)
                if root > t_cur:
                    wall_events.append((root, "leave", c))

        vol_roots = [r for r in rational_roots(vol) if r > t_cur]
        tau_candidate = min(vol_roots) if vol_roots else None
        next_wall = min((e[0] for e in wall_events), default=None)

        if tau_candidate is not None and (next_wall is None or tau_candidate <= next_wall):
            t_end = tau_candidate
            final = True
        elif next_wall is not None:
            t_end = next_wall
            final = False
        else:
            raise ConeDataError(
                f"profile on {m.name} neither vanishes nor meets a wall beyond "
                f"t = {rat_str(t_cur)}; cone data possibly incomplete")

        if not final and vol(t_end) <= 0:
            # the volume must stay positive strictly inside the walk
            raise ConeDataError(
                f"volume vanished inside a chamber of {m.name} at "
                f"t = {rat_str(t_end)}; cone data possibly incomplete")
        breakpoints.append(t_end)
        pieces.append(vol)
        chambers.append(ChamberRecord(
            lo=t_cur, hi=t_end, support=tuple(c.label for c in support),
            p_const=p_const, p_slope=p_slope,
            n_coeffs=tuple((c.label, n) for c, n in zip(support, n_polys)),
            vol=vol))
        if final:
            try:  # the walk's pieces must join continuously
                profile = PiecewisePoly(breakpoints, pieces)
            except ValueError as exc:
                raise ConeDataError(f"volume profile on {m.name} is not continuous ({exc}); "
                                    "cone data possibly incomplete") from exc
            return VolumeProfile(profile=profile, tau=t_end, chambers=tuple(chambers), L2=l2)
        for root, kind, c in wall_events:
            if root == t_end:
                if kind == "enter":
                    support.append(c)
                else:
                    support.remove(c)
        t_cur = t_end
    raise ConeDataError(
        f"chamber walk on {m.name} did not terminate; cone data possibly incomplete")
