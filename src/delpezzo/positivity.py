"""Zariski decompositions, exact volumes and volume profiles.

A pseudoeffective class D on a catalogued surface splits as D = P + N
with P nef, N supported on a negative-definite set of catalogued curves
and P orthogonal to N; then vol(D) = P^2.  Pseudoeffectivity itself is
decided by exact LP membership in the cone of catalogued generators, so
failures come with a checkable certificate: a nef class pairing
negatively with D.

The profile t -> vol(L - tE) is computed by an exact chamber walk:
inside a chamber the negative-part support is constant and the
coefficients are linear in t, so each piece of the profile is a
quadratic with rational breakpoints found by exact root-finding on the
linear wall functions (never by numeric sampling).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import lp
from .exactnum import Poly, PiecewisePoly, Rat, rat, rat_str, rational_roots
from .lattice import DivClass, LabeledCurve, SurfaceModel, is_nef
from .linalg import Matrix, is_negative_definite, solve


class NotPseudoeffectiveError(ValueError):
    """Input class lies outside the pseudoeffective cone.

    ``certificate`` is a nef class W (nonnegative against every
    catalogued generator) with W . d < 0.
    """

    def __init__(self, m: SurfaceModel, d: DivClass, certificate: DivClass, value: Rat):
        self.model = m
        self.div = d
        self.certificate = certificate
        self.value = value
        super().__init__(
            f"{m.render(d)} is not pseudoeffective on {m.name}: "
            f"nef class {m.render(certificate)} pairs to {rat_str(value)} < 0")


class ConeDataError(RuntimeError):
    """Zariski machinery stalled: cone data possibly incomplete."""


def pseff_certificate(m: SurfaceModel, d: DivClass) -> tuple[bool, DivClass | None]:
    """LP membership of d in the cone of catalogued generators.

    Returns (True, None) or (False, W) with W nef and W . d < 0.  W is
    re-checked before it is returned: it pairs >= 0 with every generator
    and with the polarization, W^2 >= 0 and W . d < 0; ConeDataError if
    any of these fails.
    """
    gens = [c.cls.coeffs for c in m.neg_curves]
    res = lp.in_cone(gens, d.coeffs)
    if res.feasible:
        return True, None
    # Farkas functional y: y.gen <= 0 for all generators, y.d > 0.
    # Convert to a divisor class W with G * coeffs(W) = -y, so that
    # W . C = -y . coeffs(C).
    y = res.farkas
    w = DivClass(tuple(solve(m.gram, [-v for v in y])))
    problems = [f"W.{c.label} < 0"
                for c, v in zip(m.neg_curves, m.curve_pairings(w)) if v < 0]
    if m.intersect(w, m.polarization()) < 0:
        problems.append("W.(polarization) < 0")
    if m.intersect(w, w) < 0:
        problems.append("W^2 < 0")
    if m.intersect(w, d) >= 0:
        problems.append("W.D >= 0")
    if problems:
        raise ConeDataError(
            f"nef certificate W = {m.render(w)} for D = {m.render(d)} on {m.name} "
            f"fails its check: {', '.join(problems)}")
    return False, w


@dataclass(frozen=True)
class ZariskiDecomp:
    """Certificate-carrying decomposition d = positive + negative."""

    positive: DivClass
    negative: tuple[tuple[str, Rat], ...]
    gram_cert: Matrix

    def negative_class(self, m: SurfaceModel) -> DivClass:
        total = DivClass((Fraction(0),) * m.rank)
        for label, coeff in self.negative:
            total = total + m.curve(label).scale(coeff)
        return total

    def verify(self, m: SurfaceModel, original: DivClass) -> list[str]:
        """Re-check every invariant independently of the solver."""
        problems = []
        if self.positive + self.negative_class(m) != original:
            problems.append("P + N does not reassemble the input class")
        p_dot: dict[str, Rat] = {}
        for c, v in zip(m.neg_curves, m.curve_pairings(self.positive)):
            p_dot.setdefault(c.label, v)  # the first curve of a label, as m.curve reads
            if v < 0:
                problems.append(f"P is negative against {c.label}")
        for label, coeff in self.negative:
            if coeff < 0:
                problems.append(f"negative part has coefficient {coeff} < 0 on {label}")
            if p_dot[label] != 0:
                problems.append(f"P not orthogonal to {label}")
        if self.negative and not is_negative_definite(self.gram_cert):
            problems.append("support Gram matrix is not negative definite")
        return problems


def _solve_support(m: SurfaceModel, support: Sequence[LabeledCurve],
                   classes: Sequence[DivClass]) -> tuple[Matrix, list[list[Rat]]]:
    """The support's Gram matrix, certified negative definite, and for each
    class d the coefficients x with (d - sum x_i C_i) . C_j = 0 on the support.

    The Gram matrix C_i . C_j and the right-hand sides d . C_j are read from
    the model's cached curve vectors for the support curves."""
    if not support:
        return (), [[] for _ in classes]
    rows = m._pairings_with(support, [c.cls for c in support] + list(classes))
    gram = tuple(rows[:len(support)])
    if not is_negative_definite(gram):
        raise ConeDataError(
            f"support {{{', '.join(c.label for c in support)}}} on {m.name} is not "
            "negative definite; cone data possibly incomplete")
    return gram, [solve(gram, rhs) for rhs in rows[len(support):]]


def zariski(m: SurfaceModel, d: DivClass) -> ZariskiDecomp:
    """Iterative decomposition: grow the support of curves P pairs negatively
    with, solving the Gram system for the orthogonalizing coefficients."""
    ok, cert = pseff_certificate(m, d)
    if not ok:
        raise NotPseudoeffectiveError(m, d, cert, m.intersect(cert, d))
    support: list[LabeledCurve] = []
    for _ in range(len(m.neg_curves) + 1):
        gram, (coeffs,) = _solve_support(m, support, [d])
        p = d
        for c, x in zip(support, coeffs):
            p = p - c.cls.scale(x)
        violating = [c for c, v in zip(m.neg_curves, m.curve_pairings(p))
                     if v < 0 and c not in support]
        if not violating:
            dec = ZariskiDecomp(p, tuple((c.label, x) for c, x in zip(support, coeffs)),
                                gram)
            problems = dec.verify(m, d)
            if problems:
                raise ConeDataError("; ".join(problems))
            return dec
        support.extend(violating)
    raise ConeDataError(f"Zariski loop stalled on {m.name}; cone data possibly incomplete")


def volume(m: SurfaceModel, d: DivClass) -> Rat:
    """vol(d) = P^2, extended by 0 outside the pseudoeffective cone."""
    if is_nef(m, d):
        return m.intersect(d, d)
    try:
        p = zariski(m, d).positive
    except NotPseudoeffectiveError:
        return Fraction(0)
    return m.intersect(p, p)


@dataclass(frozen=True)
class Chamber:
    """One linearity chamber of the walk: P(t) = p_const + t * p_slope."""

    lo: Rat
    hi: Rat
    support: tuple[str, ...]
    p_const: DivClass
    p_slope: DivClass
    n_coeffs: tuple[tuple[str, Poly], ...]
    vol: Poly

    def p_at(self, t) -> DivClass:
        return self.p_const + self.p_slope.scale(rat(t))

    def n_at(self, t) -> tuple[tuple[str, Rat], ...]:
        return tuple((label, poly(rat(t))) for label, poly in self.n_coeffs)


@dataclass(frozen=True)
class VolumeProfile:
    """Piecewise-quadratic vol(L - tE) with chamber data and threshold tau.

    ``L2`` is L . L and ``S`` the normalized integral (1/L^2) * int_0^tau vol,
    computed on first read.
    """

    profile: PiecewisePoly
    tau: Rat
    chambers: tuple[Chamber, ...]
    L: DivClass
    E: DivClass
    L2: Rat

    @cached_property
    def S(self) -> Rat:
        return self.profile.integrate(0, self.tau) / self.L2

    def value(self, t) -> Rat:
        t = rat(t)
        if t > self.tau:
            return Fraction(0)
        return self.profile(t)

    def chamber_at(self, t) -> Chamber:
        t = rat(t)
        for ch in self.chambers:
            if ch.lo <= t <= ch.hi:
                return ch
        raise ValueError(f"{t} outside [0, tau]")

    def to_report(self, m: SurfaceModel | None = None) -> dict:
        rep = {
            "pieces": self.profile.to_report(),
            "tau": rat_str(self.tau),
            "chambers": [
                {
                    "from": rat_str(ch.lo),
                    "to": rat_str(ch.hi),
                    "support": list(ch.support),
                    "negative_part": [
                        {"curve": label, "coeff": poly.format("t")}
                        for label, poly in ch.n_coeffs],
                }
                for ch in self.chambers],
        }
        if m is not None:
            rep["L"] = m.render(self.L)
            rep["E"] = m.render(self.E)
        return rep


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
    chambers: list[Chamber] = []

    for _ in range(2 * len(m.neg_curves) + 6):
        _, (c0, c1) = _solve_support(m, support, [L, -E])
        p_const, p_slope = L, -E
        for c, a, b in zip(support, c0, c1):
            p_const = p_const - c.cls.scale(a)
            p_slope = p_slope - c.cls.scale(b)
        n_polys = [Poly([a, b]) for a, b in zip(c0, c1)]

        # (P_const . C, P_slope . C) for every curve outside the support.
        pairings = [(c, a, b) for c, a, b in zip(m.neg_curves, m.curve_pairings(p_const),
                                                  m.curve_pairings(p_slope))
                    if c not in support]
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
        chambers.append(Chamber(
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
            return VolumeProfile(profile=profile, tau=t_end, chambers=tuple(chambers),
                                 L=L, E=E, L2=l2)
        for root, kind, c in wall_events:
            if root == t_end:
                if kind == "enter":
                    support.append(c)
                else:
                    support.remove(c)
        t_cur = t_end
    raise ConeDataError(
        f"chamber walk on {m.name} did not terminate; cone data possibly incomplete")


def pseff_threshold(m: SurfaceModel, L: DivClass, E: DivClass) -> Rat:
    """Largest t with vol(L - tE) > 0 (= largest pseudoeffective t)."""
    return volume_profile(m, L, E).tau
