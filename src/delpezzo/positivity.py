"""Zariski decompositions, exact volumes and volume profiles.

A pseudoeffective class D on a catalogued surface splits as D = P + N
with P nef, N supported on a negative-definite set of catalogued curves
and P orthogonal to N; then vol(D) = P^2.  ``zariski`` runs the
support-growing loop first and returns its decomposition when it passes
``ZariskiDecomp.verify`` and P lies in the closed positive cone (H^2 > 0,
P^2 >= 0 and P . H >= 0 for the polarization H): the Gram has signature
(1, rank - 1), so by the Hodge index theorem no nef class pairs negatively
with such a D.  Elsewhere pseudoeffectivity is decided by exact LP
membership in the cone of catalogued generators, so failures come with a
checkable certificate: a nef class pairing negatively with D.

The profile t -> vol(L - tE) is computed by an exact chamber walk:
inside a chamber the negative-part support is constant and the
coefficients are linear in t, so each piece of the profile is a
quadratic with rational breakpoints found by exact root-finding on the
linear wall functions (never by numeric sampling).

Both the decomposition and the walk solve their support systems with one
integer kernel, ``_solve_support``: a fraction-free Bareiss elimination of
the integer support Gram whose leading principal minors certify it
negative definite before it returns a solution.  A support of rank or
more curves is refused before any row is read, as the Hodge index theorem
allows fewer.  The kernel returns no Gram (a decomposition's certificate
is ``ZariskiDecomp.support_gram``, recomputed from the model), but with
each solution P . C for every catalogued curve C, by linearity from the
support rows, and both loops read P . C from it: the Zariski loop builds
P once, for the decomposition it returns, and the walk runs on integers
throughout: one line a + b t per curve and chamber, one test of which
lines turn negative just after t, for the support change at the start of
a chamber and at its wall, and one loop for the nearest wall.  A Chamber
keeps the kernel's integer solutions, and builds P(t) and N(t) from them
only when a caller reads them: the S, beta and flag paths never do.

Every per-curve sign test reads integers: the walk's nef test of L,
``ZariskiDecomp.verify`` and the check of a Farkas class W read the signs
of D . C from the numerators ``lattice._pair_numerators`` returns over one
positive denominator, and build no Fraction per catalogued curve.  The LP
is written in pairing coordinates, on the model's integer columns G.C, so
its Farkas vector is minus the nef class W: the nef cone is dual to the
cone of curves under the pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Sequence

from . import lp
from .exactnum import (Poly, PiecewisePoly, Rat, over_one_denominator, rat_str,
                       rational_roots)
from .lattice import (DivClass, LabeledCurve, ModelInvariantError, SurfaceModel,
                      _pair_numerators)
from .linalg import Matrix, bareiss, is_negative_definite, sylvester_negative_definite


class NotPseudoeffectiveError(ValueError):
    """Input class lies outside the pseudoeffective cone.

    ``certificate`` is a nef class W (nonnegative against every
    catalogued generator) with W . d < 0.
    """

    def __init__(self, m: SurfaceModel, d: DivClass, certificate: DivClass, value: Rat):
        super().__init__(m, d, certificate, value)  # its text is rendered when read
        self.certificate = certificate
        self.value = value

    def __str__(self) -> str:
        m, d, certificate, value = self.args
        return (f"{m.render(d)} is not pseudoeffective on {m.name}: "
                f"nef class {m.render(certificate)} pairs to {rat_str(value)} < 0")

    def __repr__(self) -> str:  # the text, not the model's repr in args
        return f"{type(self).__name__}({str(self)!r})"


class ConeDataError(RuntimeError):
    """Zariski machinery stalled: cone data possibly incomplete."""


def pseff_certificate(m: SurfaceModel, d: DivClass) -> tuple[bool, DivClass | None]:
    """LP membership of d in the cone of catalogued generators.

    The LP is written in pairing coordinates: its columns are the integer
    columns G.C the model caches (``SurfaceModel._curve_vectors``), its
    right-hand side G.d.  G is nonsingular (``validate`` requires signature
    (1, rank - 1, 0)), so sum x_k G.C_k = G.d has the solutions of
    sum x_k C_k = d and the verdict is that of the LP on the generators'
    coordinates.  Its Farkas vector y has y.G.C <= 0 < y.G.d, so W = -y is
    the nef certificate, read with no elimination of the Gram.

    Returns (True, None) or (False, W) with W nef and W . d < 0.  W is
    re-checked before it is returned: it pairs >= 0 with every generator
    and with the polarization, W^2 >= 0 and W . d < 0; ConeDataError if
    any of these fails.
    """
    res = lp.eq_feasibility(m._curve_vectors[1], _pair_numerators(d, *m._int_gram)[1])
    if res.feasible:
        return True, None
    w = -DivClass(res.farkas)
    _, w_dot = _pair_numerators(w, *m._curve_vectors)  # signs of W . C
    problems = [f"W.{c.label} < 0" for c, v in zip(m.neg_curves, w_dot) if v < 0]
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
    """Decomposition d = positive + negative, certified by ``verify``: its
    support Gram, ``support_gram(m)``, is read from the model, not stored."""

    positive: DivClass
    negative: tuple[tuple[str, Rat], ...]

    def negative_class(self, m: SurfaceModel) -> DivClass:
        total = DivClass((Fraction(0),) * m.rank)
        for label, coeff in self.negative:
            total = total + m.curve(label).scale(coeff)
        return total

    def support_gram(self, m: SurfaceModel) -> Matrix:
        """C_i . C_j for the support curves C_i, in the order of ``negative``."""
        curves = [m.curve(label) for label, _ in self.negative]
        cleared = [over_one_denominator(c.coeffs) for c in curves]
        pairs = [_pair_numerators(c, *m._int_gram) for c in curves]  # one pairing per curve
        return tuple(tuple(Fraction(sum(map(mul, row, b)), r * s) for s, b in cleared)
                     for r, row in pairs)

    def verify(self, m: SurfaceModel, original: DivClass) -> list[str]:
        """Re-check every invariant independently of the solver."""
        problems = []
        if self.positive + self.negative_class(m) != original:
            problems.append("P + N does not reassemble the input class")
        p_dot: dict[str, int] = {}  # numerators of P . C over one positive denominator
        for c, v in zip(m.neg_curves, _pair_numerators(self.positive, *m._curve_vectors)[1]):
            p_dot.setdefault(c.label, v)  # the first curve of a label, as m.curve reads
            if v < 0:
                problems.append(f"P is negative against {c.label}")
        for label, coeff in self.negative:
            if coeff < 0:
                problems.append(f"negative part has coefficient {coeff} < 0 on {label}")
            if p_dot[label] != 0:
                problems.append(f"P not orthogonal to {label}")
        if self.negative and not is_negative_definite(self.support_gram(m)):
            problems.append("support Gram matrix is not negative definite")
        return problems


def _not_negative_definite(m: SurfaceModel, support: Sequence[int]) -> ConeDataError:
    return ConeDataError(
        f"support {{{', '.join(m.neg_curves[k].label for k in support)}}} on "
        f"{m.name} is not negative definite; cone data possibly incomplete")


def _solve_support(m: SurfaceModel, support: Sequence[int],
                   classes: Sequence[tuple[int, Sequence[int]]]
                   ) -> list[tuple[int, list[int], int, list[int]]]:
    """The solutions for the support curves C_i = neg_curves[support[i]]: for
    each class d, given by its pairings (r, n) with d . C_k = n[k] / r for
    every catalogued curve C_k, its (s, X, t, p): P = d - sum x_i C_i with
    x_i = X[i] / s, s > 0, is orthogonal to the support, and P . C_k =
    p[k] / t, t > 0, for every catalogued curve.

    The support curves' rows of pairings are integer numerators read from
    the model's cached curve vectors.  One Bareiss elimination of their
    integer Gram, local to the kernel, carried along every right-hand side,
    gives the leading principal minors, whose signs certify the support
    negative definite (Sylvester's criterion) before any solution is
    returned, and the solutions over the determinant.  P . C_k follows by
    linearity from the support rows, over one denominator."""
    if not support:  # P = d
        return [(r, [], r, n) for r, n in classes]
    if len(support) >= m.rank:  # Hodge index: a negative-definite set has < rank members
        raise _not_negative_definite(m, support)
    q, vectors = m._curve_vectors
    rows = [_pair_numerators(m.neg_curves[k].cls, q, vectors) for k in support]
    w = lcm(*(r for r, _ in rows))
    gram = tuple(tuple(row[k] * (w // r) for k in support) for r, row in rows)
    # sum_i x_i gram[j][i] / w = d . C_j = n[j] / r, so gram (r x) = w n
    minors, det, xs = bareiss(gram, [[w * n[k] for k in support] for _, n in classes])
    if not sylvester_negative_definite(minors, len(support)):
        raise _not_negative_definite(m, support)
    sign, det = (1, det) if det > 0 else (-1, -det)
    sols = []
    for (r, n), xv in zip(classes, xs):
        xv = [sign * x for x in xv]  # x_i = xv[i] / (det r)
        p = [v * det * w for v in n]  # P . C_k = n[k] / r - sum_i x_i row_i[k] / r_i
        for x, (ri, row) in zip(xv, rows):
            if f := x * (w // ri):
                p = [s - f * v for s, v in zip(p, row)]
        sols.append((det * r, xv, det * r * w, p))
    return sols


def _minus_combination(d: DivClass, xs: Sequence[int], r: int,
                       curves: Sequence[LabeledCurve]) -> DivClass:
    """d - sum (xs[i] / r) C_i, summed in integers over one denominator:
    one Fraction per coordinate."""
    s, acc = over_one_denominator(d.coeffs)
    cleared = [over_one_denominator(c.cls.coeffs) for c in curves]
    den = lcm(*(t for t, _ in cleared))
    acc = [v * r * den for v in acc]
    for x, (t, nums) in zip(xs, cleared):
        f = s * x * (den // t)
        if f:
            acc = [a - f * v for a, v in zip(acc, nums)]
    den *= s * r
    return DivClass(tuple(Fraction(a, den) for a in acc))


def zariski(m: SurfaceModel, d: DivClass) -> ZariskiDecomp:
    """The Zariski decomposition of d, or NotPseudoeffectiveError with a nef
    certificate.

    The support-growing loop runs first.  Its decomposition is returned
    without an LP when it passes ``verify`` and P lies in the closed positive
    cone: with H the polarization, H^2 > 0, P^2 >= 0 and P . H >= 0.  The
    Gram has signature (1, rank - 1), so P pairs >= 0 with every class W
    with W^2 >= 0 and W . H >= 0, and N >= 0 pairs >= 0 with every nef W:
    no Farkas class W with W . d < 0 passes the re-check of
    ``pseff_certificate``, and the LP could not refuse d.
    Otherwise the LP decides: an infeasible LP raises
    NotPseudoeffectiveError, and a feasible one returns the loop's
    decomposition or re-raises the ConeDataError the loop raised."""
    try:
        dec = _zariski_loop(m, d)
    except ConeDataError as exc:
        dec, failure = None, exc
    else:
        h = m.polarization()
        p = dec.positive
        if m.intersect(h, h) > 0 and m.intersect(p, p) >= 0 and m.intersect(p, h) >= 0:
            return dec
    ok, cert = pseff_certificate(m, d)
    if not ok:
        raise NotPseudoeffectiveError(m, d, cert, m.intersect(cert, d))
    if dec is None:
        raise failure
    return dec


def _zariski_loop(m: SurfaceModel, d: DivClass) -> ZariskiDecomp:
    """Iterative decomposition: grow the support of curves P pairs negatively
    with, solving the Gram system for the orthogonalizing coefficients.  P . C
    comes from the support kernel; P itself is built once, at the end."""
    pairings = _pair_numerators(d, *m._curve_vectors)
    support: list[int] = []  # indices into neg_curves
    for _ in range(len(m.neg_curves) + 1):
        ((r, xs, _, p_dot),) = _solve_support(m, support, [pairings])
        violating = [k for k, v in enumerate(p_dot) if v < 0 and k not in support]
        if not violating:
            curves = [m.neg_curves[k] for k in support]
            dec = ZariskiDecomp(
                _minus_combination(d, xs, r, curves),
                tuple((c.label, Fraction(x, r)) for c, x in zip(curves, xs)))
            problems = dec.verify(m, d)
            if problems:
                raise ConeDataError("; ".join(problems))
            return dec
        support.extend(violating)
    raise ConeDataError(f"Zariski loop stalled on {m.name}; cone data possibly incomplete")


def volume(m: SurfaceModel, d: DivClass) -> Rat:
    """vol(d) = P^2 for the positive part P of ``zariski(m, d)``, extended by 0
    outside the pseudoeffective cone.  A nef d is its own positive part: the
    loop returns it at its first step, with no LP."""
    try:
        p = zariski(m, d).positive
    except NotPseudoeffectiveError:
        return Fraction(0)
    return m.intersect(p, p)


@dataclass(frozen=True, eq=False)
class Chamber:
    """One linearity chamber [lo, hi] of the walk: its volume piece, its
    support curves C_i in entry order, the walk's L and E, and the kernel's
    integer solutions, x_i(t) = x0[i] / r0 + t * x1[i] / r1 for the
    coefficient of C_i in N(t).  P(t) = p_const + t * p_slope and N(t)
    (``n_coeffs``) are built on first read.  Chambers compare by identity:
    the integer solution is not canonical."""

    lo: Rat
    hi: Rat
    vol: Poly
    curves: tuple[LabeledCurve, ...]
    L: DivClass
    E: DivClass
    x0: tuple[int, ...]
    r0: int
    x1: tuple[int, ...]
    r1: int

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.curves)

    @cached_property
    def p_const(self) -> DivClass:
        return _minus_combination(self.L, self.x0, self.r0, self.curves)

    @cached_property
    def p_slope(self) -> DivClass:
        return _minus_combination(-self.E, self.x1, self.r1, self.curves)

    @cached_property
    def n_coeffs(self) -> tuple[tuple[str, Poly], ...]:
        return tuple((c.label, Poly([Fraction(a, self.r0), Fraction(b, self.r1)]))
                     for c, a, b in zip(self.curves, self.x0, self.x1))


@dataclass(frozen=True)
class VolumeProfile:
    """Piecewise-quadratic vol(L - tE) with chamber data and threshold tau.

    ``L2`` is L . L and ``S`` the normalized integral (1/L^2) * int_0^tau vol,
    computed on first read.
    """

    profile: PiecewisePoly
    tau: Rat
    chambers: tuple[Chamber, ...]
    L2: Rat

    @cached_property
    def S(self) -> Rat:
        return self.profile.integrate(0, self.tau) / self.L2


def volume_profile(m: SurfaceModel, L: DivClass, E: DivClass) -> VolumeProfile:
    """Exact profile of vol(L - tE) for L big and nef, E effective and prime.

    Chamber walls are roots of the linear functions t -> P(t) . C over the
    catalogued generators; the walk ends at the pseudoeffective threshold,
    where the (at most quadratic) volume piece vanishes.

    The walk runs on integers.  L . C_k and E . C_k are read once per walk
    as integer numerators from the cached curve vectors, and L is nef when
    no L . C_k numerator is negative.  In a chamber with
    support S, the one support kernel gives the coefficients x_i = a_i + b_i t
    and P_const . C_k = L . C_k - sum a_i C_i . C_k and P_slope . C_k =
    -E . C_k - sum b_i C_i . C_k, each over one denominator.  Each curve gets
    one integer line a + b t: a positive multiple of P(t) . C_k off the
    support and of x_i(t) on it.  One test, ``_cross``, moves the curves
    whose lines are negative just after t across, both at the chamber's start
    and at its wall, and one loop over the falling lines finds the nearest
    wall.  As P(t) . C_i = 0 on the support, vol = P(t) . (L - tE), so a
    chamber makes no ``intersect`` call.  Fractions are built only for a
    chamber's bounds and volume piece and for the chosen wall.
    """
    curves = m.neg_curves
    if not curves:
        raise ModelInvariantError(f"{m.name}: no cone generators to test against")
    l_den, l_dot = _pair_numerators(L, *m._curve_vectors)  # L . C_k = l_dot[k] / l_den
    if any(v < 0 for v in l_dot):
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
    ee = m.intersect(E, E)

    e_den, e_dot = _pair_numerators(E, *m._curve_vectors)  # E . C_k = e_dot[k] / e_den
    pairings = [(l_den, l_dot), (e_den, [-v for v in e_dot])]  # of L and -E

    support: list[int] = []  # indices into neg_curves, in entry order
    t_cur = Fraction(0)
    chambers: list[Chamber] = []

    for _ in range(2 * len(curves) + 6):
        # a_i = x0[i] / r0 and b_i = x1[i] / r1; P_const . C_k = pc[k] / dc and
        # P_slope . C_k = ps[k] / ds
        (r0, x0, dc, pc), (r1, x1, ds, ps) = _solve_support(m, support, pairings)
        # one line a + b t per curve: a positive multiple of P(t) . C off the
        # support and of the coefficient x(t) on it
        lines = [(p0 * ds, p1 * dc) for p0, p1 in zip(pc, ps)]
        for k, a, b in zip(support, x0, x1):
            lines[k] = (a * r1, b * r0)
        if (moved := _cross(support, lines, t_cur)) != support:
            support = moved
            continue

        # P(t) = L - tE - sum x_i C_i with P(t) . C_i = 0, so P(t)^2 = P(t) . (L - tE)
        la = Fraction(sum(a * l_dot[k] for k, a in zip(support, x0)), r0 * l_den)
        lb = Fraction(sum(b * l_dot[k] for k, b in zip(support, x1)), r1 * l_den)
        ea = Fraction(sum(a * e_dot[k] for k, a in zip(support, x0)), r0 * e_den)
        eb = Fraction(sum(b * e_dot[k] for k, b in zip(support, x1)), r1 * e_den)
        vol = Poly([l2 - la, ea - lb - 2 * le, ee + eb])

        # the nearest wall is the least root a / -b of a falling line; each
        # lies beyond t_cur, where no falling line is zero or negative
        nearest = None
        for a, b in lines:
            if b < 0 and (nearest is None or a * nearest[1] < nearest[0] * -b):
                nearest = (a, -b)
        next_wall = Fraction(*nearest) if nearest else None

        tau = min((r for r in rational_roots(vol) if r > t_cur), default=None)
        final = tau is not None and (next_wall is None or tau <= next_wall)
        t_end = tau if final else next_wall
        if t_end is None:
            raise ConeDataError(
                f"profile on {m.name} neither vanishes nor meets a wall beyond "
                f"t = {rat_str(t_cur)}; cone data possibly incomplete")

        if not final and vol(t_end) <= 0:
            # the volume must stay positive strictly inside the walk
            raise ConeDataError(
                f"volume vanished inside a chamber of {m.name} at "
                f"t = {rat_str(t_end)}; cone data possibly incomplete")
        chambers.append(Chamber(
            lo=t_cur, hi=t_end, vol=vol, curves=tuple([curves[k] for k in support]),
            L=L, E=E, x0=tuple(x0), r0=r0, x1=tuple(x1), r1=r1))
        if final:
            try:  # the walk's pieces must join continuously
                profile = PiecewisePoly([Fraction(0)] + [ch.hi for ch in chambers],
                                        [ch.vol for ch in chambers])
            except ValueError as exc:
                raise ConeDataError(f"volume profile on {m.name} is not continuous ({exc}); "
                                    "cone data possibly incomplete") from exc
            return VolumeProfile(profile=profile, tau=t_end, chambers=tuple(chambers), L2=l2)
        support = _cross(support, lines, t_end)
        t_cur = t_end
    raise ConeDataError(
        f"chamber walk on {m.name} did not terminate; cone data possibly incomplete")


def _cross(support: list[int], lines: Sequence[tuple[int, int]], t: Rat) -> list[int]:
    """The support just after t.  The curves whose lines a + b s are negative
    just after s = t (negative at t, or zero there and falling) cross: the
    support curves among them leave, and the others enter after the support
    that stays, in ``neg_curves`` order."""
    tn, td = t.numerator, t.denominator
    crossing = {k for k, (a, b) in enumerate(lines)
                if (v := a * td + b * tn) < 0 or (v == 0 and b < 0)}
    return [k for k in support if k not in crossing] + sorted(crossing.difference(support))


def pseff_threshold(m: SurfaceModel, L: DivClass, E: DivClass) -> Rat:
    """Largest t with vol(L - tE) > 0 (= largest pseudoeffective t)."""
    return volume_profile(m, L, E).tau
