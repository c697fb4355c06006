"""Exact rational linear-program feasibility with certificates.

Decides "does x >= 0 with A x = b exist?" by a phase-1 simplex with
Bland's rule (no cycling, no rounding).  On failure it returns a Farkas
certificate y with y.A <= 0 and y.b > 0, which downstream modules
convert into human-checkable certificates (a separating weight vector,
a nef class pairing negatively).

The tableau is fraction-free (Bareiss, Math. Comp. 22 (1968); Edmonds,
J. Res. NBS 71B (1967)):

- Each column, the right-hand side included, is multiplied by the LCM
  of its own denominators, so the tableau is integral.  A positive
  column scale changes no sign and no ratio-test argmin, so Bland's
  rule takes exactly the pivots of the rational simplex.  The
  artificial identity columns keep scale 1, so the starting basis has
  determinant 1; one common denominator for the whole tableau would
  scale them too and break the exact division below.
- The integer tableau is d times the column-scaled rational tableau,
  where d is the previous pivot (1 at the start), the determinant of
  the current basis.  A pivot p updates every other row, the objective
  row included, to (p*r - f*r_piv) // d, an exact division, and then
  d becomes p.  The ratio test compares by cross-multiplication.
- The pivot loop does integer arithmetic only.  x and the Farkas y are
  read back as Fractions through d and the column scales.

The result carries the number of pivots taken, a deterministic measure
of the work done.  Before it is returned it is re-checked in integers, on
the scaled columns as they were before the pivots: a solution x must
satisfy x >= 0 and A x = b, a Farkas vector y must satisfy y.A_j <= 0 for
every column and y.b > 0; ArithmeticError otherwise.  The check costs
O(m n), against O(m n) per pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .exactnum import Rat, rat


@dataclass(frozen=True)
class LPFeasibility:
    feasible: bool
    x: tuple[Rat, ...] | None
    farkas: tuple[Rat, ...] | None
    pivots: int = 0


def eq_feasibility(a: Sequence[Sequence[Rat]], b: Sequence[Rat]) -> LPFeasibility:
    """Feasibility of {x >= 0 : a x = b}, with solution or Farkas vector."""
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a) or len(b) != m:
        raise ValueError("shape mismatch in LP")

    a = [[rat(x) for x in row] for row in a]
    b = [rat(v) for v in b]
    scales = [1] * n
    for row in a:
        scales = [lcm(s, x.denominator) for s, x in zip(scales, row)]
    s_rhs = 1
    for v in b:
        s_rhs = lcm(s_rhs, v.denominator)
    signs = [1 if v >= 0 else -1 for v in b]
    rows = [[x.numerator * (s // x.denominator) * sign for x, s in zip(row, scales)]
            + [0] * m + [v.numerator * (s_rhs // v.denominator) * sign]
            for row, v, sign in zip(a, b, signs)]
    for i in range(m):
        rows[i][n + i] = 1
    basis = [n + i for i in range(m)]
    scaled = [row[:n] + row[-1:] for row in rows]  # the columns the result is checked on

    # Reduced-cost row for  min sum(artificials):  r_j = c_j - sum_i rows[i][j];
    # the artificial columns have c_j = 1 and reduced cost 0.
    rhs = n + m
    obj = [-sum(row[j] for row in rows) for j in range(n)] + [0] * m
    obj.append(-sum(row[rhs] for row in rows))
    obj, d, pivots = _phase1(rows, obj, basis)

    if obj[rhs] == 0:
        # x_j = (u / d) * s_j / s_rhs for the basic column j = basis[i] < n,
        # u = rows[i][rhs]: a x = b reads sum_j scaled[k][j] u_j = d scaled[k][n].
        basic = [(j, row[rhs]) for j, row in zip(basis, rows) if j < n]
        if d <= 0 or any(u < 0 for _, u in basic):
            raise ArithmeticError("LP solution fails its check: x >= 0")
        if any(sum(row[j] * u for j, u in basic) != d * row[n] for row in scaled):
            raise ArithmeticError("LP solution fails its check: a x = b")
        x = [Fraction(0)] * n
        for j, u in basic:
            x[j] = Fraction(u * scales[j], d * s_rhs)
        return LPFeasibility(True, tuple(x), None, pivots)

    # Infeasible: simplex multipliers from artificial reduced costs
    # (artificial columns are unscaled), y_i = z_i sign_i / d with
    # z_i = d - obj[n + i].  y.A_j and y.b have the signs of the sums of
    # z_i scaled[i][j] and z_i scaled[i][n].
    z = [d - obj[n + i] for i in range(m)]
    sums = [0] * (n + 1)
    for zi, row in zip(z, scaled):
        if zi:
            sums = [t + zi * x for t, x in zip(sums, row)]
    if d <= 0 or any(t > 0 for t in sums[:n]):
        raise ArithmeticError("LP Farkas vector fails its check: y.A_j <= 0")
    if sums[n] <= 0:
        raise ArithmeticError("LP Farkas vector fails its check: y.b > 0")
    y = [Fraction(zi * sign, d) for zi, sign in zip(z, signs)]
    return LPFeasibility(False, None, tuple(y), pivots)


def _phase1(rows: list[list[int]], obj: list[int], basis: list[int]
            ) -> tuple[list[int], int, int]:
    """Bland pivots on the integer tableau ``rows`` and ``basis``, updated in
    place, until no reduced cost in ``obj`` is negative; returns the final
    objective row, the last pivot d and the number of pivots."""
    m = len(rows)
    rhs = len(obj) - 1
    d = 1
    pivots = 0
    while True:
        enter = next((j for j in range(rhs) if obj[j] < 0), None)
        if enter is None:
            return obj, d, pivots
        # Ratio test with Bland tie-breaking on the leaving basis index.
        piv = None
        for i in range(m):
            e = rows[i][enter]
            if e > 0:
                if piv is None:
                    piv = i
                    continue
                lhs, best = rows[i][rhs] * rows[piv][enter], rows[piv][rhs] * e
                if lhs < best or (lhs == best and basis[i] < basis[piv]):
                    piv = i
        if piv is None:
            raise ArithmeticError("phase-1 objective unbounded; inconsistent tableau")
        prow = rows[piv]
        p = prow[enter]
        for i in range(m):
            if i == piv:
                continue
            f = rows[i][enter]
            if f:
                rows[i] = [(p * x - f * y) // d for x, y in zip(rows[i], prow)]
            elif p != d:
                rows[i] = [p * x // d for x in rows[i]]
        f = obj[enter]
        obj = [(p * x - f * y) // d for x, y in zip(obj, prow)]
        d = p
        basis[piv] = enter
        pivots += 1


def in_cone(generators: Sequence[Sequence[Rat]], target: Sequence[Rat]) -> LPFeasibility:
    """Membership of ``target`` in the cone spanned by ``generators``.

    Generators and target are coordinate vectors of equal length; the
    LP columns are the generators.
    """
    if not generators:
        zero = all(rat(t) == 0 for t in target)
        return LPFeasibility(zero, () if zero else None,
                             None if zero else tuple(rat(t) for t in target))
    dim = len(target)
    a = [[rat(g[i]) for g in generators] for i in range(dim)]
    return eq_feasibility(a, [rat(t) for t in target])
