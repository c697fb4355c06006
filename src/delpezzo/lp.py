"""Exact rational linear-program feasibility with certificates.

Decides "does x >= 0 with A x = b exist?" by a phase-1 simplex with
Bland's rule (no cycling, no rounding).  On failure it returns a Farkas
certificate y with y.A <= 0 and y.b > 0, which downstream modules
convert into human-checkable certificates (a separating weight vector,
a nef class pairing negatively).

The tableau is fraction-free (Bareiss, Math. Comp. 22 (1968); Edmonds,
J. Res. NBS 71B (1967)):

- The tableau is integral.  The caller passes integer columns: a
  rational column is multiplied by a positive integer first, as
  ``SurfaceModel._curve_vectors`` clears the pairing columns G.C once
  per model.  Here only the right-hand side is cleared, over its least
  denominator.  A positive column scale changes no sign and no
  ratio-test argmin, so Bland's rule takes exactly the pivots of the
  rational simplex on the unscaled columns, and a Farkas vector y keeps
  the signs of y.A_j, so it is one for the rational system too.  The
  artificial identity columns keep scale 1, so the starting basis has
  determinant 1; one common denominator for the whole tableau would
  scale them too and break the exact division below.
- The integer tableau is d times the column-scaled rational tableau,
  where d is the previous pivot (1 at the start), the determinant of
  the current basis.  A pivot p updates every other row, the objective
  row included, to (p*r - f*r_piv) // d, an exact division, and then
  d becomes p.  The ratio test compares by cross-multiplication.
- The pivot loop does integer arithmetic only.  The Farkas y is read
  back as Fractions through d; the artificial columns are unscaled.

The result carries the feasibility, the Farkas vector of an infeasible
system and the number of pivots taken, a deterministic measure of the
work done.  Before it is returned it is re-checked in integers, on the
scaled columns as they were before the pivots: the basic solution x of a
feasible system must satisfy x >= 0 and A x = b, a Farkas vector y must
satisfy y.A_j <= 0 for every column and y.b > 0; ArithmeticError
otherwise.  The check costs O(m n), against O(m n) per pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactnum import Rat, over_one_denominator


@dataclass(frozen=True)
class LPFeasibility:
    """Whether {x >= 0 : a x = b} is nonempty; for an empty one, a Farkas
    vector y with y.a <= 0 and y.b > 0."""

    feasible: bool
    farkas: tuple[Rat, ...] | None
    pivots: int = 0


def eq_feasibility(a: Sequence[Sequence[int]], b: Sequence[Rat]) -> LPFeasibility:
    """Feasibility of {x >= 0 : a x = b}, with a Farkas vector when empty.
    The entries of a are ints: clearing a rational column to integers over
    a positive scale is the caller's job, and leaves the verdict, the
    Farkas vector and the pivots unchanged.  The entries of b are ints or
    Fractions, cleared to integer numerators with ``over_one_denominator``."""
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a) or len(b) != m:
        raise ValueError("shape mismatch in LP")

    _, rhs_nums = over_one_denominator(b)
    signs = [1 if v >= 0 else -1 for v in rhs_nums]
    rows = [[x * sign for x in row] + [0] * m + [v * sign]
            for row, v, sign in zip(a, rhs_nums, signs)]
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
        # The basic column j = basis[i] < n holds u / d, u = rows[i][rhs], in
        # the scaled system: a x = b reads sum_j scaled[k][j] u_j = d scaled[k][n].
        basic = [(j, row[rhs]) for j, row in zip(basis, rows) if j < n]
        if d <= 0 or any(u < 0 for _, u in basic):
            raise ArithmeticError("LP solution fails its check: x >= 0")
        if any(sum(row[j] * u for j, u in basic) != d * row[n] for row in scaled):
            raise ArithmeticError("LP solution fails its check: a x = b")
        return LPFeasibility(True, None, pivots)

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
    return LPFeasibility(False, tuple(y), pivots)


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
