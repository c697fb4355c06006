"""Reference phase-1 simplex over Fraction entries, kept as a test oracle.

This is the straightforward tableau simplex that ``delpezzo.lp`` used
before its fraction-free rewrite: Bland's rule, every entry a Fraction,
rows normalised by the pivot.  It counts its pivots, so a comparison
with ``lp.eq_feasibility`` checks the whole ``LPFeasibility`` result,
the pivot path included.  The engine does not return the solution of a
feasible system; the oracle checks its own basic solution x instead,
x >= 0 and a x = b, so an equal result certifies the feasibility too.
"""

from __future__ import annotations

from fractions import Fraction

from delpezzo.exactnum import rat
from delpezzo.lp import LPFeasibility


def eq_feasibility(a, b) -> LPFeasibility:
    """Feasibility of {x >= 0 : a x = b}, with a Farkas vector when empty."""
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a) or len(b) != m:
        raise ValueError("shape mismatch in LP")

    signs = [1 if rat(bb) >= 0 else -1 for bb in b]
    rows = [[rat(x) * s for x in row] + [Fraction(0)] * m + [rat(bb) * s]
            for row, bb, s in zip(a, b, signs)]
    for i in range(m):
        rows[i][n + i] = Fraction(1)
    basis = [n + i for i in range(m)]

    # Reduced-cost row for  min sum(artificials):  r_j = c_j - sum_i rows[i][j].
    width = n + m + 1
    obj = [Fraction(0)] * width
    for j in range(n + m):
        obj[j] = (Fraction(1) if j >= n else Fraction(0))
        for i in range(m):
            obj[j] -= rows[i][j]
    obj[width - 1] = -sum((row[width - 1] for row in rows), Fraction(0))

    pivots = 0
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        # Ratio test with Bland tie-breaking on the leaving basis index.
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][width - 1] / rows[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise ArithmeticError("phase-1 objective unbounded; inconsistent tableau")
        _, piv = best
        inv = 1 / rows[piv][enter]
        rows[piv] = [x * inv for x in rows[piv]]
        for i in range(m):
            if i != piv and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[piv])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, rows[piv])]
        basis[piv] = enter
        pivots += 1

    z = -obj[width - 1]
    if z == 0:
        x = [Fraction(0)] * n
        for i, bj in enumerate(basis):
            if bj < n:
                x[bj] = rows[i][width - 1]
        assert all(v >= 0 for v in x), "oracle solution has a negative entry"
        assert all(sum((rat(e) * v for e, v in zip(row, x)), Fraction(0)) == rat(bb)
                   for row, bb in zip(a, b)), "oracle solution misses a x = b"
        return LPFeasibility(True, None, pivots)

    # Infeasible: simplex multipliers from artificial reduced costs,
    # mapped back through the row-sign adjustment.
    y = [(Fraction(1) - obj[n + i]) * signs[i] for i in range(m)]
    return LPFeasibility(False, tuple(y), pivots)
