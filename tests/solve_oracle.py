"""Reference linear solve over Fraction entries, kept as a test oracle.

This is the partial-pivot Gauss-Jordan elimination that ``linalg.solve``
ran before every solve moved to the integer Bareiss kernel: each row
operation is a Fraction operation, so it shares no code with the kernel
it checks.
"""

from __future__ import annotations

from fractions import Fraction

from delpezzo.linalg import SingularMatrixError


def solve(m, b) -> list[Fraction]:
    """Solve m x = b exactly; raises SingularMatrixError if singular."""
    n = len(m)
    if any(len(row) != n for row in m) or len(b) != n:
        raise ValueError("shape mismatch in linear solve")
    a = [[Fraction(x) for x in row] + [Fraction(bb)] for row, bb in zip(m, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("singular matrix in exact solve")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n] for row in a]
