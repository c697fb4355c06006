"""Reference intersection pairing over Fraction entries, kept as a test oracle.

This is the dense pairing that ``SurfaceModel.intersect`` used before it
read an integer Gram matrix: every product of a Gram entry with a
coordinate of the second class is a Fraction operation.
"""

from __future__ import annotations

from fractions import Fraction


def intersect(m, d1, d2) -> Fraction:
    """d1 . d2 on the model m, summed entry by entry."""
    if len(d1) != m.rank or len(d2) != m.rank:
        raise ValueError("rank mismatch in intersection pairing")
    total = Fraction(0)
    for i, a in enumerate(d1.coeffs):
        if a == 0:
            continue
        row = m.gram[i]
        total += a * sum((row[j] * b for j, b in enumerate(d2.coeffs)), Fraction(0))
    return total
