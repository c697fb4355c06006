"""Dense exact linear algebra over the rationals.

Small matrices only (Picard ranks <= 9, Zariski supports, resolution
graphs).  Every linear solve runs on one integer kernel, ``bareiss``: a
fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22 (1968))
that exchanges rows at a zero pivot.  Until the first exchange its pivots
are the leading principal minors, which certify negative definiteness by
Sylvester's criterion (``sylvester_negative_definite``), and the right-hand
sides come out as integer solutions over the last pivot.  ``solve`` clears
a rational system to integers row by row and divides by that pivot; the
engine's own callers run ``bareiss`` on integer data they already hold.  One
symmetric (congruence) elimination, an independent second kernel, gives
the signature for the lattice checks and for re-checking decompositions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exactnum import Rat, over_one_denominator, rat

Matrix = tuple[tuple[Rat, ...], ...]


class SingularMatrixError(ValueError):
    """Raised when a linear solve meets a singular matrix."""


def solve(m: Sequence[Sequence[Rat]], b: Sequence[Rat]) -> list[Rat]:
    """Solve m x = b exactly; raises SingularMatrixError if singular.

    No runtime code calls it: ``pseff_certificate`` takes its nef class
    W = -y straight from the LP's Farkas vector y.  It is kept because the
    benchmark's tracer binds it by name and the tests use it as an oracle,
    until the benchmark's count gate retires it (ROADMAP item 1)."""
    n = len(m)
    if any(len(row) != n for row in m) or len(b) != n:
        raise ValueError("shape mismatch in linear solve")
    rows = [over_one_denominator([rat(x) for x in row] + [rat(bb)])[1]
            for row, bb in zip(m, b)]
    _, d, xs = bareiss([row[:-1] for row in rows], [[row[-1] for row in rows]])
    if d == 0:
        raise SingularMatrixError("singular matrix in exact solve")
    return [Fraction(x, d) for x in xs[0]]


def symmetric_signature(m: Sequence[Sequence[Rat]]) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) eigenvalue signs of a symmetric matrix.

    Symmetric (congruence) elimination: each step pivots on a nonzero
    diagonal entry p, counts its sign and replaces the matrix by the Schur
    complement of p.  When every remaining diagonal entry is 0 but some
    a[i][j] is not, adding row and column j to row and column i makes the
    pivot 2 * a[i][j].  Congruence keeps the inertia (Sylvester's law), so
    the counts are exact.  The input must be symmetric.
    """
    a = [[rat(x) for x in row] for row in m]
    n_plus = n_minus = 0
    while a:
        k = next((i for i, row in enumerate(a) if row[i] != 0), None)
        if k is None:
            pair = next(((i, j) for i, row in enumerate(a)
                         for j, x in enumerate(row) if x != 0), None)
            if pair is None:
                break
            k, j = pair
            a[k] = [x + y for x, y in zip(a[k], a[j])]
            for row in a:
                row[k] += row[j]
        p = a[k][k]
        if p > 0:
            n_plus += 1
        else:
            n_minus += 1
        rest = [i for i in range(len(a)) if i != k]
        schur = []
        for r in rest:
            f = a[r][k] / p
            schur.append([a[r][c] - f * a[k][c] for c in rest])
        a = schur
    return n_plus, n_minus, len(m) - n_plus - n_minus


def is_negative_definite(m: Sequence[Sequence[Rat]]) -> bool:
    """All eigenvalues negative; the empty matrix counts as negative definite
    (empty support)."""
    return symmetric_signature(m) == (0, len(m), 0)


def bareiss(a: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]]
            ) -> tuple[list[int], int, list[list[int]]]:
    """(minors, d, xs) for the square integer matrix a and integer columns rhs.

    Gauss-Jordan elimination, fraction-free: step k keeps row k and replaces
    every other row r by (p * r - f * row_k) // d, where p is the pivot, f
    the row's entry in column k and d the previous pivot (1 at the start).
    The divisions are exact.  A zero pivot is exchanged with the first row
    below it that has a nonzero entry in its column.  Until then the pivot
    of step k is the leading principal minor D_{k+1}: ``minors`` lists D_1,
    D_2, ... up to and including the first zero one.  d is the last pivot,
    +-det(a), or 0 when a is singular; then xs is empty, and otherwise
    xs[j] is the integer vector X with a X = d * rhs[j].
    """
    n = len(a)
    if any(len(row) != n for row in a) or any(len(b) != n for b in rhs):
        raise ValueError("shape mismatch in Bareiss elimination")
    rows = [list(row) + [b[i] for b in rhs] for i, row in enumerate(a)]
    minors: list[int] = []
    d = 1
    for k in range(n):
        if 0 not in minors:
            minors.append(rows[k][k])
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            return minors, 0, []
        rows[k], rows[piv] = rows[piv], rows[k]
        prow, p = rows[k], rows[k][k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = ([(p * x - f * y) // d for x, y in zip(row, prow)] if f
                           else [p * x // d for x in row])
        d = p
    return minors, d, [[row[n + j] for row in rows] for j in range(len(rhs))]


def sylvester_negative_definite(minors: Sequence[int], n: int) -> bool:
    """Sylvester's criterion on the leading principal minors of an n x n
    symmetric matrix, as ``bareiss`` lists them: negative definite exactly
    when (-1)^k D_k > 0 for k = 1..n.  True for n = 0."""
    return len(minors) == n and all((x < 0) == (k % 2 == 0) and x != 0
                                    for k, x in enumerate(minors))
