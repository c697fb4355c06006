"""Dense exact linear algebra over the rationals.

Small matrices only (Picard ranks <= 9, Zariski supports, resolution
graphs), so plain elimination with Fraction entries is both exact and
fast.  Gaussian elimination gives Gram-system solves; one symmetric
(congruence) elimination gives the signature, and with it every
negative-definiteness certificate and lattice signature check.
"""

from __future__ import annotations

from typing import Sequence

from .exactnum import Rat, rat

Matrix = tuple[tuple[Rat, ...], ...]


class SingularMatrixError(ValueError):
    """Raised when a linear solve meets a singular matrix."""


def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(rat(x) for x in row) for row in rows)


def solve(m: Sequence[Sequence[Rat]], b: Sequence[Rat]) -> list[Rat]:
    """Solve m x = b exactly; raises SingularMatrixError if singular."""
    n = len(m)
    if any(len(row) != n for row in m) or len(b) != n:
        raise ValueError("shape mismatch in linear solve")
    a = [[rat(x) for x in row] + [rat(bb)] for row, bb in zip(m, b)]
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
