"""Reference (-1)-curve enumeration, kept as a test oracle.

This is the search that ``delpezzo.lattice.enumerate_neg_curves`` used
before it became one ordered recursion: it enumerates multisets
d_1 >= ... >= d_k under the same bounds and Cauchy-Schwarz prune, expands
each into all of its permutations and dedupes them in a set, then sorts
canonically.
"""

from __future__ import annotations

import itertools

from delpezzo.lattice import DivClass


def enumerate_neg_curves(k: int, c0_bound: int = 6) -> list[DivClass]:
    if not 0 <= k <= 8:
        raise ValueError("k must lie in 0..8")
    sols: list[tuple[int, ...]] = []
    for c0 in range(0, c0_bound + 1):
        want_sum = 1 - 3 * c0       # sum of E-coefficients
        want_sq = c0 * c0 + 1       # sum of squares of E-coefficients

        # Enumerate multisets d_1 >= d_2 >= ... >= d_k, then expand.
        def rec(pos: int, prev: int, rem_sum: int, rem_sq: int, acc: list[int]):
            if pos == k:
                if rem_sum == 0 and rem_sq == 0:
                    sols.extend((c0,) + p for p in set(itertools.permutations(acc)))
                return
            slots = k - pos
            for d in range(min(prev, 1), -(c0 + 2), -1):
                sq = d * d
                if sq > rem_sq:
                    if d > 0:
                        continue
                    break
                ns, nq = rem_sum - d, rem_sq - sq
                # Cauchy-Schwarz prune: remaining sum must be achievable.
                if slots > 1 and ns * ns > (slots - 1) * nq:
                    continue
                if slots == 1 and (ns != 0 or nq != 0):
                    continue
                rec(pos + 1, d, ns, nq, acc + [d])
        rec(0, 1, want_sum, want_sq, [])
    sols = sorted(set(sols), key=lambda s: (s[0], tuple(-d for d in s[1:])))
    return [DivClass.of(s) for s in sols]
