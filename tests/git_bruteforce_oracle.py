"""Bounded torus search by the full triple loop, kept as a test oracle.

This is the enumeration that ``gitcubic.brute_force_destabilizer`` ran
before it intersected one interval of w3 per (w1, w2): every weight
vector with entries within ``WEIGHT_BOUND`` is tried in lexicographic
order, so a comparison checks the whole witness, not only the decision.
"""

from __future__ import annotations

from delpezzo.gitcubic import WEIGHT_BOUND, CubicForm, OnePS


def brute_force_destabilizer(f: CubicForm) -> OnePS | None:
    """First weight vector (lexicographic, entries within WEIGHT_BOUND) that
    is strictly positive on the whole support."""
    supp = f.support
    rng = range(-WEIGHT_BOUND, WEIGHT_BOUND + 1)
    for w1 in rng:
        for w2 in rng:
            for w3 in rng:
                w4 = -(w1 + w2 + w3)
                if abs(w4) > WEIGHT_BOUND or (w1 == w2 == w3 == 0 and w4 == 0):
                    continue
                ws = (w1, w2, w3, w4)
                if all(sum(w * e for w, e in zip(ws, expo)) > 0 for expo in supp):
                    return OnePS(ws)
    return None
