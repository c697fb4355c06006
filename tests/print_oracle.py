"""Reference printers for exact signed sums, kept as a test oracle.

These are the three printers that ``SurfaceModel.render``, ``Poly.format``
and ``CubicForm.format`` each carried before they shared
``delpezzo.exactnum.combination_str``, copied as they were and taking the
data their methods read from ``self``.  A comparison with the methods checks
the merged printer against each of them.
"""

from __future__ import annotations

from typing import Sequence

from delpezzo.exactnum import Rat, rat_str

VARS = ("x", "y", "z", "w")


def render(coeffs: Sequence[Rat], basis_labels: Sequence[str]) -> str:
    """A divisor class in the model's basis labels."""
    parts = []
    for c, lab in zip(coeffs, basis_labels):
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else rat_str(abs(c)) + "*"
        parts.append(("- " if c < 0 else "+ ") + mag + lab)
    if not parts:
        return "0"
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


def poly_format(coeffs: Sequence[Rat], var: str = "t") -> str:
    """A univariate polynomial, coefficients lowest degree first."""
    if not coeffs:
        return "0"
    parts = []
    for k in reversed(range(len(coeffs))):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            term = rat_str(abs(c))
        else:
            mag = "" if abs(c) == 1 else rat_str(abs(c)) + "*"
            term = f"{mag}{var}" + (f"^{k}" if k > 1 else "")
        parts.append(("- " if c < 0 else "+ ") + term)
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


def cubic_format(terms: Sequence[tuple[tuple[int, int, int, int], Rat]]) -> str:
    """A cubic form, given as its (exponent, nonzero coefficient) terms."""
    parts = []
    for expo, c in terms:
        mono = "".join(
            (v if e == 1 else f"{v}^{e}") for v, e in zip(VARS, expo) if e)
        if abs(c) == 1:
            term = mono
        else:
            term = f"{rat_str(abs(c))}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + term)
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]
