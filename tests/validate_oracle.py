"""Model construction over Fraction entries, kept as a test oracle.

These are the forms that ``SurfaceModel`` used before its curve vectors
and validation rows went to integers: G.C summed entry by entry as
Fractions and then cleared to one denominator, and a ``validate`` whose
generator loop reads each row of pairings as Fractions and whose del Pezzo
Gram determinant comes from Fraction elimination.
"""

from __future__ import annotations

from fractions import Fraction

from delpezzo.exactnum import over_one_denominator, rat_str
from delpezzo.lattice import _DEL_PEZZO_LINES, DivClass
from delpezzo.linalg import symmetric_signature


def curve_vectors(m) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(q, V) with (G.C)_i = V[i][k] / q for the k-th catalogued curve C."""
    if any(len(c.cls) != m.rank for c in m.neg_curves):
        raise ValueError("rank mismatch in intersection pairing")
    gc = [[sum((g * b for g, b in zip(row, c.cls.coeffs)), Fraction(0))
           for c in m.neg_curves] for row in m.gram]
    q, flat = over_one_denominator([x for row in gc for x in row])
    n = len(m.neg_curves)
    return q, tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(len(gc)))


def determinant(a) -> Fraction:
    """det(a) by Gaussian elimination over Fractions."""
    rows = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for k in range(len(rows)):
        piv = next((r for r in range(k, len(rows)) if rows[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        det *= rows[k][k]
        for r in range(k + 1, len(rows)):
            f = rows[r][k] / rows[k][k]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[k])]
    return det


def validate(m) -> list[str]:
    """The list of invariant violations of m (empty when healthy)."""
    problems: list[str] = []
    n = m.rank
    if len(m.gram) != n or any(len(row) != n for row in m.gram):
        return [f"{m.name}: gram shape does not match rank {n}"]
    # a class of the wrong length is refused before anything else is read
    wrong = ["canonical class"] if len(m.canonical) != n else []
    wrong += [f"named divisor {name}" for name, d in m.named_divisors.items() if len(d) != n]
    wrong += [f"curve {c.label}" for c in m.neg_curves if len(c.cls) != n]
    wrong += [f"boundary part {b.label}" for b in m.boundary if len(b.cls) != n]
    if wrong:
        return [f"{m.name}: {what} has wrong length" for what in wrong]
    for i in range(n):
        for j in range(i + 1, n):
            if m.gram[i][j] != m.gram[j][i]:
                problems.append(f"{m.name}: gram not symmetric at ({i},{j})")
    if not problems:
        sig = symmetric_signature(m.gram)
        if sig != (1, n - 1, 0):
            problems.append(f"{m.name}: gram signature {sig} is not (1, {n - 1}, 0)")
    # each name has one class: a basis label its unit class, then the named
    # divisors, the generators and the boundary parts
    entries = [(label, DivClass(tuple(Fraction(int(j == i)) for j in range(n))))
               for i, label in enumerate(m.basis_labels)]
    entries += list(m.named_divisors.items())
    entries += [(c.label, c.cls) for c in m.neg_curves]
    entries += [(b.label, b.cls) for b in m.boundary]
    clashes: list[str] = []
    for i, (name, d) in enumerate(entries):
        if name not in clashes and any(o == name and e != d for o, e in entries[:i]):
            clashes.append(name)
    problems += [f"{m.name}: {name} names two classes" for name in clashes]
    labels = [b.label for b in m.boundary]
    for i, label in enumerate(labels):
        if label not in labels[:i] and label in labels[i + 1:]:
            problems.append(f"{m.name}: boundary part {label} is listed twice")
    if not m.neg_curves:
        problems.append(f"{m.name}: no effective-cone generators listed")
    for i, c in enumerate(m.neg_curves):
        same = [other.label for other in m.neg_curves[:i] if other.cls == c.cls]
        if same:
            problems.append(f"{m.name}: generators {same[0]} and {c.label} have the same class")
    curves = m.neg_curves
    mk = m.minus_k() if m.del_pezzo else None
    mk_dot = [m.intersect(mk, c.cls) for c in curves] if mk is not None else ()
    lines: set[DivClass] = set()
    for i, c in enumerate(curves):
        row = [m.intersect(c.cls, other.cls) for other in curves[i:]]  # from the diagonal on
        sq = row[0]
        if sq > 0 and n > 1:
            problems.append(
                f"{m.name}: generator {c.label} has positive square {sq} "
                "on a rank >= 2 model")
        if mk is not None and sq == -1:
            if mk_dot[i] != 1:
                problems.append(f"{m.name}: (-1)-curve {c.label} has -K.C != 1")
            else:
                lines.add(c.cls)
        for other, v in zip(curves[i + 1:], row[1:]):
            if v < 0 and other.cls != c.cls:
                problems.append(
                    f"{m.name}: generators {c.label} and {other.label} "
                    f"pair negatively ({rat_str(v)})")
    if mk is not None:
        degree = m.intersect(mk, mk)
        if degree not in _DEL_PEZZO_LINES:
            problems.append(f"{m.name}: del Pezzo degree {degree} outside 1..9")
        elif (any(x.denominator != 1 for row in m.gram for x in row) or n != 10 - degree
              or abs(determinant(m.gram)) != 1):
            problems.append(
                f"{m.name}: gram is not a unimodular integer matrix of rank "
                f"{10 - degree}, as a del Pezzo surface of degree {degree} has")
        else:
            want, kind = _DEL_PEZZO_LINES[degree], ""
            if degree == 8:
                odd = any(m.gram[i][i] % 2 for i in range(n))
                want = 1 if odd else 0
                kind = " with an odd lattice" if odd else " with an even lattice"
            if len(lines) != want:
                problems.append(
                    f"{m.name}: {len(lines)} (-1)-curves listed, a del Pezzo "
                    f"surface of degree {degree}{kind} has {want}")
        # adjunction: a prime divisor has an integral class and arithmetic
        # genus (D^2 + K.D)/2 + 1, a nonnegative integer
        for name, d in m.named_divisors.items():
            v = m.intersect(d, d) + m.intersect(m.canonical, d)
            integral = all(x.denominator == 1 for x in d.coeffs)
            if not (integral and v.denominator == 1 and v % 2 == 0 and v >= -2):
                problems.append(
                    f"{m.name}: named divisor {name} = {m.render(d)} is not "
                    f"the class of a prime divisor (D^2 + K.D = {rat_str(v)})")
    for b in m.boundary:
        if not 0 <= b.coeff < 1:
            problems.append(
                f"{m.name}: boundary coefficient {rat_str(b.coeff)} outside [0,1)")
    return problems
