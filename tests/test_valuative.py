import dataclasses
from fractions import Fraction as F
from itertools import permutations
from math import gcd

import name_oracle
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from delpezzo.azflag import builtin_flags, semistable_via_flags
from delpezzo.catalog import builtin_names, get_model, validate_links
from delpezzo.lattice import DivClass, GraphVertex, LabeledCurve, StrictTransform
from delpezzo.valuative import (DivisorSpecError, PlaneCurveGerm, ResolutionGraph,
                                beta_report, classify, degenerate_edge, diagonal_parameter,
                                discrepancies, invariants, lct_n_lines, lct_newton,
                                named_graph, resolve_divisor_spec, unstable_certificate)


def test_discrepancy_examples():
    assert discrepancies(named_graph("quadric-cone")) == [0]
    assert discrepancies(named_graph("elliptic-cone")) == [-1]
    for n in range(1, 7):
        assert discrepancies(named_graph(f"rnc-cone:{n}")) == [F(2 - n, n)]


def test_discrepancies_satisfy_adjunction_system():
    for spec in ("quadric-cone", "elliptic-cone", "rnc-cone:4", "An:5",
                 "rnc-cone:3+ruling", "cone-genus:2"):
        g = named_graph(spec)
        a = discrepancies(g)
        mat = g.intersection_matrix()
        for j, v in enumerate(g.vertices):
            lhs = sum(a[i] * mat[i][j] for i in range(len(a)))
            rhs = F(2 * v.genus - 2 - v.self_int)
            for stt in g.strict_transforms:
                for i, mult in stt.incidences:
                    if i == j:
                        rhs += stt.coeff * mult
            assert lhs == rhs, spec


def test_discrepancies_reject_indefinite_matrix():
    g = ResolutionGraph.from_dict({
        "vertices": [{"label": "A", "genus": 0, "self_int": -1},
                     {"label": "B", "genus": 0, "self_int": -1}],
        "edges": [[0, 1, 2]],
    })
    with pytest.raises(ValueError):
        discrepancies(g)


def test_classification_corpus():
    assert classify(named_graph("quadric-cone")).kind == "canonical"
    assert classify(named_graph("elliptic-cone")).kind == "lc"
    assert classify(named_graph("elliptic-cone")).min_discrepancy == -1
    got = classify(named_graph("cone-genus:2"))
    assert got.kind == "not-lc" and got.min_discrepancy == -3
    for n in range(1, 6):
        assert classify(named_graph(f"An:{n}")).kind == "canonical"
    assert classify(named_graph("rnc-cone:3")).kind == "klt"
    # cone with its ruling at full coefficient: plt but not klt
    assert classify(named_graph("rnc-cone:2+ruling")).kind == "plt-boundary"


def test_lct_corpus():
    germ = PlaneCurveGerm.from_terms
    assert lct_newton(germ({(0, 2): 1, (3, 0): -1})) == F(5, 6)
    assert lct_newton(germ({(1, 1): 1})) == 1
    assert lct_newton(germ({(0, 2): 1, (4, 0): -1})) == F(3, 4)
    for n in range(3, 9):
        assert lct_newton(germ({(0, 2): 1, (n, 0): -1})) == min(F(1), F(n + 2, 2 * n))
    assert [lct_n_lines(n) for n in range(1, 7)] == \
        [1, 1, F(2, 3), F(1, 2), F(2, 5), F(1, 3)]


def test_lct_brute_force_weight_oracle():
    # lct = min over positive weights of |w|_1 / mult_w, capped at 1
    def oracle(support):
        best = F(1)
        for w1 in range(1, 11):
            for w2 in range(1, 11):
                mult = min(w1 * i + w2 * j for i, j in support)
                best = min(best, F(w1 + w2, mult))
        return best

    cases = [
        {(0, 2): 1, (3, 0): 1},
        {(1, 1): 1},
        {(0, 2): 1, (4, 0): 1},
        {(2, 0): 1, (0, 2): 1},
        {(5, 0): 1, (0, 5): 1},
        {(3, 0): 1, (1, 2): 1},
        {(6, 0): 1, (2, 2): 1, (0, 6): 1},
    ]
    for terms in cases:
        germ = PlaneCurveGerm.from_terms(terms)
        assert lct_newton(germ) == oracle(germ.support)


def test_lct_invariances():
    germ = PlaneCurveGerm.from_terms({(0, 2): F(7, 3), (3, 0): -5})
    assert lct_newton(germ) == F(5, 6)  # coefficient scaling is irrelevant
    # exponent dilation scales the diagonal parameter linearly
    for k in (2, 3):
        dil = PlaneCurveGerm.from_terms({(k * i, k * j): 1 for (i, j) in germ.support})
        assert diagonal_parameter(dil) == k * diagonal_parameter(germ)


def test_germ_validation():
    with pytest.raises(ValueError):
        PlaneCurveGerm.from_terms({})
    with pytest.raises(ValueError):
        PlaneCurveGerm.from_terms({(0, 0): 1, (1, 0): 1})


@given(st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=6)
       .filter(lambda s: (0, 0) not in s))
def test_lct_at_most_one(support):
    germ = PlaneCurveGerm.from_terms({k: F(1) for k in support})
    if degenerate_edge(germ) is not None:  # e.g. 1 + u + u^3 + u^4 = (1 + u)^2 (1 - u + u^2)
        with pytest.raises(ArithmeticError):
            lct_newton(germ)
        return
    value = lct_newton(germ)
    assert 0 < value <= 1


def _edge_discriminants(terms):
    """{(first, last point): sympy discriminant of the edge polynomial} for each
    compact edge of the Newton polygon of sum c x^i y^j, found as the face
    where w . p is least for a weight w > 0 normal to two support points."""
    u = sympy.Symbol("u")
    found = {}
    for (i, j), (k, l) in permutations(terms, 2):
        if i < k and j > l:
            w = (j - l, k - i)
            least = min(w[0] * a + w[1] * b for a, b in terms)
            if w[0] * i + w[1] * j == least:
                face = sorted(p for p in terms if w[0] * p[0] + w[1] * p[1] == least)
                (i0, _), (i1, _) = face[0], face[-1]
                step = (i1 - i0) // gcd(i1 - i0, face[0][1] - face[-1][1])
                q = sum(sympy.Rational(terms[p].numerator, terms[p].denominator)
                        * u ** ((p[0] - i0) // step) for p in face)
                found[(face[0], face[-1])] = sympy.discriminant(q, u)
    return found


@st.composite
def _germ_terms(draw):
    """Terms of (a_1 x^p + b_1 y^q) ... (a_k x^p + b_k y^q) plus a few other
    monomials: factors that repeat make a degenerate edge often."""
    x, y = sympy.symbols("x y")
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coeff = st.sampled_from([1, -1, F(1, 2)])
    f = sympy.Integer(1)
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(coeff), draw(coeff)
        f *= sympy.Rational(a.numerator, a.denominator) * x ** p + b * y ** q
    for i, j in draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7))
                              .filter(lambda e: e != (0, 0)), max_size=2)):
        f += draw(st.sampled_from([1, -1, 3])) * x ** i * y ** j
    terms = {e: F(int(c.p), int(c.q)) for e, c in sympy.Poly(sympy.expand(f), x, y).terms()}
    assume(terms)
    return terms


@settings(max_examples=120, deadline=None)
@given(_germ_terms())
def test_germ_is_degenerate_exactly_when_an_edge_discriminant_vanishes(terms):
    germ = PlaneCurveGerm.from_terms(terms)
    discriminants = _edge_discriminants(terms)
    edge = degenerate_edge(germ)
    assert (edge is not None) == (0 in discriminants.values())
    if edge is not None:
        assert discriminants[edge] == 0
        with pytest.raises(ArithmeticError, match="Newton-degenerate"):
            lct_newton(germ)
    else:
        assert lct_newton(germ) == min(F(1), 1 / diagonal_parameter(germ))


def test_A_values():
    assert invariants(get_model("P2"), "exceptional:pt").A == 2
    for c in (F(0), F(1, 4), F(1, 2)):
        pair = get_model(f"P(1,1,2)+{c}Q" if c else "P(1,1,2)+0Q")
        assert invariants(pair, "Q").A == 1 - c
        assert invariants(pair, "exceptional").A == 1
    for n in range(2, 7):
        assert invariants(get_model(f"P(1,1,{n})"), "exceptional").A == F(2, n)


# Every built-in model with a link, and pairs over a cone, whose link's
# target pair carries the boundary.
_LINKED = [(name, kind) for name in builtin_names() + [f"P(1,1,2)+{c}Q" for c in
                                                         ("0", "1/4", "1/2", "3/4")]
           for kind in ("blowup", "resolution")
           if getattr(get_model(name), kind) is not None]


def test_the_linked_models_are_the_expected_ones():
    assert sorted(name for name, _ in _LINKED) == sorted(
        [f"dP{d}" for d in range(2, 10)] + ["P1xP1"] + [f"P(1,1,{n})" for n in range(2, 7)]
        + [f"P(1,1,2)+{c}Q" for c in ("0", "1/4", "1/2", "3/4")])


@pytest.mark.parametrize("name, kind", _LINKED)
def test_link_discrepancy_is_the_adjunction_solve_of_its_one_vertex_graph(name, kind):
    # The graph of E has E^2 read on the target and the genus g that adjunction
    # gives, 2g - 2 = E^2 + K_Y.E, and each boundary part of the target pair
    # meets E as a strict transform (coefficient c, incidence B~.E); so the
    # adjunction solve of ``discrepancies`` carries the boundary term too.
    m = get_model(name)
    link = getattr(m, kind)
    target = get_model(link.target)
    e, A = link.extracted(target)
    assert e == target.curve(link.exceptional_label)
    sq, ke = target.intersect(e, e), target.intersect(target.canonical, e)
    genus = (sq + ke + 2) / 2
    meets = [target.intersect(b.cls, e) for b in target.boundary]
    assert genus.denominator == 1 and sq.denominator == 1
    assert all(x.denominator == 1 for x in meets)
    graph = ResolutionGraph(
        (GraphVertex(link.exceptional_label, int(genus), int(sq)),),
        strict_transforms=tuple(StrictTransform(b.coeff, ((0, int(x)),))
                                for b, x in zip(target.boundary, meets)))
    assert A == 1 + discrepancies(graph)[0]
    # A = 2 for a point blow-up, and 2/n for e on F_n over P(1,1,n) (e^2 = -n)
    if kind == "blowup":
        assert invariants(m, "exceptional:pt").A == 2
    else:
        assert invariants(m, "exceptional").A == 2 / -sq


def test_S_values():
    assert invariants(get_model("P2"), "exceptional:pt").S == 2
    assert invariants(get_model("dP3"), "anticanonical-curve").S == F(1, 3)
    for c in (F(0), F(1, 2), F(3, 4)):
        pair = get_model(f"P(1,1,2)+{c}Q" if c else "P(1,1,2)+0Q")
        assert invariants(pair, "exceptional").S == F(2, 3) * (2 - c)


def test_beta_examples():
    assert invariants(get_model("P2"), "exceptional:pt").beta == 0
    assert invariants(get_model("F1"), "E1").beta == F(-1, 6)
    rep = beta_report(get_model("F1"), "E1")
    assert rep["S"] == F(7, 6) and rep["delta"] == F(6, 7)
    for c in (F(0), F(1, 4), F(1, 2), F(3, 4)):
        pair = get_model(f"P(1,1,2)+{c}Q" if c else "P(1,1,2)+0Q")
        assert invariants(pair, "Q").beta == (1 - 2 * c) / 3
        assert invariants(pair, "exceptional").beta == (2 * c - 1) / 3
    assert invariants(get_model("P2"), "exceptional:pt").delta == 1


def test_beta_model_independence():
    # same pair presented on the cone and on its resolution
    pair = get_model("P(1,1,2)+1/2Q")
    f2pair = get_model("F2~P(1,1,2)+1/2Q")
    assert invariants(pair, "Q").S == invariants(f2pair, "Q").S == F(1, 2)
    # the ruling pulls back to f + e/2 on the resolution side
    ruling_up = DivClass.of([F(1, 2), 1])
    assert invariants(pair, "ruling").S == invariants(f2pair, ruling_up).S == 1


def _in_new_basis(m, ops):
    """m in the basis whose j-th class is sum_i P[i][j] * (old class i), for P
    the product of the elementary matrices I + a*e_ij listed in ``ops``: the
    Gram becomes P^T G P, a class v becomes P^-1 v, and the blow-up link's
    pullback M becomes M P.  The basis labels are renamed B0, B1, ..."""
    n = m.rank
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    P_inv = [row[:] for row in P]
    for i, j, a in ops:
        for row in P:  # P (I + a e_ij): column j gains a times column i
            row[j] += a * row[i]
        P_inv[i] = [x - a * y for x, y in zip(P_inv[i], P_inv[j])]  # (I - a e_ij) P^-1

    def new(v):
        return DivClass(tuple(F(sum(r[c] * v.coeffs[c] for c in range(n))) for r in P_inv))

    def times_p(rows):
        return tuple(tuple(F(sum(row[k] * P[k][c] for k in range(n))) for c in range(n))
                     for row in rows)

    gram = times_p(tuple(zip(*times_p(m.gram))))  # (G P)^T P = P^T G P, G symmetric
    return dataclasses.replace(
        m, basis_labels=tuple(f"B{i}" for i in range(n)), gram=gram,
        canonical=new(m.canonical),
        neg_curves=tuple(LabeledCurve(c.label, new(c.cls)) for c in m.neg_curves),
        named_divisors={k: new(v) for k, v in m.named_divisors.items()},
        blowup=dataclasses.replace(m.blowup, pullback=times_p(m.blowup.pullback)))


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_beta_is_invariant_under_a_unimodular_change_of_basis(data):
    m = get_model(f"dP{data.draw(st.integers(4, 7))}")
    pairs = st.tuples(st.integers(0, m.rank - 1), st.integers(0, m.rank - 1)).filter(
        lambda ij: ij[0] != ij[1])
    ops = data.draw(st.lists(st.tuples(pairs, st.integers(-2, 2)).map(lambda p: (*p[0], p[1])),
                             min_size=1, max_size=4))
    moved = _in_new_basis(m, ops)
    assert moved.validate() == [] and validate_links(moved) == []
    for spec in [c.label for c in m.neg_curves] + ["exceptional:pt"]:
        assert invariants(moved, spec).beta == invariants(m, spec).beta, spec


def test_unstable_certificates():
    dp7 = get_model("dP7")
    assert unstable_certificate(dp7, dp7.beta_candidates) == ("L12", F(-4, 21))
    assert unstable_certificate(dp7, ["E1", "L12"]) == ("E1", F(-2, 21))
    assert unstable_certificate(get_model("P2"), ["exceptional:pt", "line"]) is None
    got = unstable_certificate(get_model("P(1,1,2)"), ["exceptional"])
    assert got == ("exceptional", F(-1, 3))


def test_a_raw_class_certifies_no_instability():
    # H - E1 - E2 on dP7 is the class of the line L12 (beta -4/21), and E1 - E2
    # on dP5 is not effective (beta -2/15): read with A = 1, neither certifies.
    dp7 = get_model("dP7")
    assert unstable_certificate(dp7, ["H - E1 - E2", "E1"]) == ("E1", F(-2, 21))
    assert unstable_certificate(get_model("dP5"), ["E1 - E2"]) is None
    dp8 = dataclasses.replace(get_model("dP8"), beta_candidates=("2E1 - E1",))
    assert invariants(dp8, "2E1 - E1").beta == F(-1, 6)
    rep = semistable_via_flags(dp8, builtin_flags(dp8))
    assert rep.destabilizer is None and rep.bounds == (("generic", F(6, 7)),)


def test_unknown_divisor_spec():
    with pytest.raises(DivisorSpecError):
        invariants(get_model("P2"), "nonsense")
    with pytest.raises(DivisorSpecError):
        invariants(get_model("P2"), "exceptional")   # no resolution link on a smooth plane


def test_unusable_keyword_reports_its_cause():
    with pytest.raises(DivisorSpecError, match="^dP9 has no catalogued resolution$"):
        invariants(get_model("P2"), "exceptional")
    with pytest.raises(DivisorSpecError, match="^dP1 has no catalogued point blow-up$"):
        invariants(get_model("dP1"), "exceptional:pt")


def test_divisor_expression_spec_is_its_raw_class():
    dp7 = get_model("dP7")
    got = invariants(dp7, "3H - E1 - E2")
    raw = invariants(dp7, DivClass.of([3, -1, -1]))
    assert got.divisor == raw.divisor and got.divisor.kind == "raw"
    assert (got.A, got.S, got.beta) == (raw.A, raw.S, raw.beta) == (1, F(1, 3), F(2, 3))


@pytest.mark.parametrize("pair, beta, tau", [
    ("", F(-1, 3), 4), ("+1/4Q", F(-1, 6), F(7, 2)), ("+1/2Q", 0, 3)],
    ids=("c=0", "c=1/4", "c=1/2"))
def test_f2_fibre_matches_the_ruling_of_the_cone(pair, beta, tau):
    # The fibre f of F2 is the strict transform of a ruling through the
    # vertex of P(1,1,2), so the two divisors have the same A, S and beta.
    up = invariants(get_model("F2~P(1,1,2)" + pair), "f")
    down = invariants(get_model("P(1,1,2)" + pair), "ruling")
    assert (up.A, up.S, up.beta) == (down.A, down.S, down.beta)
    assert up.beta == beta and up.profile.tau == tau


def test_terminal_classification_reachable():
    # contracting a (-1)-curve to a smooth point: a = 1, capped minimum 1
    got = classify(named_graph("rnc-cone:1"))
    assert got.kind == "terminal" and got.min_discrepancy == 1


def test_closed_form_integral_oracles_for_destabilizers():
    # independent antiderivative route for the headline S-values
    from delpezzo.exactnum import Poly
    s_f1 = Poly([8, -2, -1]).integrate(0, 2) / 8          # 9 - (1+t)^2 over [0,2]
    assert s_f1 == F(7, 6) == invariants(get_model("F1"), "E1").S
    two_chamber = Poly([7, -2, -1]).integrate(0, 1) + Poly([9, -6, 1]).integrate(1, 3)
    assert two_chamber / 7 == F(25, 21) == invariants(get_model("dP7"), "Ltilde").S


def test_S_is_profile_integral_over_L_squared():
    for name, spec in (("P2", "exceptional:pt"), ("dP7", "Ltilde"), ("dP3", "E1"),
                       ("P(1,1,2)+1/2Q", "Q"), ("P(1,1,3)", "exceptional")):
        inv = invariants(get_model(name), spec)
        rd, prof = inv.divisor, inv.profile
        integral = sum((piece.integrate(lo, hi) for piece, lo, hi in zip(
            prof.profile.pieces, prof.profile.breakpoints, prof.profile.breakpoints[1:])),
            F(0))
        assert inv.S == integral / rd.work.intersect(rd.L, rd.L), (name, spec)
        assert inv.beta == inv.A - inv.S and inv.delta == inv.A / inv.S


def test_diagonal_parameter_fuzz_against_weight_grid():
    # with exponents <= 8, every polygon edge normal has entries <= 8, so a
    # 0..16 weight grid evaluates the defining maximum exactly
    import random
    rng = random.Random(31337)
    for _ in range(500):
        k = rng.randint(1, 6)
        support = set()
        while len(support) < k:
            pt = (rng.randint(0, 8), rng.randint(0, 8))
            if pt != (0, 0):
                support.add(pt)
        germ = PlaneCurveGerm.from_terms({p: F(1) for p in support})
        best = F(0)
        for w1 in range(17):
            for w2 in range(17):
                if w1 == w2 == 0:
                    continue
                mult = min(w1 * i + w2 * j for i, j in support)
                best = max(best, F(mult, w1 + w2))
        assert diagonal_parameter(germ) == best, sorted(support)


_NAMED_MODELS = (builtin_names()
                 + [f"{base}+{c}Q" for n in range(2, 7)
                    for base in (f"P(1,1,{n})", f"F{n}~P(1,1,{n})")
                    for c in ("0", "1/4", "1/2", "3/4")]
                 + ["P(1,2,3)", "P(2,3,5)", "P(1,4,25)"])


def _resolved(resolve, m, name):
    try:
        rd = resolve(m, name)
    except DivisorSpecError as exc:
        return str(exc)
    return rd.label, rd.kind, rd.E, rd.A, rd.L


@pytest.mark.parametrize("name", _NAMED_MODELS)
def test_each_name_resolves_as_the_scans_of_the_model_did(name):
    """The one table of names gives every name the class, kind and A that the
    precedence chain and the boundary scan gave (``name_oracle``)."""
    m = get_model(name)
    names = [*m.basis_labels, *m.named_divisors, *m.curve_labels(),
             *(b.label for b in m.boundary), "K", "-K", "no-such-name"]
    for label in names:
        assert m.named(label) == name_oracle.named(m, label), label
        assert _resolved(resolve_divisor_spec, m, label) == \
            _resolved(name_oracle.resolve, m, label), label
