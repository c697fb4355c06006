import itertools
import math
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import git_bruteforce_oracle
from delpezzo.gitcubic import (CONE_PLANE_CUBIC, FERMAT, TRIPLE_A2, CubicForm,
                               OnePS, apply_coordinate_change, barycenter_in_hull,
                               brute_force_destabilizer, catalog_verdicts,
                               hm_weight, torus_destabilizer)

MONOS = [e for e in itertools.product(range(4), repeat=4) if sum(e) == 3]


def test_form_validation():
    with pytest.raises(ValueError):
        CubicForm.from_terms({})
    with pytest.raises(ValueError):
        CubicForm.from_terms({(1, 1, 0, 0): 1})
    with pytest.raises(ValueError):
        OnePS((1, 1, 1, 1))


def test_hm_weight_examples():
    assert hm_weight(FERMAT, OnePS((3, -1, -1, -1))) == -3
    assert hm_weight(FERMAT, OnePS((0, 0, 0, 0))) == 0
    assert hm_weight(TRIPLE_A2, OnePS((1, 1, 1, -3))) == -9


weight_vectors = st.tuples(st.integers(-6, 6), st.integers(-6, 6),
                           st.integers(-6, 6)).map(
    lambda w: OnePS((w[0], w[1], w[2], -(w[0] + w[1] + w[2]))))
forms = st.sets(st.sampled_from(MONOS), min_size=1, max_size=8).map(
    lambda s: CubicForm.from_terms({e: F(1) for e in s}))


@given(forms, weight_vectors)
def test_min_pairing_concavity(f, lam):
    neg = OnePS(tuple(-w for w in lam.weights))
    total = hm_weight(f, lam) + hm_weight(f, neg)
    assert total <= 0
    pairings = {sum(w * e for w, e in zip(lam.weights, expo)) for expo in f.support}
    assert (total == 0) == (len(pairings) == 1)


@given(forms, weight_vectors, st.permutations(range(4)))
def test_weight_invariant_under_simultaneous_permutation(f, lam, perm):
    pf = CubicForm.from_terms({tuple(e[perm[i]] for i in range(4)): c
                               for e, c in f.terms})
    plam = OnePS(tuple(lam.weights[perm[i]] for i in range(4)))
    assert hm_weight(f, lam) == hm_weight(pf, plam)


def test_destabilizer_fixed_forms():
    assert torus_destabilizer(FERMAT) is None
    assert torus_destabilizer(TRIPLE_A2) is None
    w = torus_destabilizer(CONE_PLANE_CUBIC)
    assert w is not None and hm_weight(CONE_PLANE_CUBIC, w) > 0
    assert w.weights == (1, 1, 1, -3)


def test_forms_omitting_a_variable_are_unstable():
    rng = random.Random(7)
    for i in range(4):
        sub = [e for e in MONOS if e[i] == 0]
        for _ in range(5):
            supp = rng.sample(sub, rng.randint(1, 6))
            f = CubicForm.from_terms({e: F(rng.randint(1, 4)) for e in supp})
            w = torus_destabilizer(f)
            assert w is not None
            assert hm_weight(f, w) > 0


def test_destabilizer_agrees_with_brute_force_on_100_random_forms():
    rng = random.Random(20250810)
    for i in range(100):
        supp = rng.sample(MONOS, rng.randint(1, 6))
        f = CubicForm.from_terms({e: F(rng.randint(-5, 5) or 1) for e in supp})
        lp_w = torus_destabilizer(f)
        bf_w = brute_force_destabilizer(f)
        assert (lp_w is None) == (bf_w is None), f.format()
        if lp_w is not None:
            assert hm_weight(f, lp_w) > 0


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(MONOS), min_size=1, max_size=8))
def test_lp_witness_is_primitive_verified_and_agrees_with_brute_force(supp):
    f = CubicForm.from_terms({e: F(1) for e in supp})
    w = torus_destabilizer(f)
    assert (w is None) == (brute_force_destabilizer(f) is None), f.format()
    if w is not None:
        assert sum(w.weights) == 0 and math.gcd(*w.weights) == 1
        assert hm_weight(f, w) > 0


@settings(max_examples=200, deadline=None)
@given(forms)
def test_interval_search_matches_the_triple_loop(f):
    assert brute_force_destabilizer(f) == git_bruteforce_oracle.brute_force_destabilizer(f)


# Every monomial has equal z and w exponents, so each one either passes or
# rules out a (w1, w2) pair and none bounds w3.
_FLAT_IN_W3 = CubicForm.from_terms({(3, 0, 0, 0): 1, (2, 1, 0, 0): 1, (1, 0, 1, 1): 1})


@pytest.mark.parametrize("f, witness", [
    (_FLAT_IN_W3, (1, -1, -9, 9)),
    (FERMAT, None),
    (TRIPLE_A2, None),
    (CONE_PLANE_CUBIC, (1, 1, 1, -3)),
], ids=["flat-in-w3", "fermat", "xyz-w3", "cone-plane-cubic"])
def test_interval_search_on_pinned_forms(f, witness):
    got = brute_force_destabilizer(f)
    assert got == git_bruteforce_oracle.brute_force_destabilizer(f)
    assert (got and got.weights) == witness


def test_destabilizer_is_one_lp_and_never_the_brute_force(monkeypatch):
    from delpezzo import gitcubic, lp

    def forbidden(f):
        raise AssertionError("brute force called on the runtime path")

    calls = []
    original = lp.eq_feasibility

    def counted(a, b):
        calls.append(b)
        return original(a, b)

    monkeypatch.setattr(gitcubic, "brute_force_destabilizer", forbidden)
    monkeypatch.setattr(gitcubic.lp, "eq_feasibility", counted)
    rng = random.Random(11)
    forms = [FERMAT, TRIPLE_A2, CONE_PLANE_CUBIC] + [
        CubicForm.from_terms({e: F(1) for e in rng.sample(MONOS, rng.randint(1, 6))})
        for _ in range(20)]
    for f in forms:
        calls.clear()
        torus_destabilizer(f)
        assert len(calls) == 1


@pytest.mark.parametrize("seed", [20250810, 20261017])
def test_reproduce_rows_never_run_the_brute_force(monkeypatch, seed):
    """Every reproduce-paper row passes with the brute force unavailable: the
    GIT row checks the LP's own certificates on its 100 seeded forms."""
    from delpezzo import gitcubic
    from delpezzo.reproduce import run_corpus

    def forbidden(f):
        raise AssertionError("brute force called on the runtime path")

    monkeypatch.setattr(gitcubic, "brute_force_destabilizer", forbidden)
    out = run_corpus(seed)
    assert (out["total"], out["passed"]) == (64, 64)
    (row,) = (r for r in out["rows"] if r["id"] == "git:lp-certificates")
    if seed == 20250810:
        assert row["result"].startswith("68 unstable") and "32 semistable" in row["result"]


def test_a_witness_that_fails_its_check_fails_the_certificate_row(monkeypatch):
    from delpezzo import gitcubic, lp
    from delpezzo.reproduce import run_corpus
    # a Farkas vector whose witness (-3, 1, 1, 1) is negative on any x^3 term
    bogus = lp.LPFeasibility(False, tuple(map(F, (1, 0, 0, 0, 0))))
    monkeypatch.setattr(gitcubic.lp, "eq_feasibility", lambda a, b: bogus)
    rows = {r["id"]: r for r in run_corpus(20250810, section=6)["rows"]}
    row = rows["git:lp-certificates"]
    assert row["status"] == "FAIL"
    assert row["result"].startswith("error: Farkas witness (-3, 1, 1, 1)")


def test_membership_matches_destabilizer_absence():
    for f in (FERMAT, TRIPLE_A2, CONE_PLANE_CUBIC):
        assert barycenter_in_hull(f) == (brute_force_destabilizer(f) is None)


def _sympy_substitute(f: CubicForm, matrix):
    xs = sympy.symbols("x y z w")
    expr = sum(sympy.Rational(c.numerator, c.denominator)
               * xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2] * xs[3] ** e[3]
               for e, c in f.terms)
    subs = {xs[i]: sum(sympy.Rational(F(matrix[i][j]).numerator,
                                      F(matrix[i][j]).denominator) * xs[j]
                       for j in range(4)) for i in range(4)}
    expanded = sympy.expand(expr.xreplace(subs))
    poly = sympy.Poly(expanded, *xs)
    return {tuple(mono): F(int(sympy.numer(coeff)), int(sympy.denom(coeff)))
            for mono, coeff in poly.terms()}


def test_apply_coordinate_change_identity_and_permutation():
    ident = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert apply_coordinate_change(FERMAT, ident) == FERMAT
    perm = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    assert apply_coordinate_change(FERMAT, perm) == FERMAT


def test_apply_coordinate_change_against_sympy_expansion():
    f = CubicForm.from_terms({(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1,
                              (1, 1, 1, 0): -3, (0, 0, 0, 3): -1})
    m = [[1, 1, 1, 0], [1, -1, 0, 0], [1, 1, -2, 0], [0, 0, 0, 1]]
    got = dict(apply_coordinate_change(f, m).terms)
    assert got == _sympy_substitute(f, m)
    rng = random.Random(99)
    for _ in range(10):
        while True:
            mat = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
            try:
                g = apply_coordinate_change(f, mat)
                break
            except ValueError:
                continue
        assert dict(g.terms) == _sympy_substitute(f, mat)


def test_apply_coordinate_change_rejects_singular():
    sing = [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(ValueError):
        apply_coordinate_change(FERMAT, sing)
    # rational rows, the third the sum of the first two halved
    sing = [[0, "1/2", 1, 0], [2, 0, "1/3", 0], [1, "1/4", "2/3", 0], [0, 0, 0, 5]]
    with pytest.raises(ValueError, match="coordinate change must be invertible"):
        apply_coordinate_change(FERMAT, sing)
    # a zero leading entry needs a row exchange, not a refusal
    swap = [[0, "1/2", 0, 0], ["2/3", 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    assert dict(apply_coordinate_change(FERMAT, swap).terms) == _sympy_substitute(FERMAT, swap)


def test_catalog_verdicts_recomputed():
    table = catalog_verdicts()
    by_name = {row["name"]: row for row in table}
    assert by_name["fermat"]["torus_verdict"] == "torus-semistable"
    assert by_name["xyz-w3"]["torus_verdict"] == "torus-semistable"
    assert by_name["xyz-w3"]["flag"] == "strictly semistable in literature"
    cone = by_name["cone-plane-cubic"]
    assert cone["torus_verdict"] == "torus-unstable"
    assert F(cone["witness_weight"]) > 0
