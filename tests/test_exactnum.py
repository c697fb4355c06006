import random
import sys
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, strategies as st

import print_oracle
from delpezzo.catalog import builtin_names, get_model
from delpezzo.exactnum import (DomainError, PiecewisePoly, Poly, rat, rat_str,
                               rational_roots)
from delpezzo.gitcubic import CubicForm
from delpezzo.lattice import DivClass

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
polys = st.lists(rationals, min_size=0, max_size=5).map(Poly)


def test_rat_parsing_and_rendering():
    assert rat("25/3") == F(25, 3)
    assert rat(7) == 7
    assert rat_str(F(25, 3)) == "25/3"
    assert rat_str(F(-8, 2)) == "-4"


@pytest.mark.parametrize("text, value", [
    ("25/3", F(25, 3)), (" -4/6 ", F(-2, 3)), ("+7", F(7)), ("007/010", F(7, 10)), ("0", F(0)),
])
def test_rat_reads_sign_digits_and_a_denominator(text, value):
    assert rat(text) == value


@pytest.mark.parametrize("text", [
    "1e400000", "1E5", "0.5", ".5", "1/0", "3/00", "1/-2", "1_000", "3 /4", "", "-",
    "/2", "2/", "1/2/3", "inf", "nan", "\u00b2", "\u0663",
])
def test_rat_refuses_every_other_string(text):
    with pytest.raises(ValueError) as err:
        rat(text)
    assert str(err.value) == f"{text!r} is not a rational p/q with a nonzero denominator q"


def test_rat_refuses_more_digits_than_python_converts():
    limit = sys.get_int_max_str_digits()
    assert rat("9" * limit) == 10 ** limit - 1
    assert rat(f"-1/{'9' * limit}") == F(-1, 10 ** limit - 1)
    for text, n in (("9" * 5000, 5000), (f"+1/{'9' * 5000}", 5000), ("0" * limit + "1", limit + 1)):
        with pytest.raises(ValueError) as err:
            rat(text)
        assert str(err.value) == (f"a rational p/q whose p or q has {n} digits is longer "
                                  f"than the limit of {limit} digits")


def test_integrate_headline_values():
    assert Poly([9, 0, -1]).integrate(0, 3) == 18
    assert Poly([]).integrate(F(-5, 2), 7) == 0
    assert Poly([3, -6, 3]).integrate(0, 1) == 1  # 3(1-t)^2


def test_integrate_reversed_bounds_is_domain_error():
    with pytest.raises(DomainError):
        Poly([1]).integrate(1, 0)


def test_eval_examples():
    p = Poly([9, 0, -1])
    assert p(3) == 0
    assert p(0) == 9
    assert Poly([F(9, 2), 0, -2])(0) == F(9, 2)  # 2(9/4 - u^2)


def test_zero_poly_degree_sentinel():
    assert Poly([]).degree == -1
    assert Poly([0, 0]).degree == -1
    assert Poly([0, 1]).degree == 1


def test_trailing_zeros_stripped():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)


def test_piecewise_headline_values():
    p2 = PiecewisePoly([0, 3], [Poly([9, 0, -1])])
    assert p2.integrate(0, 3) == 18
    const = PiecewisePoly([0, 2], [Poly([1])])
    assert const.integrate(0, 2) == 2
    dp7 = PiecewisePoly([0, 1, 3], [Poly([7, -2, -1]), Poly([9, -6, 1])])
    assert dp7.integrate(0, 3) == F(25, 3)


def test_piecewise_domain_errors():
    pp = PiecewisePoly([0, 1], [Poly([1])])
    with pytest.raises(DomainError):
        pp.integrate(0, 2)
    with pytest.raises(DomainError):
        pp(F(3, 2))


def test_piecewise_continuity_enforced():
    with pytest.raises(ValueError):
        PiecewisePoly([0, 1, 2], [Poly([0]), Poly([1])])
    with pytest.raises(ValueError):
        PiecewisePoly([0, 0, 1], [Poly([0]), Poly([0])])


def test_piecewise_report_form():
    pp = PiecewisePoly([0, F(3, 2)], [Poly([F(9, 2), 0, -2])])
    assert pp.to_report() == [{"from": "0", "to": "3/2", "coeffs": ["9/2", "0", "-2"]}]


@given(polys, polys, rationals, rationals)
def test_integration_is_additive_in_the_integrand(p, q, a, b):
    a, b = min(a, b), max(a, b)
    assert (p + q).integrate(a, b) == p.integrate(a, b) + q.integrate(a, b)


@given(polys, rationals, rationals, rationals)
def test_integration_splits_at_midpoints(p, a, b, c):
    a, b, c = sorted((a, b, c))
    assert p.integrate(a, c) == p.integrate(a, b) + p.integrate(b, c)


@given(polys, rationals, rationals, rationals)
def test_integration_is_homogeneous(p, lam, a, b):
    a, b = min(a, b), max(a, b)
    assert (p * lam).integrate(a, b) == lam * p.integrate(a, b)


def _random_piecewise(rng):
    k = rng.randint(1, 4)
    bps = sorted(rng.sample(range(-9, 10), k + 1))
    pieces, prev = [], None
    for j in range(k):
        c2 = F(rng.randint(-5, 5))
        c1 = F(rng.randint(-7, 7), rng.randint(1, 3))
        t = F(bps[j])
        c0 = F(rng.randint(-9, 9)) if prev is None else prev(t) - c1 * t - c2 * t * t
        p = Poly([c0, c1, c2])
        pieces.append(p)
        prev = p
    return PiecewisePoly(bps, pieces)


def test_second_route_sympy_on_50_random_piecewise_quadratics():
    t = sympy.Symbol("t")
    rng = random.Random(1729)
    for _ in range(50):
        pp = _random_piecewise(rng)
        lo, hi = pp.domain
        expected = sympy.Integer(0)
        for i, piece in enumerate(pp.pieces):
            expr = sum(sympy.Rational(c.numerator, c.denominator) * t ** k
                       for k, c in enumerate(piece.coeffs))
            expected += sympy.integrate(
                expr, (t, sympy.Rational(pp.breakpoints[i]),
                       sympy.Rational(pp.breakpoints[i + 1])))
        got = pp.integrate(lo, hi)
        assert sympy.Rational(got.numerator, got.denominator) == expected


def test_rational_roots_quadratic():
    assert rational_roots(Poly([9, 0, -1])) == [-3, 3]
    assert rational_roots(Poly([12, -4])) == [3]
    assert rational_roots(Poly([2, 0, -1])) == []  # irrational pair
    assert rational_roots(Poly([1])) == []


# Coefficients 0 and +-1, which the printers treat apart, and p/q.
_PRINTED = st.one_of(st.sampled_from([F(0), F(1), F(-1)]),
                     st.fractions(min_value=-20, max_value=20, max_denominator=12))
_CUBIC_MONOMIALS = [(a, b, c, 3 - a - b - c) for a in range(4) for b in range(4 - a)
                    for c in range(4 - a - b)]


def test_printer_examples():
    assert Poly([1]).format() == "1"
    assert Poly([0, -1]).format() == "-t"
    assert Poly([-2, 1, F(-3, 4)]).format() == "-3/4*t^2 + t - 2"
    assert Poly([0, 0]).format() == "0"
    dp7 = get_model("dP7")
    assert dp7.render(DivClass.of([0, 0, 0])) == "0"
    assert dp7.render(DivClass.of([-1, F(1, 2), 1])) == "-H + 1/2*E1 + E2"
    cubic = CubicForm.from_terms({(0, 1, 1, 1): -1, (3, 0, 0, 0): F(2, 3), (0, 0, 0, 3): 1})
    assert cubic.format() == "2/3*x^3 - yzw + w^3"


@given(st.lists(_PRINTED, max_size=6))
def test_poly_format_matches_the_reference_printer(coeffs):
    p = Poly(coeffs)
    assert p.format() == print_oracle.poly_format(p.coeffs)


@given(st.sampled_from(builtin_names()), st.data())
def test_render_matches_the_reference_printer(name, data):
    m = get_model(name)
    coeffs = data.draw(st.lists(_PRINTED, min_size=m.rank, max_size=m.rank))
    assert m.render(DivClass(tuple(coeffs))) == print_oracle.render(coeffs, m.basis_labels)


@given(st.dictionaries(st.sampled_from(_CUBIC_MONOMIALS), _PRINTED.filter(bool), min_size=1))
def test_cubic_format_matches_the_reference_printer(terms):
    f = CubicForm.from_terms(terms)
    assert f.format() == print_oracle.cubic_format(f.terms)
