import json
import re
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import div_expr_oracle
import poly_parse_oracle
from delpezzo.catalog import get_model
from delpezzo.lattice import model_from_dict, model_to_dict
from delpezzo.parse import MAX_EXPONENT, POLY_VARS, ParseError, div_from_expr, poly_terms
from delpezzo.report import Report


def test_parse_poly_germs_and_forms():
    assert poly_terms("y^2 - x^3", ("x", "y")) == {(0, 2): 1, (3, 0): -1}
    fermat = poly_terms("x^3+y^3+z^3+w^3")
    assert fermat == {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1,
                      (0, 0, 3, 0): 1, (0, 0, 0, 3): 1}
    assert poly_terms("xyz - w^3") == {(1, 1, 1, 0): 1, (0, 0, 0, 3): -1}
    assert poly_terms("(x + y)^2", ("x", "y")) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert poly_terms("1/2 x y", ("x", "y")) == {(1, 1): F(1, 2)}
    assert poly_terms("-x + x", ("x", "y")) == {}
    assert poly_terms("2(x - y)x", ("x", "y")) == {(2, 0): 2, (1, 1): -2}


def test_parse_poly_errors_are_positioned():
    with pytest.raises(ParseError) as err:
        poly_terms("y^2 - x^")
    assert "column 9" in str(err.value)
    with pytest.raises(ParseError):
        poly_terms("y^2 - x^y")
    with pytest.raises(ParseError):
        poly_terms("x/y")          # division only in rational literals
    with pytest.raises(ParseError):
        poly_terms("x + ")
    with pytest.raises(ParseError):
        poly_terms("x ? y")
    with pytest.raises(ParseError):
        poly_terms("a + b", ("x", "y"))
    for src, column in (("x + q", 5), ("x^2 + y^3 + z", 13)):
        with pytest.raises(ParseError) as err:
            poly_terms(src, ("x", "y"))     # unknown variable, at its own column
        assert f"(column {column})" in str(err.value)


def _outcome(parse, src, variables):
    """The term map with its key order, or the ParseError message."""
    try:
        return list(parse(src, variables).items())
    except ParseError as exc:
        return str(exc)


# Nine characters reach "x^9999999".  The parser refuses an exponent above
# MAX_EXPONENT where it reads it; the oracle would expand it, so it is not
# asked.  Below that bound nine characters keep every power small.
@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="xyzwq0123+-*^()/ ", max_size=9),
       st.sampled_from([("x", "y"), POLY_VARS]))
def test_poly_terms_match_the_tree_oracle(src, variables):
    got = _outcome(poly_terms, src, variables)
    if isinstance(got, str) and got.startswith("exponent "):
        # The second intended difference: the exponent bound.
        e = int(got.split()[1])
        assert e > MAX_EXPONENT and re.search(rf"\^\s*0*{e}(?![0-9])", src)
        return
    want = _outcome(poly_parse_oracle.poly_terms, src, variables)
    if got != want:
        # The one intended difference: an unknown variable under "^0" is
        # refused, where the oracle accepts or names a later unknown variable.
        assert re.search(r"\^\s*0+(?![0-9])", src)
        assert isinstance(got, str) and got.startswith("unknown variable")
        assert isinstance(want, list) or want.startswith("unknown variable")


@pytest.mark.parametrize("src, message", [
    ("x^999999999", "exponent 999999999 exceeds 100 (column 3)"),
    ("(x+y+1)^250", "exponent 250 exceeds 100 (column 9)"),
    ("(x+y+z+w+1)^40", "power may have more than 2000 terms (column 13)"),
    ("(x+y)^40 (x+y)^40 (x+y)^40", "product may have more than 2000 terms (column 19)"),
])
def test_oversized_polynomials_are_refused_before_expanding(src, message):
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        poly_terms(src)
    assert time.perf_counter() - start < 1
    assert str(err.value) == message


@pytest.mark.parametrize("src", ["(1/2 x + 3/5 y - 1)^12 (2/7 x - y)^3",
                                 "(x + 1/3)^5 - (1/3 + x)^5 + 5/6 x y"])
def test_fractional_products_match_the_tree_oracle(src):
    """Integer numerators over one denominator give the Fraction term
    products' map, key order included, with fractional coefficients."""
    got = _outcome(poly_terms, src, ("x", "y"))
    assert got == _outcome(poly_parse_oracle.poly_terms, src, ("x", "y"))
    assert any(v.denominator > 1 for _, v in got)


def test_polynomials_at_the_bounds_parse():
    assert poly_terms("x^100", ("x", "y")) == {(100, 0): 1}
    assert len(poly_terms("(x+y+z+w)^20")) == 1771      # C(23, 3) <= MAX_TERMS


def test_unknown_variable_under_power_zero_is_refused():
    assert poly_parse_oracle.poly_terms("q^0 + x", ("x", "y")) == {(0, 0): 1, (1, 0): 1}
    with pytest.raises(ParseError) as err:
        poly_terms("q^0 + x", ("x", "y"))
    assert str(err.value) == "unknown variable 'q' (allowed: x, y) (column 1)"


def test_first_syntax_error_wins_over_an_unknown_variable():
    with pytest.raises(ParseError) as err:
        poly_terms("q + x^", ("x", "y"))
    assert str(err.value) == "expected integer exponent after '^' (column 7)"


def test_parse_div_expr():
    data = model_to_dict(get_model("dP7"))
    data["named_divisors"]["Q"] = ["0", "0", "1"]
    m = model_from_dict(data)
    h, e1, e2 = (m.named(label) for label in ("H", "E1", "E2"))
    assert div_from_expr(m, "3H - E1 - 1/2 Q") == h.scale(3) - e1 - e2.scale(F(1, 2))
    assert div_from_expr(m, "-K") == m.minus_k()
    assert div_from_expr(m, "2*H + E2") == h.scale(2) + e2
    with pytest.raises(ParseError):
        div_from_expr(m, "H E1")   # a product of labels
    with pytest.raises(ParseError):
        div_from_expr(m, "")
    with pytest.raises(ParseError):
        div_from_expr(m, "3 +")


@pytest.mark.parametrize("src, want", [
    ("E1 - E1", "0"), ("0H", "0"), ("2(H - E1)", "2*H - 2*E1"), ("E1 3", "3*E1"),
    ("H E1", "divisor expression multiplies labels (column 1)"),
    ("3", "divisor expression has a constant term (column 1)"),
    ("  ", "empty divisor expression (column 1)"),
    ("-K - 2Q", "unknown divisor label 'Q' on dP7 (column 7)"),
])
def test_divisor_expression_is_a_linear_polynomial_in_the_labels(src, want):
    m = get_model("dP7")
    try:
        got = m.render(div_from_expr(m, src))
    except ParseError as exc:
        got = str(exc)
    assert got == want


_DIV_EXPR_MODELS = ["dP7", "dP3", "P(1,1,2)+1/2Q", "F2~P(1,1,2)"]


def _labels(m):
    return sorted({*m.named_divisors, *m.basis_labels, *m.curve_labels(),
                   *(b.label for b in m.boundary), "K"})


@st.composite
def _div_exprs(draw):
    """A model name and a string over its labels: either a sum of terms in
    the old grammar's shape, or any sequence of labels, digits, operators,
    parentheses and spaces."""
    name = draw(st.sampled_from(_DIV_EXPR_MODELS))
    labels = _labels(get_model(name))
    if draw(st.booleans()):
        coeff = st.sampled_from(["", "2", "0", "3/4", "1/2*", "5 ", "0/7"])
        term = st.tuples(st.sampled_from(["", "+", "-", "+ ", "- "]), coeff,
                         st.sampled_from(labels))
        parts = draw(st.lists(term, min_size=1, max_size=4))
        return name, " ".join(sign + c + label for sign, c, label in parts)
    piece = st.sampled_from(labels + list("0123456789+-*/()^ "))
    return name, "".join(draw(st.lists(piece, max_size=10)))


@settings(max_examples=400, deadline=None)
@given(_div_exprs())
def test_divisor_expression_matches_the_old_grammar_where_it_accepts(case):
    name, src = case
    m = get_model(name)
    try:
        want = div_expr_oracle.div_from_expr(m, src)
    except ParseError:
        want = None
    try:
        got = div_from_expr(m, src)
    except ParseError:
        got = None
    if want is not None:
        assert got == want


def test_report_json_and_table_render_same_values():
    rep = Report(command=["beta", "--surface", "P2"],
                 inputs={"surface": "dP9"},
                 results={"beta": F(25, 3), "flags": [{"a": F(1, 2), "b": "x"}],
                          "nested": {"tau": F(3, 2)}},
                 provenance=["dP9"])
    payload = json.loads(rep.to_json())
    table = rep.to_table()

    def leaves(node):
        if isinstance(node, dict):
            for v in node.values():
                yield from leaves(v)
        elif isinstance(node, list):
            for v in node:
                yield from leaves(v)
        else:
            yield node

    for leaf in leaves(payload["results"]):
        assert str(leaf) in table
    assert payload["results"]["beta"] == "25/3"


def test_report_decimal_mode_is_marked():
    rep = Report(command=["x"], inputs={}, results={"value": F(1, 3)}, decimal=True)
    payload = json.loads(rep.to_json())
    entry = payload["results"]["value"]
    assert entry["exact"] == "1/3"
    assert entry["approx_note"] == "non-authoritative"
    assert abs(entry["approx"] - 1 / 3) < 1e-12


def test_report_deterministic():
    rep = Report(command=["markov"], inputs={"depth": 2},
                 results={"triples": ["(1,1,1)", "(1,1,2)"]})
    assert rep.to_json() == rep.to_json()
    assert rep.to_table() == rep.to_table()
