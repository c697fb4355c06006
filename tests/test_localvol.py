from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from delpezzo import valuative
from delpezzo.catalog import get_model
from delpezzo.lattice import DivClass
from delpezzo.localvol import (MARKOV_MAX_DEPTH, MarkovTriple, QuotientSing,
                               is_T_singularity, local_global_check, markov_tree,
                               monomial_nvol, nvol_quotient, parse_sing, singularity_budget,
                               wps_volume)
from delpezzo.positivity import volume_profile
from delpezzo.valuative import p114_pair_report


def test_quotient_sing_validation():
    QuotientSing(2, (1, 1))
    with pytest.raises(ValueError):
        QuotientSing(4, (2, 1))   # gcd(2, 4) != 1
    with pytest.raises(ValueError):
        QuotientSing(0)


def test_parse_and_display():
    assert parse_sing("1/2(1,1)").display == "A1"
    assert parse_sing("A2") == QuotientSing(3, (1, 2))
    assert parse_sing("1/3(1,1)").display == "1/3(1,1)"
    assert parse_sing("smooth").display == "smooth"
    assert parse_sing("1/5(2,1)") == parse_sing("1/5(1,3)")  # unit equivalence
    with pytest.raises(ValueError):
        parse_sing("1/4[1,1]")


def test_nvol_values():
    assert nvol_quotient(QuotientSing(1)) == 4
    assert nvol_quotient(parse_sing("A1")) == 2
    assert nvol_quotient(parse_sing("1/3(1,1)")) == F(4, 3)


def test_monomial_nvol():
    assert monomial_nvol(1, 1) == 4
    assert monomial_nvol(1, 2) == F(9, 2)
    assert monomial_nvol(F(7, 5), F(7, 5)) == 4
    with pytest.raises(ValueError):
        monomial_nvol(0, 1)


def test_monomial_nvol_counting_oracle():
    # volume of the (1,2)-monomial valuation by direct lattice-point counting
    k = 200
    count = sum(1 for i in range(k) for j in range((k - i + 1) // 2)
                if i + 2 * j < k)
    ratio = F(count) / (F(k * k) / 2)
    assert abs(ratio - F(1, 2)) < F(1, 50)
    assert monomial_nvol(1, 2) == (1 + 2) ** 2 * F(1, 2)


@given(st.fractions(min_value="1/7", max_value=9, max_denominator=50),
       st.fractions(min_value="1/7", max_value=9, max_denominator=50))
def test_monomial_nvol_at_least_four(w1, w2):
    v = monomial_nvol(w1, w2)
    assert v >= 4
    assert (v == 4) == (w1 == w2)


def test_t_singularities():
    assert is_T_singularity(parse_sing("1/4(1,1)"))
    assert is_T_singularity(parse_sing("1/4(1,3)"))
    assert not is_T_singularity(parse_sing("1/3(1,1)"))
    for k in range(1, 13):
        assert is_T_singularity(parse_sing(f"A{k}"))
    # the next non-smoothable vertex cases
    assert not is_T_singularity(parse_sing("1/5(1,1)"))
    assert is_T_singularity(parse_sing("1/8(1,3)"))  # d=2, n=2, a=1


def test_local_global_checks():
    fail = local_global_check(8, [parse_sing("A1")])
    assert not fail.passed and fail.threshold == F(9, 2) and fail.margin == F(7, 2)
    assert fail.binding == "A1"
    ok = local_global_check(9, [])
    assert ok.passed and ok.margin == 0
    cubic = local_global_check(3, [parse_sing("A2")])
    assert cubic.passed and cubic.margin == 0
    with pytest.raises(ValueError):
        local_global_check(0, [])


def test_budget_exact_sets():
    assert [s.display for s in singularity_budget(3)] == ["smooth", "A1", "A2"]
    assert [s.display for s in singularity_budget(9)] == ["smooth"]
    assert [s.display for s in singularity_budget(8)] == ["smooth"]
    b2 = [s.display for s in singularity_budget(2)]
    assert "1/4(1,1)" in b2 and "A3" in b2 and "1/3(1,1)" not in b2
    with pytest.raises(ValueError):
        singularity_budget(10)


def test_budget_monotone_inclusion():
    keys = {d: {s.key() for s in singularity_budget(d)} for d in range(1, 10)}
    for d in range(1, 9):
        assert keys[d + 1] <= keys[d]


def test_markov_validation_and_mutation():
    t = MarkovTriple.of(1, 1, 2)
    assert t.mutate(0).triple == (1, 2, 5)
    assert t.mutate(2).triple == (1, 1, 1)
    with pytest.raises(ValueError):
        MarkovTriple.of(1, 2, 3)


def test_markov_tree_headline_values():
    assert [t.triple for t in markov_tree(0)] == [(1, 1, 1)]
    assert [t.triple for t in markov_tree(2)] == [(1, 1, 1), (1, 1, 2), (1, 2, 5)]
    depth3 = {t.triple for t in markov_tree(3)}
    assert {(1, 5, 13), (2, 5, 29)} <= depth3


def test_markov_tree_refuses_depth_beyond_bound(monkeypatch):
    def never(self, i):
        raise AssertionError("the tree must not be built")

    monkeypatch.setattr(MarkovTriple, "mutate", never)
    for depth in (MARKOV_MAX_DEPTH + 1, 10 ** 12):
        with pytest.raises(ValueError, match="depth must be <= 14"):
            markov_tree(depth)


def test_markov_tree_closure_property():
    seen = {t.triple for t in markov_tree(5)}
    deeper = {t.triple for t in markov_tree(6)}
    for t in markov_tree(5):
        for i in range(3):
            assert t.mutate(i).triple in deeper
    assert seen <= deeper


@given(st.integers(0, 7), st.integers(0, 2))
def test_markov_mutation_is_involution(depth, coord):
    for t in markov_tree(depth):
        others = [v for j, v in enumerate(t.triple) if j != coord]
        new_val = 3 * others[0] * others[1] - t.triple[coord]
        m = t.mutate(coord)
        assert m.mutate(m.triple.index(new_val)) == t


def test_wps_volume():
    assert wps_volume(1, 1, 1) == 9
    assert wps_volume(1, 1, 2) == 8
    assert wps_volume(1, 4, 25) == 9
    with pytest.raises(ValueError):
        wps_volume(2, 4, 1)


def test_wps_volume_of_markov_squares_is_nine():
    for t in markov_tree(6):
        a, b, c = t.triple
        assert wps_volume(a * a, b * b, c * c) == 9


def test_p114_pair_report():
    rep = p114_pair_report(3)
    assert rep["beta_exceptional"]["constant"] == F(-1, 2)
    assert rep["beta_exceptional"]["slope_in_c"] == 1  # (2d-3)/3 at d = 3
    assert rep["beta_negative_for_c_below"] == F(1, 2)
    assert rep["log_fano_range"] == (0, F(1, 2))
    assert rep["covers_full_log_fano_range"]
    assert rep["index_bound_semistable_needs"] == F(1, 4)
    rep2 = p114_pair_report(2)
    assert rep2["beta_exceptional"]["slope_in_c"] == F(1, 3)
    assert rep2["covers_full_log_fano_range"]
    rep4 = p114_pair_report(4)
    assert rep4["beta_exceptional"]["slope_in_c"] == F(5, 3)
    assert not rep4["covers_full_log_fano_range"]
    assert rep4["certified_unstable_range"] == (0, F(3, 10))
    assert rep4["index_bound_semistable_needs"] == F(3, 16)
    assert rep4["self_certified"]


def _p114_two_sample_interpolation(d):
    """beta(e)(c) = (1/2 - c) - S(e) of the pullback of O(6 - 4cd), sampled at
    c = 0 and c = 3/(8d) and interpolated."""
    work = get_model("F4~P(1,1,4)")

    def beta_at(c):
        s = 6 - 4 * c * d
        return F(1, 2) - c - volume_profile(work, DivClass((s / 4, s)), work.curve("e")).S

    c2 = F(3, 8 * d)
    b1 = beta_at(F(0))
    return b1, (beta_at(c2) - b1) / c2


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_p114_pair_report_is_the_two_sample_interpolation_from_one_walk(d, monkeypatch):
    constant, slope = _p114_two_sample_interpolation(d)
    walks = []

    def counted(*args):
        walks.append(args)
        return volume_profile(*args)

    monkeypatch.setattr(valuative, "volume_profile", counted)
    rep = p114_pair_report(d)
    assert len(walks) == 1
    assert (rep["beta_exceptional"]["constant"], rep["beta_exceptional"]["slope_in_c"]) \
        == (constant, slope)
    sup = F(3, 2 * d)
    if slope < 0:  # d = 1: beta(e) < 0 on the whole log-Fano range
        assert d == 1 and rep["beta_negative_for_c_below"] == -constant / slope
        assert rep["certified_unstable_range"] == (0, sup)
    else:
        assert rep["certified_unstable_range"] == (0, min(sup, -constant / slope))
    assert rep["covers_full_log_fano_range"] == (rep["certified_unstable_range"][1] >= sup)
