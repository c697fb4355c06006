from fractions import Fraction as F

import pytest

from delpezzo.azflag import (CoverageError, FlagDataError, FlagPoint, builtin_flags,
                             delta_p_lower_bound, flag_from_divisor, restricted_S,
                             semistable_via_flags)
from delpezzo.catalog import get_model
from delpezzo.exactnum import Poly
from delpezzo.valuative import profile_for


def test_cubic_flag_headline_values():
    m = get_model("dP3")
    (flag, covers), = builtin_flags(m)
    assert flag.inv.A == 1
    assert flag.inv.S == F(1, 3)
    assert flag.inv.A / flag.inv.S == 3
    assert restricted_S(flag, "generic") == 1
    assert delta_p_lower_bound(flag, "generic") == 1
    assert covers == ("generic",)


def test_pair_flags_headline_values():
    m = get_model("P(1,1,2)+1/2Q")
    flags = builtin_flags(m)
    ruling = flags[0][0]
    exc = flags[1][0]
    assert ruling.inv.S == 1
    assert restricted_S(ruling, "generic") == F(1, 2)
    assert delta_p_lower_bound(ruling, "generic") == 1
    assert delta_p_lower_bound(ruling, "on-Q") == 1
    assert exc.inv.S == 1 and exc.inv.A == 1
    assert restricted_S(exc, "generic") == 1
    assert delta_p_lower_bound(exc, "generic") == 1


def test_semistable_verdicts():
    assert semistable_via_flags(get_model("dP3"), builtin_flags(get_model("dP3"))).verdict
    pair = get_model("P(1,1,2)+1/2Q")
    rep = semistable_via_flags(pair, builtin_flags(pair))
    assert rep.verdict
    assert dict(rep.bounds) == {"generic": 1, "on-Q": 1, "vertex": 1}


def test_destabilizer_short_circuit():
    f1 = get_model("dP8")
    rep = semistable_via_flags(f1, builtin_flags(f1))
    assert not rep.verdict
    assert rep.destabilizer == ("E1", F(-1, 6))
    # even with no flags at all, the verdict is decided by the destabilizer
    assert not semistable_via_flags(f1, []).verdict


def test_coverage_error_never_false_positive():
    pair = get_model("P(1,1,2)+1/2Q")
    flags = builtin_flags(pair)
    with pytest.raises(CoverageError):
        semistable_via_flags(pair, flags[:1])    # vertex never covered
    with pytest.raises(CoverageError):
        semistable_via_flags(pair, [(flags[0][0], ("no-such-class",))])


def _p_dot_e(flag, ch):
    """P(u) . E on a chamber, paired through ``intersect`` with the flag's E."""
    rd = flag.inv.divisor
    return Poly([rd.work.intersect(ch.p_const, rd.E), rd.work.intersect(ch.p_slope, rd.E)])


def test_flag_chambers_match_positivity_profile():
    pair = get_model("P(1,1,2)+1/2Q")
    for flag, _ in builtin_flags(pair):
        prof = profile_for(pair, flag.divisor_spec)
        assert flag.inv.profile.tau == prof.tau
        for ch, piece in zip(flag.inv.profile.chambers, prof.profile.pieces):
            assert piece.derivative() == Poly([0]) - 2 * _p_dot_e(flag, ch)


def test_mass_conservation_on_flags():
    for name in ("dP3", "P(1,1,2)+1/2Q", "dP8"):
        m = get_model(name)
        for flag, _ in builtin_flags(m):
            total = F(0)
            for ch in flag.inv.profile.chambers:
                total += _p_dot_e(flag, ch).integrate(ch.lo, ch.hi)
            assert 2 * total == flag.inv.profile.L2, (name, flag.name)


def _dp7_line_flag(n_orders=None):
    points = [FlagPoint("generic")]
    if n_orders is not None:
        points.append(FlagPoint("meet-E1", under_n=True, n_orders=n_orders))
    return flag_from_divisor(get_model("dP7"), "Ltilde", name="line-flag",
                             points=tuple(points))


def test_restricted_S_with_negative_part_term():
    flag = _dp7_line_flag(n_orders=(Poly([0]), Poly([-1, 1])))
    plain = restricted_S(flag, "generic")
    with_n = restricted_S(flag, "meet-E1")
    assert plain == F(5, 7)
    assert with_n == F(23, 21)
    # removing the negative-part correction never increases the value
    zeroed = _dp7_line_flag(n_orders=(Poly([0]), Poly([0])))
    assert restricted_S(zeroed, "meet-E1") == plain <= with_n


def test_under_n_requires_data():
    flag = flag_from_divisor(
        get_model("dP7"), "Ltilde", name="line-flag",
        points=(FlagPoint("meet-E1", under_n=True),))
    with pytest.raises(FlagDataError):
        restricted_S(flag, "meet-E1")


def test_unknown_point_label():
    (flag, _), = builtin_flags(get_model("dP3"))
    with pytest.raises(FlagDataError):
        restricted_S(flag, "nowhere")


def test_user_flag_warning_note():
    flag = flag_from_divisor(get_model("dP3"), "anticanonical-curve",
                             name="user-flag", points=(FlagPoint("generic"),),
                             asserted_plt=False)
    m = get_model("dP3")
    rep = semistable_via_flags(m, [(flag, ("generic",))])
    assert rep.verdict
    assert any("plt" in note for note in rep.notes)


def test_flag_from_dict_round_trip():
    from delpezzo.azflag import flag_from_dict
    m = get_model("dP3")
    flag, covers = flag_from_dict({
        "name": "user-anticanonical",
        "divisor_spec": "anticanonical-curve",
        "points": [{"label": "generic"}],
        "covers": ["generic"],
    }, m)
    assert not flag.asserted_plt          # user files never assert plt type
    assert covers == ("generic",)
    assert restricted_S(flag, "generic") == 1
    assert delta_p_lower_bound(flag, "generic") == 1
    with pytest.raises(FlagDataError):
        flag_from_dict({
            "divisor_spec": "anticanonical-curve",
            "points": [{"label": "p", "under_n": True, "n_orders": [[0], [0]]}],
        }, m)   # two chamber entries for a one-chamber profile


def test_closed_form_oracles_for_pair_flag_values():
    # the stated closed forms, integrated independently of the flag machinery
    s_e = Poly([F(9, 2), 0, -2]).integrate(0, F(3, 2)) * F(2, 9)   # (2/9) int 2(9/4 - u^2)
    s_wp = Poly([0, 0, 2]).integrate(0, F(3, 2)) * F(4, 9)         # (4/9) int 2u^2
    assert s_e == 1 and s_wp == 1
    m = get_model("P(1,1,2)+1/2Q")
    exc = builtin_flags(m)[1][0]
    assert exc.inv.S == s_e
    assert restricted_S(exc, "generic") == s_wp


def test_zero_movable_mass_gives_zero_restricted_S():
    m = get_model("dP3")
    base = builtin_flags(m)[0][0]
    corrections = tuple(_p_dot_e(base, ch) for ch in base.inv.profile.chambers)
    flag = flag_from_divisor(
        m, "anticanonical-curve", name="pinned",
        points=(FlagPoint("pinned", deg_corrections=corrections),))
    assert restricted_S(flag, "pinned") == 0


def test_semistability_walks_each_divisor_once(monkeypatch):
    # a beta candidate that is also a flag's divisor reads the flag's record
    from delpezzo import valuative
    walk = valuative.volume_profile
    walks = []

    def counting(*args):
        walks.append(args[2])
        return walk(*args)

    monkeypatch.setattr(valuative, "volume_profile", counting)
    for name, want in (("P(1,1,2)+1/2Q", 3), ("dP8", 1), ("P(1,1,2)", 2)):
        m = get_model(name)
        walks.clear()
        semistable_via_flags(m, builtin_flags(m))
        assert len(walks) == want, (name, walks)
