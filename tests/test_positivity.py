import dataclasses
import fractions
import json
import shlex
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import intersect_oracle
import simplex_oracle
import solve_oracle
import walk_oracle
import zariski_oracle
from delpezzo import catalog, lattice, linalg, lp, positivity
from delpezzo.catalog import builtin_names, get_model, validate_links
from delpezzo.cli import run
from delpezzo.exactnum import Poly, over_one_denominator
from delpezzo.lattice import DivClass, LabeledCurve, SurfaceModel, is_nef
from delpezzo.linalg import solve
from delpezzo.positivity import (NotPseudoeffectiveError, ZariskiDecomp, pseff_certificate,
                                 pseff_threshold, volume, volume_profile, zariski)
from delpezzo.valuative import profile_for, resolve_divisor_spec


def test_zariski_nef_input_is_trivial():
    dp7 = get_model("dP7")
    dec = zariski(dp7, dp7.minus_k())
    assert dec.negative == () and dec.positive == dp7.minus_k()
    assert dec.verify(dp7, dp7.minus_k()) == []


def test_zariski_dp7_line_example():
    dp7 = get_model("dP7")
    d = DivClass.of([1, 1, 1])  # -K - 2*(H - E1 - E2)
    dec = zariski(dp7, d)
    assert dec.positive == DivClass.of([1, 0, 0])
    assert dict(dec.negative) == {"E1": 1, "E2": 1}
    assert dec.verify(dp7, d) == []
    assert volume(dp7, d) == 1


def test_verify_refuses_a_support_that_is_not_negative_definite():
    """2H - 2E2 = (H - E2) + E1 + L12 with H - E2 nef and orthogonal to E1
    and L12, but E1 and L12 meet: their Gram [[-1, 1], [1, -1]] is singular."""
    dp7 = get_model("dP7")
    dec = ZariskiDecomp(DivClass.of([1, 0, -1]), (("E1", F(1)), ("L12", F(1))))
    assert dec.support_gram(dp7) == ((-1, 1), (1, -1))
    assert dec.verify(dp7, DivClass.of([2, 0, -2])) == [
        "support Gram matrix is not negative definite"]


def test_refusal_whose_gram_has_a_zero_leading_minor():
    """The Farkas class W on P1xP1 is solved from the Gram [[0, 1], [1, 0]],
    whose D_1 = 0: the elimination exchanges rows."""
    m = get_model("P1xP1")
    with pytest.raises(NotPseudoeffectiveError) as err:
        zariski(m, DivClass.of([1, -1]))
    assert m.render(err.value.certificate) == "f1" and err.value.value == -1


def test_zariski_rejects_non_pseudoeffective_with_certificate():
    f1 = get_model("F1")
    d = DivClass.of([3, F(-7, 2)])  # -K_Y + (1-t)E at t = 5/2
    assert not pseff_certificate(f1, d)[0]
    with pytest.raises(NotPseudoeffectiveError) as err:
        zariski(f1, d)
    cert = err.value.certificate
    for c in f1.neg_curves:
        assert f1.intersect(cert, c.cls) >= 0
    assert f1.intersect(cert, d) < 0


def test_pseff_lp_calls_match_fraction_oracle(monkeypatch):
    """Each LP of pseff_certificate(m, -K - tC) on a built-in model has the
    generators as its columns and equals the Fraction simplex, pivots
    included.  dP1 gets one refusal: its LP takes 188 pivots, about 2 s in
    the oracle."""
    calls = []
    original = lp.eq_feasibility

    def recorded(a, b):
        res = original(a, b)
        calls.append((m, a, b, res))
        return res

    monkeypatch.setattr(positivity.lp, "eq_feasibility", recorded)
    for name in builtin_names():
        m = get_model(name)
        if name == "dP1":
            grid = [(F(3), m.neg_curves[0])]
        else:
            grid = [(t, c) for t in (F(1, 2), F(3, 2), F(3)) for c in m.neg_curves[:2]]
        for t, c in grid:
            pseff_certificate(m, m.minus_k() - c.cls.scale(t))
    assert {res.feasible for *_, res in calls} == {True, False}
    for m, a, b, res in calls:
        assert [tuple(col) for col in zip(*a)] == [c.cls.coeffs for c in m.neg_curves]
        assert res == simplex_oracle.eq_feasibility(a, b)


# The refusals of the certify workload's strata: every curve of dP6-dP2 at
# t = u * tau(-K, C), with u cycling through the workload's fractions above 1,
# and the fixed dP1 request.
_OUTSIDE = (F(5, 4), F(4, 3), F(3, 2), F(2), F(3))


def _certify_refusals():
    for name in ("dP6", "dP5", "dP4", "dP3", "dP2"):
        m = get_model(name)
        for i, c in enumerate(m.neg_curves):
            yield m, c, _OUTSIDE[i % len(_OUTSIDE)]
    m = get_model("dP1")
    yield m, next(c for c in m.neg_curves if c.label == "C120"), F(3, 2)


def test_farkas_class_matches_the_fraction_solve(monkeypatch):
    """On every refusal W, read from one integer Bareiss, equals the Fraction
    solve of G W = -y, and the LP on the model's cached integer columns
    equals the Fraction simplex on the generator matrix, pivots included."""
    calls = []
    original = lp.eq_feasibility

    def recorded(a, b):
        calls.append((b, original(a, b)))
        return calls[-1][1]

    monkeypatch.setattr(positivity.lp, "eq_feasibility", recorded)
    seen = 0
    for m, c, u in _certify_refusals():
        L = m.polarization()
        d = L - c.cls.scale(pseff_threshold(m, L, c.cls) * u)
        calls.clear()
        ok, w = pseff_certificate(m, d)
        ((b, res),) = calls
        assert not ok and not res.feasible
        assert list(w.coeffs) == solve(m.gram, [-v for v in res.farkas])
        gens = [[g.cls.coeffs[i] for g in m.neg_curves] for i in range(m.rank)]
        assert res == simplex_oracle.eq_feasibility(gens, b)
        seen += 1
    assert seen == 6 + 10 + 16 + 27 + 56 + 1


def test_a_refusal_clears_the_generator_columns_once_per_model(monkeypatch):
    """The LP columns are cleared once per model: a second refusal clears no
    generator, and W comes from no linalg.solve call."""
    m = dataclasses.replace(get_model("dP3"))  # a fresh model, no cached state
    L = m.polarization()
    d1, d2 = (L - m.curve(label).scale(3) for label in ("E1", "E2"))
    assert not pseff_certificate(m, d1)[0]
    cleared = []

    def counted(values):
        cleared.append(tuple(values))
        return over_one_denominator(values)

    for module in (lattice, lp, positivity):
        monkeypatch.setattr(module, "over_one_denominator", counted)
    monkeypatch.setattr(linalg, "solve", None)  # a call would raise TypeError
    assert not hasattr(positivity, "solve")
    assert not pseff_certificate(m, d2)[0]
    assert cleared and len(cleared) < len(m.neg_curves)
    assert not {c.cls.coeffs for c in m.neg_curves} & set(cleared)


def test_generator_rows_are_built_on_first_use_per_model():
    """Looking a model up and validating it builds no LP columns, so listing
    the catalog pays nothing; a copy with other curves builds its own."""
    for name in builtin_names():
        m = catalog._builtin.__wrapped__(name)  # built as get_model builds it
        assert m.validate() == [] and validate_links(m) == []
        assert "_generator_rows" not in vars(m), name
    m = get_model("dP4")
    fewer = dataclasses.replace(m, neg_curves=m.neg_curves[:3])
    assert len(m._generator_rows[0]) == 16
    assert fewer._generator_rows == tuple(row[:3] for row in m._generator_rows)
    assert "_generator_rows" not in vars(dataclasses.replace(m))


def test_volume_examples():
    p2 = get_model("P2")
    assert volume(p2, p2.minus_k()) == 9
    assert volume(p2, DivClass.of([0])) == 0
    p112 = get_model("P(1,1,2)")
    assert volume(p112, p112.minus_k()) == 8
    assert volume(p112, DivClass.of([-1])) == 0


def _recorded_lp_calls(monkeypatch) -> list:
    """Record the class of every pseff_certificate call."""
    calls = []
    original = positivity.pseff_certificate

    def recorded(m, d):
        calls.append(d)
        return original(m, d)

    monkeypatch.setattr(positivity, "pseff_certificate", recorded)
    return calls


def test_volume_runs_the_lp_only_where_the_loop_does_not_decide(monkeypatch):
    calls = _recorded_lp_calls(monkeypatch)
    dp7 = get_model("dP7")
    # pseudoeffective but not nef: the loop decides; not pseudoeffective
    # (and not nef): one LP
    for d, vol, lps in ((DivClass.of([1, 1, 1]), 1, []),
                        (DivClass.of([-1, 0, 0]), 0, [DivClass.of([-1, 0, 0])])):
        calls.clear()
        assert volume(dp7, d) == vol
        assert calls == lps


def test_pseff_threshold_does_not_integrate(monkeypatch):
    from delpezzo.exactnum import PiecewisePoly
    calls = []
    original = PiecewisePoly.integrate

    def counted(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(PiecewisePoly, "integrate", counted)
    m = get_model("dP7")
    rd = resolve_divisor_spec(m, "Ltilde")
    assert pseff_threshold(rd.work, rd.L, rd.E) == 3
    assert calls == []
    prof = volume_profile(rd.work, rd.L, rd.E)
    assert prof.S == prof.S == F(25, 21)
    assert calls == [(0, 3)]


def test_gram_cert_is_the_support_gram():
    dp7, dp5 = get_model("dP7"), get_model("dP5")
    cases = [(dp7, dp7.minus_k()), (dp7, DivClass.of([1, 1, 1])),
             (dp5, DivClass.of([3, 1, 1, 1, -1]))]
    sizes = []
    for m, d in cases:
        dec = zariski(m, d)
        support = [m.curve(label) for label, _ in dec.negative]
        assert dec.support_gram(m) == tuple(tuple(m.intersect(a, b) for b in support)
                                            for a in support)
        sizes.append(len(support))
    assert sizes == [0, 2, 3]


def test_volume_nef_fast_path_matches_decomposition():
    dp7 = get_model("dP7")
    for d in (dp7.minus_k(), DivClass.of([2, -1, 0]), DivClass.of([3, -1, -1])):
        dec = zariski(dp7, d)
        assert volume(dp7, d) == dp7.intersect(dec.positive, dec.positive)


def test_profile_p2_exceptional():
    prof = profile_for(get_model("P2"), "exceptional:pt")
    assert prof.tau == 3
    assert prof.profile.pieces == (Poly([9, 0, -1]),)
    assert prof.profile.breakpoints == (0, 3)
    assert prof.profile(2) == 5


def test_profile_p2_line_stays_nef():
    prof = profile_for(get_model("P2"), "line")
    assert prof.tau == 3
    assert prof.profile.pieces == (Poly([9, -6, 1]),)
    assert prof.chambers[0].support == ()


def test_profile_dp7_two_chambers():
    prof = profile_for(get_model("dP7"), "Ltilde")
    assert prof.profile.breakpoints == (0, 1, 3)
    assert prof.profile.pieces == (Poly([7, -2, -1]), Poly([9, -6, 1]))
    assert prof.tau == 3
    ch2 = prof.chambers[1]
    assert set(ch2.support) == {"E1", "E2"}
    assert ch2.n_coeffs[0][1] == Poly([-1, 1])  # coefficient (t - 1)
    assert ch2.lo <= 2 <= ch2.hi
    assert ch2.p_const + ch2.p_slope.scale(2) == DivClass.of([1, 0, 0])


def test_profile_enters_a_curve_that_turns_negative_at_zero():
    # L.e = 0 and f.e = 1 on F2: e is orthogonal to L and falls below zero
    # just after t = 0, so it is in the support of the first chamber.
    m = get_model("F2~P(1,1,2)")
    prof = profile_for(m, "f")
    assert prof.profile.breakpoints == (0, 4)
    assert prof.profile.pieces == (Poly([8, -4, F(1, 2)]),)
    assert prof.chambers[0].support == ("e",)
    rd = resolve_divisor_spec(m, "f")
    dec = zariski(m, rd.L - rd.E.scale(F(1, 2)))
    assert dec.negative == (("e", F(1, 4)),)
    assert m.intersect(dec.positive, dec.positive) == prof.profile(F(1, 2)) == F(49, 8)


def test_pseff_thresholds():
    p2 = get_model("P2")
    assert pseff_threshold(*(lambda rd: (rd.work, rd.L, rd.E))(
        resolve_divisor_spec(p2, "exceptional:pt"))) == 3
    dp3 = get_model("dP3")
    assert pseff_threshold(dp3, dp3.minus_k(), dp3.minus_k()) == 1
    pair = get_model("P(1,1,2)+1/2Q")
    rd = resolve_divisor_spec(pair, "exceptional")
    assert pseff_threshold(rd.work, rd.L, rd.E) == F(3, 2)


def test_profile_requires_big_nef_L():
    f1 = get_model("F1")
    with pytest.raises(ValueError):
        volume_profile(f1, DivClass.of([3, F(-7, 2)]), DivClass.of([0, 1]))
    with pytest.raises(ValueError):
        volume_profile(f1, DivClass.of([0, 0]), DivClass.of([0, 1]))


def _suite():
    for name in ("P2", "P1xP1", "dP8", "dP7", "dP6", "dP5", "dP4", "dP3", "dP2",
                 "P(1,1,2)", "P(1,1,4)", "P(1,1,2)+1/2Q", "P(1,1,2)+1/4Q"):
        m = get_model(name)
        for spec in m.beta_candidates:
            yield name, m, spec


def test_profiles_nonincreasing_and_start_at_volume():
    for name, m, spec in _suite():
        rd = resolve_divisor_spec(m, spec)
        prof = volume_profile(rd.work, rd.L, rd.E)
        l2 = rd.work.intersect(rd.L, rd.L)
        assert prof.profile(0) == l2, (name, spec)
        assert prof.profile(prof.tau) == 0, (name, spec)
        for piece, lo, hi in zip(prof.profile.pieces, prof.profile.breakpoints,
                                 prof.profile.breakpoints[1:]):
            dp = piece.derivative()
            assert dp(lo) <= 0 and dp(hi) <= 0, (name, spec)
            assert piece.degree <= 2


def test_derivative_and_mass_identities_on_suite():
    for name, m, spec in _suite():
        rd = resolve_divisor_spec(m, spec)
        prof = volume_profile(rd.work, rd.L, rd.E)
        l2 = rd.work.intersect(rd.L, rd.L)
        total = F(0)
        for i, ch in enumerate(prof.chambers):
            pe = Poly([rd.work.intersect(ch.p_const, rd.E),
                       rd.work.intersect(ch.p_slope, rd.E)])
            assert prof.profile.pieces[i].derivative() == Poly([0]) - 2 * pe, (name, spec)
            total += pe.integrate(ch.lo, ch.hi)
        assert 2 * total == l2, (name, spec)


def test_zariski_certificates_along_suite_profiles():
    for name, m, spec in _suite():
        rd = resolve_divisor_spec(m, spec)
        prof = volume_profile(rd.work, rd.L, rd.E)
        for ch in prof.chambers:
            mid = (ch.lo + ch.hi) / 2
            d = rd.L - rd.E.scale(mid)
            dec = zariski(rd.work, d)
            assert dec.verify(rd.work, d) == [], (name, spec)
            assert rd.work.intersect(dec.positive, dec.positive) == prof.profile(mid)
            assert dict(dec.negative) == {label: poly(mid) for label, poly in ch.n_coeffs}


def test_profile_report_serialization():
    report, code = run(["volfn", "--surface", "dP7", "--divisor-spec", "Ltilde"])
    rep = json.loads(report.to_json())["results"]
    assert code == 0 and rep["tau"] == "3"
    assert rep["profile"][0] == {"from": "0", "to": "1", "coeffs": ["7", "-2", "-1"]}
    assert rep["chambers"][1]["support"] == ["E1", "E2"]


def test_zariski_fuzz_random_classes():
    import random
    rng = random.Random(2718)
    for name in ("dP7", "dP5", "dP4"):
        m = get_model(name)
        gens = [c.cls for c in m.neg_curves]
        for _ in range(40):
            # random effective class: nonnegative combination of generators
            d = DivClass((F(0),) * m.rank)
            for g in rng.sample(gens, rng.randint(1, min(4, len(gens)))):
                d = d + g.scale(F(rng.randint(0, 3), rng.randint(1, 2)))
            if d.is_zero():
                continue
            dec = zariski(m, d)
            assert dec.verify(m, d) == []
            assert volume(m, d) == m.intersect(dec.positive, dec.positive)
        for _ in range(40):
            # random class of either sign: certificate on both outcomes
            d = DivClass(tuple(F(rng.randint(-3, 3)) for _ in range(m.rank)))
            try:
                dec = zariski(m, d)
            except NotPseudoeffectiveError as err:
                w = err.certificate
                assert all(m.intersect(w, c.cls) >= 0 for c in m.neg_curves)
                assert m.intersect(w, d) < 0
                assert volume(m, d) == 0
            else:
                assert dec.verify(m, d) == []


def _zariski_outcome(decompose, m, d):
    """The ZariskiDecomp, or the type and text of the refusal."""
    try:
        return decompose(m, d)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _assert_zariski_matches_the_oracle(m, d):
    got = _zariski_outcome(zariski, m, d)
    assert got == _zariski_outcome(zariski_oracle.zariski, m, d)
    return got


def _threshold(m, c):
    """The threshold of -K - tC, or 2 where -K is not nef."""
    try:
        return pseff_threshold(m, m.minus_k(), c)
    except ValueError:
        return F(2)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(builtin_names()), st.integers(0, 300),
       st.sampled_from([F(0), F(1, 2), F(1), F(3, 2), F(2)]), st.sampled_from([F(0), F(1, 3)]))
def test_zariski_matches_the_fraction_oracle_on_minus_k_minus_t_c(name, i, scale, shift):
    """-K - tC for a catalogued curve C, with t below, at and above the
    threshold tau: t = scale * tau + shift."""
    m = get_model(name)
    c = m.neg_curves[i % len(m.neg_curves)].cls
    t = scale * _threshold(m, c) + shift
    _assert_zariski_matches_the_oracle(m, m.minus_k() - c.scale(t))


@pytest.mark.parametrize("name", [n for n in builtin_names() if n != "dP1"])
def test_zariski_matches_the_fraction_oracle_on_every_curve(name):
    """-K - tC for every catalogued curve C, at t = tau / 2 (a decomposition
    or nef) and t = tau + 1 (a refusal).  dP1, whose 240 LPs take about 15 s
    here, is left to the drawn cases above."""
    m = get_model(name)
    outcomes = set()
    for c in m.neg_curves:
        tau = _threshold(m, c.cls)
        for t in (tau / 2, tau + 1):
            got = _assert_zariski_matches_the_oracle(m, m.minus_k() - c.cls.scale(t))
            outcomes.add(type(got) is tuple)
    assert outcomes == {False, True}


@pytest.mark.parametrize("u", [F(1, 2), F(5, 4), F(3, 2), F(3)])
def test_zariski_matches_the_fraction_oracle_on_dp1_c120(u):
    """-K - t C120 on dP1 at t = u * tau: a decomposition, then refusals
    whose loops fail on supports of 57 and 183 curves."""
    m = get_model("dP1")
    c = m.curve("C120")
    _assert_zariski_matches_the_oracle(m, m.minus_k() - c.scale(u * _threshold(m, c)))


def test_zariski_runs_the_lp_only_above_the_threshold(monkeypatch):
    """-K - tC for every catalogued curve C: at t = tau / 2 the loop decides
    with no LP, at t = 3 tau / 2 one LP refuses.  dP1 is left to the drawn
    cases above, and the Fn~P(1,1,n) with n >= 3, whose -K is not nef, have
    no threshold to scale."""
    calls = _recorded_lp_calls(monkeypatch)
    curves = 0
    for name in builtin_names():
        m = get_model(name)
        if name == "dP1" or not is_nef(m, m.minus_k()):
            continue
        for c in m.neg_curves:
            tau = _threshold(m, c.cls)
            zariski(m, m.minus_k() - c.cls.scale(tau / 2))
            assert calls == []
            above = m.minus_k() - c.cls.scale(3 * tau / 2)
            with pytest.raises(NotPseudoeffectiveError):
                zariski(m, above)
            assert calls == [above]
            calls.clear()
            curves += 1
    assert curves == 130


def test_support_of_rank_curves_is_refused_before_its_rows_are_read(monkeypatch):
    """Hodge index: a negative-definite set of curves has fewer than rank
    members, so a support of rank curves is refused with the text of the
    Sylvester test, and of the signature oracle, without reading a row."""
    m = get_model("dP7")
    support = list(range(m.rank))
    with pytest.raises(positivity.ConeDataError) as want:
        walk_oracle._solve_support(m, [m.neg_curves[k] for k in support], [])
    read = []
    monkeypatch.setattr(positivity, "_pair_numerators", lambda *args: read.append(args))
    with pytest.raises(positivity.ConeDataError) as err:
        positivity._solve_support(m, support, [])
    assert str(err.value) == str(want.value) == (
        "support {E1, E2, L12} on dP7 is not negative definite; "
        "cone data possibly incomplete")
    assert read == []


def test_zariski_falls_back_to_the_lp_outside_the_positive_cone(monkeypatch):
    """With a polarization H of square <= 0, or one that P pairs negatively
    with, the loop's decomposition is not accepted alone: one LP runs, and
    the same decomposition is returned."""
    m = get_model("dP7")
    d = DivClass.of([1, 1, 1])
    want = zariski(m, d)
    calls = _recorded_lp_calls(monkeypatch)
    # H^2 = 0; H^2 = -1; H = K, with H^2 = 7 > 0 but P . H = -3 (P is the line class)
    for h in (DivClass.of([0, 0, 0]), DivClass.of([0, 1, 0]), -m.minus_k()):
        monkeypatch.setattr(SurfaceModel, "polarization", lambda self, h=h: h)
        calls.clear()
        assert zariski(m, d) == want
        assert calls == [d]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(builtin_names()), st.integers(0, 300), st.integers(0, 300),
       st.sampled_from([F(1), F(1, 2), F(3)]))
def test_zariski_matches_the_fraction_oracle_on_curve_sums(name, i, j, scale):
    m = get_model(name)
    curves = m.neg_curves
    d = curves[i % len(curves)].cls + curves[j % len(curves)].cls.scale(scale)
    _assert_zariski_matches_the_oracle(m, d)


def test_zariski_builds_p_once(monkeypatch):
    """The loop reads P . C from the support kernel and builds P as a class
    once, for the decomposition it returns."""
    built = []
    original = positivity._minus_combination

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(positivity, "_minus_combination", counted)
    m = get_model("dP7")
    dec = zariski(m, m.minus_k() - m.named("Ltilde").scale(2))
    assert [label for label, _ in dec.negative] == ["E1", "E2"]
    assert len(built) == 1


def _recorded_support_solves(monkeypatch) -> list:
    """Record (model, support, classes, result) of every support solve."""
    calls = []
    original = positivity._solve_support

    def recorded(m, support, classes):
        res = original(m, support, classes)
        calls.append((m, list(support), list(classes), res))
        return res

    monkeypatch.setattr(positivity, "_solve_support", recorded)
    return calls


def test_support_solves_match_the_dense_oracle(monkeypatch):
    """The coefficients and P . C for every catalogued curve C of every
    support solve met by the dP3 and dP2 walks of -K - tE, for E a curve or
    a sum of two curves, equal those built with the dense pairing.  The walk
    solves for L = -K and for -E."""
    calls = _recorded_support_solves(monkeypatch)
    solved = []
    for name in ("dP3", "dP2"):
        m = get_model(name)
        curves = m.neg_curves
        table = [[intersect_oracle.intersect(m, a.cls, b.cls) for b in curves] for a in curves]
        minus_k = [intersect_oracle.intersect(m, m.minus_k(), c.cls) for c in curves]
        n = len(curves)
        for parts in [[i] for i in range(n)] + [[i, i + 1] for i in range(0, n - 1, 3)]:
            e = curves[parts[0]].cls
            for i in parts[1:]:
                e = e + curves[i].cls
            volume_profile(m, m.minus_k(), e)
            # the pairings of L = -K and of -E, by linearity from the table
            dots = [minus_k, [-sum(table[i][k] for i in parts) for k in range(n)]]
            solved += [(m, table, support, dots, pairings, res)
                       for _, support, pairings, res in calls if support]
            calls.clear()
    assert len({(m.name, tuple(m.neg_curves[k].label for k in support))
                for m, _, support, _, _, _ in solved}) == 75
    for m, table, support, dots, pairings, sols in solved:
        assert [[F(v, r) for v in n] for r, n in pairings] == dots
        coeffs = [[F(x, r) for x in xs] for r, xs, _, _ in sols]
        gram = tuple(tuple(table[i][j] for j in support) for i in support)
        assert coeffs == [solve_oracle.solve(gram, [dot[i] for i in support]) for dot in dots]
        for dot, xs, (_, _, t, p_dot) in zip(dots, coeffs, sols):
            assert [F(v, t) for v in p_dot] == [
                dot[k] - sum(x * table[i][k] for x, i in zip(xs, support))
                for k in range(len(dot))]


def test_support_solves_make_no_intersect_calls(monkeypatch):
    """A dP2 walk builds its support Gram matrices and right-hand sides from
    the cached curve vectors, without a single SurfaceModel.intersect call."""
    m = get_model("dP2")
    inside, from_solves = [False], []
    solve_support, intersect = positivity._solve_support, SurfaceModel.intersect

    def marked(*args):
        inside[0] = True
        try:
            return solve_support(*args)
        finally:
            inside[0] = False

    def counted(self, d1, d2):
        if inside[0]:
            from_solves.append((d1, d2))
        return intersect(self, d1, d2)

    monkeypatch.setattr(positivity, "_solve_support", marked)
    monkeypatch.setattr(SurfaceModel, "intersect", counted)
    calls = _recorded_support_solves(monkeypatch)
    prof = volume_profile(m, m.minus_k(), m.curve("E1"))
    assert any(ch.support for ch in prof.chambers)
    assert any(support for _, support, _, _ in calls)
    assert from_solves == []


def _walk_record(prof):
    """The profile, tau, L^2 and, for each chamber in order, lo, hi, support
    (in order), p_const, p_slope, n_coeffs and vol.  A Chamber derives the
    middle three from its integer solution, which is not canonical, on read."""
    return (prof.profile, prof.tau, prof.L2,
            [(ch.lo, ch.hi, ch.support, ch.p_const, ch.p_slope, ch.n_coeffs, ch.vol)
             for ch in prof.chambers])


def _walk_outcome(walk, m, L, E):
    """The walk's ``_walk_record``, or the type and text of its refusal."""
    try:
        prof = walk(m, L, E)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return _walk_record(prof)


def _assert_walk_matches_the_oracle(m, spec, scale=1):
    """The integer walk and the Fraction walk of walk_oracle give equal
    records (chambers with their support order, p_const, p_slope, n_coeffs
    and vol, pieces, tau), or refuse with equal types and texts."""
    rd = resolve_divisor_spec(m, spec)
    L = rd.L.scale(scale)
    got = _walk_outcome(volume_profile, rd.work, L, rd.E)
    want = _walk_outcome(walk_oracle.volume_profile, rd.work, L, rd.E)
    assert got == want, (m.name, spec, scale)


@pytest.mark.parametrize("name", builtin_names())
def test_walk_matches_the_fraction_oracle_on_catalog_specs(name):
    """Every beta candidate and curve label (every 10th curve on dP1) of a
    built-in model, at L and 2L."""
    m = get_model(name)
    labels = m.curve_labels()[::10 if name == "dP1" else 1]
    for spec in m.beta_candidates + labels:
        for scale in (1, 2):
            _assert_walk_matches_the_oracle(m, spec, scale)


def _rank_3_model(generators):
    """A model with Gram diag(1, -1, -1) and the given curve classes."""
    gram = tuple(tuple(F((i == j) * (1 if i == 0 else -1)) for j in range(3)) for i in range(3))
    return SurfaceModel(
        name="rank-3", basis_labels=("h", "a", "b"), gram=gram,
        canonical=DivClass.of([-3, 1, 1]),
        neg_curves=tuple(LabeledCurve(f"C{i}", DivClass.of(g)) for i, g in enumerate(generators)))


_GENERATOR = st.tuples(st.integers(0, 2), st.integers(-2, 1), st.integers(-2, 1))


@settings(max_examples=500, deadline=None)
@given(st.lists(_GENERATOR, min_size=3, max_size=6),
       st.tuples(st.integers(0, 4), st.integers(-2, 1), st.integers(-2, 1)),
       st.tuples(st.integers(-1, 2), st.integers(-2, 2), st.integers(-2, 2)))
def test_walk_matches_the_fraction_oracle_on_synthetic_models(generators, l, e):
    """Small synthetic models reach walks no catalogued input does, among
    them support curves that leave; the oracle keeps the order in which
    the walk once changed its support (enter, solve again, then leave)."""
    m = _rank_3_model(generators)
    L, E = DivClass.of(l), DivClass.of(e)
    assert (_walk_outcome(volume_profile, m, L, E)
            == _walk_outcome(walk_oracle.volume_profile, m, L, E))


def test_walk_lets_a_support_curve_leave(monkeypatch):
    """C1 and C3 enter at t = 0 and C3 leaves there again."""
    m = _rank_3_model([(2, -2, 0), (1, -1, -2), (0, 0, 1), (1, 1, -2), (2, 0, 0)])
    L, E = DivClass.of([2, 0, -1]), DivClass.of([2, 2, 1])
    want = walk_oracle.volume_profile(m, L, E)
    calls = _recorded_support_solves(monkeypatch)
    assert _walk_outcome(volume_profile, m, L, E) == _walk_record(want)
    assert [support for _, support, _, _ in calls] == [[], [1, 3], [1]]
    assert [ch.support for ch in want.chambers] == [("C1",)]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.fractions(min_value=0, max_value=F(5, 6), max_denominator=6),
       st.booleans(), st.integers(0, 10), st.sampled_from([1, 2]))
def test_walk_matches_the_fraction_oracle_on_pairs(n, c, resolved, pick, scale):
    """P(1,1,n)+cQ and its resolution Fn~P(1,1,n)+cQ, n = 2..4."""
    name = f"{'F%d~' % n if resolved else ''}P(1,1,{n})+{c}Q"
    m = get_model(name)
    specs = m.beta_candidates + m.curve_labels()
    _assert_walk_matches_the_oracle(m, specs[pick % len(specs)], scale)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([n for n in builtin_names() if n != "dP1"]), st.integers(0, 300),
       st.integers(0, 300), st.sampled_from([1, 2]))
def test_walk_matches_the_fraction_oracle_on_curve_sums(name, i, j, scale):
    """A raw E = C + C' of two catalogued curves at L and 2L."""
    m = get_model(name)
    curves = m.neg_curves
    e = curves[i % len(curves)].cls + curves[j % len(curves)].cls
    _assert_walk_matches_the_oracle(m, e, scale)


def test_walk_builds_fractions_for_its_records_only():
    """A dP2 walk builds O(rank + |support|) Fractions per chamber, not one
    per catalogued curve: only its records, walls and volume pieces.  The
    nef test of L reads integers, and the lattice builds a Fraction only
    for the value an ``intersect`` call returns."""
    m = get_model("dP2")
    pairings, other = [], []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == fractions.__file__ \
                and code.co_name == "__new__":
            caller = frame.f_back.f_code
            (pairings if caller.co_filename.endswith("lattice.py")
             and caller.co_name != "intersect" else other).append(caller.co_name)

    sys.setprofile(profile)
    try:
        prof = volume_profile(m, m.minus_k(), m.curve("E1"))
    finally:
        sys.setprofile(None)
    assert [len(ch.support) for ch in prof.chambers] == [0, 1]
    assert pairings == []
    assert len(other) <= sum(6 * (m.rank + len(ch.support)) + 16 for ch in prof.chambers)


def _builtin_beta_candidates():
    return [(get_model(name), spec) for name in builtin_names()
            for spec in get_model(name).beta_candidates
            if not (spec == "exceptional:pt" and get_model(name).blowup is None)]


def test_beta_and_flag_paths_never_build_p_or_n(monkeypatch):
    """P(t) and N(t) are derived only when read: with ``_minus_combination``
    refusing to run, beta on every built-in candidate, the flag verdicts and
    ``delta-flag`` give their pinned values and outputs."""
    from delpezzo.azflag import builtin_flags, semistable_via_flags
    from delpezzo.valuative import beta_report
    from test_golden_outputs import DATA, digest

    def refuse(*args):
        raise AssertionError("P(t) built on a path that does not read it")

    reports = [beta_report(m, spec) for m, spec in _builtin_beta_candidates()]
    monkeypatch.setattr(positivity, "_minus_combination", refuse)
    assert [beta_report(m, spec) for m, spec in _builtin_beta_candidates()] == reports
    verdicts = {}
    for name in ("dP3", "dP8", "P(1,1,2)", "P(1,1,2)+1/2Q"):
        rep = semistable_via_flags(get_model(name), builtin_flags(get_model(name)))
        verdicts[name] = rep.verdict, rep.bounds, rep.destabilizer
    assert verdicts == {
        "dP3": (True, (("generic", 1),), None),
        "dP8": (False, (), ("E1", F(-1, 6))),
        "P(1,1,2)": (False, (), ("exceptional", F(-1, 3))),
        "P(1,1,2)+1/2Q": (True, (("generic", 1), ("on-Q", 1), ("vertex", 1)), None),
    }
    pinned = json.loads(DATA.read_text(encoding="utf-8"))
    argvs = [["delta-flag", "--surface", "dP3", "--flag", "anticanonical-curve"]]
    argvs += [["beta", "--surface", m.name, f"--divisor-spec={spec}"]
              for m, spec in _builtin_beta_candidates()]
    for argv in argvs:
        assert digest(argv) == pinned[shlex.join(argv)], argv


def test_chamber_records_reassemble_l_minus_t_e():
    """On every chamber of every built-in beta candidate, at lo and at hi:
    L - tE = P(t) + sum n_i(t) C_i, and P(t) . C_i = 0 on the support."""
    for m, spec in _builtin_beta_candidates():
        rd = resolve_divisor_spec(m, spec)
        w = rd.work
        for ch in volume_profile(w, rd.L, rd.E).chambers:
            for t in (ch.lo, ch.hi):
                p = ch.p_const + ch.p_slope.scale(t)
                total = p
                for label, n in ch.n_coeffs:
                    total = total + w.curve(label).scale(n(t))
                assert total == rd.L - rd.E.scale(t), (m.name, spec, t)
                assert [w.intersect(p, w.curve(label)) for label in ch.support] \
                    == [0] * len(ch.support), (m.name, spec, t)


def test_chamber_derives_its_records_once_and_on_read():
    prof = profile_for(get_model("dP7"), "Ltilde")
    ch = prof.chambers[1]
    assert not {"p_const", "p_slope", "n_coeffs"} & set(vars(ch))
    assert ch.p_const is ch.p_const
    assert ch.p_slope is ch.p_slope and ch.n_coeffs is ch.n_coeffs
    assert ch.support == ("E1", "E2")


def test_not_pseudoeffective_text_is_rendered_when_read(monkeypatch):
    m = get_model("F1")
    rendered = []
    render = SurfaceModel.render

    def counted(self, d):
        rendered.append(d)
        return render(self, d)

    monkeypatch.setattr(SurfaceModel, "render", counted)
    with pytest.raises(NotPseudoeffectiveError) as err:
        zariski(m, DivClass.of([3, F(-7, 2)]))
    assert rendered == []
    assert (err.value.certificate, err.value.value) == (DivClass.of([1, -1]), F(-1, 2))
    text = "3*H - 7/2*E1 is not pseudoeffective on dP8: nef class H - E1 pairs to -1/2 < 0"
    assert str(err.value) == text
    assert len(rendered) == 2
    assert repr(err.value) == f"NotPseudoeffectiveError({text!r})"


@pytest.mark.parametrize("argv", [
    ["volfn", "--surface", "dP7", "--divisor-spec=-E1"],
    ["beta", "--surface", "dP7", "--divisor-spec=K"],
])
def test_non_effective_divisor_is_a_usage_error(capsys, argv):
    from delpezzo.cli import run
    report, code = run(argv)
    assert report is None and code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: E = ") and "is not effective on dP7" in err
