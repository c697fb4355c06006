"""The reproduction corpus behind the reproduce-paper subcommand.

Every value the engine is expected to reproduce is a row here: exact
rational equalities, certificate re-verifications and the property
suites (Zariski certificates, profile identities, curve counts,
double-route integration).  Rows never raise; failures are reported as
failing rows.  Output is deterministic for a fixed seed.

Each row's check is a module-level function; ``build_rows`` lists the
rows in report order, binding the seed into the seeded checks, so that
every ``Row.fn`` takes no argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Callable, Mapping

from . import azflag, gitcubic, localvol, positivity, valuative
from .catalog import builtin_names, catalog_names, get_model, validate_links
from .exactnum import Poly, PiecewisePoly, rat_str
from .lattice import DivClass, SurfaceModel, enumerate_neg_curves
from .localvol import QuotientSing, markov_tree, parse_sing, wps_volume


@dataclass(frozen=True)
class Row:
    section: int
    ident: str
    description: str
    fn: Callable[[], tuple[bool, str]]


def _eq(got, want) -> tuple[bool, str]:
    ok = got == want
    return ok, f"got {got}" + ("" if ok else f", want {want}")


def _catalog_check(name: str, extra: Mapping[str, SurfaceModel] | None):
    m = get_model(name, extra=extra)
    problems = m.validate() or validate_links(m)
    return not problems, "invariants hold" if not problems else "; ".join(problems)


def _simpson_integral(pp: PiecewisePoly) -> Fraction:
    # Independent integration route: Simpson is exact for degree <= 3.
    total = Fraction(0)
    for i, piece in enumerate(pp.pieces):
        a, b = pp.breakpoints[i], pp.breakpoints[i + 1]
        total += (b - a) / 6 * (piece(a) + 4 * piece((a + b) / 2) + piece(b))
    return total


def _double_route(seed: int):
    rng = random.Random(seed ^ 0x5ee)
    for i in range(50):
        k = rng.randint(1, 4)
        bps = sorted(rng.sample(range(-8, 9), k + 1))
        pieces = []
        prev = None
        for j in range(k):
            c2 = Fraction(rng.randint(-4, 4))
            c1 = Fraction(rng.randint(-6, 6))
            if prev is None:
                c0 = Fraction(rng.randint(-9, 9))
            else:
                # match the value at the shared breakpoint for continuity
                t = Fraction(bps[j])
                c0 = prev(t) - c1 * t - c2 * t * t
            p = Poly([c0, c1, c2])
            pieces.append(p)
            prev = p
        pp = PiecewisePoly(bps, pieces)
        lo, hi = pp.domain
        if pp.integrate(lo, hi) != _simpson_integral(pp):
            return False, f"mismatch on sample {i}"
    return True, "50 random piecewise quadratics agree with Simpson route"


def _discrepancies_and_kind(spec: str):
    g = valuative.named_graph(spec)
    return valuative.discrepancies(g), valuative.classify(g).kind


def _first_discrepancies(spec: str, ns: range) -> dict[int, Fraction]:
    return {n: valuative.discrepancies(valuative.named_graph(spec.format(n)))[0]
            for n in ns}


def _genus2_cone():
    cls = valuative.classify(valuative.named_graph("cone-genus:2"))
    return _eq((cls.kind, cls.min_discrepancy), ("not-lc", Fraction(-3)))


def _lcts():
    germ = valuative.PlaneCurveGerm.from_terms
    got = {
        "cusp": valuative.lct_newton(germ({(0, 2): 1, (3, 0): -1})),
        "node": valuative.lct_newton(germ({(1, 1): 1})),
        "y2-x4": valuative.lct_newton(germ({(0, 2): 1, (4, 0): -1})),
    }
    want = {"cusp": Fraction(5, 6), "node": Fraction(1), "y2-x4": Fraction(3, 4)}
    for n in range(3, 7):
        got[f"y2-x{n}"] = valuative.lct_newton(germ({(0, 2): 1, (n, 0): -1}))
        want[f"y2-x{n}"] = min(Fraction(1), Fraction(n + 2, 2 * n))
    for n in range(2, 7):
        got[f"{n}-lines"] = valuative.lct_n_lines(n)
        want[f"{n}-lines"] = Fraction(2, n)
    return _eq(got, want)


def _p2_profile(spec: str, coeffs: list[str]):
    prof = valuative.profile_for(get_model("P2"), spec)
    want = [{"from": "0", "to": "3", "coeffs": coeffs}]
    return _eq((prof.profile.to_report(), rat_str(prof.tau)), (want, "3"))


def _dp7_profile():
    prof = valuative.profile_for(get_model("dP7"), "Ltilde")
    breaks = [rat_str(b) for b in prof.profile.breakpoints]
    integral = prof.profile.integrate(0, prof.tau)
    ok = breaks == ["0", "1", "3"] and integral == Fraction(25, 3)
    return ok, f"breakpoints {breaks}, integral {rat_str(integral)}"


def _dp7_zariski():
    m = get_model("dP7")
    dec = positivity.zariski(m, DivClass.of([1, 1, 1]))
    ok = (dec.positive == DivClass.of([1, 0, 0])
          and dict(dec.negative) == {"E1": Fraction(1), "E2": Fraction(1)})
    return ok, (f"P = {m.render(dec.positive)}, "
                f"N = {{{', '.join(f'{l}:{rat_str(c)}' for l, c in dec.negative)}}}")


def _not_pseff():
    m = get_model("dP8")
    try:
        positivity.zariski(m, DivClass.of([3, Fraction(-7, 2)]))
        return False, "expected a non-pseudoeffective error"
    except positivity.NotPseudoeffectiveError as e:
        return (e.value < 0,
                f"certificate {m.render(e.certificate)} pairs to {rat_str(e.value)}")


def _profile_suite() -> list[tuple[SurfaceModel, str]]:
    """(model, spec) for each built-in's beta candidates, the half-boundary
    pair's and the cubic's anticanonical curve."""
    models = [get_model(name) for name in builtin_names() + ["P(1,1,2)+1/2Q"]]
    return ([(m, spec) for m in models for spec in m.beta_candidates]
            + [(get_model("dP3"), "anticanonical-curve")])


def _certificates():
    bad = []
    specs = _profile_suite()
    for m, spec in specs:
        inv = valuative.invariants(m, spec)
        rd, prof = inv.divisor, inv.profile
        total_pe = Fraction(0)
        for i, ch in enumerate(prof.chambers):
            mid = (ch.lo + ch.hi) / 2
            d_t = rd.L - rd.E.scale(mid)
            dec = positivity.zariski(rd.work, d_t)
            if dec.verify(rd.work, d_t):
                bad.append(f"{m.name}/{spec}: certificate fails at t={rat_str(mid)}")
            if rd.work.intersect(dec.positive, dec.positive) != prof.profile(mid):
                bad.append(f"{m.name}/{spec}: profile disagrees with zariski at midpoint")
            pe = Poly([rd.work.intersect(ch.p_const, rd.E),
                       rd.work.intersect(ch.p_slope, rd.E)])
            if prof.profile.pieces[i].derivative() != Poly([0]) - 2 * pe:
                bad.append(f"{m.name}/{spec}: derivative identity fails on chamber {i}")
            total_pe += pe.integrate(ch.lo, ch.hi)
        if 2 * total_pe != prof.L2:
            bad.append(f"{m.name}/{spec}: mass identity 2*int(P.E) != L^2")
    return (not bad, f"{len(specs)} catalogued (L, E) pairs verified" if not bad
            else "; ".join(bad[:4]))


def _lower_bound():
    bad = []
    for m in map(get_model, builtin_names()):
        if m.blowup is None:
            continue
        prof = valuative.profile_for(m, "exceptional:pt")
        pts = list(prof.profile.breakpoints)
        pts += [(a + b) / 2 for a, b in zip(pts, pts[1:])]
        bad += [f"{m.name} at t={rat_str(t)}" for t in pts
                if prof.profile(t) < prof.L2 - t * t]
    return (not bad, "vol(L - tE) >= L^2 - t^2 at all breakpoints and midpoints"
            if not bad else "; ".join(bad))


def _beta(name: str, spec: str) -> Fraction:
    return valuative.invariants(get_model(name), spec).beta


def _beta_p2():
    rep = valuative.beta_report(get_model("P2"), "exceptional:pt")
    return _eq((rep["A"], rep["S"], rep["beta"]), (Fraction(2), Fraction(2), Fraction(0)))


def _dp7_certificate():
    m = get_model("dP7")
    return _eq(valuative.unstable_certificate(m, m.beta_candidates),
               ("L12", Fraction(-4, 21)))


def _dp7_exceptionals():
    b1, b2 = _beta("dP7", "E1"), _beta("dP7", "E2")
    return (b1 == b2 == Fraction(-2, 21),
            f"beta(E1) = beta(E2) = {rat_str(b1)} (additional destabilizers)")


def _wps_unstable():
    vals = {n: _beta(f"P(1,1,{n})", "exceptional") for n in range(2, 7)}
    ok = all(v < 0 for v in vals.values()) and vals[2] == Fraction(-1, 3)
    return ok, ", ".join(f"n={n}: {rat_str(v)}" for n, v in vals.items())


def _pair_betas():
    details = []
    ok = True
    for c in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        name = f"P(1,1,2)+{rat_str(c)}Q"
        be, bq = _beta(name, "exceptional"), _beta(name, "Q")
        ok = ok and be == (2 * c - 1) / 3 and bq == (1 - 2 * c) / 3
        ok = ok and ((be == 0) == (c == Fraction(1, 2)))
        details.append(f"c={rat_str(c)}: beta(E)={rat_str(be)} beta(Q)={rat_str(bq)}")
    return ok, "; ".join(details)


def _stability_table():
    reasons = {
        9: ("polystable", "literature (equivariant threshold)"),
        8: ("unstable (F1)", "beta(E1) = -1/6"),
        7: ("unstable", "beta(line) = -4/21"),
        6: ("polystable", "literature (equivariant threshold)"),
        5: ("stable", "literature"),
        4: ("stable", "literature (threshold bound)"),
    }
    checks = (_beta("dP8", "E1") == Fraction(-1, 6)
              and _beta("dP7", "Ltilde") == Fraction(-4, 21))
    return checks, "; ".join(f"deg {d}: {v} [{r}]" for d, (v, r) in reasons.items())


def _cubic_flag():
    m = get_model("dP3")
    flags = azflag.builtin_flags(m)
    flag, _ = flags[0]
    s_wp = azflag.restricted_S(flag, "generic")
    bound = azflag.delta_p_lower_bound(flag, "generic")
    rep = azflag.semistable_via_flags(m, flags)
    ok = (flag.inv.S == Fraction(1, 3) and flag.inv.delta == 3
          and s_wp == 1 and bound == 1 and rep.verdict)
    return ok, (f"S(E) = {rat_str(flag.inv.S)}, A/S = {rat_str(flag.inv.delta)}, "
                f"S(W;p) = {rat_str(s_wp)}, bound = min(3, 1) = {rat_str(bound)}")


def _pair_flags():
    m = get_model("P(1,1,2)+1/2Q")
    flags = azflag.builtin_flags(m)
    ruling, _ = flags[0]
    exc, _ = flags[1]
    vals = {
        "S(ruling)": ruling.inv.S,
        "S(W;generic)": azflag.restricted_S(ruling, "generic"),
        "bound(generic)": azflag.delta_p_lower_bound(ruling, "generic"),
        "bound(on-Q)": azflag.delta_p_lower_bound(ruling, "on-Q"),
        "S(e)": exc.inv.S,
        "S(W;p on e)": azflag.restricted_S(exc, "generic"),
        "bound(vertex)": azflag.delta_p_lower_bound(exc, "generic"),
    }
    want = {
        "S(ruling)": Fraction(1),
        "S(W;generic)": Fraction(1, 2),
        "bound(generic)": Fraction(1),
        "bound(on-Q)": Fraction(1),
        "S(e)": Fraction(1),
        "S(W;p on e)": Fraction(1),
        "bound(vertex)": Fraction(1),
    }
    verdict = azflag.semistable_via_flags(m, flags).verdict
    ok = vals == want and verdict
    return ok, ", ".join(f"{k} = {rat_str(v)}" for k, v in vals.items())


def _f1_short_circuit():
    m = get_model("dP8")
    rep = azflag.semistable_via_flags(m, azflag.builtin_flags(m))
    return _eq((rep.verdict, rep.destabilizer), (False, ("E1", Fraction(-1, 6))))


def _markov_depth3():
    got = {t.triple for t in markov_tree(3)}
    ok = (1, 5, 13) in got and (2, 5, 29) in got
    return ok, f"{len(got)} triples, contains (1,5,13) and (2,5,29)"


def _markov_squares():
    for t in markov_tree(6):
        a, b, c = t.triple
        if wps_volume(a * a, b * b, c * c) != 9:
            return False, f"volume != 9 at {t.triple}"
    n = len(markov_tree(6))
    return True, f"all {n} triples to depth 6 give weighted planes of volume 9"


def _markov_involution(seed: int):
    # mutating twice at a fixed coordinate must return the parent values
    rng = random.Random(seed ^ 0xa11)
    pool = markov_tree(10)
    for _ in range(1000):
        t = pool[rng.randrange(len(pool))]
        i = rng.randrange(3)
        vals = list(t.triple)
        others = [v for j, v in enumerate(vals) if j != i]
        once = 3 * others[0] * others[1] - vals[i]
        twice = 3 * others[0] * others[1] - once
        if twice != vals[i]:
            return False, f"involution fails at {t.triple} coord {i}"
    return True, "mutation applied twice at a fixed coordinate is the identity " \
                 "on 1000 sampled nodes"


def _nvols():
    got = {
        "smooth": localvol.nvol_quotient(QuotientSing(1)),
        "A1": localvol.nvol_quotient(parse_sing("A1")),
        "1/3(1,1)": localvol.nvol_quotient(parse_sing("1/3(1,1)")),
    }
    want = {"smooth": Fraction(4), "A1": Fraction(2), "1/3(1,1)": Fraction(4, 3)}
    return _eq(got, want)


def _monomial():
    got = (localvol.monomial_nvol(1, 1), localvol.monomial_nvol(1, 2),
           localvol.monomial_nvol(Fraction(7, 3), Fraction(7, 3)))
    return _eq(got, (Fraction(4), Fraction(9, 2), Fraction(4)))


def _local_global():
    p112 = localvol.local_global_check(8, [parse_sing("A1")])
    p2 = localvol.local_global_check(9, [])
    cubic = localvol.local_global_check(3, [parse_sing("A2")])
    ok = (not p112.passed and p112.margin == Fraction(7, 2)
          and p2.passed and p2.margin == 0
          and cubic.passed and cubic.margin == 0)
    return ok, (f"quadric cone fails by {rat_str(p112.margin)} (8 > 9/2); "
                "plane and A2-cubic pass with equality")


def _budgets():
    b3, b9, b8, b2 = ([s.display for s in localvol.singularity_budget(d)]
                      for d in (3, 9, 8, 2))
    ok = (b3 == ["smooth", "A1", "A2"] and b9 == ["smooth"] and b8 == ["smooth"]
          and "1/4(1,1)" in b2 and "A3" in b2)
    return ok, f"budget(3) = {b3}, budget(9) = {b9}, budget(2) = {b2}"


def _t_singularities():
    got = {s: localvol.is_T_singularity(parse_sing(s))
           for s in ("1/4(1,1)", "1/4(1,3)", "1/3(1,1)")}
    ak = all(localvol.is_T_singularity(parse_sing(f"A{k}")) for k in range(1, 13))
    ok = got == {"1/4(1,1)": True, "1/4(1,3)": True, "1/3(1,1)": False} and ak
    return ok, f"{got}, A_k smoothable for k <= 12"


def _p114():
    rep3 = valuative.p114_pair_report(3)
    rep2 = valuative.p114_pair_report(2)
    ok = (rep3["beta_exceptional"]["slope_in_c"] == Fraction(1)
          and rep3["beta_exceptional"]["constant"] == Fraction(-1, 2)
          and rep3["covers_full_log_fano_range"]
          and rep2["covers_full_log_fano_range"]
          and rep3["index_bound_semistable_needs"] == Fraction(1, 4))
    return ok, (f"beta(e)(c) = -1/2 + c(2d-3)/3; full-range certificate for "
                f"d <= 3; index bound c >= 3/(4d) "
                f"(= {rat_str(rep3['index_bound_semistable_needs'])} at d = 3)")


_CUBIC_MONOMIALS = tuple(e for e in product(range(4), repeat=4) if sum(e) == 3)


def _git_normal_forms():
    f_none = gitcubic.torus_destabilizer(gitcubic.FERMAT)
    t_none = gitcubic.torus_destabilizer(gitcubic.TRIPLE_A2)
    cone_w = gitcubic.torus_destabilizer(gitcubic.CONE_PLANE_CUBIC)
    ok = (f_none is None and t_none is None and cone_w is not None
          and gitcubic.hm_weight(gitcubic.CONE_PLANE_CUBIC, cone_w) > 0)
    return ok, (f"fermat: none; xyz - w^3: none; cone: witness "
                f"{cone_w.weights if cone_w else None}")


def _git_weights():
    got = (gitcubic.hm_weight(gitcubic.FERMAT, gitcubic.OnePS((3, -1, -1, -1))),
           gitcubic.hm_weight(gitcubic.FERMAT, gitcubic.OnePS((0, 0, 0, 0))),
           gitcubic.hm_weight(gitcubic.TRIPLE_A2, gitcubic.OnePS((1, 1, 1, -3))))
    return _eq(got, (Fraction(-3), Fraction(0), Fraction(-9)))


def _git_cone_forms(seed: int):
    rng = random.Random(seed ^ 0x917)
    for i in range(4):
        sub = [e for e in _CUBIC_MONOMIALS if e[i] == 0]
        supp = rng.sample(sub, 4)
        f = gitcubic.CubicForm.from_terms({e: Fraction(1) for e in supp})
        w = gitcubic.torus_destabilizer(f)
        if w is None or gitcubic.hm_weight(f, w) <= 0:
            return False, f"no witness for a form omitting variable {i}"
    return True, "forms omitting one variable always carry a positive witness"


def _git_lp_certificates(seed: int):
    # each verdict re-checks its certificate, and raises if it fails
    rng = random.Random(seed)
    unstable = 0
    for _ in range(100):
        k = rng.randint(1, 6)
        supp = rng.sample(_CUBIC_MONOMIALS, k)
        f = gitcubic.CubicForm.from_terms(
            {e: Fraction(rng.randint(-5, 5) or 1) for e in supp})
        unstable += gitcubic.torus_destabilizer(f) is not None
    return True, (f"{unstable} unstable with a witness of positive weight, "
                  f"{100 - unstable} semistable with a re-checked hull point")


def _git_verdict_table():
    got = {r["name"]: r["torus_verdict"] for r in gitcubic.catalog_verdicts()}
    return _eq(got, {"fermat": "torus-semistable", "xyz-w3": "torus-semistable",
                     "cone-plane-cubic": "torus-unstable"})


def build_rows(seed: int, extra: Mapping[str, SurfaceModel] | None = None) -> list[Row]:
    """The corpus in report order: a validation row per catalog model, then
    the fixed rows."""
    rows = [Row(1, f"catalog:{name}",
                f"model {name}: gram signature (1, rank-1) and cone invariants",
                partial(_catalog_check, name, extra))
            for name in catalog_names(extra)]
    return rows + [
        Row(1, "exactnum:double-route",
            "piecewise integration agrees with an independent exact rule",
            partial(_double_route, seed)),
        Row(3, "lattice:curve-counts",
            "(-1)-curve counts for 1..8 blown-up points are (1,3,6,10,16,27,56,240)",
            lambda: _eq([len(enumerate_neg_curves(k)) for k in range(1, 9)],
                        [1, 3, 6, 10, 16, 27, 56, 240])),
        Row(2, "discrep:quadric-cone", "quadric cone has discrepancy 0 (canonical)",
            lambda: _eq(_discrepancies_and_kind("quadric-cone"),
                        ([Fraction(0)], "canonical"))),
        Row(2, "discrep:elliptic-cone", "elliptic cone has discrepancy -1 (log canonical)",
            lambda: _eq(_discrepancies_and_kind("elliptic-cone"), ([Fraction(-1)], "lc"))),
        Row(2, "discrep:rnc-cones",
            "cones over degree-n rational normal curves: a = (2-n)/n, n = 1..6",
            lambda: _eq(_first_discrepancies("rnc-cone:{}", range(1, 7)),
                        {n: Fraction(2 - n, n) for n in range(1, 7)})),
        Row(2, "discrep:genus2-cone",
            "cone over a genus-2 curve is not log canonical (a = -3)", _genus2_cone),
        Row(2, "discrep:an-chains", "A_n chains are canonical with minimal discrepancy 0",
            lambda: _eq({n: valuative.classify(valuative.named_graph(f"An:{n}")).kind
                         for n in range(1, 6)}, {n: "canonical" for n in range(1, 6)})),
        Row(2, "discrep:cone-with-ruling", "cone plus a ruling: a = (1-n)/n, n = 2..5",
            lambda: _eq(_first_discrepancies("rnc-cone:{}+ruling", range(2, 6)),
                        {n: Fraction(1 - n, n) for n in range(2, 6)})),
        Row(2, "lct:germ-corpus",
            "thresholds: cusp 5/6, node 1, y^2 - x^n, and n lines (2/n)", _lcts),
        Row(3, "vol:p2-profile",
            "profile of the plane against a blown-up point is 9 - t^2 on [0,3] with "
            "threshold 3", partial(_p2_profile, "exceptional:pt", ["9", "0", "-1"])),
        Row(3, "vol:p2-line", "profile against a line is (3 - t)^2 on [0,3]",
            partial(_p2_profile, "line", ["9", "-6", "1"])),
        Row(3, "vol:dp7-two-chambers",
            "degree-7 line profile crosses a wall at t = 1 and integrates to 25/3",
            _dp7_profile),
        Row(3, "vol:dp7-zariski", "anticanonical minus twice the line: N = E1 + E2, P = H",
            _dp7_zariski),
        Row(3, "vol:not-pseff-certificate",
            "beyond the threshold the class leaves the effective cone with a nef "
            "certificate", _not_pseff),
        Row(3, "vol:certificates",
            "Zariski certificates, derivative identity and mass identity hold on every "
            "catalogued profile", _certificates),
        Row(6, "nvol:smooth-point-lower-bound",
            "smooth-point blow-up profiles dominate L^2 - t^2", _lower_bound),
        Row(3, "beta:p2-exceptional",
            "plane against a blown-up point: A = 2, S = 2, beta = 0",
            _beta_p2),
        Row(3, "beta:p2-line", "plane against a line: beta = 0",
            lambda: _eq(_beta("P2", "line"), Fraction(0))),
        Row(3, "beta:f1-exceptional",
            "degree-8 blow-up is destabilized by its exceptional: beta = -1/6",
            lambda: _eq(_beta("dP8", "E1"), Fraction(-1, 6))),
        Row(3, "beta:dp7-line",
            "degree 7 is destabilized by the line through both points: beta = -4/21",
            lambda: _eq(_beta("dP7", "Ltilde"), Fraction(-4, 21))),
        Row(3, "beta:dp7-certificate",
            "catalogued candidate scan returns the line with beta = -4/21",
            _dp7_certificate),
        Row(3, "beta:dp7-exceptionals",
            "the exceptional curves of degree 7 also destabilize (beta = -2/21 each)",
            _dp7_exceptionals),
        Row(3, "beta:p1xp1-point", "quadric against a blown-up point: beta = 0",
            lambda: _eq(_beta("P1xP1", "exceptional:pt"), Fraction(0))),
        Row(3, "beta:wps-unstable",
            "cones over rational normal curves are destabilized by the exceptional "
            "(n = 2..6)", _wps_unstable),
        Row(3, "beta:quadric-cone-pair",
            "boundary pair on the quadric cone: beta(E) = (2c-1)/3 and beta(Q) = "
            "(1-2c)/3, vanishing only at c = 1/2", _pair_betas),
        Row(3, "beta:stability-table",
            "degree/stability table with computable destabilizer reasons",
            _stability_table),
        Row(4, "flag:cubic-anticanonical",
            "cubic surface: anticanonical flag gives delta_p >= min(3,1) = 1, certifying "
            "semistability", _cubic_flag),
        Row(4, "flag:quadric-cone-pair",
            "half-boundary quadric cone: ruling and exceptional flags give bound 1 "
            "everywhere (semistable)", _pair_flags),
        Row(4, "flag:f1-short-circuit",
            "the degree-8 blow-up reports its destabilizer regardless of flags",
            _f1_short_circuit),
        Row(5, "markov:depth-2", "depth-2 mutation tree is (1,1,1), (1,1,2), (1,2,5)",
            lambda: _eq([t.triple for t in markov_tree(2)],
                        [(1, 1, 1), (1, 1, 2), (1, 2, 5)])),
        Row(5, "markov:depth-3", "depth 3 contains (1,5,13) and (2,5,29)", _markov_depth3),
        Row(5, "markov:square-volumes",
            "squared Markov triples give anticanonical volume 9", _markov_squares),
        Row(5, "markov:involution",
            "coordinate mutations are involutions (1000 seeded samples)",
            partial(_markov_involution, seed)),
        Row(6, "nvol:quotients", "normalized volumes: smooth 4, A1 2, 1/3(1,1) 4/3",
            _nvols),
        Row(6, "nvol:monomial",
            "monomial valuations: (1,1) -> 4, (1,2) -> 9/2, equal weights -> 4", _monomial),
        Row(6, "nvol:local-global",
            "volume bound: 8 > 9/2 fails the quadric cone; the plane and the A2 cubic "
            "meet it with equality", _local_global),
        Row(6, "nvol:budgets",
            "degree budgets: cubic admits smooth/A1/A2 only (1/3(1,1) not smoothable); "
            "degrees 8 and 9 must be smooth", _budgets),
        Row(6, "nvol:t-singularities",
            "smoothability: 1/4(1,1) and 1/4(1,3) yes, 1/3(1,1) no, A_k always",
            _t_singularities),
        Row(6, "nvol:p114-pairs",
            "weighted-plane pair report: exceptional beta and index bound (self-certified)",
            _p114),
        Row(6, "git:normal-forms",
            "no torus destabilizer for the smooth and toric forms; cones have a "
            "re-verified witness", _git_normal_forms),
        Row(6, "git:weights",
            "minimal pairings: fermat/(3,-1,-1,-1) -> -3, trivial -> 0, (xyz - w^3)/"
            "(1,1,1,-3) -> -9", _git_weights),
        Row(6, "git:cone-forms",
            "every cubic omitting a variable is torus-unstable with a verified witness",
            partial(_git_cone_forms, seed)),
        Row(6, "git:lp-certificates",
            "each exact-LP verdict on 100 random forms rests on its own certificate",
            partial(_git_lp_certificates, seed)),
        Row(6, "git:verdict-table",
            "shipped normal-form table recomputes its torus verdicts",
            _git_verdict_table),
    ]


def run_corpus(seed: int, extra: Mapping[str, SurfaceModel] | None = None,
               section: int | None = None) -> dict:
    """Execute the reproduction rows; failures become failing rows, never raises."""
    out_rows = []
    failed = 0
    for row in build_rows(seed, extra):
        if section is not None and row.section != section:
            continue
        try:
            ok, detail = row.fn()
        except Exception as exc:  # report, never crash the table
            ok, detail = False, f"error: {exc}"
        if not ok:
            failed += 1
        out_rows.append({
            "section": row.section,
            "id": row.ident,
            "check": row.description,
            "result": detail,
            "status": "pass" if ok else "FAIL",
        })
    return {
        "rows": out_rows,
        "total": len(out_rows),
        "passed": len(out_rows) - failed,
        "failed": failed,
    }
