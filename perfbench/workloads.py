"""The four seeded workloads: their inputs, requests and output checks.

Each workload's ``setup(pkg, seed)`` draws its inputs from ``seed`` and returns
the fixed request list one pass runs.  A ``Request`` pairs the timed call into
the program (``do``) with an untimed ``check`` that returns whether the output
is correct and its rendered form, which feeds the determinism digest.

Inputs are stratified: every pass holds a fixed number of requests per surface
and per outcome, and the seed picks which curves, classes and forms fill each
stratum.  Per-request cost differs by orders of magnitude between surfaces
(dP1 against dP6), so a free draw would make a pass's cost depend on the seed.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Request:
    label: str
    do: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]
    section: int = 0  # reproduce-paper section, for corpus rows


def _fail(exc: BaseException) -> tuple[bool, str]:
    return False, f"error: {type(exc).__name__}: {exc}"


# --- corpus -------------------------------------------------------------------

def corpus(pkg, seed: int, **_) -> list[Request]:
    """The reproduce-paper rows; each row is one request and must pass."""
    def request(row):
        def check(result):
            ok, detail = result
            return ok, f"{row.ident}|{ok}|{detail}"
        return Request(row.ident, row.fn, check, row.section)
    return [request(row) for row in pkg.reproduce.build_rows(seed)]


# --- invariants ---------------------------------------------------------------

# Every curve label on dP7-dP4, and every k-th label on dP3 and dP2, where a
# profile costs 25-70 ms and 0.17-0.32 s depending on the curve; one seed-drawn
# raw class per surface in INVARIANT_RAW.  The dP3 and dP2 curves are fixed, not
# drawn: which of them a seed drew moved the 90th percentile by 18% from seed
# to seed.  The median request sits inside the dP5 block (about 25 ms).
INVARIANT_ALL_CURVES = ("dP7", "dP6", "dP5", "dP4")
INVARIANT_EVERY = {"dP3": 3, "dP2": 6}
INVARIANT_RAW = ("dP7", "dP6", "dP5", "dP4", "dP3")
PAIR_MODELS = ("P(1,1,2)+1/2Q",)
SEMISTABLE = ("dP3", "dP8", "P(1,1,2)", "P(1,1,2)+1/2Q")
F = Fraction
# Values the README and acceptance suite pin.
PINNED_BETA = {("dP7", "L12"): F(-4, 21), ("dP8", "E1"): F(-1, 6),
               ("dP9", "exceptional:pt"): F(0)}
PINNED_SEMISTABLE = {
    "dP3": (True, (("generic", F(1)),), None),
    "dP8": (False, (), ("E1", F(-1, 6))),
    "P(1,1,2)": (False, (), ("exceptional", F(-1, 3))),
    "P(1,1,2)+1/2Q": (True, (("generic", F(1)), ("on-Q", F(1)), ("vertex", F(1))), None),
}


def _invariant_pairs(pkg, rng: random.Random) -> list[tuple[str, object, str]]:
    """(surface, spec, label): every resolvable beta candidate, curve labels and
    seed-drawn raw classes (a sum of two curves)."""
    cat = pkg.catalog
    pairs = []
    for name in cat.builtin_names() + list(PAIR_MODELS):
        m = cat.get_model(name)
        for spec in m.beta_candidates:
            if spec == "exceptional:pt" and m.blowup is None:
                continue  # no catalogued point blow-up (dP1)
            pairs.append((m.name, spec, spec))
    for name in INVARIANT_ALL_CURVES:
        pairs += [(name, label, label) for label in cat.get_model(name).curve_labels()]
    for name, k in INVARIANT_EVERY.items():
        pairs += [(name, label, label) for label in cat.get_model(name).curve_labels()[::k]]
    for name in INVARIANT_RAW:
        m = cat.get_model(name)
        a, b = rng.sample(m.neg_curves, 2)
        pairs.append((name, a.cls + b.cls, f"raw:{a.label}+{b.label}"))
    return pairs


def _check_profile(pkg, m, spec, rep, prof) -> list[str]:
    """Identities every profile must satisfy, checked from outside."""
    rd = pkg.valuative.resolve_divisor_spec(m, spec)
    w = rd.work
    l2 = w.intersect(rd.L, rd.L)
    problems = []
    if rep["beta"] != rep["A"] - rep["S"]:
        problems.append("beta != A - S")
    if prof.profile.integrate(0, prof.tau) / l2 != rep["S"]:
        problems.append("S != int vol / L^2")
    mass = F(0)
    for ch in prof.chambers:
        pe = pkg.exactnum.Poly([w.intersect(ch.p_const, rd.E), w.intersect(ch.p_slope, rd.E)])
        mass += 2 * pe.integrate(ch.lo, ch.hi)
        dvol = ch.vol.derivative()
        if any(dvol.coeff(k) != -2 * pe.coeff(k) for k in range(3)):
            problems.append(f"vol' != -2 P.E on [{ch.lo}, {ch.hi}]")
    if mass != l2:
        problems.append(f"2 int P.E = {mass} != L^2 = {l2}")
    return problems


def invariants(pkg, seed: int, **_) -> list[Request]:
    """beta_report + profile_for per pair, and flag semistability; no LP."""
    rng = random.Random(seed)
    val, az, cat = pkg.valuative, pkg.azflag, pkg.catalog
    requests = []
    for name, spec, label in _invariant_pairs(pkg, rng):
        m = cat.get_model(name)

        def do(m=m, spec=spec):
            return val.beta_report(m, spec), val.profile_for(m, spec)

        def check(result, name=name, m=m, spec=spec, label=label):
            rep, prof = result
            problems = _check_profile(pkg, m, spec, rep, prof)
            want = PINNED_BETA.get((name, label))
            if want is not None and rep["beta"] != want:
                problems.append(f"beta {rep['beta']} != pinned {want}")
            if (name, label) == ("dP9", "exceptional:pt"):
                pieces = [(str(p["from"]), str(p["to"]), [str(c) for c in p["coeffs"]])
                          for p in prof.profile.to_report()]
                if pieces != [("0", "3", ["9", "0", "-1"])]:
                    problems.append(f"P2 profile {pieces} != 9 - t^2 on [0, 3]")
            rendered = (f"{name}|{label}|{rep['A']}|{rep['S']}|{rep['beta']}|"
                        f"{prof.tau}|{prof.profile.to_report()}")
            return not problems, rendered + ("|" + "; ".join(problems) if problems else "")

        requests.append(Request(f"{name}:{label}", do, check))
    for name in SEMISTABLE:
        m = cat.get_model(name)

        def do(m=m):
            return az.semistable_via_flags(m, az.builtin_flags(m))

        def check(rep, name=name):
            got = (rep.verdict, rep.bounds, rep.destabilizer)
            return got == PINNED_SEMISTABLE[name], f"{name}|{rep.as_dict()}"

        requests.append(Request(f"semistable:{name}", do, check))
    rng.shuffle(requests)
    return requests


# --- certify ------------------------------------------------------------------

# Each curve gives one request below tau and one above, at fractions of tau.
# Every (-1)-curve on dP6-dP3 is used, the i-th at INSIDE[i % 5] and
# OUTSIDE[i % 5]: a request's cost there depends on both the curve and t (up to
# 8x), and drawing either moved the median by 10% from seed to seed.  dP2
# (0.1 s below tau) gets a seed-drawn 8 of its 56 at seed-drawn fractions; its
# requests lie above the 90th percentile (below tau) or in the dense middle
# (above tau), where the draw moves neither.  The 90th percentile falls inside
# the block of dP3 requests below tau.
# dP1 is one fixed curve: a single dP1 request costs 0.02-2.2 s depending on
# the curve, which would make a pass's cost a function of the seed.
CERTIFY_ALL_CURVES = ("dP6", "dP5", "dP4", "dP3")
CERTIFY_CURVES = {"dP2": 8}
CERTIFY_FIXED = {"dP1": ("C120", F(1, 2), F(3, 2))}
INSIDE = (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4))
OUTSIDE = (F(5, 4), F(4, 3), F(3, 2), F(2), F(3))


def certify(pkg, seed: int, **_) -> list[Request]:
    """zariski(m, L - tC) below tau (decomposition) and above it (refusal)."""
    rng = random.Random(seed)
    pos, cat = pkg.positivity, pkg.catalog
    draws = []
    for name in CERTIFY_ALL_CURVES:
        m = cat.get_model(name)
        draws += [(m, c, INSIDE[i % len(INSIDE)], OUTSIDE[i % len(OUTSIDE)])
                  for i, c in enumerate(m.neg_curves)]
    for name, k in CERTIFY_CURVES.items():
        m = cat.get_model(name)
        for c in rng.sample(m.neg_curves, k):
            draws.append((m, c, rng.choice(INSIDE), rng.choice(OUTSIDE)))
    for name, (label, u_in, u_out) in CERTIFY_FIXED.items():
        m = cat.get_model(name)
        c = next(c for c in m.neg_curves if c.label == label)
        draws.append((m, c, u_in, u_out))
    requests = []
    for m, c, u_in, u_out in draws:
        L = m.polarization()
        tau = pos.pseff_threshold(m, L, c.cls)
        for t, inside in ((tau * u_in, True), (tau * u_out, False)):
            d = L - c.cls.scale(t)

            def do(m=m, d=d):
                try:
                    return pos.zariski(m, d)
                except pos.NotPseudoeffectiveError as exc:
                    return exc

            def check(res, m=m, d=d, inside=inside, label=f"{m.name}|{c.label}|{t}"):
                if isinstance(res, pos.NotPseudoeffectiveError):
                    w = res.certificate
                    ok = (not inside
                          and all(m.intersect(w, g.cls) >= 0 for g in m.neg_curves)
                          and m.intersect(w, d) < 0 and m.intersect(w, d) == res.value)
                    return ok, f"{label}|out|{m.render(w)}|{res.value}"
                ok = inside and res.verify(m, d) == []
                return ok, f"{label}|in|{m.render(res.positive)}|{res.negative}"

            requests.append(Request(f"{m.name}:{c.label}:{t}", do, check))
    rng.shuffle(requests)
    return requests


# --- cli ----------------------------------------------------------------------

def _results(stdout: str) -> dict:
    return json.loads(stdout)["results"]


# README example commands with the values the README pins.
README_COMMANDS = [
    (["catalog", "list"], lambda r: len(r["surfaces"]) == 20),
    (["catalog", "show", "dP7"], lambda r: r["name"] == "dP7"),
    (["intersect", "--surface", "dP7", "--d1=-K", "--d2=-K"], lambda r: r["value"] == "7"),
    (["zariski", "--surface", "dP7", "--div", "-K - 2Ltilde"],
     lambda r: r["positive"] == "H" and r["negative"] == [
         {"curve": "E1", "coeff": "1"}, {"curve": "E2", "coeff": "1"}]),
    (["volfn", "--surface", "P2", "--divisor-spec", "exceptional:pt"],
     lambda r: r["profile"] == [{"from": "0", "to": "3", "coeffs": ["9", "0", "-1"]}]),
    (["beta", "--surface", "P2", "--divisor-spec", "exceptional:pt"],
     lambda r: [r["divisors"][0][k] for k in ("A", "S", "beta")] == ["2", "2", "0"]),
    (["beta", "--surface", "dP7", "--divisor-spec", "Ltilde"],
     lambda r: r["divisors"][0]["beta"] == "-4/21"),
    (["delta-flag", "--surface", "dP3", "--flag", "anticanonical-curve"],
     lambda r: r["delta_p_lower_bound"] == "1"),
    (["semistable", "--surface", "P(1,1,2)+Q/2"],
     lambda r: set(r["bounds"].values()) == {"1"}),
    (["discrep", "--graph", "rnc-cone:4"], lambda r: r["discrepancies"] == {"E": "-1/2"}),
    (["classify", "--graph", "cone-genus:2"],
     lambda r: (r["class"], r["min_discrepancy"]) == ("not-lc", "-3")),
    (["lct", "--poly", "y^2 - x^3"], lambda r: r["lct"] == "5/6"),
    (["lct", "--lines", "4"], lambda r: r["lct"] == "1/2"),
    (["nvol", "--sing", "1/2(1,1)"], lambda r: r["nvol"] == "2"),
    (["budget", "--degree", "3"], lambda r: r["admissible"] == ["smooth", "A1", "A2"]),
    (["local-global", "--surface", "P(1,1,2)"],
     lambda r: (r["verdict"], r["margin"]) == ("fail", "7/2")),
    (["markov", "--depth", "2"], lambda r: r["triples"] == ["(1,1,1)", "(1,1,2)", "(1,2,5)"]),
    (["wps-vol", "--weights", "1,4,25"], lambda r: r["volume"] == "9"),
    (["git-weight", "--poly", "xyz - w^3", "--one-ps", "1,1,1,-3"], lambda r: r["weight"] == "-9"),
    (["git-destab", "--poly", "x^3+y^3+z^3"], lambda r: r["witness"] == [1, 1, 1, -3]),
]
# Seed-drawn commands per pass, one per surface listed; the seed draws the
# divisor on that surface.  The surfaces are fixed because a cold command's cost
# depends on the surface.  Catalog commands (0.45-0.75 s cold) outnumber
# catalog-free ones (0.12-0.17 s) by 21 to 12 in a pass, which puts the median
# request a few places inside the catalog block rather than on its edge.
CLI_SEEDED = {"beta": ("dP7", "dP5", "dP3"), "volfn": ("dP6", "dP4"),
              "zariski": ("dP7", "dP5", "dP3"), "intersect": ("dP6", "dP4", "dP3")}
CLI_SEEDED_FREE = {"git-destab": 1, "lct": 1}
MONOMIALS = [e for e in itertools.product(range(4), repeat=4) if sum(e) == 3]


def _cubic_text(exps) -> str:
    terms = []
    for e in exps:
        factors = [v if k == 1 else f"{v}^{k}" for v, k in zip("xyzw", e) if k]
        terms.append("*".join(factors))
    return " + ".join(terms)


def _seeded_commands(pkg, rng: random.Random) -> list[tuple[list[str], Callable]]:
    """Seed-drawn commands; expected values come from the same engine in-process."""
    cat, val, pos, git = pkg.catalog, pkg.valuative, pkg.positivity, pkg.gitcubic
    rs = pkg.exactnum.rat_str
    cmds = []
    for name in CLI_SEEDED["beta"]:
        m = cat.get_model(name)
        label = rng.choice(m.curve_labels())
        beta = rs(val.beta_report(m, label)["beta"])
        cmds.append((["beta", "--surface", m.name, "--divisor-spec", label],
                     lambda r, beta=beta: r["divisors"][0]["beta"] == beta))
    for name in CLI_SEEDED["volfn"]:
        m = cat.get_model(name)
        label = rng.choice(m.curve_labels())
        tau = rs(val.profile_for(m, label).tau)
        cmds.append((["volfn", "--surface", m.name, "--divisor-spec", label],
                     lambda r, tau=tau: r["tau"] == tau))
    for name in CLI_SEEDED["zariski"]:
        m = cat.get_model(name)
        c = rng.choice(m.neg_curves)
        t = rng.choice((1, 2, 3))
        try:
            want = ("pseudoeffective",
                    m.render(pos.zariski(m, m.minus_k() - c.cls.scale(t)).positive))
        except pos.NotPseudoeffectiveError:
            want = ("not-pseudoeffective", None)
        cmds.append((["zariski", "--surface", m.name, "--div", f"-K - {t}{c.label}"],
                     lambda r, want=want: (r["verdict"], r.get("positive")) == want))
    for name in CLI_SEEDED["intersect"]:
        m = cat.get_model(name)
        a, b = rng.sample(m.neg_curves, 2)
        value = rs(m.intersect(a.cls, b.cls))
        cmds.append((["intersect", "--surface", m.name, f"--d1={a.label}", f"--d2={b.label}"],
                     lambda r, value=value: r["value"] == value))
    for _ in range(CLI_SEEDED_FREE["git-destab"]):
        exps = rng.sample(MONOMIALS, rng.randint(3, 6))
        form = git.CubicForm.from_terms({e: F(1) for e in exps})
        w = git.torus_destabilizer(form)
        want = None if w is None else list(w.weights)
        cmds.append((["git-destab", "--poly", _cubic_text(exps)],
                     lambda r, want=want: r.get("witness") == want))
    for _ in range(CLI_SEEDED_FREE["lct"]):
        a, b = rng.randint(2, 7), rng.randint(2, 7)
        germ = val.PlaneCurveGerm.from_terms({(0, a): F(1), (b, 0): F(-1)})
        lct = rs(val.lct_newton(germ))
        cmds.append((["lct", "--poly", f"y^{a} - x^{b}"],
                     lambda r, lct=lct: r["lct"] == lct))
    return cmds


def cli(pkg, seed: int, *, launcher: list[str], sink: list | None = None, **_) -> list[Request]:
    """One cold CLI process per request, run one at a time."""
    rng = random.Random(seed)
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin", "LC_ALL": "C.UTF-8"}
    requests = []
    for argv, expect in README_COMMANDS + _seeded_commands(pkg, rng):
        argv = argv + ["--format", "json"]

        def do(argv=argv):
            return subprocess.run(launcher + argv, cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=120)

        def check(proc, argv=argv, expect=expect):
            if sink is not None:
                marker = [ln for ln in proc.stderr.splitlines() if ln.startswith("PERFBENCH ")]
                if marker:
                    sink.append(json.loads(marker[-1][len("PERFBENCH "):]))
            if proc.returncode != 0:
                return False, f"{argv}|exit {proc.returncode}|{proc.stderr[-300:]}"
            try:
                ok = bool(expect(_results(proc.stdout)))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                return _fail(exc)
            return ok, f"{argv}|{proc.stdout}"

        requests.append(Request(" ".join(argv), do, check))
    rng.shuffle(requests)
    return requests


WORKLOADS = {"corpus": corpus, "invariants": invariants, "certify": certify, "cli": cli}


def cli_launcher(traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(BENCH_DIR / "cli_child.py")]
    return [sys.executable, "-m", "delpezzo.cli"]
