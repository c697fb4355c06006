"""Command-line front end.

Exit codes: 0 on success, 1 when --strict is set and the mathematical
verdict is fail/unstable/not-pseudoeffective, 2 on usage errors (unknown
command, surface or malformed input, an unreadable input file, an invalid
--catalog model, or an exact result too long to print), 3 when the engine
cannot certify an answer (the model's cone data stalls the Zariski
machinery or the exact LP, or an lct germ is Newton-degenerate), 4 on an
internal error (an engine fault, reported as "internal error: <type>:
<message>").
Reports are byte-deterministic for fixed inputs; rationals are always
rendered exactly as "p/q".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import azflag, gitcubic, localvol, positivity, valuative
from .catalog import catalog_names, get_model, validate_links
from .exactnum import rat
from .lattice import JsonValue, SurfaceModel, load_models, model_to_dict, read_json
from .localvol import parse_sing
from .parse import div_from_expr, poly_terms
from .report import Report
from .reproduce import run_corpus

DEFAULT_SEED = 20250810


class CommandError(Exception):
    """Usage-level failure: maps to exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    # The global flags, shared by the program and every subcommand.  They
    # carry no defaults (``run`` holds those), so a flag given before the
    # subcommand is not overwritten by the subcommand's parse.
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--format", choices=("table", "json"),
                       help="output rendering (default: table)")
    flags.add_argument("--strict", action="store_true",
                       help="exit 1 on fail/unstable verdicts")
    flags.add_argument("--seed", type=int, help="seed for randomized property rows")
    flags.add_argument("--catalog", action="append", metavar="PATH",
                       help="load additional surface models from a JSON file")
    flags.add_argument("--decimal", action="store_true",
                       help="add approximate (non-authoritative) values")
    parser = argparse.ArgumentParser(
        prog="delpezzo", parents=[flags],
        description="Exact K-stability invariants of log del Pezzo surfaces")
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="COMMAND")

    def add(name: str, help_: str, fn) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_, parents=[flags])
        p.set_defaults(fn=fn)
        return p

    p = add("catalog", "list or show surface models", cmd_catalog)
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")

    p = add("intersect", "intersection number of two divisor classes", cmd_intersect)
    p.add_argument("--surface", required=True)
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)

    p = add("zariski", "Zariski decomposition with certificates", cmd_zariski)
    p.add_argument("--surface", required=True)
    p.add_argument("--div", required=True)

    p = add("volfn", "volume profile vol(L - tE) for a divisor spec", cmd_volfn)
    p.add_argument("--surface", required=True)
    p.add_argument("--divisor-spec", required=True)

    p = add("beta", "A, S, beta and delta for divisor specs", cmd_beta)
    p.add_argument("--surface", required=True)
    p.add_argument("--divisor-spec", action="append", required=True,
                   help="repeatable; first destabilizer is reported")

    p = add("delta-flag", "restricted invariant and local delta bound for a flag",
            cmd_delta_flag)
    p.add_argument("--surface", required=True)
    p.add_argument("--flag", required=True, help="built-in flag name, or a name "
                                                 "inside --flag-file")
    p.add_argument("--point", default=None, help="point class on the flag curve")
    p.add_argument("--flag-file", default=None,
                   help="JSON file of declarative flags (caller asserts plt type)")

    p = add("semistable", "certified semistability via the catalogued flags", cmd_semistable)
    p.add_argument("--surface", required=True)
    p.add_argument("--flag-file", default=None,
                   help="JSON file of additional declarative flags")

    p = add("discrep", "discrepancies from a resolution dual graph", cmd_discrep)
    p.add_argument("--graph", required=True,
                   help="built-in name (quadric-cone, elliptic-cone, rnc-cone:n"
                        "[+ruling], cone-genus:g, An:n) or a JSON file path")

    p = add("classify", "singularity class from a resolution dual graph", cmd_classify)
    p.add_argument("--graph", required=True)

    p = add("lct", "log canonical threshold of a plane curve germ", cmd_lct)
    p.add_argument("--poly", help="germ in x, y (e.g. \"y^2 - x^3\")")
    p.add_argument("--lines", type=int, help="n lines through the origin")

    p = add("nvol", "normalized volume of a quotient singularity or monomial valuation",
            cmd_nvol)
    p.add_argument("--sing", help="e.g. \"1/2(1,1)\", \"A2\" or \"smooth\"")
    p.add_argument("--monomial", help="weights w1,w2")

    p = add("budget", "admissible singularities for a given degree", cmd_budget)
    p.add_argument("--degree", type=int, required=True)

    p = add("local-global", "volume bound (-K)^2 <= (9/4) nvol at every point",
            cmd_local_global)
    p.add_argument("--surface")
    p.add_argument("--vol")
    p.add_argument("--sing", action="append", default=None)

    p = add("markov", "Markov mutation tree to a given depth", cmd_markov)
    p.add_argument("--depth", type=int, required=True)

    p = add("wps-vol", "anticanonical volume of a weighted projective plane", cmd_wps_vol)
    p.add_argument("--weights", required=True, help="a,b,c")

    p = add("git-weight", "Hilbert-Mumford pairing of a cubic with a 1-PS", cmd_git_weight)
    p.add_argument("--poly", required=True)
    p.add_argument("--one-ps", required=True, help="w1,w2,w3,w4 (sum 0)")

    p = add("git-destab", "torus destabilizer search for a cubic form", cmd_git_destab)
    p.add_argument("--poly")
    p.add_argument("--substitute", help="4x4 rational matrix, rows ';'-separated")
    p.add_argument("--verdict-table", action="store_true",
                   help="recompute the shipped normal-form table")

    p = add("reproduce-paper", "run the full reproduction corpus", cmd_reproduce)
    p.add_argument("--section", type=int, default=None)

    return parser


def _load_extra(paths) -> dict[str, SurfaceModel]:
    extra: dict[str, SurfaceModel] = {}
    for path in paths or ():
        for m in load_models(path):
            extra[m.name] = m
    return extra


def _surface(name: str, extra) -> SurfaceModel:
    """The named model.  While --catalog models are loaded, the model (one of
    them, or a pair over one) is validated, its links are checked against
    their built-in targets, and it is refused if either fails."""
    m = get_model(name, extra=extra)
    if extra:
        problems = m.validate() or validate_links(m)
        if problems:
            raise CommandError("invalid --catalog model: " + "; ".join(problems))
    return m


def _germ_from_poly(src: str) -> valuative.PlaneCurveGerm:
    terms = poly_terms(src, ("x", "y"))
    return valuative.PlaneCurveGerm.from_terms(terms)


def _cubic_from_poly(src: str) -> gitcubic.CubicForm:
    terms = poly_terms(src)
    if any(sum(e) != 3 for e in terms):
        raise CommandError("form must be homogeneous of degree 3 in x, y, z, w")
    return gitcubic.CubicForm.from_terms(terms)


def _graph_from_spec(spec: str) -> valuative.ResolutionGraph:
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        return read_json(path, valuative.ResolutionGraph.from_dict)
    return valuative.named_graph(spec)


def _int_list(src: str, n: int) -> list[int]:
    try:
        vals = [int(x) for x in src.split(",")]
    except ValueError as exc:
        raise CommandError(f"expected comma-separated integers, got {src!r}") from exc
    if len(vals) != n:
        raise CommandError(f"expected {n} comma-separated integers, got {src!r}")
    return vals


# --- command implementations ---------------------------------------------------

def cmd_catalog(args, extra):
    if args.action == "list":
        names = catalog_names(extra)
        return {"surfaces": names}, True, {"action": "list"}, []
    if not args.name:
        raise CommandError("catalog show needs a surface name")
    m = _surface(args.name, extra)
    return model_to_dict(m), True, {"action": "show", "surface": args.name}, [m.name]


def cmd_intersect(args, extra):
    m = _surface(args.surface, extra)
    d1 = div_from_expr(m, args.d1)
    d2 = div_from_expr(m, args.d2)
    value = m.intersect(d1, d2)
    return ({"d1": m.render(d1), "d2": m.render(d2), "value": value},
            True, {"surface": m.name, "d1": args.d1, "d2": args.d2}, [m.name])


def cmd_zariski(args, extra):
    m = _surface(args.surface, extra)
    d = div_from_expr(m, args.div)
    inputs = {"surface": m.name, "div": args.div}
    try:
        dec = positivity.zariski(m, d)
    except positivity.NotPseudoeffectiveError as exc:
        results = {
            "verdict": "not-pseudoeffective",
            "certificate": {
                "nef_class": m.render(exc.certificate),
                "pairing": exc.value,
            },
        }
        return results, False, inputs, [m.name]
    results = {
        "verdict": "pseudoeffective",
        "positive": m.render(dec.positive),
        "negative": [{"curve": label, "coeff": coeff} for label, coeff in dec.negative],
        "volume": m.intersect(dec.positive, dec.positive),
        "gram_certificate": dec.support_gram(m),
    }
    return results, True, inputs, [m.name]


def cmd_volfn(args, extra):
    m = _surface(args.surface, extra)
    inv = valuative.invariants(m, args.divisor_spec)
    rd, prof = inv.divisor, inv.profile
    results = {
        "work_model": rd.work.name,
        "L": rd.work.render(rd.L),
        "E": f"{rd.label} = {rd.work.render(rd.E)}",
        "profile": prof.profile,
        "tau": prof.tau,
        "chambers": [{"from": ch.lo, "to": ch.hi, "support": ch.support,
                      "negative_part": [{"curve": label, "coeff": poly}
                                        for label, poly in ch.n_coeffs]}
                     for ch in prof.chambers],
    }
    return results, True, {"surface": m.name, "divisor_spec": args.divisor_spec}, \
        [m.name, rd.work.name]


def cmd_beta(args, extra):
    m = _surface(args.surface, extra)
    held = [(spec, valuative.invariants(m, spec)) for spec in args.divisor_spec]
    reports = [{"divisor_spec": spec, **inv.as_dict()} for spec, inv in held]
    notes = [f"{spec!r} is a raw class, not known to be a prime divisor: its A "
             "is taken as 1, so its beta is reported but certifies nothing"
             for spec, inv in held if inv.divisor.kind == "raw"]
    destab = valuative.unstable_certificate(m, args.divisor_spec, dict(held))
    results = {"surface": m.name, "divisors": reports}
    if destab is not None:
        results["first_destabilizer"] = {"divisor_spec": destab[0], "beta": destab[1]}
        results["verdict"] = "K-unstable (certified)"
    else:
        results["verdict"] = "no destabilizer among the tested divisors"
    return results, destab is None, \
        {"surface": m.name, "divisor_spec": list(args.divisor_spec)}, [m.name], notes


def _file_flags(path, m):
    def load(data):
        entries = (JsonValue(data["flags"], "flags").items()
                   if isinstance(data, dict) and "flags" in data else [JsonValue(data, "flag")])
        return [azflag.flag_from_dict(e.of(dict), m) for e in entries]

    return read_json(path, load)


def cmd_delta_flag(args, extra):
    m = _surface(args.surface, extra)
    flags = {f.name: f for f, _ in azflag.builtin_flags(m)}
    if args.flag_file:
        flags.update({f.name: f for f, _ in _file_flags(args.flag_file, m)})
    if args.flag not in flags:
        raise CommandError(
            f"no built-in flag {args.flag!r} on {m.name}; "
            f"available: {', '.join(sorted(flags)) or 'none'}")
    flag = flags[args.flag]
    points = [p.label for p in flag.points]
    chosen = args.point or points[0]
    s_wp = azflag.restricted_S(flag, chosen)
    bound = azflag.delta_p_lower_bound(flag, chosen)
    results = {
        "flag": flag.name,
        "E": flag.inv.divisor.label,
        "A_E": flag.inv.A,
        "S_E": flag.inv.S,
        "A_over_S": flag.inv.delta,
        "point": chosen,
        "restricted_S": s_wp,
        "delta_p_lower_bound": bound,
    }
    return results, bound >= 1, \
        {"surface": m.name, "flag": args.flag, "point": chosen}, [m.name]


def cmd_semistable(args, extra):
    m = _surface(args.surface, extra)
    flags = azflag.builtin_flags(m)
    inputs = {"surface": m.name}
    if args.flag_file:
        flags = flags + _file_flags(args.flag_file, m)
        inputs["flag_file"] = args.flag_file
    rep = azflag.semistable_via_flags(m, flags)
    return rep.as_dict(), rep.verdict, inputs, \
        [m.name] + [f.name for f, _ in flags]


def cmd_discrep(args, extra):
    g = _graph_from_spec(args.graph)
    vals = valuative.discrepancies(g)
    results = {"discrepancies": {v.label: a for v, a in zip(g.vertices, vals)}}
    return results, True, {"graph": args.graph}, []


def cmd_classify(args, extra):
    g = _graph_from_spec(args.graph)
    cls = valuative.classify(g)
    results = {"class": cls.kind, "min_discrepancy": cls.min_discrepancy}
    return results, cls.kind != "not-lc", {"graph": args.graph}, []


def cmd_lct(args, extra):
    if (args.poly is None) == (args.lines is None):
        raise CommandError("give exactly one of --poly or --lines")
    if args.lines is not None:
        value = valuative.lct_n_lines(args.lines)
        inputs = {"lines": args.lines}
    else:
        value = valuative.lct_newton(_germ_from_poly(args.poly))
        inputs = {"poly": args.poly}
    return {"lct": value}, True, inputs, []


def cmd_nvol(args, extra):
    if (args.sing is None) == (args.monomial is None):
        raise CommandError("give exactly one of --sing or --monomial")
    if args.sing is not None:
        s = parse_sing(args.sing)
        return ({"singularity": s.display, "nvol": localvol.nvol_quotient(s)},
                True, {"sing": args.sing}, [])
    parts = args.monomial.split(",")
    if len(parts) != 2:
        raise CommandError("--monomial needs two weights w1,w2")
    value = localvol.monomial_nvol(rat(parts[0]), rat(parts[1]))
    return {"nvol": value}, True, {"monomial": args.monomial}, []


def cmd_budget(args, extra):
    sings = localvol.singularity_budget(args.degree)
    return ({"degree": args.degree, "admissible": [s.display for s in sings]},
            True, {"degree": args.degree}, [])


def cmd_local_global(args, extra):
    if args.surface:
        m = _surface(args.surface, extra)
        pol = m.polarization()
        vol = m.intersect(pol, pol)
        sings = [s.sing for s in m.sings]
        inputs = {"surface": m.name}
        prov = [m.name]
    else:
        if args.vol is None:
            raise CommandError("need --surface, or --vol with optional --sing")
        vol = rat(args.vol)
        sings = [parse_sing(s) for s in (args.sing or [])]
        inputs = {"vol": args.vol, "sing": list(args.sing or [])}
        prov = []
    rep = localvol.local_global_check(vol, sings)
    return rep.as_dict(), rep.passed, inputs, prov


def cmd_markov(args, extra):
    triples = localvol.markov_tree(args.depth)
    return ({"depth": args.depth,
             "count": len(triples),
             "triples": [str(t) for t in triples]},
            True, {"depth": args.depth}, [])


def cmd_wps_vol(args, extra):
    a, b, c = _int_list(args.weights, 3)
    return {"volume": localvol.wps_volume(a, b, c)}, True, {"weights": args.weights}, []


def cmd_git_weight(args, extra):
    f = _cubic_from_poly(args.poly)
    lam = gitcubic.OnePS(tuple(_int_list(args.one_ps, 4)))
    w = gitcubic.hm_weight(f, lam)
    results = {"form": f.format(), "one_ps": list(lam.weights), "weight": w,
               "destabilizing_for_this_subgroup": w > 0}
    return results, w <= 0, {"poly": args.poly, "one_ps": args.one_ps}, []


def cmd_git_destab(args, extra):
    if args.verdict_table:
        return ({"table": gitcubic.catalog_verdicts()}, True,
                {"verdict_table": True}, [])
    if not args.poly:
        raise CommandError("need --poly (or --verdict-table)")
    f = _cubic_from_poly(args.poly)
    inputs = {"poly": args.poly}
    if args.substitute:
        rows = [row.split(",") for row in args.substitute.split(";")]
        f = gitcubic.apply_coordinate_change(f, rows)
        inputs["substitute"] = args.substitute
    w = gitcubic.torus_destabilizer(f)
    results = {"form": f.format()}
    if w is None:
        results["verdict"] = "torus-semistable (barycenter inside the support hull)"
    else:
        results["verdict"] = "torus-unstable"
        results["witness"] = list(w.weights)
        results["witness_weight"] = gitcubic.hm_weight(f, w)
    return results, w is None, inputs, []


def cmd_reproduce(args, extra):
    corpus = run_corpus(args.seed, extra=extra, section=args.section)
    inputs = {"seed": args.seed}
    if args.section is not None:
        inputs["section"] = args.section
    ok = corpus["failed"] == 0
    results = {
        "rows": corpus["rows"],
        "summary": {"total": corpus["total"], "passed": corpus["passed"],
                    "failed": corpus["failed"]},
    }
    return results, ok, inputs, ["built-in catalog"] + sorted(extra or ())


def run(argv) -> tuple[Report | None, int]:
    """Dispatch a command line; returns (report, exit code)."""
    try:
        args = build_parser().parse_args(argv, argparse.Namespace(
            format="table", strict=False, seed=DEFAULT_SEED, catalog=None, decimal=False))
    except SystemExit as exc:
        return None, 2 if exc.code not in (0, None) else 0
    try:
        extra = _load_extra(args.catalog)
        out = args.fn(args, extra)
        results, ok, inputs, provenance, *rest = out
        notes = rest[0] if rest else []
    except (CommandError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2
    except (positivity.ConeDataError, ArithmeticError) as exc:
        print(f"error: cannot certify: {exc}", file=sys.stderr)
        return None, 3
    except Exception as exc:  # an engine fault, not a usage error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None, 4
    report = Report(command=list(argv), inputs=inputs, results=results,
                    provenance=provenance, notes=list(notes),
                    fmt=args.format, decimal=args.decimal)
    code = 0 if (ok or not args.strict) else 1
    return report, code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    report, code = run(argv)
    if report is not None:
        try:  # an exact value may have more digits than Python prints
            sys.stdout.write(report.render())
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
