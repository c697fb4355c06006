import copy
import dataclasses
import io
import json
import shlex
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from delpezzo import valuative
from delpezzo.catalog import builtin_names, get_model
from delpezzo.cli import main, run
from delpezzo.lattice import MAX_GRAPH_VERTICES, model_to_dict


def _json_run(argv):
    report, code = run(argv)
    assert report is not None, f"command failed: {argv}"
    return json.loads(report.to_json()), code


def test_beta_subcommand_p2():
    payload, code = _json_run(["beta", "--surface", "P2",
                               "--divisor-spec", "exceptional:pt"])
    assert code == 0
    row = payload["results"]["divisors"][0]
    assert (row["A"], row["S"], row["beta"]) == ("2", "2", "0")


def test_beta_strict_exit_code_on_destabilizer():
    _, code = run(["--strict", "beta", "--surface", "F1", "--divisor-spec", "E1"])
    assert code == 1
    _, code = run(["beta", "--surface", "F1", "--divisor-spec", "E1"])
    assert code == 0


def test_markov_subcommand():
    payload, code = _json_run(["markov", "--depth", "2"])
    assert payload["results"]["triples"] == ["(1,1,1)", "(1,1,2)", "(1,2,5)"]


def test_markov_depth_beyond_bound_is_a_usage_error(monkeypatch, capsys):
    from delpezzo.localvol import MarkovTriple

    def never(self, i):
        raise AssertionError("the tree must not be built")

    monkeypatch.setattr(MarkovTriple, "mutate", never)
    report, code = run(["markov", "--depth", str(10 ** 12)])
    assert report is None and code == 2
    assert capsys.readouterr().err.startswith("error: depth must be <= 14")


def test_unverified_git_witness_exits_3(monkeypatch, capsys):
    from delpezzo import gitcubic, lp
    # a Farkas vector whose witness (-3, 1, 1, 1) is negative on x^3
    bogus = lp.LPFeasibility(False, tuple(map(F, (1, 0, 0, 0, 0))))
    monkeypatch.setattr(gitcubic.lp, "eq_feasibility", lambda a, b: bogus)
    report, code = run(["git-destab", "--poly", "x^3+y^3+z^3"])
    assert report is None and code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot certify: Farkas witness (-3, 1, 1, 1)")


@pytest.mark.parametrize("y, failure", [
    ((1, 0, 0), "W.L12 < 0, W.(polarization) < 0"),  # W = -H
    ((-1, 0, 0), "W.D >= 0"),                         # W = H, nef
])
def test_unverified_nef_certificate_exits_3(monkeypatch, capsys, y, failure):
    from delpezzo import lp, positivity
    bogus = lp.LPFeasibility(False, tuple(map(F, y)))
    monkeypatch.setattr(positivity.lp, "eq_feasibility", lambda a, b: bogus)
    m = get_model("dP7")
    with pytest.raises(positivity.ConeDataError):
        positivity.pseff_certificate(m, m.minus_k())
    # the LP runs only where the loop does not decide: a class that is not
    # pseudoeffective, 3H - 4E1 - E2, which the line class pairs to 3 > 0 with
    report, code = run(["zariski", "--surface", "dP7", "--div=-K - 3E1"])
    assert report is None and code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot certify: nef certificate W = ")
    assert err.rstrip().endswith(failure)


def test_decomposition_that_fails_verify_exits_3(monkeypatch, capsys):
    """A support kernel whose coefficients are each shifted by 1 gives
    N = 2E1 + 2E2 and P = H - E1 - E2, which ``verify`` refuses."""
    from delpezzo import positivity
    solve = positivity._solve_support

    def shifted(m, support, classes):
        return [(s, [x + s for x in xs], t, p) for s, xs, t, p in solve(m, support, classes)]

    monkeypatch.setattr(positivity, "_solve_support", shifted)
    report, code = run(["zariski", "--surface", "dP7", "--div", "H + E1 + E2"])
    assert report is None and code == 3
    assert capsys.readouterr().err == (
        "error: cannot certify: P is negative against L12; P not orthogonal to E1; "
        "P not orthogonal to E2\n")


def test_lct_subcommand():
    payload, _ = _json_run(["lct", "--poly", "y^2 - x^3"])
    assert payload["results"]["lct"] == "5/6"
    payload, _ = _json_run(["lct", "--lines", "4"])
    assert payload["results"]["lct"] == "1/2"


def test_intersect_and_zariski():
    payload, _ = _json_run(["intersect", "--surface", "dP7", "--d1=-K", "--d2=-K"])
    assert payload["results"]["value"] == "7"
    payload, code = _json_run(["zariski", "--surface", "dP7",
                               "--div", "-K - 2Ltilde"])
    assert code == 0
    assert payload["results"]["positive"] == "H"
    assert payload["results"]["negative"] == [
        {"curve": "E1", "coeff": "1"}, {"curve": "E2", "coeff": "1"}]


def test_zariski_not_pseff_verdict_and_strict():
    payload, code = _json_run(["zariski", "--surface", "F1", "--div", "3H - 4E1"])
    assert payload["results"]["verdict"] == "not-pseudoeffective"
    assert code == 0
    _, code = run(["--strict", "zariski", "--surface", "F1", "--div", "3H - 4E1"])
    assert code == 1


def test_volfn_subcommand():
    payload, _ = _json_run(["volfn", "--surface", "P2",
                            "--divisor-spec", "exceptional:pt"])
    assert payload["results"]["profile"] == [
        {"from": "0", "to": "3", "coeffs": ["9", "0", "-1"]}]
    assert payload["results"]["tau"] == "3"


def test_flag_subcommands():
    payload, code = _json_run(["delta-flag", "--surface", "dP3",
                               "--flag", "anticanonical-curve"])
    assert code == 0
    res = payload["results"]
    assert (res["S_E"], res["restricted_S"], res["delta_p_lower_bound"]) == \
        ("1/3", "1", "1")
    payload, code = _json_run(["semistable", "--surface", "P(1,1,2)+Q/2"])
    assert code == 0
    assert payload["results"]["bounds"] == {"generic": "1", "on-Q": "1", "vertex": "1"}
    _, code = run(["--strict", "semistable", "--surface", "F1"])
    assert code == 1


def test_discrep_classify_subcommands():
    payload, _ = _json_run(["discrep", "--graph", "rnc-cone:5"])
    assert payload["results"]["discrepancies"] == {"E": "-3/5"}
    payload, code = _json_run(["classify", "--graph", "cone-genus:2"])
    assert payload["results"]["class"] == "not-lc"
    _, code = run(["--strict", "classify", "--graph", "cone-genus:2"])
    assert code == 1


def test_graph_file_input(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({
        "vertices": [{"label": "E", "genus": 0, "self_int": -2}],
        "edges": [],
    }))
    payload, _ = _json_run(["discrep", "--graph", str(path)])
    assert payload["results"]["discrepancies"] == {"E": "0"}


@pytest.mark.parametrize("form", ["named", "json"])
def test_resolution_graph_size_is_bounded(tmp_path, capsys, monkeypatch, form):
    """An A_n chain of MAX_GRAPH_VERTICES vertices is solved; one of a vertex
    more is refused with exit 2 and the bound named, before any elimination."""
    def argv(n):
        if form == "named":
            return ["discrep", "--graph", f"An:{n}"]
        path = tmp_path / f"chain{n}.json"
        path.write_text(json.dumps({
            "vertices": [{"label": f"E{i + 1}", "genus": 0, "self_int": -2} for i in range(n)],
            "edges": [[i, i + 1, 1] for i in range(n - 1)]}))
        return ["discrep", "--graph", str(path)]

    payload, code = _json_run(argv(MAX_GRAPH_VERTICES))
    assert code == 0 and set(payload["results"]["discrepancies"].values()) == {"0"}
    capsys.readouterr()

    def never(*args):
        raise AssertionError("a refused graph must not be eliminated")

    monkeypatch.setattr(valuative, "bareiss", never)
    report, code = run(argv(MAX_GRAPH_VERTICES + 1))
    assert report is None and code == 2
    assert capsys.readouterr().err.endswith(
        f"resolution graph has {MAX_GRAPH_VERTICES + 1} vertices, more than the bound "
        f"of {MAX_GRAPH_VERTICES}\n")


def test_nvol_budget_localglobal():
    payload, _ = _json_run(["nvol", "--sing", "1/2(1,1)"])
    assert payload["results"]["nvol"] == "2"
    payload, _ = _json_run(["nvol", "--monomial", "1,2"])
    assert payload["results"]["nvol"] == "9/2"
    payload, _ = _json_run(["budget", "--degree", "3"])
    assert payload["results"]["admissible"] == ["smooth", "A1", "A2"]
    payload, code = _json_run(["local-global", "--surface", "P(1,1,2)"])
    assert payload["results"]["verdict"] == "fail"
    assert payload["results"]["margin"] == "7/2"
    _, code = run(["--strict", "local-global", "--surface", "P(1,1,2)"])
    assert code == 1
    payload, _ = _json_run(["local-global", "--vol", "3", "--sing", "A2"])
    assert payload["results"]["verdict"] == "pass"


@pytest.mark.parametrize("argv, text", [
    (["nvol", "--monomial", "1e400000,1"], "1e400000"),
    (["nvol", "--monomial", "1/0,1"], "1/0"),
    (["nvol", "--monomial", "0.5,1"], "0.5"),
    (["local-global", "--vol", "1/0"], "1/0"),
])
def test_malformed_rational_is_a_usage_error(capsys, argv, text):
    # An exponent used to be expanded for seconds and end in a traceback, and
    # a zero denominator was reported as "cannot certify" (exit 3).
    start = time.perf_counter()
    report, code = run(argv)
    assert report is None and code == 2
    assert capsys.readouterr().err == (
        f"error: {text!r} is not a rational p/q with a nonzero denominator q\n")
    assert time.perf_counter() - start < 1


def test_rational_longer_than_python_converts_is_a_usage_error(capsys):
    # Python's own refusal used to reach the user, with advice to call
    # sys.set_int_max_str_digits()
    limit = sys.get_int_max_str_digits()
    report, code = run(["nvol", "--monomial", f"{'9' * 5000},1"])
    assert report is None and code == 2
    assert capsys.readouterr().err == (
        f"error: a rational p/q whose p or q has 5000 digits is longer than the limit "
        f"of {limit} digits\n")


def test_result_too_long_to_print_is_a_usage_error(capsys):
    # nvol of (1, 1/q) has about twice as many digits as q: more than Python
    # prints, so rendering the report used to end in a traceback (exit 1).
    for fmt in ("table", "json"):
        code = main(["--format", fmt, "nvol", "--monomial", f"1/{'9' * 4000},1"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err.startswith("error: Exceeds the limit (4300 digits)")


def test_git_subcommands():
    payload, _ = _json_run(["git-weight", "--poly", "x^3+y^3+z^3+w^3",
                            "--one-ps", "3,-1,-1,-1"])
    assert payload["results"]["weight"] == "-3"
    payload, code = _json_run(["git-destab", "--poly", "x^3+y^3+z^3"])
    assert code == 0 and payload["results"]["verdict"] == "torus-unstable"
    _, code = run(["--strict", "git-destab", "--poly", "x^3+y^3+z^3"])
    assert code == 1
    payload, _ = _json_run(["git-destab", "--poly", "xyz - w^3"])
    assert payload["results"]["verdict"].startswith("torus-semistable")
    payload, _ = _json_run(["git-destab", "--verdict-table"])
    assert len(payload["results"]["table"]) == 3


_POLY_TOKENS = ["x", "y", "z", "w", "q", "0", "1", "2", "3", "10", "1/2", "1/0", "^", "^2",
                "^3", "^101", "^-1", "+", "-", "*", "/", "(", ")", " ", ".", "e"]


def _sums_of_monomials(variables: str, min_degree: int, max_degree: int):
    """Sums of monomials such as ``-1/2 xxy``: well-formed, so that the
    commands reach their verdicts and not only their parse errors."""
    monomial = st.tuples(st.sampled_from(["", "2", "-3", "1/2 ", "(1 - 2)"]),
                         st.lists(st.sampled_from(variables), min_size=min_degree,
                                  max_size=max_degree).map("".join))
    return st.lists(monomial, min_size=1, max_size=5).map(
        lambda terms: " + ".join(c + m for c, m in terms))


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(_sums_of_monomials("xyzw", 3, 3), _sums_of_monomials("xy", 1, 6),
                 st.lists(st.sampled_from(_POLY_TOKENS), max_size=14).map("".join),
                 st.text(alphabet="xyzw0123456789+-*^()/ .", max_size=16)))
def test_random_poly_strings_end_with_a_verdict_or_a_refusal(poly):
    """Random ``--poly`` strings through lct, git-destab and git-weight (with a
    well-formed one-parameter subgroup) exit 0, 2 or 3, never through the
    internal-error handler and never with an uncaught exception."""
    for argv in (["lct", f"--poly={poly}"], ["git-destab", f"--poly={poly}"],
                 ["git-weight", f"--poly={poly}", "--one-ps", "1,1,1,-3"]):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3) and "internal error" not in err.getvalue(), \
            (argv, code, err.getvalue())


def test_wps_vol():
    payload, _ = _json_run(["wps-vol", "--weights", "1,4,25"])
    assert payload["results"]["volume"] == "9"


def test_usage_errors_exit_2():
    assert run(["beta", "--surface", "nope", "--divisor-spec", "E1"])[1] == 2
    assert run(["lct", "--poly", "y^2 - x^"])[1] == 2
    assert run(["lct"])[1] == 2
    assert run(["frobnicate"])[1] == 2
    assert run(["wps-vol", "--weights", "2,4,6"])[1] == 2
    assert run(["nvol", "--sing", "1/4(2,1)"])[1] == 2


def _without_command(argv):
    """(exit code, the report rendered with its command line left out)."""
    report, code = run(argv)
    return code, report and dataclasses.replace(report, command=[]).render()


@pytest.mark.parametrize("flags, argv, read, given, absent", [
    (["--format", "json"], ["catalog", "list"], lambda r, c: r.render()[0], "{", "c"),
    (["--decimal"], ["beta", "--surface", "P2", "--divisor-spec", "exceptional:pt"],
     lambda r, c: "approx" in r.render(), True, False),
    (["--seed", "7"], ["reproduce-paper", "--section", "5"],
     lambda r, c: r.inputs["seed"], 7, 20250810),
    (["--strict"], ["beta", "--surface", "F1", "--divisor-spec", "E1"],
     lambda r, c: c, 1, 0),
    (["--catalog", "{path}"], ["catalog", "show", "myquadric"], lambda r, c: c, 0, 2),
], ids=["format", "decimal", "seed", "strict", "catalog"])
def test_a_global_flag_reads_the_same_before_and_after_the_command(
        tmp_path, flags, argv, read, given, absent):
    path = tmp_path / "models.json"
    path.write_text(json.dumps({**model_to_dict(get_model("dP7")), "name": "myquadric"}))
    flags = [f.format(path=path) for f in flags]
    assert _without_command(flags + argv) == _without_command(argv + flags)
    assert read(*run(flags + argv)) == given
    assert read(*run(argv)) == absent


def test_catalog_list_and_show_round_trip():
    payload, _ = _json_run(["catalog", "list"])
    assert "dP7" in payload["results"]["surfaces"]
    payload, _ = _json_run(["catalog", "show", "dP7"])
    assert payload["results"] == model_to_dict(get_model("dP7"))


def test_external_catalog_override(tmp_path):
    model = model_to_dict(get_model("dP7"))
    model["name"] = "myquadric"
    path = tmp_path / "models.json"
    path.write_text(json.dumps({"models": [model]}))
    payload, code = _json_run(["--catalog", str(path), "catalog", "show", "myquadric"])
    assert code == 0 and payload["results"]["name"] == "myquadric"


def test_command_round_trip_reproduces_report():
    argv = ["beta", "--surface", "dP7", "--divisor-spec", "Ltilde"]
    first, _ = run(argv)
    again, _ = run(list(first.command))
    assert first.to_json() == again.to_json()


def test_json_and_table_render_same_scalars():
    report, _ = run(["beta", "--surface", "dP7", "--divisor-spec", "Ltilde"])
    payload = json.loads(report.to_json())
    table = report.to_table()
    row = payload["results"]["divisors"][0]
    for key in ("A", "S", "beta", "delta"):
        assert str(row[key]) in table


def test_reproduce_sections_only_contain_requested_rows():
    report, code = run(["reproduce-paper", "--section", "4"])
    payload = json.loads(report.to_json())
    rows = payload["results"]["rows"]
    assert rows and all(r["section"] == 4 for r in rows)
    assert code == 0


def test_incomplete_catalog_model_is_refused(tmp_path):
    model = model_to_dict(get_model("dP7"))
    model["name"] = "dP7-no-E2"
    model["neg_curves"] = [c for c in model["neg_curves"] if c["label"] != "E2"]
    asym = {**model_to_dict(get_model("dP7")), "name": "dP7-asym",
            "gram": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "-1"]]}
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"models": [model, asym]}))
    flags = ["--catalog", str(path)]
    for argv in (["beta", "--surface", "dP7-no-E2", "--divisor-spec", "L12"],
                 ["zariski", "--surface", "dP7-no-E2", "--div", "-K - 2L12"],
                 ["intersect", "--surface", "dP7-asym", "--d1=-K", "--d2=-K"]):
        report, code = run(flags + argv)
        assert report is None and code == 2


def test_reproduce_with_corrupted_catalog_fails_signature_row(tmp_path):
    model = model_to_dict(get_model("dP7"))
    model["gram"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"models": [model]}))
    report, code = run(["--catalog", str(path), "reproduce-paper", "--section", "1"])
    payload = json.loads(report.to_json())
    failing = [r for r in payload["results"]["rows"] if r["status"] == "FAIL"]
    assert any(r["id"] == "catalog:dP7" and "signature" in r["result"]
               for r in failing)
    _, code = run(["--strict", "--catalog", str(path),
                   "reproduce-paper", "--section", "1"])
    assert code == 1


def test_flag_file_loading(tmp_path):
    path = tmp_path / "flags.json"
    path.write_text(json.dumps({"flags": [{
        "name": "user-flag",
        "divisor_spec": "anticanonical-curve",
        "points": [{"label": "generic"}],
        "covers": ["generic"],
    }]}))
    payload, code = _json_run(["delta-flag", "--surface", "dP3",
                               "--flag", "user-flag", "--flag-file", str(path)])
    assert code == 0
    assert payload["results"]["delta_p_lower_bound"] == "1"
    payload, code = _json_run(["semistable", "--surface", "dP3",
                               "--flag-file", str(path)])
    assert code == 0
    assert any("plt" in note for note in payload["results"]["notes"])


def _missing_model_field(tmp_path):
    model = {**model_to_dict(get_model("dP7")), "name": "dP7-no-gram"}
    del model["gram"]
    path = tmp_path / "models.json"
    path.write_text(json.dumps({"models": [model]}))
    return (["--catalog", str(path), "catalog", "list"],
            f"{path}: model 'dP7-no-gram' lacks field 'gram'")


def _missing_flag_field(tmp_path):
    path = tmp_path / "flags.json"
    path.write_text(json.dumps({"flags": [{"name": "x"}]}))
    return (["semistable", "--surface", "dP3", "--flag-file", str(path)],
            f"{path}: flag 'x' lacks field 'divisor_spec'")


def _missing_graph_field(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"edges": []}))
    return (["discrep", "--graph", str(path)],
            f"{path}: resolution graph lacks field 'vertices'")


@pytest.mark.parametrize("make", [_missing_model_field, _missing_flag_field,
                                  _missing_graph_field],
                         ids=["catalog", "flag-file", "graph"])
def test_json_input_without_a_field_names_file_and_field(tmp_path, capsys, make):
    argv, message = make(tmp_path)
    report, code = run(argv)
    assert report is None and code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, document, message", [
    (["--catalog", "{path}", "catalog", "list"], ["x"],
     "model list entry is a string, not an object"),
    (["semistable", "--surface", "dP3", "--flag-file", "{path}"], {"flags": ["x"]},
     "flags entry is a string, not an object"),
    (["discrep", "--graph", "{path}"], [1, 2],
     "resolution graph is an array, not an object"),
], ids=["catalog", "flag-file", "graph"])
def test_json_entries_that_are_not_objects_are_refused(tmp_path, capsys, argv, document,
                                                       message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    report, code = run([a.format(path=path) for a in argv])
    assert report is None and code == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def _wrong_typed_graph_edge(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"vertices": [{"label": "E", "genus": 0, "self_int": -2}],
                                "edges": [5]}))
    return (["discrep", "--graph", str(path)],
            f"{path}: resolution graph: edges[0] is an integer, not an array")


def _wrong_typed_gram_entry(tmp_path):
    model = {**model_to_dict(get_model("dP7")), "name": "dP7-bad-gram", "gram": [[{}]]}
    path = tmp_path / "models.json"
    path.write_text(json.dumps({"models": [model]}))
    return (["--catalog", str(path), "catalog", "list"],
            f"{path}: model 'dP7-bad-gram': gram[0][0] is an object, not a rational")


def _model_file(tmp_path, edit):
    model = {**model_to_dict(get_model("dP7")), "name": "dP7x"}
    edit(model)
    path = tmp_path / "models.json"
    path.write_text(json.dumps({"models": [model]}))
    return path


def _flag_file(tmp_path, **fields):
    path = tmp_path / "flags.json"
    path.write_text(json.dumps({"flags": [{
        "name": "u", "divisor_spec": "anticanonical-curve",
        "points": [{"label": "generic"}], "covers": ["generic"], **fields}]}))
    return path


def _graph_file(tmp_path, vertex, edges=()):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"vertices": [{"label": "E", "genus": 0, "self_int": -2,
                                              **vertex}], "edges": list(edges)}))
    return path


def _catalog_leaf(argv, edit, read):
    def make(tmp_path):
        path = _model_file(tmp_path, edit)
        return ["--catalog", str(path), *argv], f"{path}: {read}"
    return make


def _graph_vertex(vertex, read):
    def make(tmp_path):
        path = _graph_file(tmp_path, vertex)
        return ["discrep", "--graph", str(path)], f"{path}: resolution graph: {read}"
    return make


def _string_asserted_plt(tmp_path):
    # "false" used to read as True: "K-semistable (certified by flags)"
    # without the note that the bound rests on the caller's assertion.
    path = _flag_file(tmp_path, asserted_plt="false")
    return (["semistable", "--surface", "dP3", "--flag-file", str(path)],
            f"{path}: flag 'u': asserted_plt is a string, not a boolean")


# Apart from the first two, each of these used to end in a traceback, or to be
# accepted (exit 0) with a wrong reading of the value: "false" read as True,
# -2.5 truncated to -2.
@pytest.mark.parametrize("make", [
    _wrong_typed_graph_edge,
    _wrong_typed_gram_entry,
    _catalog_leaf(["catalog", "list"], lambda m: m.update(name=["x"]),
                  "model: name is an array, not a string"),
    _catalog_leaf(["catalog", "show", "dP7x"], lambda m: m["blowup"].update(target=6),
                  "model 'dP7x': blowup.target is an integer, not a string"),
    _catalog_leaf(["beta", "--surface", "dP7x", "--divisor-spec", "E1"],
                  lambda m: m["neg_curves"][0].update(label=["E1"]),
                  "model 'dP7x': neg_curves[0].label is an array, not a string"),
    _catalog_leaf(["catalog", "show", "dP7x"], lambda m: m.update(basis=[["H"], "E1", "E2"]),
                  "model 'dP7x': basis[0] is an array, not a string"),
    _catalog_leaf(["catalog", "show", "dP7x"], lambda m: m.update(del_pezzo="false"),
                  "model 'dP7x': del_pezzo is a string, not a boolean"),
    _catalog_leaf(["beta", "--surface", "dP7x", "--divisor-spec", "exceptional:pt"],
                  lambda m: m["blowup"]["pullback"][0].__setitem__(0, 1.0),
                  "model 'dP7x': blowup.pullback[0][0] is a float, not a rational"),
    _catalog_leaf(["catalog", "show", "dP7x"],
                  lambda m: m["blowup"].update(exceptional_label=1.0),
                  "model 'dP7x': blowup.exceptional_label is a float, not a string"),
    _string_asserted_plt,
    _graph_vertex({"self_int": -2.5}, "vertices[0].self_int is a float, not an integer"),
    _graph_vertex({"genus": 0.5}, "vertices[0].genus is a float, not an integer"),
    _graph_vertex({"genus": "1"}, "vertices[0].genus is a string, not an integer"),
], ids=["graph-edge", "gram-entry", "list-name", "number-target", "list-curve-label",
        "list-basis-label", "string-del-pezzo", "float-link-pullback", "float-link-exceptional",
        "string-asserted-plt", "float-self-int", "float-genus", "string-genus"])
def test_json_input_with_a_wrong_typed_value_names_file_and_object(tmp_path, capsys, make):
    argv, message = make(tmp_path)
    report, code = run(argv)
    assert report is None and code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("make, message", [
    (lambda tmp: ["discrep", "--graph", str(_graph_file(tmp, {"self_int": 0}))],
     "exceptional curves have negative self-intersection"),
    (lambda tmp: ["discrep", "--graph", str(_graph_file(tmp, {}, [[0, 3, 1]]))],
     "bad edge (0,3)"),
    (lambda tmp: ["semistable", "--surface", "dP3", "--flag-file",
                  str(_flag_file(tmp, divisor_spec="nosuch"))],
     "unknown divisor label 'nosuch' on dP3 (column 1)"),
], ids=["graph-self-int", "graph-edge", "flag-divisor-spec"])
def test_refused_json_input_names_its_file(tmp_path, capsys, make, message):
    argv = make(tmp_path)
    report, code = run(argv)
    assert report is None and code == 2
    assert capsys.readouterr().err == f"error: {argv[-1]}: {message}\n"


def test_missing_input_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "nosuch.json"
    report, code = run(["discrep", "--graph", str(path)])
    assert report is None and code == 2
    assert capsys.readouterr().err == \
        f"error: [Errno 2] No such file or directory: '{path}'\n"


def test_engine_fault_while_a_model_loads_is_an_internal_error(tmp_path, capsys,
                                                                monkeypatch):
    from delpezzo import lattice

    def broken(text):
        raise TypeError("broken parse_sing")

    monkeypatch.setattr(lattice, "parse_sing", broken)
    path = tmp_path / "models.json"
    path.write_text(json.dumps(model_to_dict(get_model("P(1,1,2)"))))
    report, code = run(["--catalog", str(path), "catalog", "list"])
    assert report is None and code == 4
    assert capsys.readouterr().err == "internal error: TypeError: broken parse_sing\n"


def test_engine_fault_under_beta_is_an_internal_error(capsys, monkeypatch):
    from delpezzo import valuative

    def broken(m, spec):
        raise IndexError("broken invariants")

    monkeypatch.setattr(valuative, "invariants", broken)
    report, code = run(["beta", "--surface", "dP7", "--divisor-spec", "E1"])
    assert report is None and code == 4
    assert capsys.readouterr().err == "internal error: IndexError: broken invariants\n"


_FUZZ_VALUES = [None, True, False, 0, -1, 1, 2, 2.5, "", "x", "1/0", "-1",
                [], [[]], {}, {"x": 1}]


def _leaf_paths(doc, path=()):
    """Paths to the scalars and empty containers of a JSON document."""
    if isinstance(doc, (dict, list)) and doc:
        for k, v in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _leaf_paths(v, path + (k,))
    else:
        yield path


def _with_leaf(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for k in path[:-1]:
        target = target[k]
    target[path[-1]] = value
    return doc


_FUZZ_MODEL = {**model_to_dict(get_model("dP7")), "name": "dP7x"}
_FUZZ_FLAG = {"name": "u", "divisor_spec": "anticanonical-curve",
              "points": [{"label": "generic", "diff_coeff": "1/2", "under_n": False,
                          "deg_corrections": [[0, 0]]}],
              "covers": ["generic"], "asserted_plt": False}
_FUZZ_GRAPH = {"vertices": [{"label": "E1", "genus": 0, "self_int": -2},
                            {"label": "E2", "genus": 0, "self_int": -3}],
               "edges": [[0, 1, 1]],
               "strict_transforms": [{"coeff": "1/2", "incidences": [[0, 1]],
                                      "label": "D"}]}
_FUZZ_CASES = {
    "catalog": (_FUZZ_MODEL, [["--catalog", "{path}", "catalog", "show", "dP7x"],
                              ["--catalog", "{path}", "beta", "--surface", "dP7x",
                               "--divisor-spec", "E1"]], 80),
    "flag-file": (_FUZZ_FLAG, [["semistable", "--surface", "dP3", "--flag-file",
                                "{path}"]], 60),
    "graph": (_FUZZ_GRAPH, [["discrep", "--graph", "{path}"]], 80),
}


@pytest.mark.parametrize("kind", list(_FUZZ_CASES))
def test_one_wrong_leaf_never_reaches_the_internal_error_handler(tmp_path, kind):
    doc, commands, examples = _FUZZ_CASES[kind]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    for argv in commands:  # the unedited document is accepted
        assert run([a.format(path=path) for a in argv])[1] == 0

    @settings(max_examples=examples, deadline=None, database=None)
    @given(st.sampled_from(list(_leaf_paths(doc))), st.sampled_from(_FUZZ_VALUES))
    def check(leaf, value):
        path.write_text(json.dumps(_with_leaf(doc, leaf, value)))
        for argv in commands:
            _, code = run([a.format(path=path) for a in argv])
            assert code in (0, 1, 2, 3), (leaf, value, argv)

    check()


def test_corrupt_lp_solution_is_not_printed_as_semistable(monkeypatch, capsys):
    from delpezzo import lp
    real = lp._phase1

    def corrupted(rows, obj, basis):  # one basic value off by one
        obj, d, pivots = real(rows, obj, basis)
        rows[0][-1] += d
        return obj, d, pivots

    argv = ["git-destab", "--poly", "x^3+y^3+z^3+w^3"]
    report, code = run(argv)
    assert code == 0 and "torus-semistable" in report.to_table()
    monkeypatch.setattr(lp, "_phase1", corrupted)
    report, code = run(argv)
    assert report is None and code == 3
    assert capsys.readouterr().err == (
        "error: cannot certify: LP solution fails its check: a x = b\n")


def test_beta_accepts_raw_divisor_expression():
    payload, _ = _json_run(["beta", "--surface", "dP7",
                            "--divisor-spec", "H - E1 - E2"])
    row = payload["results"]["divisors"][0]
    assert row["kind"] == "raw" and row["beta"] == "-4/21"
    payload, _ = _json_run(["volfn", "--surface", "P2", "--divisor-spec", "H"])
    assert payload["results"]["tau"] == "3"


@pytest.mark.parametrize("surface, spec, beta", [
    ("P2", "1/2 line", "-1"), ("P1xP1", "f1 - f2", "-1/3"),
    ("dP6", "H - E1 - E2 - E3", "-1/3"), ("dP5", "E1 - E2", "-2/15")])
def test_raw_class_with_negative_beta_certifies_nothing(surface, spec, beta):
    # A = 1 is not the log discrepancy of a fractional or non-effective class
    payload, code = _json_run(["--strict", "beta", "--surface", surface, "--divisor-spec", spec])
    results = payload["results"]
    assert code == 0 and "first_destabilizer" not in results
    assert results["verdict"] == "no destabilizer among the tested divisors"
    assert (results["divisors"][0]["kind"], results["divisors"][0]["beta"]) == ("raw", beta)
    assert payload["notes"] == [f"{spec!r} is a raw class, not known to be a prime divisor: its "
                                "A is taken as 1, so its beta is reported but certifies nothing"]


@pytest.mark.parametrize("poly, edge, bound", [
    ("(x+y)^2", "(0,2)-(2,0)", "1"), ("(y-x^2)^2", "(0,2)-(4,0)", "3/4"),
    ("y^2 - 2*x*y + x^2 - x^3", "(0,2)-(2,0)", "1")])
def test_lct_refuses_a_newton_degenerate_germ(poly, edge, bound, capsys):
    # true values 1/2, 1/2 and 5/6: the diagonal rule only bounds them
    assert run(["lct", "--poly", poly]) == (None, 3)
    assert capsys.readouterr().err == (
        f"error: cannot certify: the germ is Newton-degenerate on the edge {edge}; "
        f"the diagonal rule only bounds its lct from above by {bound}\n")
    assert run(["lct", "--poly", "y^2 - x^3", "--allow-degenerate"])[1] == 2


def test_named_divisor_spec_is_resolved_once(monkeypatch):
    from delpezzo import valuative
    calls = []
    resolve = valuative.resolve_divisor_spec

    def counted(m, spec):
        calls.append(spec)
        return resolve(m, spec)

    monkeypatch.setattr(valuative, "resolve_divisor_spec", counted)
    for cmd in ("beta", "volfn"):
        calls.clear()
        _, code = run([cmd, "--surface", "dP7", "--divisor-spec", "Ltilde"])
        assert code == 0 and calls == ["Ltilde"]


def test_uncertifiable_catalog_model_exits_3(tmp_path, capsys, monkeypatch):
    # f1.g = -1, which two distinct irreducible curves never have: the model
    # is refused up front instead of stalling the Zariski machinery.
    model = {"name": "hyp", "basis": ["a", "b"],
             "gram": [["0", "1"], ["1", "0"]], "canonical": ["-2", "-2"],
             "neg_curves": [{"label": "f1", "coeffs": ["1", "0"]},
                            {"label": "g", "coeffs": ["1", "-1"]}]}
    path = tmp_path / "hyp.json"
    path.write_text(json.dumps(model))
    report, code = run(["--catalog", str(path), "zariski", "--surface", "hyp",
                        "--div", "2a - b"])
    assert report is None and code == 2
    assert "hyp: generators f1 and g pair negatively (-1)" in capsys.readouterr().err
    # A support the machinery cannot certify as negative definite exits 3.
    from delpezzo import positivity
    monkeypatch.setattr(positivity, "sylvester_negative_definite", lambda minors, n: False)
    report, code = run(["zariski", "--surface", "dP7", "--div", "-K - 2Ltilde"])
    assert report is None and code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot certify: support {E1, E2} on dP7 ")
    assert "Traceback" not in err


def _repeat_e1(model):
    model["neg_curves"].append(dict(model["neg_curves"][0]))


def _relabel_l12_as_e1(model):
    for c in model["neg_curves"]:
        if c["label"] == "L12":
            c["label"] = "E1"


@pytest.mark.parametrize("edit, argvs, problems", [
    (_repeat_e1, [["beta", "--surface", "dP7dup", "--divisor-spec", "L12"],
                  ["zariski", "--surface", "dP7dup", "--div", "-K - 2L12"]],
     "dP7dup: generator label E1 is listed twice; "
     "dP7dup: generators E1 and E1 have the same class"),
    (_relabel_l12_as_e1, [["zariski", "--surface", "dP7dup", "--div", "3H - 2E1 - 2E2"]],
     "dP7dup: generator label E1 is listed twice"),
], ids=["repeated-curve", "repeated-label"])
def test_catalog_model_that_repeats_a_generator_is_refused(tmp_path, capsys, edit, argvs,
                                                           problems):
    # Each command used to exit 3, "cannot certify", on the repeated generator.
    model = {**model_to_dict(get_model("dP7")), "name": "dP7dup"}
    edit(model)
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(model))
    for argv in argvs:
        report, code = run(["--catalog", str(path)] + argv)
        assert report is None and code == 2
        assert capsys.readouterr().err == f"error: invalid --catalog model: {problems}\n"


def test_degree_8_model_without_its_line_is_refused(tmp_path, capsys):
    # F1 without E1 used to give volume 0 for H + E1 (the volume is 1) and
    # beta 0 for f (the built-in gives -1/12), both with exit 0.
    model = {**model_to_dict(get_model("dP8")), "name": "myF1"}
    model["neg_curves"] = [c for c in model["neg_curves"] if c["label"] != "E1"]
    path = tmp_path / "f1.json"
    path.write_text(json.dumps(model))
    for argv in (["zariski", "--surface", "myF1", "--div", "H + E1"],
                 ["beta", "--surface", "myF1", "--divisor-spec", "f"]):
        report, code = run(["--catalog", str(path)] + argv)
        assert report is None and code == 2
        assert capsys.readouterr().err == (
            "error: invalid --catalog model: myF1: 0 (-1)-curves listed, a del Pezzo "
            "surface of degree 8 with an odd lattice has 1\n")


@pytest.mark.parametrize("degree", range(9, 0, -1))
def test_del_pezzo_catalog_model_without_its_first_line_is_refused(tmp_path, capsys, degree):
    model = {**model_to_dict(get_model(f"dP{degree}")), "name": "mydP"}
    del model["neg_curves"][0]  # dP9's line, E1 otherwise
    path = tmp_path / "dp.json"
    path.write_text(json.dumps(model))
    report, code = run(["--catalog", str(path), "catalog", "show", "mydP"])
    assert report is None and code == 2
    assert capsys.readouterr().err.startswith("error: invalid --catalog model: mydP: ")


def test_a_basis_label_that_is_not_a_curve_is_a_raw_class():
    # O(1) on P(2,3,5) has no effective member: its beta is no certificate.
    # The cone generator is the coordinate curve {x = 0} of class O(2).
    payload, _ = _json_run(["beta", "--surface", "P(2,3,5)",
                            "--divisor-spec", "O1", "--divisor-spec", "O2"])
    rows = payload["results"]["divisors"]
    assert [(r["divisor"], r["kind"], r["beta"]) for r in rows] == \
        [("O1", "raw", "-7/3"), ("O2", "on-surface", "-2/3")]
    assert payload["results"]["first_destabilizer"] == {"divisor_spec": "O2", "beta": "-2/3"}
    assert payload["notes"] == ["'O1' is a raw class, not known to be a prime divisor: its A "
                                "is taken as 1, so its beta is reported but certifies nothing"]
    payload, code = _json_run(["beta", "--surface", "P(2,3,5)", "--divisor-spec", "O1"])
    assert "first_destabilizer" not in payload["results"] and code == 0
    payload, _ = _json_run(["beta", "--surface", "dP7", "--divisor-spec", "H"])
    assert payload["results"]["divisors"][0]["kind"] == "raw"


def test_discontinuous_profile_exits_3(monkeypatch, capsys):
    from delpezzo import positivity
    from delpezzo.exactnum import PiecewisePoly, Poly

    def lifted(breakpoints, pieces):  # a jump at the first wall
        return PiecewisePoly(breakpoints, [pieces[0] + Poly([1]), *pieces[1:]])

    monkeypatch.setattr(positivity, "PiecewisePoly", lifted)
    report, code = run(["volfn", "--surface", "dP7", "--divisor-spec", "Ltilde"])
    assert report is None and code == 3
    assert capsys.readouterr().err.startswith(
        "error: cannot certify: volume profile on dP7 is not continuous "
        "(pieces disagree at breakpoint 1")


def test_pair_over_a_pair_is_refused(capsys):
    report, code = run(["beta", "--surface", "P(1,1,2)+1/2Q+1/4Q",
                        "--divisor-spec", "exceptional"])
    assert report is None and code == 2
    assert "P(1,1,2)+1/2Q already has a boundary" in capsys.readouterr().err


def test_zero_denominator_in_a_pair_name_is_a_usage_error(capsys):
    report, code = run(["catalog", "show", "P(1,1,2)+1/0Q"])
    assert report is None and code == 2
    assert "unknown surface 'P(1,1,2)+1/0Q'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, err", [
    # catalog refusals print their text alone, not the repr of a KeyError
    ("catalog show dP10", "unknown surface 'dP10'"),
    ("intersect --surface P(1,1,4)+3/2Q --d1=H --d2=H",
     "boundary coefficient 3/2 must lie in [0,1)"),
    ("catalog show", "catalog show needs a surface name"),
    ("wps-vol --weights 1,x,3", "expected comma-separated integers, got '1,x,3'"),
    ("wps-vol --weights 1,2", "expected 3 comma-separated integers, got '1,2'"),
    ("delta-flag --surface dP3 --flag nosuch",
     "no built-in flag 'nosuch' on dP3; available: anticanonical-curve"),
    ("nvol", "give exactly one of --sing or --monomial"),
    ("nvol --sing A1 --monomial 1,1", "give exactly one of --sing or --monomial"),
    ("nvol --monomial 1", "--monomial needs two weights w1,w2"),
    ("local-global", "need --surface, or --vol with optional --sing"),
    ("git-destab --poly x^3+y^3+z^3 --substitute 1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,0",
     "coordinate change must be invertible"),
])
def test_usage_errors_exit_2_with_their_message(capsys, argv, err):
    report, code = run(argv.split())
    assert report is None and code == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def test_git_destab_applies_a_coordinate_change():
    payload, code = _json_run(["git-destab", "--poly", "x^3+y^3+z^3",
                               "--substitute", "1,0,0,1;0,1,0,0;0,0,1,0;0,0,0,1"])
    assert code == 0
    assert payload["results"] == {
        "form": "x^3 + 3*x^2w + 3*xw^2 + y^3 + z^3 + w^3",
        "verdict": "torus-semistable (barycenter inside the support hull)"}


def test_a_refusal_names_a_few_negative_pairs_and_counts_the_rest(tmp_path, capsys):
    # Generators -(k+1)E pair negatively two by two: 31125 pairs, whose
    # refusal used to print 1.7 MB.
    big = {"name": "big", "basis": ["H", "E"], "gram": [["1", "0"], ["0", "-1"]],
           "canonical": ["-3", "1"],
           "neg_curves": [{"label": f"C{k}", "coeffs": ["0", str(-(k + 1))]}
                          for k in range(250)]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big))
    report, code = run(["--catalog", str(path), "catalog", "show", "big"])
    err = capsys.readouterr().err
    assert report is None and code == 2
    assert len(err.encode()) < 4096
    assert err.count("pair negatively (") == 5
    assert err.endswith("big: 31120 more generator pairs pair negatively\n")


@pytest.mark.parametrize("blowup, problem", [
    ({"pullback": [["2"], ["0"]]},
     "blowup link to dP8: pullback changes the pairing of H and H"),
    ({"exceptional_label": "X"},
     "blowup link to dP8: exceptional label X names no curve of dP8"),
    ({"target": "myF1"}, "blowup link to myF1: target is not a built-in surface"),
    # -H keeps the pairing, so only f*H_X - H_Y = (A - 1)E fails
    ({"pullback": [["-1"], ["0"]]},
     "blowup link to dP8: the target's log canonical class is not the pullback of the "
     "model's plus a multiple of the exceptional class"),
])
def test_catalog_links_are_checked_against_their_targets(tmp_path, capsys, blowup, problem):
    # Each edit used to give a certified beta, a traceback or a mid-command
    # refusal; the model is now refused up front.
    plane = model_to_dict(get_model("dP9"))
    plane["name"] = "myP2"
    plane["blowup"].update(blowup)
    f1 = {**model_to_dict(get_model("dP8")), "name": "myF1"}
    path = tmp_path / "links.json"
    path.write_text(json.dumps({"models": [plane, f1]}))
    flags = ["--catalog", str(path)]
    report, code = run(flags + ["beta", "--surface", "myP2",
                                "--divisor-spec", "exceptional:pt"])
    assert report is None and code == 2
    assert capsys.readouterr().err == f"error: invalid --catalog model: myP2: {problem}\n"
    report, code = run(flags + ["reproduce-paper", "--section", "1"])
    rows = {r["id"]: r for r in json.loads(report.to_json())["results"]["rows"]}
    assert rows["catalog:myP2"]["status"] == "FAIL"
    assert problem in rows["catalog:myP2"]["result"]
    assert rows["catalog:myF1"]["status"] == "pass"


def test_pair_over_a_catalog_base_has_its_links_checked(tmp_path, capsys):
    # The pair inherits the broken pullback; it used to certify beta = -1.
    cone = model_to_dict(get_model("P(1,1,2)"))
    cone["name"] = "myP112"
    cone["resolution"]["pullback"] = [["1"], ["2"]]
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(cone))
    report, code = run(["--catalog", str(path), "beta", "--surface", "myP112+1/2Q",
                        "--divisor-spec", "exceptional"])
    assert report is None and code == 2
    assert capsys.readouterr().err == (
        "error: invalid --catalog model: myP112+1/2Q: resolution link to "
        "F2~P(1,1,2)+1/2Q: pullback changes the pairing of O1 and O1\n")


def test_a_pair_over_an_invalid_catalog_base_is_an_invalid_catalog_model(tmp_path, capsys):
    cone = {**model_to_dict(get_model("P(1,1,2)")), "name": "myP112", "gram": [["-1/2"]]}
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(cone))
    report, code = run(["--catalog", str(path), "beta", "--surface", "myP112+1/2Q",
                        "--divisor-spec", "exceptional"])
    assert report is None and code == 2
    assert capsys.readouterr().err == (
        "error: invalid --catalog model: myP112+1/2Q: gram signature (0, 1, 0) is not "
        "(1, 0, 0)\n")


def _plane_copy(tmp_path, edit):
    plane = {**model_to_dict(get_model("dP9")), "name": "myP2"}
    edit(plane)
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(plane))
    return ["--catalog", str(path)]


def test_a_link_graph_in_a_catalog_file_is_ignored(tmp_path):
    # A's value comes from the target lattice: the graph's E^2 = -2 used to
    # give A = 1, beta = -1 and "K-unstable (certified)".
    flags = _plane_copy(tmp_path, lambda p: p["blowup"].update(
        graph={"vertices": [["E1", 0, -2]], "edges": []}))
    payload, code = _json_run(flags + ["beta", "--surface", "myP2",
                                       "--divisor-spec", "exceptional:pt"])
    assert code == 0
    row = payload["results"]["divisors"][0]
    assert (row["A"], row["S"], row["beta"]) == ("2", "2", "0")
    assert payload["results"]["verdict"] == "no destabilizer among the tested divisors"


@pytest.mark.parametrize("spec", ["line", "exceptional:pt"])
def test_a_catalog_canonical_class_that_its_link_contradicts_is_refused(tmp_path, capsys,
                                                                        spec):
    # K = -4H used to certify beta(line) = -1/3 and beta(exceptional:pt) = -2/3.
    flags = _plane_copy(tmp_path, lambda p: p.update(canonical=["-4"], del_pezzo=False))
    report, code = run(flags + ["beta", "--surface", "myP2", "--divisor-spec", spec])
    assert report is None and code == 2
    assert capsys.readouterr().err == (
        "error: invalid --catalog model: myP2: blowup link to dP8: the target's log "
        "canonical class is not the pullback of the model's plus a multiple of the "
        "exceptional class\n")


def _pair_copy(tmp_path, mults, target="F2~P(1,1,2)+1/2Q", coeff="1/2"):
    pair = {**model_to_dict(get_model("P(1,1,2)+1/2Q")), "name": "myPair"}
    pair["resolution"].update(boundary_mults=mults, target=target)
    pair["boundary"][0]["coeff"] = coeff
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    return ["--catalog", str(path), "beta", "--surface", "myPair",
            "--divisor-spec", "exceptional"]


_NO_BOUNDARY_ON_THE_TARGET = (
    "error: invalid --catalog model: myPair: resolution link to F2~P(1,1,2): the "
    "target's log canonical class is not the pullback of the model's plus a multiple "
    "of the exceptional class\n")


def test_a_negative_boundary_multiplicity_is_refused(tmp_path, capsys):
    # The multiplicity is not read; F2 carries no boundary, so the pair's
    # -(K + Q/2) does not pull back to F2's -K plus a multiple of e.
    report, code = run(_pair_copy(tmp_path, ["-1"], target="F2~P(1,1,2)"))
    assert report is None and code == 2
    assert capsys.readouterr().err == _NO_BOUNDARY_ON_THE_TARGET


def test_a_boundary_part_the_target_lacks_is_refused(tmp_path, capsys):
    # On F2, which carries no boundary, mult 1 used to certify beta = -1/2.
    report, code = run(_pair_copy(tmp_path, ["1"], target="F2~P(1,1,2)"))
    assert report is None and code == 2
    assert capsys.readouterr().err == _NO_BOUNDARY_ON_THE_TARGET


def test_a_target_pair_whose_boundary_is_not_the_models_is_refused(tmp_path, capsys):
    # Q at 1/4 over a target with Q at 1/2: beta -1/6 was right, but it rested
    # on the A of a mislabelled target.
    report, code = run(_pair_copy(tmp_path, ["0"], coeff="1/4"))
    assert report is None and code == 2
    assert capsys.readouterr().err == (
        "error: invalid --catalog model: myPair: resolution link to F2~P(1,1,2)+1/2Q: "
        "the target's log canonical class is not the pullback of the model's plus a "
        "multiple of the exceptional class\n")


def _copy_as(tmp_path, name, copy, edit):
    model = {**model_to_dict(get_model(name)), "name": copy}
    edit(model)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    return ["--catalog", str(path)]


def _short_ltilde(model):
    model["named_divisors"]["Ltilde"] = ["1", "-1"]


@pytest.mark.parametrize("name, copy, edit, argv, problem", [
    ("P(1,1,2)+1/2Q", "myPair", lambda m: m["boundary"][0].update(coeffs=["2", "0"]),
     ["beta", "--surface", "myPair", "--divisor-spec", "exceptional"],
     "myPair: boundary part Q has wrong length"),
    ("dP7", "myDP7", _short_ltilde, ["beta", "--surface", "myDP7", "--divisor-spec", "Ltilde"],
     "myDP7: named divisor Ltilde has wrong length"),
    ("dP7", "myDP7", _short_ltilde, ["zariski", "--surface", "myDP7", "--div", "Ltilde"],
     "myDP7: named divisor Ltilde has wrong length"),
    ("dP7", "myDP7", _short_ltilde, ["catalog", "show", "myDP7"],
     "myDP7: named divisor Ltilde has wrong length"),
], ids=["boundary-beta", "named-beta", "named-zariski", "named-show"])
def test_a_class_of_the_wrong_length_is_refused(tmp_path, capsys, name, copy, edit, argv,
                                                problem):
    # these used to fail inside the pairing with a zip() or rank message, or pass
    report, code = run(_copy_as(tmp_path, name, copy, edit) + argv)
    assert report is None and code == 2
    assert capsys.readouterr().err == f"error: invalid --catalog model: {problem}\n"


def test_the_boundary_multiplicity_the_target_gives_is_accepted(tmp_path):
    payload, code = _json_run(_pair_copy(tmp_path, ["0"]))
    assert code == 0
    row = payload["results"]["divisors"][0]
    assert (row["A"], row["beta"]) == ("1", "0")


@pytest.mark.parametrize("copy, A", [
    # E1/2 on a P2 copy used to certify beta = -1 (A = 3, S = 4)
    (lambda tmp: _plane_copy(tmp, lambda p: p["blowup"].update(exceptional=["0", "1/2"]))
     + ["beta", "--surface", "myP2", "--divisor-spec", "exceptional:pt"], "2"),
    # Q misses the vertex; mult 1 used to certify beta = -1/2, and 4 beta = -2
    (lambda tmp: _pair_copy(tmp, ["1"]), "1"),
    (lambda tmp: _pair_copy(tmp, ["4"]), "1"),
], ids=["exceptional", "mults-1", "mults-4"])
def test_an_old_link_key_is_ignored(tmp_path, copy, A):
    # E and A are read on the target, so a stored class or multiplicity that
    # disagrees with it changes nothing.
    payload, code = _json_run(copy(tmp_path))
    assert code == 0
    row = payload["results"]["divisors"][0]
    assert (row["A"], row["beta"]) == (A, "0")
    assert payload["results"]["verdict"] == "no destabilizer among the tested divisors"


_LINKED_BUILTINS = [(name, spec) for name in builtin_names() + ["P(1,1,2)+1/2Q"]
                    for spec, kind in (("exceptional:pt", "blowup"),
                                       ("exceptional", "resolution"))
                    if getattr(get_model(name), kind) is not None]


@pytest.mark.parametrize("name, spec", _LINKED_BUILTINS)
def test_a_linked_model_round_trips_through_its_file(tmp_path, name, spec):
    # The file form of a link is its target, pullback and label; that must
    # carry everything A needs.
    model = {**model_to_dict(get_model(name)), "name": "myCopy"}
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(model))
    want, code = _json_run(["beta", "--surface", name, "--divisor-spec", spec])
    got, copy_code = _json_run(["--catalog", str(path), "beta", "--surface", "myCopy",
                                "--divisor-spec", spec])
    assert code == copy_code == 0
    keys = ("A", "S", "beta")
    assert ([got["results"]["divisors"][0][k] for k in keys]
            == [want["results"]["divisors"][0][k] for k in keys])
    assert got["results"]["verdict"] == want["results"]["verdict"]


def _approx(exact):
    return {"exact": exact, "approx": float(F(exact)), "approx_note": "non-authoritative"}


@pytest.mark.parametrize("argv, path, exact", [
    (["semistable", "--surface", "P(1,1,2)+Q/2"], ("bounds", "vertex"), "1"),
    (["semistable", "--surface", "F1"], ("destabilizer", "beta"), "-1/6"),
    (["local-global", "--surface", "P(1,1,2)"], ("vol",), "8"),
    (["local-global", "--surface", "P(1,1,2)"], ("threshold",), "9/2"),
    (["local-global", "--surface", "P(1,1,2)"], ("margin",), "7/2"),
    (["volfn", "--surface", "dP7", "--divisor-spec", "Ltilde"], ("chambers", 0, "to"), "1"),
    (["zariski", "--surface", "dP7", "--div", "-K - 2Ltilde"],
     ("gram_certificate", 1, 1), "-1"),
    (["git-destab", "--verdict-table"], ("table", 2, "witness_weight"), "3"),
], ids=["semistable-bound", "semistable-beta", "local-global-vol",
        "local-global-threshold", "local-global-margin", "volfn-chamber",
        "zariski-gram", "git-witness-weight"])
def test_decimal_approximates_every_rational(argv, path, exact):
    # Each of these values used to reach the report already as text, so
    # --decimal left it without its approximation.
    payload, code = _json_run(argv + ["--decimal", "--format", "json"])
    assert code == 0
    value = payload["results"]
    for key in path:
        value = value[key]
    assert value == _approx(exact)


@pytest.mark.parametrize("argv, message", [
    (["zariski", "--surface", "dP7", "--div", "-K - 2Q"],
     "unknown divisor label 'Q' on dP7 (column 7)"),
    (["intersect", "--surface", "dP7", "--d1", "H", "--d2", "H - E1 - X9"],
     "unknown divisor label 'X9' on dP7 (column 10)"),
])
def test_unknown_divisor_label_is_reported_at_its_column(capsys, argv, message):
    report, code = run(argv)
    assert report is None and code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("cmd", ["beta", "volfn"])
def test_unusable_keyword_spec_reports_its_cause(capsys, cmd):
    report, code = run([cmd, "--surface", "dP1", "--divisor-spec", "exceptional:pt"])
    assert report is None and code == 2
    assert capsys.readouterr().err == "error: dP1 has no catalogued point blow-up\n"


def test_dp1_semistability_is_decided_by_flag_coverage(capsys):
    """dP1 has no point to blow up, so it lists no beta candidate."""
    assert get_model("dP1").beta_candidates == ()
    report, code = run(["semistable", "--surface", "dP1"])
    assert report is None and code == 2
    assert capsys.readouterr().err == (
        "error: point classes not covered by any flag on dP1: generic\n")


def _readme_commands():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for block in text.split("```sh")[1:]
             for line in block.split("```")[0].splitlines()]
    return [shlex.split(line, comments=True)[1:]
            for line in lines if line.startswith("delpezzo ")]


def test_readme_has_cli_examples():
    assert len(_readme_commands()) >= 20


@pytest.mark.parametrize("argv", _readme_commands(), ids=shlex.join)
def test_readme_cli_example_runs(argv):
    report, code = run(argv)
    assert report is not None and code == 0
