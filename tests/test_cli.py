import json
from fractions import Fraction as F

import pytest

from delpezzo.cli import run
from delpezzo.lattice import catalog, model_to_dict


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
    bogus = lp.LPFeasibility(False, None, tuple(map(F, (1, 0, 0, 0, 0))))
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
    bogus = lp.LPFeasibility(False, None, tuple(map(F, y)))
    monkeypatch.setattr(positivity.lp, "eq_feasibility", lambda a, b: bogus)
    m = catalog("dP7")
    with pytest.raises(positivity.ConeDataError):
        positivity.pseff_certificate(m, m.minus_k())
    report, code = run(["zariski", "--surface", "dP7", "--div=-K"])
    assert report is None and code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot certify: nef certificate W = ")
    assert err.rstrip().endswith(failure)


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


def test_catalog_list_and_show_round_trip():
    payload, _ = _json_run(["catalog", "list"])
    assert "dP7" in payload["results"]["surfaces"]
    payload, _ = _json_run(["catalog", "show", "dP7"])
    assert payload["results"] == model_to_dict(catalog("dP7"))


def test_external_catalog_override(tmp_path):
    model = model_to_dict(catalog("dP7"))
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
    model = model_to_dict(catalog("dP7"))
    model["name"] = "dP7-no-E2"
    model["neg_curves"] = [c for c in model["neg_curves"] if c["label"] != "E2"]
    asym = {**model_to_dict(catalog("dP7")), "name": "dP7-asym",
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
    model = model_to_dict(catalog("dP7"))
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


def test_beta_accepts_raw_divisor_expression():
    payload, _ = _json_run(["beta", "--surface", "dP7",
                            "--divisor-spec", "H - E1 - E2"])
    row = payload["results"]["divisors"][0]
    assert row["kind"] == "raw" and row["beta"] == "-4/21"
    payload, _ = _json_run(["volfn", "--surface", "P2", "--divisor-spec", "H"])
    assert payload["results"]["tau"] == "3"


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


def test_reproduce_paper_api_wrapper():
    from delpezzo.cli import reproduce_paper
    report = reproduce_paper(section=5)
    payload = json.loads(report.to_json())
    assert payload["results"]["summary"]["failed"] == 0
    assert all(r["section"] == 5 for r in payload["results"]["rows"])


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
    monkeypatch.setattr(positivity, "is_negative_definite", lambda gram: False)
    report, code = run(["zariski", "--surface", "dP7", "--div", "-K - 2Ltilde"])
    assert report is None and code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot certify: support {E1, E2} on dP7 ")
    assert "Traceback" not in err


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
