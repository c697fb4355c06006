import dataclasses
import fractions
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import intersect_oracle
import neg_curves_oracle
import validate_oracle
import delpezzo.catalog as cat
from delpezzo.catalog import (UnknownSurfaceError, builtin_names, canonical_name,
                              catalog_names, get_model, validate_links)
from delpezzo.lattice import (MAX_GENERATORS, MAX_RANK, DivClass, JsonValue, SurfaceModel,
                              _pair_numerators, enumerate_neg_curves, is_nef, load_models,
                              model_from_dict, model_to_dict)

# sha256 of the built-in models in their declarative form, sorted by name.
BUILTIN_DIGEST = "74b827b94f9183bd0a0cb084aea14786b20634706ef253eb65c0e416ada28bca"


def test_neg_curve_counts():
    want = {0: 0, 1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
    for k, n in want.items():
        assert len(enumerate_neg_curves(k)) == n


def test_neg_curves_stable_under_larger_bound():
    # The Cauchy-Schwarz bound on c0 that the search derives: an oracle search
    # up to c0 = 8 finds nothing beyond it.
    def largest_c0(k):
        return max(c0 for c0 in range(9) if (3 * c0 - 1) ** 2 <= k * (c0 * c0 + 1))

    assert [largest_c0(k) for k in range(1, 9)] == [0, 1, 1, 1, 2, 2, 3, 7]
    for k in range(1, 9):
        big = neg_curves_oracle.enumerate_neg_curves(k, 8)
        assert max(c.coeffs[0] for c in big) <= largest_c0(k)


def test_neg_curves_k2_explicit():
    got = [c.coeffs for c in enumerate_neg_curves(2)]
    assert got == [(0, 1, 0), (0, 0, 1), (1, -1, -1)]


def test_enumerate_out_of_range():
    with pytest.raises(ValueError):
        enumerate_neg_curves(9)


def test_intersect_examples():
    p2 = get_model("P2")
    h = DivClass.of([1])
    assert p2.intersect(h, h) == 1
    assert p2.intersect(p2.minus_k(), p2.minus_k()) == 9
    dp7 = get_model("dP7")
    assert dp7.intersect(dp7.minus_k(), dp7.minus_k()) == 7


def test_intersect_rank_mismatch():
    p2 = get_model("P2")
    with pytest.raises(ValueError):
        p2.intersect(DivClass.of([1, 0]), DivClass.of([1]))
    with pytest.raises(ValueError):
        p2.intersect(DivClass.of([1]), DivClass.of([1, 0]))
    with pytest.raises(ValueError):
        is_nef(p2, DivClass.of([1, 0]))


def test_is_nef_examples():
    f1 = get_model("F1")
    assert is_nef(f1, DivClass.of([3, -2]))        # t = 2
    assert not is_nef(f1, DivClass.of([3, F(-7, 2)]))
    assert is_nef(f1, DivClass.of([0, 0]))
    dp7 = get_model("dP7")
    assert not is_nef(dp7, DivClass.of([1, 1, 1]))  # -K - 2*Ltilde pairs -1 with E1


def test_catalog_degrees():
    for d in range(1, 10):
        m = get_model(f"dP{d}")
        assert m.intersect(m.minus_k(), m.minus_k()) == d
        for c in m.neg_curves:
            sq = m.intersect(c.cls, c.cls)
            if sq == -1:
                assert m.intersect(m.minus_k(), c.cls) == 1
    q = get_model("P1xP1")
    assert q.intersect(q.minus_k(), q.minus_k()) == 8


def test_catalog_wps_entries():
    p112 = get_model("P(1,1,2)")
    assert p112.rank == 1 and p112.gram == ((F(1, 2),),)
    assert p112.canonical == DivClass.of([-4])
    assert p112.intersect(p112.minus_k(), p112.minus_k()) == 8
    f2 = get_model("F2~P(1,1,2)")
    assert f2.basis_labels == ("e", "f")
    assert f2.intersect(f2.curve("e"), f2.curve("e")) == -2
    assert f2.intersect(f2.curve("f"), f2.curve("f")) == 0
    assert f2.intersect(f2.curve("e"), f2.curve("f")) == 1


def test_catalog_aliases():
    assert get_model("P2").name == "dP9"
    assert get_model("F1").name == "dP8"
    assert get_model("cubic").name == "dP3"
    assert canonical_name("P(1,1,2)+Q/2") == "P(1,1,2)+1/2Q"
    assert get_model("P(1,1,2)+Q/2").boundary[0].coeff == F(1, 2)


def test_catalog_signature_validated_everywhere():
    for name in catalog_names():
        assert get_model(name).validate() == []


def test_catalog_unknown():
    with pytest.raises(UnknownSurfaceError):
        get_model("dP10")
    with pytest.raises(UnknownSurfaceError):
        get_model("P(2,4,5)")   # not well-formed


def test_nested_pairs_and_zero_denominators_are_unknown():
    for name in ("P(1,1,2)+1/2Q+1/4Q", "F2~P(1,1,2)+1/2Q+1/4Q", "P(1,1,2)+1/0Q"):
        with pytest.raises(UnknownSurfaceError):
            get_model(name)


def test_builtin_links_pass_the_link_checks():
    pairs = [f"P(1,1,{n})+{c}Q" for n in range(2, 7) for c in ("0", "1/2", "5/6")]
    for name in builtin_names() + pairs:
        assert validate_links(get_model(name)) == [], name


def test_link_checks_report_each_broken_link():
    pair = get_model("P(1,1,2)+1/2Q")
    link = pair.resolution
    for broken, problems in (
            (dataclasses.replace(link, exceptional_label="X"),
             ["exceptional label X names no curve of F2~P(1,1,2)+1/2Q"]),
            (dataclasses.replace(link, exceptional_label="f"),
             ["exceptional class has square 0 >= 0",
              "exceptional class meets the pullback of O1"]),
            (dataclasses.replace(link, pullback=((F(1, 2),),)),
             ["pullback is not 2 x 1"]),
            (dataclasses.replace(link, target="P(1,1,9)"),
             ["target is not a built-in surface"])):
        where = f"P(1,1,2)+1/2Q: resolution link to {broken.target}: "
        assert validate_links(dataclasses.replace(pair, resolution=broken)) == [
            where + problem for problem in problems]


def test_parametrized_wps():
    m = get_model("P(1,4,25)")
    assert m.intersect(m.minus_k(), m.minus_k()) == 9
    tags = sorted(s.sing.display for s in m.sings)
    assert tags == ["1/25(1,4)", "1/4(1,1)"]


def test_pair_models_track_coefficient():
    for c in ("0", "1/4", "1/2", "3/4"):
        m = get_model(f"P(1,1,2)+{c}Q")
        assert m.boundary[0].coeff == F(c)
        pol = m.polarization()
        assert m.intersect(pol, pol) == 2 * (2 - F(c)) ** 2
    with pytest.raises(UnknownSurfaceError):
        get_model("P(1,1,2)+5/4Q")


def _counted_builds(monkeypatch, constructor: str) -> list[str]:
    """The names that ``catalog.<constructor>`` is called for from here on."""
    calls = []
    original = getattr(cat, constructor)

    def counted(*args):
        m = original(*args)
        calls.append(m.name)
        return m

    monkeypatch.setattr(cat, constructor, counted)
    return calls


def test_builtin_pairs_are_built_once(monkeypatch):
    calls = _counted_builds(monkeypatch, "_pair")
    cat._builtin.cache_clear()
    first = get_model("P(1,1,2)+1/2Q")
    assert get_model("P(1,1,2)+Q/2") is first
    assert get_model("P(1,1,2)+2/4Q") is first
    assert calls == ["P(1,1,2)+1/2Q"]
    # a pair over a --catalog base is built on every lookup
    base = model_from_dict(model_to_dict(get_model("P(1,1,2)")))
    extra = {"P(1,1,2)": base}
    calls.clear()
    pair = get_model("P(1,1,2)+1/2Q", extra=extra)
    assert get_model("P(1,1,2)+1/2Q", extra=extra) is not pair
    assert calls == ["P(1,1,2)+1/2Q"] * 2


def test_weighted_planes_are_built_once(monkeypatch):
    calls = _counted_builds(monkeypatch, "_wps_model")
    cat._builtin.cache_clear()
    first = get_model("P(1,2,3)")
    assert get_model("P(1, 2, 3)") is first
    assert calls == ["P(1,2,3)"]
    assert get_model("P2") is get_model("P(1,1,1)")


_BUILT_ON_LOOKUP = ([f"{base}+{c}Q" for n in range(2, 7)
                     for base in (f"P(1,1,{n})", f"F{n}~P(1,1,{n})")
                     for c in ("0", "1/4", "1/2", "3/4")]
                    + ["P(1,2,3)", "P(2,3,5)", "P(1,4,25)"])


@pytest.mark.parametrize("name", _BUILT_ON_LOOKUP)
def test_models_built_on_lookup_are_valid(name):
    """A lookup validates no model: the pairs over the built-in bases and the
    weighted planes it builds are checked here, as the fixed models are."""
    m = get_model(name)
    assert m.validate() == []
    assert validate_links(m) == []


def test_fixed_models_are_built_on_first_lookup(monkeypatch):
    built = []

    def counted(**fields):
        built.append(fields["name"])
        return SurfaceModel(**fields)

    monkeypatch.setattr(cat, "SurfaceModel", counted)
    cat._builtin.cache_clear()
    assert len(builtin_names()) == 20
    assert built == []
    assert get_model("dP7").name == "dP7"
    assert built == ["dP7"]


@pytest.mark.parametrize("first", ["import delpezzo", "import delpezzo.catalog as c"],
                         ids=["package-first", "submodule-first"])
def test_package_catalog_is_the_module_in_either_import_order(first):
    # Import order decides which binding wins, and only a fresh interpreter
    # imports for the first time.
    code = (f"{first}; import sys, delpezzo; import delpezzo.catalog as c; "
            "assert delpezzo.catalog is sys.modules['delpezzo.catalog'] is c; "
            "print(delpezzo.get_model('dP6').name)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "dP6\n"


def test_neg_curves_match_the_permutation_oracle():
    for k in range(9):
        assert enumerate_neg_curves(k) == neg_curves_oracle.enumerate_neg_curves(k, 8)


@pytest.mark.parametrize("name", builtin_names() + ["P(1,1,2)+1/2Q", "P(1,2,3)"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_curve_pairings_match_intersect(name, data):
    """The integer numerators that the per-curve sign tests read are d . C
    over one positive denominator, curve by curve."""
    m = get_model(name)
    coeffs = data.draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=12),
                                min_size=m.rank, max_size=m.rank))
    d = DivClass(tuple(coeffs))
    r, nums = _pair_numerators(d, *m._curve_vectors)
    assert r > 0
    assert [F(v, r) for v in nums] == [m.intersect(d, c.cls) for c in m.neg_curves]
    assert is_nef(m, d) == all(m.intersect(d, c.cls) >= 0 for c in m.neg_curves)


# Rational coordinates with zeros, which the integer pairing skips on both sides.
_COORDS = st.one_of(st.just(F(0)),
                    st.fractions(min_value=-6, max_value=6, max_denominator=12))


@pytest.mark.parametrize("name", builtin_names() + ["P(1,1,2)+1/2Q", "P(1,2,3)"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_intersect_matches_the_dense_oracle(name, data):
    m = get_model(name)
    d1, d2 = (DivClass(tuple(data.draw(st.lists(_COORDS, min_size=m.rank,
                                                 max_size=m.rank))))
              for _ in range(2))
    assert m.intersect(d1, d2) == intersect_oracle.intersect(m, d1, d2)


def test_builtin_catalog_digest_is_pinned():
    text = json.dumps([model_to_dict(get_model(n)) for n in builtin_names()],
                      sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_DIGEST


@pytest.mark.parametrize("name", builtin_names() + ["P(1,1,2)+1/2Q"])
def test_model_file_fields_are_written_and_read_alike(monkeypatch, name):
    # A key that model_to_dict writes and model_from_dict never reads, or the
    # reverse, is a field with one side only.  Compared at the top level, in
    # each link and in each neg_curves, boundary and sings entry.
    read = []
    get = JsonValue.get

    def recording(self, field, *default):
        read.append(f"{self.path}.{field}" if self.path else field)
        return get(self, field, *default)

    data = model_to_dict(get_model(name))
    monkeypatch.setattr(JsonValue, "get", recording)
    model_from_dict(data)
    written = set(data)
    for part in ("blowup", "resolution"):
        written |= {f"{part}.{k}" for k in data[part] or ()}
    for part in ("neg_curves", "boundary", "sings"):
        written |= {f"{part}.{k}" for entry in data[part] for k in entry}
    fields = {re.sub(r"\[\d+\]", "", p) for p in read}
    assert {f for f in fields if f.count(".") <= 1
            and not f.startswith("named_divisors.")} == written


def test_incomplete_del_pezzo_model_is_invalid():
    data = model_to_dict(get_model("dP7"))
    data["neg_curves"] = [c for c in data["neg_curves"] if c["label"] != "E2"]
    m = model_from_dict(data)
    assert any("2 (-1)-curves" in p for p in m.validate())


@pytest.mark.parametrize("degree", range(9, 0, -1))
def test_del_pezzo_model_without_a_generator_is_invalid(degree):
    # Dropping F1's ruling f (or a ruling of P1xP1) is still accepted: the
    # lattice counts (-1)-curves only, so a missing curve of square 0 is not
    # seen until the catalogued set is compared with the lattice's.
    m = get_model(f"dP{degree}")
    for i, c in enumerate(m.neg_curves):
        if (degree, c.label) == (8, "f"):
            continue
        dropped = dataclasses.replace(m, neg_curves=m.neg_curves[:i] + m.neg_curves[i + 1:])
        assert dropped.validate(), f"dP{degree} without {c.label} validates"


def test_model_round_trip_through_dict():
    for name in ("dP7", "P(1,1,2)", "F2~P(1,1,2)"):
        m = get_model(name)
        again = model_from_dict(model_to_dict(m))
        assert again.validate() == []
        assert model_to_dict(again) == model_to_dict(m)


def test_load_models_external_file(tmp_path):
    m = get_model("dP7")
    path = tmp_path / "one.json"
    path.write_text(json.dumps(model_to_dict(m)))
    loaded = load_models(path)
    assert len(loaded) == 1 and loaded[0].name == "dP7"
    assert loaded[0].validate() == []


def test_invalid_gram_rejected():
    data = model_to_dict(get_model("dP7"))
    data["gram"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]
    m = model_from_dict(data)
    assert any("signature" in p for p in m.validate())
    # Not symmetric, and with a zero pair pivot a[0][1] + a[1][0] that a
    # congruence elimination would divide by: reported, never raised.
    data["gram"] = [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "-1"]]
    problems = model_from_dict(data).validate()
    # one asymmetric pair, reported once
    assert [p for p in problems if "not symmetric" in p] == \
        ["dP7: gram not symmetric at (0,1)"]


_ORACLE_MODELS = builtin_names() + ["P(1,1,2)+1/2Q", "P(1,2,3)"]


@pytest.mark.parametrize("name", _ORACLE_MODELS)
def test_curve_vectors_match_the_fraction_construction(name):
    m = get_model(name)
    fresh = model_from_dict(model_to_dict(m))
    assert fresh._curve_vectors == validate_oracle.curve_vectors(m)


@pytest.mark.parametrize("name", _ORACLE_MODELS)
def test_validate_matches_the_fraction_oracle(name):
    m = get_model(name)
    assert m.validate() == validate_oracle.validate(m) == []


def _with_curve(label, coeffs):
    def corrupt(data):
        data["neg_curves"].append({"label": label, "coeffs": coeffs})
    return corrupt


def _with_boundary(label, coeffs):
    def corrupt(data):
        data["boundary"].append({"label": label, "coeffs": coeffs, "coeff": "1/2"})
    return corrupt


def _with_named(name, coeffs):
    def corrupt(data):
        data["named_divisors"][name] = coeffs
    return corrupt


def _with_basis(*labels):
    def corrupt(data):
        data["basis"] = list(labels)
    return corrupt


def _twice(corrupt):
    def both(data):
        corrupt(data)
        corrupt(data)
    return both


def _without_curve(label):
    def corrupt(data):
        data["neg_curves"] = [c for c in data["neg_curves"] if c["label"] != label]
    return corrupt


@pytest.mark.parametrize("corrupt, problem", [
    (_with_curve("P", ["1/2", "0", "0"]),
     "dP7: generator P has positive square 1/4 on a rank >= 2 model"),
    (_with_curve("C", ["2", "-2", "-1"]), "dP7: (-1)-curve C has -K.C != 1"),
    (_with_curve("X", ["0", "1/2", "0"]),
     "dP7: generators E1 and X pair negatively (-1/2)"),
    (_without_curve("E2"),
     "dP7: 2 (-1)-curves listed, a del Pezzo surface of degree 7 has 3"),
    (_with_curve("S", ["1", "0"]), "dP7: curve S has wrong length"),
    (_with_boundary("Q", ["1", "0"]), "dP7: boundary part Q has wrong length"),
    (_with_named("Ltilde", ["1", "-1"]), "dP7: named divisor Ltilde has wrong length"),
    (_with_curve("E1", ["1", "-1", "0"]), "dP7: E1 names two classes"),
    (_with_curve("X", ["0", "1", "0"]), "dP7: generators E1 and X have the same class"),
    (_with_basis("H", "E1", "E1"), "dP7: E1 names two classes"),
    (_with_named("E2", ["1", "-1", "-1"]), "dP7: E2 names two classes"),
    (_twice(_with_boundary("Q", ["1", "0", "0"])), "dP7: boundary part Q is listed twice"),
    (_with_named("X", ["1/2", "0", "0"]), "dP7: named divisor X = 1/2*H is not the class "
     "of a prime divisor (D^2 + K.D = -5/4)"),
    (_with_named("X", ["0", "2", "0"]), "dP7: named divisor X = 2*E1 is not the class "
     "of a prime divisor (D^2 + K.D = -6)"),
], ids=["positive-square", "minus-K-degree", "negative-pair", "missing-line",
        "wrong-length", "boundary-length", "named-length", "repeated-label",
        "repeated-class", "repeated-basis-label", "named-curve-label",
        "repeated-boundary-label", "named-not-integral", "named-genus-below-0"])
def test_validate_matches_the_fraction_oracle_on_corrupt_models(corrupt, problem):
    data = model_to_dict(get_model("dP7"))
    corrupt(data)
    m = model_from_dict(data)
    problems = m.validate()
    assert problem in problems
    assert problems == validate_oracle.validate(m)


def _diagonal_model(rank, generators=0):
    """H, E1, ... with H^2 = 1 and Ei^2 = -1; the Ei are the generators, or
    ``generators`` multiples -(k+1)E1 when that is given."""
    unit = [[str(int(i == j)) for j in range(rank)] for i in range(rank)]
    gram = [["0" if i != j else "1" if i == 0 else "-1" for j in range(rank)]
            for i in range(rank)]
    curves = [{"label": f"E{i}", "coeffs": unit[i]} for i in range(1, rank)]
    if generators:
        curves = [{"label": f"C{k}", "coeffs": ["0", str(-(k + 1))] + ["0"] * (rank - 2)}
                  for k in range(generators)]
    return model_from_dict({"name": "big", "basis": ["H"] + [f"E{i}" for i in range(1, rank)],
                            "gram": gram, "canonical": ["0"] * rank, "neg_curves": curves})


def test_a_model_of_the_largest_rank_validates():
    assert _diagonal_model(MAX_RANK).validate() == []


@pytest.mark.parametrize("model, problem", [
    (lambda: _diagonal_model(MAX_RANK + 1),
     f"big: rank {MAX_RANK + 1} is more than the bound of {MAX_RANK}"),
    (lambda: _diagonal_model(2, MAX_GENERATORS + 1),
     f"big: {MAX_GENERATORS + 1} effective-cone generators are more than the bound "
     f"of {MAX_GENERATORS}"),
], ids=["rank", "generators"])
def test_a_model_above_a_bound_is_refused_before_any_pairing(monkeypatch, model, problem):
    m = model()

    def never(*args):
        raise AssertionError("no signature or pairing is computed above a bound")

    lattice = sys.modules[SurfaceModel.__module__]
    monkeypatch.setattr(lattice, "symmetric_signature", never)
    monkeypatch.setattr(lattice, "_pair_numerators", never)
    assert m.validate() == [problem]


def _dp8_without_e1(data):
    data["neg_curves"] = [c for c in data["neg_curves"] if c["label"] != "E1"]


def _p1xp1_with_a_half_ruling(data):
    data["gram"] = [["0", "1/2"], ["1/2", "0"]]


def _dp7_with_a_double_line(data):
    data["gram"] = [["1", "0", "0"], ["0", "-2", "0"], ["0", "0", "-1"]]


@pytest.mark.parametrize("name, corrupt, problem", [
    ("dP8", _dp8_without_e1, "dP8: 0 (-1)-curves listed, a del Pezzo surface of "
     "degree 8 with an odd lattice has 1"),
    ("P1xP1", _p1xp1_with_a_half_ruling, "P1xP1: gram is not a unimodular integer "
     "matrix of rank 6, as a del Pezzo surface of degree 4 has"),
    ("dP7", _dp7_with_a_double_line, "dP7: gram is not a unimodular integer "
     "matrix of rank 4, as a del Pezzo surface of degree 6 has"),
], ids=["F1-without-its-line", "non-integer-gram", "wrong-rank-and-determinant"])
def test_validate_checks_the_del_pezzo_lattice(name, corrupt, problem):
    """A del Pezzo model needs a unimodular integer Gram of rank 10 - K^2; in
    degree 8 its parity fixes the number of (-1)-curves (F1 odd, P1xP1 even)."""
    data = model_to_dict(get_model(name))
    corrupt(data)
    m = model_from_dict(data)
    problems = m.validate()
    assert problem in problems
    assert problems == validate_oracle.validate(m)


def test_validate_builds_no_fraction_per_pairing():
    """dP1's 240 rows of up to 240 pairings are checked as integers: the
    Fractions that validate builds itself (-K and its square) do not grow
    with the number of generators; the oracle builds one per pairing."""
    m = model_from_dict(model_to_dict(get_model("dP1")))
    lattice_file = sys.modules[SurfaceModel.__module__].__file__
    built = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__ \
                and frame.f_code.co_name == "__new__":
            caller = frame.f_back
            while caller.f_code.co_filename == fractions.__file__:
                caller = caller.f_back
            built.append(caller.f_code.co_filename)

    sys.setprofile(profile)
    try:
        problems = m.validate()
    finally:
        sys.setprofile(None)
    assert problems == []
    assert len(m.neg_curves) == 240
    assert built.count(lattice_file) <= m.rank + 1
