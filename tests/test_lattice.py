import hashlib
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import neg_curves_oracle
from delpezzo.catalog import builtin_names, canonical_name
from delpezzo.lattice import (DivClass, ModelInvariantError, SurfaceModel,
                              UnknownSurfaceError, catalog, catalog_names,
                              enumerate_neg_curves, is_nef, load_models, model_from_dict,
                              model_to_dict)

# sha256 of the built-in models in their declarative form, sorted by name.
BUILTIN_DIGEST = "c466a163f2201cc7ae141429a923ffdd87fdd2ebb952d71f1cc2acdfe4f999df"


def test_neg_curve_counts():
    want = {0: 0, 1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
    for k, n in want.items():
        assert len(enumerate_neg_curves(k)) == n


def test_neg_curves_stable_under_larger_bound():
    for k in range(1, 9):
        std = {c.coeffs for c in enumerate_neg_curves(k)}
        big = {c.coeffs for c in enumerate_neg_curves(k, c0_bound=8)}
        assert std == big


def test_neg_curves_k2_explicit():
    got = [c.coeffs for c in enumerate_neg_curves(2)]
    assert got == [(0, 1, 0), (0, 0, 1), (1, -1, -1)]


def test_enumerate_out_of_range():
    with pytest.raises(ValueError):
        enumerate_neg_curves(9)


def test_intersect_examples():
    p2 = catalog("P2")
    h = p2.div([1])
    assert p2.intersect(h, h) == 1
    assert p2.intersect(p2.minus_k(), p2.minus_k()) == 9
    dp7 = catalog("dP7")
    assert dp7.intersect(dp7.minus_k(), dp7.minus_k()) == 7


def test_intersect_rank_mismatch():
    p2 = catalog("P2")
    with pytest.raises(ValueError):
        p2.intersect(DivClass.of([1, 0]), DivClass.of([1]))
    with pytest.raises(ValueError):
        p2.curve_pairings(DivClass.of([1, 0]))


def test_is_nef_examples():
    f1 = catalog("F1")
    assert is_nef(f1, DivClass.of([3, -2]))        # t = 2
    assert not is_nef(f1, DivClass.of([3, F(-7, 2)]))
    assert is_nef(f1, DivClass.of([0, 0]))
    dp7 = catalog("dP7")
    assert not is_nef(dp7, DivClass.of([1, 1, 1]))  # -K - 2*Ltilde pairs -1 with E1


def test_catalog_degrees():
    for d in range(1, 10):
        m = catalog(f"dP{d}")
        assert m.intersect(m.minus_k(), m.minus_k()) == d
        for c in m.neg_curves:
            sq = m.intersect(c.cls, c.cls)
            if sq == -1:
                assert m.intersect(m.minus_k(), c.cls) == 1
    q = catalog("P1xP1")
    assert q.intersect(q.minus_k(), q.minus_k()) == 8


def test_catalog_wps_entries():
    p112 = catalog("P(1,1,2)")
    assert p112.rank == 1 and p112.gram == ((F(1, 2),),)
    assert p112.canonical == DivClass.of([-4])
    assert p112.intersect(p112.minus_k(), p112.minus_k()) == 8
    f2 = catalog("F2~P(1,1,2)")
    assert f2.basis_labels == ("e", "f")
    assert f2.intersect(f2.curve("e"), f2.curve("e")) == -2
    assert f2.intersect(f2.curve("f"), f2.curve("f")) == 0
    assert f2.intersect(f2.curve("e"), f2.curve("f")) == 1


def test_catalog_aliases():
    assert catalog("P2").name == "dP9"
    assert catalog("F1").name == "dP8"
    assert catalog("cubic").name == "dP3"
    assert canonical_name("P(1,1,2)+Q/2") == "P(1,1,2)+1/2Q"
    assert catalog("P(1,1,2)+Q/2").boundary[0].coeff == F(1, 2)


def test_catalog_signature_validated_everywhere():
    for name in catalog_names():
        assert catalog(name).validate() == []


def test_catalog_unknown():
    with pytest.raises(UnknownSurfaceError):
        catalog("dP10")
    with pytest.raises(UnknownSurfaceError):
        catalog("P(2,4,5)")   # not well-formed


def test_parametrized_wps():
    m = catalog("P(1,4,25)")
    assert m.intersect(m.minus_k(), m.minus_k()) == 9
    tags = sorted(s.sing.display for s in m.sings)
    assert tags == ["1/25(1,4)", "1/4(1,1)"]


def test_pair_models_track_coefficient():
    for c in ("0", "1/4", "1/2", "3/4"):
        m = catalog(f"P(1,1,2)+{c}Q")
        assert m.boundary[0].coeff == F(c)
        pol = m.polarization()
        assert m.intersect(pol, pol) == 2 * (2 - F(c)) ** 2
    with pytest.raises(UnknownSurfaceError):
        catalog("P(1,1,2)+5/4Q")


def _counted_validations(monkeypatch) -> list[str]:
    """Names of the models validated from here on."""
    calls = []
    original = SurfaceModel.validate

    def counted(self):
        calls.append(self.name)
        return original(self)

    monkeypatch.setattr(SurfaceModel, "validate", counted)
    return calls


def test_builtin_pairs_are_built_once(monkeypatch):
    cat = importlib.import_module("delpezzo.catalog")
    calls = _counted_validations(monkeypatch)
    cat._builtin.cache_clear()
    first = catalog("P(1,1,2)+1/2Q")
    assert catalog("P(1,1,2)+Q/2") is first
    assert catalog("P(1,1,2)+2/4Q") is first
    assert calls == ["P(1,1,2)+1/2Q"]
    # a pair over a --catalog base is built and validated on every lookup
    base = model_from_dict(model_to_dict(catalog("P(1,1,2)")), validate=False)
    extra = {"P(1,1,2)": base}
    calls.clear()
    pair = catalog("P(1,1,2)+1/2Q", extra=extra)
    assert catalog("P(1,1,2)+1/2Q", extra=extra) is not pair
    assert calls == ["P(1,1,2)+1/2Q"] * 2


def test_weighted_planes_are_built_once(monkeypatch):
    cat = importlib.import_module("delpezzo.catalog")
    calls = _counted_validations(monkeypatch)
    cat._builtin.cache_clear()
    first = catalog("P(1,2,3)")
    assert catalog("P(1, 2, 3)") is first
    assert calls == ["P(1,2,3)"]
    assert catalog("P2") is catalog("P(1,1,1)")


def test_fixed_models_are_built_on_first_lookup(monkeypatch):
    cat = importlib.import_module("delpezzo.catalog")
    built = []

    def counted(**fields):
        built.append(fields["name"])
        return SurfaceModel(**fields)

    monkeypatch.setattr(cat, "SurfaceModel", counted)
    cat._builtin.cache_clear()
    assert len(builtin_names()) == 20
    assert built == []
    assert catalog("dP7").name == "dP7"
    assert built == ["dP7"]


def test_package_catalog_stays_the_lookup_function():
    # The first lookup must not rebind ``delpezzo.catalog`` to the submodule;
    # a fresh interpreter is the only place where that first import happens.
    code = ("import delpezzo; delpezzo.catalog('dP7'); "
            "print(delpezzo.catalog('dP6').name)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "dP6\n"


def test_neg_curves_match_the_permutation_oracle():
    for bound in (6, 8):
        for k in range(9):
            assert enumerate_neg_curves(k, bound) == \
                neg_curves_oracle.enumerate_neg_curves(k, bound)


@pytest.mark.parametrize("name", builtin_names() + ["P(1,1,2)+1/2Q", "P(1,2,3)"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_curve_pairings_match_intersect(name, data):
    m = catalog(name)
    coeffs = data.draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=12),
                                min_size=m.rank, max_size=m.rank))
    d = DivClass(tuple(coeffs))
    assert m.curve_pairings(d) == tuple(m.intersect(d, c.cls) for c in m.neg_curves)


def test_builtin_catalog_digest_is_pinned():
    text = json.dumps([model_to_dict(catalog(n)) for n in builtin_names()],
                      sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_DIGEST


def test_incomplete_del_pezzo_model_is_invalid():
    data = model_to_dict(catalog("dP7"))
    data["neg_curves"] = [c for c in data["neg_curves"] if c["label"] != "E2"]
    m = model_from_dict(data, validate=False)
    assert any("2 (-1)-curves" in p for p in m.validate())
    with pytest.raises(ModelInvariantError):
        model_from_dict(data)


def test_model_round_trip_through_dict():
    for name in ("dP7", "P(1,1,2)", "F2~P(1,1,2)"):
        m = catalog(name)
        again = model_from_dict(model_to_dict(m))
        assert model_to_dict(again) == model_to_dict(m)


def test_load_models_external_file(tmp_path):
    m = catalog("dP7")
    path = tmp_path / "one.json"
    path.write_text(json.dumps(model_to_dict(m)))
    loaded = load_models(path)
    assert len(loaded) == 1 and loaded[0].name == "dP7"


def test_invalid_gram_rejected():
    data = model_to_dict(catalog("dP7"))
    data["gram"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]
    with pytest.raises(ModelInvariantError):
        model_from_dict(data)
    m = model_from_dict(data, validate=False)
    assert any("signature" in p for p in m.validate())
    # Not symmetric, and with a zero pair pivot a[0][1] + a[1][0] that a
    # congruence elimination would divide by: reported, never raised.
    data["gram"] = [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "-1"]]
    with pytest.raises(ModelInvariantError):
        model_from_dict(data)
    problems = model_from_dict(data, validate=False).validate()
    # one asymmetric pair, reported once
    assert [p for p in problems if "not symmetric" in p] == \
        ["dP7: gram not symmetric at (0,1)"]
