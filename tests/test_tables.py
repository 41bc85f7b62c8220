"""Bundled knot table: the TSV loader, braid closures, and the
construction routes of scripts/make_table.py, which is loaded by path."""

import importlib.util
import os

import pytest

from knothom.diagram import parse_pd, is_planar
from knothom.jones import determinant, jones_polynomial
from knothom.tables import (braid_pd, load_table, default_table_path,
                            TABLE_ENV)

LEFT_TREFOIL = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"


def test_table_entries_are_knot_diagrams():
    for name, d in sorted(load_table().items()):
        assert len(d.components) == 1, name
        assert d.n == int(name.split("_")[0]), name
        assert is_planar(d), name


def test_braid_pd_trefoil():
    d = parse_pd(braid_pd([1, 1, 1], 2))
    assert d.n == 3
    assert len(d.components) == 1
    assert determinant(d) == 3


def test_braid_components_matches_closure():
    # a closure has one component per cycle of the braid's permutation
    for word, strands, comps in (([1, 1, 1], 2, 1),      # trefoil
                                 ([1, 1], 2, 2),         # Hopf link
                                 ([1, 2, 1], 3, 2),
                                 ([1, 1, 2, 2], 3, 3),
                                 ([1, 1, -2, 1, -2, -2], 3, 1)):
        d = parse_pd(braid_pd(word, strands))
        assert len(d.components) == comps, word


def test_braid_pd_rejects_unused_position():
    with pytest.raises(ValueError):
        braid_pd([1, 1], 3)


def test_env_override(tmp_path, monkeypatch):
    alt = tmp_path / "mini.tsv"
    alt.write_text("# tiny table\nwee\t%s\n" % LEFT_TREFOIL)
    monkeypatch.setenv(TABLE_ENV, str(alt))
    assert default_table_path() == str(alt)
    table = load_table()
    assert sorted(table) == ["wee"]
    assert table["wee"].n == 3


def test_default_path_is_package_data(monkeypatch):
    monkeypatch.delenv(TABLE_ENV, raising=False)
    p = default_table_path()
    assert p.endswith(os.path.join("data", "knots.tsv"))
    assert os.path.exists(p)


def test_mirror_convention_is_up_to_mirror():
    # the table records one chirality per name; both mirrors share the
    # determinant, so spot check a chiral pair stays distinguishable by
    # the full polynomial
    d = load_table()["3_1"]
    v = jones_polynomial(d)
    vm = jones_polynomial(d.mirror())
    assert v != vm
    assert determinant(d) == determinant(d.mirror()) == 3


# -- the generator, scripts/make_table.py ----------------------------------

def _load_make_table():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                        "make_table.py")
    spec = importlib.util.spec_from_file_location("make_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_table = _load_make_table()


def test_knot_names_order_and_count():
    names = make_table.knot_names()
    assert len(names) == 35
    assert names[0] == "3_1" and names[-1] == "8_21"
    crossings = [int(n.split("_")[0]) for n in names]
    assert crossings == sorted(crossings)


def test_load_table_matches_build_table():
    table = load_table()
    assert sorted(table) == sorted(make_table.knot_names())
    for name, d in table.items():
        assert d.key() == parse_pd(make_table.build_pd(name)).key(), name


def test_rational_pd_small():
    t = parse_pd(make_table.rational_pd([3]))
    assert t.n == 3 and determinant(t) == 3
    f8 = parse_pd(make_table.rational_pd([2, 2]))
    assert f8.n == 4 and determinant(f8) == 5


def test_montesinos_pd():
    d = parse_pd(make_table.montesinos_pd((3, 3, -2)))
    assert d.n == 8
    assert len(d.components) == 1
    assert determinant(d) == 3          # this is the (3,4) torus knot


def test_build_pd_unknown_name():
    with pytest.raises(KeyError):
        make_table.build_pd("9_1")
