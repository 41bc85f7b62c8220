"""Bundled knot table: construction routes and the TSV loader."""

import os

import pytest

from knothom.diagram import parse_pd, is_planar
from knothom.jones import determinant, jones_polynomial
from knothom.tables import (rational_pd, montesinos_pd, braid_pd,
                            braid_components, knot_names, build_pd,
                            build_table, load_table, default_table_path,
                            TABLE_ENV)


def test_knot_names_order_and_count():
    names = knot_names()
    assert len(names) == 35
    assert names[0] == "3_1" and names[-1] == "8_21"
    crossings = [int(n.split("_")[0]) for n in names]
    assert crossings == sorted(crossings)


def test_load_table_matches_build_table():
    table = load_table()
    built = build_table()
    assert sorted(table) == sorted(built)
    for name, d in table.items():
        assert d.key() == parse_pd(built[name]).key(), name


def test_table_entries_are_knot_diagrams():
    for name, d in sorted(load_table().items()):
        assert len(d.components) == 1, name
        assert d.n == int(name.split("_")[0]), name
        assert is_planar(d), name


def test_rational_pd_small():
    t = parse_pd(rational_pd([3]))
    assert t.n == 3 and determinant(t) == 3
    f8 = parse_pd(rational_pd([2, 2]))
    assert f8.n == 4 and determinant(f8) == 5


def test_montesinos_pd():
    d = parse_pd(montesinos_pd((3, 3, -2)))
    assert d.n == 8
    assert len(d.components) == 1
    assert determinant(d) == 3          # this is the (3,4) torus knot


def test_braid_pd_trefoil():
    d = parse_pd(braid_pd([1, 1, 1], 2))
    assert d.n == 3
    assert len(d.components) == 1
    assert determinant(d) == 3


def test_braid_components_matches_closure():
    assert braid_components([1, 1, 1], 2) == 1
    assert braid_components([1, 2, 1], 3) == 2
    assert braid_components([], 3) == 3
    word = [1, 1, -2, 1, -2, -2]
    d = parse_pd(braid_pd(word, 3))
    assert len(d.components) == braid_components(word, 3)


def test_braid_pd_rejects_unused_position():
    with pytest.raises(ValueError):
        braid_pd([1, 1], 3)


def test_build_pd_unknown_name():
    with pytest.raises(KeyError):
        build_pd("9_1")


def test_env_override(tmp_path, monkeypatch):
    alt = tmp_path / "mini.tsv"
    alt.write_text("# tiny table\nwee\t%s\n" % rational_pd([3]))
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
