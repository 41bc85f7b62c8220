"""PD parsing, orientation solving, and planarity checks."""

import pytest
from hypothesis import given, settings, strategies as st

from knothom.diagram import (LinkDiagram, PDSyntaxError, OrientationError,
                             parse_pd, from_pd, unknot_diagram, faces,
                             is_planar)
from knothom.tables import load_table

LEFT_TREFOIL = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
FIG8 = "PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,4],X[2,7,3,8]]"
HOPF = "PD[X[4,1,3,2],X[2,3,1,4]]"


def test_parse_left_trefoil():
    d = parse_pd(LEFT_TREFOIL)
    assert d.n == 3
    assert d.n_plus == 0 and d.n_minus == 3
    assert d.writhe == -3
    assert len(d.components) == 1
    assert sorted(d.edges) == [1, 2, 3, 4, 5, 6]


def test_sign_convention():
    # slot d incoming means positive, slot b incoming means negative
    d = parse_pd(HOPF)
    assert d.writhe in (-2, 2)
    m = d.mirror()
    assert m.writhe == -d.writhe


def test_parse_whitespace_and_case_tolerance():
    d1 = parse_pd("PD[X[1,4,2,5], X[3,6,4,1], X[5,2,6,3]]")
    d2 = parse_pd(LEFT_TREFOIL)
    assert d1.key() == d2.key()


@pytest.mark.parametrize("bad", [
    "",
    "PD[]",
    "PD[X[1,2,3]]",
    "PD[X[1,2,3,4,5]]",
    "X[1,2,3,4",
    "PD[X[1,2,3,4]",
    "PD[Y[1,2,3,4]]",
    "PD[X[1,2,3,4],X[2,3,1,4]]",    # orientable, but not planar
])
def test_syntax_errors(bad):
    with pytest.raises(PDSyntaxError):
        parse_pd(bad)


def test_edge_must_appear_twice():
    with pytest.raises((PDSyntaxError, OrientationError)):
        parse_pd("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,9]]")


def test_orientation_error_on_two_heads():
    # edge 1 sits in the under-in slot of both crossings: two heads
    with pytest.raises(OrientationError):
        from_pd(((1, 2, 3, 4), (1, 4, 2, 3)))


# Each malformed input below is otherwise consistent (every edge occurs
# twice, one head and one tail), so only the check named in the test
# stands between it and a broken diagram, also under ``python -O``.

def test_one_sign_per_crossing():
    with pytest.raises(PDSyntaxError):
        LinkDiagram(((1, 1, 2, 2),), (1, 1))


def test_signs_are_plus_or_minus_one():
    with pytest.raises(PDSyntaxError):
        LinkDiagram(((1, 1, 2, 2),), (2,))


def test_crossings_have_four_edges():
    with pytest.raises(PDSyntaxError):
        LinkDiagram(((1, 1, 2, 2, 3, 3),), (1,))


def test_edge_ids_are_positive_ints():
    with pytest.raises(PDSyntaxError):
        from_pd([(0, 1, 0, 1)])


def test_head_tail_agree_with_successor():
    d = parse_pd(FIG8)
    for e in d.edges:
        nxt = d.successor(e)
        assert d.head(e)[0] == d.tail(nxt)[0]


def test_unknot_diagram():
    u = unknot_diagram()
    assert u.n == 0
    assert len(u.components) == 1
    assert u.writhe == 0
    assert is_planar(u)


def test_components_of_split_union():
    d = parse_pd(LEFT_TREFOIL)
    with_circle = LinkDiagram(d.crossings, d.signs, d.free_edges + (99,))
    assert len(with_circle.components) == 2


def test_resolve_counts():
    d = parse_pd(LEFT_TREFOIL)
    # all-0 and all-1 smoothings of the left trefoil: 3 and 2 circles
    assert len(d.resolve(0)) == 3
    assert len(d.resolve(7)) == 2


def test_faces_euler_formula_on_table():
    for name, d in sorted(load_table().items()):
        f = faces(d)
        assert len(f) == d.n + 2, name
        assert is_planar(d), name
        darts = sorted(x for orbit in f for x in orbit)
        assert darts == sorted((ci, s) for ci in range(d.n)
                               for s in range(4))


def test_nonplanar_code_detected():
    d = from_pd(((1, 2, 3, 4), (2, 3, 1, 4)))
    assert len(faces(d)) == 2
    assert not is_planar(d)


def test_planarity_per_component():
    # split union of the genus-1 code and a trefoil is still non-planar
    bad = from_pd(((1, 2, 3, 4), (2, 3, 1, 4)))
    tre = parse_pd(LEFT_TREFOIL)
    shift = {e: e + 10 for e in tre.edges}
    tre = tre.relabeled(shift)
    both = LinkDiagram(bad.crossings + tre.crossings,
                       bad.signs + tre.signs, ())
    assert not is_planar(both)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_canonical_key_relabel_invariant(data):
    names = sorted(load_table())
    d = load_table()[data.draw(st.sampled_from(names))]
    edges = sorted(d.edges)
    perm = data.draw(st.permutations(edges))
    mapping = dict(zip(edges, perm))
    r = d.relabeled(mapping)
    assert r.canonical_key() == d.canonical_key()
    assert r.writhe == d.writhe


@given(st.sampled_from(sorted(load_table())))
@settings(max_examples=35, deadline=None)
def test_mirror_involution(name):
    d = load_table()[name]
    m = d.mirror()
    assert m.writhe == -d.writhe
    assert m.n_plus == d.n_minus
    assert m.mirror().canonical_key() == d.canonical_key()
    assert is_planar(m)


def test_mirror_preserves_faces():
    d = load_table()["6_2"]
    assert len(faces(d.mirror())) == len(faces(d))


def test_edges_are_worked_out_once():
    d = load_table()["5_2"]
    assert d.edges is d.edges
    assert d.edges == tuple(range(1, 11))
    loops = LinkDiagram((), (), (4, 2))
    assert loops.edges is loops.edges and loops.edges == (2, 4)
