"""Cube-of-resolutions complexes: shape, gradings, local faces."""

import pytest
from hypothesis import given, settings, strategies as st

from knothom.diagram import from_pd, parse_pd, unknot_diagram
from knothom.frobenius import theory_from_selector
from knothom.complexes import (build_complex, CubeComplex, identity_map,
                               zero_map, compose, add_maps, scale_map,
                               maps_equal, mat_mul, mat_add, mat_eq, popcount)
from knothom.jones import quantum_jones
from knothom.tables import load_table

LEFT_TREFOIL = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
SELECTORS = ["bn", "kh-f2", "alpha", "alpha@0,t/f2", "alpha@1,-1/q"]

SMALL = ["3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3"]


def test_unknot_complex():
    cx = build_complex(unknot_diagram(), theory_from_selector("bn"))
    assert cx.degrees == [0]
    assert cx.rank(0) == 2
    assert sorted(cx.qdeg[0]) == [-1, 1]
    assert cx.d(0) == {}
    assert cx.check_d_squared()


def test_trefoil_complex_shape():
    d = parse_pd(LEFT_TREFOIL)
    cx = build_complex(d, theory_from_selector("bn"))
    # three negative crossings: homological degrees -3..0
    assert cx.degrees == [-3, -2, -1, 0]
    expected_total = sum(2 ** len(d.resolve(s)) for s in range(8))
    assert cx.total_rank() == expected_total
    for r in cx.degrees:
        states = [s for s in range(8) if popcount(s) == r + 3]
        assert cx.rank(r) == sum(2 ** len(d.resolve(s)) for s in states)


@pytest.mark.parametrize("sel", SELECTORS)
def test_d_squared_trefoil_all_theories(sel):
    cx = build_complex(parse_pd(LEFT_TREFOIL), theory_from_selector(sel))
    assert cx.check_d_squared()


@pytest.mark.parametrize("name", SMALL)
def test_d_squared_small_knots_bn(name):
    cx = build_complex(load_table()[name], theory_from_selector("bn"))
    assert cx.check_d_squared()


def test_d_squared_alpha_generic_six_crossings():
    cx = build_complex(load_table()["6_2"], theory_from_selector("alpha"))
    assert cx.check_d_squared()


@pytest.mark.parametrize("sel", ["bn", "kh-f2", "alpha", "alpha@0,t/f2"])
def test_q_homogeneity(sel):
    cx = build_complex(load_table()["5_2"], theory_from_selector(sel))
    assert cx.check_q_homogeneity()


def test_cube_faces_anticommute():
    d = load_table()["5_2"]
    for sel in ("kh-f2", "alpha"):
        cx = build_complex(d, theory_from_selector(sel))
        assert cx.check_faces()


def _d_from_edge_images(cx, r):
    """d out of degree r as the signed sum of edge_images over each
    generator's free bits: the route check_faces and the r1/r2 pair
    finders read."""
    R = cx.ring
    out = {}
    for src, (s, labels) in enumerate(cx.gens[r]):
        col = {}
        for i in range(cx.diagram.n):
            if s >> i & 1:
                continue
            sign = R.from_int(-1 if popcount(s & ((1 << i) - 1)) % 2 else 1)
            _, toff = cx.gen_index(s | (1 << i), 0)
            for tl, coeff in cx.edge_images(s, i, labels):
                col[toff + tl] = R.add(col.get(toff + tl, R.zero),
                                       R.mul(sign, coeff))
        col = {t: v for t, v in col.items() if not R.is_zero(v)}
        if col:
            out[src] = col
    return out


@pytest.mark.parametrize("sel", ["bn", "kh-f2", "alpha", "alpha@0,t/f3"])
@pytest.mark.parametrize("name", ["3_1", "4_1", "5_2"])
def test_differential_matches_edge_images(name, sel):
    # d is built from per-edge label tables; it must not drift from
    # edge_images, which check_faces and the r1/r2 pair finders read
    cx = build_complex(load_table()[name], theory_from_selector(sel))
    for r in cx.degrees:
        assert cx.d(r) == _d_from_edge_images(cx, r), (name, sel, r)


def test_edge_image_comparison_flags_a_tampered_differential():
    cx = _trefoil_with_entry(lambda R: R.monomial(1, 5))
    assert any(cx.d(r) != _d_from_edge_images(cx, r) for r in cx.degrees)


def _trefoil_with_entry(value):
    """The table trefoil's bn complex with one middle differential entry
    replaced by value(ring)."""
    cx = build_complex(load_table()["3_1"], theory_from_selector("bn"))
    cx.materialize()
    col = cx.d(-2)[min(cx.d(-2))]
    col[min(col)] = value(cx.ring)
    return cx


def test_check_d_squared_raises_on_a_tampered_entry():
    cx = _trefoil_with_entry(lambda R: R.monomial(1, 5))
    with pytest.raises(ValueError, match="d\\^2 != 0"):
        cx.check_d_squared()


def test_check_q_homogeneity_raises_on_a_tampered_entry():
    cx = _trefoil_with_entry(lambda R: R.monomial(1, 5))
    with pytest.raises(ValueError, match="changes q"):
        cx.check_q_homogeneity()
    cx = _trefoil_with_entry(lambda R: R.add(R.one, R.monomial(1, 1)))
    with pytest.raises(ValueError, match="not homogeneous"):
        cx.check_q_homogeneity()


def test_check_faces_raises_on_a_tampered_edge(monkeypatch):
    cx = build_complex(load_table()["5_2"], theory_from_selector("kh-f2"))
    edge_images = cx.edge_images

    def without_one_edge(s, i, labels):
        return iter(()) if (s, i) == (0, 0) else edge_images(s, i, labels)
    monkeypatch.setattr(cx, "edge_images", without_one_edge)
    with pytest.raises(ValueError, match="does not anticommute"):
        cx.check_faces()


def test_compose_rejects_mismatched_maps():
    th = theory_from_selector("bn")
    a = build_complex(load_table()["3_1"], th)
    b = build_complex(load_table()["4_1"], th)
    with pytest.raises(ValueError, match="compose"):
        compose(identity_map(b), identity_map(a))


def test_add_maps_rejects_mismatched_maps():
    th = theory_from_selector("bn")
    a = build_complex(load_table()["3_1"], th)
    b = build_complex(load_table()["4_1"], th)
    with pytest.raises(ValueError, match="sources or targets"):
        add_maps(identity_map(a), identity_map(b))
    with pytest.raises(ValueError, match="shift degree"):
        add_maps(identity_map(a), zero_map(a, a, 1))


def test_euler_characteristic_is_quantum_jones():
    th = theory_from_selector("kh-f2")
    for name in SMALL:
        d = load_table()[name]
        cx = build_complex(d, th)
        assert cx.graded_euler_characteristic() == quantum_jones(d), name


def test_euler_characteristic_mirror_duality():
    th = theory_from_selector("kh-f2")
    d = load_table()["6_2"]
    chi = build_complex(d, th).graded_euler_characteristic()
    chi_m = build_complex(d.mirror(), th).graded_euler_characteristic()
    assert chi_m == {-k: c for k, c in chi.items()}


def test_euler_characteristic_guards():
    d = load_table()["3_1"]
    with pytest.raises(ValueError):
        build_complex(d, theory_from_selector("bn")).graded_euler_characteristic()
    with pytest.raises(ValueError):
        build_complex(
            d, theory_from_selector("alpha@1,-1/q")).graded_euler_characteristic()


def test_nonplanar_code_fails_edge_plan():
    # the genus-1 code: a smoothing change keeps one circle one circle
    cx = build_complex(from_pd(((1, 2, 3, 4), (2, 3, 1, 4))),
                       theory_from_selector("bn"))
    with pytest.raises(ValueError, match="must split"):
        cx.materialize()


def test_identity_chain_map():
    cx = build_complex(load_table()["4_1"], theory_from_selector("bn"))
    one = identity_map(cx)
    assert one.is_chain_map()
    assert maps_equal(compose(one, one), one)


def test_zero_map_absorbs():
    cx = build_complex(load_table()["3_1"], theory_from_selector("bn"))
    one = identity_map(cx)
    z = zero_map(cx, cx)
    assert z.is_chain_map()
    assert maps_equal(compose(z, one), z)
    assert maps_equal(add_maps(z, one), one)


def test_scale_map_char2():
    cx = build_complex(load_table()["3_1"], theory_from_selector("bn"))
    one = identity_map(cx)
    doubled = add_maps(one, one)
    assert maps_equal(doubled, zero_map(cx, cx))
    h = cx.ring.gen()
    hone = scale_map(h, one)
    assert hone.is_chain_map()
    assert not maps_equal(hone, one)


def test_sparse_mat_helpers():
    from knothom.rings import PrimeField
    R = PrimeField(2)
    f = {0: {0: 1, 1: 1}}           # col 0 -> rows 0,1
    g = {0: {2: 1}, 1: {2: 1}}
    comp = mat_mul(R, g, f)
    assert comp == {}               # the two paths cancel mod 2
    assert mat_eq(R, mat_add(R, f, f), {})


@given(st.integers(0, 1 << 12))
@settings(max_examples=60, deadline=None)
def test_popcount_matches_bin(n):
    assert popcount(n) == bin(n).count("1")


def test_gen_index_round_trip():
    d = load_table()["3_1"]
    cx = build_complex(d, theory_from_selector("bn"))
    for r in cx.degrees:
        for key in cx.gens[r]:
            s, labels = key
            assert cx.gen_index(s, labels) == cx.index[key]
