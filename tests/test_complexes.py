"""Cube-of-resolutions complexes: shape, gradings, d^2, edge images;
sparse vector helpers."""

import copy
import gc
import os
import weakref

import pytest

from knothom.cobordism import load_movie
from knothom.diagram import Resolution, from_pd, parse_pd, unknot_diagram
from knothom.frobenius import theory_from_selector
from knothom.complexes import (build_complex, CubeComplex, identity_map,
                               zero_map, compose, add_maps, scale_map,
                               maps_equal, mat_mul, mat_add, mat_eq, axpy)
from knothom.homology import HomologyData
from knothom.jones import quantum_jones
from knothom.tables import load_table

from label_oracles import circle_match, plan_images

LEFT_TREFOIL = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
SELECTORS = ["bn", "kh-f2", "alpha", "alpha@0,t/f2", "alpha@1,-1/q"]

SMALL = ["3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3"]
MOVIE_DIRS = [os.path.join(os.path.dirname(__file__), os.pardir, *parts)
              for parts in (("src", "knothom", "data", "movies"),
                            ("perfbench", "inputs"))]
GENUS_ONE = ((1, 2, 3, 4), (2, 3, 1, 4))


def _cube_diagrams():
    """The 35 table knots, every distinct frame of the bundled and frozen
    movies (kinks, free edges), the unknot and the genus-1 code."""
    out = list(load_table().values()) + [unknot_diagram(), from_pd(GENUS_ONE)]
    for directory in MOVIE_DIRS:
        for name in sorted(os.listdir(directory)):
            if name.endswith(".movie"):
                out += load_movie(os.path.join(directory, name)).frames
    return list(dict.fromkeys(out))


def _resolve_by_union_find(D, state):
    """The circles of a smoothing by union-find over every edge: the
    0-smoothing joins a-b and c-d, the 1-smoothing a-d and b-c."""
    parent = {e: e for e in D.edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ci, (a, b, c, d) in enumerate(D.crossings):
        for x, y in ((a, d), (b, c)) if state >> ci & 1 else ((a, b), (c, d)):
            parent[find(y)] = find(x)
    groups = {}
    for e in D.edges:
        groups.setdefault(find(e), []).append(e)
    circles = sorted((tuple(sorted(g)) for g in groups.values()),
                     key=lambda g: g[0])
    return Resolution(tuple(circles), {e: i for i, circ in enumerate(circles)
                                       for e in circ})


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
        states = [s for s in range(8) if s.bit_count() == r + 3]
        assert cx.rank(r) == sum(2 ** len(d.resolve(s)) for s in states)


@pytest.mark.parametrize("sel", SELECTORS)
def test_d_squared_trefoil_all_theories(sel):
    for d in (parse_pd(LEFT_TREFOIL), load_table()["5_2"]):
        cx = build_complex(d, theory_from_selector(sel))
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


def _d_from_plan_images(cx, r):
    """d out of degree r as the signed sum of ``plan_images`` of each
    cube edge's ``edge_plan`` over each generator's free bits."""
    R = cx.ring
    out = {}
    for src, (s, labels) in enumerate(cx.gens[r]):
        col = {}
        for i in range(cx.diagram.n):
            if s >> i & 1:
                continue
            below = (s & ((1 << i) - 1)).bit_count()
            sign = R.from_int(-1 if below % 2 else 1)
            _, toff = cx.gen_index(s | (1 << i), 0)
            for tl, coeff in plan_images(cx.theory, cx.edge_plan(s, i),
                                         labels):
                col[toff + tl] = R.add(col.get(toff + tl, R.zero),
                                       R.mul(sign, coeff))
        col = {t: v for t, v in col.items() if not R.is_zero(v)}
        if col:
            out[src] = col
    return out


def _faces_that_do_not_commute(cx):
    """Every 2-face (s; i, j) of the cube on which the two unsigned edge
    paths through plan_images differ on some generator.  With the cube
    signs the two paths of a face have opposite signs, so an empty list
    means every face anticommutes: d^2 = 0 checked face by face."""
    R = cx.ring
    n = cx.diagram.n
    bad = []
    for s in range(1 << n):
        _, _, c = cx.state_block[s]
        free_bits = [i for i in range(n) if not s >> i & 1]
        for x, i in enumerate(free_bits):
            for j in free_bits[x + 1:]:
                for labels in range(1 << c):
                    acc = {}
                    for first, second, c0 in ((i, j, R.one),
                                              (j, i, R.from_int(-1))):
                        mid_state = s | (1 << first)
                        for mid, c1 in plan_images(
                                cx.theory, cx.edge_plan(s, first), labels):
                            for tgt, c2 in plan_images(
                                    cx.theory, cx.edge_plan(mid_state, second),
                                    mid):
                                axpy(R, acc, R.mul(c0, c1), {tgt: c2})
                    if acc:
                        bad.append((s, i, j))
                        break
    return bad


def test_cube_faces_anticommute():
    d = load_table()["5_2"]
    for sel in ("kh-f2", "alpha"):
        cx = build_complex(d, theory_from_selector(sel))
        assert _faces_that_do_not_commute(cx) == [], sel


@pytest.mark.parametrize("sel", ["bn", "kh-f2", "alpha", "alpha@0,t/f3"])
@pytest.mark.parametrize("name", ["3_1", "4_1", "5_2"])
def test_differential_matches_edge_images(name, sel):
    # d is built from per-edge label tables; it must not drift from the
    # label-by-label images of each edge's plan
    cx = build_complex(load_table()[name], theory_from_selector(sel))
    for r in cx.degrees:
        assert cx.d(r) == _d_from_plan_images(cx, r), (name, sel, r)


def _state_blocks(cx, r):
    """The index ranges of the states of degree r, in order."""
    return [(off, off + (1 << c))
            for s, (rs, off, c) in sorted(cx.state_block.items()) if rs == r]


def _restricted(block, skip, drop):
    """The columns of ``block`` outside ``skip``, without their entries in
    ``drop`` and without the columns that leaves empty."""
    out = {}
    for s, col in block.items():
        if s not in skip:
            col = {t: v for t, v in col.items() if t not in drop}
            if col:
                out[s] = col
    return out


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f3"])
def test_build_of_live_columns_restricts_the_full_build(sel):
    cx = build_complex(load_table()["6_2"], theory_from_selector(sel))
    for r in cx.degrees:
        full = cx._build_degree(r)
        # skip every other state whole, every third generator, none, all
        skips = [{i for k, (lo, hi) in enumerate(_state_blocks(cx, r)) if k % 2
                  for i in range(lo, hi)},
                 set(range(0, cx.rank(r), 3)), set(), set(range(cx.rank(r)))]
        # drop the targets of every other state of degree r + 1 whole,
        # every third target, none, all
        drops = [{i for k, (lo, hi) in enumerate(_state_blocks(cx, r + 1))
                  if k % 2 == 0 for i in range(lo, hi)},
                 set(range(1, cx.rank(r + 1), 3)), set(),
                 set(range(cx.rank(r + 1)))]
        for skip in skips:
            for drop in drops:
                assert cx._build_degree(r, skip, drop) == _restricted(
                    full, skip, drop), (r, skip, drop)
    assert cx._diffs == {}


def test_take_d_copies_a_stored_block_and_stores_no_fresh_one():
    cx = build_complex(load_table()["4_1"], theory_from_selector("bn"))
    r = cx.degrees[1]
    skip, drop = {0}, set(range(0, cx.rank(r + 1), 2))
    taken = cx.take_d(r, skip)
    dropped = cx.take_d(r, skip, drop)
    assert cx._diffs == {}
    stored = cx.d(r)
    assert taken == _restricted(stored, skip, ())
    assert dropped == _restricted(stored, skip, drop) != taken
    assert cx.take_d(r, skip, drop) == dropped
    for col in cx.take_d(r, skip).values():
        col.clear()
    assert stored == cx._build_degree(r)


def test_a_cube_is_freed_without_the_cycle_collector():
    # a cube holds no reference to itself, so dropping the last name
    # frees it at once, also after its blocks are built and eliminated
    gc.disable()
    try:
        cx = build_complex(load_table()["4_1"], theory_from_selector("bn"))
        cx.d(0)
        HomologyData(cx).summary()
        ref = weakref.ref(cx)
        del cx
        assert ref() is None
    finally:
        gc.enable()


def test_edge_image_comparison_flags_a_tampered_differential():
    cx = _trefoil_with_entry(lambda R: R.monomial(1, 5))
    assert any(cx.d(r) != _d_from_plan_images(cx, r) for r in cx.degrees)


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


def _axpy_cases():
    """(ring, c, a): c one and c not one over each ring, and a another
    nonzero element of it."""
    from knothom.rings import PolyRing, PrimeField, Rationals
    F2, Q = PrimeField(2), Rationals()
    F2h, F3t = PolyRing(F2, "h"), PolyRing(PrimeField(3), "t")
    h, t = F2h.gen(), F3t.gen()
    three = Q.from_int(3)
    cases = [(F2h, F2h.one, h), (F2h, F2h.add(F2h.one, h), h),
             (F3t, F3t.one, t), (F3t, F3t.monomial(2, 1), t),
             (Q, Q.one, three), (Q, Q.inv(Q.from_int(-2)), three),
             (F2, F2.one, F2.one), (F2, F2.zero, F2.one)]
    return [pytest.param(R, c, a, id="%s c=%s" % (R.name, R.fmt(c)))
            for R, c, a in cases]


@pytest.mark.parametrize("R, c, a", _axpy_cases())
def test_axpy_adds_drops_zeros_and_leaves_vec_alone(R, c, a):
    vec = {0: R.one, 1: a, 5: R.mul(a, a)}
    before = copy.deepcopy(vec)
    out = {j: v for j, v in ((0, R.neg(c)), (1, R.one), (7, a))
           if not R.is_zero(v)}
    want = {}
    for j in set(out) | set(vec):
        v = R.add(out.get(j, R.zero), R.mul(c, vec.get(j, R.zero)))
        if not R.is_zero(v):
            want[j] = v
    assert axpy(R, out, c, vec) is out
    assert out == want
    assert 0 not in out         # -c + c * 1, or nothing when c = 0
    assert vec == before


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


def test_resolutions_walk_like_union_find():
    # the walk along the smoothing's arcs gives, on every state, the
    # circles and the edge index that union-find over every edge gives
    diagrams = _cube_diagrams()
    assert len(diagrams) > 60
    for D in diagrams:
        for s in range(1 << D.n):
            assert D.resolve(s) == _resolve_by_union_find(D, s), (D, s)


def test_edge_plans_match_circle_match():
    # a target circle's persisting source, read from its least edge, is
    # the one circle_match finds by scanning every edge
    th = theory_from_selector("bn")
    edges = 0
    for D in _cube_diagrams():
        cx = build_complex(D, th)
        for s in range(1 << D.n):
            rs = D.resolve(s)
            for i in range(D.n):
                if s >> i & 1:
                    continue
                try:
                    plan = cx.edge_plan(s, i)
                except ValueError:
                    assert D.crossings == GENUS_ONE
                    continue
                a, _, c, _ = D.crossings[i]
                assert plan[4] == circle_match(
                    rs, D.resolve(s | 1 << i), (rs.index[a], rs.index[c]))
                edges += 1
    assert edges > 30000


def test_nonplanar_code_fails_edge_plan():
    # the genus-1 code: a smoothing change keeps one circle one circle
    cx = build_complex(from_pd(GENUS_ONE), theory_from_selector("bn"))
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


def test_gen_index_round_trip():
    d = load_table()["3_1"]
    cx = build_complex(d, theory_from_selector("bn"))
    for r in cx.degrees:
        for i, (s, labels) in enumerate(cx.gens[r]):
            assert cx.gen_index(s, labels) == (r, i)
