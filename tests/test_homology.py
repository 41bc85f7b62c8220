"""Homology pipeline: reductions, torsion splits, summaries, the quotient
oracle, bounds."""

from copy import deepcopy
from dataclasses import replace
from importlib import import_module
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from knothom.diagram import parse_pd, unknot_diagram
from knothom.frobenius import theory_from_selector, alpha_generic
from knothom.cobordism import (apply_move, decoration_chain_map, Move,
                               saddle_chain_map)
from knothom.complexes import (ChainComplex, ChainMap, CubeComplex,
                               add_maps, axpy, build_complex, compose,
                               identity_map, zero_map, scale_map)
from knothom.homology import (reduce_complex, reduction_identities_hold,
                              HomologyData, homology, induced_map,
                              induced_maps_equal, maps_equal_on_homology,
                              torsion_bound, quotient_dims)
from knothom.tables import braid_pd, load_table
from knothom.tangles import scan_complex

from elimination_oracle import reduce_pairs

# reference values computed by the dense SNF pipeline and frozen
BN_3_1 = {
    "free": [(0, -3, 1), (0, -1, 1)],
    "torsion": [(-2, -7, 1, 1), (-2, -5, 1, 1)],
    "mu": 1,
}
BN_4_1 = {
    "free": [(0, -1, 1), (0, 1, 1)],
    "torsion": [(-1, -3, 1, 1), (-1, -1, 1, 1), (2, 3, 1, 1), (2, 5, 1, 1)],
    "mu": 1,
}
BN_5_1 = {
    "free": [(0, -5, 1), (0, -3, 1)],
    "torsion": [(-4, -13, 1, 1), (-4, -11, 1, 1),
                (-2, -9, 1, 1), (-2, -7, 1, 1)],
    "mu": 1,
}
BN_6_1 = {
    "free": [(0, -1, 1), (0, 1, 1)],
    "torsion": [(-1, -3, 1, 1), (-1, -1, 1, 1), (1, 1, 1, 1), (1, 3, 1, 1),
                (2, 3, 1, 1), (2, 5, 1, 1), (4, 7, 1, 1), (4, 9, 1, 1)],
    "mu": 1,
}
# torsion of order 2: 8_19 = T(3,4), and T(3,5) as the closure of
# (s1 s2)^5
BN_8_19 = {
    "free": [(0, 5, 1), (0, 7, 1)],
    "torsion": [(3, 11, 1, 1), (3, 13, 1, 1), (5, 15, 2, 1), (5, 17, 2, 1)],
    "mu": 2,
}
BN_T_3_5 = {
    "free": [(0, 7, 1), (0, 9, 1)],
    "torsion": [(3, 13, 1, 1), (3, 15, 1, 1), (5, 17, 2, 1), (5, 19, 2, 1),
                (7, 19, 1, 1), (7, 21, 1, 1)],
    "mu": 2,
}


TORUS_BRAIDS = {"T(2,9)": ([1] * 9, 2), "T(3,5)": ([1, 2] * 5, 3)}


def diagram_of(name):
    """A table knot, or a torus knot as the closure of its braid."""
    if name in TORUS_BRAIDS:
        return parse_pd(braid_pd(*TORUS_BRAIDS[name]))
    return load_table()[name]


def predicted_quotient_dims(summary, k):
    """dim H(C / t^k) at each (r, q) as a summary of H(C) predicts it by
    universal coefficients: t^j times each free generator for j < k; for
    each torsion generator y of order a, t^j y for j < min(a, k) and
    t^j x for k - a <= j < k, where d x = t^a y."""
    dims = {}

    def add(key, m):
        dims[key] = dims.get(key, 0) + m
    for r, q, m in summary.free:
        for j in range(k):
            add((r, q - 2 * j), m)
    for r, q, a, m in summary.torsion:
        for j in range(min(a, k)):
            add((r, q - 2 * j), m)
        for j in range(max(0, k - a), k):
            add((r - 1, q - 2 * a - 2 * j), m)
    return dims


def matches_quotient_dims(cx, summary):
    """Whether the oracle, which ranks C / t^k on the whole complex
    without elimination, gives what the summary predicts for every
    k = 1 .. mu + 1; the last k would see torsion of order above mu."""
    return all(quotient_dims(cx, k) == predicted_quotient_dims(summary, k)
               for k in range(1, summary.max_torsion_order() + 2))


@pytest.mark.parametrize("name, sel", [
    ("8_19", "bn"), ("T(3,5)", "bn"), ("6_1", "alpha@0,t/f3")])
def test_torsion_generators_have_their_order(name, sel):
    # t^(k-1) times a torsion generator of order k is not zero in
    # homology, and t^k times it is: its canonical coordinates say so
    hd = HomologyData(build_complex(diagram_of(name),
                                    theory_from_selector(sel)))
    R = hd.theory.ring
    orders = []
    for r in hd.degrees():
        pres = hd.presentation(r)
        for z, k in zip(hd.gen_cycles_original(r), pres.ann):
            if k is None:
                continue
            orders.append(k)
            multiples = [{i: R.mul(R.monomial(R.base.one, j), v)
                          for i, v in z.items()} for j in (k - 1, k)]
            below, at = (hd.canonical_coords(r, hd.to_work_coords(r, v))
                         for v in multiples)
            assert any(below) and not any(at), (r, k)
    assert max(orders) == hd.summary().max_torsion_order()


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_split_of_random_graded_complexes(data):
    # two-term complexes with exponents forced by generator degrees, as
    # in a homogeneous differential, the input class that homology
    # presents: the summary matches the oracle, and each generator cycle
    # has its own unit vector as canonical coordinates
    th = theory_from_selector(data.draw(st.sampled_from(["bn",
                                                         "alpha@0,t/f3"])))
    R = th.ring
    sdeg = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    tdeg = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    d0 = {}
    for s, ds in enumerate(sdeg):
        for t, dt in enumerate(tdeg):
            if ds >= dt and data.draw(st.booleans()):
                c = data.draw(st.integers(1, R.char - 1))
                d0.setdefault(s, {})[t] = R.monomial(R.base.from_int(c),
                                                     ds - dt)
    cx = ChainComplex(th, {0: [("a", s) for s in range(len(sdeg))],
                           1: [("b", t) for t in range(len(tdeg))]},
                      {0: [-2 * e for e in sdeg], 1: [-2 * e for e in tdeg]},
                      diffs={0: d0})
    hd = HomologyData(cx)
    assert matches_quotient_dims(cx, hd.summary())
    for r in hd.degrees():
        for b, z in enumerate(hd.presentation(r).gen_vecs):
            coords = hd.canonical_coords(r, z)
            assert coords == [R.one if c == b else R.zero
                              for c in range(len(coords))]


def test_reduction_identities():
    table = load_table()
    for sel in ("bn", "alpha@0,t/f2"):
        th = theory_from_selector(sel)
        for name in ("3_1", "4_1", "5_2"):
            cx = build_complex(table[name], th)
            redn = reduce_complex(cx)
            assert reduction_identities_hold(redn), (sel, name)
            assert redn.red.total_rank() < cx.total_rank()
            assert redn.red.check_d_squared()


SMALL_TABLE = ["3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3"]


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f2", "alpha@0,t/f3"])
@pytest.mark.parametrize("name", SMALL_TABLE)
def test_replayed_reduction_maps_satisfy_the_identities(name, sel):
    # incl, proj and the homotopy replay the recorded cancellations;
    # their matrices, built column by column, must satisfy proj∘incl = id
    # and id - incl∘proj = dH + Hd
    cx = build_complex(load_table()[name], theory_from_selector(sel))
    redn = reduce_complex(cx)
    assert redn.red.total_rank() < cx.total_rank()
    assert reduction_identities_hold(redn), (sel, name)


def test_reduction_identities_fail_on_a_tampered_map():
    # negative control: the oracle rejects a projection that is off in
    # one column
    cx = build_complex(load_table()["3_1"], theory_from_selector("bn"))
    redn = reduce_complex(cx)
    proj = redn.proj
    r = next(r for r in redn.red.degrees if redn.red.rank(r))
    tampered = ChainMap(cx, redn.red, lambda rr, vec: (
        axpy(cx.ring, proj.apply(rr, vec), cx.ring.one, {0: cx.ring.one})
        if rr == r and 0 in vec else proj.apply(rr, vec)), 0, 0, "proj")
    assert not reduction_identities_hold(replace(redn, proj=tampered))


def _unit_entries(cx):
    R = cx.ring
    return [(r, s, t) for r in cx.degrees for s, col in cx.d(r).items()
            for t, v in col.items() if R.is_unit(v)]


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f3"])
def test_default_elimination_is_maximal(sel):
    # the default elimination cancels every unit entry, fill-in included
    th = theory_from_selector(sel)
    for name, d in load_table().items():
        redn = reduce_complex(build_complex(d, th))
        assert not _unit_entries(redn.red), (sel, name)


def test_default_elimination_is_maximal_on_t_2_9():
    cx = build_complex(parse_pd(braid_pd([1] * 9, 2)),
                       theory_from_selector("bn"))
    redn = reduce_complex(cx)
    assert redn.red.total_rank() == 18
    assert not _unit_entries(redn.red)


def _two_degree_complex(sel, gens, d0):
    """A hand-built complex in degrees 0 and 1 with differential d0."""
    qdeg = {r: [0] * len(g) for r, g in gens.items()}
    return ChainComplex(theory_from_selector(sel), gens, qdeg,
                        diffs={0: d0})


def test_default_elimination_pushes_a_column_again_on_fill_in():
    # over a field or F[h] a graded complex only gains units in columns
    # that already hold one; over Z two non-units can sum to a unit.
    # Column a0 (d a0 = 3 b0 + 2 b1) holds no unit when it is popped;
    # cancelling a1 (d a1 = b0 + b1) against b0 turns it into -b1, and
    # without the second push it survives
    cx = _two_degree_complex("alpha@-1,2/z",
                             {0: ["a0", "a1"], 1: ["b0", "b1"]},
                             {0: {0: 3, 1: 2}, 1: {0: 1, 1: 1}})
    assert reduce_complex(cx).red.total_rank() == 0
    cx = build_complex(load_table()["6_3"],
                       theory_from_selector("alpha@-1,2/z"))
    assert not _unit_entries(reduce_complex(cx).red)


def test_unit_entry_check_flags_an_unreduced_complex():
    # negative control for the two tests above
    assert _unit_entries(build_complex(load_table()["3_1"],
                                       theory_from_selector("bn")))


def test_prescribed_pairs_are_checked():
    # the prescribed-pair oracle of the r1/r2 read-off refuses a pair
    # given twice and a pair whose entry is not a unit
    cx = build_complex(load_table()["3_1"], theory_from_selector("bn"))
    R = cx.ring
    r = cx.degrees[0]
    units = [(s, t) for s, col in cx.d(r).items() for t, v in col.items()
             if R.is_unit(v)]
    others = [(s, t) for s, col in cx.d(r).items() for t, v in col.items()
              if not R.is_unit(v)]
    s0, t0 = units[0]
    with pytest.raises(ValueError, match="already gone"):
        reduce_pairs(cx, [(r, s0, t0)] * 2)
    s1, t1 = others[0]
    with pytest.raises(ValueError, match="not a unit"):
        reduce_pairs(cx, [(r, s1, t1)])


def test_a_prescribed_source_cancelled_as_a_target_is_already_gone():
    # t0 is cancelled against s0 in degree r, so the pair (t0, t1) of
    # degree r + 1 is gone, whatever order the pairs come in
    cx = build_complex(load_table()["3_1"], theory_from_selector("bn"))
    R = cx.ring
    r = cx.degrees[0]
    s0, t0, t1 = next((s, t, u) for s, col in cx.d(r).items()
                      for t, v in col.items() if R.is_unit(v)
                      for u, w in cx.d(r + 1).get(t, {}).items()
                      if R.is_unit(w))
    assert (reduce_pairs(cx, [(r + 1, t0, t1)]).red.total_rank()
            == cx.total_rank() - 2)
    with pytest.raises(ValueError, match="already gone"):
        reduce_pairs(cx, [(r + 1, t0, t1), (r, s0, t0)])


# -- streamed elimination -------------------------------------------------

@pytest.mark.parametrize("name", ["3_1", "8_19", "T(2,9)"])
def test_summary_streams_the_cube(name, monkeypatch):
    # elimination builds each degree once, at its turn, and the cube
    # stores none of the blocks it consumed
    built = []
    build = CubeComplex._build_degree

    def counting_build(self, r, *args, **kwargs):
        built.append(r)
        return build(self, r, *args, **kwargs)

    monkeypatch.setattr(CubeComplex, "_build_degree", counting_build)
    cx = build_complex(diagram_of(name), theory_from_selector("bn"))
    homology(cx)
    assert cx._diffs == {}
    assert sorted(built) == cx.degrees


def _record(redn):
    """The cancellation steps the reduction's maps replay."""
    return redn.proj.act.__self__.steps


def _pinned_pairs():
    """The blocks of ``elimination_pairs.txt``: {(knot, theory): [(r, x,
    y), ...]} in the order of the file."""
    path = os.path.join(os.path.dirname(__file__), "elimination_pairs.txt")
    blocks = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            if line.startswith("== "):
                name, sel, count = line.split()[1:]
                steps = blocks[(name, sel)] = []
                expected = int(count)
            else:
                steps.append(tuple(map(int, line.split())))
        assert len(steps) == expected
    return blocks


PINNED_PAIRS = _pinned_pairs()


def test_pinned_pairs_cover_three_knots_under_two_theories():
    assert sorted(PINNED_PAIRS) == sorted(
        (name, sel) for name in ("5_2", "7_1", "8_19")
        for sel in ("bn", "alpha@0,t/f3"))


@pytest.mark.parametrize("name,sel", sorted(PINNED_PAIRS))
def test_elimination_order_is_pinned(name, sel):
    # the order of the cancellations fixes the basis that elimination
    # leaves, and so every printed coordinate: a change to the kernel may
    # not reorder its pivots
    redn = reduce_complex(build_complex(load_table()[name],
                                        theory_from_selector(sel)))
    assert [step[:3] for step in _record(redn)] == PINNED_PAIRS[(name, sel)]


def _same_reduction(a, b):
    assert a.red.gens == b.red.gens
    assert a.red.qdeg == b.red.qdeg
    assert all(a.red.d(r) == b.red.d(r) for r in a.red.degrees)
    assert _record(a) == _record(b)


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f3"])
def test_stored_blocks_reduce_like_fresh_ones(sel):
    # a materialized cube hands elimination copies of its blocks: the
    # reduction equals that of a fresh cube, which builds its blocks at
    # their turn, and the stored blocks are left as they were built
    th = theory_from_selector(sel)
    table = load_table()
    names = [n for n in sorted(table) if len(table[n].crossings) <= 7]
    assert len(names) == 14
    for name in names:
        fresh = reduce_complex(build_complex(table[name], th))
        cx = build_complex(table[name], th).materialize()
        _same_reduction(reduce_complex(cx), fresh)
        rebuilt = build_complex(table[name], th)
        assert all(cx.d(r) == rebuilt._build_degree(r) for r in cx.degrees)
        assert cx.check_d_squared()


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f3"])
def test_summary_eliminates_once(sel, monkeypatch):
    # homology() eliminates once and splits what is left as it is: a
    # second elimination would find no unit entry to cancel
    calls = []
    reduce = reduce_complex

    def counting_reduce(cx, *args, **kwargs):
        calls.append(cx)
        return reduce(cx, *args, **kwargs)

    monkeypatch.setattr(import_module("knothom.homology"), "reduce_complex",
                        counting_reduce)
    diagram = load_table()["6_1"]
    th = theory_from_selector(sel)
    cx = build_complex(diagram, th)
    s = homology(cx)
    assert calls == [cx]
    assert matches_quotient_dims(cx, s)
    assert calls == [cx]


# -- pivot rule -----------------------------------------------------------

@pytest.mark.parametrize("d0, first", [
    # d(a0) = b0 + b1 and d(a1) = b0: row b1 is shorter than row b0
    ({0: {0: 1, 1: 1}, 1: {0: 1}}, (0, 0, 1)),
    # rows b0 and b1 both have one entry: the tie goes to b0
    ({0: {0: 1, 1: 1}, 1: {2: 1}}, (0, 0, 0)),
])
def test_pivot_is_the_unit_target_with_the_shortest_row(d0, first):
    # a popped column cancels against its unit target with the fewest
    # live entries in its row, ties to the least target
    cx = _two_degree_complex("kh-f2", {0: ["a0", "a1"],
                                       1: ["b0", "b1", "b2"]}, d0)
    redn = reduce_complex(cx)
    assert _record(redn)[0][:3] == first
    assert reduction_identities_hold(redn)
    assert redn.red.total_rank() == 1


def test_unknot_homology():
    cx = build_complex(unknot_diagram(), theory_from_selector("bn"))
    s = homology(cx)
    assert sorted(s.free) == [(0, -1, 1), (0, 1, 1)]
    assert s.torsion == ()
    assert s.max_torsion_order() == 0
    assert sum(m for _, _, m in s.free) == 2


@pytest.mark.parametrize("name,expected", [
    ("3_1", BN_3_1), ("4_1", BN_4_1), ("5_1", BN_5_1), ("6_1", BN_6_1),
    ("8_19", BN_8_19), ("T(3,5)", BN_T_3_5)])
def test_bn_reference_values(name, expected):
    cx = build_complex(diagram_of(name), theory_from_selector("bn"))
    s = homology(cx)
    assert sorted(s.free) == expected["free"], name
    assert sorted(s.torsion) == expected["torsion"], name
    assert s.max_torsion_order() == expected["mu"]


def test_alpha_specialization_matches_bn_on_trefoil():
    # with roots (0, t) over F2 the engine is the same h-torsion story
    cx = build_complex(load_table()["3_1"], theory_from_selector("alpha@0,t/f2"))
    s = homology(cx)
    assert sorted(s.free) == BN_3_1["free"]
    assert sorted(s.torsion) == BN_3_1["torsion"]


@pytest.mark.parametrize("name", ["3_1", "4_1", "5_2"])
def test_dense_equals_reduced(name):
    # the reduced route against the oracle on the whole cube; alpha@t,-t/q
    # is the graded theory over a field of characteristic 0
    for sel in ("bn", "alpha@0,t/f3", "alpha@t,-t/q"):
        cx = build_complex(load_table()[name], theory_from_selector(sel))
        assert matches_quotient_dims(cx, homology(cx)), sel


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f3", "alpha@t,-t/q"])
def test_order_two_torsion_matches_the_oracle(sel):
    cx = build_complex(load_table()["8_19"], theory_from_selector(sel))
    s = homology(cx)
    assert s.max_torsion_order() == 2
    assert matches_quotient_dims(cx, s)


def test_oracle_rejects_a_lowered_torsion_order():
    # negative control: 8_19's summary with its order-2 torsion lowered to
    # order 1 predicts other dimensions than the cube has
    cx = build_complex(load_table()["8_19"], theory_from_selector("bn"))
    s = homology(cx)
    lowered = replace(s, torsion=tuple((r, q, min(a, 1), m)
                                       for r, q, a, m in s.torsion))
    assert lowered != s and lowered.max_torsion_order() == 1
    assert matches_quotient_dims(cx, s)
    assert not matches_quotient_dims(cx, lowered)


def test_generic_alpha_needs_specializing():
    cx = build_complex(load_table()["3_1"], alpha_generic())
    with pytest.raises(ValueError):
        HomologyData(cx)


def test_field_homology_has_no_torsion():
    cx = build_complex(load_table()["4_1"], theory_from_selector("kh-f2"))
    s = homology(cx)
    assert s.torsion == ()
    assert s.max_torsion_order() == 0


def _free_dims(summary):
    return {(r, q): m for r, q, m in summary.free}


def test_bn_determines_f2_dims():
    # kh-f2 is bn modulo h: its summary, the bn summary's prediction for
    # k = 1 and the oracle on the bn cube must agree
    table = load_table()
    for name in ("3_1", "4_1", "5_2", "6_3"):
        cx = build_complex(table[name], theory_from_selector("bn"))
        s = homology(cx)
        kh = homology(build_complex(table[name],
                                    theory_from_selector("kh-f2")))
        assert kh.torsion == ()
        assert _free_dims(kh) == predicted_quotient_dims(s, 1), name
        assert quotient_dims(cx, 1) == _free_dims(kh), name


@st.composite
def braid_words(draw):
    """(word, strands): a braid word on 3 or 4 strands with at most 6
    letters that crosses every position."""
    strands = draw(st.sampled_from([3, 4]))
    extra = draw(st.lists(st.integers(1, strands - 1), max_size=7 - strands))
    positions = draw(st.permutations(list(range(1, strands)) + extra))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(positions),
                          max_size=len(positions)))
    return [s * p for s, p in zip(signs, positions)], strands


@given(braid_words())
@settings(max_examples=10, deadline=None)
def test_reduced_route_matches_the_dense_oracle_on_braid_closures(braid):
    # routes that share no elimination must agree on diagrams nobody
    # picked: the summary against the oracle on the whole cube and against
    # the scanned complex, and the bn summary against the kh-f2 summary
    diagram = parse_pd(braid_pd(*braid))
    for sel in ("bn", "alpha@0,t/f3"):
        th = theory_from_selector(sel)
        cx = build_complex(diagram, th)
        s = homology(cx)
        assert matches_quotient_dims(cx, s), sel
        assert homology(scan_complex(diagram, th)) == s, sel
        if sel == "bn":
            kh = homology(build_complex(diagram,
                                        theory_from_selector("kh-f2")))
            assert _free_dims(kh) == predicted_quotient_dims(s, 1)


@pytest.mark.parametrize("sel", ["kh-f2", "alpha@1,t/f2"])
def test_quotient_dims_needs_a_graded_polynomial_theory(sel):
    cx = build_complex(load_table()["3_1"], theory_from_selector(sel))
    with pytest.raises(ValueError, match=r"graded theory over F\[t\]"):
        quotient_dims(cx, 1)


def test_mirror_duality_of_summaries():
    table = load_table()
    th = theory_from_selector("bn")
    for name in ("3_1", "5_2"):
        s = homology(build_complex(table[name], th))
        m = homology(build_complex(table[name].mirror(), th))
        assert sorted(m.free) == sorted(
            (-r, -q, k) for r, q, k in s.free), name
        # torsion reflects with a homological shift of one and a q shift
        # of twice the order (duality pairs h^n-torsion across degrees)
        assert sorted(m.torsion) == sorted(
            (-r + 1, -q + 2 * n, n, k) for r, q, n, k in s.torsion), name


def test_torsion_bound_labels():
    s = homology(build_complex(load_table()["3_1"], theory_from_selector("bn")))
    b = torsion_bound(s, theory_from_selector("bn"))
    assert b.label == "mu" and b.value == 1
    sa = homology(build_complex(load_table()["3_1"],
                                theory_from_selector("alpha@0,t/f2")))
    ba = torsion_bound(sa, theory_from_selector("alpha@0,t/f2"))
    assert ba.label == "nu_phi" and ba.value == 1


def test_induced_identity_and_scaling():
    cx = build_complex(load_table()["3_1"], theory_from_selector("bn"))
    hd = HomologyData(cx)
    one = identity_map(cx)
    assert maps_equal_on_homology(one, one, hd, hd)
    z = zero_map(cx, cx)
    assert not maps_equal_on_homology(one, z, hd, hd)
    h = cx.ring.gen()
    hone = scale_map(h, one)
    # h times the identity is not the identity on BN of the trefoil
    # (there is free part in degree 0), but it is a chain map
    assert hone.is_chain_map()
    assert not maps_equal_on_homology(hone, one, hd, hd)


def test_generator_cycles_are_replayed_once():
    # induced_map pushes the presentation generators back through incl
    # once per HomologyData; a second map, and maps built from sums,
    # multiples and composites, replay nothing and leave the kept cycles
    # as they were
    th = theory_from_selector("bn")
    cx = build_complex(load_table()["4_1"], th)
    hd = HomologyData(cx)
    incl = hd.redn.incl
    replays = []
    act = incl.act
    incl.act = lambda r, vec: replays.append(r) or act(r, vec)
    one = identity_map(cx)
    induced_map(one, hd, hd)
    n_gens = sum(len(hd.presentation(r).gens) for r in hd.degrees())
    assert n_gens and len(replays) == n_gens
    kept = {r: deepcopy(hd.gen_cycles_original(r)) for r in hd.degrees()}
    induced_map(one, hd, hd)
    p, q = cx.diagram.under_edges(0)
    dot_p = decoration_chain_map(th, cx, "dot", p)
    dot_q = decoration_chain_map(th, cx, "dot", q)
    assert maps_equal_on_homology(add_maps(dot_p, dot_q),
                                  scale_map(th.s, one), hd, hd)
    assert maps_equal_on_homology(compose(dot_p, dot_q),
                                  compose(dot_q, dot_p), hd, hd)
    assert not maps_equal_on_homology(scale_map(th.s, one), one, hd, hd)
    assert len(replays) == n_gens
    assert {r: hd.gen_cycles_original(r) for r in hd.degrees()} == kept


def _compared_maps(th, cx):
    """Pairs of maps on the cube of a knot that the verify suites compare,
    and negative controls: dots on the two under-edges of each crossing
    against s, and a dot on one of them alone; stars at two edges, and a
    star against its negative; a splitting saddle and its reverse against
    the star; the identity against zero."""
    one = identity_map(cx)
    s_id = scale_map(th.s, one)
    pairs = []
    for c in range(len(cx.diagram.crossings)):
        p, q = cx.diagram.under_edges(c)
        dot_p = decoration_chain_map(th, cx, "dot", p)
        pairs.append((add_maps(dot_p, decoration_chain_map(th, cx, "dot", q)),
                      s_id))
        pairs.append((dot_p, s_id))
    edges = sorted(cx.diagram.edges)
    star = decoration_chain_map(th, cx, "star", edges[0])
    pairs.append((star, decoration_chain_map(th, cx, "star", edges[-1])))
    pairs.append((star, scale_map(th.ring.from_int(-1), star)))
    new, info, inverse = apply_move(cx.diagram, Move("saddle", (edges[0],) * 2))
    cx2 = build_complex(new, th)
    pairs.append((compose(saddle_chain_map(th, cx2, cx, inverse),
                          saddle_chain_map(th, cx, cx2, info)), star))
    pairs.append((one, zero_map(cx, cx)))
    return pairs


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f3"])
def test_one_pass_comparison_agrees_with_two_matrices(sel):
    # maps_equal_on_homology pushes f - g, and f + g up to sign, through
    # homology once; comparing the two induced matrices is its oracle
    th = theory_from_selector(sel)
    table = load_table()
    names = [n for n in sorted(table) if len(table[n].crossings) <= 6]
    assert len(names) == 7
    seen = set()
    for name in names:
        cx = build_complex(table[name], th)
        hd = HomologyData(cx)
        for f, g in _compared_maps(th, cx):
            for sign in (False, True):
                want = induced_maps_equal(induced_map(f, hd, hd),
                                          induced_map(g, hd, hd), hd, sign)
                assert maps_equal_on_homology(f, g, hd, hd, sign) == want, (
                    name, f.name, g.name, sign)
                seen.add((sign, want))
        # a dot on one under-edge is not s; under F3 a star is its own
        # negative only up to sign
        p, _ = cx.diagram.under_edges(0)
        dot_p = decoration_chain_map(th, cx, "dot", p)
        one = identity_map(cx)
        assert not maps_equal_on_homology(dot_p, scale_map(th.s, one), hd, hd,
                                          up_to_sign=True)
        if th.ring.char == 3:
            star = decoration_chain_map(th, cx, "star", 1)
            minus = scale_map(th.ring.from_int(-1), star)
            assert maps_equal_on_homology(star, minus, hd, hd,
                                          up_to_sign=True)
            assert not maps_equal_on_homology(star, minus, hd, hd)
    assert seen == {(False, True), (False, False), (True, True),
                    (True, False)}


def _random_payload(R, rng):
    """A nonzero element of F[t] with one or two terms."""
    F = R.base
    out = R.zero
    while R.is_zero(out):
        for _ in range(rng.randint(1, 2)):
            c = F.from_int(rng.randrange(1, F.char))
            out = R.add(out, R.monomial(c, rng.randrange(3)))
    return out


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f3"])
def test_projection_columns_sum_to_the_replay(sel):
    # proj keeps each generator's projection column and sums them; on
    # random sparse vectors in every degree that equals the replay of the
    # whole vector, reindexed to the reduced complex, both the first
    # time a generator is reached and once its column is kept
    th = theory_from_selector(sel)
    cx = build_complex(load_table()["7_1"], th)
    record = reduce_complex(cx).proj.act.__self__
    R = th.ring
    rng = random.Random(7)
    for r in cx.degrees:
        n = cx.rank(r)
        reduced = {i: j for j, i in enumerate(record.keep[r])}
        assert len(reduced) < n
        for _ in range(30):
            vec = {i: _random_payload(R, rng)
                   for i in rng.sample(range(n), min(n, rng.randint(1, 8)))}
            want = {reduced[i]: v for i, v in record._project(r, vec).items()}
            assert record.proj(r, vec) == want
            assert record.proj(r, vec) == want
        assert record._proj_cols[r]


def test_kept_projection_columns_are_left_as_they_were():
    # the projection columns are shared by every vector that reaches
    # their generator: no induced map, and no caller that changes the
    # vectors it is handed, may change one
    th = theory_from_selector("bn")
    cx = build_complex(load_table()["4_1"], th)
    hd = HomologyData(cx)
    one = identity_map(cx)
    p, q = cx.diagram.under_edges(0)
    dot_p = decoration_chain_map(th, cx, "dot", p)
    dot_q = decoration_chain_map(th, cx, "dot", q)
    induced_map(add_maps(dot_p, dot_q), hd, hd)
    record = hd.redn.proj.act.__self__
    kept = deepcopy(record._proj_cols)
    assert sum(map(len, kept.values()))
    assert maps_equal_on_homology(add_maps(dot_p, dot_q),
                                  scale_map(th.s, one), hd, hd)
    assert not maps_equal_on_homology(dot_p, one, hd, hd)
    induced_map(compose(dot_p, dot_q), hd, hd)
    for r in hd.degrees():
        for z in hd.gen_cycles_original(r):
            w = hd.to_work_coords(r, dot_p.apply(r, z))
            for j in w:
                w[j] = th.s
            w.clear()
    for r, cols in kept.items():
        for i, col in cols.items():
            assert record._proj_cols[r][i] == col, (r, i)


def test_summary_formatting():
    s = homology(build_complex(load_table()["4_1"], theory_from_selector("bn")))
    txt = s.format_table()
    assert "free summands" in txt and "torsion summands" in txt
    d = s.as_dict()
    assert sorted(d) == ["free", "theory", "torsion"]


# -- typed raises, which python -O keeps ------------------------------------

def _trefoil_homology():
    return HomologyData(build_complex(load_table()["3_1"],
                                      theory_from_selector("bn")))


def test_induced_map_rejects_a_degree_shift():
    hd = _trefoil_homology()
    with pytest.raises(ValueError, match="degree-preserving"):
        induced_map(hd.redn.homotopy, hd, hd)


def test_canonical_coords_rejects_a_non_cycle():
    hd = _trefoil_homology()
    W = hd.work
    r, s = next((r, s) for r in W.degrees for s in W.d(r))
    with pytest.raises(ValueError, match="not a cycle"):
        hd.canonical_coords(r, {s: W.ring.one})


def _graded_two_degree_complex(qdeg, d0):
    """A hand-built bn complex in degrees 0 and 1 with q-degrees qdeg and
    differential d0, whose entries are exponents of h."""
    th = theory_from_selector("bn")
    return ChainComplex(
        th, {r: [(r, i) for i in range(len(q))] for r, q in qdeg.items()},
        qdeg, diffs={0: {s: {t: th.ring.monomial(1, e)
                             for t, e in col.items()}
                         for s, col in d0.items()}})


@pytest.mark.parametrize("d0", [
    # the pivot h^2 at (a0, b0) does not divide the entry h in its row
    {0: {0: 2}, 1: {0: 1}},
    # nor the entry h in its column
    {0: {0: 2, 1: 1}},
], ids=["row", "column"])
def test_split_rejects_a_pivot_that_does_not_divide(d0):
    # a reduced complex (no unit entry) with an entry that disagrees with
    # the q-degrees, which put every entry at h^2
    cx = _graded_two_degree_complex({0: [0, 0], 1: [4, 4]}, d0)
    with pytest.raises(ValueError, match="does not divide"):
        homology(cx)
    with pytest.raises(ValueError, match="does not divide"):
        HomologyData(cx)


def test_presentation_rejects_a_generator_that_is_not_q_homogeneous():
    # a reduced complex whose q-degrees disagree with its differential:
    # shift the target of one entry, so that its torsion generator and
    # the pivot that splits it off disagree with the grading
    cx = build_complex(load_table()["3_1"], theory_from_selector("bn"))
    red = reduce_complex(cx).red
    homology(red)
    r, col = next((r, col) for r in red.degrees for col in red.d(r).values())
    red.qdeg[r + 1][min(col)] += 2
    with pytest.raises(ValueError, match="disagrees with the q-degrees"):
        homology(red)
