"""Elementary cobordisms: move mechanics, chain maps, movie plumbing."""

import os
import random

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from knothom.diagram import LinkDiagram, parse_pd, unknot_diagram, is_planar
from knothom.frobenius import theory_from_selector
from knothom.complexes import (ChainComplex, CubeComplex, build_complex,
                               identity_map, zero_map, circle_match,
                               plan_images, compose, add_maps, scale_map,
                               maps_equal, mat_eq, mat_mul)
from knothom.homology import (HomologyData, induced_map,
                              maps_equal_on_homology, reduce_complex,
                              reduction_identities_hold, scale_induced)
from knothom.cobordism import (Move, MoveError, MovieError, apply_move,
                               decoration_chain_map, move_chain_map,
                               Movie, parse_movie,
                               load_movie, evaluate_movie,
                               saddle_chain_map,
                               verify_dot_crossing, verify_saddle_split,
                               verify_symmetry, verify_star_placement,
                               ribbon_structure_errors,
                               verify_ribbon_composite, _bigon_pairs,
                               _bigon_structure, _find_kink_loop,
                               _inverse_info, _loop_pairs, _merge_pairs,
                               _relabel_iso, _reidemeister_map,
                               _reidemeister_reduction, _split_pairs)
from knothom.cli import main
from knothom.jones import jones_polynomial
from knothom.tables import load_table, braid_pd

SELECTORS = ["bn", "kh-f2", "alpha", "alpha@0,t/f2", "alpha@1,-1/q"]
MOVIE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                         "knothom", "data", "movies")
FROZEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "inputs")
R_MOVIES = ([os.path.join(MOVIE_DIR, f) for f in sorted(os.listdir(MOVIE_DIR))]
            + [os.path.join(FROZEN_DIR, f) for f in sorted(os.listdir(FROZEN_DIR))
               if f.endswith(".movie")])


# -- raw move mechanics ---------------------------------------------------

def test_r1_round_trip():
    u = unknot_diagram()
    d1, info, _ = apply_move(u, Move("r1+", (1, "+")))
    assert d1.n == 1 and len(d1.components) == 1
    assert info["kind"] == "r1+"
    back, _, _ = apply_move(d1, Move("r1-", info["crossings"]))
    assert back.canonical_key() == u.canonical_key()


def test_r1_signs():
    u = unknot_diagram()
    plus, _, _ = apply_move(u, Move("r1+", (1, "+")))
    minus, _, _ = apply_move(u, Move("r1+", (1, "-")))
    assert plus.writhe == 1 and minus.writhe == -1


def test_r2_round_trip_on_trefoil():
    # edges 2 and 5 of the bundled trefoil share a face
    d = load_table()["3_1"]
    d2, info, _ = apply_move(d, Move("r2+", (2, 5)))
    assert d2.n == 5
    assert is_planar(d2)
    back, _, _ = apply_move(d2, Move("r2-", info["crossings"]))
    assert back.canonical_key() == d.canonical_key()


def test_r3_round_trip():
    d = parse_pd(braid_pd([1, 2, 1], 3))
    d2, info, _ = apply_move(d, Move("r3", (0, 1, 2)))
    assert info == {"kind": "r3", "crossings": (0, 1, 2)}
    assert d2.n == 3
    back, _, _ = apply_move(d2, Move("r3", info["crossings"]))
    assert back.canonical_key() == d.canonical_key()


def test_split_loop_saddle():
    u = unknot_diagram()
    d2, info, _ = apply_move(u, Move("saddle", (1, 1)))
    assert len(d2.components) == 2
    assert info == {"kind": "saddle", "ends": ((1, 1), (1, 2))}
    back, _, _ = apply_move(d2, Move("saddle", info["ends"][1]))
    assert len(back.components) == 1


def test_standard_saddle_changes_components():
    d = load_table()["3_1"]
    # (1, 3) is a cofacial pair; (1, 2) gives a non-planar frame
    d2, info, _ = apply_move(d, Move("saddle", (1, 3)))
    assert info == {"kind": "saddle", "ends": ((1, 3), (7, 8))}
    assert abs(len(d2.components) - len(d.components)) == 1


def test_r2_plus_on_edges_without_common_face_raises():
    d = parse_pd("PD[X[1,5,2,4],X[3,1,4,6],X[5,3,6,2]]")
    with pytest.raises(MoveError, match="non-planar"):
        apply_move(d, Move("r2+", (3, 6)))


def test_birth_and_death():
    u = unknot_diagram()
    d2, info, _ = apply_move(u, Move("birth", ()))
    assert len(d2.components) == 2
    new = (set(d2.free_edges) - set(u.free_edges)).pop()
    d3, _, _ = apply_move(d2, Move("death", (new,)))
    assert d3.canonical_key() == u.canonical_key()


@pytest.mark.parametrize("mv", [
    Move("r1-", (0,)),              # trefoil crossing 0 is not a kink
    Move("r2-", (0, 1)),            # not a bigon pair
    Move("saddle", (99, 1)),        # unknown edge
    Move("death", (1,)),            # component is not a free circle
    Move("r3", (0, 1, 2)),          # no triangle here
    Move("saddle", (1, 2)),         # edges share no face: non-planar frame
])
def test_invalid_moves_raise(mv):
    d = load_table()["3_1"]
    with pytest.raises(MoveError):
        apply_move(d, mv)


def test_move_line_is_keyword_only():
    assert Move("dot", (1,), line=3).line == 3
    with pytest.raises(TypeError):
        Move("birth", (), {"ids": (1,)})


def test_move_error_is_value_error():
    assert issubclass(MoveError, ValueError)
    assert issubclass(MovieError, ValueError)


# -- elementary chain maps ------------------------------------------------

@pytest.mark.parametrize("sel", SELECTORS)
def test_decoration_maps_are_chain_maps(sel):
    th = theory_from_selector(sel)
    cx = build_complex(load_table()["3_1"], th)
    kinds = ["dot", "star"] + (["dot1", "dot2"] if th.alphas else [])
    for kind in kinds:
        f = decoration_chain_map(th, cx, kind, 1)
        assert f.is_chain_map(), (sel, kind)
        assert f.q_shift == -2


@pytest.mark.parametrize("sel", ["bn", "alpha", "alpha@0,t/f2"])
def test_saddle_maps_are_chain_maps(sel):
    th = theory_from_selector(sel)
    d = load_table()["4_1"]
    # (1, 3) is a cofacial pair, so the saddle target stays planar
    mv = Move("saddle", (1, 3))
    d2, info, _ = apply_move(d, mv)
    cx, cx2 = build_complex(d, th), build_complex(d2, th)
    f = move_chain_map(th, cx, cx2, info)
    assert f.is_chain_map()


@pytest.mark.parametrize("sel", ["bn", "alpha"])
def test_kink_and_bigon_maps_are_chain_maps(sel):
    th = theory_from_selector(sel)
    d = load_table()["3_1"]
    for mv in (Move("r1+", (1, "+")), Move("r1+", (1, "-")),
               Move("r2+", (4, 1))):      # (1, 4) gives a non-planar frame
        d2, info, inverse = apply_move(d, mv)
        cx, cx2 = build_complex(d, th), build_complex(d2, th)
        f = move_chain_map(th, cx, cx2, info)
        assert f.is_chain_map(), mv
        g = move_chain_map(th, cx2, cx, inverse)
        assert g.is_chain_map(), inverse


def test_dot_squared_is_relation():
    # on the unknot complex, dot twice equals s dot - p id
    for sel in SELECTORS:
        th = theory_from_selector(sel)
        cx = build_complex(unknot_diagram(), th)
        dot = decoration_chain_map(th, cx, "dot", 1)
        lhs = compose(dot, dot)
        rhs = add_maps(scale_map(th.s, dot),
                       scale_map(th.ring.neg(th.p), identity_map(cx)))
        assert maps_equal(lhs, rhs), sel


def test_death_after_birth_vanishes():
    # the counit kills the unit: a birth immediately undone is zero
    th = theory_from_selector("bn")
    m = parse_movie("start unknot\nbirth\ndeath 2\n")
    total = evaluate_movie(m, th)
    assert maps_equal(total, zero_map(total.source, total.target))


def test_empty_movie_is_identity():
    th = theory_from_selector("bn")
    m = parse_movie("start PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]\n")
    total = evaluate_movie(m, th)
    assert maps_equal(total, identity_map(total.source))


def test_long_movie_composite_applies():
    # a composite built move after move would recurse once per move
    th = theory_from_selector("bn")
    R = th.ring
    total = evaluate_movie(parse_movie("start unknot\n" + "dot 1\n" * 600),
                           th)
    cx = total.source
    _, one = cx.gen_index(0, 0)
    _, x = cx.gen_index(0, 1)
    img = total.apply(0, {one: R.one})
    assert list(img) == [x]                         # dot^600(1) = h^599 X
    assert R.eq(img[x], R.monomial(R.base.one, 599))


def _blocks_equal_product(g, f):
    """compose(g, f), evaluated vector by vector, against the product of
    the factors' matrices; returns the number of nonzero columns."""
    R = f.ring
    gf = compose(g, f)
    cols = 0
    for r in f.source.degrees:
        prod = mat_mul(R, g.block(r + f.r_shift), f.block(r))
        assert mat_eq(R, gf.block(r), prod), r
        cols += len(prod)
    return cols


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f3"])
def test_decoration_and_saddle_composites_match_matrix_product(sel):
    th = theory_from_selector(sel)
    d = load_table()["4_1"]
    d2, info, _ = apply_move(d, Move("saddle", (1, 3)))
    cx, cx2 = build_complex(d, th), build_complex(d2, th)
    saddle = move_chain_map(th, cx, cx2, info)
    assert _blocks_equal_product(
        decoration_chain_map(th, cx2, "star", d2.edges[0]), saddle)
    assert _blocks_equal_product(
        saddle, decoration_chain_map(th, cx, "dot", 2))


@pytest.mark.parametrize("name", sorted(os.listdir(MOVIE_DIR)))
def test_movie_composite_matches_matrix_product(name):
    th = theory_from_selector("bn")
    R = th.ring
    movie = load_movie(os.path.join(MOVIE_DIR, name))
    cxs = movie.complexes(th)
    f = evaluate_movie(movie, th, cxs)
    g = evaluate_movie(movie.reversed(), th, cxs[::-1])
    assert _blocks_equal_product(g, f)
    # the composite against the product of its move maps
    for r in cxs[0].degrees:
        prod = identity_map(cxs[0]).block(r)
        for move_map in movie.chain_maps(th, cxs):
            prod = mat_mul(R, move_map.block(r), prod)
        assert mat_eq(R, f.block(r), prod), r


def test_relabeling_is_checked():
    th = theory_from_selector("bn")
    small = unknot_diagram()
    big, info, _ = apply_move(small, Move("r1+", (1, "+")))
    cx_small, cx_big = build_complex(small, th), build_complex(big, th)
    (ci,) = info["crossings"]
    pairs, eps, loop = _loop_pairs(cx_big, ci)
    redn = reduce_complex(cx_big, pairs=pairs)
    forced = {loop: 1 if eps == 0 else 0}
    fwd, bwd = _relabel_iso(redn, cx_small, {ci: eps}, forced)
    assert fwd.is_chain_map() and bwd.is_chain_map()
    with pytest.raises(MoveError, match="expected layer"):
        _relabel_iso(redn, cx_small, {ci: 1 - eps}, forced)
    with pytest.raises(MoveError, match="wrong label"):
        _relabel_iso(redn, cx_small, {ci: eps}, {loop: 1 - forced[loop]})
    renamed = build_complex(LinkDiagram((), (), (5,)), th)
    with pytest.raises(MoveError, match="no edge in the big one"):
        _relabel_iso(redn, renamed, {ci: eps}, forced)


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f3", "alpha@1,-1/f5"])
@pytest.mark.parametrize("path", R_MOVIES, ids=os.path.basename)
def test_reidemeister_reductions_and_maps(path, sel):
    # every r1/r2 move: its prescribed-pair elimination satisfies the
    # reduction identities, and the move map, which replays that
    # elimination on vectors, has the matrix of the relabeling times the
    # inclusion or projection.  Under alpha@1,-1/f5, X * X = 1 is a unit,
    # so being a unit does not pin which pairs cancel; only the
    # relabeling check tells a right pair set from a wrong one
    th = theory_from_selector(sel)
    R = th.ring
    movie = load_movie(path)
    cxs = movie.complexes(th)
    moves = 0
    for k, info in enumerate(movie.infos):
        if info["kind"] not in ("r1+", "r1-", "r2+", "r2-"):
            continue
        moves += 1
        grow = info["kind"].endswith("+")
        src, tgt = cxs[k], cxs[k + 1]
        small, big = (src, tgt) if grow else (tgt, src)
        redn, fwd, bwd = _reidemeister_reduction(small, big, info)
        assert reduction_identities_hold(redn), (k, info["kind"])
        g, f = (redn.incl, bwd) if grow else (fwd, redn.proj)
        move_map = _reidemeister_map(th, src, tgt, info)
        for r in src.degrees:
            assert mat_eq(R, move_map.block(r),
                          mat_mul(R, g.block(r), f.block(r))), (k, r)
    assert moves


@pytest.mark.parametrize("sel", ["bn", "alpha@t,-t/q"])
@pytest.mark.parametrize("path", R_MOVIES, ids=os.path.basename)
def test_prescribed_pairs_in_any_order_reduce_alike(path, sel):
    # the r1/r2 pairs of a move, given shuffled or reversed, reduce the
    # bigger complex to the same complex, with the same inclusion and
    # projection of every generator, as the same pairs given sorted
    th = theory_from_selector(sel)
    one = th.ring.one
    movie = load_movie(path)
    cxs = movie.complexes(th)
    moves = 0
    for k, info in enumerate(movie.infos):
        if info["kind"] not in ("r1+", "r1-", "r2+", "r2-"):
            continue
        moves += 1
        big = cxs[k + 1] if info["kind"].endswith("+") else cxs[k]
        pairs = (_loop_pairs(big, *info["crossings"])[0]
                 if info["kind"].startswith("r1")
                 else _bigon_pairs(big, *info["crossings"])[0])
        shuffled = list(pairs)
        random.Random(k).shuffle(shuffled)
        a = reduce_complex(big, pairs=sorted(pairs))
        for given in (shuffled, sorted(pairs, reverse=True)):
            b = reduce_complex(big, pairs=given)
            assert a.red.gens == b.red.gens and a.red.qdeg == b.red.qdeg
            for r in big.degrees:
                assert a.red.d(r) == b.red.d(r), (k, r)
                for i in range(big.rank(r)):
                    assert (a.proj.apply(r, {i: one})
                            == b.proj.apply(r, {i: one})), (k, r, i)
                for j in range(a.red.rank(r)):
                    assert (a.incl.apply(r, {j: one})
                            == b.incl.apply(r, {j: one})), (k, r, j)
    assert moves


@pytest.mark.parametrize("sel", ["bn", "alpha@t,-t/q"])
@pytest.mark.parametrize("path", R_MOVIES, ids=os.path.basename)
def test_dropped_targets_change_no_elimination(path, sel, monkeypatch):
    # the loader leaves out the entries at the prescribed sources of the
    # next degree; an elimination through a loader that keeps them must
    # give the same reduced complex and the same inclusion, projection
    # and homotopy of every generator
    th = theory_from_selector(sel)
    one = th.ring.one
    movie = load_movie(path)
    cxs = movie.complexes(th)
    take_d = ChainComplex.take_d
    moves = 0
    for k, info in enumerate(movie.infos):
        if info["kind"] not in ("r1+", "r1-", "r2+", "r2-"):
            continue
        moves += 1
        big = cxs[k + 1] if info["kind"].endswith("+") else cxs[k]
        pairs = (_loop_pairs(big, *info["crossings"])[0]
                 if info["kind"].startswith("r1")
                 else _bigon_pairs(big, *info["crossings"])[0])
        a = reduce_complex(big, pairs=pairs)
        with monkeypatch.context() as m:
            m.setattr(ChainComplex, "take_d",
                      lambda self, r, skip, drop=(): take_d(self, r, skip))
            b = reduce_complex(big, pairs=pairs)
        assert a.red.gens == b.red.gens and a.red.qdeg == b.red.qdeg
        for r in big.degrees:
            assert a.red.d(r) == b.red.d(r), (k, r)
            for i in range(big.rank(r)):
                for f, g in ((a.proj, b.proj), (a.homotopy, b.homotopy)):
                    assert (f.apply(r, {i: one})
                            == g.apply(r, {i: one})), (k, r, i)
            for j in range(a.red.rank(r)):
                assert (a.incl.apply(r, {j: one})
                        == b.incl.apply(r, {j: one})), (k, r, j)
    assert moves


@pytest.mark.parametrize("tamper", ["value", "drop"])
def test_relabeling_rejects_a_tampered_small_differential(tamper):
    # negative control for the entrywise check: one entry of the small
    # complex's differential changed or removed
    th = theory_from_selector("bn")
    small = load_table()["3_1"]
    big, info, _ = apply_move(small, Move("r2+", (2, 5)))
    cx_small, cx_big = build_complex(small, th), build_complex(big, th)
    _reidemeister_reduction(cx_small, cx_big, info)      # untampered: fine
    r = next(r for r in cx_small.degrees if cx_small.d(r))
    col = cx_small.d(r)[min(cx_small.d(r))]
    t = min(col)
    if tamper == "value":
        col[t] = th.ring.mul(col[t], th.ring.gen())
    else:
        del col[t]
    with pytest.raises(MoveError, match="differs from the small diagram"):
        _reidemeister_reduction(cx_small, cx_big, info)


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f3"])
@pytest.mark.parametrize("path", R_MOVIES, ids=os.path.basename)
def test_reverse_move_maps_match_fresh_ones(path, sel):
    # the reversed movie reads the eliminations its forward moves left in
    # the shared complexes; each of its r-move maps must equal, block for
    # block, the map built on freshly built complexes of the same frames
    th = theory_from_selector(sel)
    R = th.ring
    movie = load_movie(path)
    cxs = movie.complexes(th)
    evaluate_movie(movie, th, cxs)
    rev = movie.reversed()
    rcxs = cxs[::-1]
    moves = 0
    for k, info in enumerate(rev.infos):
        if info["kind"] not in ("r1+", "r1-", "r2+", "r2-"):
            continue
        moves += 1
        src, tgt = rcxs[k], rcxs[k + 1]
        big = tgt if info["kind"].endswith("+") else src
        assert big.move_reductions, (k, info["kind"])
        shared = move_chain_map(th, src, tgt, info)
        fresh = _reidemeister_map(th, build_complex(rev.frames[k], th),
                                  build_complex(rev.frames[k + 1], th), info)
        for r in src.degrees:
            assert mat_eq(R, shared.block(r), fresh.block(r)), (k, r)
    assert moves


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f3"])
@pytest.mark.parametrize("path", R_MOVIES, ids=os.path.basename)
def test_inverse_records_undo_every_step(path, sel):
    # each step's inverse record inverts back to the step's own record,
    # is the reversed movie's record at the mirrored step, and gives a
    # chain map from the step's target complex back to its source
    th = theory_from_selector(sel)
    movie = load_movie(path)
    cxs = movie.complexes(th)
    rev = movie.reversed()
    n = len(movie.infos)
    assert rev.frames == movie.frames[::-1] and len(rev.infos) == n
    for k, info in enumerate(movie.infos):
        inverse = _inverse_info(info)
        assert _inverse_info(inverse) == info, k
        assert rev.infos[n - 1 - k] == inverse, k
        assert move_chain_map(th, cxs[k + 1], cxs[k],
                              inverse).is_chain_map(), (k, inverse["kind"])


_REVERSED = Movie.reversed


def _tampered_reverse(movie, kind, field):
    """The reverse of ``movie`` with one record, the inverse of the first
    forward step of ``kind``, given back that step's ``field``: its
    forward kind, or its saddle ends unswapped."""
    rev = _REVERSED(movie)
    k = next(k for k, info in enumerate(movie.infos) if info["kind"] == kind)
    j = len(movie.infos) - 1 - k
    rev.infos[j] = dict(rev.infos[j], **{field: movie.infos[k][field]})
    assert rev.infos[j] != _inverse_info(movie.infos[k])
    return rev


@pytest.mark.parametrize("name,kind,tamper", [
    ("one-saddle-unknot", "birth", "kind"),     # a death turned into a birth
    ("trivial-ribbon", "r1+", "kind"),
    ("trivial-ribbon", "r1-", "kind"),
    ("square-knot", "r2+", "kind"),
    ("trivial-ribbon", "r2-", "kind"),
    ("square-knot", "saddle", "ends"),
])
def test_reversed_movie_with_a_tampered_record_fails(name, kind, tamper,
                                                     monkeypatch):
    # negative control for the inverse records: one reversed step keeps
    # its forward kind, or its saddle ends unswapped.  The record then no
    # longer fits its frames, so its map raises MoveError, and ``movie``
    # exits 2 for it
    th = theory_from_selector("bn")
    path = os.path.join(MOVIE_DIR, name + ".movie")
    movie = load_movie(path)
    cxs = movie.complexes(th)
    f = evaluate_movie(movie, th, cxs)
    ha = HomologyData(cxs[0])
    assert maps_equal_on_homology(
        compose(evaluate_movie(movie.reversed(), th, cxs[::-1]), f),
        identity_map(cxs[0]), ha, ha)                    # untampered: fine
    with pytest.raises(MoveError, match="does not fit its frames"):
        evaluate_movie(_tampered_reverse(movie, kind, tamper), th,
                       cxs[::-1])
    monkeypatch.setattr(Movie, "reversed",
                        lambda self: _tampered_reverse(self, kind, tamper))
    res = CliRunner().invoke(main, ["movie", "--script", path,
                                    "--compose-reverse", "--compare", "id"])
    assert res.exit_code == 2, res.output
    assert "does not fit its frames" in res.output


def test_decoration_record_must_name_an_edge_of_its_frame():
    th = theory_from_selector("bn")
    cx = build_complex(load_table()["3_1"], th)
    assert move_chain_map(th, cx, cx, {"kind": "dot", "edge": 1})
    with pytest.raises(MoveError, match="does not fit its frames"):
        move_chain_map(th, cx, cx, {"kind": "dot", "edge": 99})
    other = build_complex(load_table()["4_1"], th)
    with pytest.raises(MoveError, match="does not fit its frames"):
        move_chain_map(th, cx, other, {"kind": "dot", "edge": 1})


def test_reidemeister_record_must_name_crossings_of_the_bigger_frame():
    # an r1/r2 record names as many crossings as the move removes, each
    # one of the bigger frame
    th = theory_from_selector("bn")
    d = load_table()["3_1"]
    d2, info, inverse = apply_move(d, Move("r2+", (2, 5)))
    cx, cx2 = build_complex(d, th), build_complex(d2, th)
    assert info == {"kind": "r2+", "crossings": (3, 4)}
    assert move_chain_map(th, cx2, cx, inverse).is_chain_map()
    for crossings in ((3,), (3, 3), (3, 5), (3, 4, 0), (3, 3, 4)):
        with pytest.raises(MoveError, match="does not fit its frames"):
            move_chain_map(th, cx2, cx, dict(inverse, crossings=crossings))


def test_r3_record_must_name_three_crossings_of_its_frame():
    # an r3 record fits its frames when it names three distinct crossings
    # of them; its map is not implemented yet
    th = theory_from_selector("bn")
    d = parse_pd(braid_pd([1, 2, 1], 3))
    d2, info, _ = apply_move(d, Move("r3", (0, 1, 2)))
    cx, cx2 = build_complex(d, th), build_complex(d2, th)
    with pytest.raises(MoveError, match="not implemented"):
        move_chain_map(th, cx, cx2, info)
    for crossings in ((0, 1), (0, 1, 1), (0, 1, 3), (0, 1, 2, 0), ("0", 1, 2)):
        with pytest.raises(MoveError, match="does not fit its frames"):
            move_chain_map(th, cx, cx2, dict(info, crossings=crossings))


@pytest.mark.parametrize("name,kind", [("trivial-ribbon", "r1+"),
                                       ("square-knot", "r2+")])
def test_prescribed_elimination_streams_the_big_cube(name, kind,
                                                     monkeypatch):
    # a move's elimination builds each degree of the bigger cube once, at
    # its turn, skipping the column of every prescribed target and every
    # entry at a prescribed source of the next degree, and the cube
    # stores none of the blocks it consumed
    built = []
    build = CubeComplex._build_degree

    def recording_build(self, r, skip=(), drop=()):
        cols = build(self, r, skip, drop)
        built.append((self, r, set(skip), cols))
        return cols

    monkeypatch.setattr(CubeComplex, "_build_degree", recording_build)
    th = theory_from_selector("bn")
    movie = load_movie(os.path.join(MOVIE_DIR, name + ".movie"))
    k = max(k for k, info in enumerate(movie.infos) if info["kind"] == kind)
    info = movie.infos[k]
    small = build_complex(movie.frames[k], th)
    big = build_complex(movie.frames[k + 1], th)
    pairs = (_loop_pairs(big, *info["crossings"])[0] if kind == "r1+"
             else _bigon_pairs(big, *info["crossings"])[0])
    targets = {(r + 1, y) for r, _, y in pairs}
    sources = {(r, x) for r, x, _ in pairs}
    assert {r for r, _ in targets} & set(big.degrees[1:])
    _reidemeister_reduction(small, big, info)
    calls = [(r, skip, cols) for cx, r, skip, cols in built if cx is big]
    assert [r for r, _, _ in calls] == big.degrees
    for r, skip, cols in calls:
        assert {t for rt, t in targets if rt == r} <= skip, r
        assert not any((r + 1, t) in sources
                       for col in cols.values() for t in col), r
    assert big._diffs == {}


def test_two_kinks_out_of_one_complex_get_their_own_reductions():
    # negative control for the key of the shared eliminations: r1- at
    # crossing 0 and at crossing 1 of one two-kink complex
    th = theory_from_selector("bn")
    d = apply_move(unknot_diagram(), Move("r1+", (1, "+")))[0]
    big = apply_move(d, Move("r1+", (1, "+")))[0]
    cx_big = build_complex(big, th)
    smalls = []
    for c in (0, 1):
        small, info, _ = apply_move(big, Move("r1-", (c,)))
        smalls.append((build_complex(small, th), info))
    (cx_a, info_a), (cx_b, info_b) = smalls
    assert _reidemeister_map(th, cx_big, cx_a, info_a).is_chain_map()
    assert _reidemeister_map(th, cx_big, cx_b, info_b).is_chain_map()
    redn_a = cx_big.move_reductions[(cx_a, frozenset((0,)))][0]
    redn_b = cx_big.move_reductions[(cx_b, frozenset((1,)))][0]
    assert redn_a.red.gens != redn_b.red.gens
    # crossing 1's elimination does not land on crossing 0's small
    # complex; it must not be answered by crossing 0's elimination
    with pytest.raises(MoveError):
        _reidemeister_map(th, cx_big, cx_a, info_b)
    assert len(cx_big.move_reductions) == 2


def _pairs_by_label(cx, info):
    """The cancelling pairs of an r1/r2 move worked out label by label,
    each through ``plan_images`` of its cube edge's plan: a merge image
    must be the lone one, a split image the lone one with X on the kink
    or bigon circle.  The kink's loop and side, and the bigon's circle,
    are read off the pair finders."""
    D = cx.diagram

    def pair(s, ci, L, jx=None):
        images = [tl for tl, _ in plan_images(cx.theory, cx.edge_plan(s, ci),
                                              L) if jx is None or tl >> jx & 1]
        assert len(images) == 1, (s, ci, L)
        r, x = cx.gen_index(s, L)
        return r, x, cx.gen_index(s | 1 << ci, images[0])[1]

    def labels(s):
        return range(1 << len(D.resolve(s)))

    pairs = []
    if info["kind"].startswith("r1"):
        (ci,) = info["crossings"]
        _, eps, loop = _loop_pairs(cx, ci)
        for s in range(1 << D.n):
            if s >> ci & 1:
                continue
            if eps:
                jx = D.locate(s | 1 << ci, loop)
                pairs += [pair(s, ci, L, jx) for L in labels(s)]
            else:
                j = D.locate(s, loop)
                pairs += [pair(s, ci, L) for L in labels(s) if not L >> j & 1]
        return pairs
    ci, cj = info["crossings"]
    _, circ = _bigon_pairs(cx, ci, cj)
    om = _bigon_structure(D, ci, cj)[0]
    split, merge = (ci, cj) if circ[0] else (cj, ci)
    for s in range(1 << D.n):
        if s >> ci & 1 or s >> cj & 1:
            continue
        sc = s | 1 << split
        jx = D.locate(sc, om)
        pairs += [pair(s, split, L, jx) for L in labels(s)]
        pairs += [pair(sc, merge, L) for L in labels(sc) if not L >> jx & 1]
    return pairs


@pytest.mark.parametrize("path", R_MOVIES, ids=os.path.basename)
def test_pair_halves_match_the_label_by_label_route(path):
    # the per-state halves compute each target by label arithmetic; on
    # every r1/r2 move they must give the pairs, in order, that walking
    # each label's images gives, under theories with s and p zero and not
    movie = load_movie(path)
    for sel in ("bn", "alpha@1,2/f5", "alpha@t,-t/q"):
        th = theory_from_selector(sel)
        cxs = movie.complexes(th)
        moves = 0
        for k, info in enumerate(movie.infos):
            if info["kind"] not in ("r1+", "r1-", "r2+", "r2-"):
                continue
            moves += 1
            big = cxs[k + 1] if info["kind"].endswith("+") else cxs[k]
            pairs = (_loop_pairs(big, *info["crossings"])[0]
                     if info["kind"].startswith("r1")
                     else _bigon_pairs(big, *info["crossings"])[0])
            assert pairs == _pairs_by_label(big, info), (sel, k)
        assert moves


def test_pair_halves_check_the_edge_plan():
    # negative control for the halves' one check per state: a merge
    # asked of a split edge, a split asked of a merge edge, and a merge
    # through an edge whose circle does not take part in it
    th = theory_from_selector("bn")
    kink = apply_move(unknot_diagram(), Move("r1+", (1, "-")))[0]
    cx = build_complex(kink, th)       # one circle at 0, two at 1: a split
    loop = _find_kink_loop(kink.crossings[0])
    assert _split_pairs(cx, 0, 0, loop)
    with pytest.raises(MoveError, match="expected a merge"):
        _merge_pairs(cx, 0, 0, loop)
    kink = apply_move(unknot_diagram(), Move("r1+", (1, "+")))[0]
    cx = build_complex(kink, th)       # two circles at 0, one at 1: a merge
    loop = _find_kink_loop(kink.crossings[0])
    assert _merge_pairs(cx, 0, 0, loop)
    with pytest.raises(MoveError, match="expected a split"):
        _split_pairs(cx, 0, 0, loop)
    two = apply_move(kink, Move("r1+", (1, "+")))[0]
    cx = build_complex(two, th)        # crossing 0 merges, loop 1 stays out
    assert _merge_pairs(cx, 0, 0, _find_kink_loop(two.crossings[0]))
    with pytest.raises(MoveError, match="expected a merge"):
        _merge_pairs(cx, 0, 0, _find_kink_loop(two.crossings[1]))


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f3", "alpha@1,2/f5"])
def test_elementary_map_tables(sel):
    # the unit, counit, multiplication and comultiplication tables at
    # explicit generator indices: bit j of a degree-0 index labels circle
    # j, circles ordered by least edge id, so each table also fixes the
    # circle every label is carried to.  p = 0 under the first two
    # theories; p != 0 puts a 1-label on the merged or split circles,
    # which shows a persisting label wrongly carried onto them
    th = theory_from_selector(sel)
    R = th.ring
    one, s, ms, mp = R.one, th.s, R.neg(th.s), R.neg(th.p)

    def free(*edges):
        return LinkDiagram((), (), edges)

    kink = apply_move(unknot_diagram(), Move("r1+", (1, "+")))[0]
    # (1) and (3) merge into target circle 0; (2) moves to target circle 1
    merge = {0: {0: one}, 1: {1: one}, 2: {2: one}, 3: {3: one},
             4: {1: one}, 5: {1: s, 0: mp}, 6: {3: one}, 7: {3: s, 2: mp}}
    cases = [
        # unit on the new circle (4), circle 2 behind (2) and (3)
        ("birth", free(2, 3), Move("birth"),
         {L: {L: one} for L in range(4)}),
        # counit on circle 0 of (1), (2), (3)
        ("death", free(1, 2, 3), Move("death", (1,)),
         {L: {L >> 1: one} for L in range(8) if L & 1}),
        ("free_merge", free(1, 2, 3), Move("saddle", (1, 3)), merge),
        # the loop (3) into edge 1 of a kink whose state 0 has (1), (2)
        ("absorb", LinkDiagram(kink.crossings, kink.signs, (3,)),
         Move("saddle", (3, 1)), merge),
        # (1) splits into (1) and the new loop (3), which is target
        # circle 2; (2) stays circle 1
        ("split_loop", free(1, 2), Move("saddle", (1, 1)),
         {0: {0: ms, 1: one, 4: one}, 1: {5: one, 0: mp},
          2: {2: ms, 3: one, 6: one}, 3: {7: one, 2: mp}}),
    ]
    # a saddle record names its band's ends, which tell the cases apart
    ends = {"free_merge": ((1, 3), (1, 1)), "absorb": ((3, 1), (1, 1)),
            "split_loop": ((1, 1), (1, 3))}
    for case, d, mv, table in cases:
        expected = {i: {t: v for t, v in col.items() if not R.is_zero(v)}
                    for i, col in table.items()}
        d2, info, _ = apply_move(d, mv)
        assert info.get("ends", info["kind"]) == ends.get(case, case)
        f = move_chain_map(th, build_complex(d, th), build_complex(d2, th),
                           info)
        blk = f.block(0)
        assert {i: set(col) for i, col in blk.items()} == \
            {i: set(col) for i, col in expected.items()}, (case, blk)
        assert mat_eq(R, blk, expected), (case, blk)


def test_saddle_map_rejects_a_band_that_does_not_fit():
    # an info that does not describe the move between the two complexes
    th = theory_from_selector("bn")
    cx = build_complex(LinkDiagram((), (), (1, 2)), th)
    f = move_chain_map(th, cx, cx, {"kind": "saddle",
                                    "ends": ((1, 2), (1, 2))})
    with pytest.raises(MoveError, match="must merge"):
        f.block(0)
    kink = apply_move(unknot_diagram(), Move("r1+", (1, "+")))[0]
    cx = build_complex(kink, th)       # edges 1 and 2 share a circle at 1
    g = move_chain_map(th, cx, cx, {"kind": "saddle",
                                    "ends": ((1, 1), (1, 2))})
    with pytest.raises(MoveError, match="must split"):
        for r in cx.degrees:
            g.block(r)


# -- homology-level identities (small instances) --------------------------

def test_dot_crossing_identity_trefoil():
    d = load_table()["3_1"]
    for sel in ("bn", "alpha@0,t/f2"):
        th = theory_from_selector(sel)
        hdata = HomologyData(build_complex(d, th))
        for c in range(d.n):
            assert verify_dot_crossing(hdata, c), (sel, c)


def test_saddle_split_identity():
    for sel in ("bn", "alpha@0,t/f2"):
        th = theory_from_selector(sel)
        for d in (unknot_diagram(), load_table()["4_1"]):
            hdata = HomologyData(build_complex(d, th))
            assert verify_saddle_split(hdata, Move("saddle", (1, 1)))


def test_star_placement_same_component():
    d = load_table()["3_1"]
    th = theory_from_selector("alpha@0,t/f2")
    assert verify_star_placement(HomologyData(build_complex(d, th)), 1, 4)
    u = unknot_diagram()
    d2, _, _ = apply_move(u, Move("saddle", (1, 1)))
    h2 = HomologyData(build_complex(d2, theory_from_selector("bn")))
    with pytest.raises(MoveError):
        verify_star_placement(h2, *sorted(d2.free_edges))


def test_symmetry_of_palindromic_kink_movie():
    script = ("start unknot\n"
              "r1+ 1 +\n"
              "dot 1\n"
              "r1- 0\n")
    m = parse_movie(script)
    for sel in ("bn", "alpha@0,t/f2"):
        assert verify_symmetry(m, theory_from_selector(sel)), sel


def test_symmetry_rejects_non_palindrome():
    m = parse_movie("start unknot\nr1+ 1 +\n")
    with pytest.raises(MoveError):
        verify_symmetry(m, theory_from_selector("bn"))


# -- movie parsing and bundled files --------------------------------------

def test_parse_movie_basics():
    m = parse_movie("# comment\nstart unknot\n\nbirth\nsaddle 1 2\n")
    assert len(m.moves) == 2
    assert m.saddle_count() == 1
    assert len(m.frames) == 3


def test_parse_movie_aliases_and_ledger():
    m = parse_movie("start unknot\ndigit1 1\ndigit2 1\nstar 1\n")
    kinds = [mv.kind for mv in m.moves]
    assert kinds == ["dot1", "dot2", "star"]


@pytest.mark.parametrize("text,frag", [
    ("birth\n", "start"),
    ("start nope\n", "expected a crossing"),
    ("start unknot\nwiggle 1\n", "unknown move"),
    ("start unknot\nsaddle 1\n", "argument"),
    ("start unknot\nr1+ 1 *\n", "usage"),
    ("start unknot\ndeath 7\n", "death"),
])
def test_parse_movie_errors(text, frag):
    with pytest.raises(MovieError) as err:
        parse_movie(text)
    assert frag.lower() in str(err.value).lower()


def test_parsed_moves_carry_lines_outside_equality():
    m = parse_movie("start unknot\n\n# pad\nsaddle 1 1\ndot 2\n")
    assert [mv.line for mv in m.moves] == [4, 5]
    assert m.moves == [Move("saddle", (1, 1)), Move("dot", (2,))]


def test_movie_error_carries_line_number():
    try:
        parse_movie("start unknot\n# pad\nsaddle 9 4\n")
    except MovieError as e:
        assert e.line == 3
    else:
        assert False


def test_reversed_movie_frames():
    m = parse_movie("start unknot\nr1+ 1 +\nr1- 0\n")
    r = m.reversed()
    assert [f.key() for f in r.frames] == [f.key() for f in m.frames[::-1]]
    assert [info["kind"] for info in r.infos] == ["r1+", "r1-"]


def test_reversed_movie_counts_saddles_and_ribbon_order():
    # read off the reversed records: a ribbon movie's reverse has the same
    # saddles, but births turn into deaths and its saddles split
    m = load_movie(os.path.join(MOVIE_DIR, "square-knot.movie"))
    r = m.reversed()
    assert r.moves is None
    assert r.saddle_count() == m.saddle_count() == 1
    msgs = ribbon_structure_errors(r)
    assert any("deaths are not allowed" in msg for msg in msgs)
    assert any("out of ribbon order" in msg for msg in msgs)
    assert any("does not fuse" in msg for msg in msgs)


def test_bundled_movies_load_and_have_ribbon_shape():
    names = sorted(os.listdir(MOVIE_DIR))
    assert len(names) == 3
    for fn in names:
        m = load_movie(os.path.join(MOVIE_DIR, fn))
        assert ribbon_structure_errors(m) == [], fn
        for f in m.frames:
            assert is_planar(f), fn


def test_ribbon_structure_rejections():
    bad_death = parse_movie("start unknot\nbirth\ndeath 2\n")
    assert any("death" in msg for msg in ribbon_structure_errors(bad_death))
    unfused = parse_movie("start unknot\nbirth\n")
    assert any("birth" in msg for msg in ribbon_structure_errors(unfused))
    split = parse_movie("start unknot\nbirth\nsaddle 1 1\nsaddle 1 2\n")
    msgs = ribbon_structure_errors(split)
    assert any("fuse" in msg for msg in msgs)
    late = parse_movie("start unknot\nbirth\nsaddle 1 2\nr1+ 1 +\n")
    assert any("order" in msg for msg in ribbon_structure_errors(late))


def test_trivial_ribbon_composite_identity():
    m = load_movie(os.path.join(MOVIE_DIR, "trivial-ribbon.movie"))
    for sel in ("bn", "alpha@0,t/f2"):
        assert verify_ribbon_composite(m, theory_from_selector(sel)), sel


def test_ribbon_composite_negative_control():
    # ribbon-shaped, but the dot on the born circle survives the fusion,
    # so reverse-after-forward is not the identity
    m = parse_movie("start unknot\nbirth\ndot 2\nsaddle 1 2\n")
    assert ribbon_structure_errors(m) == []
    for sel in ("bn", "alpha@0,t/f2", "alpha@0,t/f3"):
        assert not verify_ribbon_composite(m, theory_from_selector(sel)), sel


def test_one_saddle_movie_composite():
    m = load_movie(os.path.join(MOVIE_DIR, "one-saddle-unknot.movie"))
    assert m.saddle_count() == 1
    assert len(m.final.components) == 1
    th = theory_from_selector("bn")
    assert verify_ribbon_composite(m, th)


def _poly_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def test_square_knot_movie_composite():
    # one band from the unknot to 3_1 # m3_1, where mu = nu_phi = 1
    m = load_movie(os.path.join(MOVIE_DIR, "square-knot.movie"))
    assert m.saddle_count() == 1
    assert len(m.final.components) == 1
    trefoil = load_table()["3_1"]
    assert jones_polynomial(m.final) == _poly_mul(
        jones_polynomial(trefoil), jones_polynomial(trefoil.mirror()))
    for sel in ("bn", "alpha@0,t/f2"):
        assert verify_ribbon_composite(m, theory_from_selector(sel)), sel


@given(st.sampled_from(["3_1", "4_1", "5_2"]), st.integers(0, 5))
@settings(max_examples=25, deadline=None)
def test_move_then_reverse_round_trip(name, seed):
    # r2+ on the first few planar pairs and back is the identity on keys
    d = load_table()[name]
    edges = sorted(d.edges)
    e1 = edges[seed % len(edges)]
    e2 = edges[(seed * 3 + 1) % len(edges)]
    if e1 == e2:
        return
    try:
        d2, info, _ = apply_move(d, Move("r2+", (e1, e2)))
    except MoveError:
        return
    back, _, _ = apply_move(d2, Move("r2-", info["crossings"]))
    assert back.canonical_key() == d.canonical_key()


# -- elementary maps against their per-generator references ----------------

def _decoration_reference(theory, cx, kind, edge, r, i):
    """elem * label at the decorated circle, for one generator."""
    R = theory.ring
    s, L = cx.gens[r][i]
    j = cx.diagram.locate(s, edge)
    prod = theory.act_basis(theory.decoration_element(kind), L >> j & 1)
    return {cx.gen_index(s, (L & ~(1 << j)) | (comp << j))[1]: prod[comp]
            for comp in (0, 1) if not R.is_zero(prod[comp])}


def _saddle_reference(theory, cx_src, cx_tgt, info, r, i):
    """The band's merge or split for one generator, its plan worked out
    from scratch."""
    (a, b), (ta, tb) = info["ends"]
    s, L = cx_src.gens[r][i]
    rs, rt = cx_src.diagram.resolve(s), cx_tgt.diagram.resolve(s)
    ia, ib = rs.index[a], rs.index[b]
    match = circle_match(rs, rt, (ia, ib))
    plan = (("merge", ia, ib, rt.index[ta], match) if ia != ib
            else ("split", ia, rt.index[ta], rt.index[tb], match))
    return {cx_tgt.gen_index(s, tl)[1]: c
            for tl, c in plan_images(theory, plan, L)}


def _every_image_matches(f, reference):
    R = f.ring
    for r in f.source.degrees:
        for i in range(f.source.rank(r)):
            want = reference(r, i)
            got = f.apply(r, {i: R.one})
            assert set(got) == set(want), (f.name, r, i)
            assert all(R.eq(got[t], v) for t, v in want.items()), (r, i)


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f3", "alpha@t,-t/q"])
@pytest.mark.parametrize("name", ["5_2", "6_2"])
def test_elementary_images_match_per_generator_references(name, sel):
    th = theory_from_selector(sel)
    d = load_table()[name]
    cx = build_complex(d, th)
    kinds = ["dot", "star"] + (["dot1", "dot2"] if th.alphas else [])
    edges = sorted(d.edges)
    for kind in kinds:
        for e in (edges[0], edges[-1]):
            _every_image_matches(
                decoration_chain_map(th, cx, kind, e),
                lambda r, i: _decoration_reference(th, cx, kind, e, r, i))
    saddles = [Move("saddle", (edges[0], edges[0])),
               Move("saddle", (edges[0], edges[2]))]
    for mv in saddles:
        new, info, inverse = apply_move(d, mv)
        cx2 = build_complex(new, th)
        for src, tgt, rec in ((cx, cx2, info), (cx2, cx, inverse)):
            _every_image_matches(
                saddle_chain_map(th, src, tgt, rec),
                lambda r, i: _saddle_reference(th, src, tgt, rec, r, i))


def test_verification_leaves_shared_payloads_unchanged():
    # ring arithmetic hands back its arguments where the result is known,
    # so one payload sits in many vectors and caches; nothing may change
    # it in place
    d = load_table()["4_1"]
    for sel in ("bn", "alpha@0,t/f3"):
        th = theory_from_selector(sel)
        R = th.ring
        hdata = HomologyData(build_complex(d, th))
        for ci in range(d.n):
            assert verify_dot_crossing(hdata, ci)
        for e in sorted(d.edges)[:2]:
            assert verify_saddle_split(hdata, Move("saddle", (e, e)))
        assert verify_ribbon_composite(
            load_movie(os.path.join(MOVIE_DIR, "square-knot.movie")), th)
        fresh = theory_from_selector(sel)
        assert (R.one, R.zero) == (fresh.ring.one, fresh.ring.zero)
        assert (th.s, th.p) == (fresh.s, fresh.p)
        for i in (0, 1):
            assert th.comul_basis(i) == fresh.comul_basis(i)
            for j in (0, 1):
                assert th.mul_basis(i, j) == fresh.mul_basis(i, j)


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f3", "alpha@t,-t/q"])
@pytest.mark.parametrize("movie", [
    os.path.join(MOVIE_DIR, "square-knot.movie"),
    os.path.join(FROZEN_DIR, "rmove-4_1.movie")], ids=os.path.basename)
def test_scaled_induced_matrix_matches_the_scaled_map(movie, sel):
    # the movie command compares c f on homology by scaling the printed
    # matrix of f; it must be the matrix of c f, truncated at the torsion
    # generators (4_1 has torsion of order one under bn)
    th = theory_from_selector(sel)
    R = th.ring
    m = load_movie(movie)
    cxs = m.complexes(th)
    f = compose(evaluate_movie(m.reversed(), th, cxs[::-1]),
                evaluate_movie(m, th, cxs))
    ha = HomologyData(cxs[0])
    ind = induced_map(f, ha, ha)
    c = R.one
    for _ in range(3):
        assert scale_induced(ind, c, ha) == induced_map(scale_map(c, f),
                                                        ha, ha)
        c = R.mul(c, R.gen())
