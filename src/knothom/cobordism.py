"""Movies of link diagrams and the chain maps they induce.

A movie is a start diagram and a list of moves:

* ``birth`` / ``death e``      cap and cup (free unknot circles)
* ``saddle e1 e2``             oriented band surgery between two edges
* ``r1+ e +|-``, ``r1- c``     kink moves (c is a 0-based crossing index)
* ``r2+ e1 e2``, ``r2- c1 c2`` slide e1 over e2 / remove that bigon
* ``r3 c1 c2 c3``              third Reidemeister move
* ``dot e``, ``dot1 e``, ``dot2 e``, ``star e``   decorations (no surgery)

Saddles swap the heads of the two edges: after ``saddle e1 e2`` the
strand runs tail(e1) -> head(e2) and tail(e2) -> head(e1).  Saddling an
edge with itself splits off a free loop; free loops may be saddled into
other edges (absorption).  Moves that create crossings append them at
the end of the crossing list so earlier indices stay stable.

Reidemeister moves induce chain maps through the unit-entry elimination
engine: cancelling the local pairs of the kink or bigon leaves a complex
that is literally the small diagram's complex (up to a checked sign
relabeling), and the inclusion/projection of that elimination are the
chain maps.  This is checked at runtime (MoveError) rather than assumed:
the relabeling must carry the reduced differential entry for entry onto
the small one.

Chain maps are evaluated on the vectors they are applied to: the
elementary builders give the image of one generator, and a movie's
composite pushes a vector through its moves one after another.  An r1 or
r2 map composes the relabeling with the elimination's inclusion or
projection, which replays the recorded cancellations on that vector; no
matrix of it is built unless a check asks for one.
"""

from dataclasses import dataclass, field

from .diagram import LinkDiagram, is_planar, parse_pd, unknot_diagram
from .complexes import (build_complex, compose, add_maps, generator_map,
                        identity_map, matrix_map, popcount, scale_map,
                        zero_map)
from .homology import HomologyData, maps_equal_on_homology, reduce_complex


class MoveError(ValueError):
    pass


@dataclass
class Move:
    kind: str
    args: tuple = ()
    exact: dict = None
    line: int = field(default=None, compare=False)   # script line, if parsed

    def __str__(self):
        return " ".join([self.kind] + [str(a) for a in self.args])


DECORATIONS = ("dot", "dot1", "dot2", "star")


def _drop_bit(L, pos):
    low = L & ((1 << pos) - 1)
    high = L >> (pos + 1)
    return low | (high << pos)


# -- surgery -------------------------------------------------------------

def _fresh_ids(diagram, k, forced=None):
    if forced is not None:
        ids = tuple(forced)
        assert len(ids) == k
        used = set(diagram.edges)
        for e in ids:
            if e in used:
                raise MoveError("forced edge id %d already in use" % e)
        return ids
    base = diagram.max_edge()
    return tuple(base + i + 1 for i in range(k))


def _rewrite_occurrence(crossings, place, new_edge):
    ci, slot = place
    cr = list(crossings[ci])
    cr[slot] = new_edge
    crossings[ci] = tuple(cr)


def apply_move(diagram, move):
    """Apply one move.  Returns (new_diagram, info, reverse_move).

    Raises MoveError when the move does not apply, or when it changes
    crossings and the result is not a plane diagram (for instance
    ``r2+`` or ``saddle`` on two edges that share no face).
    """
    kind = move.kind
    if kind == "birth":
        (f,) = _fresh_ids(diagram, 1, move.exact and move.exact.get("ids"))
        new = LinkDiagram(diagram.crossings, diagram.signs,
                          diagram.free_edges + (f,))
        info = {"kind": "birth", "edge": f}
        return new, info, Move("death", (f,))

    if kind == "death":
        (e,) = move.args
        if e not in diagram.free_edges:
            raise MoveError("death needs a free (crossingless) edge, got %d" % e)
        new = LinkDiagram(diagram.crossings, diagram.signs,
                          tuple(x for x in diagram.free_edges if x != e))
        info = {"kind": "death", "edge": e}
        return new, info, Move("birth", (), {"ids": (e,)})

    if kind in DECORATIONS:
        (e,) = move.args
        if e not in diagram.edges:
            raise MoveError("decoration on unknown edge %d" % e)
        info = {"kind": kind, "edge": e}
        return diagram, info, Move(kind, (e,))

    surgery = {"saddle": _apply_saddle, "r1+": _apply_r1_plus,
               "r1-": _apply_r1_minus, "r2+": _apply_r2_plus,
               "r2-": _apply_r2_minus, "r3": _apply_r3}.get(kind)
    if surgery is None:
        raise MoveError("unknown move kind %r" % kind)
    new, info, rev = surgery(diagram, move)
    if not is_planar(new):
        raise MoveError("the resulting frame is non-planar")
    return new, info, rev


def _apply_saddle(diagram, move):
    e1, e2 = move.args
    edges = set(diagram.edges)
    if e1 not in edges or e2 not in edges:
        raise MoveError("saddle on unknown edge")
    free = set(diagram.free_edges)

    if e1 == e2:
        (loop,) = _fresh_ids(diagram, 1, move.exact and move.exact.get("ids"))
        new = LinkDiagram(diagram.crossings, diagram.signs,
                          diagram.free_edges + (loop,))
        info = {"kind": "saddle", "case": "split_loop", "e1": e1, "e2": e2,
                "loop": loop}
        return new, info, Move("saddle", (e1, loop))

    if e1 in free and e2 in free:
        new = LinkDiagram(diagram.crossings, diagram.signs,
                          tuple(x for x in diagram.free_edges if x != e2))
        info = {"kind": "saddle", "case": "free_merge", "e1": e1, "e2": e2,
                "kept": e1}
        return new, info, Move("saddle", (e1, e1), {"ids": (e2,)})

    if (e1 in free) != (e2 in free):
        lone = e1 if e1 in free else e2
        other = e2 if e1 in free else e1
        new = LinkDiagram(diagram.crossings, diagram.signs,
                          tuple(x for x in diagram.free_edges if x != lone))
        info = {"kind": "saddle", "case": "absorb", "e1": e1, "e2": e2,
                "loop": lone, "kept": other}
        return new, info, Move("saddle", (other, other), {"ids": (lone,)})

    # two honest crossing edges
    a, b = _fresh_ids(diagram, 2, move.exact and move.exact.get("ids"))
    crossings = list(diagram.crossings)
    _rewrite_occurrence(crossings, diagram.tail(e1), a)
    _rewrite_occurrence(crossings, diagram.head(e2), a)
    _rewrite_occurrence(crossings, diagram.tail(e2), b)
    _rewrite_occurrence(crossings, diagram.head(e1), b)
    new = LinkDiagram(tuple(crossings), diagram.signs, diagram.free_edges)
    info = {"kind": "saddle", "case": "standard", "e1": e1, "e2": e2,
            "new": (a, b)}
    return new, info, Move("saddle", (a, b), {"ids": (e1, e2)})


def _apply_r1_plus(diagram, move):
    e, sgn = move.args
    if sgn not in ("+", "-"):
        raise MoveError("r1+ needs a sign argument + or -")
    exact = move.exact or {}
    if "tuple" in exact:
        return _rebuild_crossing(diagram, exact, "r1")
    if e in diagram.free_edges:
        (m,) = _fresh_ids(diagram, 1, exact.get("ids"))
        n = e
        crossings = list(diagram.crossings)
        free = tuple(x for x in diagram.free_edges if x != e)
    else:
        if e not in diagram.edges:
            raise MoveError("r1+ on unknown edge %d" % e)
        n, m = _fresh_ids(diagram, 2, exact.get("ids"))
        crossings = list(diagram.crossings)
        _rewrite_occurrence(crossings, diagram.head(e), n)
        free = diagram.free_edges
    if sgn == "+":
        cr, s = (e, n, m, m), 1
    else:
        cr, s = (m, e, n, m), -1
    pos = exact.get("pos", len(crossings))
    crossings.insert(pos, cr)
    signs = list(diagram.signs)
    signs.insert(pos, s)
    new = LinkDiagram(tuple(crossings), tuple(signs), free)
    info = {"kind": "r1+", "crossing": pos, "loop": m, "edge": e, "sign": s}
    return new, info, Move("r1-", (pos,))


def _rebuild_crossing(diagram, exact, which):
    """Exact reverse of a removal: reinsert recorded crossings."""
    crossings = list(diagram.crossings)
    signs = list(diagram.signs)
    free = set(diagram.free_edges)
    for occ_place, old_edge in exact.get("rewrites", ()):
        _rewrite_occurrence(crossings, occ_place, old_edge)
    for e in exact.get("unfree", ()):
        free.discard(e)
    inserts = exact["tuple"]
    for pos, cr, s in inserts:
        crossings.insert(pos, cr)
        signs.insert(pos, s)
    new = LinkDiagram(tuple(crossings), tuple(signs), tuple(sorted(free)))
    if which == "r1":
        pos, cr, s = inserts[0]
        loop = _find_kink_loop(cr)
        info = {"kind": "r1+", "crossing": pos, "loop": loop,
                "edge": None, "sign": s}
        return new, info, Move("r1-", (pos,))
    pos1 = inserts[0][0]
    pos2 = inserts[1][0]
    om, um = exact["mids"]
    info = {"kind": "r2+", "c1": pos1, "c2": pos2,
            "over_mid": om, "under_mid": um}
    return new, info, Move("r2-", (pos1, pos2))


def _find_kink_loop(cr):
    cands = [e for e in set(cr) if cr.count(e) == 2]
    if not cands:
        raise MoveError("crossing %s is not a kink" % (cr,))
    if len(cands) == 1:
        return cands[0]
    # one-crossing unknot: both edges are lobes; take the d-slot one so
    # the a-slot edge survives (matches what r1+ on a free circle built)
    return cr[3]


def _apply_r1_minus(diagram, move):
    (ci,) = move.args
    if not (0 <= ci < diagram.n):
        raise MoveError("no crossing %d" % ci)
    cr = diagram.crossings[ci]
    loop = _find_kink_loop(cr)
    strand = [e for e in cr if e != loop]
    if not strand:
        raise MoveError("crossing %d is not a kink" % ci)
    # the incoming strand edge has its head at ci, the outgoing its tail
    e_in = next(e for e in set(strand) if diagram.head(e)[0] == ci)
    e_out = next(e for e in set(strand) if diagram.tail(e)[0] == ci)
    crossings = list(diagram.crossings)
    signs = list(diagram.signs)
    removed = (ci, cr, signs[ci])
    del crossings[ci]
    del signs[ci]
    free = list(diagram.free_edges)
    rewrites = []
    unfree = []
    if e_in == e_out:
        # single-crossing unknot component: it becomes a free loop
        free.append(e_in)
        unfree.append(e_in)
    else:
        place = diagram.head(e_out)
        assert place[0] != ci
        pl = (place[0] - 1, place[1]) if place[0] > ci else place
        _rewrite_occurrence(crossings, pl, e_in)
        rewrites.append((pl, e_out))
    new = LinkDiagram(tuple(crossings), tuple(signs), tuple(sorted(free)))
    info = {"kind": "r1-", "crossing": ci, "loop": loop,
            "in_edge": e_in, "out_edge": e_out, "tuple": cr,
            "sign": removed[2]}
    rev = Move("r1+", (e_in, "+" if removed[2] > 0 else "-"),
               {"tuple": [(ci, cr, removed[2])], "rewrites": rewrites,
                "unfree": tuple(unfree)})
    return new, info, rev


def _apply_r2_plus(diagram, move):
    e1, e2 = move.args
    exact = move.exact or {}
    if "tuple" in exact:
        return _rebuild_crossing(diagram, exact, "r2")
    if e1 == e2:
        raise MoveError("r2+ needs two distinct edges")
    for e in (e1, e2):
        if e not in diagram.edges:
            raise MoveError("r2+ on unknown edge %d" % e)
    free = set(diagram.free_edges)
    ids_needed = 2 + (0 if e1 in free else 1) + (0 if e2 in free else 1)
    ids = list(_fresh_ids(diagram, ids_needed, exact.get("ids")))
    n1 = ids.pop(0)   # over mid
    n3 = ids.pop(0)   # under mid
    crossings = list(diagram.crossings)
    if e1 in free:
        over_out = e1
        free.discard(e1)
    else:
        over_out = ids.pop(0)
        _rewrite_occurrence(crossings, diagram.head(e1), over_out)
    if e2 in free:
        under_out = e2
        free.discard(e2)
    else:
        under_out = ids.pop(0)
        _rewrite_occurrence(crossings, diagram.head(e2), under_out)
    c1 = (e2, n1, n3, e1)          # positive: over in e1, out n1
    c2 = (n3, n1, under_out, over_out)   # negative: over in n1
    p1 = len(crossings)
    crossings.append(c1)
    crossings.append(c2)
    signs = tuple(diagram.signs) + (1, -1)
    new = LinkDiagram(tuple(crossings), signs, tuple(sorted(free)))
    info = {"kind": "r2+", "c1": p1, "c2": p1 + 1,
            "over_mid": n1, "under_mid": n3}
    return new, info, Move("r2-", (p1, p1 + 1))


def _bigon_structure(diagram, ci, cj):
    """Shared over-mid and under-mid edges of a candidate bigon."""
    cri, crj = diagram.crossings[ci], diagram.crossings[cj]
    shared = set(cri) & set(crj)
    over_mid = under_mid = None
    for e in sorted(shared):
        si = {k for k in range(4) if cri[k] == e}
        sj = {k for k in range(4) if crj[k] == e}
        if si <= {1, 3} and sj <= {1, 3}:
            over_mid = e
        if si <= {0, 2} and sj <= {0, 2}:
            under_mid = e
    if over_mid is None or under_mid is None:
        raise MoveError(
            "crossings %d and %d do not bound a removable bigon" % (ci, cj))
    if diagram.signs[ci] + diagram.signs[cj] != 0:
        raise MoveError("bigon crossings must have opposite signs")
    return over_mid, under_mid


def _apply_r2_minus(diagram, move):
    ci, cj = move.args
    if ci > cj:
        ci, cj = cj, ci
    if not (0 <= ci < cj < diagram.n):
        raise MoveError("bad crossing indices for r2-")
    over_mid, under_mid = _bigon_structure(diagram, ci, cj)

    def path(mid):
        h, t = diagram.head(mid), diagram.tail(mid)
        c_in = t[0]   # mid's tail sits where the in-edge arrives
        cr_in = diagram.crossings[c_in]
        cr_out = diagram.crossings[h[0]]
        e_in = next(e for e in set(cr_in)
                    if e != mid and diagram.head(e) and diagram.head(e)[0] == c_in
                    and _same_strand(cr_in, e, mid))
        e_out = next(e for e in set(cr_out)
                     if e != mid and diagram.tail(e) and diagram.tail(e)[0] == h[0]
                     and _same_strand(cr_out, e, mid))
        return e_in, e_out

    a_in, a_out = path(over_mid)
    b_in, b_out = path(under_mid)

    crossings = []
    signs = []
    removed = []
    for k, (cr, s) in enumerate(zip(diagram.crossings, diagram.signs)):
        if k in (ci, cj):
            removed.append((k, cr, s))
            continue
        crossings.append(cr)
        signs.append(s)

    rep = {}

    def find(e):
        while e in rep:
            e = rep[e]
        return e

    closed = []

    def merge(ein, eout):
        x, y = find(ein), find(eout)
        if x == y:
            closed.append(x)
        else:
            rep[y] = x

    merge(a_in, a_out)
    merge(b_in, b_out)
    rewrites = []
    for idx, cr in enumerate(crossings):
        for slot, e in enumerate(cr):
            f = find(e)
            if f != e:
                rewrites.append(((idx, slot), e))
                _rewrite_occurrence(crossings, (idx, slot), f)
    free = list(diagram.free_edges) + closed
    new = LinkDiagram(tuple(crossings), tuple(signs), tuple(sorted(free)))
    info = {"kind": "r2-", "c1": ci, "c2": cj,
            "over_mid": over_mid, "under_mid": under_mid,
            "a": (a_in, a_out), "b": (b_in, b_out)}
    rev = Move("r2+", (find(a_in), find(b_in)),
               {"tuple": removed, "rewrites": rewrites,
                "unfree": tuple(closed), "mids": (over_mid, under_mid)})
    return new, info, rev


def _same_strand(cr, e, mid):
    """Do e and mid occupy the same strand (both over or both under)?"""
    slots_e = {k for k in range(4) if cr[k] == e}
    slots_m = {k for k in range(4) if cr[k] == mid}
    over = {1, 3}
    return (slots_e <= over) == (slots_m <= over)


def _r3_triangle(diagram, ca, cb, cc):
    """The triangle edges (u joining ca-cb, v joining cb-cc, w joining
    ca-cc) of the r3 face: at each crossing the two face edges must sit
    in adjacent slots, which picks out an actual face of the diagram."""
    def shared(x, y):
        return sorted(set(diagram.crossings[x]) & set(diagram.crossings[y]))

    def adjacent(ci, e1, e2):
        cr = diagram.crossings[ci]
        return (cr.index(e1) - cr.index(e2)) % 4 in (1, 3)

    su, sv, sw = shared(ca, cb), shared(cb, cc), shared(ca, cc)
    if not (su and sv and sw):
        raise MoveError("crossings do not pairwise share an edge")
    for u in su:
        for v in sv:
            for w in sw:
                if len({u, v, w}) < 3:
                    continue
                if (adjacent(ca, u, w) and adjacent(cb, u, v)
                        and adjacent(cc, v, w)):
                    return u, v, w
    raise MoveError("no triangular face spans the three crossings")


def _apply_r3(diagram, move):
    ca, cb, cc = move.args
    if len({ca, cb, cc}) != 3 or not all(0 <= c < diagram.n
                                         for c in (ca, cb, cc)):
        raise MoveError("r3 needs three distinct crossing indices")
    u, v, w = _r3_triangle(diagram, ca, cb, cc)
    # strand A carries u through ca and cb, B carries v, C carries w
    strands = ((u, ca, cb), (v, cb, cc), (w, ca, cc))
    # at each crossing the strand whose face edge sits in an over slot
    # passes over; a slideable triangle has a top/middle/bottom layering
    wins = [0, 0, 0]
    for ci, (sa, sb) in ((ca, (0, 2)), (cb, (0, 1)), (cc, (1, 2))):
        a_over = diagram.crossings[ci].index(strands[sa][0]) in (1, 3)
        wins[sa if a_over else sb] += 1
    if sorted(wins) != [0, 1, 2]:
        raise MoveError("triangle strands have no consistent layering; "
                        "not an r3 site")
    crossings = [list(cr) for cr in diagram.crossings]
    for t, x, y in strands:
        tf, th = diagram.tail(t), diagram.head(t)
        F, G = tf[0], th[0]
        assert {F, G} == {x, y}
        # the strand's in/out slots at each crossing stay fixed; the move
        # swaps which of its three edges sits where
        if tf[1] == 2:
            f_in, f_out = 0, 2
        else:
            f_in, f_out = (3, 1) if diagram.signs[F] > 0 else (1, 3)
        assert tf[1] == f_out
        if th[1] == 0:
            g_in, g_out = 0, 2
        else:
            g_in, g_out = (3, 1) if diagram.signs[G] > 0 else (1, 3)
        assert th[1] == g_in
        e_in = diagram.crossings[F][f_in]
        e_out = diagram.crossings[G][g_out]
        crossings[F][f_in] = t
        crossings[F][f_out] = e_out
        crossings[G][g_in] = e_in
        crossings[G][g_out] = t
    new = LinkDiagram(tuple(tuple(c) for c in crossings), diagram.signs,
                      diagram.free_edges)
    info = {"kind": "r3", "crossings": (ca, cb, cc), "triangle": (u, v, w)}
    return new, info, Move("r3", (ca, cb, cc))


def _r3_chain_map(theory, cx_src, cx_tgt, info):
    raise MoveError("r3 chain maps are not implemented; r3 is supported "
                    "at the diagram level only")


# -- elementary chain maps -----------------------------------------------

def _transport(L, match):
    base = 0
    for j, mj in enumerate(match):
        if mj is not None and L >> mj & 1:
            base |= 1 << j
    return base


def _circle_match(res_src, res_tgt, new_ids):
    """Source circle index for each target circle, via a persisting edge."""
    match = []
    for circ in res_tgt.circles:
        rep = next((e for e in circ if e not in new_ids), None)
        match.append(res_src.index[rep] if rep is not None else None)
    return match


def birth_chain_map(theory, cx_src, cx_tgt, info):
    new = {info["edge"]}

    def image(r, i):
        s, L = cx_src.gens[r][i]
        match = _circle_match(cx_src.diagram.resolve(s),
                              cx_tgt.diagram.resolve(s), new)
        # the new circle keeps label 1
        return {cx_tgt.index[(s, _transport(L, match))][1]: theory.ring.one}
    return generator_map(cx_src, cx_tgt, image, 0, 1, "birth")


def death_chain_map(theory, cx_src, cx_tgt, info):
    e = info["edge"]

    def image(r, i):
        s, L = cx_src.gens[r][i]
        rs = cx_src.diagram.resolve(s)
        if not (L >> rs.index[e] & 1):
            return None             # counit sends the 1-label to zero
        match = _circle_match(rs, cx_tgt.diagram.resolve(s), set())
        return {cx_tgt.index[(s, _transport(L, match))][1]: theory.ring.one}
    return generator_map(cx_src, cx_tgt, image, 0, 1, "death")


def decoration_chain_map(theory, cx, kind, edge):
    R = theory.ring
    elem = theory.decoration_element(kind)

    def image(r, i):
        s, L = cx.gens[r][i]
        j = cx.diagram.locate(s, edge)
        prod = theory.act_basis(elem, L >> j & 1)
        return {cx.index[(s, (L & ~(1 << j)) | (comp << j))][1]: prod[comp]
                for comp in (0, 1) if not R.is_zero(prod[comp])}
    return generator_map(cx, cx, image, 0, -2, kind)


def saddle_chain_map(theory, cx_src, cx_tgt, info):
    """Per-state merge or split along the band of a saddle move."""
    Ds, Dt = cx_src.diagram, cx_tgt.diagram
    R = theory.ring
    case = info["case"]

    def image(r, i):
        s, L = cx_src.gens[r][i]
        rs = Ds.resolve(s)
        rt = Dt.resolve(s)
        if case == "standard":
            A, B = info["new"]
            ia, ib = rs.index[info["e1"]], rs.index[info["e2"]]
            ja, jb = rt.index[A], rt.index[B]
            new_ids = {A, B}
        elif case == "absorb":
            ia, ib = rs.index[info["loop"]], rs.index[info["kept"]]
            ja = jb = rt.index[info["kept"]]
            new_ids = set()
        elif case == "free_merge":
            ia, ib = rs.index[info["e1"]], rs.index[info["e2"]]
            ja = jb = rt.index[info["kept"]]
            new_ids = set()
        else:       # split_loop
            ia = ib = rs.index[info["e1"]]
            ja, jb = rt.index[info["e1"]], rt.index[info["loop"]]
            new_ids = {info["loop"]}
        match = _circle_match(rs, rt, new_ids)
        col = {}
        if ia != ib:
            if ja != jb:
                raise MoveError("band joining two circles must merge them")
            match[ja] = None
            base = _transport(L, match)
            prod = theory.mul_basis(L >> ia & 1, L >> ib & 1)
            for comp in (0, 1):
                if not R.is_zero(prod[comp]):
                    col[cx_tgt.index[(s, base | (comp << ja))][1]] = prod[comp]
        else:
            if ja == jb:
                raise MoveError("band on one circle must split it")
            match[ja] = match[jb] = None
            base = _transport(L, match)
            for (l1, l2), coeff in theory.comul_basis(L >> ia & 1).items():
                col[cx_tgt.index[(s, base | (l1 << ja) | (l2 << jb))][1]] = coeff
        return col
    return generator_map(cx_src, cx_tgt, image, 0, -1, "saddle")


# -- r1/r2 maps through the elimination engine ---------------------------

def _single_image(cx, s, ci, L):
    cands = list(cx.edge_images(s, ci, L))
    if len(cands) != 1:
        raise MoveError("expected a lone image along the cancelling edge")
    return cands[0]


def _unique_image_with_x(cx, s, ci, L, jx):
    cands = [(tl, c) for tl, c in cx.edge_images(s, ci, L) if tl >> jx & 1]
    if len(cands) != 1:
        raise MoveError("expected a unique X-component along the split edge")
    return cands[0]


def _loop_pairs(cx, ci):
    """Cancelling pairs that collapse the kink at crossing ci."""
    D = cx.diagram
    loop = _find_kink_loop(D.crossings[ci])
    res0 = D.resolve(0)
    eps = 0 if res0.circles[res0.index[loop]] == (loop,) else 1
    pairs = []
    for s in range(1 << D.n):
        if s >> ci & 1:
            continue
        s1 = s | 1 << ci
        r = cx.state_block[s][0]
        res_s = D.resolve(s)
        if eps == 0:
            # the loop circle sits on the 0 side; cancel its 1-labels
            # against the whole 1 side through the merge edge
            jm = res_s.index[loop]
            for L in range(1 << len(res_s)):
                if L >> jm & 1:
                    continue
                tl, _ = _single_image(cx, s, ci, L)
                pairs.append((r, (s, L), (s1, tl)))
        else:
            # the loop appears on the 1 side; cancel everything on the 0
            # side against the X-at-loop components of the split edge
            jm1 = D.resolve(s1).index[loop]
            for L in range(1 << len(res_s)):
                tl, _ = _unique_image_with_x(cx, s, ci, L, jm1)
                pairs.append((r, (s, L), (s1, tl)))
    return pairs, eps, loop


def _bigon_pairs(cx, ci, cj):
    """Cancelling pairs that collapse the r2 bigon at crossings ci, cj."""
    D = cx.diagram
    om, um = _bigon_structure(D, ci, cj)
    circ = None
    for b1 in (0, 1):
        for b2 in (0, 1):
            s = (b1 << ci) | (b2 << cj)
            res = D.resolve(s)
            if res.circles[res.index[om]] == tuple(sorted((om, um))):
                circ = (b1, b2)
    if circ is None:
        raise MoveError("no smoothing isolates the bigon circle at "
                        "crossings %d, %d" % (ci, cj))
    if circ not in ((0, 1), (1, 0)):
        raise MoveError("clasp-like bigon (circle at smoothing %s); "
                        "r2- needs an over-over bigon" % (circ,))
    delta_bit = ci if circ[0] else cj
    merge_bit = cj if circ[0] else ci
    circ_mask = (circ[0] << ci) | (circ[1] << cj)
    both = (1 << ci) | (1 << cj)
    pairs = []
    for s in range(1 << D.n):
        if s & both:
            continue
        scirc = s | circ_mask
        s11 = s | both
        r = cx.state_block[s][0]
        res00 = D.resolve(s)
        rescirc = D.resolve(scirc)
        juv = rescirc.index[om]
        for L in range(1 << len(res00)):
            tl, _ = _unique_image_with_x(cx, s, delta_bit, L, juv)
            pairs.append((r, (s, L), (scirc, tl)))
        for L in range(1 << len(rescirc)):
            if L >> juv & 1:
                continue
            tl, _ = _single_image(cx, scirc, merge_bit, L)
            pairs.append((r + 1, (scirc, L), (s11, tl)))
    return pairs, circ


def _relabel_iso(redn, cx_small, fixed_bits, forced_labels):
    """Match a reduced big complex with the small diagram's complex.

    fixed_bits: {crossing index: surviving smoothing bit}.  forced_labels:
    {edge: label bit} for big circles absent from the small diagram.
    Removing a fixed 1-bit changes the cube sign convention, so survivors
    pick up (-1) per set bit above the removed crossing; the returned
    relabeling maps carry those signs.  The relabeling is checked to be
    a signed bijection, so it and its inverse are chain maps exactly when
    each degree's differentials have equal nnz and every reduced entry v
    at (i, t) appears as sign_i sign_t v at the relabeled (i, t) of the
    small differential; that is checked entry by entry.
    """
    red = redn.red
    big = redn.original
    D, Ds = big.diagram, cx_small.diagram
    R = red.ring
    removed = sorted(fixed_bits, reverse=True)
    minus_one = R.from_int(-1)
    fwd_blocks = {}
    bwd_blocks = {}
    seen = set()
    for r in red.degrees:
        fblk = {}
        for i, (S, L) in enumerate(red.gens[r]):
            res_big = D.resolve(S)
            if any(S >> ci & 1 != bit for ci, bit in fixed_bits.items()):
                raise MoveError("survivor outside expected layer")
            if any(L >> res_big.index[e] & 1 != bit
                   for e, bit in forced_labels.items()):
                raise MoveError(
                    "survivor carries the wrong label on a collapsed circle")
            sgn = 0
            s_small = S
            for ci in removed:
                if fixed_bits[ci]:
                    sgn += popcount(s_small >> (ci + 1))
                s_small = _drop_bit(s_small, ci)
            res_small = Ds.resolve(s_small)
            if len(res_small) != len(res_big) - len(forced_labels):
                raise MoveError("survivor's circles do not match the small "
                                "diagram's")
            L2 = 0
            for j, circ in enumerate(res_small.circles):
                rep = next(e for e in circ if e in res_big.index)
                L2 |= (L >> res_big.index[rep] & 1) << j
            rs, js = cx_small.index[(s_small, L2)]
            if rs != r:
                raise MoveError("homological degree mismatch in relabeling")
            if red.qdeg[r][i] != cx_small.qdeg[rs][js]:
                raise MoveError("q mismatch in relabeling")
            if (rs, js) in seen:
                raise MoveError("two survivors relabel to one generator")
            seen.add((rs, js))
            coeff = minus_one if (R.char != 2 and sgn % 2) else R.one
            fblk[i] = {js: coeff}
            bwd_blocks.setdefault(r, {})[js] = {i: coeff}
        if fblk:
            fwd_blocks[r] = fblk
    if len(seen) != cx_small.total_rank():
        raise MoveError("reduction did not land on the small complex")
    for r in set(red.degrees) | set(cx_small.degrees):
        if not _relabels_onto(R, red.d(r), cx_small.d(r),
                              fwd_blocks.get(r), fwd_blocks.get(r + 1)):
            raise MoveError(
                "reduced differential differs from the small diagram's")
    return (matrix_map(red, cx_small, fwd_blocks, 0, 0, "relabel"),
            matrix_map(cx_small, red, bwd_blocks, 0, 0, "relabel"))


def _relabels_onto(R, d_red, d_small, rel_src, rel_tgt):
    """Does the signed relabeling (rel_src on the sources, rel_tgt on the
    targets, each {i: {j: sign}}) carry d_red entry for entry onto
    d_small?"""
    if (sum(len(col) for col in d_red.values())
            != sum(len(col) for col in d_small.values())):
        return False
    for i, col in d_red.items():
        ((si, ci),) = rel_src[i].items()
        small_col = d_small.get(si, {})
        for t, v in col.items():
            ((st, ct),) = rel_tgt[t].items()
            # the signs are units +-1, so ci ct v is v or -v
            if not R.eq(small_col.get(st, R.zero),
                        v if R.eq(ci, ct) else R.neg(v)):
                return False
    return True


def _reidemeister_reduction(cx_small, cx_big, info):
    """The prescribed-pair elimination of an r1 or r2 move's bigger
    complex and the relabelings between its reduced complex and the
    smaller one: (reduction, reduced -> small, small -> reduced)."""
    if info["kind"].startswith("r1"):
        ci = info["crossing"]
        pairs, eps, loop = _loop_pairs(cx_big, ci)
        fixed, forced = {ci: eps}, {loop: 1 if eps == 0 else 0}
    else:
        ci, cj = info["c1"], info["c2"]
        pairs, circ = _bigon_pairs(cx_big, ci, cj)
        fixed, forced = {ci: 1 - circ[0], cj: 1 - circ[1]}, {}
    redn = reduce_complex(cx_big, pairs=pairs)
    fwd, bwd = _relabel_iso(redn, cx_small, fixed, forced)
    return redn, fwd, bwd


def _reidemeister_map(theory, cx_src, cx_tgt, info):
    """The chain map of an r1 or r2 move.

    Cancelling the kink or bigon pairs of the bigger complex leaves the
    smaller one up to relabeling.  The map is the inclusion of that
    elimination after the relabeling (for a move that adds crossings),
    or the relabeling after its projection; it acts on the vectors it is
    applied to by replaying the elimination's recorded cancellations.

    One elimination serves both directions: it is kept in the bigger
    complex's ``move_reductions``, keyed by the smaller complex and the
    crossings the move removes, so a move and its reverse (or a move
    repeated between frames that share complexes) eliminate and check
    the relabeling once.  The pairs depend only on the bigger complex
    and those crossings (``_bigon_pairs`` is symmetric in them).
    """
    grow = info["kind"].endswith("+")
    cx_small, cx_big = (cx_src, cx_tgt) if grow else (cx_tgt, cx_src)
    removed = (frozenset((info["crossing"],)) if info["kind"].startswith("r1")
               else frozenset((info["c1"], info["c2"])))
    key = (cx_small, removed)
    if key not in cx_big.move_reductions:
        cx_big.move_reductions[key] = _reidemeister_reduction(
            cx_small, cx_big, info)
    redn, fwd, bwd = cx_big.move_reductions[key]
    return compose(redn.incl, bwd) if grow else compose(fwd, redn.proj)


def move_chain_map(theory, cx_src, cx_tgt, info):
    """The chain map of one applied move, between prebuilt complexes."""
    kind = info["kind"]
    if kind == "birth":
        return birth_chain_map(theory, cx_src, cx_tgt, info)
    if kind == "death":
        return death_chain_map(theory, cx_src, cx_tgt, info)
    if kind in DECORATIONS:
        return decoration_chain_map(theory, cx_src, kind, info["edge"])
    if kind == "saddle":
        return saddle_chain_map(theory, cx_src, cx_tgt, info)
    if kind in ("r1+", "r1-", "r2+", "r2-"):
        return _reidemeister_map(theory, cx_src, cx_tgt, info)
    if kind == "r3":
        return _r3_chain_map(theory, cx_src, cx_tgt, info)
    raise MoveError("no chain map for move kind %r" % kind)


# -- movies ---------------------------------------------------------------

class MovieError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class Movie:
    """An initial diagram and a move list, with frames precomputed.

    ``frames[k]`` is the diagram before move k; ``reverses`` holds the
    inverse move of each step, so ``reversed()`` plays the movie
    backwards reusing the original edge ids (a palindromic movie is
    literally frame-stable under reversal).
    """

    def __init__(self, initial, moves, name=""):
        self.initial = initial
        self.moves = list(moves)
        self.name = name
        self.frames = [initial]
        self.infos = []
        self.reverses = []
        D = initial
        for k, mv in enumerate(self.moves):
            try:
                D, info, rev = apply_move(D, mv)
            except MoveError as e:
                raise MovieError("move %d (%s): %s" % (k + 1, mv, e), mv.line)
            self.frames.append(D)
            self.infos.append(info)
            self.reverses.append(rev)

    @property
    def final(self):
        return self.frames[-1]

    def saddle_count(self):
        return sum(1 for mv in self.moves if mv.kind == "saddle")

    def decoration_ledger(self):
        return [(k, info["kind"], info["edge"])
                for k, info in enumerate(self.infos)
                if info["kind"] in DECORATIONS]

    def reversed(self):
        """The movie played backwards; its frames are the forward frames
        in reverse order, so it can reuse their complexes.  Each reversed
        r1/r2 move then names the same crossings of the same bigger
        complex as the forward one, and both directions read the one
        elimination kept there (see ``_reidemeister_map``)."""
        rev = Movie(self.frames[-1], list(reversed(self.reverses)),
                    name=self.name + "-reversed" if self.name else "")
        if rev.frames != self.frames[::-1]:
            raise MovieError("the reversed movie does not retrace the "
                             "forward frames")
        return rev

    def complexes(self, theory):
        """One complex per frame; equal frames share one complex."""
        built = {}
        for frame in self.frames:
            if frame not in built:
                built[frame] = build_complex(frame, theory)
        return [built[frame] for frame in self.frames]

    def chain_maps(self, theory, cxs):
        return [move_chain_map(theory, cxs[k], cxs[k + 1], info)
                for k, info in enumerate(self.infos)]


def evaluate_movie(movie, theory, cxs=None):
    """Compose all elementary maps; identity for an empty movie."""
    if cxs is None:
        cxs = movie.complexes(theory)
    return _compose_all(movie.chain_maps(theory, cxs)) or identity_map(cxs[0])


def _compose_all(maps):
    """The composite of maps listed in the order they act, composed as a
    balanced tree so that applying it recurses only log(len) deep."""
    if len(maps) <= 1:
        return maps[0] if maps else None
    mid = len(maps) // 2
    return compose(_compose_all(maps[mid:]), _compose_all(maps[:mid]))


_MOVE_ARITY = {"death": 1, "dot": 1, "dot1": 1, "dot2": 1, "star": 1,
               "saddle": 2, "r1-": 1, "r2+": 2, "r2-": 2, "r3": 3}
_MOVE_ALIASES = {"digit1": "dot1", "digit2": "dot2"}


def parse_movie(text, name=""):
    """Parse a movie script.

    First non-comment line: ``start <pdcode>``, ``start unknot`` or
    ``start empty``; then one move per line (crossing arguments are
    0-based indices into the current frame's crossing list).  ``#``
    starts a comment.
    """
    initial = None
    moves = []
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if initial is None:
            head, _, rest = line.partition(" ")
            rest = rest.strip()
            if head != "start" or not rest:
                raise MovieError(
                    "movie must begin with 'start <pdcode>', 'start unknot' "
                    "or 'start empty'", no)
            if rest == "unknot":
                initial = unknot_diagram()
            elif rest == "empty":
                initial = LinkDiagram((), (), ())
            else:
                try:
                    initial = parse_pd(rest)
                except Exception as e:
                    raise MovieError(str(e), no)
            continue
        parts = line.split()
        kind = _MOVE_ALIASES.get(parts[0], parts[0])
        args = parts[1:]
        if kind == "birth":
            if args:
                raise MovieError("birth takes no arguments", no)
            mv = Move("birth", line=no)
        elif kind == "r1+":
            if not args or (len(args) > 1 and args[1] not in ("+", "-")):
                raise MovieError("usage: r1+ <edge> [+|-]", no)
            try:
                e = int(args[0])
            except ValueError:
                raise MovieError("bad edge id %r" % args[0], no)
            mv = Move("r1+", (e, args[1] if len(args) > 1 else "+"), line=no)
        elif kind in _MOVE_ARITY:
            if len(args) != _MOVE_ARITY[kind]:
                raise MovieError(
                    "%s takes %d argument(s)" % (kind, _MOVE_ARITY[kind]), no)
            try:
                mv = Move(kind, tuple(int(a) for a in args), line=no)
            except ValueError:
                raise MovieError("bad arguments for %s" % kind, no)
        else:
            raise MovieError("unknown move %r" % parts[0], no)
        moves.append(mv)
    if initial is None:
        raise MovieError("movie script has no start line")
    return Movie(initial, moves, name)


def load_movie(path):
    import os
    with open(path) as fh:
        text = fh.read()
    return parse_movie(text, os.path.splitext(os.path.basename(path))[0])


# -- paper-identity verifiers --------------------------------------------

def verify_dot_crossing(hdata, crossing):
    """At the chosen crossing, dots on the two under-strand edges sum to
    h (multiplication) on homology; with chosen roots, digit 1 on one
    plus digit 2 on the other induces zero (checked in both orders)."""
    cx = hdata.original
    theory = hdata.theory
    p, q = cx.diagram.under_edges(crossing)
    if theory.alphas is not None:
        z = zero_map(cx, cx, 0, -2)
        for kp, kq in (("dot1", "dot2"), ("dot2", "dot1")):
            f = add_maps(decoration_chain_map(theory, cx, kp, p),
                         decoration_chain_map(theory, cx, kq, q))
            if not maps_equal_on_homology(f, z, hdata, hdata):
                return False
        return True
    f = add_maps(decoration_chain_map(theory, cx, "dot", p),
                 decoration_chain_map(theory, cx, "dot", q))
    g = scale_map(theory.s, identity_map(cx))
    return maps_equal_on_homology(f, g, hdata, hdata)


def verify_saddle_split(hdata, move):
    """A splitting saddle followed by its reverse is homotopic to the
    star action (multiplication by h over F2[h], 2X-s in general), up to
    a global sign away from characteristic 2."""
    if move.kind != "saddle":
        raise MoveError("verify_saddle_split needs a saddle move")
    cx = hdata.original
    theory = hdata.theory
    new, info, rev = apply_move(cx.diagram, move)
    if len(new.components) != len(cx.diagram.components) + 1:
        raise MoveError("saddle must increase the component count")
    cx2 = build_complex(new, theory)
    f = saddle_chain_map(theory, cx, cx2, info)
    _, info_r, _ = apply_move(new, rev)
    g = saddle_chain_map(theory, cx2, cx, info_r)
    comp = compose(g, f)
    star = decoration_chain_map(theory, cx, "star", info["e1"])
    return maps_equal_on_homology(comp, star, hdata, hdata,
                                  up_to_sign=theory.ring.char != 2)


def verify_symmetry(movie, theory):
    """A palindromic movie and its reflection induce the same map on
    homology (decorations land at the mirrored step of the reflection)."""
    n = len(movie.frames)
    for k in range(n):
        if movie.frames[k] != movie.frames[n - 1 - k]:
            raise MoveError("underlying movie is not palindromic")
    cxs = movie.complexes(theory)
    f = evaluate_movie(movie, theory, cxs)
    g = evaluate_movie(movie.reversed(), theory, cxs[::-1])
    # the first and last frames are equal, so one homology serves both
    ha = HomologyData(cxs[0])
    return maps_equal_on_homology(f, g, ha, ha)


def verify_star_placement(hdata, e1, e2):
    """Stars at two edges of the same component act equally on homology
    up to a global sign."""
    cx = hdata.original
    comp1 = next(c for c in cx.diagram.components if e1 in c)
    if e2 not in comp1:
        raise MoveError("edges %d and %d lie on different components"
                        % (e1, e2))
    f = decoration_chain_map(hdata.theory, cx, "star", e1)
    g = decoration_chain_map(hdata.theory, cx, "star", e2)
    return maps_equal_on_homology(f, g, hdata, hdata, up_to_sign=True)


def ribbon_structure_errors(movie):
    """Syntactic ribbon-concordance shape: births, then r-moves, then
    fusion saddles; no deaths; every birth eventually fused."""
    msgs = []
    phase = 0
    for k, mv in enumerate(movie.moves):
        if mv.kind == "birth":
            want = 0
        elif mv.kind in ("r1+", "r1-", "r2+", "r2-", "r3"):
            want = 1
        elif mv.kind == "saddle":
            want = 2
        elif mv.kind == "death":
            msgs.append("move %d: deaths are not allowed" % (k + 1))
            continue
        else:
            continue    # decorations may sit anywhere
        if want < phase:
            msgs.append("move %d: %s out of ribbon order" % (k + 1, mv.kind))
        phase = max(phase, want)
        if mv.kind == "saddle":
            before = len(movie.frames[k].components)
            after = len(movie.frames[k + 1].components)
            if after != before - 1:
                msgs.append("move %d: saddle does not fuse two components"
                            % (k + 1))
    births = sum(1 for mv in movie.moves if mv.kind == "birth")
    saddles = sum(1 for mv in movie.moves if mv.kind == "saddle")
    if births != saddles:
        msgs.append("%d births but %d saddles; a concordance fuses "
                    "every birthed circle" % (births, saddles))
    return msgs


def verify_ribbon_composite(movie, theory):
    """Reverse-after-forward of a ribbon movie induces the identity on
    the homology of its first frame."""
    msgs = ribbon_structure_errors(movie)
    if msgs:
        raise MoveError("not a ribbon movie: " + "; ".join(msgs))
    cxs = movie.complexes(theory)
    f = evaluate_movie(movie, theory, cxs)
    g = evaluate_movie(movie.reversed(), theory, cxs[::-1])
    ha = HomologyData(cxs[0])
    return maps_equal_on_homology(compose(g, f), identity_map(cxs[0]),
                                  ha, ha, up_to_sign=theory.ring.char != 2)
