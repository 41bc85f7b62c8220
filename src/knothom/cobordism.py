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
the end of the crossing list so earlier indices stay stable.  Moves that
remove or rearrange crossings read their strands off the diagram's
``successor`` and ``predecessor``: ``r1-`` joins the edges before and
after the kink's loop, ``r2-`` those before and after each middle edge
of the bigon (a strand whose join meets itself closes into a free
loop), and ``r3`` moves each triangle edge past its neighbours within
the slots it occupies.

Chain maps are evaluated on the vectors they are applied to.  A birth,
death, saddle or decoration is one label table per state, read by the
one kernel ``complexes.table_map`` entry by entry off the whole vector
it is applied to; each builder here only says what its table is, and
works it out once per state, the first time one of the state's labels
is mapped.  Labels are carried between resolutions as along the cube's
edges, by ``persisting`` and ``CubeComplex.carry``, and a saddle's band
is the cube edge's rule, ``band_plan`` (see ``complexes``).  A birth's
unit and a death's counit are one map (``_unit_counit_map``): they
differ only in whether the circle of their edge is in the source.  A
decoration's table depends only on the circle count and the decorated
circle's position, so the states and maps of one complex share it
(``CubeComplex.decorations``).  A movie's composite pushes a vector
through its moves one after another.

An r1 or r2 move cancels the local pairs of its kink or bigon in the
bigger complex, leaving the smaller diagram's complex up to a checked
sign relabelling; the inclusion and projection of those cancellations,
replayed on the vectors they are applied to, are its maps.  The pairs
are read per state off the cancelling edge's plan: a label with 1 on
the kink or bigon circle against its lone product (``_merge_pairs``),
or any label against the X-at-circle term of its coproduct
(``_split_pairs``).  A kink uses one half, a bigon both.  No pair fills
in, so ``_read_off`` runs no elimination: it pops each pair's column x
out of the bigger cube's load, checks that its pivot <dx, y> is a unit
and pulls the entries at the targets y out of the kept columns, which
are then the reduced differential.  Off the kink crossing the loop
keeps its label.  Where it splits off, a pair's target carries X on it,
and so does any other column with an entry there, which is then itself
a target, cancelled below and never loaded; where it merges, a pair's
source carries 1 on it, and so do its other images, the next degree's
sources, which the load leaves out.  A bigon's split pair's target has
no other source, and a merge pair's column holds only its pivot.  So
each step's dx or into_y is empty.  This is checked, not assumed: a pair whose dx and into_y are
both non-empty, or whose dx holds another target, raises MoveError.

Applying a move gives the next frame and a step record, the ``info``
dict that is all a chain map reads.  An r1 or r2 record names only the
``crossings`` the move adds or removes, in the bigger frame.  The record
of the step back is read off that record (``_inverse_info``), so a movie
is reversed from its frames and records without any surgery.  The
reverse of a ribbon movie after the movie itself induces the identity on
homology (Levine-Zemke, *Khovanov homology and ribbon concordances*);
``verify_ribbon_composite`` checks that one instance at a time.
"""

from dataclasses import dataclass, field
from functools import cache

from .diagram import (LinkDiagram, faces, is_planar, parse_pd,
                      unknot_diagram)
from .complexes import (ChainMap, band_plan, build_complex, compose,
                        add_maps, identity_map, persisting, scale_map,
                        table_map, zero_map)
from .homology import (HomologyData, Reduction, _Cancellations,
                       maps_equal_on_homology)


class MoveError(ValueError):
    pass


@dataclass
class Move:
    kind: str
    args: tuple = ()
    line: int = field(default=None, compare=False,   # script line, if parsed
                      kw_only=True)

    def __str__(self):
        return " ".join([self.kind] + [str(a) for a in self.args])


DECORATIONS = ("dot", "dot1", "dot2", "star")


def _drop_bit(L, pos):
    low = L & ((1 << pos) - 1)
    high = L >> (pos + 1)
    return low | (high << pos)


# -- surgery -------------------------------------------------------------

def _fresh_ids(diagram, k):
    base = diagram.max_edge()
    return tuple(base + i + 1 for i in range(k))


def _rewrite_occurrence(crossings, place, new_edge):
    ci, slot = place
    cr = list(crossings[ci])
    cr[slot] = new_edge
    crossings[ci] = tuple(cr)


def apply_move(diagram, move):
    """Apply one move.  Returns (new_diagram, info, inverse_info).

    ``info`` is the step record that ``move_chain_map`` reads, and
    ``inverse_info`` the record of the step back from new_diagram to
    diagram (``_inverse_info(info)``).  Raises MoveError when the move
    does not apply, or when it changes crossings and the result is not a
    plane diagram (for instance ``r2+`` or ``saddle`` on two edges that
    share no face).
    """
    kind = move.kind
    if kind == "birth":
        (f,) = _fresh_ids(diagram, 1)
        new = LinkDiagram(diagram.crossings, diagram.signs,
                          diagram.free_edges + (f,))
        info = {"kind": "birth", "edge": f}
    elif kind == "death":
        (e,) = move.args
        if e not in diagram.free_edges:
            raise MoveError("death needs a free (crossingless) edge, got %d" % e)
        new = LinkDiagram(diagram.crossings, diagram.signs,
                          tuple(x for x in diagram.free_edges if x != e))
        info = {"kind": "death", "edge": e}
    elif kind in DECORATIONS:
        (e,) = move.args
        if e not in diagram.edges:
            raise MoveError("decoration on unknown edge %d" % e)
        new, info = diagram, {"kind": kind, "edge": e}
    else:
        surgery = {"saddle": _apply_saddle, "r1+": _apply_r1_plus,
                   "r1-": _apply_r1_minus, "r2+": _apply_r2_plus,
                   "r2-": _apply_r2_minus, "r3": _apply_r3}.get(kind)
        if surgery is None:
            raise MoveError("unknown move kind %r" % kind)
        new, info = surgery(diagram, move)
        if not is_planar(new):
            raise MoveError("the resulting frame is non-planar")
    return new, info, _inverse_info(info)


_INVERSE_KIND = {"birth": "death", "death": "birth", "r1+": "r1-",
                 "r1-": "r1+", "r2+": "r2-", "r2-": "r2+"}


def _inverse_info(info):
    """The record of the step that undoes the step ``info`` records, read
    off without surgery.  Birth and death swap, and so do r1+ and r1-, and
    r2+ and r2-: they name the same crossings of the bigger frame.  A
    saddle's band ends swap sides.  A decoration or r3 is its own inverse.
    Every other field is carried over as it is, so the inverse of the
    inverse is ``info`` again."""
    inv = dict(info, kind=_INVERSE_KIND.get(info["kind"], info["kind"]))
    if info["kind"] == "saddle":
        inv["ends"] = info["ends"][::-1]
    return inv


def _apply_saddle(diagram, move):
    e1, e2 = move.args
    edges = set(diagram.edges)
    if e1 not in edges or e2 not in edges:
        raise MoveError("saddle on unknown edge")
    free = set(diagram.free_edges)

    if e1 == e2:
        (loop,) = _fresh_ids(diagram, 1)
        new = LinkDiagram(diagram.crossings, diagram.signs,
                          diagram.free_edges + (loop,))
        info = {"kind": "saddle", "ends": ((e1, e1), (e1, loop))}
        return new, info

    if e1 in free and e2 in free:
        new = LinkDiagram(diagram.crossings, diagram.signs,
                          tuple(x for x in diagram.free_edges if x != e2))
        info = {"kind": "saddle", "ends": ((e1, e2), (e1, e1))}
        return new, info

    if (e1 in free) != (e2 in free):
        lone = e1 if e1 in free else e2
        other = e2 if e1 in free else e1
        new = LinkDiagram(diagram.crossings, diagram.signs,
                          tuple(x for x in diagram.free_edges if x != lone))
        info = {"kind": "saddle", "ends": ((lone, other), (other, other))}
        return new, info

    # two honest crossing edges
    a, b = _fresh_ids(diagram, 2)
    crossings = list(diagram.crossings)
    _rewrite_occurrence(crossings, diagram.tail(e1), a)
    _rewrite_occurrence(crossings, diagram.head(e2), a)
    _rewrite_occurrence(crossings, diagram.tail(e2), b)
    _rewrite_occurrence(crossings, diagram.head(e1), b)
    new = LinkDiagram(tuple(crossings), diagram.signs, diagram.free_edges)
    info = {"kind": "saddle", "ends": ((e1, e2), (a, b))}
    return new, info


def _apply_r1_plus(diagram, move):
    e, sgn = move.args
    if sgn not in ("+", "-"):
        raise MoveError("r1+ needs a sign argument + or -")
    if e in diagram.free_edges:
        (m,) = _fresh_ids(diagram, 1)
        n = e
        crossings = list(diagram.crossings)
        free = tuple(x for x in diagram.free_edges if x != e)
    else:
        if e not in diagram.edges:
            raise MoveError("r1+ on unknown edge %d" % e)
        n, m = _fresh_ids(diagram, 2)
        crossings = list(diagram.crossings)
        _rewrite_occurrence(crossings, diagram.head(e), n)
        free = diagram.free_edges
    if sgn == "+":
        cr, s = (e, n, m, m), 1
    else:
        cr, s = (m, e, n, m), -1
    new = LinkDiagram(tuple(crossings) + (cr,), diagram.signs + (s,), free)
    info = {"kind": "r1+", "crossings": (diagram.n,)}
    return new, info


def _find_kink_loop(cr):
    cands = [e for e in set(cr) if cr.count(e) == 2]
    # a kink's loop sits in adjacent slots; in opposite ones (only in a
    # non-planar code) the strand would not run on through slot ^ 2
    if not cands or cr[0] == cr[2] or cr[1] == cr[3]:
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
    loop = _find_kink_loop(diagram.crossings[ci])
    # the strand runs e_in -> loop -> e_out, both ends at crossing ci
    e_in, e_out = diagram.predecessor(loop), diagram.successor(loop)
    crossings = list(diagram.crossings[:ci] + diagram.crossings[ci + 1:])
    signs = diagram.signs[:ci] + diagram.signs[ci + 1:]
    free = list(diagram.free_edges)
    if e_in == e_out:
        # single-crossing unknot component: it becomes a free loop
        free.append(e_in)
    else:
        ck, slot = diagram.head(e_out)
        _rewrite_occurrence(crossings, (ck - (ck > ci), slot), e_in)
    new = LinkDiagram(tuple(crossings), signs, tuple(sorted(free)))
    info = {"kind": "r1-", "crossings": (ci,)}
    return new, info


def _apply_r2_plus(diagram, move):
    e1, e2 = move.args
    if e1 == e2:
        raise MoveError("r2+ needs two distinct edges")
    for e in (e1, e2):
        if e not in diagram.edges:
            raise MoveError("r2+ on unknown edge %d" % e)
    free = set(diagram.free_edges)
    ids_needed = 2 + (0 if e1 in free else 1) + (0 if e2 in free else 1)
    ids = list(_fresh_ids(diagram, ids_needed))
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
    info = {"kind": "r2+", "crossings": (p1, p1 + 1)}
    return new, info


def _bigon_structure(diagram, ci, cj):
    """Shared over-mid and under-mid edges of a candidate bigon."""
    shared = set(diagram.crossings[ci]) & set(diagram.crossings[cj])
    over_mid = under_mid = None
    for e in sorted(shared):
        # a shared edge sits once at each crossing: at its head and tail
        parity = {diagram.head(e)[1] & 1, diagram.tail(e)[1] & 1}
        if parity == {1}:
            over_mid = e
        if parity == {0}:
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
    # each strand through the bigon joins the edges before and after its
    # middle edge; a strand whose join meets its own other end closes up
    # into a free loop
    rename = {}
    free = list(diagram.free_edges)
    for mid in (over_mid, under_mid):
        e_in = rename.get(diagram.predecessor(mid), diagram.predecessor(mid))
        e_out = rename.get(diagram.successor(mid), diagram.successor(mid))
        if e_in == e_out:
            free.append(e_in)
        else:
            rename = {e: e_in if f == e_out else f for e, f in rename.items()}
            rename[e_out] = e_in
    keep = [k for k in range(diagram.n) if k not in (ci, cj)]
    crossings = tuple(tuple(rename.get(e, e) for e in diagram.crossings[k])
                      for k in keep)
    new = LinkDiagram(crossings, tuple(diagram.signs[k] for k in keep),
                      tuple(sorted(free)))
    info = {"kind": "r2-", "crossings": (ci, cj)}
    return new, info


def _r3_triangle(diagram, ca, cb, cc):
    """The triangle edges (u joining ca-cb, v joining cb-cc, w joining
    ca-cc) of the r3 face: a face of ``faces`` with three edges, which
    are u, v and w."""
    def shared(x, y):
        return sorted(set(diagram.crossings[x]) & set(diagram.crossings[y]))

    su, sv, sw = shared(ca, cb), shared(cb, cc), shared(ca, cc)
    if not (su and sv and sw):
        raise MoveError("crossings do not pairwise share an edge")
    triangles = {frozenset(diagram.crossings[ci][slot] for ci, slot in face)
                 for face in faces(diagram) if len(face) == 3}
    for u in su:
        for v in sv:
            for w in sw:
                if frozenset((u, v, w)) in triangles:
                    return u, v, w
    raise MoveError("no triangular face spans the three crossings")


def _apply_r3(diagram, move):
    ca, cb, cc = move.args
    if len({ca, cb, cc}) != 3 or not all(0 <= c < diagram.n
                                         for c in (ca, cb, cc)):
        raise MoveError("r3 needs three distinct crossing indices")
    # strand 0 carries u through ca and cb, 1 carries v through cb and
    # cc, 2 carries w through ca and cc
    triangle = _r3_triangle(diagram, ca, cb, cc)
    # at each crossing the strand whose face edge sits in an over slot
    # passes over; a slideable triangle has a top/middle/bottom layering
    wins = [0, 0, 0]
    for ci, (sa, sb) in ((ca, (0, 2)), (cb, (0, 1)), (cc, (1, 2))):
        a_over = diagram.crossings[ci].index(triangle[sa]) in (1, 3)
        wins[sa if a_over else sb] += 1
    if sorted(wins) != [0, 1, 2]:
        raise MoveError("triangle strands have no consistent layering; "
                        "not an r3 site")
    crossings = [list(cr) for cr in diagram.crossings]
    for t in triangle:
        # the strand runs predecessor(t) -> t -> successor(t) through the
        # out slot f of t's tail and the in slot g of its head; the move
        # keeps those slots and swaps which of the three edges sits where
        (F, f), (G, g) = diagram.tail(t), diagram.head(t)
        crossings[F][f ^ 2] = t
        crossings[F][f] = diagram.successor(t)
        crossings[G][g] = diagram.predecessor(t)
        crossings[G][g ^ 2] = t
    new = LinkDiagram(tuple(tuple(c) for c in crossings), diagram.signs,
                      diagram.free_edges)
    info = {"kind": "r3", "crossings": (ca, cb, cc)}
    return new, info


def _r3_chain_map(theory, cx_src, cx_tgt, info):
    raise MoveError("r3 chain maps are not implemented; r3 is supported "
                    "at the diagram level only")


# -- elementary chain maps -----------------------------------------------

def _unit_counit_map(theory, cx_src, cx_tgt, info):
    """A birth's unit or a death's counit on the circle of
    ``info["edge"]``: every other circle keeps its label, a born circle
    gets the label 1, and a dying one sends its label 1 to zero.  A
    state's table carries the persisting circles' labels with payload
    one, and has no row where the counit kills the label."""
    e = info["edge"]
    live = ((0, theory.ring.one),)

    @cache
    def plan(s):
        rs = cx_src.diagram.resolve(s)
        j = rs.index.get(e)         # None for a birth
        base = cx_tgt.carry(persisting(rs, cx_tgt.diagram.resolve(s)),
                            len(rs))
        return cx_tgt.state_block[s][1], base, [
            () if j is not None and not L >> j & 1 else live
            for L in range(len(base))]
    return table_map(cx_src, cx_tgt, plan, 0, 1, info["kind"])


def decoration_chain_map(theory, cx, kind, edge):
    """Multiplication by the decoration's element on the circle through
    ``edge``, label by label.  The circle's position j is left out of
    ``carry`` and its label's products elem * 1 and elem * X
    (``Theory.act_basis``) fill the rows.  The table depends only on the
    circle count and j, so it is built once per (kind, count, j) and
    kept in ``cx.decorations`` for every state and map that reads it."""
    R = theory.ring
    elem = theory.decoration_element(kind)
    # acts[b]: the nonzero components (comp, coeff) of elem * basis[b]
    acts = tuple(tuple((comp, c)
                       for comp, c in enumerate(theory.act_basis(elem, b))
                       if not R.is_zero(c))
                 for b in (0, 1))
    tables = cx.decorations

    @cache
    def plan(s):
        _, off, c = cx.state_block[s]
        j = cx.diagram.locate(s, edge)
        table = tables.get((kind, c, j))
        if table is None:
            rows = [tuple((comp << j, coeff) for comp, coeff in row)
                    for row in acts]
            table = tables[kind, c, j] = (
                cx.carry(tuple(None if k == j else k for k in range(c)), c),
                [rows[L >> j & 1] for L in range(1 << c)])
        return (off,) + table
    return table_map(cx, cx, plan, 0, -2, kind)


def saddle_chain_map(theory, cx_src, cx_tgt, info):
    """Per-state merge or split along the band of a saddle move, whose
    ends are the source edges ``info["ends"][0]`` and the target edges
    ``info["ends"][1]``: each state's ``band_plan`` and its label table
    (``CubeComplex._shape`` without a sign).  A band that neither merges
    nor splits is a MoveError."""
    Ds, Dt = cx_src.diagram, cx_tgt.diagram

    @cache
    def plan(s):
        rs, rt = Ds.resolve(s), Dt.resolve(s)
        try:
            band = band_plan(rs, rt, *info["ends"])
        except ValueError as e:
            raise MoveError(str(e)) from e
        return (cx_tgt.state_block[s][1],) + cx_tgt._shape(band, 0)
    return table_map(cx_src, cx_tgt, plan, 0, -1, "saddle")


# -- r1/r2 maps read off the bigger cube ---------------------------------

def _merge_pairs(cx, s, ci, edge):
    """Each label of state s with 1 on ``edge``'s circle against its lone
    image along the merge at crossing ci, as (r, x, y) indices.  That
    image is 1 * a = a with coefficient one, as ``Theory.mul`` has it for
    every ring and (s, p): the other merging circle's label moves to the
    merged circle."""
    kind, ia, ib, it, match = cx.edge_plan(s, ci)
    j = cx.diagram.locate(s, edge)
    if kind != "merge" or j not in (ia, ib):
        raise MoveError("expected a merge through edge %d at crossing %d"
                        % (edge, ci))
    other = ib if j == ia else ia
    (r, off, c), toff = cx.state_block[s], cx.state_block[s | 1 << ci][1]
    base = cx.carry(match, c)
    return [(r, off + L, toff + (base[L] | (L >> other & 1) << it))
            for L in range(1 << c) if not L >> j & 1]


def _split_pairs(cx, s, ci, edge):
    """Every label of state s against its image with X on ``edge``'s
    circle along the split at crossing ci, as (r, x, y) indices.  That
    term of the coproduct is 1 -> X (x) 1 and X -> X (x) X with
    coefficient one, as ``Theory.comul_basis`` has it for every ring and
    (s, p): the label's split bit moves to the other new circle."""
    kind, ia, it1, it2, match = cx.edge_plan(s, ci)
    j = cx.diagram.locate(s | 1 << ci, edge)
    if kind != "split" or j not in (it1, it2):
        raise MoveError("expected a split through edge %d at crossing %d"
                        % (edge, ci))
    other = it2 if j == it1 else it1
    (r, off, c), toff = cx.state_block[s], cx.state_block[s | 1 << ci][1]
    base = cx.carry(match, c)
    return [(r, off + L, toff + (base[L] | 1 << j | (L >> ia & 1) << other))
            for L in range(1 << c)]


def _loop_pairs(cx, ci):
    """Cancelling pairs that collapse the kink at crossing ci: its loop's
    1-labels through the merge if the loop is a circle at state 0,
    else the whole 0 side against its X-labels through the split.  A
    wrong pair from either half would be caught by ``_read_off``: not a
    unit, fill-in, or a relabelling that does not land.  Returns the
    pairs, the surviving bit of ci and the loop's surviving label."""
    D = cx.diagram
    loop = _find_kink_loop(D.crossings[ci])
    res0 = D.resolve(0)
    eps = 0 if res0.circles[res0.index[loop]] == (loop,) else 1
    half = _split_pairs if eps else _merge_pairs
    pairs = [p for s in range(1 << D.n) if not s >> ci & 1
             for p in half(cx, s, ci, loop)]
    return pairs, {ci: eps}, {loop: 1 - eps}


def _bigon_pairs(cx, ci, cj):
    """Cancelling pairs that collapse the r2 bigon at crossings ci, cj:
    below the bigon circle each state cancels against its X-labels
    through the split, and above it the circle's 1-labels cancel through
    the merge.  Returns the pairs and the surviving bits of ci and cj."""
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
    both = (1 << ci) | (1 << cj)
    pairs = []
    for s in range(1 << D.n):
        if not s & both:
            pairs += _split_pairs(cx, s, delta_bit, om)
            pairs += _merge_pairs(cx, s | 1 << delta_bit, merge_bit, om)
    return pairs, {ci: 1 - circ[0], cj: 1 - circ[1]}, {}


def _read_off(big, small, pairs, fixed_bits, forced_labels):
    """Read the cancellation record of an r1 or r2 move's pairs off the
    bigger cube and relabel its survivors onto the smaller one, in one
    pass over the degrees (see the module docstring).

    pairs: (r, x, y) indices, x of degree r against y of degree r + 1; a
    source given twice, two pairs with one target, or a source that is
    also a target is already gone.  fixed_bits: {crossing: surviving
    smoothing bit}; forced_labels: {edge: label bit} for big circles
    absent from the small diagram.  A fixed 1-bit changes the cube sign
    convention: a survivor picks up (-1) per set bit above the removed
    crossing.  Per big state the layer, the circle counts and the
    ``persisting`` match are checked, per survivor its forced labels and
    its small generator's degree, q and uniqueness; every small
    generator must be hit, and each degree's kept columns must carry the
    differential entry for entry, signed, onto the small one.  Each
    failure raises MoveError.  Returns the record (``_Cancellations``)
    and the tables fwd {r: {survivor: (small index, negate)}} and bwd
    {r: {small index: (survivor, negate)}}."""
    R = big.ring
    table = {}                      # {r: {x: y}}
    for r, x, y in pairs:
        table.setdefault(r, {})[x] = y
    targets = {r + 1: set(p.values()) for r, p in table.items()}
    if len(pairs) != sum(map(len, targets.values())) or any(
            targets.get(r, set()) & p.keys() for r, p in table.items()):
        raise MoveError("prescribed pair already gone")

    D, Ds = big.diagram, small.diagram
    removed = sorted(fixed_bits, reverse=True)
    odd = R.char != 2
    states = {}

    def state_relabel(S):
        if any(S >> ci & 1 != bit for ci, bit in fixed_bits.items()):
            raise MoveError("survivor outside expected layer")
        res_big = D.resolve(S)
        sgn, s_small = 0, S
        for ci in removed:
            if fixed_bits[ci]:
                sgn += (s_small >> (ci + 1)).bit_count()
            s_small = _drop_bit(s_small, ci)
        res_small = Ds.resolve(s_small)
        if len(res_small) != len(res_big) - len(forced_labels):
            raise MoveError("survivor's circles do not match the small "
                            "diagram's")
        match = persisting(res_big, res_small)
        if None in match:
            raise MoveError("a circle of the small diagram has no edge "
                            "in the big one")
        mask = sum(1 << res_big.index[e] for e in forced_labels)
        value = sum(bit << res_big.index[e]
                    for e, bit in forced_labels.items())
        return (odd and sgn % 2 == 1, small.state_block[s_small][:2],
                small.carry(match, len(res_big)), mask, value)

    fwd, bwd = {}, {}

    def relabel(r):
        cancelled = targets.get(r, set()).union(table.get(r, ()))
        fwd[r], bwd[r] = f, b = {}, {}
        for i, (S, L) in enumerate(big.gens.get(r, ())):
            if i in cancelled:
                continue
            if S not in states:
                states[S] = state_relabel(S)
            negate, (rs, off), base, mask, value = states[S]
            if L & mask != value:
                raise MoveError(
                    "survivor carries the wrong label on a collapsed circle")
            js = off + base[L]
            if rs != r:
                raise MoveError("homological degree mismatch in relabeling")
            if big.qdeg[r][i] != small.qdeg[rs][js]:
                raise MoveError("q mismatch in relabeling")
            if js in b:
                raise MoveError("two survivors relabel to one generator")
            f[i] = js, negate
            b[js] = i, negate

    steps = []
    killed = {r: {} for r in big.degrees}
    touching = {}
    relabel(big.degrees[0])
    for r in big.degrees:
        pivots, ys = table.get(r, {}), targets.get(r + 1, set())
        cols = big.take_d(r, targets.get(r, ()), table.get(r + 1, ()))
        popped = []
        for x in sorted(pivots):
            dx = cols.pop(x, {})
            u = dx.pop(pivots[x], R.zero)
            if not R.is_unit(u):
                raise MoveError("prescribed pair is not a unit")
            popped.append((x, pivots[x], R.inv(u), dx))
        # one pass over the kept columns: the entries at targets are the
        # steps' into_y, every other entry must be the small one's
        relabel(r + 1)
        small_cols = small.take_d(r, ())
        rel_src, rel_tgt = fwd[r], fwd[r + 1]
        into = {}                   # {y: {w: <dw, y>}}
        same, nnz = True, sum(map(len, small_cols.values()))
        for i, col in cols.items():
            si, ni = rel_src[i]
            small_col = small_cols.get(si, {})
            for t, v in col.items():
                if t in ys:
                    into.setdefault(t, {})[i] = v
                    continue
                nnz -= 1
                st, nt = rel_tgt[t]
                # the signs are units +-1, so the entry is v or -v; every
                # ring keeps its values canonical (see ``rings``)
                same = same and small_col.get(st) == (
                    v if ni == nt else R.neg(v))
        touching[r] = touch = {}
        for x, y, uinv, dx in popped:
            into_y = into.get(y, {})
            if dx and (into_y or not ys.isdisjoint(dx)):
                raise MoveError("pair %s of degree %d fills in" % ((x, y), r))
            killed[r][x] = killed[r + 1][y] = len(steps)
            for w in into_y:
                touch.setdefault(w, []).append(len(steps))
            steps.append((r, x, y, uinv, dx, into_y))
        if not same or nnz:
            raise MoveError(
                "reduced differential differs from the small diagram's")
    if sum(map(len, bwd.values())) != small.total_rank():
        raise MoveError("reduction did not land on the small complex")
    keep = {r: list(fwd[r]) for r in big.degrees}
    return _Cancellations(R, steps, killed, keep, touching), fwd, bwd


def _move_pairs(big, info):
    """The pairs, fixed bits and forced labels (see ``_read_off``) that
    collapse the kink or bigon of an r1 or r2 move in its bigger
    complex."""
    pairs = _loop_pairs if info["kind"].startswith("r1") else _bigon_pairs
    return pairs(big, *info["crossings"])


def _reidemeister_reduction(cx_small, cx_big, info):
    """An r1 or r2 move as a Reduction of the bigger complex onto the
    smaller one, whose maps replay the read-off record (``_read_off``)
    on the vectors they are applied to, through the relabel tables.

    The record and tables are read once and kept in the bigger complex's
    ``move_reductions``, keyed by the smaller complex and the crossings
    the move removes, on which alone the pairs depend (``_bigon_pairs``
    is symmetric in them); so a move and its reverse read them once.
    Nothing kept there refers back to the bigger complex."""
    key = (cx_small, frozenset(info["crossings"]))
    if key not in cx_big.move_reductions:
        cx_big.move_reductions[key] = _read_off(
            cx_big, cx_small, *_move_pairs(cx_big, info))
    record, fwd, bwd = cx_big.move_reductions[key]
    R = cx_big.ring

    def signed(rel, vec):
        return {j: R.neg(v) if negate else v
                for i, v in vec.items() for j, negate in (rel[i],)}

    return Reduction(
        cx_big, cx_small,
        ChainMap(cx_small, cx_big, lambda r, vec: record._include(
            r, signed(bwd[r], vec), {}), 0, 0, "incl"),
        ChainMap(cx_big, cx_small, lambda r, vec: signed(
            fwd[r], record._project(r, vec)), 0, 0, "proj"),
        ChainMap(cx_big, cx_big, record.homotopy, -1, None, "H"))


def _reidemeister_map(theory, cx_src, cx_tgt, info):
    """The chain map of an r1 or r2 move: the inclusion of its reduction
    for a move that adds crossings, else its projection."""
    grow = info["kind"].endswith("+")
    cx_small, cx_big = (cx_src, cx_tgt) if grow else (cx_tgt, cx_src)
    redn = _reidemeister_reduction(cx_small, cx_big, info)
    return redn.incl if grow else redn.proj


# kind -> (change in crossing count, possible changes in free-edge count)
_RECORD_COUNTS = {"birth": (0, (1,)), "death": (0, (-1,)),
                  "saddle": (0, (-1, 0, 1)), "r1+": (1, (-1, 0)),
                  "r1-": (-1, (0, 1)), "r2+": (2, (-2, -1, 0)),
                  "r2-": (-2, (0, 1, 2)), "r3": (0, (0,)),
                  **{kind: (0, (0,)) for kind in DECORATIONS}}


def _check_record(src, tgt, info):
    """Raise MoveError unless the step record ``info`` fits the frames
    src -> tgt: its kind changes the crossing and free-edge counts as that
    kind does, and the edges and crossings it names are there."""
    kind = info.get("kind")
    if kind not in _RECORD_COUNTS:
        raise MoveError("no chain map for move kind %r" % (kind,))
    dn, dfree = _RECORD_COUNTS[kind]
    edges = set(src.edges), set(tgt.edges)
    if kind == "birth":
        names = (info.get("edge") not in edges[0]
                 and info.get("edge") in tgt.free_edges)
    elif kind == "death":
        names = (info.get("edge") in src.free_edges
                 and info.get("edge") not in edges[1])
    elif kind in DECORATIONS:
        names = src == tgt and info.get("edge") in edges[0]
    elif kind == "saddle":
        ends = info.get("ends", ())
        names = len(ends) == 2 and all(
            set(end) <= side for end, side in zip(ends, edges))
    else:
        # r3 names the three crossings of its triangle, r1/r2 those the
        # move removes from the bigger frame
        big = tgt if kind.endswith("+") else src
        crossings = info.get("crossings", ())
        count = 3 if kind == "r3" else abs(dn)
        names = len(crossings) == len(set(crossings)) == count and all(
            isinstance(c, int) and 0 <= c < big.n for c in crossings)
    if (tgt.n - src.n != dn
            or len(tgt.free_edges) - len(src.free_edges) not in dfree
            or not names):
        raise MoveError("the %s record does not fit its frames: %d -> %d "
                        "crossings, %d -> %d free edges"
                        % (kind, src.n, tgt.n, len(src.free_edges),
                           len(tgt.free_edges)))


def move_chain_map(theory, cx_src, cx_tgt, info):
    """The chain map of one applied move, between prebuilt complexes.
    The record must fit the two frames (``_check_record``)."""
    _check_record(cx_src.diagram, cx_tgt.diagram, info)
    kind = info["kind"]
    if kind in ("birth", "death"):
        return _unit_counit_map(theory, cx_src, cx_tgt, info)
    if kind in DECORATIONS:
        return decoration_chain_map(theory, cx_src, kind, info["edge"])
    if kind == "saddle":
        return saddle_chain_map(theory, cx_src, cx_tgt, info)
    if kind == "r3":
        return _r3_chain_map(theory, cx_src, cx_tgt, info)
    return _reidemeister_map(theory, cx_src, cx_tgt, info)


# -- movies ---------------------------------------------------------------

class MovieError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class Movie:
    """A movie's frames and the records of its steps.

    Playing the moves of a script from an initial diagram gives
    ``frames[k]``, the diagram before step k, and ``infos[k]``, the record
    ``apply_move`` returned for that step; the chain maps read only these.
    ``moves`` is the script.  ``reversed()`` builds the movie played
    backwards from the frames and records alone.
    """

    def __init__(self, initial, moves, name=""):
        self.initial = initial
        self.moves = list(moves)
        self.name = name
        self.frames = [initial]
        self.infos = []
        D = initial
        for k, mv in enumerate(self.moves):
            try:
                D, info, _ = apply_move(D, mv)
            except MoveError as e:
                raise MovieError("move %d (%s): %s" % (k + 1, mv, e), mv.line)
            self.frames.append(D)
            self.infos.append(info)

    @property
    def final(self):
        return self.frames[-1]

    def saddle_count(self):
        return sum(1 for info in self.infos if info["kind"] == "saddle")

    def reversed(self):
        """The movie played backwards, built without applying a move.

        Its frames are the forward frames in reverse order, so it can
        reuse their complexes, and its records are the inverse records
        (``_inverse_info``) in reverse order.  Each reversed r1/r2 step
        then names the same crossings of the same bigger complex as the
        forward one, and both directions read the one record kept there
        (see ``_reidemeister_reduction``).  It was played from no script,
        so its ``moves`` is None.
        """
        rev = Movie(self.final, ())
        rev.moves = None
        rev.name = self.name + "-reversed" if self.name else ""
        rev.frames = self.frames[::-1]
        rev.infos = [_inverse_info(info) for info in self.infos[::-1]]
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
                except ValueError as e:
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
            if not 1 <= len(args) <= 2 or args[1:] not in ([], ["+"], ["-"]):
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
    new, info, inverse = apply_move(cx.diagram, move)
    if len(new.components) != len(cx.diagram.components) + 1:
        raise MoveError("saddle must increase the component count")
    cx2 = build_complex(new, theory)
    f = saddle_chain_map(theory, cx, cx2, info)
    g = saddle_chain_map(theory, cx2, cx, inverse)
    comp = compose(g, f)
    star = decoration_chain_map(theory, cx, "star", move.args[0])
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
    kinds = [info["kind"] for info in movie.infos]
    for k, kind in enumerate(kinds):
        if kind == "birth":
            want = 0
        elif kind in ("r1+", "r1-", "r2+", "r2-", "r3"):
            want = 1
        elif kind == "saddle":
            want = 2
        elif kind == "death":
            msgs.append("move %d: deaths are not allowed" % (k + 1))
            continue
        else:
            continue    # decorations may sit anywhere
        if want < phase:
            msgs.append("move %d: %s out of ribbon order" % (k + 1, kind))
        phase = max(phase, want)
        if kind == "saddle":
            before = len(movie.frames[k].components)
            after = len(movie.frames[k + 1].components)
            if after != before - 1:
                msgs.append("move %d: saddle does not fuse two components"
                            % (k + 1))
    births, saddles = kinds.count("birth"), kinds.count("saddle")
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
