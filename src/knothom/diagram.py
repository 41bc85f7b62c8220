"""Planar diagram codes for oriented links.

A crossing ``X[a, b, c, d]`` lists the four edge ids counterclockwise
starting from the incoming under-strand, so ``a`` is the under-strand
entering the crossing and ``c`` is it leaving.  The over-strand occupies
slots ``b`` and ``d``; which of the two is incoming determines the sign
(``d`` incoming gives a positive crossing, ``b`` incoming negative).

Orientations are recovered from the under-strand slots and propagated.
Components that only ever pass over (no occurrence in slots a or c) carry
no orientation data, so they are oriented by the edge numbering (ids
should mostly increase along the strand); if even that is ambiguous the
lowest edge of the component is pointed into slot d.

Smoothings: the 0-smoothing joins a-b and c-d, the 1-smoothing joins
a-d and b-c.  At a positive crossing the 0-smoothing is the oriented one.

Crossingless unknot components are supported as "free edges": edge ids
that appear in no crossing and each bound an embedded circle.
"""

from dataclasses import dataclass, field
from itertools import permutations, product


class PDSyntaxError(ValueError):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = "%s (at offset %d)" % (message, position)
        super().__init__(message)


class OrientationError(ValueError):
    pass


@dataclass
class Resolution:
    """Circles of a complete smoothing, each a sorted tuple of edge ids.

    Circles are ordered by their least edge id.  ``index`` maps every
    edge to the position of its circle.
    """

    circles: tuple
    index: dict

    def __len__(self):
        return len(self.circles)


@dataclass(eq=False)
class LinkDiagram:
    crossings: tuple
    signs: tuple
    free_edges: tuple = ()
    _res_cache: dict = field(default_factory=dict, repr=False)
    _components: tuple = field(default=None, init=False, repr=False)
    _edges: tuple = field(default=None, init=False, repr=False)
    _slots: tuple = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.crossings = tuple(tuple(c) for c in self.crossings)
        self.signs = tuple(self.signs)
        self.free_edges = tuple(sorted(self.free_edges))
        if len(self.signs) != len(self.crossings):
            raise PDSyntaxError("%d signs for %d crossings"
                                % (len(self.signs), len(self.crossings)))
        if any(s not in (1, -1) for s in self.signs):
            raise PDSyntaxError("crossing signs must be +1 or -1")
        occ = {}
        for ci, cr in enumerate(self.crossings):
            if len(cr) != 4:
                raise PDSyntaxError("crossing %d does not have 4 edges" % ci)
            for slot, e in enumerate(cr):
                if not isinstance(e, int) or e <= 0:
                    raise PDSyntaxError("edge ids are positive ints, got %r"
                                        % (e,))
                occ.setdefault(e, []).append((ci, slot))
        for e, places in occ.items():
            if len(places) != 2:
                raise PDSyntaxError(
                    "edge %d appears %d times, expected 2" % (e, len(places)))
        for e in self.free_edges:
            if e in occ:
                raise PDSyntaxError("free edge %d also appears in a crossing" % e)
        if len(set(self.free_edges)) != len(self.free_edges):
            raise PDSyntaxError("duplicate free edge id")
        # Derive head/tail occurrences from the signs and check that every
        # edge has exactly one of each (this is the orientation consistency
        # guarantee surgery code relies on).
        heads, tails = {}, {}
        for ci, cr in enumerate(self.crossings):
            in_over = 3 if self.signs[ci] > 0 else 1
            out_over = 1 if self.signs[ci] > 0 else 3
            for slot, book in ((0, heads), (in_over, heads),
                               (2, tails), (out_over, tails)):
                e = cr[slot]
                if e in book:
                    raise OrientationError(
                        "edge %d has two %s" % (e, "heads" if book is heads else "tails"))
                book[e] = (ci, slot)
        self._heads = heads
        self._tails = tails
        self._occ = occ

    # -- basic invariants ------------------------------------------------

    @property
    def n(self):
        return len(self.crossings)

    @property
    def n_plus(self):
        return sum(1 for s in self.signs if s > 0)

    @property
    def n_minus(self):
        return sum(1 for s in self.signs if s < 0)

    @property
    def writhe(self):
        return sum(self.signs)

    @property
    def edges(self):
        """Every edge id, sorted; worked out once, like ``components``."""
        if self._edges is None:
            self._edges = tuple(sorted(set(self._occ) | set(self.free_edges)))
        return self._edges

    def head(self, e):
        return self._heads.get(e)

    def tail(self, e):
        return self._tails.get(e)

    def key(self):
        return (self.crossings, self.signs, self.free_edges)

    def __eq__(self, other):
        return isinstance(other, LinkDiagram) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def max_edge(self):
        es = self.edges
        return max(es) if es else 0

    def successor(self, e):
        """The next edge along the oriented strand through e."""
        if e in self.free_edges:
            return e
        ci, slot = self._heads[e]
        if slot == 0:
            return self.crossings[ci][2]
        return self.crossings[ci][3 if slot == 1 else 1]

    @property
    def components(self):
        """Oriented components as tuples of edges in traversal order."""
        if self._components is None:
            seen = set()
            comps = []
            for e0 in self.edges:
                if e0 in seen:
                    continue
                comp = [e0]
                seen.add(e0)
                e = self.successor(e0)
                while e != e0:
                    comp.append(e)
                    seen.add(e)
                    e = self.successor(e)
                comps.append(tuple(comp))
            self._components = tuple(comps)
        return self._components

    def under_edges(self, ci):
        """The two under-strand edges (incoming, outgoing) of crossing ci."""
        cr = self.crossings[ci]
        return cr[0], cr[2]

    # -- smoothings ------------------------------------------------------

    def _slot_tables(self):
        """Tables for walking smoothings, over slot positions p = 4 ci +
        slot: the edge at p; the crossing at the far end of that edge;
        the position that edge's far end is joined to there under the
        0-smoothing (a-b, c-d) and the 1-smoothing (a-d, b-c); and each
        edge's first position.  Built once."""
        if self._slots is None:
            at = [e for cr in self.crossings for e in cr]
            first, far = {}, [0] * len(at)
            for p, e in enumerate(at):
                if e in first:
                    far[p], far[first[e]] = first[e], p
                else:
                    first[e] = p
            self._slots = (at, [p >> 2 for p in far],
                           [p ^ 1 for p in far], [p ^ 3 for p in far], first)
        return self._slots

    def resolve(self, state):
        """Circles of the complete smoothing given by the state bitmask.

        Bit i of ``state`` picks the 1-smoothing at crossing i.  Each
        circle is walked from its least edge along the smoothing's arcs:
        from the slot where the walk leaves an edge's near end, go to its
        far end and on to the slot the smoothing joins there, until the
        walk is back where it started.  Edges are visited in increasing
        order, so the circles come out ordered by least edge.
        """
        if state in self._res_cache:
            return self._res_cache[state]
        at, cross, step0, step1, first = self._slot_tables()
        index = {}
        circles = []
        for e in self.edges:
            if e in index:
                continue
            i = len(circles)
            index[e] = i
            circ = [e]
            start = q = first.get(e)
            while q is not None:
                q = step1[q] if state >> cross[q] & 1 else step0[q]
                if q == start:
                    break
                index[at[q]] = i
                circ.append(at[q])
            circles.append(tuple(sorted(circ)))
        res = Resolution(tuple(circles), index)
        self._res_cache[state] = res
        return res

    def locate(self, state, e):
        """Index of the circle through edge e in the given smoothing."""
        return self.resolve(state).index[e]

    # -- derived diagrams ------------------------------------------------

    def mirror(self):
        """Switch every crossing (over becomes under)."""
        crossings = []
        for (a, b, c, d), s in zip(self.crossings, self.signs):
            crossings.append((d, a, b, c) if s > 0 else (b, c, d, a))
        return LinkDiagram(tuple(crossings),
                           tuple(-s for s in self.signs),
                           self.free_edges)

    def relabeled(self, mapping):
        crossings = tuple(tuple(mapping[e] for e in cr) for cr in self.crossings)
        free = tuple(mapping[e] for e in self.free_edges)
        return LinkDiagram(crossings, self.signs, free)

    def canonical_key(self):
        """A relabeling-invariant key, for comparing diagrams up to edge ids.

        Tries every component order and starting edge, renumbers edges
        along the orientation, and keeps the lexicographically smallest
        signed crossing list.  Fine for the small diagrams in movies; do
        not call this on anything big.
        """
        comps = [c for c in self.components if c[0] not in self.free_edges]
        nfree = len(self.free_edges)
        paired = list(zip(self.crossings, self.signs))
        best = None
        if not comps:
            return ((), nfree)
        for perm in permutations(range(len(comps))):
            ranges = [range(len(comps[i])) for i in perm]
            for starts in product(*ranges):
                mapping = {}
                nxt = 1
                for pos, comp_i in enumerate(perm):
                    comp = comps[comp_i]
                    L = len(comp)
                    for k in range(L):
                        mapping[comp[(starts[pos] + k) % L]] = nxt
                        nxt += 1
                key = tuple(sorted(
                    (mapping[a], mapping[b], mapping[c], mapping[d], s)
                    for (a, b, c, d), s in paired))
                if best is None or key < best:
                    best = key
        return (best, nfree)


def unknot_diagram():
    """The crossingless unknot (one free circle)."""
    return LinkDiagram((), (), (1,))


def faces(diagram):
    """Faces of the underlying 4-valent graph, as dart orbits.

    Darts are (crossing, slot) pairs; the face permutation follows an
    edge to its far end, then turns to the next slot counterclockwise.
    Free circles carry no darts and are ignored here.
    """
    mate = {}
    occs = {}
    for ci, cr in enumerate(diagram.crossings):
        for slot, e in enumerate(cr):
            occs.setdefault(e, []).append((ci, slot))
    for pair in occs.values():
        p, q = pair
        mate[p] = q
        mate[q] = p
    out = []
    seen = set()
    for start in mate:
        if start in seen:
            continue
        face = []
        d = start
        while True:
            face.append(d)
            seen.add(d)
            ci, slot = mate[d]
            d = (ci, (slot + 1) % 4)
            if d == start:
                break
        out.append(tuple(face))
    return out


def is_planar(diagram):
    """Whether the PD code is realizable by a plane diagram.

    Checks Euler's formula V - E + F = 2 on every connected component
    of the crossing graph (E = 2V for 4-valent graphs, so F = V + 2).
    PD codes produced by arbitrary edge surgery can fail this; valid
    movies must not.
    """
    comp_of = {}
    for ci, cr in enumerate(diagram.crossings):
        groups = {comp_of[e] for e in cr if e in comp_of}
        tag = min(groups) if groups else ci
        for e in cr:
            comp_of[e] = tag
        if groups:
            for e, t in list(comp_of.items()):
                if t in groups:
                    comp_of[e] = tag
    counts = {}
    for ci, cr in enumerate(diagram.crossings):
        tag = comp_of[cr[0]]
        counts.setdefault(tag, [0, 0])[0] += 1
    for face in faces(diagram):
        ci0 = face[0][0]
        tag = comp_of[diagram.crossings[ci0][0]]
        counts[tag][1] += 1
    return all(v + 2 == f for v, f in counts.values())


# -- parsing -------------------------------------------------------------

def _tokenize_pd(text):
    i = 0
    n = len(text)
    toks = []
    while i < n:
        ch = text[i]
        if ch.isspace() or ch in ",;":
            i += 1
            continue
        if ch in "[]()":
            toks.append((ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append((int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            toks.append((text[i:j], i))
            i = j
            continue
        raise PDSyntaxError("unexpected character %r" % ch, i)
    return toks


def parse_pd(text):
    """Parse PD notation like ``PD[X[1,4,2,5], X[3,6,4,1], X[5,2,6,3]]``.

    The ``PD[...]`` wrapper is optional and ``X(...)`` parentheses are
    accepted too.  Raises PDSyntaxError with an offset for malformed
    input, PDSyntaxError for a code no plane diagram realizes, and
    OrientationError when no consistent orientation exists.
    """
    toks = _tokenize_pd(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else (None, len(text))

    def take(expected=None):
        nonlocal pos
        tok, at = peek()
        if tok is None:
            raise PDSyntaxError("unexpected end of input", at)
        if expected is not None and tok != expected:
            raise PDSyntaxError("expected %r, found %r" % (expected, tok), at)
        pos += 1
        return tok, at

    tok, _ = peek()
    wrapped = False
    if isinstance(tok, str) and tok.upper() == "PD":
        take()
        take("[")
        wrapped = True

    crossings = []
    while True:
        tok, at = peek()
        if tok is None:
            break
        if wrapped and tok == "]":
            take()
            break
        name, at = take()
        if not (isinstance(name, str) and name.upper() == "X"):
            raise PDSyntaxError("expected a crossing X[a,b,c,d]", at)
        opener, _ = take()
        if opener not in ("[", "("):
            raise PDSyntaxError("expected [ after X", at)
        closer = "]" if opener == "[" else ")"
        quad = []
        for _ in range(4):
            v, vat = take()
            if not isinstance(v, int):
                raise PDSyntaxError("expected an edge id", vat)
            if v <= 0:
                raise PDSyntaxError("edge ids must be positive", vat)
            quad.append(v)
        take(closer)
        crossings.append(tuple(quad))

    tok, at = peek()
    if tok is not None:
        raise PDSyntaxError("trailing input after PD code", at)
    if not crossings:
        raise PDSyntaxError("no crossings found", 0)
    diagram = from_pd(crossings)
    if not is_planar(diagram):
        raise PDSyntaxError("PD code is not planar")
    return diagram


def from_pd(crossings, free_edges=()):
    """Build a LinkDiagram from bare crossing tuples, inferring signs."""
    crossings = tuple(tuple(c) for c in crossings)
    occ = {}
    for ci, cr in enumerate(crossings):
        if len(cr) != 4:
            raise PDSyntaxError("crossing %d does not have 4 edges" % ci)
        for slot, e in enumerate(cr):
            occ.setdefault(e, []).append((ci, slot))
    for e, places in occ.items():
        if len(places) != 2:
            raise PDSyntaxError(
                "edge %d appears %d times, expected 2" % (e, len(places)))
    signs = _solve_orientation(crossings, occ)
    return LinkDiagram(crossings, signs, tuple(free_edges))


def _solve_orientation(crossings, occ):
    """Head/tail assignment for every occurrence, returned as signs.

    assign[(ci, slot)] is True when the edge there points into the
    crossing.  Under-strand slots are forced (0 in, 2 out); the rest is
    constraint propagation: each edge has one head and one tail, each
    crossing has exactly one incoming over-strand.
    """
    assign = {}
    queue = []

    def put(place, value):
        if place in assign:
            if assign[place] != value:
                raise OrientationError(
                    "inconsistent orientation at crossing %d" % place[0])
            return
        assign[place] = value
        queue.append(place)

    for ci in range(len(crossings)):
        put((ci, 0), True)
        put((ci, 2), False)

    def propagate():
        while queue:
            ci, slot = queue.pop()
            val = assign[(ci, slot)]
            e = crossings[ci][slot]
            for other in occ[e]:
                if other != (ci, slot):
                    put(other, not val)
            if slot in (1, 3):
                partner = (ci, 4 - slot)
                put(partner, not val)

    propagate()

    # Components passing only over have no constraints yet; orient them by
    # the numbering, then keep propagating.
    while True:
        missing = [ci for ci in range(len(crossings)) if (ci, 1) not in assign]
        if not missing:
            break
        ci = missing[0]
        cycle = _over_cycle(crossings, occ, ci)
        _orient_over_cycle(cycle, put)
        propagate()

    signs = []
    for ci in range(len(crossings)):
        signs.append(1 if assign[(ci, 3)] else -1)
    return tuple(signs)


def _over_cycle(crossings, occ, ci0):
    """Cyclic list of (edge, head_place) pairs for the over-only strand
    through crossing ci0, traversed in an arbitrary direction."""
    start = (ci0, 1)
    cycle = []
    place = start
    while True:
        ci, slot = place
        e = crossings[ci][slot]
        cycle.append((e, place))
        other = [p for p in occ[e] if p != place][0]
        place = (other[0], 4 - other[1])
        if place == start:
            break
    return cycle


def _orient_over_cycle(cycle, put):
    """Pick a direction for an over-only component.

    The traversal direction of ``cycle`` pairs each edge with the place
    that becomes its head if we keep that direction.  Prefer whichever
    direction makes edge ids ascend more often; break ties by pointing
    the least edge into slot d (3) when possible, else by lower crossing
    index of its head.
    """
    edges = [e for e, _ in cycle]
    m = len(edges)
    fwd = sum(1 for i in range(m) if edges[(i + 1) % m] > edges[i])
    bwd = sum(1 for i in range(m) if edges[(i + 1) % m] < edges[i])

    # cycle[i] records where edge i is entered when traversing forward,
    # i.e. its head for that direction.  Reversing the direction moves the
    # head of e to the partner slot of the previous edge's entry point.
    fwd_heads = {e: place for e, place in cycle}
    bwd_heads = {}
    for i in range(m):
        e = cycle[i][0]
        prev_place = cycle[(i - 1) % m][1]
        bwd_heads[e] = (prev_place[0], 4 - prev_place[1])

    if fwd > bwd:
        chosen = fwd_heads
    elif bwd > fwd:
        chosen = bwd_heads
    else:
        e_min = min(edges)
        f, b = fwd_heads[e_min], bwd_heads[e_min]
        if (f[1] == 3) == (b[1] == 3):
            chosen = fwd_heads if f[0] <= b[0] else bwd_heads
        else:
            chosen = fwd_heads if f[1] == 3 else bwd_heads

    for e, place in chosen.items():
        put(place, True)
