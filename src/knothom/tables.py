"""Programmatic PD codes for small knots, plus the bundled-table loader.

Two constructions cover every prime knot through 8 crossings:

* rational (2-bridge) knots from a positive twist vector, built with a
  small unoriented-tangle sewing kit and closed at the top and bottom;
* closed braids for the torus and polyhedral entries.

Montesinos sums of rational tangles handle the pretzel-like 8-crossing
knots.  The construction only fixes the diagram; identification is by
determinant (and, for the handful of determinant ties, Jones values
computed by the bracket oracle), which scripts/make_table.py checks
before freezing data/knots.tsv.
"""

import os

from .diagram import parse_pd

TABLE_ENV = "KNOTHOM_TABLE"


# -- unoriented tangle sewing kit ----------------------------------------

class Tangle:
    """A 4-ended unoriented tangle under construction.

    Crossing ends are ("c", ci, slot); corner posts are ("k", serial).
    ``links`` pairs ends/posts into arcs; corner posts end up with two
    links once both sides are sewn.  Slots are counterclockwise with the
    understrand on slots 0-2, matching the PD convention downstream.
    """

    _serial = [0]

    def __init__(self, start="0"):
        self.n = 0
        self.links = {}
        self.corners = {}
        for c in ("NW", "NE", "SW", "SE"):
            post = ("k", Tangle._serial[0])
            Tangle._serial[0] += 1
            self.corners[c] = post
            self.links[post] = []
        if start == "0":
            # two horizontal wires; ready for a horizontal twist run
            self._link(self.corners["NW"], self.corners["NE"])
            self._link(self.corners["SW"], self.corners["SE"])
        else:
            # the infinity tangle: two vertical wires, so a vertical
            # twist really does cross the two strands
            assert start == "inf"
            self._link(self.corners["NW"], self.corners["SW"])
            self._link(self.corners["NE"], self.corners["SE"])

    def _link(self, a, b):
        self.links.setdefault(a, []).append(b)
        self.links.setdefault(b, []).append(a)

    def _unlink_corner(self, corner):
        """Detach the arc end currently sitting at a corner post and
        return the post (ready to be re-linked)."""
        post = self.corners[corner]
        assert len(self.links[post]) == 1, "corner %s already sewn" % corner
        return post

    def _new_crossing(self, handed):
        """Append a crossing; return its four ends keyed by geometric
        leg (NW, SW, SE, NE legs in counterclockwise order).  ``handed``
        picks which diagonal is the understrand: 0 puts slots 0-2 on
        NW-SE, 1 puts them on SW-NE."""
        ci = self.n
        self.n += 1
        order = ("NW", "SW", "SE", "NE")
        legs = {}
        for k, leg in enumerate(order):
            slot = (k + handed) % 4
            legs[leg] = ("c", ci, slot)
        for end in legs.values():
            self.links.setdefault(end, [])
        return legs

    def h_twist(self, handed):
        """Sew one crossing onto the east side."""
        legs = self._new_crossing(handed)
        self._link(self._unlink_corner("NE"), legs["NW"])
        self._link(self._unlink_corner("SE"), legs["SW"])
        ne, se = ("k", Tangle._serial[0]), ("k", Tangle._serial[0] + 1)
        Tangle._serial[0] += 2
        self.links[ne] = []
        self.links[se] = []
        self._link(legs["NE"], ne)
        self._link(legs["SE"], se)
        self.corners["NE"] = ne
        self.corners["SE"] = se

    def v_twist(self, handed):
        """Sew one crossing onto the south side."""
        legs = self._new_crossing(handed)
        self._link(self._unlink_corner("SW"), legs["NW"])
        self._link(self._unlink_corner("SE"), legs["NE"])
        sw, se = ("k", Tangle._serial[0]), ("k", Tangle._serial[0] + 1)
        Tangle._serial[0] += 2
        self.links[sw] = []
        self.links[se] = []
        self._link(legs["SW"], sw)
        self._link(legs["SE"], se)
        self.corners["SW"] = sw
        self.corners["SE"] = se

    def add_east(self, other):
        """Tangle sum: sew ``other`` onto the east side."""
        off = self.n
        remap = {}

        def m(node):
            if node[0] == "c":
                return ("c", node[1] + off, node[2])
            return node

        for a, bs in other.links.items():
            self.links.setdefault(m(a), []).extend(m(b) for b in bs)
        self.n += other.n
        _ = remap
        self._link(self._unlink_corner("NE"),
                   other._unlink_corner_external(self, "NW"))
        self._link(self._unlink_corner("SE"),
                   other._unlink_corner_external(self, "SW"))
        self.corners["NE"] = m(other.corners["NE"])
        self.corners["SE"] = m(other.corners["SE"])

    def _unlink_corner_external(self, host, corner):
        """Corner post of a summand после merging into ``host``."""
        post = self.corners[corner]
        assert len(host.links[post]) == 1
        return post

    def closure_pd(self, kind="N"):
        """Close off and return oriented PD text.  ``N`` joins top to top
        and bottom to bottom; ``D`` joins left to left and right to
        right (for tangles whose final twist run is vertical)."""
        if kind == "N":
            self._link(self._unlink_corner("NW"), self._unlink_corner("NE"))
            self._link(self._unlink_corner("SW"), self._unlink_corner("SE"))
        else:
            self._link(self._unlink_corner("NW"), self._unlink_corner("SW"))
            self._link(self._unlink_corner("NE"), self._unlink_corner("SE"))
        return _orient(self.n, self.links)


def _follow(links, start_end):
    """From a crossing end, walk through corner posts to the partner
    crossing end of the same arc."""
    prev, cur = start_end, links[start_end][0]
    while cur[0] != "c":
        nxts = [x for x in links[cur] if x != prev]
        if not nxts:       # dead end should not happen on closed tangles
            raise AssertionError("open arc at %s" % (cur,))
        prev, cur = cur, nxts[0]
    return cur


def _orient(n, links):
    """Orient a sewn-up diagram and emit PD text.

    Traversal: enter a crossing at a slot, leave at the opposite slot,
    follow the arc to the next crossing.  Arcs get edge ids in traversal
    order; each crossing tuple is rotated so the incoming understrand
    sits first.
    """
    heads = {}     # (ci, slot) -> edge id entering here
    tails = {}
    next_id = [1]
    entered = set()
    for ci0 in range(n):
        for s0 in range(4):
            if (ci0, s0) in entered or (ci0, s0) in tails:
                continue
            # start a new component: the strand leaves (ci0, s0)
            cur_out = ("c", ci0, s0)
            while True:
                eid = next_id[0]
                next_id[0] += 1
                tails[cur_out[1:]] = eid
                nxt = _follow(links, cur_out)
                heads[nxt[1:]] = eid
                entered.add(nxt[1:])
                out_slot = (nxt[2] + 2) % 4
                cur_out = ("c", nxt[1], out_slot)
                if cur_out[1:] in tails:
                    break
            assert cur_out[1:] == (ci0, s0), "component did not close up"
    toks = []
    for ci in range(n):
        occ = {}
        for s in range(4):
            if (ci, s) in heads:
                occ[s] = ("in", heads[(ci, s)])
            else:
                occ[s] = ("out", tails[(ci, s)])
        rot = 0 if occ[0][0] == "in" else 2
        assert occ[rot][0] == "in" and occ[(rot + 2) % 4][0] == "out"
        abcd = [occ[(rot + k) % 4][1] for k in range(4)]
        toks.append("X[%d,%d,%d,%d]" % tuple(abcd))
    return "PD[" + ",".join(toks) + "]"


def rational_tangle(vec, h_handed=0, v_handed=0, h_first=True):
    """Twist-vector tangle: alternating runs of horizontal and vertical
    twists (horizontal first by default)."""
    t = Tangle("0" if h_first else "inf")
    horizontal = h_first
    for a in vec:
        for _ in range(abs(a)):
            if horizontal:
                t.h_twist(h_handed if a > 0 else 1 - h_handed)
            else:
                t.v_twist(v_handed if a > 0 else 1 - v_handed)
        horizontal = not horizontal
    return t


def rational_pd(vec, h_handed=0, v_handed=0):
    # an even-length vector ends on a vertical run, which closes left/right
    kind = "N" if len(vec) % 2 == 1 else "D"
    return rational_tangle(vec, h_handed, v_handed).closure_pd(kind)


def montesinos_pd(branches, v_handed=0):
    """Numerator closure of a west-to-east sum of branches; a plain
    integer n means a stack of n vertical twists (negative n for the
    mirrored stack), a list is a twist-vector rational tangle."""
    total = None
    for b in branches:
        if isinstance(b, int):
            t = Tangle("inf")
            for _ in range(abs(b)):
                t.v_twist(v_handed if b > 0 else 1 - v_handed)
        else:
            t = rational_tangle(b)
        if total is None:
            total = t
        else:
            total.add_east(t)
    return total.closure_pd("N")


# -- braid closures ------------------------------------------------------

def braid_pd(word, strands):
    """PD text of the closure of a braid word (letters ±1..±(strands-1),
    all strands oriented downward; positive letter crosses the left
    strand over the right)."""
    if strands < 2:
        raise ValueError("a braid needs at least two strands")
    if set(abs(w) for w in word) != set(range(1, strands)):
        raise ValueError("every braid position must be crossed, else free "
                         "circles appear")
    cur = list(range(1, strands + 1))
    start = list(cur)
    nxt = strands + 1
    crossings = []
    for w in word:
        i = abs(w) - 1
        in_left, in_right = cur[i], cur[i + 1]
        out_left, out_right = nxt, nxt + 1
        nxt += 2
        if w > 0:
            crossings.append([in_right, out_right, out_left, in_left])
        else:
            crossings.append([in_left, in_right, out_right, out_left])
        cur[i], cur[i + 1] = out_left, out_right
    # close up: final position edges are the starting ones
    rename = {cur[i]: start[i] for i in range(strands)}
    out = []
    for cr in crossings:
        out.append("X[%s]" % ",".join(str(rename.get(e, e)) for e in cr))
    return "PD[" + ",".join(out) + "]"


def braid_components(word, strands):
    perm = list(range(strands))
    for w in word:
        i = abs(w) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = set()
    comps = 0
    for s in range(strands):
        if s in seen:
            continue
        comps += 1
        j = s
        while j not in seen:
            seen.add(j)
            j = perm[j]
    return comps


# -- the knot registry ---------------------------------------------------

# Twist vectors: the standard positive continued-fraction forms; the
# vector sum is the crossing number and the fraction numerator is the
# determinant, both asserted by scripts/make_table.py.
RATIONAL = {
    "3_1": [3],
    "4_1": [2, 2],
    "5_1": [5],
    "5_2": [3, 2],
    "6_1": [4, 2],
    "6_2": [3, 1, 2],
    "6_3": [2, 1, 1, 2],
    "7_1": [7],
    "7_2": [5, 2],
    "7_3": [4, 3],
    "7_4": [3, 1, 3],
    "7_5": [3, 2, 2],
    "7_6": [2, 2, 1, 2],
    "7_7": [2, 1, 1, 1, 2],
    "8_1": [6, 2],
    "8_2": [5, 1, 2],
    "8_3": [4, 4],
    "8_4": [4, 1, 3],
    "8_6": [3, 3, 2],
    "8_7": [4, 1, 1, 2],
    "8_8": [2, 3, 1, 2],
    "8_9": [3, 1, 1, 3],
    "8_11": [3, 2, 1, 2],
    "8_12": [2, 2, 2, 2],
    "8_13": [3, 1, 1, 1, 2],
    "8_14": [2, 2, 1, 1, 2],
}

MONTESINOS = {
    "8_5": (3, 3, 2),
    "8_15": ([2, 1], [2, 1], 2),
    "8_19": (3, 3, -2),
}

BRAID = {
    "8_10": ([1, 1, 1, -2, 1, 1, -2, -2], 3),
    "8_16": ([1, 1, -2, 1, 1, -2, 1, -2], 3),
    "8_17": ([1, 1, -2, 1, -2, 1, -2, -2], 3),
    "8_18": ([1, -2, 1, -2, 1, -2, 1, -2], 3),
    "8_20": ([1, 1, 1, 2, -1, -1, -1, 2], 3),
    "8_21": ([1, 1, 1, 2, -1, -1, 2, 2], 3),
}

# Determinants of the prime knots through 8 crossings, used to identify
# the constructions (ties broken by Jones values in make_table).
DETERMINANTS = {
    "3_1": 3, "4_1": 5, "5_1": 5, "5_2": 7, "6_1": 9, "6_2": 11,
    "6_3": 13, "7_1": 7, "7_2": 11, "7_3": 13, "7_4": 15, "7_5": 17,
    "7_6": 19, "7_7": 21, "8_1": 13, "8_2": 17, "8_3": 17, "8_4": 19,
    "8_5": 21, "8_6": 23, "8_7": 23, "8_8": 25, "8_9": 25, "8_10": 27,
    "8_11": 27, "8_12": 29, "8_13": 29, "8_14": 31, "8_15": 33,
    "8_16": 35, "8_17": 37, "8_18": 45, "8_19": 3, "8_20": 9, "8_21": 15,
}

CROSSINGS = {name: int(name.split("_")[0]) for name in DETERMINANTS}


def knot_names():
    def key(name):
        a, b = name.split("_")
        return (int(a), int(b))
    return sorted(DETERMINANTS, key=key)


def build_pd(name):
    """Construct the PD text for a bundled knot name."""
    if name in RATIONAL:
        return rational_pd(RATIONAL[name])
    if name in MONTESINOS:
        return montesinos_pd(MONTESINOS[name])
    if name in BRAID:
        word, strands = BRAID[name]
        return braid_pd(word, strands)
    raise KeyError("unknown knot name %r" % name)


def build_table():
    return {name: build_pd(name) for name in knot_names()}


# -- bundled table loader ------------------------------------------------

def default_table_path():
    env = os.environ.get(TABLE_ENV)
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "data", "knots.tsv")


def load_table(path=None):
    """name -> LinkDiagram from a TSV knot table."""
    if path is None:
        path = default_table_path()
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, pdtext = line.partition("\t")
            if not pdtext:
                raise ValueError("bad table record %r" % line)
            out[name] = parse_pd(pdtext)
    return out
