#!/usr/bin/env python3
"""Generate src/knothom/data/knots.tsv, the bundled knot table, and audit it.

The package only reads the frozen table; this script is the one place
that knows how it was made.  It builds a PD code for every prime knot
through 8 crossings in one of three ways:

  * 2-bridge knots: a twist vector sewn into a rational tangle with a
    small unoriented-tangle kit, then closed off;
  * 8_5, 8_15 and 8_19: a three-branch Montesinos sum of such tangles;
  * the rest: braid closures (``knothom.tables.braid_pd``).

Before writing, it checks that each diagram is the knot its name says:

  * the determinant matches the catalog value;
  * the twist-vector fractions, and the branch-fraction formula for the
    Montesinos sums, reproduce the determinants;
  * no entry has the Jones polynomial of a connected sum that fits in
    8 crossings (those are the only composite aliases possible here);
  * the Jones polynomials are pairwise distinct mod mirror, so the 35
    entries are 35 different knots;
  * V(t) = V(1/t) for the seven amphichiral names and for no others.

Determinant ties among primes are settled by construction (2-bridge
knots are classified by their fraction) or by the Jones checks.  The
table promises each knot only up to mirror image.

Usage: python3 scripts/make_table.py [-o OUTPUT] [--print-jones]
"""

import argparse
from fractions import Fraction
import itertools
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from knothom.diagram import parse_pd
from knothom.jones import determinant, jones_polynomial, poly_str
from knothom.tables import braid_pd


# -- unoriented tangle sewing kit ----------------------------------------

class Tangle:
    """A 4-ended unoriented tangle under construction.

    Crossing ends are ("c", ci, slot); corner posts are ("k", serial).
    ``links`` pairs ends/posts into arcs; corner posts end up with two
    links once both sides are sewn.  Slots are counterclockwise with the
    understrand on slots 0-2, matching the PD convention downstream.
    """

    _serial = itertools.count()

    def __init__(self, start="0"):
        self.n = 0
        self.links = {}
        self.corners = {c: ("k", next(Tangle._serial))
                        for c in ("NW", "NE", "SW", "SE")}
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

    def _open_corner(self, corner):
        """The post at a corner, which must hold one arc end so far."""
        post = self.corners[corner]
        assert len(self.links[post]) == 1, "corner %s already sewn" % corner
        return post

    def _twist(self, handed, joins):
        """Sew on one crossing.  ``joins`` pairs each corner it covers
        with the crossing leg sewn to it; that corner then moves to the
        crossing's leg of the same name.  Legs are NW, SW, SE, NE in
        counterclockwise order; ``handed`` 0 puts the understrand slots
        0-2 on NW-SE, 1 puts them on SW-NE."""
        ci = self.n
        self.n += 1
        legs = {leg: ("c", ci, (k + handed) % 4)
                for k, leg in enumerate(("NW", "SW", "SE", "NE"))}
        for corner, leg in joins:
            self._link(self._open_corner(corner), legs[leg])
            self.corners[corner] = ("k", next(Tangle._serial))
            self._link(legs[corner], self.corners[corner])

    def h_twist(self, handed):
        """Sew one crossing onto the east side."""
        self._twist(handed, (("NE", "NW"), ("SE", "SW")))

    def v_twist(self, handed):
        """Sew one crossing onto the south side."""
        self._twist(handed, (("SW", "NW"), ("SE", "NE")))

    def add_east(self, other):
        """Tangle sum: sew ``other`` onto the east side."""
        off = self.n

        def m(node):
            if node[0] == "c":
                return ("c", node[1] + off, node[2])
            return node

        for a, bs in other.links.items():
            self.links.setdefault(m(a), []).extend(m(b) for b in bs)
        self.n += other.n
        self._link(self._open_corner("NE"), other.corners["NW"])
        self._link(self._open_corner("SE"), other.corners["SW"])
        self.corners["NE"] = other.corners["NE"]
        self.corners["SE"] = other.corners["SE"]

    def closure_pd(self, kind="N"):
        """Close off and return oriented PD text.  ``N`` joins top to top
        and bottom to bottom; ``D`` joins left to left and right to
        right (for tangles whose final twist run is vertical)."""
        if kind == "N":
            self._link(self._open_corner("NW"), self._open_corner("NE"))
            self._link(self._open_corner("SW"), self._open_corner("SE"))
        else:
            self._link(self._open_corner("NW"), self._open_corner("SW"))
            self._link(self._open_corner("NE"), self._open_corner("SE"))
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
    next_id = 1
    for ci0 in range(n):
        for s0 in range(4):
            if (ci0, s0) in heads or (ci0, s0) in tails:
                continue
            # start a new component: the strand leaves (ci0, s0)
            cur_out = ("c", ci0, s0)
            while True:
                tails[cur_out[1:]] = next_id
                nxt = _follow(links, cur_out)
                heads[nxt[1:]] = next_id
                next_id += 1
                cur_out = ("c", nxt[1], (nxt[2] + 2) % 4)
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


def rational_tangle(vec):
    """Twist-vector tangle: alternating runs of horizontal and vertical
    twists, horizontal first."""
    t = Tangle("0")
    for k, a in enumerate(vec):
        twist = t.h_twist if k % 2 == 0 else t.v_twist
        for _ in range(abs(a)):
            twist(0 if a > 0 else 1)
    return t


def rational_pd(vec):
    # an even-length vector ends on a vertical run, which closes left/right
    kind = "N" if len(vec) % 2 == 1 else "D"
    return rational_tangle(vec).closure_pd(kind)


def montesinos_pd(branches):
    """Numerator closure of a west-to-east sum of branches; a plain
    integer n means a stack of n vertical twists (negative n for the
    mirrored stack), a list is a twist-vector rational tangle."""
    total = None
    for b in branches:
        if isinstance(b, int):
            t = Tangle("inf")
            for _ in range(abs(b)):
                t.v_twist(0 if b > 0 else 1)
        else:
            t = rational_tangle(b)
        if total is None:
            total = t
        else:
            total.add_east(t)
    return total.closure_pd("N")


# -- the knot registry ---------------------------------------------------

# Twist vectors: the standard positive continued-fraction forms; the
# vector sum is the crossing number and the fraction numerator is the
# determinant, both checked by the audit below.
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
# the constructions (ties broken by the Jones checks).
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


# -- identification audit ------------------------------------------------

# The only connected sums that fit in 8 crossings: crossing number is
# additive under connected sum, so summands come from the 3-to-5
# crossing range.  Dets multiply, Jones multiplies.
COMPOSITES = [
    ("3_1", "3_1"),
    ("3_1", "4_1"),
    ("3_1", "5_1"),
    ("3_1", "5_2"),
    ("4_1", "4_1"),
]

AMPHICHIRAL = {"4_1", "6_3", "8_3", "8_9", "8_12", "8_17", "8_18"}


def mirror_poly(v):
    return {-k: c for k, c in v.items()}


def canon(v):
    a = tuple(sorted(v.items()))
    b = tuple(sorted(mirror_poly(v).items()))
    return min(a, b)


def poly_mul(u, v):
    out = {}
    for ku, cu in u.items():
        for kv, cv in v.items():
            k = ku + kv
            out[k] = out.get(k, 0) + cu * cv
            if out[k] == 0:
                del out[k]
    return out


def vector_fraction(vec):
    """Continued fraction of a twist vector; numerator = determinant."""
    f = Fraction(vec[0])
    for a in vec[1:]:
        f = a + 1 / f
    return f


def branch_fraction(b):
    # integer n = a stack of n vertical half twists = fraction 1/n;
    # a vector branch is the corresponding rational tangle.
    if isinstance(b, int):
        return Fraction(1, b)
    return 1 / vector_fraction(b)


def montesinos_det(branches):
    fracs = [branch_fraction(b) for b in branches]
    total = sum(fracs)
    for f in fracs:
        total *= f.denominator
    assert total.denominator == 1
    return abs(int(total))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_out = os.path.join(os.path.dirname(__file__), "..", "src",
                               "knothom", "data", "knots.tsv")
    ap.add_argument("-o", "--output", default=default_out)
    ap.add_argument("--print-jones", action="store_true",
                    help="also print each Jones polynomial")
    args = ap.parse_args()

    names = knot_names()
    table = {}
    jones = {}
    failures = 0

    for name in names:
        pd = build_pd(name)
        dia = parse_pd(pd)
        det = determinant(dia)
        v = jones_polynomial(dia)
        table[name] = pd
        jones[name] = v
        probs = []
        if det != DETERMINANTS[name]:
            probs.append("det %d != %d" % (det, DETERMINANTS[name]))
        if len(dia.components) != 1:
            probs.append("%d components" % len(dia.components))
        if len(dia.crossings) != CROSSINGS[name]:
            probs.append("%d crossings, wanted %d"
                         % (len(dia.crossings), CROSSINGS[name]))
        if name in RATIONAL:
            frac = vector_fraction(RATIONAL[name])
            if frac.numerator != DETERMINANTS[name]:
                probs.append("fraction %s" % frac)
        if name in MONTESINOS:
            md = montesinos_det(MONTESINOS[name])
            if md != DETERMINANTS[name]:
                probs.append("branch det %d" % md)
        if name in BRAID:
            word, _ = BRAID[name]
            if len(word) != CROSSINGS[name]:
                probs.append("braid length %d" % len(word))
        sym = v == mirror_poly(v)
        if sym != (name in AMPHICHIRAL):
            probs.append("chirality: V mirror-symmetric=%s" % sym)
        status = "ok" if not probs else "FAIL " + "; ".join(probs)
        failures += bool(probs)
        print("%-5s det=%-3d %s" % (name, det, status))
        if args.print_jones:
            print("      V = %s" % poly_str(v))

    # Composite aliases: entries identified by elimination (the tangle
    # sums and braid closures) must not carry the Jones polynomial of a
    # connected sum that fits in 8 crossings.  2-bridge entries are
    # prime by classification, which matters: V(8_9) really does equal
    # V(4_1)^2, a standard example of Jones not seeing primeness.
    comp_polys = []
    for a, b in COMPOSITES:
        for va in (jones[a], mirror_poly(jones[a])):
            for vb in (jones[b], mirror_poly(jones[b])):
                comp_polys.append((a + "#" + b, canon(poly_mul(va, vb))))
    assert canon(jones["8_9"]) == canon(poly_mul(jones["4_1"], jones["4_1"]))
    for name in names:
        if name in RATIONAL:
            continue
        for label, cp in comp_polys:
            if canon(jones[name]) == cp:
                print("FAIL %s matches composite %s" % (name, label))
                failures += 1

    # pairwise distinctness mod mirror
    seen = {}
    for name in names:
        key = canon(jones[name])
        if key in seen:
            print("FAIL %s and %s share a Jones polynomial"
                  % (seen[key], name))
            failures += 1
        seen[key] = name

    if failures:
        print("%d failures; table not written" % failures)
        return 1

    out = os.path.abspath(args.output)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        fh.write("# prime knots through 8 crossings, name <TAB> PD, "
                 "each up to mirror\n")
        for name in names:
            fh.write("%s\t%s\n" % (name, table[name]))
    print("wrote %d knots to %s" % (len(names), out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
