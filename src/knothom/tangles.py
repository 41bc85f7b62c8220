"""A small complex for a homology summary, by scanning the diagram one
crossing at a time instead of building its cube.

This is Bar-Natan's local algorithm (*Fast Khovanov homology
computations*, JKTR 16 (2007), arXiv:math/0606318), run over any
rank-two Frobenius theory (R, s, p) through its neck-cutting relation
(Khovanov, *Link homology and Frobenius extensions*, Fund. Math. 190
(2006)).  ``scan_complex(diagram, theory)`` returns a ``ChainComplex``
over ``theory.ring`` that is homotopy equivalent to the cube complex of
``build_complex``, so ``homology`` gives both the same summary; the
cube stays the engine for chain maps, ``HomologyData`` and movies.

The scan keeps a complex over the tangle of the crossings placed so far.
Its boundary is the set of edges that occur once among them.

* **Order.**  Crossing 0 comes first; then, each time, the unplaced
  crossing that shares the most edges with the boundary, ties to the
  lowest index.
* **Objects.**  An object is a crossingless matching of the boundary
  edges with a quantum degree q and a homological degree r.  Placing a
  crossing X[a, b, c, d] tensors each object with its two smoothings:
  the 0-smoothing joins slots a-b and c-d, the 1-smoothing joins a-d
  and b-c and adds 1 to q and r.  Gluing can close loops.  Each loop is
  delooped at once into two copies, label 1 with q + 1 and label X with
  q - 1; free edges are delooped at the start.  A kink edge, one that
  sits in two slots of the same crossing, is glued like any other.
* **Morphisms.**  A morphism M -> M' is a sparse map {dot mask:
  coefficient} with one bit per cycle of M u M', the cycles taken in
  order of least edge: the sum of coefficient times the surface made of
  one disc per cycle, dotted where the bit is set.  The identity is
  {0: 1}.
* **Gluing.**  Composition, extension by the identity on a smoothing,
  and the saddle all glue discs, strips and saddles into components.  A
  component of Euler characteristic chi, with k boundary cycles and d
  dots, has genus g = (2 - k - chi)/2 and evaluates to
  Delta^(k)(X^d (2X - s)^g), read as dotted and plain discs on its
  cycles; with k = 0 it is the scalar eps(X^d (2X - s)^g).  Delooping a
  loop caps it on the source side by a cup, dotted for label X, and on
  the target side by a cap: a plain disc for label X, a dotted disc
  minus s times a plain one for label 1.  These use {X - s, 1}, the
  dual basis of {1, X} under eps.
* **Differential.**  On each smoothing, the old differential extended by
  the identity; from the 0- to the 1-smoothing, the saddle, times
  (-1)^r of the old object when the characteristic is not 2.
* **Cancellation.**  After each crossing, every entry u*id is
  cancelled: the same matching, dot mask 0 only, u a unit, and the same
  q when the theory is graded.  Cancelling x -> y fills in
  d(w -> z) -= u^-1 d(x -> z) o d(w -> y) for every other w into y and
  z out of x; the morphisms are composed by gluing, since they do not
  commute.
* **End.**  Once the boundary is empty every entry is a scalar.  The
  result shifts r by -n_minus and q by n_plus - 2 n_minus, as the cube
  does.
* **Caches.**  Those keyed on matching ids live for one step, since a
  matching lies on one boundary: the cycles of two matchings, the
  smoothings, and the composition and extension plans.  Those keyed on
  surfaces alone live for the whole scan: ``glue`` by its arguments,
  ``value`` by plan and dot mask, and the unit extensions by extension
  plan and dot mask.
* **Sharing.**  Where no coefficient changes it, ``compose`` hands back
  a kept value or one of its arguments, and ``extend`` a kept unit
  extension, instead of a copy.  So the morphisms stored in the complex
  are shared values that nothing changes in place, the rule ``rings``
  sets for payloads: a fill-in writes its sum into a new dict.
"""

from heapq import heapify, heappop, heappush

from .complexes import ChainComplex, axpy

# the arcs of each smoothing, as pairs of slots
_ARCS = (((0, 1), (2, 3)), ((0, 3), (1, 2)))


def scan_complex(diagram, theory):
    """A small complex over ``theory.ring``, homotopy equivalent to
    ``build_complex(diagram, theory)``; see the module docstring."""
    return _Scan(theory).run(diagram)


def _crossing_order(diagram):
    """Crossing 0, then repeatedly the unplaced crossing that shares the
    most edges with the boundary of those placed, ties to the lowest
    index."""
    crossings = diagram.crossings
    order, boundary = [], set()
    unplaced = list(range(len(crossings)))
    while unplaced:
        ci = max(unplaced, key=lambda c: (len(boundary.intersection(
            crossings[c])), -c))
        unplaced.remove(ci)
        order.append(ci)
        # a kink edge stays in this set, but no other crossing has it
        boundary.symmetric_difference_update(crossings[ci])
    return order


class _Scan:
    """One scan: the matchings it has met, cached gluings, and the
    current complex as ``objs`` {id: (matching, q, r)}, ``out`` {id:
    {target: morphism}} and ``inn`` {id: set of sources}.

    ``_cycles``, ``_smoothings``, ``_compositions`` and ``_extensions``
    are keyed on matching ids and live for one step (``add_crossing``).
    ``_glued``, ``_values``, ``_surfaces`` and ``_unit_extensions`` are
    keyed on surfaces and serve the whole scan.  Stored morphisms may be
    kept values, so nothing changes one in place."""

    def __init__(self, theory):
        self.theory = theory
        self.ring = R = theory.ring
        self.minus_s = R.neg(theory.s)
        self.partners = []      # matching id -> {point: partner point}
        self.matching_ids = {}  # sorted tuple of pairs -> matching id
        self._glued, self._values, self._surfaces = {}, {}, {}
        self._unit_extensions = {}
        # per crossing: its record and the caches keyed on its matchings
        self.step = None
        self._cycles, self._first_new = {}, 0
        self._compositions = self._smoothings = self._extensions = None

    # -- matchings and their cycles ----------------------------------

    def matching(self, pairs):
        """The id of the matching with these pairs of points."""
        key = tuple(sorted((a, b) if a < b else (b, a) for a, b in pairs))
        mid = self.matching_ids.get(key)
        if mid is None:
            partner = {}
            for a, b in key:
                partner[a] = b
                partner[b] = a
            mid = self.matching_ids[key] = len(self.partners)
            self.partners.append(partner)
        return mid

    def cycles(self, m1, m2):
        """(index, firsts) for the cycles of m1 u m2: the cycle of each
        point, cycles numbered by least point, and that least point."""
        hit = self._cycles.get((m1, m2))
        if hit is None:
            p1, p2 = self.partners[m1], self.partners[m2]
            index, firsts = {}, []
            for p in sorted(p1):
                if p in index:
                    continue
                c = len(firsts)
                firsts.append(p)
                q = p
                while True:
                    index[q] = c
                    q = p1[q]
                    index[q] = c
                    q = p2[q]
                    if q == p:
                        break
            hit = self._cycles[(m1, m2)] = (index, firsts)
        return hit

    # -- surfaces -------------------------------------------------------

    def glue(self, npieces, seams, discs, outs):
        """Plan of a surface glued from ``npieces`` discs: each of
        ``seams`` joins two pieces along an interval, each of ``discs``
        along a circle, and boundary cycle j lies on piece outs[j].
        The plan is a tuple of (piece mask, boundary cycles, genus), one
        per component by least piece, cycles ascending; equal surfaces
        get equal plans, so a plan is its own cache key.  Kept for the
        scan, so equal arguments get the same plan; a failure is not
        kept."""
        key = (npieces, tuple(seams), tuple(discs), tuple(outs))
        hit = self._glued.get(key)
        if hit is not None:
            return hit
        parent = list(range(npieces))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a
        for a, b in seams + discs:
            parent[find(a)] = find(b)
        comps = {}
        for p in range(npieces):
            comps.setdefault(find(p), [0, 0, []])[0] |= 1 << p
        for a, _ in seams:
            comps[find(a)][1] += 1
        for j, p in enumerate(outs):
            comps[find(p)][2].append(j)
        plan = []
        for pieces, nseams, cycles in comps.values():
            twice_genus = 2 - len(cycles) - (pieces.bit_count() - nseams)
            if twice_genus < 0 or twice_genus % 2:
                raise ValueError("glued surface has no genus")
            plan.append((pieces, tuple(cycles), twice_genus // 2))
        hit = self._glued[key] = tuple(plan)
        return hit

    def surface(self, k, d, g):
        """Delta^(k)(X^d (2X - s)^g) as [(mask of dotted cycles, coeff)],
        or [(0, eps of it)] when k = 0."""
        key = (k, d, g)
        hit = self._surfaces.get(key)
        if hit is None:
            T, R = self.theory, self.ring
            a = T.unit()
            for elem, n in ((T.x_elt(), d),
                            (T.decoration_element("star"), g)):
                for _ in range(n):
                    a = T.mul(a, elem)
            if k == 0:
                terms = {0: T.counit(a)}
            else:
                terms = {0: a[0], 1: a[1]}
                for j in range(1, k):
                    split = {}
                    for bits, c in terms.items():
                        last = bits >> (j - 1) & 1
                        rest = bits ^ (last << (j - 1))
                        for (l1, l2), v in T.comul_basis(last).items():
                            nb = rest | l1 << (j - 1) | l2 << j
                            split[nb] = R.add(split.get(nb, R.zero),
                                              R.mul(c, v))
                    terms = split
            hit = self._surfaces[key] = [(b, c) for b, c in terms.items()
                                         if not R.is_zero(c)]
        return hit

    def value(self, plan, dots):
        """The surface of ``plan`` with one dot on each piece in the
        mask ``dots``, as {mask of dotted boundary cycles: coeff}."""
        kept = self._values.get(plan)
        if kept is None:
            kept = self._values[plan] = {}
        hit = kept.get(dots)
        if hit is None:
            mul = self.ring.mul
            hit = {0: self.ring.one}
            for pieces, cycles, g in plan:
                terms = []
                for bits, c in self.surface(len(cycles),
                                            (dots & pieces).bit_count(), g):
                    mask = 0
                    for i, j in enumerate(cycles):
                        if bits >> i & 1:
                            mask |= 1 << j
                    terms.append((mask, c))
                hit = {m | mask: mul(v, c)
                       for m, v in hit.items() for mask, c in terms}
            kept[dots] = hit
        return hit

    def compose(self, g, f, m1, m2, m3):
        """g o f for morphisms f: m1 -> m2 and g: m2 -> m3."""
        R = self.ring
        # a multiple of the identity needs no gluing
        if m1 == m2 and len(f) == 1 and 0 in f:
            c, h = f[0], g
        elif m2 == m3 and len(g) == 1 and 0 in g:
            c, h = g[0], f
        else:
            c = None
        if c is not None:
            if c == R.one:
                return h
            return {m: R.mul(c, v) for m, v in h.items()}
        plan = self._compositions.get((m1, m2, m3))
        if plan is None:
            ia, fa = self.cycles(m1, m2)
            ib, fb = self.cycles(m2, m3)
            n = len(fa)
            seams = [(ia[a], n + ib[a])
                     for a, b in self.partners[m2].items() if a < b]
            outs = [ia[p] for p in self.cycles(m1, m3)[1]]
            glued = self.glue(n + len(fb), seams, [], outs)
            plan = self._compositions[(m1, m2, m3)] = (
                glued, n, self._values.setdefault(glued, {}))
        glued, n, kept = plan
        if len(f) == 1 and len(g) == 1:
            (fm, fc), = f.items()
            (gm, gc), = g.items()
            if R.mul(fc, gc) == R.one:
                hit = kept.get(fm | gm << n)
                return self.value(glued, fm | gm << n) if hit is None else hit
        acc = {}
        for fm, fc in f.items():
            for gm, gc in g.items():
                axpy(R, acc, R.mul(fc, gc), self.value(glued, fm | gm << n))
        return acc

    # -- placing a crossing ---------------------------------------------

    def smoothing(self, m, sigma):
        """Glue matching m with smoothing sigma of the current crossing:
        (the new matching, a slot on each closed loop)."""
        hit = self._smoothings.get((m, sigma))
        if hit is None:
            cr, shared, kinks, _ = self.step
            # ends: a boundary point e of m is e, slot k is ~k
            arc = dict(self.partners[m])
            for i, j in _ARCS[sigma]:
                arc[~i], arc[~j] = ~j, ~i
            link = {}
            for e, k in shared:
                link[e], link[~k] = ~k, e
            for i, j in kinks:
                link[~i], link[~j] = ~j, ~i
            seen, pairs = set(), []
            for start in list(arc):
                if start in link or start in seen:
                    continue
                end = arc[start]
                while end in link:
                    seen.update((end, link[end]))
                    end = arc[link[end]]
                seen.update((start, end))
                pairs.append(tuple(e if e > 0 else cr[~e]
                                   for e in (start, end)))
            loops = []
            for k in range(4):
                if ~k in seen:
                    continue
                loops.append(k)
                end = ~k
                while True:
                    seen.update((end, arc[end]))
                    end = link[arc[end]]
                    if end == ~k:
                        break
            hit = self._smoothings[(m, sigma)] = (self.matching(pairs), loops)
        return hit

    def extension(self, ma, mb, sigma, tau):
        """Plan of phi u (strips of sigma, or the saddle from sigma to
        tau) for phi: ma -> mb, with the loops of both ends delooped:
        (glued plan, first cup piece, first cap piece, loops at the source,
        loops at the target, the kept unit extensions of this plan)."""
        key = (ma, mb, sigma, tau)
        hit = self._extensions.get(key)
        if hit is None:
            _, shared, kinks, fresh = self.step
            na, loops_a = self.smoothing(ma, sigma)
            nb, loops_b = self.smoothing(mb, tau)
            index, firsts = self.cycles(ma, mb)
            n = len(firsts)
            if sigma == tau:
                piece = {k: n + a for a, arc in enumerate(_ARCS[sigma])
                         for k in arc}
                cups = n + 2
            else:
                piece = dict.fromkeys(range(4), n)
                cups = n + 1
            caps = cups + len(loops_a)
            seams = ([(index[e], piece[k]) for e, k in shared]
                     + [(piece[i], piece[j]) for i, j in kinks])
            discs = ([(cups + i, piece[k]) for i, k in enumerate(loops_a)]
                     + [(caps + i, piece[k]) for i, k in enumerate(loops_b)])
            outs = [index[p] if p in index else piece[fresh[p]]
                    for p in self.cycles(na, nb)[1]]
            plan = (self.glue(caps + len(loops_b), seams, discs, outs), cups,
                    caps, len(loops_a), len(loops_b))
            kept = self._unit_extensions.get(plan)
            if kept is None:
                kept = self._unit_extensions[plan] = {}
            hit = self._extensions[key] = plan + (kept,)
        return hit

    def _cap_terms(self, nloops, labels):
        """(dotted caps, coeff) terms of the caps on the target loops: a
        loop labelled X gets a plain cap, one labelled 1 a dotted cap
        minus s times a plain one."""
        R = self.ring
        terms = [(0, R.one)]
        for i in range(nloops):
            if not labels >> i & 1:
                terms = [(d | 1 << i, c) for d, c in terms] + (
                    [] if R.is_zero(self.minus_s) else
                    [(d, R.mul(c, self.minus_s)) for d, c in terms])
        return terms

    def _unit_extension(self, plan, fm):
        """{(source labels, target labels): morphism} of the basis
        morphism with dot mask fm, extended by ``plan``; kept, so callers
        must not change it."""
        glued, cups, caps, la, lb, kept = plan
        hit = kept.get(fm)
        if hit is None:
            R = self.ring
            hit = {}
            for lt in range(1 << lb):
                caps_lt = self._cap_terms(lb, lt)
                for ls in range(1 << la):
                    acc = {}
                    for capd, cc in caps_lt:
                        axpy(R, acc, cc, self.value(
                            glued, fm | ls << cups | capd << caps))
                    if acc:
                        hit[(ls, lt)] = acc
            kept[fm] = hit
        return hit

    def extend(self, phi, plan, sign):
        """{(source labels, target labels): morphism} of sign * phi
        extended by ``plan``, between delooped objects."""
        R = self.ring
        if len(phi) == 1:
            (fm, fc), = phi.items()
            if R.mul(sign, fc) == R.one:
                return self._unit_extension(plan, fm)
        out = {}
        for fm, fc in phi.items():
            c = R.mul(sign, fc)
            for labels, unit in self._unit_extension(plan, fm).items():
                axpy(R, out.setdefault(labels, {}), c, unit)
        return {labels: f for labels, f in out.items() if f}

    def add_crossing(self, cr, boundary):
        """Tensor the current complex with the crossing's two smoothings,
        deloop, and cancel."""
        R = self.ring
        slots = {}
        for k, e in enumerate(cr):
            slots.setdefault(e, []).append(k)
        shared = [(e, ks[0]) for e, ks in slots.items() if e in boundary]
        kinks = [tuple(ks) for ks in slots.values() if len(ks) == 2]
        fresh = {e: ks[0] for e, ks in slots.items()
                 if len(ks) == 1 and e not in boundary}
        self.step = cr, shared, kinks, fresh
        # a matching lies on one boundary, and the step before made those
        # of the boundary before this crossing, whose cycles ``extension``
        # reads again: keep those, drop the rest
        old, self._first_new = self._first_new, len(self.partners)
        self._cycles = {k: v for k, v in self._cycles.items() if k[0] >= old}
        self._compositions = {}
        self._smoothings, self._extensions = {}, {}
        boundary.difference_update(e for e, _ in shared)
        boundary.update(fresh)

        objs, out, inn = {}, {}, {}
        ids = {}        # old id -> the first new id of each smoothing
        for x, (m, q, r) in self.objs.items():
            ids[x] = firsts = []
            for sigma in (0, 1):
                m2, loops = self.smoothing(m, sigma)
                firsts.append(len(objs) + self.next_id)
                for labels in range(1 << len(loops)):
                    y = len(objs) + self.next_id
                    objs[y] = (m2, q + sigma + len(loops)
                               - 2 * labels.bit_count(), r + sigma)
                    out[y], inn[y] = {}, set()
        self.next_id += len(objs)

        def put(src, tgt, entries):
            for (ls, lt), f in entries.items():
                out[src + ls][tgt + lt] = f
                inn[tgt + lt].add(src + ls)
        minus_one = R.from_int(-1)
        for x, (m, q, r) in self.objs.items():
            sign = minus_one if r % 2 else R.one
            put(*ids[x], self.extend({0: R.one},
                                     self.extension(m, m, 0, 1), sign))
            for y, f in self.out[x].items():
                my = self.objs[y][0]
                for sigma in (0, 1):
                    plan = self.extension(m, my, sigma, sigma)
                    put(ids[x][sigma], ids[y][sigma],
                        self.extend(f, plan, R.one))
        self.objs, self.out, self.inn = objs, out, inn
        self.eliminate()

    # -- cancellation -----------------------------------------------------

    def iso_target(self, x):
        """The target y of an entry u*id out of x, with the fewest
        entries into y (ties to the least y), or None."""
        R = self.ring
        m, q, _ = self.objs[x]
        best = None
        for y, f in self.out[x].items():
            if len(f) == 1 and 0 in f and R.is_unit(f[0]):
                my, qy, _ = self.objs[y]
                if my == m and (qy == q or not self.theory.graded):
                    key = (len(self.inn[y]), y)
                    if best is None or key < best:
                        best = key
        return None if best is None else best[1]

    def cancel(self, x, y):
        """Cancel x against y through u = <dx, y> (an entry u*id);
        returns the sources whose rows were filled in."""
        R = self.ring
        objs, out, inn = self.objs, self.out, self.inn
        coef = R.neg(R.inv(out[x].pop(y)[0]))
        dx = out.pop(x)
        for z in dx:
            inn[z].discard(x)
        into_y = inn.pop(y)
        into_y.discard(x)
        scaled = coef != R.one
        mx = objs[x][0]
        dx = [(z, g, objs[z][0]) for z, g in dx.items()]
        for w in into_y:
            row = out[w]
            f = row.pop(y)
            mw = objs[w][0]
            for z, g, mz in dx:
                # the composite is kept by ``value``: a sum or a multiple
                # goes into a new dict, never into it or into row[z]
                acc = self.compose(g, f, mw, mx, mz)
                if scaled or z in row:
                    acc = axpy(R, dict(row.get(z, ())), coef, acc)
                if acc:
                    row[z] = acc
                    inn[z].add(w)
                elif z in row:
                    del row[z]
                    inn[z].discard(w)
        for w in inn.pop(x):
            del out[w][x]
        for z in out.pop(y):
            inn[z].discard(y)
        del objs[x], objs[y]
        return into_y

    def eliminate(self):
        """Cancel entries u*id until none is left, sources least id
        first; a source whose row is filled in is looked at again."""
        heap = list(self.objs)
        heapify(heap)
        while heap:
            x = heappop(heap)
            if x not in self.objs:
                continue
            y = self.iso_target(x)
            if y is not None:
                for w in self.cancel(x, y):
                    heappush(heap, w)

    # -- the whole diagram ---------------------------------------------

    def run(self, diagram):
        empty = self.matching(())
        nfree = len(diagram.free_edges)
        self.objs = {x: (empty, nfree - 2 * x.bit_count(), 0)
                     for x in range(1 << nfree)}
        self.out = {x: {} for x in self.objs}
        self.inn = {x: set() for x in self.objs}
        self.next_id = len(self.objs)
        boundary = set()
        for ci in _crossing_order(diagram):
            self.add_crossing(diagram.crossings[ci], boundary)

        graded = self.theory.graded
        r_shift = -diagram.n_minus
        q_shift = diagram.n_plus - 2 * diagram.n_minus
        gens, qdeg, place = {}, {}, {}
        for x in sorted(self.objs):
            _, q, r = self.objs[x]
            keys = gens.setdefault(r + r_shift, [])
            place[x] = len(keys)
            keys.append(x)
            qdeg.setdefault(r + r_shift, []).append(
                q + q_shift if graded else None)
        diffs = {r: {} for r in gens}
        for x, row in self.out.items():
            if row:
                diffs[self.objs[x][2] + r_shift][place[x]] = {
                    place[y]: f[0] for y, f in row.items()}
        return ChainComplex(self.theory, gens, qdeg, diffs=diffs)
