"""Homology of complexes over a theory's ring, with enough structure to
push maps through the cube's.

One engine, elimination, computes every homology, in two passes that
share their cancellation step and its record (``_Blocks``): the steps,
and the step that cancelled each generator.

* ``reduce_complex`` cancels unit differential entries, a discrete
  homotopy equivalence with inclusion, projection and homotopy maps, in
  one loop, degree by degree, and in one mode: an r1 or r2 move's pairs
  are prescribed and never fill in, so ``cobordism`` reads their record
  off the cube instead (their elimination is a test oracle).  The maps
  replay the record on the vectors they are applied to, so no matrix of
  them is built unless a check asks for one.  The projection keeps each
  original generator's column, the replay of its unit vector, the first
  time a vector reaches the generator, and projects a vector as the sum
  of those columns: the vectors that ``verify`` projects fall on few
  generators (18,429 entries on 2,882 generators in a pass of
  ``dot-crossing`` up to 7 crossings under ``bn`` and ``alpha@0,t/f2``),
  so each is replayed once.  The loop pays per cancellation only for the
  fill-in it makes: the pivot scan is a plain loop over the column, and
  a cancellation whose target's row holds only the pivot, as most do,
  builds nothing but its record.  ``HomologyData`` keeps the maps so
  that chain maps on a cube can be pushed through homology, and
  ``homology()``, the summary of any complex, is its summary.  The
  command line's summaries read the complex of ``tangles.scan_complex``,
  which has no unit entry left, so there the record is empty and
  ``homology()`` is the last step of the scan; on a cube it is the
  cross-check the tests hold the scan to.

* ``_split`` then splits the small complex, which has no unit entry.
  Over a field it has no entry at all.  Over a graded F[t] each entry
  <dx, y> is c*t^k with k = (q_y - q_x)/2, fixed by the q-degrees of
  its two ends, so an entry of least exponent divides every entry of
  its row and column, and cancelling it by the same fill-in step splits
  x -> c*t^k*y off as a summand: y generates torsion of order k.  The
  generators that no pivot touches are free.  This is the graded
  elimination of Bar-Natan, *Fast Khovanov homology computations*,
  JKTR 16 (2007), arXiv:math/0606318.

``maps_equal_on_homology`` compares two chain maps in one pass.
Canonical coordinates, truncated below each torsion order, are linear,
so f and g agree on homology exactly when f - g sends every generator
cycle to coordinates 0, and up to sign when f - g or f + g does; f + g
is pushed only where -1 is not 1.  ``induced_map`` builds the matrix
that ``movie`` prints, and comparing two such matrices
(``induced_maps_equal``) is the one-pass comparison's test oracle.

``quotient_dims``, the oracle, shares no code with either pass: it ranks
the q-slices of C/t^k over the base field on the unreduced complex, and
a summary predicts those dimensions by universal coefficients.
"""

from dataclasses import dataclass
from functools import partial
import heapq

from .rings import PolyRing
from .complexes import (ChainComplex, ChainMap, axpy, mat_eq, mat_add,
                        mat_vec, compose, add_maps, identity_map)


# -- elimination of unit differential entries ----------------------------

@dataclass
class Reduction:
    """An elimination, or an r1/r2 move's read-off (``cobordism``, where
    red is the smaller cube): the original complex, the reduced one and
    the maps between them, incl: red -> original, proj: original -> red
    and the homotopy H of degree -1 on the original.  The maps replay the
    recorded cancellations on the vectors they are applied to (see
    ``_Cancellations``); their matrices are built only where a check
    asks for them."""
    original: ChainComplex
    red: ChainComplex
    incl: ChainMap
    proj: ChainMap
    homotopy: ChainMap


class _Cancellations:
    """The cancellations of one elimination, replayed on vectors.

    Step k is (r, x, y, u^-1, dx, into_y): it cancels x in degree r
    against y in degree r + 1 through the unit u = <dx, y> of the
    differential at that point, where ``dx`` holds the other entries of
    dx and ``into_y`` the entries <dw, y> of the other generators w.
    Step k's projection sends y to -u^-1 dx and x to 0, and its
    inclusion sends each w to w - u^-1 <dw, y> x.  The projection is the
    steps' projections in order, the inclusion theirs in reverse order,
    and the homotopy sends v to the sum over the steps of
    u^-1 <P_k v, y> I_k(x), where P_k projects through the steps before
    k and I_k includes through them.  Indices are those of the original
    complex; ``killed[r]`` maps each cancelled index of degree r to the
    step that cancels it, and ``keep[r]`` lists the survivors of degree
    r in the order of the reduced complex.  The two indices below and
    the projection columns are built the first time a map that reads
    them is applied (an r1/r2 read-off in ``cobordism`` hands in the
    first index), so a caller of one map pays for no other.

    A torsion split of x against y through a = <dx, y> (see ``_split``)
    is the step (r, x, y, 1, a^-1 dx, a^-1 into_y).  In the basis where
    y' = a^-1 d(x) replaces y and w - a^-1 <dw, y> x replaces each other
    w, the same replays hold, and the projection's seed <P_k v, y> is
    the coordinate of v at the torsion generator y'.
    """

    def __init__(self, ring, steps, killed, keep, touching=None):
        self.ring = ring
        self.steps = steps
        self.killed = killed
        self.keep = keep
        self._touching = touching   # {r: {w: steps whose into_y holds w}}
        self._reduced = None    # {r: {survivor: its reduced index}}
        self._proj_cols = {}    # {r: {original index: its projection}}

    def _touch_index(self):
        if self._touching is None:
            self._touching = {}
            for k, (r, _, _, _, _, into_y) in enumerate(self.steps):
                tr = self._touching.setdefault(r, {})
                for w in into_y:
                    tr.setdefault(w, []).append(k)
        return self._touching

    def _project(self, r, vec, seeds=None):
        """Run the steps' projections in order over a copy of vec (degree
        r), by a heap keyed by the step that cancels each entry.  With
        ``seeds`` a dict, record u^-1 <P_k v, y> there per step k."""
        R = self.ring
        killed = self.killed.get(r, {})
        out = dict(vec)
        heap = [(killed[i], i) for i in out if i in killed]
        heapq.heapify(heap)
        pushed = {i for _, i in heap}
        while heap:
            k, i = heapq.heappop(heap)
            c = out.pop(i, None)
            rk, _, _, uinv, dx, _ = self.steps[k]
            if c is None or rk == r:
                continue                # entry i is step k's x: it goes to 0
            a = R.mul(uinv, c)
            if seeds is not None:
                seeds[k] = a
            axpy(R, out, R.neg(a), dx)
            for t in dx:
                if t in killed and t not in pushed:
                    pushed.add(t)
                    heapq.heappush(heap, (killed[t], t))
        return out

    def _include(self, r, out, seeds):
        """Run the steps' inclusions in reverse order on out (degree r,
        original indices) in place, adding seeds[k] x at step k.  A max-heap
        runs over the seeded steps and those whose into_y holds an entry
        of out."""
        R = self.ring
        touching = self._touch_index().get(r, {})
        heap = [-k for k in seeds]
        for w in out:
            heap.extend(-k for k in touching.get(w, ()))
        heapq.heapify(heap)
        last = None
        while heap:
            k = -heapq.heappop(heap)
            if k == last:
                continue
            last = k
            _, x, _, uinv, _, into_y = self.steps[k]
            acc = R.zero
            for w, cw in into_y.items():
                if w in out:
                    acc = R.add(acc, R.mul(cw, out[w]))
            v = R.sub(seeds.get(k, R.zero), R.mul(uinv, acc))
            if not R.is_zero(v):
                out[x] = v
                for j in touching.get(x, ()):
                    heapq.heappush(heap, -j)
        return out

    def proj(self, r, vec):
        """The projection of vec, the sum of its entries' projection
        columns: a generator's column is the replay of its unit vector,
        reindexed to the reduced complex, kept the first time a vector
        reaches the generator and shared by every later one."""
        cols = self._proj_cols.get(r)
        if cols is None:
            if self._reduced is None:
                self._reduced = {rr: {i: j for j, i in enumerate(keep)}
                                 for rr, keep in self.keep.items()}
            cols = self._proj_cols[r] = {}
        R = self.ring
        out = {}
        for i, c in vec.items():
            col = cols.get(i)
            if col is None:
                reduced = self._reduced[r]
                col = cols[i] = {reduced[j]: v for j, v in
                                 self._project(r, {i: R.one}).items()}
            if col:
                axpy(R, out, c, col)
        return out

    def incl(self, r, vec):
        keep = self.keep[r]
        return self._include(r, {keep[j]: v for j, v in vec.items()}, {})

    def homotopy(self, r, vec):
        seeds = {}
        self._project(r, vec, seeds)
        return self._include(r - 1, {}, seeds)


def _diff_as_map(cx):
    R = cx.ring
    return ChainMap(cx, cx, lambda r, vec: mat_vec(R, cx.d(r).get, vec),
                    1, 0, "d")


class _Blocks:
    """The differential of ``cx``, loaded one degree at a time through
    ``take_d`` and consumed in place by cancellations, and the one record
    of what they cancelled: unit elimination and the torsion split both
    run on it.  ``cols[r]`` holds the columns {source: {target: payload}}
    of a loaded degree and ``rows[r]`` the sources with an entry at each
    target.  ``steps`` lists a record per cancellation, which the caller
    appends, and ``killed[r]`` maps each cancelled index of degree r to
    its step."""

    def __init__(self, cx):
        R = cx.ring
        self.cx = cx
        self.ops = R.is_zero, R.is_unit, R.add, R.mul, R.neg
        self.killed = {r: {} for r in cx.degrees}
        self.steps = []
        self.cols = {}
        self.rows = {}

    def load(self, r):
        """Load degree r without the cancelled sources."""
        rows = self.rows
        rows.pop(r - 2, None)   # read only by cancellations of degree r - 1
        self.cols[r] = cols_r = self.cx.take_d(r, self.killed[r])
        rows[r] = rows_r = {}
        for s, col in cols_r.items():
            for t in col:
                row = rows_r.get(t)
                if row is None:
                    rows_r[t] = {s}
                else:
                    row.add(s)
        return cols_r

    def record(self):
        """The cancellations so far, to replay on vectors."""
        keep = {r: [i for i in range(self.cx.rank(r)) if i not in killed]
                for r, killed in self.killed.items()}
        return _Cancellations(self.cx.ring, self.steps, self.killed, keep)

    def reduction(self):
        """The cancellations so far as a Reduction: the reduced complex
        holds the loaded blocks on the survivors, in their original order,
        and its maps replay the record."""
        cx = self.cx
        record = self.record()
        red_gens, red_qdeg, reindex = {}, {}, {}
        for r, keep in record.keep.items():
            red_gens[r] = [cx.gens[r][i] for i in keep]
            red_qdeg[r] = [cx.qdeg[r][i] for i in keep]
            reindex.update(((r, i), j) for j, i in enumerate(keep))
        red_diffs = {}
        for r in cx.degrees:
            blk = {}
            for s, col in self.cols[r].items():
                newcol = {reindex[(r + 1, t)]: v for t, v in col.items()}
                if newcol:
                    blk[reindex[(r, s)]] = newcol
            red_diffs[r] = blk
        red = ChainComplex(cx.theory, red_gens, red_qdeg, diffs=red_diffs)
        return Reduction(cx, red,
                         ChainMap(red, cx, record.incl, 0, 0, "incl"),
                         ChainMap(cx, red, record.proj, 0, 0, "proj"),
                         ChainMap(cx, cx, record.homotopy, -1, None, "H"))

    def cancel(self, r, x, y, over, p, heap=None):
        """Cancel x in degree r against y in degree r + 1 through the
        pivot <dx, y>, where ``over(p, c)`` is c divided by the pivot for
        an entry c of row y: d(w) += -over(p, <dw, y>) dx for every other
        w with an entry at y, and a column that this gives a unit entry
        is pushed on ``heap`` when one is given.  Column x, row y and the
        arrows into x then leave the loaded blocks, and ``killed`` maps x
        and y to step len(steps), whose record the caller appends.
        Degree r + 1 is not loaded yet, and its loader skips y.  Returns
        dx without y and into_y = {w: <dw, y>}; when row y holds only the
        pivot, as it mostly does, the step builds nothing else."""
        cols, rows = self.cols, self.rows
        cols_r, rows_r = cols[r], rows[r]

        # take x's column and the arrows into y out of the differential,
        # and add the multiple of dx to each column with an arrow into y
        dx = cols_r.pop(x)
        del dx[y]
        into_y = {}
        row_y = rows_r.pop(y)
        if len(row_y) > 1:
            is_zero, is_unit, add, mul, neg = self.ops
            for w in row_y:
                if w == x:
                    continue
                col = cols_r[w]
                cw = into_y[w] = col.pop(y)
                coef = neg(over(p, cw))
                unit = False
                for t, v in dx.items():
                    old = col.get(t)
                    nv = mul(coef, v) if old is None else add(old,
                                                              mul(coef, v))
                    if is_zero(nv):
                        if old is not None:
                            del col[t]
                            rows_r[t].discard(w)
                        continue
                    if old is None:
                        rows_r[t].add(w)
                    col[t] = nv
                    unit = unit or is_unit(nv)
                if not col:
                    del cols_r[w]
                elif unit and heap is not None:
                    heapq.heappush(heap, w)

        # drop the arrows out of x and into x
        for t in dx:
            rows_r[t].discard(x)
        if r - 1 in cols:
            cols_below = cols[r - 1]
            for w in rows[r - 1].pop(x, ()):
                col = cols_below[w]
                del col[x]
                if not col:
                    del cols_below[w]
        self.killed[r][x] = self.killed[r + 1][y] = len(self.steps)
        return dx, into_y


def reduce_complex(cx):
    """Cancel unit entries of the differential.

    One loop runs degree by degree: it loads degree r through
    ``cx.take_d``, which skips the generators already cancelled, heaps
    the sources of degree r and pops the least first.  Every loaded
    column is pushed, and again whenever fill-in creates a unit in it.
    The pivot of a popped column x is its unit target y with the fewest
    live entries in its row, ties to the least y.  Cancelling x against
    y adds a multiple of dx to every other column with an entry at y, so
    it fills in at most (|dx| - 1)(|row y| - 1) entries; with the column
    fixed, this is the Markowitz choice.  A popped column without a unit
    is left in place.

    This order leaves no unit entry.  Fill-in from a degree-r pivot
    lands only in d_r, so the heap runs out only when d_r holds no unit.
    The cancellations of degree r + 1 then delete rows of d_r and add
    nothing to it, so no unit comes back there; and those of degree r
    change nothing in d_{r+1} but delete the columns of their targets,
    which the loader of degree r + 1 then never builds.  Over a field or
    a graded F[t] a complex without unit entries is unique up to
    isomorphism, and its homology is that of ``cx`` whatever the order;
    only its basis, and so the coordinates that ``induced_map`` prints,
    depend on the order, which ``tests/elimination_pairs.txt`` pins.

    This is the one elimination mode: an r1 or r2 move's prescribed
    pairs never fill in, so ``cobordism`` reads their record off the
    cube, and their elimination is an oracle in ``tests/``.

    Returns a Reduction whose maps satisfy proj∘incl = id and
    id - incl∘proj = dH + Hd; they replay the record of the
    cancellations (``_Blocks.record``) on the vectors they are applied
    to.
    """
    R = cx.ring
    is_unit, inv, mul = R.is_unit, R.inv, R.mul
    blocks = _Blocks(cx)
    steps, cancel = blocks.steps, blocks.cancel
    heappop = heapq.heappop
    for r in cx.degrees:
        cols_r = blocks.load(r)
        rows_r = blocks.rows[r]
        heap = list(cols_r)
        heapq.heapify(heap)
        while heap:
            x = heappop(heap)
            col = cols_r.get(x)
            if col is None:
                continue
            y = None
            for t, v in col.items():
                # the unit test, a ring call, only for an entry that would
                # beat the best unit so far
                n = len(rows_r[t])
                if (y is None or n < best or n == best and t < y) and (
                        is_unit(v)):
                    y, best = t, n
            if y is None:
                continue
            uinv = inv(col[y])
            dx, into_y = cancel(r, x, y, mul, uinv, heap)
            steps.append((r, x, y, uinv, dx, into_y))
    return blocks.reduction()


def reduction_identities_hold(redn):
    """proj∘incl = id, id - incl∘proj = dH + Hd, both maps chain maps."""
    cx, red = redn.original, redn.red
    R = cx.ring
    if not redn.incl.is_chain_map() or not redn.proj.is_chain_map():
        return False
    pi = compose(redn.proj, redn.incl)
    if not all(mat_eq(R, pi.block(r), identity_map(red).block(r))
               for r in red.degrees):
        return False
    ip = compose(redn.incl, redn.proj)
    d = _diff_as_map(cx)
    dh_hd = add_maps(compose(d, redn.homotopy), compose(redn.homotopy, d))
    ident = identity_map(cx)
    for r in cx.degrees:
        lhs = mat_add(R, ident.block(r),
                      {s: {t: R.neg(v) for t, v in c.items()}
                       for s, c in ip.block(r).items()})
        if not mat_eq(R, lhs, dh_hd.block(r)):
            return False
    return True


# -- homology presentations ----------------------------------------------

def _exact_quotient(R, r, a, c):
    """c / a over F[t], for a pivot a of the torsion split in degree r."""
    q, rem = R.divmod(c, a)
    if rem:
        raise ValueError("torsion split in degree %d: the pivot %s does not "
                         "divide the entry %s of its row or column"
                         % (r, R.fmt(a), R.fmt(c)))
    return q


def _split(red):
    """Split the torsion pairs off ``red``, a complex with no unit entry.

    Degree by degree, the pivot is an entry <dx, y> of least exponent
    (q_y - q_x)/2, ties to the least source x, then the least target y.
    Its exponent must be that one, and it must divide every entry of its
    row and column; either failure raises ValueError.  ``_Blocks.cancel``
    then splits x -> a*y off, and the step is recorded in the form that
    ``_Cancellations`` replays.  Over a field ``red`` has no entry, and
    nothing is split.  Returns the record, whose ``keep`` lists the free
    generators, and the torsion order of each step."""
    R = red.ring
    blocks = _Blocks(red)
    orders = []
    for r in red.degrees:
        cols_r = blocks.load(r)
        qs, qt = red.qdeg[r], red.qdeg.get(r + 1)
        over = partial(_exact_quotient, R, r)
        while cols_r:
            _, x, y = min((qt[t] - qs[s], s, t)
                          for s, col in cols_r.items() for t in col)
            a = cols_r[x][y]
            k = R.exponent(a)
            if 2 * k != qt[y] - qs[x]:
                raise ValueError("torsion split in degree %d: the pivot %s "
                                 "disagrees with the q-degrees %s -> %s of "
                                 "its ends" % (r, R.fmt(a), qs[x], qt[y]))
            dx, into_y = blocks.cancel(r, x, y, over, a)
            blocks.steps.append((r, x, y, R.one,
                                 {t: over(a, v) for t, v in dx.items()},
                                 {w: over(a, c) for w, c in into_y.items()}))
            orders.append(k)
    return blocks.record(), orders


class DegreePresentation:
    """H_r as a direct sum of cyclic summands, one per generator.

    gens[b] is the index of generator b in the reduced complex, ann[b]
    None for a free summand and k >= 1 for a t^k torsion summand, and
    gen_vecs[b] its cycle in reduced coordinates.
    """

    def __init__(self, gens, ann, gen_vecs):
        self.gens = gens
        self.ann = ann
        self.gen_vecs = gen_vecs


def check_presentable(theory):
    """Raise ValueError unless ``HomologyData`` can present the homology
    of a complex over ``theory``."""
    ring = theory.ring
    if not (ring.is_field or isinstance(ring, PolyRing)):
        raise ValueError(
            "homology needs field or univariate polynomial coefficients; "
            "specialize the theory first")
    if isinstance(ring, PolyRing) and not theory.graded:
        raise ValueError(
            "polynomial coefficients need a graded theory: torsion splits "
            "off at entries of least exponent, and the exponents come from "
            "the grading")


class HomologyData:
    """The homology of ``cx``: elimination with maps (``redn``) reduces
    it to ``work``, and the torsion split of ``work`` presents it.  The
    generators of H_r are the generators of ``work`` that survive the
    split (free) and the targets y of its pivots x -> a*y (torsion of
    order exp(a), with cycle y + a^-1 dx); chain maps on ``cx`` are
    pushed through ``redn``'s maps."""

    def __init__(self, cx):
        check_presentable(cx.theory)
        self.theory = cx.theory
        self.original = cx
        self.redn = reduce_complex(cx)
        self.work = self.redn.red
        self._record, self._orders = _split(self.work)
        self._pres = {}
        self._cycles = {}

    def degrees(self):
        return self.work.degrees

    def presentation(self, r):
        if r not in self._pres:
            record, one = self._record, self.work.ring.one
            summands = {i: (None, record.incl(r, {j: one}))
                        for j, i in enumerate(record.keep[r])}
            for (rk, _, y, _, dxa, _), k in zip(record.steps, self._orders):
                if rk == r - 1:
                    summands[y] = (k, {**dxa, y: one})
            gens = sorted(summands)
            self._pres[r] = DegreePresentation(
                gens, [summands[i][0] for i in gens],
                [summands[i][1] for i in gens])
        return self._pres[r]

    def canonical_coords(self, r, zvec):
        """Coordinates of a cycle (working coords) in the presentation,
        reduced modulo the annihilators: the split's projection, which
        keeps the coordinate at each torsion generator y.  The basis is
        the one that elimination and the split chose, so these are not
        invariants: another elimination order gives the same class other
        coordinates."""
        W = self.work
        ring = W.ring
        if mat_vec(ring, W.d(r).get, zvec):
            raise ValueError("canonical_coords: the vector is not a cycle "
                             "in degree %d" % r)
        seeds = {}
        free = self._record._project(r, zvec, seeds)
        step_of = self._record.killed.get(r, {})
        pres = self.presentation(r)
        out = []
        for i, a in zip(pres.gens, pres.ann):
            if a is None:
                out.append(free.get(i, ring.zero))
            else:
                v = seeds.get(step_of[i], ring.zero)
                out.append({k: c for k, c in v.items() if k < a})
        return out

    def to_work_coords(self, r, orig_vec):
        return self.redn.proj.apply(r, orig_vec)

    def gen_cycles_original(self, r):
        """Generator cycles pushed back to the original complex, computed
        once per degree and kept, like the presentation they come from;
        callers must not change them."""
        if r not in self._cycles:
            self._cycles[r] = [self.redn.incl.apply(r, z)
                               for z in self.presentation(r).gen_vecs]
        return self._cycles[r]

    def summary(self):
        """A free summand per survivor of the split, a torsion summand per
        split step, at its target y."""
        red, split = self.work, self._record
        free = {}
        torsion = {}
        for r, keep in split.keep.items():
            for i in keep:
                key = (r, red.qdeg[r][i] if self.theory.graded else None)
                free[key] = free.get(key, 0) + 1
        for (r, _, y, _, _, _), k in zip(split.steps, self._orders):
            key = (r + 1, red.qdeg[r + 1][y], k)
            torsion[key] = torsion.get(key, 0) + 1

        def _k(t):
            return tuple((x if x is not None else -10**9) for x in t)
        return HomologySummary(
            self.theory.name,
            tuple(sorted(((r, q, m) for (r, q), m in free.items()), key=_k)),
            tuple(sorted(((r, q, a, m) for (r, q, a), m in torsion.items()),
                         key=_k)))


@dataclass(frozen=True)
class HomologySummary:
    theory: str
    free: tuple      # (r, q, multiplicity)
    torsion: tuple   # (r, q, order, multiplicity)

    def max_torsion_order(self):
        return max((k for _, _, k, m in self.torsion), default=0)

    def as_dict(self):
        return {
            "theory": self.theory,
            "free": [list(t) for t in self.free],
            "torsion": [list(t) for t in self.torsion],
        }

    def format_table(self):
        lines = []
        lines.append("free summands (r, q, rank):")
        if not self.free:
            lines.append("  none")
        for r, q, m in self.free:
            lines.append("  r=%+d  q=%s  rank %d" % (r, str(q), m))
        lines.append("torsion summands (r, q, order, count):")
        if not self.torsion:
            lines.append("  none")
        for r, q, k, m in self.torsion:
            lines.append("  r=%+d  q=%s  order %d  x%d" % (r, str(q), k, m))
        return "\n".join(lines)


def homology(cx):
    """The homology summary of any complex, through ``HomologyData``: the
    cube of ``build_complex``, or the small complex that ``scan_complex``
    leaves for the same diagram, which has the same summary."""
    return HomologyData(cx).summary()


# -- induced maps --------------------------------------------------------

def induced_map(f, ha, hb):
    """Matrix of f on homology: canonical coordinates of images of the
    source presentation generators, per degree.  The columns are
    coordinates in the presentation bases that elimination and the
    torsion split chose for ha and hb, not invariants: another
    elimination order can give the same map another matrix.
    ``maps_equal_on_homology`` compares two maps in the same bases,
    which does not depend on that choice."""
    if f.r_shift != 0:
        raise ValueError("induced_map needs a degree-preserving map, got "
                         "r_shift %d" % f.r_shift)
    out = {}
    for r in ha.degrees():
        cols = []
        for z in ha.gen_cycles_original(r):
            img = f.apply(r, z)
            w = hb.to_work_coords(r, img)
            cols.append(hb.canonical_coords(r, w))
        if cols:
            out[r] = cols
    return out


def _coords_times(ring, coords, ann, c):
    """c times each coordinate, with the coordinates at torsion
    generators truncated below their annihilators as ``canonical_coords``
    leaves them."""
    out = []
    for v, a in zip(coords, ann):
        nv = ring.mul(c, v)
        if a is not None:
            nv = {k: x for k, x in nv.items() if k < a}
        out.append(nv)
    return out


def scale_induced(m, c, hb):
    """The matrix of c f on homology from the matrix m of f
    (``induced_map`` into ``hb``), for c = u t^k with u a unit: the
    canonical coordinates of c f(z) are those of f(z) times c, truncated
    at the torsion generators, because multiplying by c only raises
    exponents."""
    ring = hb.work.ring
    return {r: [_coords_times(ring, col, hb.presentation(r).ann, c)
                for col in cols]
            for r, cols in m.items()}


def induced_maps_equal(ma, mb, hb, up_to_sign=False):
    """Compare two matrices on homology (``induced_map`` into ``hb``),
    optionally up to one global sign."""
    ring = hb.work.ring
    minus_one = ring.from_int(-1)

    def _eq(negate):
        for r in set(ma) | set(mb):
            ca = ma.get(r, [])
            cb = mb.get(r, [])
            if len(ca) != len(cb):
                return False
            ann = hb.presentation(r).ann
            for va, vb in zip(ca, cb):
                vb2 = _coords_times(ring, vb, ann, minus_one) if negate else vb
                if len(va) != len(vb2):
                    return False
                for x, y in zip(va, vb2):
                    if not ring.eq(x, y):
                        return False
        return True
    return _eq(False) or (up_to_sign and _eq(True))


def maps_equal_on_homology(f, g, ha, hb, up_to_sign=False):
    """Compare two maps on homology, optionally up to one global sign.

    Canonical coordinates, truncated below each torsion order, are
    linear, so f and g agree on homology exactly when f - g sends every
    generator cycle of ``ha`` to coordinates 0 in ``hb``, and they agree
    up to sign when f - g or f + g does.  So f - g is pushed through
    homology once, and f + g only where -1 is not 1 and the sign may
    differ; no matrix of either map is built."""
    for h in (f, g):
        if h.r_shift != 0:
            raise ValueError("maps_equal_on_homology needs degree-preserving "
                             "maps, got r_shift %d" % h.r_shift)
    R = hb.work.ring

    def _kills(c):
        # does f + c g send every generator cycle to coordinates 0?
        for r in ha.degrees():
            for z in ha.gen_cycles_original(r):
                w = hb.to_work_coords(
                    r, axpy(R, f.apply(r, z), c, g.apply(r, z)))
                if w and not all(map(R.is_zero, hb.canonical_coords(r, w))):
                    return False
        return True
    return _kills(R.from_int(-1)) or (
        up_to_sign and R.char != 2 and _kills(R.one))


# -- torsion-order invariants --------------------------------------------

@dataclass
class TorsionBound:
    label: str       # "mu" or "nu_phi"
    value: int
    note: str = ""


def torsion_bound(summary, theory):
    """The torsion order invariant of a homology summary.

    For the F2[h] theory this is mu, the largest h-power annihilating
    torsion.  For specializations of the two-variable theory the doubled
    decoration 2X - s drives the bound: when it acts as a scalar c*t^k
    the t-torsion orders convert by ceil(m/k); when its square s^2 - 4p
    is a unit the reduced homology has no torsion at all and nu is 0.
    """
    R = theory.ring
    if theory.name == "bn":
        return TorsionBound("mu", summary.max_torsion_order())
    star = theory.decoration_element("star")
    if R.is_zero(star[1]):
        scal = star[0]
        if R.is_unit(scal):
            return TorsionBound("nu_phi", 0,
                                "2X - s acts by a unit, no torsion possible")
        if isinstance(R, PolyRing):
            parts = R.mono_parts(scal)
            if parts is not None and parts[1] >= 1:
                k = parts[1]
                m = summary.max_torsion_order()
                return TorsionBound("nu_phi", -(-m // k))
        if R.is_zero(scal):
            raise ValueError("2X - s acts by zero here; nu_phi carries no "
                             "information for this specialization")
        raise ValueError("unsupported scalar action for nu_phi")
    disc = R.sub(R.mul(theory.s, theory.s),
                 R.mul(R.from_int(4), theory.p))
    if R.is_unit(disc):
        return TorsionBound("nu_phi", 0,
                            "(a1 - a2)^2 maps to a unit, so the doubled "
                            "decoration is invertible on homology")
    raise ValueError(
        "nu_phi is only computed when 2X - s acts as a scalar or has "
        "invertible square; got star = (%s) + (%s) X"
        % (R.fmt(star[0]), R.fmt(star[1])))


# -- the oracle -----------------------------------------------------------

def _rank(F, vectors):
    """Rank over the field F of sparse vectors {key: coefficient}, by
    elimination on their greatest keys."""
    basis = {}      # greatest key -> vector with coefficient one there
    for v in vectors:
        v = dict(v)
        while v:
            p = max(v)
            b = basis.get(p)
            if b is None:
                inv = F.inv(v[p])
                basis[p] = {key: F.mul(inv, c) for key, c in v.items()}
                break
            c = F.neg(v[p])
            for key, bc in b.items():
                nv = F.add(v.get(key, F.zero), F.mul(c, bc))
                if F.is_zero(nv):
                    v.pop(key, None)
                else:
                    v[key] = nv
    return len(basis)


def quotient_dims(cx, k):
    """The dimension over the base field F of H(C / t^k) at each (r, q),
    for a complex C over a graded F[t]; no elimination, no split.  C/t^k
    has the F-basis t^j g (j < k) of q-degree q_g - 2j, and each q-slice
    of its differential is ranked over F.  A summary predicts these
    dimensions by universal coefficients: a free summand at (r, q) gives
    one at each (r, q - 2j), and a torsion summand of order a gives one
    at each (r, q - 2j) for j < min(a, k) and one at each
    (r - 1, q - 2a - 2j) for k - a <= j < k."""
    R = cx.ring
    if not isinstance(R, PolyRing) or not cx.theory.graded:
        raise ValueError("quotient_dims needs a graded theory over F[t], "
                         "got %s" % R.name)
    F = R.base
    size = {}
    ranks = {}
    for r in cx.degrees:
        qs, qt = cx.qdeg[r], cx.qdeg.get(r + 1)
        for q in qs:
            for j in range(k):
                size[(r, q - 2 * j)] = size.get((r, q - 2 * j), 0) + 1
        slices = {}
        for s, col in cx.d(r).items():
            for j in range(k):
                q = qs[s] - 2 * j
                vec = {}
                for t, v in col.items():
                    for e, c in v.items():
                        if j + e < k:
                            if qt[t] - 2 * (j + e) != q:
                                raise ValueError("differential entry changes "
                                                 "q at degree %d" % r)
                            vec[(t, j + e)] = c
                if vec:
                    slices.setdefault(q, []).append(vec)
        for q, vecs in slices.items():
            ranks[(r, q)] = _rank(F, vecs)
    dims = {}
    for (r, q), n in size.items():
        dim = n - ranks.get((r, q), 0) - ranks.get((r - 1, q), 0)
        if dim:
            dims[(r, q)] = dim
    return dims
