"""Homology of the cube complexes, with enough structure to push maps
through.

Every complex is presented by one Smith normal form, ``dense_snf``, and
``HomologyData``'s ``method`` decides only whether elimination runs
first:

* the default route cancels unit differential entries (a discrete
  homotopy equivalence with inclusion, projection and homotopy maps)
  and presents the small complex that is left.  An elimination that
  keeps its maps records its cancellations, and the inclusion,
  projection and homotopy replay that record on the vectors they are
  applied to, so no matrix of them is built unless a check asks for
  one.  ``HomologyData`` keeps the maps so that chain maps can be
  pushed through homology; ``homology()``, the summary route,
  eliminates once without recording anything, because a summary reads
  only the small complex.

* the oracle route skips elimination and presents the complex as it
  is.

On a q-homogeneous complex, eliminated or not, every matrix the normal
form factors has monomial entries c*t^k; its least-degree pivots then
divide the rest of their row and column exactly, and its diagonal is a
chain of powers of t.

Homology in degree r is presented as coker of the boundary matrix
written in kernel coordinates: kernel basis from the column transform of
the first SNF, relations pushed through its inverse, then a second SNF
whose diagonal gives annihilators t^k (k = 0 summands are dropped, k >= 1
are torsion, missing diagonal means free).
"""

from dataclasses import dataclass
import heapq
from operator import itemgetter

from .rings import PolyRing
from .complexes import (ChainComplex, ChainMap, axpy, matrix_map, mat_eq,
                        mat_add, compose, add_maps, identity_map)


# -- sparse matrices with row and column indexes -------------------------

class SparseMat:
    def __init__(self, nrows, ncols, ring):
        self.nrows = nrows
        self.ncols = ncols
        self.ring = ring
        self.data = {}
        self.rows = {}
        self.cols = {}

    @classmethod
    def identity(cls, n, ring):
        m = cls(n, n, ring)
        for i in range(n):
            m.put(i, i, ring.one)
        return m

    @classmethod
    def from_columns(cls, nrows, ncols, cols, ring):
        m = cls(nrows, ncols, ring)
        for j, col in cols.items():
            for i, v in col.items():
                m.put(i, j, v)
        return m

    def get(self, i, j):
        return self.data.get((i, j), self.ring.zero)

    def put(self, i, j, v):
        if self.ring.is_zero(v):
            if (i, j) in self.data:
                del self.data[(i, j)]
                self.rows[i].discard(j)
                self.cols[j].discard(i)
        else:
            self.data[(i, j)] = v
            self.rows.setdefault(i, set()).add(j)
            self.cols.setdefault(j, set()).add(i)

    def row_support(self, i):
        return self.rows.get(i, set())

    def col_support(self, j):
        return self.cols.get(j, set())

    def swap_rows(self, a, b):
        if a == b:
            return
        cols = set(self.row_support(a)) | set(self.row_support(b))
        for j in cols:
            va, vb = self.get(a, j), self.get(b, j)
            self.put(a, j, vb)
            self.put(b, j, va)

    def swap_cols(self, a, b):
        if a == b:
            return
        rows = set(self.col_support(a)) | set(self.col_support(b))
        for i in rows:
            va, vb = self.get(i, a), self.get(i, b)
            self.put(i, a, vb)
            self.put(i, b, va)

    def addmul_row(self, dst, src, c):
        """row dst += c * row src"""
        R = self.ring
        for j in list(self.row_support(src)):
            v = R.add(self.get(dst, j), R.mul(c, self.get(src, j)))
            self.put(dst, j, v)

    def addmul_col(self, dst, src, c):
        R = self.ring
        for i in list(self.col_support(src)):
            v = R.add(self.get(i, dst), R.mul(c, self.get(i, src)))
            self.put(i, dst, v)

    def scale_row(self, i, c):
        R = self.ring
        for j in list(self.row_support(i)):
            self.put(i, j, R.mul(c, self.get(i, j)))

    def scale_col(self, j, c):
        R = self.ring
        for i in list(self.col_support(j)):
            self.put(i, j, R.mul(c, self.get(i, j)))

    def column(self, j):
        return {i: self.get(i, j) for i in self.col_support(j)}

    def apply(self, vec):
        """Matrix times sparse vector {j: payload}."""
        R = self.ring
        out = {}
        for j, c in vec.items():
            for i in self.col_support(j):
                w = R.add(out.get(i, R.zero), R.mul(self.get(i, j), c))
                if R.is_zero(w):
                    out.pop(i, None)
                else:
                    out[i] = w
        return out


@dataclass
class SNFResult:
    diag: list          # nonzero diagonal entries, divisibility chain
    U: SparseMat        # D = U M V
    Uinv: SparseMat
    V: SparseMat
    Vinv: SparseMat

    @property
    def rank(self):
        return len(self.diag)


def dense_snf(M, with_transforms=True):
    """Classical Smith normal form over F[t] (or a field) by repeated
    polynomial division, with no monomial or homogeneity assumptions.
    Pivots have least degree, ties to the least row, then column.  Every
    homology presentation goes through it; the oracle for elimination is
    the route that presents the unreduced complex with it."""
    ring = M.ring
    is_poly = isinstance(ring, PolyRing)

    def deg(v):
        return ring.poly_degree(v) if is_poly else 0

    def div(a, b):
        if is_poly:
            return ring.divmod(a, b)
        return ring.mul(a, ring.inv(b)), ring.zero

    n, m = M.nrows, M.ncols
    U = Uinv = V = Vinv = None
    if with_transforms:
        U = SparseMat.identity(n, ring)
        Uinv = SparseMat.identity(n, ring)
        V = SparseMat.identity(m, ring)
        Vinv = SparseMat.identity(m, ring)

    def row_op(dst, src, c):
        neg = ring.neg(c)
        M.addmul_row(dst, src, neg)
        if with_transforms:
            U.addmul_row(dst, src, neg)
            Uinv.addmul_col(src, dst, c)

    def col_op(dst, src, c):
        neg = ring.neg(c)
        M.addmul_col(dst, src, neg)
        if with_transforms:
            V.addmul_col(dst, src, neg)
            Vinv.addmul_row(src, dst, c)

    diag = []
    k = 0
    while True:
        best = None
        for (i, j), v in M.data.items():
            if i < k or j < k:
                continue
            key = (deg(v), i, j)
            if best is None or key < best:
                best = key
        if best is None:
            break
        _, pi, pj = best

        def move(pi, pj):
            M.swap_rows(k, pi)
            M.swap_cols(k, pj)
            if with_transforms:
                U.swap_rows(k, pi)
                Uinv.swap_cols(k, pi)
                V.swap_cols(k, pj)
                Vinv.swap_rows(k, pj)

        move(pi, pj)
        while True:
            # clear the pivot column; remainders become smaller pivots
            dirty = True
            while dirty:
                dirty = False
                for i in sorted(M.col_support(k)):
                    if i == k:
                        continue
                    q, r = div(M.get(i, k), M.get(k, k))
                    row_op(i, k, q)
                    if not ring.is_zero(r):
                        move(i, k)
                        dirty = True
                        break
                else:
                    for j in sorted(M.row_support(k)):
                        if j == k:
                            continue
                        q, r = div(M.get(k, j), M.get(k, k))
                        col_op(j, k, q)
                        if not ring.is_zero(r):
                            move(k, j)
                            dirty = True
                            break
            # divisibility of the remaining block
            piv = M.get(k, k)
            offender = None
            for (i, j), v in M.data.items():
                if i <= k or j <= k:
                    continue
                _, r = div(v, piv)
                if not ring.is_zero(r):
                    offender = i
                    break
            if offender is None:
                break
            row_op(k, offender, ring.neg(ring.one))
        piv = M.get(k, k)
        if is_poly:
            lead = piv[max(piv)]
            cinv = ring.monomial(ring.base.inv(lead), 0)
        else:
            cinv = ring.inv(piv)
        M.scale_row(k, cinv)
        if with_transforms:
            U.scale_row(k, cinv)
            if is_poly:
                Uinv.scale_col(k, ring.monomial(lead, 0))
            else:
                Uinv.scale_col(k, piv)
        diag.append(M.get(k, k))
        k += 1
    return SNFResult(diag, U, Uinv, V, Vinv)


# -- elimination of unit differential entries ----------------------------

@dataclass
class Reduction:
    """An elimination: the original complex, the reduced one and the maps
    between them, incl: red -> original, proj: original -> red and the
    homotopy H of degree -1 on the original.  The maps replay the
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
    complex; ``keep[r]`` lists the survivors of degree r in the order of
    the reduced complex.  Each index below is built the first time a map
    that reads it is applied, so a caller of one map pays for no other.
    """

    def __init__(self, ring, steps, keep):
        self.ring = ring
        self.steps = steps
        self.keep = keep
        self._killed = None     # {r: {index: step that cancels it}}
        self._touching = None   # {r: {w: steps whose into_y holds w}}
        self._reduced = None    # {r: {survivor: its reduced index}}

    def _kill_index(self):
        if self._killed is None:
            self._killed = {}
            for k, (r, x, y, _, _, _) in enumerate(self.steps):
                self._killed.setdefault(r, {})[x] = k
                self._killed.setdefault(r + 1, {})[y] = k
        return self._killed

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
        killed = self._kill_index().get(r, {})
        out = dict(vec)
        heap = [(killed[i], i) for i in out if i in killed]
        heapq.heapify(heap)
        queued = {i for _, i in heap}
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
                if t in killed and t not in queued:
                    queued.add(t)
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
        if self._reduced is None:
            self._reduced = {rr: {i: j for j, i in enumerate(keep)}
                             for rr, keep in self.keep.items()}
        reduced = self._reduced[r]
        return {reduced[i]: v for i, v in self._project(r, vec).items()}

    def incl(self, r, vec):
        keep = self.keep[r]
        return self._include(r, {keep[j]: v for j, v in vec.items()}, {})

    def homotopy(self, r, vec):
        seeds = {}
        self._project(r, vec, seeds)
        return self._include(r - 1, {}, seeds)


def _diff_as_map(cx):
    return matrix_map(cx, cx, {r: cx.d(r) for r in cx.degrees}, 1, 0, "d")


def reduce_complex(cx, pairs=None, track_maps=True):
    """Cancel unit entries of the differential.

    ``pairs`` prescribes an elimination order as (r, src_key, tgt_key)
    tuples of cube generators (state, labels), looked up by ``gen_index``;
    by default every unit entry is eliminated, degree by degree.  The
    columns of a degree are popped least source index first from a heap:
    every column is pushed when its degree is loaded, and again whenever
    fill-in creates a unit in it.  The
    pivot of a popped column x is its unit target y with the fewest live
    entries in its row, ties to the least y.  Cancelling x against y adds
    a multiple of dx to every other column with an entry at y, so it
    fills in at most (|dx| - 1)(|row y| - 1) entries; with the column
    fixed, this is the Markowitz choice.  A popped column without a unit
    is left in place.

    Degrees are loaded one at a time, through ``cx.take_d``, when the
    heap runs out, and the loaded columns are consumed in place.  This
    keeps every result.  Fill-in from a degree-r pivot lands only in
    d_r, so the heap runs out only when d_r holds no unit.  The
    cancellations of degree r + 1 then delete rows of d_r and add nothing
    to it, so no unit comes back there; and those of degree r change
    nothing in d_{r+1} but delete the columns of their targets, which
    the loader of degree r + 1 then never builds.  So the reduced
    complex holds no unit entry.  Over a field or a graded F[t] such a
    complex is unique up to isomorphism, and its homology is that of
    ``cx`` whatever the order; only its basis, and so the coordinates
    that ``induced_map`` prints, depend on the order.

    Prescribed pairs are checked up front (each key must exist and sit
    in degrees r, r + 1), then cancelled in degree order by a stable
    sort, which keeps their given order within a degree, and each degree
    is loaded through the same loader when its first pair comes up, so
    the column of a prescribed target is never built.  Reordering across
    degrees changes no result: a cancellation in degree r + 1 deletes
    only row x' of d_r, and one in degree r deletes only column y of
    d_{r+1}, so cancellations of adjacent degrees commute.  The reduced
    complex, and what incl, proj and the homotopy do to every vector, are
    those of the given order.  The only record entries that depend on
    the order are the entries of ``dx`` at an x' and of ``into_y`` at a
    y, and no replay reads them: the projection sends x' to 0 and never
    seeds from it, and the inclusion never holds a cancelled target.
    Whether a pair is already gone or not a unit is checked at its turn.

    Returns a Reduction whose maps satisfy proj∘incl = id and
    id - incl∘proj = dH + Hd.  With track_maps=True the loop records each
    cancellation, and the maps replay that record on the vectors they are
    applied to; with track_maps=False nothing is recorded, the maps are
    None and only the small complex comes back.
    """
    R = cx.ring
    is_zero, is_unit, add, mul, neg = R.is_zero, R.is_unit, R.add, R.mul, R.neg
    degrees = cx.degrees
    alive = {r: set(range(cx.rank(r))) for r in degrees}
    cols = {}   # {r: {source: {target: payload}}} of the loaded degrees
    rows = {}   # {r: {target: sources with an entry at it}}
    steps = []

    def load(r):
        rows.pop(r - 2, None)   # read only by cancellations of degree r - 1
        cols[r] = cols_r = cx.take_d(r, alive[r])
        rows[r] = rows_r = {}
        for s, col in cols_r.items():
            for t in col:
                rows_r.setdefault(t, set()).add(s)
        return cols_r

    unloaded = iter(degrees)
    if pairs is None:
        heap = []   # source indices of degree r
    else:
        queue = []
        for r, sk, tk in pairs:
            rs, si = cx.gen_index(*sk)
            rt, ti = cx.gen_index(*tk)
            if rs != r or rt != r + 1:
                raise ValueError("prescribed pair has wrong degrees")
            queue.append((r, si, ti))
        queue.sort(key=itemgetter(0))
        queue.reverse()  # pop() order below: by degree, as given within one

    while True:
        if pairs is None:
            y = None
            while y is None:
                if not heap:
                    r = next(unloaded, None)
                    if r is None:
                        break
                    heap = list(load(r))
                    heapq.heapify(heap)
                    continue
                x = heapq.heappop(heap)
                col = cols[r].get(x)
                if col:
                    rows_r = rows[r]
                    y = min(((len(rows_r[t]), t) for t, v in col.items()
                             if is_unit(v)), default=(0, None))[1]
            if y is None:
                break
        else:
            if not queue:
                break
            r, x, y = queue.pop()
            while r not in cols:
                load(next(unloaded))
            if x not in alive[r] or y not in alive[r + 1]:
                raise ValueError("prescribed pair already gone")
            if not is_unit(cols[r].get(x, {}).get(y, R.zero)):
                raise ValueError("prescribed pair is not a unit")
        cols_r, rows_r = cols[r], rows[r]

        # take x's column and the arrows into y out of the differential
        dx = cols_r.pop(x)
        uinv = R.inv(dx.pop(y))
        into_y = {w: cols_r[w].pop(y) for w in rows_r.pop(y) if w != x}
        if track_maps:
            steps.append((r, x, y, uinv, dx, into_y))

        # d(w) += -uinv <dw,y> dx for every other w with an arrow into y
        for w, cw in into_y.items():
            coef = neg(mul(uinv, cw))
            col = cols_r[w]
            unit = False
            for t, v in dx.items():
                old = col.get(t)
                nv = mul(coef, v) if old is None else add(old, mul(coef, v))
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
            elif unit and pairs is None:
                heapq.heappush(heap, w)

        # drop the arrows out of x and into x; degree r + 1 is not loaded
        # yet on either route, and its loader skips y once y is not alive
        for t in dx:
            rows_r[t].discard(x)
        if r - 1 in cols:
            cols_below = cols[r - 1]
            for w in rows[r - 1].pop(x, ()):
                col = cols_below[w]
                del col[x]
                if not col:
                    del cols_below[w]
        alive[r].discard(x)
        alive[r + 1].discard(y)

    for r in unloaded:
        load(r)

    # assemble the reduced complex, keeping original key order
    red_gens = {}
    red_qdeg = {}
    keep = {r: sorted(alive[r]) for r in degrees}
    reindex = {}
    for r in degrees:
        red_gens[r] = [cx.gens[r][i] for i in keep[r]]
        red_qdeg[r] = [cx.qdeg[r][i] for i in keep[r]]
        reindex.update(((r, i), j) for j, i in enumerate(keep[r]))
    red_diffs = {}
    for r in degrees:
        blk = {}
        for s, col in cols[r].items():
            newcol = {reindex[(r + 1, t)]: v for t, v in col.items()}
            if newcol:
                blk[reindex[(r, s)]] = newcol
        red_diffs[r] = blk
    red = ChainComplex(cx.theory, red_gens, red_qdeg, diffs=red_diffs)

    if not track_maps:
        return Reduction(cx, red, None, None, None)
    record = _Cancellations(R, steps, keep)
    return Reduction(cx, red,
                     ChainMap(red, cx, record.incl, 0, 0, "incl"),
                     ChainMap(cx, red, record.proj, 0, 0, "proj"),
                     ChainMap(cx, cx, record.homotopy, -1, None, "H"))


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

class DegreePresentation:
    """H_r = (free module on kernel coords) / relations, post-SNF.

    ann[b] is None for a free summand, k >= 1 for a t^k torsion summand;
    order-0 summands are dropped (they are zero in homology).
    """

    def __init__(self, gens, ann, qdeg, gen_vecs):
        self.gens = gens          # indices surviving (into internal data)
        self.ann = ann            # per surviving generator
        self.qdeg = qdeg
        self.gen_vecs = gen_vecs  # cycles in C_r coordinates


def _check_presentable(theory):
    ring = theory.ring
    if not (ring.is_field or isinstance(ring, PolyRing)):
        raise ValueError(
            "homology needs field or univariate polynomial coefficients; "
            "specialize the theory first")
    if isinstance(ring, PolyRing) and not theory.graded:
        raise ValueError(
            "polynomial coefficients need a graded theory: torsion orders "
            "are read as exponents of the normal form's diagonal, and "
            "q-degrees come from the grading")


class HomologyData:
    """The homology of ``cx``, presented one degree at a time by
    ``dense_snf``.  ``method`` decides only whether elimination runs
    first: "reduced" eliminates with maps (``redn``) and presents the
    reduced complex, and chain maps on ``cx`` are pushed through those
    maps; "dense" presents ``cx`` as it is and ``redn`` is None.  A
    complex that is already reduced, like the one ``homology()`` passes
    in, is presented as it is with "dense"."""

    def __init__(self, cx, method="reduced"):
        if method not in ("reduced", "dense"):
            raise ValueError("unknown homology method %r (reduced or dense)"
                             % (method,))
        _check_presentable(cx.theory)
        self.theory = cx.theory
        self.original = cx
        self.method = method
        if method == "reduced":
            self.redn = reduce_complex(cx, track_maps=True)
            self.work = self.redn.red
        else:
            cx.materialize()
            self.redn = None
            self.work = cx
        self._pres = {}
        self._cycles = {}
        self._solvers = {}
        self._rel_snf = {}

    def degrees(self):
        return self.work.degrees

    def _solve(self, r):
        """First SNF: kernel data of d_r on the working complex."""
        if r in self._solvers:
            return self._solvers[r]
        W = self.work
        n_tgt = W.rank(r + 1)
        n_src = W.rank(r)
        M = SparseMat.from_columns(n_tgt, n_src,
                                   {s: dict(c) for s, c in W.d(r).items()},
                                   W.ring)
        res = dense_snf(M)
        kernel_pos = list(range(res.rank, n_src))
        self._solvers[r] = (res, kernel_pos)
        return self._solvers[r]

    def presentation(self, r):
        if r in self._pres:
            return self._pres[r]
        W = self.work
        ring = W.ring
        res, kernel_pos = self._solve(r)
        kappa = len(kernel_pos)
        rres = self._snf_of(r)
        gens = []
        ann = []
        qdeg = []
        gen_vecs = []
        for b in range(kappa):
            if b < rres.rank:
                d = rres.diag[b]
                if isinstance(ring, PolyRing):
                    e = ring.exponent(d)
                else:
                    e = 0
                if e == 0:
                    continue  # unit relation, generator dies
                a = e
            else:
                a = None
            yvec = rres.Uinv.column(b)
            zvec = {}
            for aidx, v in yvec.items():
                p = kernel_pos[aidx]
                for i in res.V.col_support(p):
                    w = ring.add(zvec.get(i, ring.zero),
                                 ring.mul(res.V.get(i, p), v))
                    if ring.is_zero(w):
                        zvec.pop(i, None)
                    else:
                        zvec[i] = w
            q = self._vec_qdeg(r, zvec)
            gens.append(b)
            ann.append(a)
            qdeg.append(q)
            gen_vecs.append(zvec)
        pres = DegreePresentation(gens, ann, qdeg, gen_vecs)
        self._pres[r] = pres
        return pres

    def _vec_qdeg(self, r, vec):
        if not self.theory.graded or not vec:
            return None
        ring = self.work.ring
        qs = set()
        for i, c in vec.items():
            qs.add(self.work.qdeg[r][i] - 2 * ring.exponent(c))
        if len(qs) != 1:
            raise ValueError("homology generator is not q-homogeneous in "
                             "degree %d" % r)
        return qs.pop()

    def canonical_coords(self, r, zvec):
        """Coordinates of a cycle (working coords) in the presentation,
        reduced modulo the annihilators.  The presentation basis is the
        one that elimination and the two SNFs chose, so these are not
        invariants: another elimination order gives the same class other
        coordinates."""
        ring = self.work.ring
        res, kernel_pos = self._solve(r)
        pos_of = {p: a for a, p in enumerate(kernel_pos)}
        y = res.Vinv.apply(zvec)
        yk = {}
        for p, v in y.items():
            if p not in pos_of:
                raise ValueError("canonical_coords: the vector is not a "
                                 "cycle in degree %d" % r)
            yk[pos_of[p]] = v
        rres = self._snf_of(r)
        c = rres.U.apply(yk)
        pres = self.presentation(r)
        out = []
        for slot, b in enumerate(pres.gens):
            v = c.get(b, ring.zero)
            a = pres.ann[slot]
            if a is not None:
                # torsion only arises over F[t]; reduce mod t^a
                v = {k: co for k, co in v.items() if k < a}
            out.append(v)
        return out

    def _snf_of(self, r):
        """SNF of the relation matrix (boundaries in kernel coordinates)."""
        if r in self._rel_snf:
            return self._rel_snf[r]
        W = self.work
        ring = W.ring
        res, kernel_pos = self._solve(r)
        pos_of = {p: a for a, p in enumerate(kernel_pos)}
        rel = SparseMat(len(kernel_pos), W.rank(r - 1), ring)
        below = W.d(r - 1)
        for g in range(W.rank(r - 1)):
            col = below.get(g)
            if not col:
                continue
            y = res.Vinv.apply(col)
            for p, v in y.items():
                if p not in pos_of:
                    raise ValueError("boundary is not a cycle in degree %d"
                                     % r)
                rel.put(pos_of[p], g, v)
        rres = dense_snf(rel)
        self._rel_snf[r] = rres
        return rres

    def to_work_coords(self, r, orig_vec):
        if self.redn is None:
            return orig_vec
        return self.redn.proj.apply(r, orig_vec)

    def gen_cycles_original(self, r):
        """Generator cycles pushed back to the original complex, computed
        once per degree and kept, like the presentation they come from;
        callers must not change them."""
        if r not in self._cycles:
            pres = self.presentation(r)
            if self.redn is None:
                self._cycles[r] = list(pres.gen_vecs)
            else:
                self._cycles[r] = [self.redn.incl.apply(r, z)
                                   for z in pres.gen_vecs]
        return self._cycles[r]

    def summary(self):
        free = {}
        torsion = {}
        for r in self.degrees():
            pres = self.presentation(r)
            for a, q in zip(pres.ann, pres.qdeg):
                if a is None:
                    free[(r, q)] = free.get((r, q), 0) + 1
                else:
                    torsion[(r, q, a)] = torsion.get((r, q, a), 0) + 1
        def _k(t):
            return tuple((x if x is not None else -10**9) for x in t)
        return HomologySummary(
            self.theory.name,
            tuple(sorted(((r, q, m) for (r, q), m in free.items()),
                         key=lambda t: _k(t))),
            tuple(sorted(((r, q, a, m) for (r, q, a), m in torsion.items()),
                         key=lambda t: _k(t))))


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


def homology(cx, method="reduced"):
    """The homology summary of a complex.  The reduced route eliminates
    once, without maps, and presents the small complex that is left as
    it is (``HomologyData(red, method="dense")``): it holds no unit
    entry, so a second elimination would cancel nothing.  The dense
    route presents ``cx`` without elimination."""
    if method == "reduced":
        _check_presentable(cx.theory)
        cx = reduce_complex(cx, track_maps=False).red
        method = "dense"
    return HomologyData(cx, method=method).summary()


# -- induced maps --------------------------------------------------------

def induced_map(f, ha, hb):
    """Matrix of f on homology: canonical coordinates of images of the
    source presentation generators, per degree.  The columns are
    coordinates in the presentation bases that elimination and SNF chose
    for ha and hb, not invariants: another elimination order can give
    the same map another matrix.  ``maps_equal_on_homology`` compares
    two maps in the same bases, which does not depend on that choice."""
    if f.r_shift != 0:
        raise ValueError("induced_map needs a degree-preserving map, got "
                         "r_shift %d" % f.r_shift)
    out = {}
    for r in ha.degrees():
        pres = ha.presentation(r)
        cols = []
        for z in ha.gen_cycles_original(r):
            img = f.apply(r, z)
            w = hb.to_work_coords(r, img)
            cols.append(hb.canonical_coords(r, w))
        if cols:
            out[r] = cols
    return out


def _coords_neg(ring, coords, ann):
    out = []
    for v, a in zip(coords, ann):
        nv = ring.neg(v)
        if a is not None and isinstance(ring, PolyRing):
            nv = {k: c for k, c in nv.items() if k < a}
        out.append(nv)
    return out


def maps_equal_on_homology(f, g, ha, hb, up_to_sign=False):
    """Compare two maps on homology, optionally up to one global sign."""
    mf = induced_map(f, ha, hb)
    mg = induced_map(g, ha, hb)
    ring = hb.work.ring
    def _eq(ma, mb, negate):
        for r in set(ma) | set(mb):
            ca = ma.get(r, [])
            cb = mb.get(r, [])
            if len(ca) != len(cb):
                return False
            ann = hb.presentation(r).ann
            for va, vb in zip(ca, cb):
                vb2 = _coords_neg(ring, vb, ann) if negate else vb
                if len(va) != len(vb2):
                    return False
                for x, y in zip(va, vb2):
                    if not ring.eq(x, y):
                        return False
        return True
    if _eq(mf, mg, False):
        return True
    if up_to_sign and _eq(mf, mg, True):
        return True
    return False


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


# -- independent field-coefficient dimensions ----------------------------

def graded_field_dims(cx):
    """Homology dimensions per (r, q) over a field, via the dense engine
    on q-graded slices.  Used as the second route in dimension
    cross-checks; no reduction, no monomial tricks."""
    ring = cx.ring
    if not ring.is_field:
        raise ValueError("graded_field_dims needs field coefficients, got %s"
                         % ring.name)
    dims = {}
    qvals = {}
    for r in cx.degrees:
        for i, q in enumerate(cx.qdeg[r]):
            qvals.setdefault((r, q), []).append(i)
    ranks = {}
    for (r, q), idxs in sorted(qvals.items()):
        tgt_idx = {i: a for a, i in enumerate(qvals.get((r + 1, q), []))}
        M = SparseMat(len(tgt_idx), len(idxs), ring)
        d = cx.d(r)
        for a, i in enumerate(idxs):
            col = d.get(i, {})
            for t, v in col.items():
                if t in tgt_idx:
                    M.put(tgt_idx[t], a, v)
        ranks[(r, q)] = dense_snf(M, with_transforms=False).rank
    for (r, q), idxs in qvals.items():
        rk_out = ranks.get((r, q), 0)
        rk_in = ranks.get((r - 1, q), 0)
        dim = len(idxs) - rk_out - rk_in
        if dim:
            dims[(r, q)] = dim
    return dims


def bn_to_f2_dims(summary):
    """Expected kh-f2 dimensions from an F2[h] summary: each free summand
    keeps its bidegree, each order-k torsion summand contributes its own
    bidegree and one extra class at (r-1, q-2k)."""
    dims = {}
    for r, q, m in summary.free:
        dims[(r, q)] = dims.get((r, q), 0) + m
    for r, q, k, m in summary.torsion:
        dims[(r, q)] = dims.get((r, q), 0) + m
        key = (r - 1, q - 2 * k)
        dims[key] = dims.get(key, 0) + m
    return dims
