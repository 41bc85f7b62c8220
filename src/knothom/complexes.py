"""Cochain complexes from cubes of resolutions, plus chain maps.

A generator is (state, labels): ``state`` picks a smoothing bit per
crossing, ``labels`` picks 1 or X per circle of that smoothing (bit i of
``labels`` labels circle i with X).  Homological degree r = |state| - n-,
quantum degree q = n+ - 2 n- + |state| + (#circles - 2 |labels|), and
ring generators in coefficients count -2 each.

Within a homological degree the generators are ordered by (state,
labels), so each state occupies a contiguous block.  The differential
follows cube edges with the usual sign (-1)^(ones below the flipped
bit); matrices are sparse dicts {source index: {target index: payload}}.

A complex holds its differential as one block per degree.  ``d(r)``
stores the block it returns, so every reader that comes back to it (the
d^2 and chain-map checks, the ``quotient_dims`` oracle, relabelling in
``cobordism``) pays for one build.  Elimination consumes its blocks
instead: at each degree's turn ``take_d`` hands it the columns of the
sources it has not cancelled, without the entries at the targets it
will cancel as sources of the next degree, a copy of the stored block
where there is one and otherwise a fresh build of only those columns
and entries, which nobody stores.  A cube that only goes through
elimination thus never holds its whole differential; a reduced complex,
which has no builder, always keeps its blocks.

The differential is built from edge shapes.  An edge's plan (which
circles merge or split, and which source circle persists as each other
target circle) and its sign make its shape; edges out of different
states share it wherever their circles line up alike, as most do (on
the cube of 8_19 under bn, 1,024 edges have 63 shapes).  Each shape's
label table is built once, from the theory's ``mul_basis`` and
``comul_basis``: for every source labelling, the target bits of its
persisting circles and the (bits, payload) pairs that its labels on
the merging or splitting circles give.  An edge then writes its target
block's offset plus the table's labels, and a state whose target
generators are all dropped is not visited through that edge.  Distinct
edges out of one generator reach distinct states, so every entry is
assigned once and nothing is accumulated.  ``plan_images`` of
``edge_plan`` gives the same images one generator at a time, without
the sign; the tests keep the two routes equal.

``CubeComplex.gen_index`` is the lookup of a generator (state, labels):
the state's block offset in ``state_block`` plus the labels.  The
elementary maps of ``cobordism`` read that offset once per state, with
the rest of the state's plan; its r1/r2 pair halves read the cancelling
edge's ``edge_plan`` the same way.  ``edge_plan`` reads each target
circle's persisting source off the circle's least edge, since a circle
away from the surgery keeps its edges.  ``circle_match``, ``transport``
and ``plan_images`` carry circle labels through a local surgery; the
saddle, birth and death maps of ``cobordism`` use them, and the tests
hold ``edge_plan`` to ``circle_match``.

Chain maps are evaluated on the sparse vectors they are applied to: an
elementary map gives the image of one generator, and sums, multiples and
composites act on whole vectors.  A map's matrix is built on demand,
from the generator images, only where a check asks for it.
"""

from dataclasses import dataclass, field
from itertools import repeat


# -- sparse column-major matrix helpers ----------------------------------

def axpy(R, out, c, vec):
    """out += c * vec in place, dropping zeros; returns out.  When c is
    one, as it mostly is, no entry pays for a multiplication."""
    one = c == R.one
    for j, v in vec.items():
        w = R.add(out.get(j, R.zero), v if one else R.mul(c, v))
        if R.is_zero(w):
            out.pop(j, None)
        else:
            out[j] = w
    return out


def mat_vec(R, column, vec):
    """Sum of c * column(i) over the entries i: c of a sparse vector;
    ``column(i)`` is a sparse vector or None."""
    out = {}
    for i, c in vec.items():
        col = column(i)
        if col:
            axpy(R, out, c, col)
    return out


def mat_mul(R, g, f):
    """Columns of g∘f when both are {src: {tgt: payload}} column maps."""
    out = {}
    for src, col in f.items():
        acc = mat_vec(R, g.get, col)
        if acc:
            out[src] = acc
    return out


def mat_add(R, a, b):
    out = {src: dict(col) for src, col in a.items()}
    for src, col in b.items():
        acc = axpy(R, out.setdefault(src, {}), R.one, col)
        if not acc:
            del out[src]
    return out


def mat_eq(R, a, b):
    srcs = set(a) | set(b)
    for s in srcs:
        ca, cb = a.get(s, {}), b.get(s, {})
        for t in set(ca) | set(cb):
            if not R.eq(ca.get(t, R.zero), cb.get(t, R.zero)):
                return False
    return True


class ChainComplex:
    """Container for a bigraded cochain complex over a theory's ring."""

    def __init__(self, theory, gens, qdeg, diff_builder=None, diffs=None):
        self.theory = theory
        self.ring = theory.ring
        self.gens = gens            # {r: [key, ...]}
        self.qdeg = qdeg            # {r: [int or None, ...]}
        self._diffs = dict(diffs) if diffs else {}
        self._diff_builder = diff_builder   # (r, skip=(), drop=()) -> block

    @property
    def degrees(self):
        return sorted(self.gens)

    def rank(self, r):
        return len(self.gens.get(r, ()))

    def total_rank(self):
        return sum(len(v) for v in self.gens.values())

    def d(self, r):
        """Differential out of degree r as {src: {tgt: payload}}, stored
        on first read and kept for every later reader."""
        if r not in self._diffs:
            if self._diff_builder is not None and r in self.gens:
                self._diffs[r] = self._diff_builder(r)
            else:
                self._diffs[r] = {}
        return self._diffs[r]

    def take_d(self, r, skip, drop=()):
        """The columns of d out of degree r whose source is not in
        ``skip``, without their entries at targets in ``drop`` and
        without the columns that leaves empty, for a caller that
        consumes them in place: a copy of the stored block when there is
        one (a complex built from its blocks, or a cube whose block was
        read through ``d``), else a fresh build from the builder that is
        not stored, so the complex never holds it."""
        if r in self._diffs or self._diff_builder is None:
            out = {}
            for s, c in self.d(r).items():
                if s not in skip:
                    col = {t: v for t, v in c.items() if t not in drop}
                    if col:
                        out[s] = col
            return out
        return self._diff_builder(r, skip, drop)

    def materialize(self):
        for r in self.degrees:
            self.d(r)
        self._diff_builder = None
        return self

    def check_d_squared(self):
        """Full sparse composition d∘d per degree; raises ValueError on
        failure."""
        R = self.ring
        for r in self.degrees:
            if mat_mul(R, self.d(r + 1), self.d(r)):
                raise ValueError("d^2 != 0 out of degree %d" % r)
        return True

    def check_q_homogeneity(self):
        """Every differential entry must preserve q (coefficients count);
        raises ValueError on failure."""
        if not self.theory.graded:
            return True
        R = self.ring
        for r in self.degrees:
            qs = self.qdeg[r]
            qt = self.qdeg.get(r + 1, [])
            for src, col in self.d(r).items():
                for tgt, c in col.items():
                    if not R.is_homogeneous(c):
                        raise ValueError("differential entry is not "
                                         "homogeneous at degree %d" % r)
                    # c * gen_tgt sits in degree qt - 2 exp(c); d preserves q
                    if qt[tgt] - 2 * R.exponent(c) != qs[src]:
                        raise ValueError(
                            "differential entry changes q at degree %d" % r)
        return True

    def graded_euler_characteristic(self):
        """Sum of (-1)^r q^j over generators, as {j: int}.

        Only meaningful over a field (free modules of known rank); ask
        for the kh-f2 complex or another field specialization.
        """
        if not self.ring.is_field:
            raise ValueError(
                "Euler characteristic needs field coefficients; "
                "use kh-f2 or a field specialization")
        if not self.theory.graded:
            raise ValueError("Euler characteristic needs a graded theory")
        out = {}
        for r, qs in self.qdeg.items():
            sgn = -1 if r % 2 else 1
            for q in qs:
                out[q] = out.get(q, 0) + sgn
                if out[q] == 0:
                    del out[q]
        return out


# -- circle labels through a local surgery -------------------------------

def circle_match(rs, rt, skip=()):
    """For each circle of smoothing ``rt``, the circle of ``rs`` that
    persists as it, found through an edge that lies in ``rs`` on a circle
    not listed in ``skip``; None where there is no such edge."""
    match = []
    for circ in rt.circles:
        match.append(next((rs.index[e] for e in circ
                           if e in rs.index and rs.index[e] not in skip),
                          None))
    return tuple(match)


def transport(labels, match):
    """Target labels whose bit j is the bit of source circle match[j]
    (0, the label 1, where match[j] is None)."""
    out = 0
    for j, mj in enumerate(match):
        if mj is not None and labels >> mj & 1:
            out |= 1 << j
    return out


def plan_images(theory, plan, labels):
    """Images of ``labels`` under a merge or split ``plan`` shaped as
    ``CubeComplex.edge_plan`` returns it: yields (target labels, payload),
    without a sign."""
    kind = plan[0]
    base = transport(labels, plan[4])
    if kind == "merge":
        _, ia, ib, it, _ = plan
        prod = theory.mul_basis(labels >> ia & 1, labels >> ib & 1)
        for comp in (0, 1):
            coeff = prod[comp]
            if not theory.ring.is_zero(coeff):
                yield base | (comp << it), coeff
    else:
        _, ia, it1, it2, _ = plan
        for (l1, l2), coeff in theory.comul_basis(labels >> ia & 1).items():
            yield base | (l1 << it1) | (l2 << it2), coeff


class CubeComplex(ChainComplex):
    """The cube of resolutions of a diagram, with its local structure."""

    def __init__(self, diagram, theory):
        self.diagram = diagram
        n = diagram.n
        shift = diagram.n_plus - 2 * diagram.n_minus
        self.states_by_weight = {}
        for s in range(1 << n):
            self.states_by_weight.setdefault(s.bit_count(), []).append(s)
        # the smoothing of each state, read by edge_plan
        self._res = [diagram.resolve(s) for s in range(1 << n)]
        gens = {}
        qdeg = {}
        self.state_block = {}
        qrows = {}      # c -> c - 2 |labels| for labels 0 .. 2^c - 1
        for w in range(n + 1):
            r = w - diagram.n_minus
            keys = []
            qs = []
            for s in self.states_by_weight.get(w, ()):
                c = len(self._res[s])
                self.state_block[s] = (r, len(keys), c)
                keys += zip(repeat(s), range(1 << c))
                if theory.graded:
                    if c not in qrows:
                        qrows[c] = [c - 2 * labels.bit_count()
                                    for labels in range(1 << c)]
                    qs += [shift + w + q for q in qrows[c]]
            gens[r] = keys
            qdeg[r] = qs if theory.graded else [None] * len(keys)
        super().__init__(theory, gens, qdeg, diff_builder=self._build_degree)
        self._plans = {}
        self._signed = {}
        self._shapes = {}   # (plan, sign) -> label table
        # r1/r2 move eliminations of this complex, filled by
        # cobordism._reidemeister_map: {(smaller complex, frozenset of the
        # crossings the move removes): (reduction, fwd, bwd)}
        self.move_reductions = {}

    def gen_index(self, s, labels):
        """(degree, position) of generator (s, labels) of this cube."""
        r, off, _ = self.state_block[s]
        return r, off + labels

    def edge_plan(self, s, i):
        """Local structure of the cube edge flipping crossing i at state s.

        Returns ('merge', ia, ib, it, match) or ('split', ia, it1, it2,
        match) where match[j] is the source circle persisting as target
        circle j (None at the merged/split positions).
        """
        key = (s, i)
        if key in self._plans:
            return self._plans[key]
        rs, rt = self._res[s], self._res[s | 1 << i]
        a, b, c, d = self.diagram.crossings[i]
        src = rs.index
        ia, ic = src[a], src[c]
        # a target circle off the surgery is a source circle whole, so
        # its least edge names it; the merged or split circles hold only
        # edges of circles ia and ic
        firsts = [src[circ[0]] for circ in rt.circles]
        match = tuple([None if m == ia or m == ic else m for m in firsts])
        if ia != ic:
            it = rt.index[a]
            if rt.index[c] != it:
                raise ValueError("smoothing change at crossing %d must merge "
                                 "its two circles" % i)
            plan = ("merge", ia, ic, it, match)
        else:
            it1, it2 = rt.index[a], rt.index[b]
            if it1 == it2:
                raise ValueError("planar smoothing change must split here")
            plan = ("split", ia, it1, it2, match)
        self._plans[key] = plan
        return plan

    def _signed_images(self, negate):
        """The theory's basis images with the cube sign applied: merge row
        2a + b lists (label, coeff) of the product of labels a and b, split
        row a lists ((l1, l2), coeff) of the coproduct of label a."""
        key = bool(negate)
        if key not in self._signed:
            T, R = self.theory, self.ring
            sign = R.from_int(-1) if key else R.one
            merge = tuple(
                tuple((comp, R.mul(sign, coeff))
                      for comp, coeff in enumerate(T.mul_basis(a, b))
                      if not R.is_zero(coeff))
                for a in (0, 1) for b in (0, 1))
            split = tuple(
                tuple((lab, R.mul(sign, coeff))
                      for lab, coeff in T.comul_basis(a).items())
                for a in (0, 1))
            self._signed[key] = merge, split
        return self._signed[key]

    def _shape(self, plan, sign):
        """The label table of an edge shape, a ``plan`` of ``edge_plan``
        with its cube sign (1 for minus), as two lists over the source
        labels L: ``base[L]``, the target bits of L's persisting circles,
        and ``rows[L]``, the (bits, payload) pairs that L's labels on the
        merging or splitting circles give.  The image of L is base[L] +
        bits with its payload, for each pair.  Built once per shape and
        shared by its edges."""
        key = plan, sign
        shape = self._shapes.get(key)
        if shape is None:
            kind, ia, j1, j2, match = plan
            merge, split = self._signed_images(sign)
            dest = [0] * (len(match) + (1 if kind == "merge" else -1))
            for j, mj in enumerate(match):
                if mj is not None:
                    dest[mj] = 1 << j
            base = [0]
            for bit in dest:
                base += [b + bit for b in base]
            if kind == "merge":
                ib = j1
                rows = [tuple((comp << j2, coeff) for comp, coeff in row)
                        for row in merge]
            else:
                # a split reads one circle: with ib = ia the row key
                # below is 0 or 3
                ib = ia
                one, x = (tuple(((l1 << j1) | (l2 << j2), coeff)
                                for (l1, l2), coeff in row)
                          for row in split)
                rows = [one, (), (), x]
            shape = base, [rows[(L >> ia & 1) << 1 | (L >> ib & 1)]
                           for L in range(len(base))]
            self._shapes[key] = shape
        return shape

    def _build_degree(self, r, skip=(), drop=()):
        """Columns of d out of degree r, from the label tables of the edge
        shapes (see the module docstring).  The columns of the sources in
        ``skip``, indices of degree r, are not built, and neither is a
        state all of whose generators are skipped.  No entry at a target
        in ``drop``, indices of degree r + 1, is built, and no edge into
        a state all of whose generators are dropped."""
        D = self.diagram
        block = self.state_block
        shape = self._shape
        odd = self.ring.char != 2
        dead = {}           # target state -> all its generators dropped
        cols = {}
        for s in self.states_by_weight.get(r + D.n_minus, ()):
            _, off, c = block[s]
            live = range(1 << c)
            if skip:
                live = [L for L in live if off + L not in skip]
                if not live:
                    continue
            edges = []
            below = 0       # ones of s below bit i
            for i in range(D.n):
                if s >> i & 1:
                    below += 1
                    continue
                t = s | 1 << i
                toff = block[t][1]
                if drop:
                    if t not in dead:
                        dead[t] = all(j in drop for j in
                                      range(toff, toff + (1 << block[t][2])))
                    if dead[t]:
                        continue
                base, rows = shape(self.edge_plan(s, i), below & odd)
                edges.append((toff, base, rows))
            for L in live:
                col = {tb + bits: v
                       for toff, base, rows in edges
                       for tb in (toff + base[L],)
                       for bits, v in rows[L]
                       if tb + bits not in drop}
                if col:
                    cols[off + L] = col
        return cols


def build_complex(diagram, theory):
    return CubeComplex(diagram, theory)


@dataclass(eq=False)
class ChainMap:
    """A map of complexes, evaluated on the sparse vectors it is applied to.

    ``act(r, vec)`` sends a sparse vector {index: payload} of source degree
    r to a new sparse vector of target degree r + r_shift; it is the map's
    only representation.  ``block(r)``, the matrix out of degree r as
    {src: {tgt: payload}}, is built from the images of the generators the
    first time it is asked for and then kept; a map made from a matrix
    starts with it.  ``q_shift`` records the declared quantum degree when
    known (None otherwise).
    """

    source: ChainComplex
    target: ChainComplex
    act: object
    r_shift: int = 0
    q_shift: int = None
    name: str = ""
    _blocks: dict = field(default_factory=dict, repr=False)

    @property
    def ring(self):
        return self.source.ring

    def apply(self, r, vec):
        return self.act(r, vec) if vec else {}

    def block(self, r):
        if r not in self._blocks:
            one = self.ring.one
            blk = {}
            for i in range(self.source.rank(r)):
                col = self.apply(r, {i: one})
                if col:
                    blk[i] = col
            self._blocks[r] = blk
        return self._blocks[r]

    @property
    def blocks(self):
        return {r: self.block(r) for r in self.source.degrees if self.block(r)}

    def is_chain_map(self):
        R = self.ring
        for r in self.source.degrees:
            lhs = mat_mul(R, self.target.d(r + self.r_shift), self.block(r))
            rhs = mat_mul(R, self.block(r + 1), self.source.d(r))
            if not mat_eq(R, lhs, rhs):
                return False
        return True


def generator_map(source, target, image, r_shift=0, q_shift=None, name=""):
    """The map sending generator i of source degree r to ``image(r, i)``,
    a sparse column of the target (or None for zero)."""
    R = source.ring
    return ChainMap(source, target,
                    lambda r, vec: mat_vec(R, lambda i: image(r, i), vec),
                    r_shift, q_shift, name)


def matrix_map(source, target, blocks, r_shift=0, q_shift=None, name=""):
    """The map with the given per-degree matrix blocks, which it keeps."""
    f = generator_map(source, target, lambda r, i: blocks.get(r, {}).get(i),
                      r_shift, q_shift, name)
    f._blocks = {r: blocks.get(r, {}) for r in source.degrees}
    return f


def identity_map(cx):
    return ChainMap(cx, cx, lambda r, vec: dict(vec), 0, 0, "id")


def zero_map(src, tgt, r_shift=0, q_shift=None):
    return ChainMap(src, tgt, lambda r, vec: {}, r_shift, q_shift, "0")


def compose(g, f):
    """g after f: f acts on the whole vector, then g on the merged result."""
    if not (f.target is g.source or f.target.gens is g.source.gens
            or f.target.gens == g.source.gens):
        raise ValueError("compose: the target of %r is not the source of %r"
                         % (f.name, g.name))
    q = None
    if f.q_shift is not None and g.q_shift is not None:
        q = f.q_shift + g.q_shift
    return ChainMap(f.source, g.target,
                    lambda r, vec: g.apply(r + f.r_shift, f.apply(r, vec)),
                    f.r_shift + g.r_shift, q,
                    "%s∘%s" % (g.name, f.name) if f.name or g.name else "")


def add_maps(f, g):
    if not (f.source is g.source and f.target is g.target):
        raise ValueError("add_maps: the maps have different sources or "
                         "targets")
    if f.r_shift != g.r_shift:
        raise ValueError("add_maps: the maps shift degree differently")
    R = f.ring
    q = f.q_shift if f.q_shift == g.q_shift else None
    return ChainMap(
        f.source, f.target,
        lambda r, vec: axpy(R, f.apply(r, vec), R.one, g.apply(r, vec)),
        f.r_shift, q)


def scale_map(c, f):
    R = f.ring
    return ChainMap(f.source, f.target,
                    lambda r, vec: axpy(R, {}, c, f.apply(r, vec)),
                    f.r_shift, f.q_shift, f.name)


def maps_equal(f, g):
    if f.r_shift != g.r_shift:
        return False
    R = f.ring
    return all(mat_eq(R, f.block(r), g.block(r)) for r in f.source.degrees)
