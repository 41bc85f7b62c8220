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
d^2 and chain-map checks, the ``quotient_dims`` oracle) pays for one
build.  Elimination and the r1/r2 read-off of ``cobordism`` consume
their blocks instead: at each degree's turn ``take_d`` hands them the
columns of the sources not cancelled, without the entries at the
read-off's sources of the next degree, a copy of the stored block where
there is one and otherwise a fresh build of only those columns and
entries, which nobody stores.  A cube that only goes through them thus
never holds its whole differential; a reduced complex, which has no
builder, keeps its blocks.

Circle labels are carried between smoothings by one rule and one
table.  ``persisting(rs, rt, skip)`` matches each circle of ``rt`` to
the circle of ``rs`` through its least edge: a circle away from a local
surgery is a circle of ``rs`` whole, and one through it is left
unmatched, its least edge being new or on a circle in ``skip``.
``CubeComplex.carry`` tables, once per match, the target bits of every
source labelling.  The cube's edges and the birth, death, saddle and
r1/r2 maps of ``cobordism`` read their labels off these two.

The differential is built from edge shapes.  An edge's plan is the
``band_plan`` at its crossing's edges a and c on both sides
(``edge_plan``): which circles merge or split, and the ``persisting``
match of the others.  Its plan and sign make its shape; edges out of
different states share it wherever their circles line up alike, as most
do (on the cube of 8_19 under bn, 1,024 edges have 63 shapes).  Each
shape's label table is built once: the ``carry`` table of its match,
and for every source labelling the (bits, payload) pairs that its
labels on the merging or splitting circles give under the theory's
``mul_basis`` and ``comul_basis``.  An edge then writes its target
block's offset plus the table's labels, and a state whose target
generators are all dropped is not visited through that edge.  Distinct
edges out of one generator reach distinct states, so every entry is
assigned once and nothing is accumulated.

``CubeComplex.gen_index`` is the lookup of a generator (state, labels):
the state's block offset in ``state_block`` plus the labels.

Chain maps are evaluated on the sparse vectors they are applied to.
Every local map on the cube (a saddle, birth, death or decoration of
``cobordism``) is a label table per state in an edge shape's layout,
read entry by entry off a whole vector by one kernel, ``table_map``; a
saddle's table is its ``band_plan``'s shape without a sign.  Sums,
multiples and composites act on whole vectors too.  A map's matrix is
built on demand, from the generator images, only where a check asks
for it.
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

    # (r, skip=(), drop=()) -> block, for a subclass that builds blocks
    # on demand; a method, so that a complex holds no reference to itself
    _build_degree = None

    def __init__(self, theory, gens, qdeg, diffs=None):
        self.theory = theory
        self.ring = theory.ring
        self.gens = gens            # {r: [key, ...]}
        self.qdeg = qdeg            # {r: [int or None, ...]}
        self._diffs = dict(diffs) if diffs else {}

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
            if self._build_degree is not None and r in self.gens:
                self._diffs[r] = self._build_degree(r)
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
        if r in self._diffs or self._build_degree is None:
            out = {}
            for s, c in self.d(r).items():
                if s not in skip:
                    col = {t: v for t, v in c.items() if t not in drop}
                    if col:
                        out[s] = col
            return out
        return self._build_degree(r, skip, drop)

    def materialize(self):
        for r in self.degrees:
            self.d(r)
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

def persisting(rs, rt, skip=()):
    """For each circle of smoothing ``rt``, the circle of ``rs`` through
    its least edge, the one that persists as it; None where that edge is
    not in ``rs`` or lies on a circle listed in ``skip``."""
    index = rs.index
    match = []
    for circ in rt.circles:
        m = index.get(circ[0])
        match.append(None if m in skip else m)
    return tuple(match)


def band_plan(rs, rt, ends, tends):
    """The band from smoothing ``rs`` to ``rt`` whose ends are the source
    edges ``ends`` and the target edges ``tends``: ('merge', ia, ib, it,
    match) where the ends lie on two source circles, which must become
    one, or ('split', ia, it1, it2, match) where they lie on one, which
    must become two.  match[j] is the source circle persisting as target
    circle j, None at the merged or split positions.  A band that does
    not change the circle count as it must raises ValueError."""
    a, b = ends
    ta, tb = tends
    ia, ib = rs.index[a], rs.index[b]
    ja, jb = rt.index[ta], rt.index[tb]
    # a target circle off the band is a source circle whole, so its least
    # edge names it; the merged or split circles hold only edges of
    # circles ia and ib
    match = persisting(rs, rt, (ia, ib))
    if ia != ib:
        if ja != jb or len(match) != len(rs.circles) - 1:
            raise ValueError("band joining two circles must merge them")
        return "merge", ia, ib, ja, match
    if ja == jb or len(match) != len(rs.circles) + 1:
        raise ValueError("band on one circle must split it")
    return "split", ia, ja, jb, match


class CubeComplex(ChainComplex):
    """The cube of resolutions of a diagram, with its local structure."""

    def __init__(self, diagram, theory):
        self.diagram = diagram
        n = diagram.n
        shift = diagram.n_plus - 2 * diagram.n_minus
        self.states_by_weight = {}
        for s in range(1 << n):
            self.states_by_weight.setdefault(s.bit_count(), []).append(s)
        gens = {}
        qdeg = {}
        self.state_block = {}
        qrows = {}      # c -> c - 2 |labels| for labels 0 .. 2^c - 1
        for w in range(n + 1):
            r = w - diagram.n_minus
            keys = []
            qs = []
            for s in self.states_by_weight.get(w, ()):
                c = len(diagram.resolve(s))
                self.state_block[s] = (r, len(keys), c)
                keys += zip(repeat(s), range(1 << c))
                if theory.graded:
                    if c not in qrows:
                        qrows[c] = [c - 2 * labels.bit_count()
                                    for labels in range(1 << c)]
                    qs += [shift + w + q for q in qrows[c]]
            gens[r] = keys
            qdeg[r] = qs if theory.graded else [None] * len(keys)
        super().__init__(theory, gens, qdeg)
        self._plans = {}
        self._signed = {}
        self._carries = {}  # (match, source circle count) -> target bits
        self._shapes = {}   # (plan, sign) -> label table
        # decoration tables of this complex, filled by
        # cobordism.decoration_chain_map: {(kind, circle count, decorated
        # circle): (carry table, rows)}
        self.decorations = {}
        # r1/r2 move read-offs of this complex, filled by
        # cobordism._reidemeister_reduction: {(smaller complex, frozenset
        # of the crossings the move removes): (record, fwd, bwd)}
        self.move_reductions = {}

    def gen_index(self, s, labels):
        """(degree, position) of generator (s, labels) of this cube."""
        r, off, _ = self.state_block[s]
        return r, off + labels

    def edge_plan(self, s, i):
        """The ``band_plan`` of the cube edge flipping crossing i at state
        s, a band whose ends are the crossing's edges a and c on both
        sides: after a split, c lies on the circle of b."""
        key = (s, i)
        plan = self._plans.get(key)
        if plan is None:
            D = self.diagram
            a, _, c, _ = D.crossings[i]
            plan = self._plans[key] = band_plan(
                D.resolve(s), D.resolve(s | 1 << i), (a, c), (a, c))
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

    def carry(self, match, nsrc):
        """The target bits of each labelling L of ``nsrc`` source circles
        under a ``persisting`` match, as a list: bit j of ``base[L]`` is
        L's bit of circle match[j], or 0, the label 1, where match[j] is
        None.  Built once per (match, nsrc) and kept."""
        key = match, nsrc
        base = self._carries.get(key)
        if base is None:
            dest = [0] * nsrc
            for j, mj in enumerate(match):
                if mj is not None:
                    dest[mj] |= 1 << j
            base = [0]
            for bit in dest:
                base += [b + bit for b in base]
            self._carries[key] = base
        return base

    def _shape(self, plan, sign):
        """The label table of an edge shape, a ``band_plan`` with its
        cube sign (1 for minus), as two lists over the source
        labels L: ``base[L]`` of ``carry``, the target bits of L's
        persisting circles, and ``rows[L]``, the (bits, payload) pairs
        that L's labels on the merging or splitting circles give.  The
        image of L is base[L] + bits with its payload, for each pair.
        Built once per shape and shared by its edges."""
        key = plan, sign
        shape = self._shapes.get(key)
        if shape is None:
            kind, ia, j1, j2, match = plan
            merge, split = self._signed_images(sign)
            base = self.carry(match,
                              len(match) + (1 if kind == "merge" else -1))
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
    first time it is asked for and then kept.  ``q_shift`` records the
    declared quantum degree when known (None otherwise).
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


def table_map(source, target, plan, r_shift=0, q_shift=None, name=""):
    """The local map whose per-state label table ``plan(s)`` gives as
    (toff, base, rows), the layout of an edge's shape: the image of
    generator (s, L) is the sum of c at target index toff + base[L] +
    bits, for (bits, c) in rows[L].  The map reads a whole vector entry
    by entry, building no image per generator."""
    R = source.ring
    add, mul, is_zero = R.add, R.mul, R.is_zero

    def act(r, vec):
        gens = source.gens[r]
        out = {}
        for i, a in vec.items():
            s, L = gens[i]
            toff, base, rows = plan(s)
            tb = toff + base[L]
            for bits, c in rows[L]:
                k = tb + bits
                old = out.get(k)
                if old is None:
                    # c and a are nonzero, and every ring is a domain
                    out[k] = mul(c, a)
                    continue
                v = add(old, mul(c, a))
                if is_zero(v):
                    del out[k]
                else:
                    out[k] = v
        return out
    return ChainMap(source, target, act, r_shift, q_shift, name)


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
