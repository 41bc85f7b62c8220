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

The differential is built edge by edge, not label by label.  For each
state and free bit, the edge's plan (which circles merge or split, and
where the others go) is read once and its sign applied once, to a 4-row
table of merge images or a 2-row table of split images taken from the
theory's ``mul_basis`` and ``comul_basis``.  A label's target is then the
image of its persisting circles, built for all labels at once by
doubling, plus the table row picked by the label's bits on the merging or
splitting circles.  Distinct edges out of one generator reach distinct
states, so every entry is assigned once and nothing is accumulated.
``edge_images`` yields the same images one generator at a time, without
the sign, for ``check_faces`` and for the pair finders of the r1/r2 maps
in ``cobordism``; a test keeps the two routes equal.

Chain maps are evaluated on the sparse vectors they are applied to: an
elementary map gives the image of one generator, and sums, multiples and
composites act on whole vectors.  A map's matrix is built on demand,
from the generator images, only where a check asks for it.
"""

from dataclasses import dataclass, field


def popcount(x):
    return bin(x).count("1")


# -- sparse column-major matrix helpers ----------------------------------

def axpy(R, out, c, vec):
    """out += c * vec in place, dropping zeros; returns out."""
    for j, v in vec.items():
        w = R.add(out.get(j, R.zero), R.mul(c, v))
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
        self.index = {}
        for r, keys in gens.items():
            for i, k in enumerate(keys):
                self.index[k] = (r, i)
        self._diffs = dict(diffs) if diffs else {}
        self._diff_builder = diff_builder

    @property
    def degrees(self):
        return sorted(self.gens)

    def rank(self, r):
        return len(self.gens.get(r, ()))

    def total_rank(self):
        return sum(len(v) for v in self.gens.values())

    def d(self, r):
        """Differential out of degree r as {src: {tgt: payload}}."""
        if r not in self._diffs:
            if self._diff_builder is not None and r in self.gens:
                self._diffs[r] = self._diff_builder(r)
            else:
                self._diffs[r] = {}
        return self._diffs[r]

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


class CubeComplex(ChainComplex):
    """The cube of resolutions of a diagram, with its local structure."""

    def __init__(self, diagram, theory):
        self.diagram = diagram
        n = diagram.n
        shift = diagram.n_plus - 2 * diagram.n_minus
        self.states_by_weight = {}
        for s in range(1 << n):
            self.states_by_weight.setdefault(popcount(s), []).append(s)
        gens = {}
        qdeg = {}
        self.state_block = {}
        for w in range(n + 1):
            r = w - diagram.n_minus
            keys = []
            qs = []
            for s in self.states_by_weight.get(w, ()):
                res = diagram.resolve(s)
                c = len(res)
                self.state_block[s] = (r, len(keys), c)
                for labels in range(1 << c):
                    keys.append((s, labels))
                    if theory.graded:
                        qs.append(shift + w + c - 2 * popcount(labels))
                    else:
                        qs.append(None)
            gens[r] = keys
            qdeg[r] = qs
        super().__init__(theory, gens, qdeg, diff_builder=self._build_degree)
        self._plans = {}
        self._signed = {}
        # r1/r2 move eliminations of this complex, filled by
        # cobordism._reidemeister_map: {(smaller complex, frozenset of the
        # crossings the move removes): (reduction, fwd, bwd)}
        self.move_reductions = {}

    def gen_index(self, s, labels):
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
        D = self.diagram
        t = s | (1 << i)
        rs, rt = D.resolve(s), D.resolve(t)
        a, b, c, d = D.crossings[i]
        ia, ic = rs.index[a], rs.index[c]
        participating = {ia, ic}
        match = []
        for j, circ in enumerate(rt.circles):
            rep = next((e for e in circ if rs.index[e] not in participating), None)
            match.append(rs.index[rep] if rep is not None else None)
        if ia != ic:
            it = rt.index[a]
            if rt.index[c] != it:
                raise ValueError("smoothing change at crossing %d must merge "
                                 "its two circles" % i)
            plan = ("merge", ia, ic, it, tuple(match))
        else:
            it1, it2 = rt.index[a], rt.index[b]
            if it1 == it2:
                raise ValueError("planar smoothing change must split here")
            plan = ("split", ia, it1, it2, tuple(match))
        self._plans[key] = plan
        return plan

    def edge_images(self, s, i, labels):
        """Images of generator (s, labels) under the cube edge at i.

        Yields (target_labels, payload) without the cube sign.
        """
        T = self.theory
        plan = self.edge_plan(s, i)
        kind = plan[0]
        match = plan[4]
        base = 0
        for j, mj in enumerate(match):
            if mj is not None and labels >> mj & 1:
                base |= 1 << j
        if kind == "merge":
            _, ia, ib, it, _ = plan
            prod = T.mul_basis(labels >> ia & 1, labels >> ib & 1)
            for comp in (0, 1):
                coeff = prod[comp]
                if not T.ring.is_zero(coeff):
                    yield base | (comp << it), coeff
        else:
            _, ia, it1, it2, _ = plan
            for (l1, l2), coeff in T.comul_basis(labels >> ia & 1).items():
                yield base | (l1 << it1) | (l2 << it2), coeff

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

    def _build_degree(self, r):
        """Columns of d out of degree r, edge by edge from per-edge label
        tables (see the module docstring)."""
        D = self.diagram
        flip_signs = self.ring.char != 2
        cols = {}
        for s in self.states_by_weight.get(r + D.n_minus, ()):
            _, off, c = self.state_block[s]
            images = [{} for _ in range(1 << c)]
            below = 0       # ones of s below bit i
            for i in range(D.n):
                if s >> i & 1:
                    below += 1
                    continue
                _, toff, _ = self.state_block[s | (1 << i)]
                plan = self.edge_plan(s, i)
                # base[L]: toff plus the target bits of L's persisting circles
                dest = [0] * c
                for j, mj in enumerate(plan[4]):
                    if mj is not None:
                        dest[mj] = 1 << j
                base = [toff]
                for bit in dest:
                    base += [b + bit for b in base]
                merge, split = self._signed_images(flip_signs and below & 1)
                if plan[0] == "merge":
                    _, ia, ib, it, _ = plan
                    rows = [tuple((comp << it, coeff) for comp, coeff in row)
                            for row in merge]
                else:
                    # a split reads one circle: with ib = ia the row key
                    # below is 0 or 3
                    _, ia, it1, it2, _ = plan
                    ib = ia
                    one, x = (tuple(((l1 << it1) | (l2 << it2), coeff)
                                    for (l1, l2), coeff in row)
                              for row in split)
                    rows = [one, (), (), x]
                for L, col in enumerate(images):
                    b = base[L]
                    for bits, coeff in rows[(L >> ia & 1) << 1 | (L >> ib & 1)]:
                        col[b + bits] = coeff
            for L, col in enumerate(images):
                if col:
                    cols[off + L] = col
        return cols

    def check_faces(self):
        """Anticommutation of every 2-face of the cube, generator by
        generator.  Equivalent to d^2 = 0 but local, so it stays cheap on
        theories whose full differential is expensive to materialize.
        Raises ValueError on a face that does not anticommute."""
        R = self.ring
        n = self.diagram.n
        for s in range(1 << n):
            _, _, c = self.state_block[s]
            free_bits = [i for i in range(n) if not s >> i & 1]
            for x, i in enumerate(free_bits):
                for j in free_bits[x + 1:]:
                    si, sj = s | (1 << i), s | (1 << j)
                    for labels in range(1 << c):
                        acc = {}
                        for mid, c1 in self.edge_images(s, i, labels):
                            for tgt, c2 in self.edge_images(si, j, mid):
                                v = R.mul(c1, c2)
                                w = R.add(acc.get(tgt, R.zero), v)
                                if R.is_zero(w):
                                    acc.pop(tgt, None)
                                else:
                                    acc[tgt] = w
                        # second path enters with the opposite sign: the
                        # below-the-bit rule always gives the two orders
                        # of a face opposite signs
                        for mid, c1 in self.edge_images(s, j, labels):
                            for tgt, c2 in self.edge_images(sj, i, mid):
                                v = R.mul(c1, c2)
                                w = R.sub(acc.get(tgt, R.zero), v)
                                if R.is_zero(w):
                                    acc.pop(tgt, None)
                                else:
                                    acc[tgt] = w
                        if acc:
                            raise ValueError(
                                "face (%d; %d,%d) does not anticommute"
                                % (s, i, j))
        return True


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
