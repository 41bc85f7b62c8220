"""Rank-two Frobenius theories driving the link homology cube.

Every theory here is a free module R.1 + R.X with one relation

    X^2 = s*X - p

so a theory is just (R, s, p).  Multiplication follows from the relation;
the coproduct and counit are

    Delta(1) = 1xX + Xx1 - s*1x1      Delta(X) = XxX - p*1x1
    eps(1) = 0                        eps(X) = 1

(the counit is forced by the counit axiom given Delta; the two-variable
flavor below is usually presented without eps written out, so treat the
formula as inferred and verified by the axiom checks in this module).

Bundled theories:

* ``bar_natan()``      F2[h],  s = h, p = 0
* ``khovanov_f2()``    F2,     s = 0, p = 0
* ``alpha_generic()``  Z[a1, a2], s = a1 + a2, p = a1*a2, with the roots
                       remembered so the shifted decorations X - a_i and
                       the doubled decoration 2X - s make sense.

Each theory fixes its structure constants when it is built: the four
basis products ``mul_basis(i, j)`` and the two basis coproducts
``comul_basis(i)`` are computed once, before ``axiom_report`` checks
them, and are then shared values that nothing changes.  Neck-cutting
is one form, a = (X - r1) eps(a) + eps((X - r2) a) 1, which holds
exactly when r1 + r2 = s; ``neck_cutting_report`` checks it at
(s, 0) and, when roots are chosen, at (a1, a2) and (a2, a1).

``specialize`` maps the generic theory along a1 -> u1, a2 -> u2 into a
univariate polynomial ring or a field.  Gradings: deg X = 2, ring
generators have degree 2 per exponent; a theory stays graded when s is
homogeneous of degree 2 (or 0) and p of degree 4 (or 0).

Algebra elements are payload pairs (c0, c1) meaning c0*1 + c1*X; tensors
are sparse dicts {(i, j): coeff} over the basis {1, X}.
"""

import re

from .complexes import axpy
from .rings import PrimeField, PolyRing, Rationals, Integers, TwoVarPolys, F2


class TheoryError(ValueError):
    pass


class Theory:
    def __init__(self, name, ring, s, p, alphas=None):
        self.name = name
        self.ring = ring
        self.s = s
        self.p = p
        self.alphas = alphas
        self.graded = self._compute_graded()
        R = self.ring
        self._products = {(i, j): self.mul(self.basis(i), self.basis(j))
                          for i in (0, 1) for j in (0, 1)}
        self._coproducts = tuple(
            {key: c for key, c in terms.items() if not R.is_zero(c)}
            for terms in ({(0, 1): R.one, (1, 0): R.one, (0, 0): R.neg(s)},
                          {(1, 1): R.one, (0, 0): R.neg(p)}))
        bad = [n for n, ok, _ in axiom_report(self) if not ok]
        if bad:
            raise TheoryError("Frobenius axioms failed for %s: %s"
                              % (name, ", ".join(bad)))

    def _compute_graded(self):
        R = self.ring
        if not R.is_homogeneous(self.s) or not R.is_homogeneous(self.p):
            return False
        es = R.exponent(self.s)
        ep = R.exponent(self.p)
        return (es in (None, 1)) and (ep in (None, 2))

    def __repr__(self):
        return "Theory(%s over %s)" % (self.name, self.ring.name)

    # -- structure maps on the basis (1, X) -----------------------------

    def unit(self):
        return (self.ring.one, self.ring.zero)

    def x_elt(self):
        return (self.ring.zero, self.ring.one)

    def basis(self, i):
        return self.x_elt() if i else self.unit()

    def mul(self, a, b):
        """(a0 + a1 X)(b0 + b1 X) with X^2 = s X - p."""
        R = self.ring
        a0, a1 = a
        b0, b1 = b
        cross = R.mul(a1, b1)
        c0 = R.sub(R.mul(a0, b0), R.mul(self.p, cross))
        c1 = R.add(R.add(R.mul(a0, b1), R.mul(a1, b0)),
                   R.mul(self.s, cross))
        return (c0, c1)

    def mul_basis(self, i, j):
        return self._products[i, j]

    def comul_basis(self, i):
        return self._coproducts[i]

    def comul(self, a):
        out = {}
        for i in (0, 1):
            axpy(self.ring, out, a[i], self.comul_basis(i))
        return out

    def counit(self, a):
        return a[1]

    # -- decorations -----------------------------------------------------

    def decoration_element(self, kind):
        R = self.ring
        if kind == "dot":
            return self.x_elt()
        if kind == "star":
            # 2X - s, squares to (a1 - a2)^2 = s^2 - 4p
            return (R.neg(self.s), R.from_int(2))
        if kind in ("dot1", "dot2"):
            if self.alphas is None:
                raise TheoryError(
                    "decoration %s needs a theory with chosen roots" % kind)
            a = self.alphas[0 if kind == "dot1" else 1]
            return (R.neg(a), R.one)
        raise TheoryError("unknown decoration %r" % kind)

    def act_basis(self, elem, i):
        """elem * basis[i], for applying a decoration to a circle label."""
        if i == 0:
            return elem
        return self.mul(elem, self.x_elt())

    def elt_degree(self, a):
        """Internal degree of a homogeneous element, None for 0.

        deg(1) = 0, deg(X) = 2, ring generators contribute 2 each.
        Raises on inhomogeneous input.
        """
        R = self.ring
        degs = set()
        for i, c in ((0, a[0]), (1, a[1])):
            if R.is_zero(c):
                continue
            if not R.is_homogeneous(c):
                raise ValueError("inhomogeneous coefficient")
            degs.add(2 * R.exponent(c) + 2 * i)
        if not degs:
            return None
        if len(degs) != 1:
            raise ValueError("inhomogeneous element")
        return degs.pop()


# -- axiom checks --------------------------------------------------------

def _tensor_eq(R, t1, t2):
    keys = set(t1) | set(t2)
    return all(R.eq(t1.get(k, R.zero), t2.get(k, R.zero)) for k in keys)


def _pair_eq(R, a, b):
    return R.eq(a[0], b[0]) and R.eq(a[1], b[1])


def axiom_report(theory):
    """Exhaustive basis checks of the Frobenius axioms.

    All maps are R-linear, so checking on the basis {1, X} (and pairs and
    triples of basis elements) is a complete verification.  Returns a
    list of (axiom name, ok, detail).
    """
    T = theory
    R = T.ring
    out = []

    ok = all(_pair_eq(R, T.mul(T.mul_basis(i, j), T.basis(k)),
                      T.mul(T.basis(i), T.mul_basis(j, k)))
             for i in (0, 1) for j in (0, 1) for k in (0, 1))
    out.append(("associativity", ok, ""))

    ok = all(_pair_eq(R, T.mul_basis(0, i), T.basis(i)) for i in (0, 1))
    out.append(("unit", ok, ""))

    ok = all(_pair_eq(R, T.mul_basis(i, j), T.mul_basis(j, i))
             for i in (0, 1) for j in (0, 1))
    out.append(("commutativity", ok, ""))

    def triple(i, left):
        # (Delta x id) Delta when left, else (id x Delta) Delta
        out3 = {}
        for (j, k), c in T.comul_basis(i).items():
            inner = T.comul_basis(j if left else k).items()
            axpy(R, out3, c, {(a, b, k) if left else (j, a, b): d
                              for (a, b), d in inner})
        return out3

    ok = all(_tensor_eq(R, triple(i, True), triple(i, False)) for i in (0, 1))
    out.append(("coassociativity", ok, ""))

    ok = True
    for i in (0, 1):
        left = [R.zero, R.zero]
        right = [R.zero, R.zero]
        for (j, k), c in T.comul_basis(i).items():
            # (eps x id): eps(e_j) c e_k ; (id x eps): eps(e_k) c e_j
            if j == 1:
                right[k] = R.add(right[k], c)
            if k == 1:
                left[j] = R.add(left[j], c)
        want = [R.zero, R.zero]
        want[i] = R.one
        ok = ok and _pair_eq(R, tuple(left), tuple(want))
        ok = ok and _pair_eq(R, tuple(right), tuple(want))
    out.append(("counit", ok, "eps(1)=0, eps(X)=1"))

    ok = all(_tensor_eq(R, T.comul_basis(i),
                        {(b, a): c for (a, b), c in T.comul_basis(i).items()})
             for i in (0, 1))
    out.append(("cocommutativity", ok, ""))

    # Frobenius compatibility: Delta m = (m x id)(id x Delta)
    ok = True
    for i in (0, 1):
        for j in (0, 1):
            prod = T.mul_basis(i, j)
            lhs = T.comul(prod)
            rhs = {}
            for (k, l), c in T.comul_basis(j).items():
                axpy(R, rhs, c, {(comp, l): coeff for comp, coeff
                                 in enumerate(T.mul_basis(i, k))})
            ok = ok and _tensor_eq(R, lhs, rhs)
    out.append(("frobenius", ok, "Delta m = (m x id)(id x Delta)"))

    # Handle identity: m(Delta(a)) = (2X - s) a, the split-then-merge tube
    ok = True
    star = T.decoration_element("star")
    for i in (0, 1):
        acc = (R.zero, R.zero)
        for (j, k), c in T.comul_basis(i).items():
            m = T.mul_basis(j, k)
            acc = (R.add(acc[0], R.mul(c, m[0])),
                   R.add(acc[1], R.mul(c, m[1])))
        want = T.mul(star, T.basis(i))
        ok = ok and _pair_eq(R, acc, want)
    out.append(("handle", ok, "m Delta = (2X - s)"))

    if theory.graded:
        ok = True
        try:
            for i in (0, 1):
                for j in (0, 1):
                    d = T.elt_degree(T.mul_basis(i, j))
                    ok = ok and d in (None, 2 * i + 2 * j)
                for (k, l), c in T.comul_basis(i).items():
                    ok = ok and 2 * R.exponent(c) + 2 * k + 2 * l == 2 * i + 2
        except ValueError:
            ok = False
        out.append(("graded", ok, "deg m = 0, deg Delta = +2"))

    return out


def neck_cutting_report(theory):
    """Check the neck-cutting decompositions of the identity,

        a = (X - r1) eps(a) + eps((X - r2) a) 1,

    which holds exactly when r1 + r2 = s.  The universal form
    ``neck-cutting`` takes (r1, r2) = (s, 0); when roots are chosen,
    ``neck-cutting-12`` and ``neck-cutting-21`` take (a1, a2) and
    (a2, a1).  Verified on the basis, which suffices by linearity.
    """
    T = theory
    R = T.ring
    forms = [("neck-cutting", (T.s, R.zero))]
    if T.alphas is not None:
        a1, a2 = T.alphas
        forms += [("neck-cutting-12", (a1, a2)), ("neck-cutting-21", (a2, a1))]
    out = []
    for label, (r1, r2) in forms:
        detail = ""
        for i in (0, 1):
            a = T.basis(i)
            e_a = T.counit(a)
            cut = T.counit(T.mul((R.neg(r2), R.one), a))
            if not _pair_eq(R, (R.add(R.mul(R.neg(r1), e_a), cut), e_a), a):
                detail = "fails on basis %d" % i
        out.append((label, not detail, detail))
    return out


# -- bundled theories ----------------------------------------------------

def bar_natan():
    R = PolyRing(F2, "h")
    return Theory("bn", R, s=R.gen(), p=R.zero)

def khovanov_f2():
    return Theory("kh-f2", F2, s=0, p=0)

def alpha_generic():
    R = TwoVarPolys()
    return Theory("alpha", R, s=R.add(R.gen1(), R.gen2()),
                  p=R.mul(R.gen1(), R.gen2()),
                  alphas=(R.gen1(), R.gen2()))


def specialize(images, ring):
    """The generic theory with its roots a1, a2 sent to elements of a new
    ring: s = u1 + u2 and p = u1*u2, built directly, so the generic
    theory itself is never built.

    ``images`` is a pair of payloads (u1, u2) in ``ring``.  Each image
    must be homogeneous; degree-2 images keep the theory graded, constant
    images into a field give an ungraded (filtered) theory.  The generic
    identity assignment is not expressible here on purpose: the target
    must be univariate or constant.
    """
    if isinstance(ring, TwoVarPolys):
        raise TheoryError("specialization target must be univariate or constant")
    u1, u2 = images
    for u in images:
        if not ring.is_homogeneous(u):
            raise TheoryError("root images must be homogeneous")
        e = ring.exponent(u)
        if e not in (None, 0, 1):
            raise TheoryError("root images must have degree 0 or 2")
    s = ring.add(u1, u2)
    p = ring.mul(u1, u2)
    name = "alpha@%s,%s/%s" % (ring.fmt(u1), ring.fmt(u2), ring.name)
    return Theory(name, ring, s, p, alphas=(u1, u2))


# -- selector strings ----------------------------------------------------

# an optional '-', ASCII digits, then optionally 't' with an optional '^k'
_IMAGE = re.compile(r"(-?)([0-9]*)(t(?:\^([0-9]+))?)?")


def _parse_image(image):
    """Parse '0', '1', '-1', 't', '-t', '2t', 't^2' style root images."""
    image = image.strip()
    m = _IMAGE.fullmatch(image)
    if not m or not (m[2] or m[3]):
        raise TheoryError("bad root image %r" % image)
    sign = -1 if m[1] else 1
    if m[3]:
        return ("t", int(m[4] or 1), sign * int(m[2] or 1))
    return ("const", 0, sign * int(m[2]))


_RING_CODES = {
    "q": Rationals,
    "z": Integers,
}


def _base_ring(code):
    code = code.strip().lower()
    if code in _RING_CODES:
        return _RING_CODES[code]()
    if code.startswith("f") and code[1:].isdigit():
        try:
            return PrimeField(int(code[1:]))
        except ValueError as e:
            raise TheoryError(str(e))
    raise TheoryError("unknown ring code %r" % code)


def theory_from_selector(text):
    """Build a theory from CLI selectors.

    ``bn``, ``kh-f2`` and ``alpha`` name the bundled theories;
    ``alpha@u1,u2/ring`` specializes, e.g. ``alpha@0,t/f2`` or
    ``alpha@1,-1/q``.  Ring codes: f2, f3, ... prime fields, q the
    rationals, z the integers (a 't' in any image upgrades the ring to
    polynomials over that base).
    """
    text = text.strip()
    if text == "bn":
        return bar_natan()
    if text == "kh-f2":
        return khovanov_f2()
    if text == "alpha":
        return alpha_generic()
    if text.startswith("alpha@"):
        body = text[len("alpha@"):]
        args, sep, ring_code = body.partition("/")
        if not sep:
            raise TheoryError("selector needs a ring: alpha@u1,u2/ring")
        parts = args.split(",")
        if len(parts) != 2:
            raise TheoryError("selector needs two root images")
        ring = base = _base_ring(ring_code)
        parsed = [_parse_image(p) for p in parts]
        if any(kind == "t" for kind, _, _ in parsed):
            if not base.is_field:
                raise TheoryError("polynomial images need a field base")
            ring = PolyRing(base, "t")
        images = tuple(ring.monomial(base.from_int(c), k) if kind == "t"
                       else ring.from_int(c) for kind, k, c in parsed)
        return specialize(images, ring)
    raise TheoryError("unknown theory selector %r" % text)
