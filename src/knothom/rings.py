"""Exact coefficient arithmetic for the homology engines.

Every ring object is a stateless strategy: elements are plain payloads
(ints, Fractions, exponent dicts) and all arithmetic goes through ring
methods.  This keeps the inner loops of the cube differential cheap and
makes it trivial to run the same code over F2[h], Q, Z[a1,a2] and friends.

Payload conventions:

* ``PrimeField(p)``   -- ints in ``range(p)``
* ``Rationals()``     -- ``fractions.Fraction``
* ``Integers()``      -- ints
* ``PolyRing(F, v)``  -- univariate polys over the field F as ``{exp: coeff}``
                         with no zero coefficients; ``{}`` is zero
* ``TwoVarPolys()``   -- Z[a1, a2] as ``{(i, j): int}``

Polynomial generators carry weight 1 per exponent; ``exponent()`` reports
the total generator exponent of a homogeneous element, which callers turn
into whatever grading sign they need (coefficients act with degree -2 on
the q-grading of a complex, +2 as internal algebra degree).
"""

from fractions import Fraction


class BaseRing:
    is_field = False
    char = 0
    name = "?"

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b):
        return self.is_zero(self.sub(a, b))

    def __repr__(self):
        return self.name


class PrimeField(BaseRing):
    is_field = True

    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, p)):
            raise ValueError("modulus %d is not prime" % p)
        self.p = p
        self.char = p
        self.name = "F%d" % p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        assert a != 0
        return pow(a, self.p - 2, self.p)

    def is_homogeneous(self, a):
        return True

    def exponent(self, a):
        return None if a == 0 else 0

    def fmt(self, a):
        return str(a)


class Rationals(BaseRing):
    is_field = True
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        return 1 / a

    def is_homogeneous(self, a):
        return True

    def exponent(self, a):
        return None if a == 0 else 0

    def fmt(self, a):
        return str(a)


class Integers(BaseRing):
    name = "Z"
    zero = 0
    one = 1

    def from_int(self, n):
        return n

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        assert a in (1, -1)
        return a

    def is_homogeneous(self, a):
        return True

    def exponent(self, a):
        return None if a == 0 else 0

    def fmt(self, a):
        return str(a)


class PolyRing(BaseRing):
    """F[v] for a field F, elements stored as {exponent: nonzero coeff}."""

    def __init__(self, base, var):
        assert base.is_field
        self.base = base
        self.var = var
        self.char = base.char
        self.name = "%s[%s]" % (base.name, var)
        self.zero = {}
        self.one = {0: base.one}

    def from_int(self, n):
        c = self.base.from_int(n)
        return {} if self.base.is_zero(c) else {0: c}

    def monomial(self, c, k):
        return {} if self.base.is_zero(c) else {k: c}

    def gen(self):
        return {1: self.base.one}

    def add(self, a, b):
        out = dict(a)
        F = self.base
        for k, x in b.items():
            if k in out:
                s = F.add(out[k], x)
                if F.is_zero(s):
                    del out[k]
                else:
                    out[k] = s
            else:
                out[k] = x
        return out

    def neg(self, a):
        F = self.base
        return {k: F.neg(x) for k, x in a.items()}

    def mul(self, a, b):
        if not a or not b:
            return {}
        F = self.base
        out = {}
        for ka, xa in a.items():
            for kb, xb in b.items():
                k = ka + kb
                y = F.mul(xa, xb)
                if k in out:
                    s = F.add(out[k], y)
                    if F.is_zero(s):
                        del out[k]
                    else:
                        out[k] = s
                elif not F.is_zero(y):
                    out[k] = y
        return out

    def is_zero(self, a):
        return not a

    def is_unit(self, a):
        return len(a) == 1 and 0 in a

    def inv(self, a):
        assert self.is_unit(a)
        return {0: self.base.inv(a[0])}

    def is_homogeneous(self, a):
        return len(a) <= 1

    def exponent(self, a):
        if not a:
            return None
        assert len(a) == 1, "inhomogeneous element has no exponent"
        return next(iter(a))

    def mono_parts(self, a):
        """(coeff, exp) for a monomial, else None."""
        if len(a) != 1:
            return None
        k = next(iter(a))
        return a[k], k

    def poly_degree(self, a):
        return max(a) if a else -1

    def divmod(self, a, b):
        """Polynomial division: a = q*b + r with deg r < deg b."""
        assert b, "division by zero"
        F = self.base
        lead_b = max(b)
        inv_lb = F.inv(b[lead_b])
        q = {}
        r = dict(a)
        while r and max(r) >= lead_b:
            k = max(r)
            c = F.mul(r[k], inv_lb)
            q[k - lead_b] = c
            for kb, xb in b.items():
                kk = k - lead_b + kb
                s = F.sub(r.get(kk, F.zero), F.mul(c, xb))
                if F.is_zero(s):
                    r.pop(kk, None)
                else:
                    r[kk] = s
        return q, r

    def evaluate(self, a, x):
        """Evaluate at a base-field point (Horner)."""
        F = self.base
        if not a:
            return F.zero
        acc = F.zero
        for k in range(max(a), -1, -1):
            acc = F.add(F.mul(acc, x), a.get(k, F.zero))
        return acc

    def fmt(self, a):
        if not a:
            return "0"
        bits = []
        for k in sorted(a):
            c = self.base.fmt(a[k])
            if k == 0:
                bits.append(c)
            else:
                v = self.var if k == 1 else "%s^%d" % (self.var, k)
                bits.append(v if c == "1" else "%s*%s" % (c, v))
        return " + ".join(bits)


class TwoVarPolys(BaseRing):
    """Z[a1, a2], elements as {(i, j): nonzero int}."""

    name = "Z[a1,a2]"
    char = 0
    zero = {}
    one = {(0, 0): 1}

    def from_int(self, n):
        return {} if n == 0 else {(0, 0): n}

    def gen1(self):
        return {(1, 0): 1}

    def gen2(self):
        return {(0, 1): 1}

    def add(self, a, b):
        out = dict(a)
        for k, x in b.items():
            s = out.get(k, 0) + x
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return out

    def neg(self, a):
        return {k: -x for k, x in a.items()}

    def mul(self, a, b):
        if not a or not b:
            return {}
        out = {}
        for (i1, j1), xa in a.items():
            for (i2, j2), xb in b.items():
                k = (i1 + i2, j1 + j2)
                s = out.get(k, 0) + xa * xb
                if s == 0:
                    out.pop(k, None)
                else:
                    out[k] = s
        return out

    def is_zero(self, a):
        return not a

    def is_unit(self, a):
        return len(a) == 1 and (0, 0) in a and a[(0, 0)] in (1, -1)

    def inv(self, a):
        assert self.is_unit(a)
        return dict(a)

    def is_homogeneous(self, a):
        return len({i + j for i, j in a}) <= 1

    def exponent(self, a):
        if not a:
            return None
        degs = {i + j for i, j in a}
        assert len(degs) == 1, "inhomogeneous element has no exponent"
        return degs.pop()

    def fmt(self, a):
        if not a:
            return "0"
        bits = []
        for i, j in sorted(a):
            c = a[(i, j)]
            vs = []
            if i:
                vs.append("a1" if i == 1 else "a1^%d" % i)
            if j:
                vs.append("a2" if j == 1 else "a2^%d" % j)
            if not vs:
                bits.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else "%d*" % c)
                bits.append(head + "*".join(vs))
        return " + ".join(bits)


F2 = PrimeField(2)


def poly_over(base, var="t"):
    return PolyRing(base, var)
