"""Coefficient ring sanity: axioms, payload hygiene, division."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from knothom.frobenius import theory_from_selector
from knothom.rings import (PrimeField, Rationals, Integers, PolyRing,
                           TwoVarPolys)

F2 = PrimeField(2)
F3 = PrimeField(3)
Q = Rationals()
Z = Integers()
F2H = PolyRing(F2, "h")
ZA = TwoVarPolys()


def f2h_elt(draw):
    terms = draw(st.lists(st.integers(0, 5), max_size=4))
    a = F2H.zero
    for k in terms:
        a = F2H.add(a, F2H.monomial(1, k))
    return a


def za_elt(draw):
    terms = draw(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(0, 3), st.integers(0, 3)),
        max_size=4))
    a = ZA.zero
    for c, i, j in terms:
        m = ZA.from_int(c)
        for _ in range(i):
            m = ZA.mul(m, ZA.gen1())
        for _ in range(j):
            m = ZA.mul(m, ZA.gen2())
        a = ZA.add(a, m)
    return a


ELT = {
    "F2": lambda draw: draw(st.integers(0, 1)),
    "F3": lambda draw: draw(st.integers(0, 2)),
    "Q": lambda draw: Fraction(draw(st.integers(-9, 9)),
                               draw(st.integers(1, 9))),
    "Z": lambda draw: draw(st.integers(-20, 20)),
    "F2H": f2h_elt,
    "ZA": za_elt,
}
RINGS = {"F2": F2, "F3": F3, "Q": Q, "Z": Z, "F2H": F2H, "ZA": ZA}


@st.composite
def ring_and_elts(draw, n):
    tag = draw(st.sampled_from(sorted(RINGS)))
    R = RINGS[tag]
    return R, [ELT[tag](draw) for _ in range(n)]


@given(ring_and_elts(3))
@settings(max_examples=120, deadline=None)
def test_ring_axioms(re):
    R, (a, b, c) = re
    assert R.eq(R.add(a, b), R.add(b, a))
    assert R.eq(R.add(R.add(a, b), c), R.add(a, R.add(b, c)))
    assert R.eq(R.mul(a, b), R.mul(b, a))
    assert R.eq(R.mul(R.mul(a, b), c), R.mul(a, R.mul(b, c)))
    assert R.eq(R.mul(a, R.add(b, c)), R.add(R.mul(a, b), R.mul(a, c)))
    assert R.eq(R.add(a, R.neg(a)), R.zero)
    assert R.eq(R.mul(a, R.one), a)
    assert R.eq(R.mul(a, R.zero), R.zero)
    assert R.eq(R.sub(a, b), R.add(a, R.neg(b)))


def _eq_by_value_holds(R, elts):
    # eq compares payloads with ==, which is only right while every
    # payload stays canonical; check it against is_zero(a - b) on the
    # given elements and their sums, products and expanded products
    a, b, c = elts
    pool = [a, b, c, R.add(a, b), R.add(b, a), R.mul(a, b), R.mul(b, a),
            R.mul(a, R.add(b, c)), R.add(R.mul(a, b), R.mul(a, c)),
            R.sub(a, a), R.zero, R.one, R.neg(R.neg(a))]
    for x in pool:
        for y in pool:
            assert R.eq(x, y) == R.is_zero(R.sub(x, y)), (x, y)


@given(ring_and_elts(3))
@settings(max_examples=120, deadline=None)
def test_eq_by_value_agrees_with_a_zero_difference(re):
    R, elts = re
    _eq_by_value_holds(R, elts)


THEORY_SELECTORS = ["bn", "kh-f2", "alpha", "alpha@0,t/f2", "alpha@0,t/f3",
                    "alpha@t,-t/q", "alpha@1,-1/q", "alpha@2,-1/f5"]


@given(st.sampled_from(THEORY_SELECTORS), st.data())
@settings(max_examples=80, deadline=None)
def test_eq_by_value_on_theory_elements(sel, data):
    # the same over each theory's s, p and root images
    th = theory_from_selector(sel)
    R = th.ring
    base = [th.s, th.p] + list(th.alphas or ())
    elts = []
    for _ in range(3):
        x = data.draw(st.sampled_from(base))
        for y in data.draw(st.lists(st.sampled_from(base), max_size=2)):
            x = R.add(x, y) if data.draw(st.booleans()) else R.mul(x, y)
        elts.append(x)
    _eq_by_value_holds(R, elts)


@given(ring_and_elts(1))
@settings(max_examples=80, deadline=None)
def test_unit_inverses(re):
    R, (a,) = re
    if R.is_unit(a):
        assert R.eq(R.mul(a, R.inv(a)), R.one)


@pytest.mark.parametrize("ring,a", [
    (F3, 0), (Z, 2), (Z, 0), (F2H, F2H.zero), (F2H, {1: 1}),
    (F2H, {0: 1, 1: 1}), (ZA, {(1, 0): 1}), (ZA, {(0, 0): 2})],
    ids=["F3-0", "Z-2", "Z-0", "F2h-0", "F2h-h", "F2h-1+h", "Za-a1", "Za-2"])
def test_inverse_of_a_non_unit_raises(ring, a):
    # typed raises, so they hold under python -O too
    with pytest.raises(ZeroDivisionError):
        ring.inv(a)


def test_poly_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F2H.divmod(F2H.gen(), F2H.zero)


def test_exponent_of_inhomogeneous_element_raises():
    with pytest.raises(ValueError, match="no exponent"):
        PolyRing(F2, "h").exponent({0: 1, 1: 1})
    with pytest.raises(ValueError, match="no exponent"):
        ZA.exponent(ZA.add(ZA.gen1(), ZA.one))


def test_poly_ring_needs_field_coefficients():
    with pytest.raises(ValueError, match="field"):
        PolyRing(Z, "t")


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_payload_conventions():
    # zero polynomials are empty dicts, no zero coefficients survive
    h = F2H.gen()
    assert F2H.add(h, h) == {}
    assert F2H.sub(F2H.one, F2H.one) == {}
    a = ZA.add(ZA.gen1(), ZA.neg(ZA.gen1()))
    assert a == {}
    assert F2H.is_zero({})
    assert ZA.is_zero({})


def test_homogeneity_and_exponent():
    h = F2H.gen()
    h2 = F2H.mul(h, h)
    assert F2H.is_homogeneous(h2) and F2H.exponent(h2) == 2
    mixed = F2H.add(h2, F2H.one)
    assert not F2H.is_homogeneous(mixed)
    a1, a2 = ZA.gen1(), ZA.gen2()
    prod = ZA.mul(a1, a2)
    assert ZA.is_homogeneous(prod) and ZA.exponent(prod) == 2
    assert not ZA.is_homogeneous(ZA.add(prod, a1))
    # fields are trivially graded
    assert F2.exponent(1) == 0 and F2.exponent(0) is None
    assert Q.is_homogeneous(Fraction(3, 2))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_poly_divmod(data):
    a = f2h_elt(data.draw)
    b = f2h_elt(data.draw)
    if F2H.is_zero(b):
        return
    q, r = F2H.divmod(a, b)
    back = F2H.add(F2H.mul(q, b), r)
    assert F2H.eq(back, a)
    if not F2H.is_zero(r):
        assert max(r) < max(b)


def test_fmt_round_trip_smoke():
    assert F2H.fmt(F2H.zero) == "0"
    assert "h" in F2H.fmt(F2H.gen())
    s = ZA.fmt(ZA.add(ZA.gen1(), ZA.from_int(-2)))
    assert "a1" in s and "2" in s
    assert F2.fmt(1) == "1"


@pytest.mark.parametrize("base", [F2, F3, Q], ids=lambda F: F.name)
def test_poly_kernel_identities(base):
    # mul, add and neg return an argument where the result is known; it
    # must still be the right element, also for one, zero and -1 itself
    R = PolyRing(base, "t")
    t = R.gen()
    elems = [R.zero, R.one, t, R.from_int(-1), R.mul(t, t),
             R.add(R.mul(t, t), R.from_int(2)), R.add(t, R.one)]
    for x in elems:
        assert R.mul(x, R.one) == x and R.mul(R.one, x) == x
        assert R.add(x, R.zero) == x and R.add(R.zero, x) == x
        assert R.neg(R.neg(x)) == x
        assert R.add(x, R.neg(x)) == R.zero
        assert R.mul(R.from_int(-1), x) == R.neg(x)
        if R.char == 2:
            assert R.neg(x) == x
        elif x:
            assert R.neg(x) != x
    assert R.one == {0: base.one} and R.zero == {}
