"""Rank-two Frobenius theories: axioms, decorations, specializations."""

import pytest
from hypothesis import given, settings, strategies as st

from knothom import frobenius
from knothom.frobenius import (Theory, TheoryError, axiom_report,
                               neck_cutting_report, bar_natan, khovanov_f2,
                               alpha_generic, specialize, theory_from_selector)
from knothom.rings import PolyRing, PrimeField

SELECTORS = ["bn", "kh-f2", "alpha", "alpha@0,t/f2", "alpha@1,-1/q"]


def all_theories():
    return [theory_from_selector(s) for s in SELECTORS]


def test_bar_natan_shape():
    th = bar_natan()
    R = th.ring
    assert R.char == 2
    assert th.s == R.gen()
    assert R.is_zero(th.p)
    assert th.graded
    # X^2 = hX
    x2 = th.mul(th.x_elt(), th.x_elt())
    assert x2 == (R.zero, th.s)


def test_khovanov_f2_shape():
    th = khovanov_f2()
    assert th.ring.char == 2
    x2 = th.mul(th.x_elt(), th.x_elt())
    assert x2 == (th.ring.zero, th.ring.zero)


def test_alpha_generic_shape():
    th = alpha_generic()
    R = th.ring
    a1, a2 = th.alphas
    assert th.s == R.add(a1, a2)
    assert th.p == R.mul(a1, a2)
    assert th.graded
    # (X - a1)(X - a2) = 0
    d1 = th.decoration_element("dot1")
    d2 = th.decoration_element("dot2")
    assert th.mul(d1, d2) == (R.zero, R.zero)


@pytest.mark.parametrize("sel", SELECTORS)
def test_axiom_report_all_pass(sel):
    th = theory_from_selector(sel)
    rep = axiom_report(th)
    assert len(rep) >= 5
    for label, ok, detail in rep:
        assert ok, "%s: %s (%s)" % (sel, label, detail)


@pytest.mark.parametrize("sel", SELECTORS)
def test_neck_cutting_all_pass(sel):
    th = theory_from_selector(sel)
    for label, ok, detail in neck_cutting_report(th):
        assert ok, "%s: %s (%s)" % (sel, label, detail)


def test_counit_values():
    for th in all_theories():
        assert th.counit(th.unit()) == th.ring.zero
        assert th.counit(th.x_elt()) == th.ring.one


def test_comul_of_unit():
    th = bar_natan()
    R = th.ring
    got = th.comul(th.unit())
    assert got[(0, 1)] == R.one and got[(1, 0)] == R.one
    # char 2: -h = h
    assert got[(0, 0)] == th.s


def test_comul_counit_identity():
    # (eps x id) Delta = id on both basis elements, every theory
    for th in all_theories():
        R = th.ring
        for i in (0, 1):
            out = [R.zero, R.zero]
            for (a, b), c in th.comul_basis(i).items():
                eps = th.counit(th.basis(a))
                out[b] = R.add(out[b], R.mul(eps, c))
            assert tuple(out) == th.basis(i), (th.name, i)


def test_decoration_elements():
    th = alpha_generic()
    R = th.ring
    a1, a2 = th.alphas
    assert th.decoration_element("dot") == th.x_elt()
    assert th.decoration_element("dot1") == (R.neg(a1), R.one)
    assert th.decoration_element("dot2") == (R.neg(a2), R.one)
    star = th.decoration_element("star")
    assert star == (R.neg(th.s), R.from_int(2))
    # star = dot1 + dot2
    d1 = th.decoration_element("dot1")
    d2 = th.decoration_element("dot2")
    summed = (R.add(d1[0], d2[0]), R.add(d1[1], d2[1]))
    assert summed == star


def test_digit_decorations_need_roots():
    with pytest.raises(TheoryError):
        bar_natan().decoration_element("dot1")
    with pytest.raises(TheoryError):
        khovanov_f2().decoration_element("dot2")
    with pytest.raises(TheoryError):
        bar_natan().decoration_element("nope")


def test_star_squares_to_discriminant():
    for th in all_theories():
        R = th.ring
        star = th.decoration_element("star")
        sq = th.mul(star, star)
        disc = R.sub(R.mul(th.s, th.s),
                     R.mul(R.from_int(4), th.p))
        assert sq == (disc, R.zero), th.name


def test_elt_degree():
    th = bar_natan()
    R = th.ring
    assert th.elt_degree(th.unit()) == 0
    assert th.elt_degree(th.x_elt()) == 2
    assert th.elt_degree((th.s, R.zero)) == 2
    assert th.elt_degree((R.zero, R.zero)) is None
    with pytest.raises(ValueError):
        th.elt_degree((R.one, R.one))


def test_specialize_images():
    F2h = PolyRing(PrimeField(2), "t")
    sp = specialize((F2h.zero, F2h.gen()), F2h)
    assert sp.ring is F2h
    assert sp.alphas[0] == F2h.zero
    assert sp.alphas[1] == F2h.gen()
    assert sp.s == F2h.gen()
    assert sp.graded


def test_selectors_specialize_without_building_the_generic_theory(
        monkeypatch):
    want = {sel: theory_from_selector(sel)
            for sel in ("alpha@0,t/f3", "alpha@t,-t/q")}

    def refuse():
        raise AssertionError("the generic theory was built")
    monkeypatch.setattr(frobenius, "alpha_generic", refuse)
    for sel, th in want.items():
        sp = theory_from_selector(sel)
        assert (sp.name, sp.s, sp.p, sp.alphas, sp.graded) == (
            th.name, th.s, th.p, th.alphas, th.graded), sel


def test_selector_parsing():
    th = theory_from_selector("alpha@0,t/f2")
    assert th.ring.char == 2
    assert th.alphas is not None
    th2 = theory_from_selector("alpha@1,-1/q")
    assert th2.ring.char == 0
    assert th2.alphas == (th2.ring.from_int(1), th2.ring.from_int(-1))
    for bad in ("qq", "alpha@1/f2", "alpha@1,2,3/q", "bn@0,t/f2"):
        with pytest.raises(TheoryError):
            theory_from_selector(bad)


def test_theory_with_failing_axioms_raises():
    # a raise, not an assert, so python -O still refuses the theory
    class BadComul(Theory):
        def comul_basis(self, i):
            R = self.ring
            return {(1, 1): R.one} if i == 0 else {(0, 1): R.one}

    class BadUnit(Theory):
        # 1 * X = 0, read by axiom_report through mul_basis
        def mul_basis(self, i, j):
            R = self.ring
            if i != j:
                return (R.zero, R.zero)
            return super().mul_basis(i, j)

    F2H = PolyRing(PrimeField(2), "h")
    with pytest.raises(TheoryError, match="axioms failed for bad: .*counit"):
        BadComul("bad", F2H, s=F2H.gen(), p=F2H.zero)
    with pytest.raises(TheoryError,
                       match=r"axioms failed for bad: .*\bunit\b"):
        BadUnit("bad", F2H, s=F2H.gen(), p=F2H.zero)
    Theory("bn", F2H, s=F2H.gen(), p=F2H.zero)


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f3"])
def test_neck_cutting_fails_with_the_wrong_counit(sel):
    class OneCounit(Theory):
        def counit(self, a):
            return a[0]

    th = theory_from_selector(sel)
    bad = OneCounit(th.name, th.ring, th.s, th.p, th.alphas)
    report = neck_cutting_report(bad)
    assert [label for label, _, _ in report] == [
        label for label, _, _ in neck_cutting_report(th)]
    assert report[0] == ("neck-cutting", False, "fails on basis 1")
    assert not any(ok for _, ok, _ in report)


def test_digit_ordering_agreement():
    # swapping the two roots relabels the digit decorations but keeps
    # the theory itself (s, p, star) fixed
    a = theory_from_selector("alpha@0,t/f2")
    b = theory_from_selector("alpha@t,0/f2")
    assert a.s == b.s and a.p == b.p
    assert a.decoration_element("star") == b.decoration_element("star")
    assert a.decoration_element("dot1") == b.decoration_element("dot2")
    assert a.decoration_element("dot2") == b.decoration_element("dot1")
    for (la, oka, _), (lb, okb, _) in zip(axiom_report(a), axiom_report(b)):
        assert la == lb and oka and okb


def test_ungraded_specialization_flagged():
    th = theory_from_selector("alpha@1,-1/q")
    # roots of equal nonzero value collapse the grading
    assert not th.graded


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_mul_bilinear_assoc(data):
    th = theory_from_selector(data.draw(st.sampled_from(SELECTORS)))
    R = th.ring

    def elt():
        c0 = R.from_int(data.draw(st.integers(-4, 4)))
        c1 = R.from_int(data.draw(st.integers(-4, 4)))
        if th.alphas is not None and data.draw(st.booleans()):
            c0 = R.mul(c0, th.s)
        return (c0, c1)

    a, b, c = elt(), elt(), elt()
    assert th.mul(a, b) == th.mul(b, a)
    assert th.mul(th.mul(a, b), c) == th.mul(a, th.mul(b, c))
    ab = th.mul(a, b)
    # Frobenius: Delta(ab) = (a x 1) Delta(b) as tensors
    lhs = th.comul(ab)
    rhs = {}
    for (i, j), cv in th.comul(b).items():
        left = th.mul(a, th.basis(i))
        for k, lc in ((0, left[0]), (1, left[1])):
            if R.is_zero(lc):
                continue
            key = (k, j)
            w = R.add(rhs.get(key, R.zero), R.mul(lc, cv))
            if R.is_zero(w):
                rhs.pop(key, None)
            else:
                rhs[key] = w
    keys = set(lhs) | set(rhs)
    for key in keys:
        assert R.eq(lhs.get(key, R.zero), rhs.get(key, R.zero))
