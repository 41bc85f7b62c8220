"""The tangle scanner: its small complex has the cube's homology, and it
reaches torus knots whose cube is out of reach."""

import os

import pytest

from knothom.cobordism import load_movie
from knothom.complexes import axpy, build_complex
from knothom.diagram import LinkDiagram, parse_pd
from knothom.frobenius import theory_from_selector
from knothom.homology import HomologySummary, homology, torsion_bound
from knothom.jones import quantum_jones
from knothom.tables import braid_pd, load_table
from knothom import tangles
from knothom.tangles import scan_complex

SELECTORS = ["bn", "kh-f2", "alpha@0,t/f2", "alpha@0,t/f3", "alpha@t,-t/q",
             "alpha@1,-1/q"]
MOVIE_DIRS = [os.path.join(os.path.dirname(__file__), os.pardir, *parts)
              for parts in (("src", "knothom", "data", "movies"),
                            ("perfbench", "inputs"))]
TORUS = {"T(2,9)": ([1] * 9, 2), "T(3,5)": ([1, 2] * 5, 3),
         "T(3,6)": ([1, 2] * 6, 3), "T(3,7)": ([1, 2] * 7, 3),
         "T(4,5)": ([1, 2, 3] * 5, 4), "T(5,6)": ([1, 2, 3, 4] * 6, 5)}


def torus(name):
    return parse_pd(braid_pd(*TORUS[name]))


def movie_frames():
    """Every distinct frame of the bundled and the frozen movies."""
    frames = []
    for d in MOVIE_DIRS:
        for f in sorted(os.listdir(d)):
            if f.endswith(".movie"):
                frames += [fr for fr in load_movie(os.path.join(d, f)).frames
                           if fr not in frames]
    return frames


GROUPS = {
    "frames": movie_frames,
    "small": lambda: [LinkDiagram((), (), ()), torus("T(2,9)"),
                      torus("T(3,5)")],
}


def test_frames_include_kinks_and_free_circles():
    frames = movie_frames()
    assert sum(any(len(set(cr)) < 4 for cr in fr.crossings)
               for fr in frames) >= 16
    assert any(fr.free_edges for fr in frames)


def checked_summary(d, th):
    cx = scan_complex(d, th)
    assert cx.check_d_squared() and cx.check_q_homogeneity()
    return homology(cx)


@pytest.mark.parametrize("sel", SELECTORS)
@pytest.mark.parametrize("group", GROUPS)
def test_scanned_summary_equals_the_cubes(group, sel):
    th = theory_from_selector(sel)
    for d in GROUPS[group]():
        assert checked_summary(d, th) == homology(build_complex(d, th)), d


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f3"])
def test_scanned_summary_of_t_3_6_equals_the_cubes(sel):
    # the cube of T(3,6) has 44,520 generators, so tier-1 checks it under
    # one even and one odd characteristic only
    th = theory_from_selector(sel)
    d = torus("T(3,6)")
    assert checked_summary(d, th) == homology(build_complex(d, th))


@pytest.mark.parametrize("sel", SELECTORS)
def test_table_knots_and_mirrors_scan_to_the_cubes_summary(sel):
    # a mirror's summary is the dual of the knot's: free summands at
    # (-r, -q), and order-n torsion at (r, q) moves to (1 - r, 2n - q)
    th = theory_from_selector(sel)
    for name, d in load_table().items():
        cube = homology(build_complex(d, th))
        assert checked_summary(d, th) == cube, name
        mirror = checked_summary(d.mirror(), th)
        assert set(mirror.free) == {(-r, None if q is None else -q, m)
                                    for r, q, m in cube.free}, name
        assert set(mirror.torsion) == {(1 - r, 2 * n - q, n, m)
                                       for r, q, n, m in cube.torsion}, name


def test_crossing_order_follows_the_boundary():
    # crossing 0 first, then the crossing with the most edges on the
    # boundary of those placed, ties to the lowest index: 5_2 with its
    # crossings listed out of order
    d = parse_pd("PD[X[10,4,1,3],X[2,8,3,7],X[8,6,9,5],X[6,2,7,1],"
                 "X[4,10,5,9]]")
    assert tangles._crossing_order(d) == [0, 4, 2, 1, 3]


@pytest.mark.parametrize("name", ["T(3,7)", "T(4,5)"])
def test_torus_knots_beyond_the_cube(name):
    d = torus(name)
    kh = scan_complex(d, theory_from_selector("kh-f2"))
    assert kh.graded_euler_characteristic() == quantum_jones(d)
    bn = theory_from_selector("bn")
    assert torsion_bound(homology(scan_complex(d, bn)), bn).value == 2


# T(5,6) has 24 crossings, far beyond the cube, so its summaries are
# pinned as literals: mu = 3 under bn, and torsion of order 4 under
# alpha@0,t/f3
T_5_6 = {
    "bn": HomologySummary(
        "bn", ((0, 19, 1), (0, 21, 1)),
        ((3, 25, 1, 1), (3, 27, 1, 1), (5, 29, 2, 1), (5, 31, 2, 1),
         (7, 29, 1, 1), (7, 31, 1, 2), (7, 33, 1, 1), (9, 33, 1, 1),
         (9, 35, 1, 1), (9, 35, 3, 1), (9, 37, 3, 1), (10, 35, 1, 1),
         (10, 37, 1, 1), (11, 35, 1, 1), (11, 37, 1, 1), (12, 39, 1, 1),
         (12, 41, 1, 1), (13, 39, 2, 1), (13, 41, 2, 1))),
    "alpha@0,t/f3": HomologySummary(
        "alpha@0,t/F3[t]", ((0, 19, 1), (0, 21, 1)),
        ((3, 27, 2, 1), (5, 29, 2, 1), (5, 31, 2, 1), (7, 31, 2, 1),
         (7, 33, 2, 1), (9, 33, 2, 1), (9, 35, 2, 2), (11, 37, 2, 1),
         (12, 41, 2, 1), (13, 41, 2, 1), (13, 43, 4, 1), (14, 43, 2, 1))),
}


@pytest.mark.parametrize("sel", T_5_6)
def test_t_5_6_summary_is_pinned(sel):
    th = theory_from_selector(sel)
    assert homology(scan_complex(torus("T(5,6)"), th)) == T_5_6[sel]


def test_equal_gluings_share_one_plan_and_one_value():
    # a plan is its own cache key: gluing the same surface twice gives
    # equal plans, so their value is computed and kept once
    scan = tangles._Scan(theory_from_selector("bn"))
    args = (3, [(0, 1)], [], [0, 2])
    p, q = scan.glue(*args), scan.glue(*args)
    assert p == q == ((0b011, (0,), 0), (0b100, (1,), 0))
    assert scan.value(p, 0b101) is scan.value(q, 0b101)
    assert len(scan._values) == 1


def test_matching_caches_hold_one_step(monkeypatch):
    # the caches keyed on matching ids live for one step: after each step
    # they name only matchings of the boundary before or after its
    # crossing.  The cycles of the boundary before are kept from the step
    # that made it, so no pair's cycles are worked out twice, but for the
    # empty matching's at the first and last crossing.  T(4,5) still
    # reads mu = 2
    add_crossing, cycles = tangles._Scan.add_crossing, tangles._Scan.cycles
    stale, worked_out = [], []

    def recording(self, cr, boundary):
        points = set(boundary)
        add_crossing(self, cr, boundary)
        points |= boundary
        keys = list(self._cycles) + list(self._compositions)
        stale.append(sum(not points.issuperset(self.partners[m])
                         for key in keys for m in key))

    def counting(self, m1, m2):
        if (m1, m2) not in self._cycles:
            worked_out.append((m1, m2))
        return cycles(self, m1, m2)
    monkeypatch.setattr(tangles._Scan, "add_crossing", recording)
    monkeypatch.setattr(tangles._Scan, "cycles", counting)
    bn = theory_from_selector("bn")
    assert torsion_bound(homology(scan_complex(torus("T(4,5)"), bn)),
                         bn).value == 2
    assert len(stale) == 15 and not any(stale)
    twice = [k for k in set(worked_out) if worked_out.count(k) > 1]
    assert len(worked_out) > 500 and twice == [(0, 0)]


def tangle_d_squared_is_zero(scan):
    """d o d = 0 as morphisms on the tangle complex a scan holds."""
    for x, row in scan.out.items():
        acc = {}
        for y, f in row.items():
            for z, g in scan.out[y].items():
                axpy(scan.ring, acc.setdefault(z, {}), scan.ring.one,
                     scan.compose(g, f, *(scan.objs[v][0]
                                          for v in (x, y, z))))
        if any(acc.values()):
            return False
    return True


def d_squared_on_every_tangle(monkeypatch, diagrams, th):
    """Scan the diagrams, checking d o d = 0 on the tangle complex before
    and after the cancellations of each crossing."""
    seen = []
    eliminate = tangles._Scan.eliminate

    def checked(self):
        seen.append(tangle_d_squared_is_zero(self))
        eliminate(self)
        seen.append(tangle_d_squared_is_zero(self))
    monkeypatch.setattr(tangles._Scan, "eliminate", checked)
    for d in diagrams:
        scan_complex(d, th)
    return seen


@pytest.mark.parametrize("sel", ["bn", "alpha@0,t/f3", "alpha@t,-t/q"])
def test_every_tangle_complex_has_d_squared_zero(sel, monkeypatch):
    table = load_table()
    seen = d_squared_on_every_tangle(monkeypatch, table.values(),
                                     theory_from_selector(sel))
    assert len(seen) == 2 * sum(d.n for d in table.values()) and all(seen)


def test_caps_without_their_s_term_break_d_squared(monkeypatch):
    # negative control: a cap on a loop labelled 1 is a dotted disc minus
    # s times a plain one.  Without the -s term the final complexes keep
    # the cube's summaries on the table, but the tangle complex of 5_1
    # under bn loses d o d = 0
    monkeypatch.setattr(tangles._Scan, "_cap_terms",
                        lambda self, nloops, labels:
                        [((1 << nloops) - 1 & ~labels, self.ring.one)])
    seen = d_squared_on_every_tangle(monkeypatch, [load_table()["5_1"]],
                                     theory_from_selector("bn"))
    assert not all(seen)


def test_a_saddle_without_its_sign_changes_the_summary(monkeypatch):
    # negative control: over odd characteristic the saddle needs the sign
    # (-1)^r of the object it leaves; 8_19 shows it
    th = theory_from_selector("alpha@0,t/f3")
    d = load_table()["8_19"]
    want = homology(build_complex(d, th))
    assert homology(scan_complex(d, th)) == want
    extend = tangles._Scan.extend
    monkeypatch.setattr(tangles._Scan, "extend",
                        lambda self, phi, plan, sign:
                        extend(self, phi, plan, self.ring.one))
    assert homology(scan_complex(d, th)) != want


def test_caps_of_the_wrong_label_break_the_grading(monkeypatch):
    # negative control: a loop labelled 1 is capped by the dual of 1,
    # X - s, and one labelled X by the dual of X, 1; swapped, the entries
    # of the trefoil's complex lose their q-degrees
    th = theory_from_selector("bn")
    d = load_table()["3_1"]
    assert scan_complex(d, th).check_q_homogeneity()
    cap_terms = tangles._Scan._cap_terms
    monkeypatch.setattr(tangles._Scan, "_cap_terms",
                        lambda self, nloops, labels:
                        cap_terms(self, nloops, labels ^ (1 << nloops) - 1))
    with pytest.raises(ValueError, match="changes q|not homogeneous"):
        scan_complex(d, th).check_q_homogeneity()
