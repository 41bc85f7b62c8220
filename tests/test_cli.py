"""Command line interface behavior, via click's test runner."""

from importlib import import_module
import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from knothom import cobordism
from knothom.cli import main
from knothom.cobordism import load_movie
from knothom.complexes import CubeComplex
from knothom.homology import HomologyData
from knothom.tables import TABLE_ENV

MOVIE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                         "knothom", "data", "movies")
FROZEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "inputs")
COORDINATES = os.path.join(os.path.dirname(__file__), "movie_coordinates.txt")
TRIVIAL = os.path.join(MOVIE_DIR, "trivial-ribbon.movie")
ONE_SADDLE = os.path.join(MOVIE_DIR, "one-saddle-unknot.movie")
SQUARE_KNOT = os.path.join(MOVIE_DIR, "square-knot.movie")

LEFT_TREFOIL = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"


def run(*args):
    return CliRunner().invoke(main, list(args))


# -- homology -------------------------------------------------------------

def test_homology_by_name():
    res = run("homology", "--name", "3_1")
    assert res.exit_code == 0, res.output
    assert "free summands" in res.output
    assert "torsion summands" in res.output
    assert "mu" in res.output


def test_homology_json_matches_anchor():
    res = run("homology", "--name", "3_1", "--output", "json")
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["free"] == [[0, -3, 1], [0, -1, 1]]
    assert doc["torsion"] == [[-2, -7, 1, 1], [-2, -5, 1, 1]]
    assert doc["theory"] == "bn"
    assert doc["bound"]["label"] == "mu"
    assert doc["bound"]["value"] == 1


def test_homology_by_pd_and_file(tmp_path):
    res = run("homology", "--pd", LEFT_TREFOIL)
    assert res.exit_code == 0
    p = tmp_path / "k.pd"
    p.write_text(LEFT_TREFOIL + "\n")
    res2 = run("homology", "--input", str(p))
    assert res2.exit_code == 0
    # the file route adds a "knot: <name>" header line; the rest agrees
    body = [ln for ln in res.output.splitlines() if not ln.startswith("knot:")]
    body2 = [ln for ln in res2.output.splitlines() if not ln.startswith("knot:")]
    assert body == body2


def test_homology_source_required():
    res = run("homology")
    assert res.exit_code == 2
    res = run("homology", "--pd", LEFT_TREFOIL, "--name", "3_1")
    assert res.exit_code == 2
    assert "exactly one" in res.output


def test_homology_empty_pd_is_input_error():
    res = run("homology", "--pd", "")
    assert res.exit_code == 2
    assert "empty" in res.output.lower()


def test_homology_unknown_name():
    res = run("homology", "--name", "9_99")
    assert res.exit_code == 2


def test_homology_empty_name_is_an_unknown_knot():
    # an empty --name is a name, not a missing one: no fall-through to
    # --input
    res = run("homology", "--name", "")
    assert res.exit_code == 2, res.output
    assert "unknown knot ''" in res.output


def test_homology_generic_theory_rejected():
    res = run("homology", "--name", "3_1", "--theory", "alpha")
    assert res.exit_code == 2


def test_homology_ungraded_polynomial_theory_rejected():
    # torsion orders are exponents of t and q-degrees need a grading, so
    # an F2[t] theory with a constant root is refused as bad input
    res = run("homology", "--name", "3_1", "--theory", "alpha@1,t/f2")
    assert res.exit_code == 2
    assert "need a graded theory" in res.output


def test_homology_reports_torsion_of_order_two():
    res = run("homology", "--name", "8_19")
    assert res.exit_code == 0, res.output
    assert "mu = 2" in res.output.splitlines()


def test_homology_composite_modulus_is_input_error():
    res = run("homology", "--name", "3_1", "--theory", "alpha@0,t/f4")
    assert res.exit_code == 2
    assert "not prime" in res.output


def test_homology_nonplanar_pd_is_input_error():
    # the trefoil after r2+ on edges 3 and 6, which share no face
    res = run("homology", "--pd", "PD[X[1,5,2,4],X[9,1,4,10],X[5,3,6,2],"
              "X[6,7,8,3],X[8,7,10,9]]")
    assert res.exit_code == 2
    assert "planar" in res.output


def test_homology_alpha_specialization():
    res = run("homology", "--name", "3_1", "--theory", "alpha@0,t/f2",
              "--output", "json")
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["bound"]["label"] == "nu_phi"
    assert doc["bound"]["value"] == 1


# -- bound ----------------------------------------------------------------

def test_bound_gap():
    res = run("bound", "unknot", "3_1")
    assert res.exit_code == 0, res.output
    assert "gap" in res.output.lower() or "1" in res.output


def test_bound_same_knot_is_zero():
    res = run("bound", "3_1", "3_1", "--output", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["gap"] == 0


def test_bound_distance_hypothesis():
    ok = run("bound", "unknot", "3_1", "-d", "1")
    assert ok.exit_code == 0
    bad = run("bound", "unknot", "3_1", "-d", "0")
    assert bad.exit_code == 1


def test_bound_negative_distance_is_input_error():
    res = run("bound", "3_1", "4_1", "-d", "-1")
    assert res.exit_code == 2, res.output
    assert "--distance" in res.output
    assert "VIOLATED" not in res.output


def test_bound_movie_supplies_distance():
    res = run("bound", "unknot", "unknot", "--movie", TRIVIAL)
    assert res.exit_code == 0, res.output


def test_bound_distance_and_movie_are_exclusive():
    # the movie's saddle count is the distance, so a -d beside it is an
    # input error, not ignored
    res = run("bound", "unknot", "unknot", "-d", "0", "--movie", TRIVIAL)
    assert res.exit_code == 2, res.output
    assert "--distance" in res.output and "--movie" in res.output
    assert "hypothesis" not in res.output


def test_bound_movie_endpoints_must_match():
    # trivial-ribbon joins the unknot to the unknot
    res = run("bound", "3_1", "8_19", "--movie", TRIVIAL)
    assert res.exit_code == 2, res.output
    assert "first frame is not 3_1" in res.output
    res = run("bound", "unknot", "8_19", "--movie", TRIVIAL)
    assert res.exit_code == 2, res.output
    assert "last frame is not 8_19" in res.output
    ok = run("bound", "unknot", "unknot", "--movie", TRIVIAL)
    assert ok.output.splitlines()[-1] == "hypothesis d = 0: consistent"


def _final_frame_pd(path):
    crossings = load_movie(path).final.crossings
    return "PD[%s]" % ",".join("X[%d,%d,%d,%d]" % tuple(cr)
                               for cr in crossings)


@pytest.mark.parametrize("theory", ["bn", "alpha@0,t/f2"])
def test_bound_square_knot_movie_consistent(theory):
    # the one-band movie realizes the gap mu(3_1 # m3_1) - mu(unknot) = 1
    square = _final_frame_pd(SQUARE_KNOT)
    res = run("bound", "unknot", square, "--movie", SQUARE_KNOT,
              "--theory", theory, "--output", "json")
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["gap"] == 1
    assert doc["distance_hypothesis"] == 1
    assert doc["consistent"] is True
    text = run("bound", "unknot", square, "--movie", SQUARE_KNOT,
               "--theory", theory)
    assert "hypothesis d = 1: consistent" in text.output
    bad = run("bound", "unknot", square, "-d", "0", "--theory", theory)
    assert bad.exit_code == 1


def test_bound_names_the_pd_it_read():
    res = run("bound", "unknot", LEFT_TREFOIL, "-d", "1")
    assert res.exit_code == 0, res.output
    lines = res.output.splitlines()
    assert lines[0] == "knot2: " + LEFT_TREFOIL
    assert "mu(knot2) = 1" in lines
    assert lines[-1] == "hypothesis d = 1: consistent"
    doc = json.loads(run("bound", LEFT_TREFOIL, "3_1",
                         "--output", "json").output)
    assert doc["knots"] == ["knot1", "3_1"]
    assert doc["pd"] == [LEFT_TREFOIL, None]


def test_bound_rejects_links():
    hopf = "PD[X[4,1,3,2],X[2,3,1,4]]"
    res = run("bound", hopf, "3_1")
    assert res.exit_code == 2
    assert "knot" in res.output.lower()


# -- verify ---------------------------------------------------------------

def test_verify_frobenius():
    res = run("verify", "frobenius")
    assert res.exit_code == 0, res.output
    assert "PASS" in res.output
    assert "instances passed" in res.output
    assert "FAIL" not in res.output


def test_verify_neckcut_single_theory():
    res = run("verify", "neckcut", "--theory", "bn")
    assert res.exit_code == 0, res.output


def test_verify_dot_crossing_small():
    res = run("verify", "dot-crossing", "--max-crossings", "3")
    assert res.exit_code == 0, res.output
    assert "3_1" in res.output
    assert "PASS dot-crossing 3_1 c0 alpha@0,t/f3" in res.output.splitlines()


def test_verify_builds_homology_once_per_knot_and_theory(monkeypatch):
    built = []
    init = HomologyData.__init__

    def counting_init(self, cx, *args, **kwargs):
        built.append(cx)
        init(self, cx, *args, **kwargs)

    monkeypatch.setattr(HomologyData, "__init__", counting_init)
    res = run("verify", "dot-crossing", "--max-crossings", "4")
    assert res.exit_code == 0, res.output
    assert "14/14 instances passed" in res.output
    assert len(built) == 2 * 2      # 3_1 and 4_1 under two theories


@pytest.mark.parametrize("args,built", [
    ((), {"bn": 1, "alpha@0,t/f3": 1}),
    (("--theory", "alpha@t,-t/q"), {"alpha@t,-t/q": 1}),
    (("--jobs", "2"), {"bn": 1, "alpha@0,t/f3": 1}),
])
def test_verify_builds_each_theory_once(args, built, monkeypatch):
    from knothom import cli
    calls = []
    build = cli.theory_from_selector

    def counting_build(sel):
        calls.append(sel)
        return build(sel)

    monkeypatch.setattr(cli, "theory_from_selector", counting_build)
    res = run("verify", "saddle-split", "--max-crossings", "4", *args)
    assert res.exit_code == 0, res.output
    assert {sel: calls.count(sel) for sel in calls} == built


def test_verify_parallel_jobs():
    res = run("verify", "frobenius", "--jobs", "2")
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_jobs_below_one_is_input_error(jobs):
    res = run("verify", "frobenius", "--jobs", jobs)
    assert res.exit_code == 2
    assert "--jobs" in res.output
    assert "instances passed" not in res.output


@pytest.mark.parametrize("suite,limit", [
    ("dot-crossing", "0"), ("dot-crossing", "2"), ("movie-star", "2")])
def test_verify_selecting_no_instance_is_input_error(suite, limit):
    res = run("verify", suite, "--max-crossings", limit)
    assert res.exit_code == 2, res.output
    assert ("verify %s selects no instance with at most %s crossings"
            % (suite, limit)) in res.output
    assert "instances passed" not in res.output


@pytest.mark.parametrize("suite,limit", [
    ("dot-crossing", "-1"), ("frobenius", "-5")])
def test_verify_negative_max_crossings_is_input_error(suite, limit):
    res = run("verify", suite, "--max-crossings", limit)
    assert res.exit_code == 2, res.output
    assert "--max-crossings" in res.output
    assert "instances passed" not in res.output


def test_verify_jobs_match_serial():
    args = ("verify", "dot-crossing", "--max-crossings", "4")
    serial = run(*args, "--jobs", "1")
    parallel = run(*args, "--jobs", "2")
    assert serial.exit_code == parallel.exit_code == 0, parallel.output
    assert parallel.output == serial.output


def test_importing_the_cli_leaves_the_process_pool_out():
    # only verify --jobs N > 1 needs worker processes; every other
    # command pays nothing for multiprocessing
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    res = subprocess.run(
        [sys.executable, "-c", "import sys, knothom.cli; "
         "print('concurrent.futures.process' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert res.stdout == "False\n"


def test_verify_reports_exceptions_as_error(tmp_path, monkeypatch):
    table = tmp_path / "hopf.tsv"
    table.write_text("hopf\tPD[X[4,1,3,2],X[2,3,1,4]]\n")
    monkeypatch.setenv(TABLE_ENV, str(table))
    res = run("verify", "movie-star", "--theory", "bn")
    assert res.exit_code == 3, res.output
    assert res.output.splitlines() == [
        "PASS movie-star hopf e1 e2 bn",
        "ERROR movie-star hopf e1 e4 bn  [MoveError: edges 1 and 4 lie on "
        "different components]",
        "1/2 instances passed",
    ]


@pytest.mark.parametrize("record,why", [
    ("bad\tPD[X[1,2]]", "'bad' at line 3: expected an edge id"),
    ("3_1 PD[X[1,5,2,4],X[3,1,4,6],X[5,3,6,2]]",
     "at line 3: no tab-separated PD code")])
def test_a_malformed_table_is_input_error(record, why, tmp_path,
                                          monkeypatch):
    # bad PD text and a record without a tab are bad input (exit 2) that
    # names the record, not an internal error with a traceback (exit 3)
    table = tmp_path / "bad.tsv"
    table.write_text("# one good record, one bad\n4_1\t"
                     "PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,4],X[2,7,3,8]]\n"
                     + record + "\n")
    monkeypatch.setenv(TABLE_ENV, str(table))
    for args in (("homology", "--name", "3_1"), ("verify", "dot-crossing")):
        res = run(*args)
        assert res.exit_code == 2, res.output
        assert "cannot read knot table: bad table record" in res.output
        assert why in res.output
        assert "Traceback" not in res.output


def test_a_repeated_table_name_is_input_error(tmp_path, monkeypatch):
    # a second record named 3_1 (4_1's PD) must not silently replace the
    # trefoil: bad input (exit 2) naming the record and both lines
    table = tmp_path / "dup.tsv"
    table.write_text("3_1\tPD[X[1,5,2,4],X[3,1,4,6],X[5,3,6,2]]\n"
                     "3_1\tPD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,4],X[2,7,3,8]]\n")
    monkeypatch.setenv(TABLE_ENV, str(table))
    for args in (("homology", "--name", "3_1"), ("verify", "dot-crossing")):
        res = run(*args)
        assert res.exit_code == 2, res.output
        assert ("cannot read knot table: table record '3_1' at line 2 "
                "repeats the name at line 1") in res.output


def test_an_uncaught_exception_is_an_internal_error(monkeypatch):
    # exit 3 with the traceback on stderr, not exit 1, which means a
    # failed verification
    from knothom import cli

    def boom(cx):
        raise RuntimeError("internal failure")

    monkeypatch.setattr(cli, "homology", boom)
    res = run("homology", "--name", "3_1")
    assert res.exit_code == 3, res.output
    assert "Traceback" in res.stderr
    assert "RuntimeError: internal failure" in res.stderr
    assert "free summands" not in res.stdout


@pytest.mark.parametrize("error, code", [(RuntimeError, 3), (ValueError, 2)])
def test_a_parser_defect_exits_3_and_bad_input_exits_2(error, code,
                                                       monkeypatch):
    # the parser reports bad input as a ValueError, exit 2; any other
    # exception inside it is a defect, exit 3 with its traceback
    from knothom import cli

    def parse(text):
        raise error("parser failure")

    monkeypatch.setattr(cli, "parse_pd", parse)
    res = run("homology", "--pd", LEFT_TREFOIL)
    assert res.exit_code == code, res.output
    assert ("Traceback" in res.stderr) == (code == 3)


def test_verify_group_without_homology_is_all_error(monkeypatch):
    # when the shared homology of a group fails, every instance of the
    # group is an ERROR
    from knothom import cli

    def boom(cx):
        raise ValueError("no homology here")

    monkeypatch.setattr(cli, "HomologyData", boom)
    res = run("verify", "dot-crossing", "--theory", "bn",
              "--max-crossings", "3")
    assert res.exit_code == 3, res.output
    assert res.output.splitlines() == [
        "ERROR dot-crossing 3_1 c%d bn  [ValueError: no homology here]" % ci
        for ci in range(3)] + ["0/3 instances passed"]


@pytest.mark.parametrize("selector", ["alpha", "alpha@1,-1/z"])
@pytest.mark.parametrize("suite", ["dot-crossing", "saddle-split",
                                   "movie-star", "symmetry", "ribbon"])
def test_verify_theory_without_homology_is_input_error(suite, selector):
    # every suite but frobenius and neckcut presents homology, which the
    # generic theory over Z[a1, a2] and the /z rings do not have
    res = run("verify", suite, "--theory", selector, "--max-crossings", "4")
    assert res.exit_code == 2, res.output
    assert ("homology needs field or univariate polynomial coefficients"
            in res.output)
    assert "instances passed" not in res.output


@pytest.mark.parametrize("selector", ["alpha", "alpha@1,-1/z"])
@pytest.mark.parametrize("suite", ["frobenius", "neckcut"])
def test_verify_algebra_suites_take_any_theory(suite, selector):
    res = run("verify", suite, "--theory", selector)
    assert res.exit_code == 0, res.output
    assert res.output.splitlines()[-1] == "1/1 instances passed"


def test_verify_bad_theory_is_input_error():
    for selector, named in (("nope", "nope"), ("alpha@2x,t/f3", "2x"),
                            ("alpha@t^x,0/f3", "t^x"),
                            ("alpha@1_0,0/f3", "1_0"),
                            ("alpha@--1,0/f3", "--1"),
                            ("alpha@+1,0/f3", "+1")):
        for args in (("verify", "frobenius"), ("homology", "--name", "3_1")):
            res = run(*args, "--theory", selector)
            assert res.exit_code == 2, (selector, args, res.output)
            assert repr(named) in res.output, (selector, args, res.output)


def test_verify_ribbon_bundled_movies():
    res = run("verify", "ribbon")
    assert res.exit_code == 0, res.output
    passed = [ln for ln in res.output.splitlines() if ln.startswith("PASS")]
    for fn in ("one-saddle-unknot.movie", "trivial-ribbon.movie",
               "square-knot.movie"):
        assert any(fn in ln for ln in passed), fn
    assert "FAIL" not in res.output


@pytest.mark.parametrize("args,count", [
    (("symmetry",), 14), (("saddle-split", "--max-crossings", "4"), 10)])
def test_verify_movie_map_suites(args, count):
    res = run("verify", *args)
    assert res.exit_code == 0, res.output
    assert res.output.splitlines()[-1] == (
        "%d/%d instances passed" % (count, count)), res.output


def test_verify_unknown_suite():
    res = run("verify", "nope")
    assert res.exit_code == 2
    assert "unknown suite" in res.output


# -- movie ----------------------------------------------------------------

def test_movie_frames_and_map():
    res = run("movie", "--script", TRIVIAL)
    assert res.exit_code == 0, res.output
    assert "frame" in res.output.lower()


def test_movie_compare_identity():
    res = run("movie", "--script", TRIVIAL, "--compose-reverse",
              "--compare", "id")
    assert res.exit_code == 0, res.output
    assert "equal" in res.output.lower()


def test_movie_compare_h_power():
    res = run("movie", "--script", ONE_SADDLE, "--compose-reverse",
              "--compare", "h^1")
    assert res.exit_code == 0, res.output
    assert "equal" in res.output.lower()


def test_movie_compare_needs_closed_movie(tmp_path):
    p = tmp_path / "open.movie"
    p.write_text("start unknot\nbirth\n")
    res = run("movie", "--script", str(p), "--compare", "id")
    assert res.exit_code == 2


def test_movie_compare_star_needs_an_edge(tmp_path):
    p = tmp_path / "empty.movie"
    p.write_text("start empty\nbirth\ndeath 1\n")
    for power in ("x^0", "x^1"):
        res = run("movie", "--script", str(p), "--compose-reverse",
                  "--compare", power)
        assert res.exit_code == 2, res.output
        assert "needs an edge on the first frame" in res.output


@pytest.mark.parametrize("spec", ["x^1_0", "h^+1", "x^١"])
def test_movie_compare_exponent_is_ascii_digits(spec):
    # int() would read these as 10, 1 and 1 (an Arabic-Indic one)
    res = run("movie", "--script", TRIVIAL, "--compose-reverse",
              "--compare", spec)
    assert res.exit_code == 2, res.output
    assert "ASCII digits" in res.output


def test_movie_checks_compare_before_building_anything(tmp_path,
                                                      monkeypatch):
    # a --compare the movie or theory cannot take is refused before any
    # complex is built
    from knothom import cli

    def no_build(*args):
        raise AssertionError("complex built before --compare was checked")

    monkeypatch.setattr(cli, "build_complex", no_build)
    monkeypatch.setattr(cobordism, "build_complex", no_build)
    open_movie = tmp_path / "open.movie"
    open_movie.write_text("start unknot\nbirth\n")
    empty = tmp_path / "empty.movie"
    empty.write_text("start empty\nbirth\ndeath 1\n")
    for args, message in (
            (("--script", SQUARE_KNOT, "--compose-reverse", "--compare",
              "foo"), "compare spec must be id, h^d, t^d or x^d"),
            (("--script", str(open_movie), "--compare", "id"),
             "--compare needs an endomorphism"),
            (("--script", str(empty), "--compose-reverse", "--compare",
              "x^1"), "needs an edge on the first frame"),
            (("--script", SQUARE_KNOT, "--theory", "kh-f2",
              "--compose-reverse", "--compare", "h^1"),
             "theory kh-f2 has no coefficient variable")):
        res = run("movie", *args)
        assert res.exit_code == 2, res.output
        assert message in res.output
        assert "frame 0" not in res.output


def test_movie_script_errors_are_input_errors(tmp_path):
    p = tmp_path / "bad.movie"
    p.write_text("start unknot\nsaddle 9 4\n")
    res = run("movie", "--script", str(p))
    assert res.exit_code == 2
    assert "line 2" in res.output


def test_movie_r1_plus_with_a_third_argument_is_input_error(tmp_path):
    p = tmp_path / "bad.movie"
    p.write_text("start unknot\n# pad\nr1+ 1 + junk\n")
    res = run("movie", "--script", str(p))
    assert res.exit_code == 2, res.output
    assert "line 3: usage: r1+ <edge> [+|-]" in res.output


KINK_BIGON = "start unknot\nbirth\nr2+ 2 1\nsaddle 1 3\nr2- 1 0\n"


@pytest.mark.parametrize("theory", ["bn", "alpha@0,t/f3"])
def test_movie_r2_minus_next_to_kinks_plays(tmp_path, theory):
    # the bigon's strands run on into kinks at both of its crossings
    p = tmp_path / "kink-bigon.movie"
    p.write_text(KINK_BIGON)
    res = run("movie", "--script", str(p), "--theory", theory,
              "--compose-reverse", "--compare", "id")
    assert res.exit_code == 0, res.output
    assert "frame 4 (r2- 1 0): 0 crossings, 1 components" in res.output
    assert "compare id: equal" in res.output
    res = run("movie", "--script", str(p), "--theory", theory,
              "--compose-reverse", "--compare", "x^1")
    assert res.exit_code == 1, res.output
    assert "compare x^1: DIFFERENT" in res.output


def test_movie_nonplanar_frame_is_input_error(tmp_path):
    p = tmp_path / "nonplanar.movie"
    p.write_text("start PD[X[1,5,2,4],X[3,1,4,6],X[5,3,6,2]]\n"
                 "r2+ 3 6\nr2+ 7 2\n")
    res = run("movie", "--script", str(p))
    assert res.exit_code == 2
    assert "line 2" in res.output
    assert "non-planar" in res.output


@pytest.mark.parametrize("movie", sorted(os.listdir(MOVIE_DIR)))
def test_movie_compose_reverse_builds_each_frame_once(movie, monkeypatch):
    path = os.path.join(MOVIE_DIR, movie)
    built = []
    init = CubeComplex.__init__

    def counting_init(self, diagram, theory):
        built.append(diagram)
        init(self, diagram, theory)

    monkeypatch.setattr(CubeComplex, "__init__", counting_init)
    res = run("movie", "--script", path, "--compose-reverse",
              "--compare", "id")
    assert res.exit_code == 0, res.output
    assert "compare id: equal" in res.output
    assert len(built) == len(set(load_movie(path).frames))


@pytest.mark.parametrize("theory", ["bn", "alpha@0,t/f3"])
@pytest.mark.parametrize("movie", sorted(os.listdir(MOVIE_DIR)))
def test_movie_compose_reverse_eliminates_each_move_once(movie, theory,
                                                         monkeypatch):
    # a move and its reverse, and equal moves between shared frames, read
    # one cancellation record off the bigger cube: one per (big frame,
    # small frame, crossings the move removes).  No move runs an
    # elimination: the one elimination is that of the first frame's
    # homology
    path = os.path.join(MOVIE_DIR, movie)
    m = load_movie(path)
    expected = set()
    for k, info in enumerate(m.infos):
        if info["kind"] not in ("r1+", "r1-", "r2+", "r2-"):
            continue
        small, big = m.frames[k], m.frames[k + 1]
        if info["kind"].endswith("-"):
            small, big = big, small
        expected.add((big, small, frozenset(info["crossings"])))
    calls = []
    read_off = cobordism._read_off

    def counting_read_off(big, small, *args):
        calls.append((big.diagram, small.diagram))
        return read_off(big, small, *args)

    eliminated = []
    homology = import_module("knothom.homology")
    reduce = homology.reduce_complex

    def counting_reduce(cx):
        eliminated.append(cx.diagram)
        return reduce(cx)

    monkeypatch.setattr(cobordism, "_read_off", counting_read_off)
    monkeypatch.setattr(homology, "reduce_complex", counting_reduce)
    res = run("movie", "--script", path, "--theory", theory,
              "--compose-reverse", "--compare", "id")
    assert res.exit_code == 0, res.output
    assert "compare id: equal" in res.output
    assert len(calls) == len(expected)
    assert set(calls) == {(big, small) for big, small, _ in expected}
    assert eliminated == [m.frames[0]]


def _pinned_coordinates():
    """{(movie file, theory): stdout} from the pinned file; lines before
    the first block header are comments."""
    blocks, key = {}, None
    with open(COORDINATES) as fh:
        for line in fh:
            if line.startswith("== "):
                key = tuple(line[3:].split())
                blocks[key] = ""
            elif key is not None:
                blocks[key] += line
    return blocks


PINNED = _pinned_coordinates()


def test_pinned_coordinates_cover_the_benchmark_movies():
    movies = sorted(os.listdir(MOVIE_DIR)) + sorted(
        f for f in os.listdir(FROZEN_DIR) if f.endswith(".movie"))
    assert sorted(PINNED) == sorted(
        (m, th) for m in movies for th in ("bn", "alpha@0,t/f3"))


@pytest.mark.parametrize("movie,theory", sorted(PINNED))
def test_movie_coordinates_are_pinned(movie, theory):
    # the printed matrices are coordinates in the basis that elimination
    # chooses; a builder that reorders a basis changes them even where
    # the verdict stays "equal"
    directory = MOVIE_DIR if movie in os.listdir(MOVIE_DIR) else FROZEN_DIR
    res = run("movie", "--script", os.path.join(directory, movie),
              "--theory", theory, "--compose-reverse", "--compare", "id")
    assert res.exit_code == 0, res.output
    assert res.stdout == PINNED[(movie, theory)]


def test_movie_missing_file():
    res = run("movie", "--script", "/nonexistent/x.movie")
    assert res.exit_code == 2


def test_movie_json_output():
    res = run("movie", "--script", TRIVIAL, "--output", "json")
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["frames"][0]["crossings"] == 0
