"""Command line front end.

Four subcommands: ``homology`` computes a bigraded summary and the
torsion-order invariant for one knot; ``bound`` compares two knots and
prints the implied ribbon-distance lower bounds; ``verify`` runs the
relation-check suites over the bundled knot table; ``movie`` evaluates
a movie script to its induced map.

Exit codes: 0 on success, 1 when a verification or comparison fails,
2 on input errors, 3 on an internal error: a verify instance that raised
(reported as ERROR), or any other exception that escapes a command,
whose traceback goes to stderr.
Output is deterministic for a fixed config: table entries are iterated
in sorted order and every report is assembled before printing.

``homology`` and ``bound`` summarize the small complex that
``tangles.scan_complex`` leaves, not the cube; ``verify`` and ``movie``
push maps through the cube.

``verify`` runs a suite in groups, one per (knot or movie, theory): the
command builds each theory once and hands it to its groups, and a group
builds the knot's complex once and checks every instance of the group
on it.  An instance whose two maps are equal on chains
(``complexes.maps_equal``) passes without homology; the group builds
the knot's homology only for the first instance whose maps differ
there, once, and compares every such instance on homology.  So
saddle-split, and movie-star in characteristic 2, run no elimination,
and dot-crossing one per group.  ``--jobs N`` (N >= 1) spreads the
groups over N worker processes, which receive the theories pickled.
"""

from dataclasses import dataclass
from functools import partial
import json
import os
import re
import sys
import traceback

import click

from .cobordism import (Move, MoveError, MovieError, decoration_chain_map,
                        evaluate_movie, load_movie, parse_movie,
                        verify_dot_crossing, verify_ribbon_composite,
                        verify_saddle_split, verify_star_placement,
                        verify_symmetry)
from .complexes import build_complex, compose, identity_map, scale_map
from .diagram import parse_pd, unknot_diagram
from .frobenius import (TheoryError, axiom_report, neck_cutting_report,
                        theory_from_selector)
from .homology import (HomologyData, check_presentable, homology,
                       induced_map, induced_maps_equal, scale_induced,
                       torsion_bound)
from .tangles import scan_complex
from .tables import TABLE_ENV, load_table

ALL_THEORIES = ("bn", "kh-f2", "alpha", "alpha@0,t/f2", "alpha@1,-1/q")
HOMOLOGY_THEORIES = ("bn", "alpha@0,t/f3")


class InputError(click.ClickException):
    exit_code = 2


def _resolve_theory(selector):
    try:
        return theory_from_selector(selector)
    except TheoryError as e:
        raise InputError(str(e))


def _load_diagram_arg(text):
    """A knot argument: bundled name, 'unknot', or literal PD text."""
    if text == "unknot":
        return unknot_diagram(), "unknot"
    if "[" in text:
        try:
            return parse_pd(text), None
        except ValueError as e:
            raise InputError("bad PD code: %s" % e)
    table = _table()
    if text in table:
        return table[text], text
    raise InputError("unknown knot %r (not a bundled name, not PD text)"
                     % text)


_TABLE_CACHE = {}


def _table():
    path = os.environ.get(TABLE_ENV, "")
    if path not in _TABLE_CACHE:
        try:
            _TABLE_CACHE[path] = load_table(path or None)
        except (OSError, ValueError) as e:
            raise InputError("cannot read knot table: %s" % e)
    return _TABLE_CACHE[path]


def _emit(output, payload, text):
    if output == "json":
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
    else:
        click.echo(text)


# -- homology ------------------------------------------------------------

def cmd_homology(selector, pd, name, input_, output):
    theory = _resolve_theory(selector)
    sources = [s for s in (pd, name, input_) if s is not None]
    if len(sources) != 1:
        raise InputError("give exactly one of --pd, --name, --input")
    if pd is not None:
        if not pd.strip():
            raise InputError("empty PD code")
        try:
            diagram = parse_pd(pd)
        except ValueError as e:
            raise InputError("bad PD code: %s" % e)
        label = None
    elif name is not None:
        diagram, label = _load_diagram_arg(name)
    else:
        try:
            with open(input_) as fh:
                text = fh.read()
        except OSError as e:
            raise InputError(str(e))
        try:
            diagram = parse_pd(text)
        except ValueError as e:
            raise InputError("bad PD code in %s: %s" % (input_, e))
        label = os.path.basename(input_)

    cx = scan_complex(diagram, theory)
    try:
        summary = homology(cx)
    except ValueError as e:
        raise InputError(str(e))
    lines = []
    if label:
        lines.append("knot: %s" % label)
    lines.append("theory: %s" % summary.theory)
    lines.append(summary.format_table())
    payload = summary.as_dict()
    payload["knot"] = label
    try:
        tb = torsion_bound(summary, theory)
    except ValueError as e:
        tb = None
        lines.append("torsion bound: n/a (%s)" % e)
        payload["bound"] = None
    if tb is not None:
        note = " (%s)" % tb.note if tb.note else ""
        lines.append("%s = %d%s" % (tb.label, tb.value, note))
        payload["bound"] = {"label": tb.label, "value": tb.value,
                            "note": tb.note}
    _emit(output, payload, "\n".join(lines))
    return 0


# -- bound ---------------------------------------------------------------

@dataclass
class BoundReport:
    theory: str
    names: tuple
    label: str
    values: tuple
    distance_hypothesis: int = None
    pds: tuple = (None, None)   # PD text read for a PD argument, else None

    @property
    def gap(self):
        return abs(self.values[0] - self.values[1])

    @property
    def consistent(self):
        if self.distance_hypothesis is None:
            return True
        return self.gap <= self.distance_hypothesis

    def format_table(self):
        lines = ["%s: %s" % (name, pd)
                 for name, pd in zip(self.names, self.pds) if pd]
        for name, v in zip(self.names, self.values):
            lines.append("%s(%s) = %d" % (self.label, name, v))
            lines.append("  ribbon distance from the unknot >= %d" % v)
        lines.append("|%s(%s) - %s(%s)| = %d"
                     % (self.label, self.names[0], self.label,
                        self.names[1], self.gap))
        lines.append("any ribbon concordance between them needs >= %d "
                     "saddle%s" % (self.gap, "" if self.gap == 1 else "s"))
        if self.distance_hypothesis is not None:
            lines.append("hypothesis d = %d: %s"
                         % (self.distance_hypothesis,
                            "consistent" if self.consistent
                            else "VIOLATED (impossible movie)"))
        return "\n".join(lines)

    def as_dict(self):
        return {
            "theory": self.theory,
            "label": self.label,
            "knots": list(self.names),
            "pd": list(self.pds),
            "values": list(self.values),
            "gap": self.gap,
            "distance_hypothesis": self.distance_hypothesis,
            "consistent": self.consistent,
        }


def _check_movie_ends(movie, theory, names, summaries):
    """The movie must run from the first knot to the second: the homology
    summary of its first frame must equal the first knot's, and that of
    its last frame the second knot's, under the chosen theory.  Equal
    summaries do not prove the diagrams isotopic, but a difference
    proves the movie joins other knots."""
    for name, end, frame, summary in zip(names, ("first", "last"),
                                         (movie.frames[0], movie.final),
                                         summaries):
        if homology(scan_complex(frame, theory)) != summary:
            raise InputError(
                "the movie's %s frame is not %s: their %s homology "
                "summaries differ" % (end, name, theory.name))


def cmd_bound(knots, selector, distance, movie_path, output):
    theory = _resolve_theory(selector)
    if len(knots) != 2:
        raise InputError("bound needs exactly two knot arguments")
    if distance is not None and movie_path:
        raise InputError("give at most one of --distance and --movie; the "
                         "movie's saddle count is the distance")
    values = []
    names = []
    pds = []
    summaries = []
    for k, text in enumerate(knots):
        diagram, label = _load_diagram_arg(text)
        names.append(label or "knot%d" % (k + 1))
        pds.append(None if label else " ".join(text.split()))
        if len(diagram.components) != 1:
            raise InputError(
                "%s has %d components; the torsion bounds are stated for "
                "knots, refusing" % (names[-1], len(diagram.components)))
        try:
            summaries.append(homology(scan_complex(diagram, theory)))
            tb = torsion_bound(summaries[-1], theory)
        except ValueError as e:
            raise InputError(str(e))
        values.append(tb)
    if values[0].label != values[1].label:
        raise InputError("mismatched invariants %s vs %s"
                         % (values[0].label, values[1].label))
    if movie_path:
        try:
            movie = load_movie(movie_path)
        except (OSError, MovieError) as e:
            raise InputError(str(e))
        _check_movie_ends(movie, theory, names, summaries)
        distance = movie.saddle_count()
    report = BoundReport(theory.name, tuple(names), values[0].label,
                         tuple(v.value for v in values), distance, tuple(pds))
    _emit(output, report.as_dict(), report.format_table())
    return 0 if report.consistent else 1


# -- verify --------------------------------------------------------------

def _knots_upto(max_crossings):
    table = _table()
    out = []
    for name in sorted(table, key=lambda s: (len(s), s)):
        if len(table[name].crossings) <= max_crossings:
            out.append(name)
    return out


def _bundled_movie_dir():
    return os.path.join(os.path.dirname(__file__), "data", "movies")


def bundled_movie_paths():
    d = _bundled_movie_dir()
    if not os.path.isdir(d):
        return []
    return [os.path.join(d, f) for f in sorted(os.listdir(d))
            if f.endswith(".movie")]


# Palindromic decorated movies for the symmetry suite: each entry is
# (name, script, needs_roots).  The underlying frame lists are
# palindromes; the decoration sits at the middle step in at least two
# placements; digit decorations only run under theories with chosen
# roots.
SYMMETRY_MOVIES = (
    ("tube-dot-kept", "start unknot\nsaddle 1 1\ndot 1\nsaddle 1 2\n",
     False),
    ("tube-dot-loop", "start unknot\nsaddle 1 1\ndot 2\nsaddle 1 2\n",
     False),
    ("tube-digits", "start unknot\nsaddle 1 1\ndot1 1\ndot2 2\nsaddle 1 2\n",
     True),
    ("kink-dot-strand", "start unknot\nr1+ 1 +\ndot 1\nr1- 0\n", False),
    ("kink-dot-loop", "start unknot\nr1+ 1 +\ndot 2\nr1- 0\n", False),
    ("kink-digit1", "start unknot\nr1+ 1 -\ndot1 2\nr1- 0\n", True),
    ("slide-dot-over",
     "start PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]\nr2+ 1 4\ndot 7\nr2- 3 4\n",
     False),
    ("slide-dot-under",
     "start PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]\nr2+ 1 4\ndot 8\nr2- 3 4\n",
     False),
)


def _verify_groups(suite, selector, max_crossings):
    """The suite's instances, grouped.

    Each group is ``(suite, selector, subject, cases)`` with ``cases`` a
    list of ``(label, arguments)``; the instances of a group share one
    theory and, for the knot suites, one complex and its homology.
    Groups are picklable and listed in report order.
    """
    if suite in ("frobenius", "neckcut"):
        return [(suite, sel, None, [("%s %s" % (suite, sel), ())])
                for sel in ([selector] if selector else ALL_THEORIES)]
    groups = []
    for sel in [selector] if selector else HOMOLOGY_THEORIES:
        if suite == "dot-crossing":
            for name in _knots_upto(max_crossings):
                groups.append((suite, sel, name, [
                    ("dot-crossing %s c%d %s" % (name, ci, sel), (ci,))
                    for ci in range(len(_table()[name].crossings))]))
        elif suite == "saddle-split":
            for name in ["unknot"] + _knots_upto(max_crossings):
                edges = [1] if name == "unknot" else _table()[name].edges
                groups.append((suite, sel, name, [
                    ("saddle-split %s e%d %s" % (name, e, sel),
                     (Move("saddle", (e, e)),)) for e in sorted(edges)[:2]]))
        elif suite == "symmetry":
            for name, script, needs_roots in SYMMETRY_MOVIES:
                if not needs_roots or sel.startswith("alpha"):
                    groups.append((suite, sel, script, [
                        ("symmetry %s %s" % (name, sel), ())]))
        elif suite == "ribbon":
            paths = bundled_movie_paths()
            if not paths:
                raise InputError("no bundled movies found")
            for p in paths:
                groups.append((suite, sel, p, [
                    ("ribbon %s %s" % (os.path.basename(p), sel), ())]))
        elif suite == "movie-star":
            for name in _knots_upto(max_crossings):
                edges = sorted(_table()[name].edges)
                if len(edges) < 2:
                    continue
                pairs = {(edges[0], edges[1]), (edges[0], edges[-1])}
                groups.append((suite, sel, name, [
                    ("movie-star %s e%d e%d %s" % (name, e1, e2, sel),
                     (e1, e2)) for e1, e2 in sorted(pairs)]))
    return groups


def _status(ok, detail=""):
    return ("PASS" if ok else "FAIL"), detail


def _error(e):
    return "ERROR", "%s: %s" % (type(e).__name__, e)


def _report_group(report, pass_detail, theory, subject, args):
    rep = report(theory)
    bad = [name for name, ok, _ in rep if not ok]
    return [_status(not bad, "failing: " + ", ".join(bad) if bad
                    else pass_detail(rep))]


def _knot_group(verify, theory, name, args):
    """verify(cx, homology, *arguments) per instance, all on the knot's
    one complex cx.  ``homology()`` builds cx's HomologyData the first
    time an instance's maps differ on chains, and hands every later
    instance that one, or raises again what building it raised; an
    instance whose maps agree on chains never asks.  An exception is
    that instance's ERROR, so a failed homology fails only the instances
    that needed it."""
    diagram = unknot_diagram() if name == "unknot" else _table()[name]
    cx = build_complex(diagram, theory)
    built = []          # the HomologyData, or what building it raised

    def homology():
        if not built:
            try:
                built.append(HomologyData(cx))
            except Exception as e:
                built.append(e)
        if isinstance(built[0], Exception):
            raise built[0]
        return built[0]

    out = []
    for arg in args:
        try:
            out.append(_status(verify(cx, homology, *arg)))
        except Exception as e:
            out.append(_error(e))
    return out


def _symmetry_group(theory, script, args):
    return [_status(verify_symmetry(parse_movie(script), theory))]


def _ribbon_group(theory, path, args):
    movie = load_movie(path)
    return [_status(verify_ribbon_composite(movie, theory),
                    "%d saddle(s)" % movie.saddle_count())]


# suite -> runner(theory, subject, args) -> [(status, detail)] per instance
VERIFY_SUITES = {
    "frobenius": partial(_report_group, axiom_report,
                         lambda rep: "all %d axioms hold" % len(rep)),
    "neckcut": partial(_report_group, neck_cutting_report,
                       lambda rep: ", ".join(name for name, _, _ in rep)),
    "dot-crossing": partial(_knot_group, verify_dot_crossing),
    "saddle-split": partial(_knot_group, verify_saddle_split),
    "symmetry": _symmetry_group,
    "ribbon": _ribbon_group,
    "movie-star": partial(_knot_group, verify_star_placement),
}


def _run_group(group, theory):
    """Worker for one group under its selector's theory; when the shared
    complex cannot be built, every instance of the group is an ERROR.
    A knot group's homology is built only for the instances whose maps
    differ on chains, and when it cannot be built, exactly those
    instances are ERRORs (see ``_knot_group``)."""
    suite, _, subject, cases = group
    try:
        return VERIFY_SUITES[suite](theory, subject,
                                    [arg for _, arg in cases])
    except Exception as e:
        return [_error(e)] * len(cases)


def cmd_verify(suite, selector, max_crossings, jobs, verbose):
    # each selector's theory is built once, with its axiom checks, and
    # shared by its groups; worker processes receive it pickled
    built = {selector: _resolve_theory(selector)} if selector else {}
    if selector and suite not in ("frobenius", "neckcut"):
        # every other suite presents homology; a theory whose homology
        # cannot be presented is bad input, not an error per instance
        try:
            check_presentable(built[selector])
        except ValueError as e:
            raise InputError(str(e))
    groups = _verify_groups(suite, selector, max_crossings)
    if not any(cases for _, _, _, cases in groups):
        raise InputError("verify %s selects no instance with at most %d "
                         "crossings" % (suite, max_crossings))
    for _, sel, _, _ in groups:
        if sel not in built:
            built[sel] = _resolve_theory(sel)
    theories = [built[sel] for _, sel, _, _ in groups]
    if jobs > 1:
        # imported here: the pool pulls in multiprocessing, which no
        # other command needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_group, groups, theories))
    else:
        results = list(map(_run_group, groups, theories))
    counts = {"PASS": 0, "FAIL": 0, "ERROR": 0}
    for (_, _, _, cases), outcomes in zip(groups, results):
        for (label, _), (status, detail) in zip(cases, outcomes):
            counts[status] += 1
            tail = ("  [%s]" % detail) if detail and (
                verbose or status != "PASS") else ""
            click.echo("%s %s%s" % (status, label, tail))
    click.echo("%d/%d instances passed" % (counts["PASS"],
                                           sum(counts.values())))
    if counts["ERROR"]:
        return 3
    return 1 if counts["FAIL"] else 0


# -- movie ---------------------------------------------------------------

# ASCII digits only: int() would also take '_', a leading '+' and
# non-ASCII digits
_COMPARE = re.compile(r"([htx])\^([0-9]+)")


def _parse_compare(token):
    """``id`` or ``h^d``/``t^d`` (coefficient scalar) or ``x^d`` (star)."""
    token = token.strip().lower()
    if token == "id":
        return ("scalar", 0)
    m = _COMPARE.fullmatch(token)
    if not m:
        raise InputError("compare spec must be id, h^d, t^d or x^d, with d "
                         "in ASCII digits; got %r" % token)
    return ("star" if m[1] == "x" else "scalar", int(m[2]))


def cmd_movie(script, selector, compose_reverse, compare, output):
    theory = _resolve_theory(selector)
    try:
        movie = load_movie(script)
    except (OSError, MovieError) as e:
        raise InputError(str(e))
    if compare is not None:
        mode, power = _parse_compare(compare)
        if mode == "scalar" and power and not hasattr(theory.ring, "gen"):
            raise InputError("theory %s has no coefficient variable to "
                             "raise to a power" % selector)
        if mode == "star" and not movie.frames[0].edges:
            raise InputError("compare x^d needs an edge on the first "
                             "frame for the star; this one has none")
        if not compose_reverse and movie.frames[-1] != movie.frames[0]:
            raise InputError("--compare needs an endomorphism; use "
                             "--compose-reverse or a closed movie")

    lines = ["movie %s: %d moves" % (movie.name, len(movie.moves))]
    frames_json = []
    for k, frame in enumerate(movie.frames):
        what = "start" if k == 0 else str(movie.moves[k - 1])
        desc = "%d crossings, %d components" % (len(frame.crossings),
                                                len(frame.components))
        lines.append("frame %d (%s): %s" % (k, what, desc))
        frames_json.append({"frame": k, "after": what,
                            "crossings": len(frame.crossings),
                            "components": len(frame.components)})

    try:
        cxs = movie.complexes(theory)
        f = evaluate_movie(movie, theory, cxs)
        tgt_cx = cxs[-1]
        if compose_reverse:
            f = compose(evaluate_movie(movie.reversed(), theory, cxs[::-1]),
                        f)
            tgt_cx = cxs[0]
        ha = HomologyData(cxs[0])
        hb = ha if tgt_cx is cxs[0] else HomologyData(tgt_cx)
    except (MoveError, ValueError) as e:
        raise InputError(str(e))

    ind = induced_map(f, ha, hb)
    ring = hb.work.ring
    lines.append("induced map on homology (columns in canonical "
                 "coordinates):")
    ind_json = {}
    for r in sorted(ind):
        cols = ind[r]
        txt = "; ".join("[" + ", ".join(ring.fmt(v) for v in col) + "]"
                        for col in cols)
        lines.append("  r=%+d: %s" % (r, txt))
        ind_json[str(r)] = [[ring.fmt(v) for v in col] for col in cols]

    verdict = None
    if compare is not None:
        # the printed matrix is the left side: for h^d / t^d it is scaled
        # by c here instead of pushing c f through homology again
        ident = identity_map(ha.original)
        if mode == "scalar":
            c = theory.ring.one
            for _ in range(power):
                c = theory.ring.mul(c, theory.ring.gen())
            lhs = scale_induced(ind, c, ha)
            rhs = induced_map(scale_map(c, ident), ha, ha)
        else:
            e0 = movie.frames[0].edges[0]
            g = ident
            for _ in range(power):
                g = compose(decoration_chain_map(theory, ha.original,
                                                 "star", e0), g)
            lhs, rhs = ind, induced_map(g, ha, ha)
        ok = induced_maps_equal(lhs, rhs, ha,
                                up_to_sign=theory.ring.char != 2)
        verdict = ok
        lines.append("compare %s: %s" % (compare,
                                         "equal" if ok else "DIFFERENT"))

    payload = {"movie": movie.name, "theory": selector,
               "frames": frames_json, "induced": ind_json,
               "compare": compare, "equal": verdict}
    _emit(output, payload, "\n".join(lines))
    return 1 if verdict is False else 0


# -- click wiring --------------------------------------------------------

class _Main(click.Group):
    """The command group; an exception that escapes a command, other than
    click's own and ``SystemExit``, is an internal error: its traceback
    goes to stderr and the exit code is 3, never 1, which means a failed
    verification.  A broken output pipe is left to click, which exits 1
    quietly."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.exceptions.ClickException, click.exceptions.Exit,
                click.exceptions.Abort, BrokenPipeError):
            raise
        except Exception:
            traceback.print_exc()
            sys.exit(3)


@click.group(cls=_Main)
def main():
    """Bar-Natan and alpha homology of knots, with movie verification."""


@main.command("homology")
@click.option("--theory", default="bn", show_default=True)
@click.option("--pd", default=None, help="PD code text")
@click.option("--name", default=None, help="bundled knot name, e.g. 6_1")
@click.option("--input", "input_", default=None,
              type=click.Path(), help="file containing a PD code")
@click.option("--output", type=click.Choice(["table", "json"]),
              default="table", show_default=True)
def homology_cmd(theory, pd, name, input_, output):
    """Homology summary and torsion bound of one knot."""
    sys.exit(cmd_homology(theory, pd, name, input_, output))


@main.command("bound")
@click.argument("knots", nargs=2)
@click.option("--theory", default="bn", show_default=True)
@click.option("-d", "--distance", type=click.IntRange(min=0), default=None,
              help="ribbon distance hypothesis to check against")
@click.option("--movie", "movie_path", type=click.Path(), default=None,
              help="movie whose saddle count plays the distance role")
@click.option("--output", type=click.Choice(["table", "json"]),
              default="table", show_default=True)
def bound_cmd(knots, theory, distance, movie_path, output):
    """Torsion values of two knots and the implied distance bounds.

    KNOTS are bundled names, 'unknot', or literal PD codes.
    """
    sys.exit(cmd_bound(knots, theory, distance, movie_path, output))


@main.command("verify")
@click.argument("suite")
@click.option("--theory", default=None,
              help="restrict to one theory selector")
@click.option("--max-crossings", type=click.IntRange(min=0), default=6,
              show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option("-v", "--verbose", is_flag=True)
def verify_cmd(suite, theory, max_crossings, jobs, verbose):
    """Run one verification suite; SUITE is one of:

    frobenius, neckcut, dot-crossing, saddle-split, symmetry, ribbon,
    movie-star.
    """
    if suite not in VERIFY_SUITES:
        raise InputError("unknown suite %r (choose from %s)"
                         % (suite, ", ".join(VERIFY_SUITES)))
    sys.exit(cmd_verify(suite, theory, max_crossings, jobs, verbose))


@main.command("movie")
@click.option("--script", required=True, type=click.Path(),
              help="movie script path")
@click.option("--theory", default="bn", show_default=True)
@click.option("--compose-reverse", is_flag=True,
              help="follow the movie with its reverse")
@click.option("--compare", default=None,
              help="compare against id, h^d / t^d, or x^d")
@click.option("--output", type=click.Choice(["table", "json"]),
              default="table", show_default=True)
def movie_cmd(script, theory, compose_reverse, compare, output):
    """Evaluate a movie script and report the induced map.

    The map is printed column by column in coordinates of the homology
    basis that elimination and its torsion split choose: the generators
    that survive, free or torsion.  These coordinates are not
    invariants: another elimination order can print the same map in
    another basis.  The --compare verdict does not depend on the basis.
    """
    sys.exit(cmd_movie(script, theory, compose_reverse, compare, output))


if __name__ == "__main__":
    main()
