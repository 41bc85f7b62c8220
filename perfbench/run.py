"""knothom benchmark: timed CLI workloads with checked outputs.

    python3 perfbench/run.py --workload summary|verify|movies \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a closed loop with one client on one
thread: ``knothom.cli.main`` is called in-process with the arguments a
user would type, and the next operation starts when the previous one
returns.  A pass runs every operation of the workload once, in an order
shuffled by the seed; the run repeats whole passes until ``--seconds``
have been spent.  Interpreter start, imports and input loading are
timed separately, in fresh interpreters, as ``setup_s``.  Outputs are
checked after the timed region (see ``checks.py``).

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` each pass is run once
untraced and once with layer spans (see ``spans.py``), the per-layer
metrics are reported and the spans are written to
``.perfbench/trace-<workload>-<seed>.json``.
"""

import argparse
import contextlib
import gc
import glob
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 9
VERIFY_THEORIES = ("bn", "alpha@0,t/f2")
VERIFY_SUITES = ("dot-crossing", "saddle-split", "movie-star")
VERIFY_MAX_CROSSINGS = 7
MOVIE_THEORIES = ("bn", "alpha@0,t/f3")
BOUND_THEORIES = ("bn", "alpha@0,t/f2")
RIBBON_MOVIES = ("one-saddle-unknot", "square-knot", "trivial-ribbon")
TORUS_S = {"T(2,9)": 8, "T(3,5)": 8}


class SetupError(Exception):
    pass


def load_package():
    """Import knothom from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "knothom", "cli.py")):
        raise SetupError("no knothom source under %s" % SRC)
    sys.path.insert(0, SRC)
    import knothom.cli
    if not os.path.abspath(knothom.__file__).startswith(SRC + os.sep):
        raise SetupError("knothom imported from %s, not %s"
                         % (knothom.__file__, SRC))
    return knothom


class Op:
    """One CLI invocation: ``knothom <argv>``, with KNOTHOM_TABLE set to
    ``table`` while it runs when given."""

    def __init__(self, key, argv, table=None):
        self.key = key
        self.argv = tuple(argv)
        self.table = table


def invoke(op, tracer=None):
    """Run one operation; returns (exit code, stdout, stderr, seconds).
    With a tracer the call is an operation span."""
    from knothom import cli
    from knothom.tables import TABLE_ENV
    saved = os.environ.get(TABLE_ENV)
    if op.table is None:
        os.environ.pop(TABLE_ENV, None)
    else:
        os.environ[TABLE_ENV] = op.table
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            span = tracer.begin_op(op.key) if tracer else None
            try:
                cli.main.main(args=list(op.argv), prog_name="knothom")
                code = 0
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else int(
                    e.code is not None)
            except Exception:
                code = 1
                traceback.print_exc()
            finally:
                if span is not None:
                    tracer.end_op(span)
            seconds = perf_counter() - t0
    finally:
        if saved is None:
            os.environ.pop(TABLE_ENV, None)
        else:
            os.environ[TABLE_ENV] = saved
    return code, out.getvalue(), err.getvalue(), seconds


def read_tsv(path):
    """(name, PD text) records of a knot table file, in file order."""
    with open(path) as fh:
        return [tuple(line.rstrip("\n").split("\t", 1)) for line in fh
                if line.strip() and not line.startswith("#")]


def _table_records():
    """The bundled table's records; parsing the table is part of set-up."""
    from knothom.tables import load_table
    path = os.path.join(SRC, "knothom", "data", "knots.tsv")
    records = read_tsv(path)
    if [name for name, _ in records] != list(load_table(path)):
        raise SetupError("cannot read the bundled table %s" % path)
    return records


def _pd_text(diagram):
    if not diagram.crossings and len(diagram.free_edges) == 1:
        return "unknot"
    return "PD[%s]" % ",".join("X[%s]" % ",".join(map(str, cr))
                               for cr in diagram.crossings)


def _bn_summary(diagram):
    from knothom import build_complex, homology, theory_from_selector
    return homology(build_complex(diagram, theory_from_selector("bn")))


# -- workloads -------------------------------------------------------------

class Workload:
    """``ops`` is one pass.  ``check(outputs)`` takes {op key: {(code,
    stdout)}} of the operations that succeeded; ``extra_checks()`` makes
    untimed CLI calls of its own.  Both return error strings."""

    def extra_checks(self):
        return []


class Summary(Workload):
    """``homology --pd <PD> --output json`` under bn on the 35 table knots
    and the frozen torus knots T(2,9) and T(3,5)."""

    def __init__(self):
        records = _table_records() + read_tsv(
            os.path.join(HERE, "inputs", "torus.tsv"))
        self.pds = dict(records)
        self.ops = [Op(name, ("homology", "--pd", pd, "--theory", "bn",
                              "--output", "json"))
                    for name, pd in records]

    def check(self, outputs):
        from knothom import parse_pd, quantum_jones
        errors = []
        for key, results in outputs.items():
            jones = quantum_jones(parse_pd(self.pds[key]))
            for code, stdout in results:
                errors += ["%s: %s" % (key, e) for e in checks.check_summary(
                    code, stdout, jones, TORUS_S.get(key))]
        return errors


class Verify(Workload):
    """``verify dot-crossing|saddle-split|movie-star --theory <sel>`` on one
    table knot at a time (a one-knot table through KNOTHOM_TABLE), over
    the knots with at most seven crossings and two theories."""

    def __init__(self):
        tables = os.path.join(WORK, "tables")
        os.makedirs(tables, exist_ok=True)
        from knothom import parse_pd
        self.ops = []
        self.expected = {}
        for name, pd in _table_records():
            n = len(parse_pd(pd).crossings)
            if n > VERIFY_MAX_CROSSINGS:
                continue
            path = os.path.join(tables, "%s.tsv" % name)
            with open(path, "w") as fh:
                fh.write("%s\t%s\n" % (name, pd))
            counts = {"dot-crossing": n, "saddle-split": 3, "movie-star": 2}
            for suite in VERIFY_SUITES:
                for sel in VERIFY_THEORIES:
                    key = "%s %s %s" % (name, suite, sel)
                    self.expected[key] = (suite, sel, counts[suite])
                    self.ops.append(Op(key, (
                        "verify", suite, "--theory", sel, "--max-crossings",
                        str(VERIFY_MAX_CROSSINGS)), table=path))

    def check(self, outputs):
        errors = []
        for key, results in outputs.items():
            for code, stdout in results:
                errors += ["%s: %s" % (key, e) for e in
                           checks.check_verify(code, stdout,
                                               *self.expected[key])]
        return errors


class Movies(Workload):
    """``movie --script <file> --compose-reverse --compare id`` on the three
    bundled ribbon movies and the frozen R1/R2 movies, under bn and
    alpha@0,t/f3."""

    def __init__(self):
        bundled = os.path.join(SRC, "knothom", "data", "movies")
        self.ribbons = [os.path.join(bundled, name + ".movie")
                        for name in RIBBON_MOVIES]
        self.rmoves = sorted(glob.glob(os.path.join(HERE, "inputs",
                                                    "rmove-*.movie")))
        missing = [p for p in self.ribbons if not os.path.isfile(p)]
        if missing or not self.rmoves:
            raise SetupError("movie inputs missing: %s"
                             % (missing or "perfbench/inputs/rmove-*.movie"))
        self.ops = [Op("%s %s" % (os.path.basename(path), sel),
                       self._argv(path, sel, "id"))
                    for path in self.ribbons + self.rmoves
                    for sel in MOVIE_THEORIES]

    @staticmethod
    def _argv(path, sel, compare):
        return ("movie", "--script", path, "--theory", sel,
                "--compose-reverse", "--compare", compare)

    def check(self, outputs):
        errors = []
        for key, results in outputs.items():
            for code, stdout in results:
                errors += ["%s: %s" % (key, e) for e in
                           checks.check_compare(code, stdout, "id", True)]
        return errors

    def extra_checks(self):
        """Negative controls, the ribbon bound and isotopy invariance of
        the frozen movies' end frames; untimed."""
        from knothom import load_movie, quantum_jones
        errors = []
        for path in self.ribbons + self.rmoves[:1]:
            for sel in MOVIE_THEORIES:
                code, out, _, _ = invoke(Op("", self._argv(path, sel, "x^1")))
                errors += ["%s %s x^1: %s" % (os.path.basename(path), sel, e)
                           for e in checks.check_compare(code, out, "x^1",
                                                         False)]
        for path in self.ribbons:
            movie = load_movie(path)
            for sel in BOUND_THEORIES:
                code, out, _, _ = invoke(Op("", (
                    "bound", _pd_text(movie.frames[0]),
                    _pd_text(movie.final), "--movie", path, "--theory", sel)))
                errors += ["%s bound %s: %s" % (os.path.basename(path), sel, e)
                           for e in checks.check_bound(code, out)]
        for path in self.rmoves:
            movie = load_movie(path)
            first, last = movie.frames[0], movie.final
            errors += ["%s: %s" % (os.path.basename(path), e)
                       for e in checks.check_frames(
                           quantum_jones(first), quantum_jones(last),
                           _bn_summary(first), _bn_summary(last))]
        return errors


WORKLOADS = {"summary": Summary, "verify": Verify, "movies": Movies}


# -- measurement -----------------------------------------------------------

class Recorder:
    """Runs operations; keeps the distinct outputs of those that
    succeeded, for the checks, and counts attempts and failures."""

    def __init__(self):
        self.outputs = {}
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def run_pass(self, ops, tracer=None):
        """Every op once; returns (op seconds, (code, stdout) per op)."""
        times, results = [], []
        for op in ops:
            gc.collect()
            code, out, err, dt = invoke(op, tracer)
            self.attempted += 1
            if code != 0:
                self.failed += 1
                if self.first_failure is None:
                    self.first_failure = "%s: exit %s\n%s%s" % (
                        op.key, code, out, err)
            else:
                self.outputs.setdefault(op.key, set()).add((code, out))
            times.append(dt)
            results.append((code, out))
        return times, results


def timed_run(workload, rng, seconds, rec):
    pass_times, op_times = [], []
    start = perf_counter()
    while True:
        order = list(workload.ops)
        rng.shuffle(order)
        times, _ = rec.run_pass(order)
        op_times += times
        pass_times.append(sum(times))
        if perf_counter() - start >= seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"pass_s": (statistics.median(pass_times), "s"),
            "op_p50_ms": (statistics.median(op_times) * 1000.0, "ms"),
            "peak_rss_mb": (peak, "MB")}


def traced_run(workload, rng, seconds, rec, trace_path):
    """Pairs of passes over one shuffled order, untraced then traced.

    Per-layer times are seconds per pass, counts are per operation, both
    the median over the traced passes.  Returns (metrics, keys of the
    operations whose traced output differs from the untraced one).
    """
    from spans import COUNTS, LAYERS, Tracer
    tracer = Tracer()
    samples = {}
    mismatches = []
    start = perf_counter()
    while True:
        order = list(workload.ops)
        rng.shuffle(order)
        plain_times, plain = rec.run_pass(order)
        first = len(tracer.op_keys)
        tracer.install()
        try:
            times, traced = rec.run_pass(order, tracer)
        finally:
            tracer.uninstall()
        ids = range(first, len(tracer.op_keys))
        mismatches += [op.key for op, a, b in zip(order, plain, traced)
                       if a != b]
        layers = tracer.layer_times(ids)
        pass_metrics = {"cli.self_s": layers["cli"][1],
                        "trace.overhead_s": sum(times) - sum(plain_times)}
        for layer in LAYERS:
            pass_metrics[layer + "_s"] = layers[layer][0]
            pass_metrics[layer + ".self_s"] = layers[layer][1]
        for key, total in tracer.count_totals(ids).items():
            pass_metrics[key] = total / len(order)
        for key, value in pass_metrics.items():
            samples.setdefault(key, []).append(value)
        if perf_counter() - start >= seconds:
            break
    tracer.dump(trace_path)
    return ({key: (statistics.median(v), "count/op" if key in COUNTS
                   else "s") for key, v in samples.items()}, mismatches)


def measure_setup(workload):
    """Median wall time of fresh interpreters that import the package and
    load the workload's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload], cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError("setup failed: %s" % proc.stderr.strip())
    return statistics.median(times)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and load inputs, then exit (timed by the "
                         "parent run as setup_s)")
    args = ap.parse_args(argv)
    try:
        load_package()
        workload = WORKLOADS[args.workload]()
        if args.setup_only:
            return 0
        setup_s = None if args.trace else measure_setup(args.workload)
    except SetupError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    rec = Recorder()
    if args.trace:
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, "trace-%s-%d.json" % (args.workload,
                                                          args.seed))
        metrics, mismatches = traced_run(workload, rng, args.seconds, rec,
                                         path)
        errors = ["%s: traced output differs from untraced" % key
                  for key in sorted(set(mismatches))]
    else:
        metrics = timed_run(workload, rng, args.seconds, rec)
        metrics["setup_s"] = (setup_s, "s")
        errors = []
    errors += workload.check(rec.outputs) + workload.extra_checks()
    for line in errors[:20]:
        print("perfbench: CHECK FAILED %s" % line, file=sys.stderr)
    if rec.first_failure:
        print("perfbench: first failed operation %s" % rec.first_failure,
              file=sys.stderr)
    print(json.dumps({
        "correct": not errors, "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
