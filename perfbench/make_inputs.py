"""Regenerate the benchmark's frozen inputs from a fixed seed.

    python3 perfbench/make_inputs.py          # rewrite perfbench/inputs/
    python3 perfbench/make_inputs.py --check  # exit 1 unless byte-identical

Two kinds of input are frozen so that a change to the package cannot
silently change the benchmark's work:

* ``torus.tsv``: the closures of the positive braids (s1)^9 and
  (s1 s2)^5, the torus knots T(2,9) and T(3,5), built by ``braid_pd``.
* ``rmove-<knot>.movie``: one seeded movie of Reidemeister I/II moves per
  4- to 7-crossing table knot.  Each step picks a move kind, then a move
  of that kind, uniformly among those that apply without error, keep
  every frame planar (``is_planar``) and give every frame a cube of at
  most ``MAX_GENS`` generators (counted with the Kauffman-state circle
  tracer in ``knothom.jones``).  The cap holds one
  ``movie --compose-reverse`` operation to about a second; a knot
  with no such first move (7_1 to 7_4, whose every R1/R2 move lands
  above the cap) gets no movie.
"""

import os
import random
import sys

from run import SRC, SetupError, load_package, read_tsv

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")

SEED = 20201102
MOVES_PER_MOVIE = 3
MAX_GENS = 3000
TORUS = (("T(2,9)", [1] * 9, 2), ("T(3,5)", [1, 2] * 5, 3))


def torus_tsv():
    from knothom.tables import braid_pd
    lines = ["# positive torus knots as braid closures (braid_pd)\n"]
    for name, word, strands in TORUS:
        lines.append("%s\t%s\n" % (name, braid_pd(word, strands)))
    return "".join(lines)


def _candidates(diagram):
    """Every candidate R1/R2 move on a frame, grouped by kind; ``_legal``
    keeps those that apply."""
    from knothom.cobordism import Move
    edges = diagram.edges
    n = diagram.n
    return {
        "r1+": [Move("r1+", (e, s)) for e in edges for s in "+-"],
        "r2+": [Move("r2+", (a, b)) for a in edges for b in edges if a != b],
        "r1-": [Move("r1-", (c,)) for c in range(n)],
        "r2-": [Move("r2-", (a, b)) for a in range(n) for b in range(a + 1, n)],
    }


def cube_gens(diagram):
    """Generator count of the frame's cube: 2^circles summed over states."""
    from knothom.jones import circle_count
    return sum(2 ** circle_count(diagram, s) for s in range(1 << diagram.n))


def _legal(diagram, move):
    from knothom.cobordism import MoveError, apply_move
    from knothom.diagram import is_planar
    try:
        new, _, _ = apply_move(diagram, move)
    except MoveError:
        return None
    if not is_planar(new) or cube_gens(new) > MAX_GENS:
        return None
    return new


def _move_text(move):
    return " ".join([move.kind] + [str(a) for a in move.args])


def rmove_movie(name, pd):
    from knothom.diagram import is_planar, parse_pd
    rng = random.Random("%d:%s" % (SEED, name))
    frame = parse_pd(pd)
    if not is_planar(frame):
        raise SystemExit("table diagram %s is not planar" % name)
    lines = ["# seeded R1/R2 movie of %s (perfbench/make_inputs.py, seed %d)\n"
             % (name, SEED), "start %s\n" % pd]
    for step in range(MOVES_PER_MOVIE):
        by_kind = {}
        for kind, moves in _candidates(frame).items():
            legal = [(m, new) for m in moves
                     for new in [_legal(frame, m)] if new is not None]
            if legal:
                by_kind[kind] = legal
        if not by_kind:
            if step == 0:
                return None
            break
        kind = rng.choice(sorted(by_kind))
        move, frame = rng.choice(by_kind[kind])
        lines.append(_move_text(move) + "\n")
    return "".join(lines)


def expected_files():
    """{relative path under inputs/: content} for every frozen input."""
    from knothom.diagram import parse_pd
    files = {"torus.tsv": torus_tsv()}
    for name, pd in read_tsv(os.path.join(SRC, "knothom", "data",
                                           "knots.tsv")):
        if 4 <= parse_pd(pd).n <= 7:
            text = rmove_movie(name, pd)
            if text is not None:
                files["rmove-%s.movie" % name] = text
    return files


def main(argv):
    check = argv == ["--check"]
    if argv and not check:
        sys.exit("usage: make_inputs.py [--check]")
    try:
        load_package()
    except SetupError as e:
        sys.exit("perfbench: %s" % e)
    files = expected_files()
    stale = []
    for rel, text in sorted(files.items()):
        path = os.path.join(INPUTS, rel)
        if check:
            try:
                with open(path, "rb") as fh:
                    same = fh.read() == text.encode()
            except OSError:
                same = False
            if not same:
                stale.append(rel)
        else:
            os.makedirs(INPUTS, exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(text.encode())
    if check:
        extra = sorted(set(os.listdir(INPUTS)) - set(files))
        for rel in stale + extra:
            print("differs: %s" % rel)
        return 1 if stale or extra else 0
    print("wrote %d files to %s" % (len(files), INPUTS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
