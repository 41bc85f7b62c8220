"""Exact surgery output, pinned in ``movie_surgery.txt``.

``canonical_key`` round trips cannot see an edge renaming, but a later
script line names edges by id, so a move must keep giving the same frame
and the same records, edge for edge.  The file holds every frame and
every step record (and the record of the step back) of the bundled and
frozen movies and the symmetry suite's movies, and the frame after r3 at
every r3 site of the table knots and a few braid closures.

Regenerate the file with
``PYTHONPATH=src python tests/test_surgery_pins.py > tests/movie_surgery.txt``
only when a change of surgery output is intended.
"""

import os
import sys

from knothom.cli import SYMMETRY_MOVIES, bundled_movie_paths
from knothom.cobordism import Move, MoveError, apply_move, parse_movie
from knothom.diagram import parse_pd
from knothom.tables import braid_pd, load_table

PINS = os.path.join(os.path.dirname(__file__), "movie_surgery.txt")
FROZEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "inputs")
R3_BRAIDS = (([1, 2, 1], 3), ([-1, -2, -1], 3), ([1, 2, 1, 2, 1], 3),
             ([1, 2, 3, 1, 2, 3], 4), ([1, 2, -1, 2, 3, -2, 3], 4))
HEADER = """\
# Frames and step records of movie surgery (see tests/test_surgery_pins.py).
# A frame is (crossings, signs, free edges); a step line gives the record
# of the step and of the step back, each as sorted (field, value) pairs.
"""


def _frame(D):
    return repr(D.key())


def _record(info):
    return repr(sorted(info.items()))


def _scripts():
    """(name, text) of the bundled, frozen and symmetry-suite movies."""
    paths = bundled_movie_paths() + [
        os.path.join(FROZEN_DIR, f) for f in sorted(os.listdir(FROZEN_DIR))
        if f.endswith(".movie")]
    out = []
    for p in paths:
        with open(p) as fh:
            out.append((os.path.basename(p), fh.read()))
    return out + [(name, script) for name, script, _ in SYMMETRY_MOVIES]


def r3_sites():
    """(name, diagram, (a, b, c)) for every ordered triple of crossings
    at which r3 applies."""
    table = load_table()
    subjects = [(name, table[name]) for name in sorted(table)] + [
        ("braid %s/%d" % (",".join(map(str, w)), k), parse_pd(braid_pd(w, k)))
        for w, k in R3_BRAIDS]
    sites = []
    for name, D in subjects:
        for a in range(D.n):
            for b in range(D.n):
                for c in range(D.n):
                    if len({a, b, c}) < 3:
                        continue
                    try:
                        apply_move(D, Move("r3", (a, b, c)))
                    except MoveError:
                        continue
                    sites.append((name, D, (a, b, c)))
    return sites


def surgery_lines():
    lines = []
    for name, text in _scripts():
        movie = parse_movie(text)
        D = movie.initial
        lines.append("== movie %s" % name)
        lines.append("frame 0: %s" % _frame(D))
        for k, mv in enumerate(movie.moves, 1):
            D, info, inverse = apply_move(D, mv)
            lines.append("step %d (%s): %s back %s"
                         % (k, mv, _record(info), _record(inverse)))
            lines.append("frame %d: %s" % (k, _frame(D)))
    lines.append("== r3")
    for name, D, triple in r3_sites():
        new, _, _ = apply_move(D, Move("r3", triple))
        lines.append("%s %s: %s" % (name, triple, _frame(new)))
    return lines


def test_surgery_output_is_pinned():
    with open(PINS) as fh:
        pinned = [line.rstrip("\n") for line in fh
                  if not line.startswith("#")]
    got = surgery_lines()
    for k, (want, line) in enumerate(zip(pinned, got)):
        assert line == want, "line %d differs" % k
    assert len(got) == len(pinned)


def test_pins_cover_every_movie_and_r3_site():
    with open(PINS) as fh:
        lines = fh.read().splitlines()
    movies = [line[len("== movie "):] for line in lines
              if line.startswith("== movie ")]
    assert movies == [name for name, _ in _scripts()]
    assert len(movies) == 3 + 9 + len(SYMMETRY_MOVIES) == 20
    r3 = lines[lines.index("== r3") + 1:]
    assert len(r3) == len(r3_sites()) == 96


def test_r3_twice_gives_back_the_frame():
    sites = r3_sites()
    assert sites
    for name, D, triple in sites:
        new, info, inverse = apply_move(D, Move("r3", triple))
        assert info == inverse == {"kind": "r3", "crossings": triple}
        back, _, _ = apply_move(new, Move("r3", triple))
        assert back.key() == D.key(), (name, triple)


if __name__ == "__main__":
    sys.stdout.write(HEADER)
    for line in surgery_lines():
        print(line)
