"""The bundled knot table: its loader, and braid closures as PD codes.

``data/knots.tsv`` holds a PD code for every prime knot through 8
crossings, each up to mirror image.  It is frozen: ``load_table`` only
reads it (or the file named by the ``KNOTHOM_TABLE`` environment
variable), and ``scripts/make_table.py`` regenerates and audits it.
``braid_pd`` stays in the package because that script, the benchmark
inputs and the tests all build braid closures with it.
"""

import os

from .diagram import parse_pd

TABLE_ENV = "KNOTHOM_TABLE"


# -- braid closures ------------------------------------------------------

def braid_pd(word, strands):
    """PD text of the closure of a braid word (letters ±1..±(strands-1),
    all strands oriented downward; positive letter crosses the left
    strand over the right)."""
    if strands < 2:
        raise ValueError("a braid needs at least two strands")
    if set(abs(w) for w in word) != set(range(1, strands)):
        raise ValueError("every braid position must be crossed, else free "
                         "circles appear")
    cur = list(range(1, strands + 1))
    start = list(cur)
    nxt = strands + 1
    crossings = []
    for w in word:
        i = abs(w) - 1
        in_left, in_right = cur[i], cur[i + 1]
        out_left, out_right = nxt, nxt + 1
        nxt += 2
        if w > 0:
            crossings.append([in_right, out_right, out_left, in_left])
        else:
            crossings.append([in_left, in_right, out_right, out_left])
        cur[i], cur[i + 1] = out_left, out_right
    # close up: final position edges are the starting ones
    rename = {cur[i]: start[i] for i in range(strands)}
    out = []
    for cr in crossings:
        out.append("X[%s]" % ",".join(str(rename.get(e, e)) for e in cr))
    return "PD[" + ",".join(out) + "]"


# -- bundled table loader ------------------------------------------------

def default_table_path():
    env = os.environ.get(TABLE_ENV)
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "data", "knots.tsv")


def load_table(path=None):
    """name -> LinkDiagram from a TSV knot table."""
    if path is None:
        path = default_table_path()
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, pdtext = line.partition("\t")
            if not pdtext:
                raise ValueError("bad table record %r" % line)
            out[name] = parse_pd(pdtext)
    return out
