"""Correctness checks on CLI outputs.

Every check takes what an operation printed (and its exit code) plus
facts the benchmark derives on its own from the input, and returns a
list of error strings, empty when the output is right.  None of them
compares against a stored copy of an earlier output: the summary is
checked against the Kauffman-bracket Jones polynomial and the shape of
Lee/Rasmussen free part, a verify run against the instance count the
knot implies, a movie against the identity it must induce.
"""

import json


def f2_dims(free, torsion):
    """F2 dimensions of a Bar-Natan summary by universal coefficients:
    a free summand at (r, q) gives one class there; an order-k torsion
    summand gives one at (r, q) and one at (r - 1, q - 2k)."""
    dims = {}
    for r, q, m in free:
        dims[(r, q)] = dims.get((r, q), 0) + m
    for r, q, k, m in torsion:
        for key in ((r, q), (r - 1, q - 2 * k)):
            dims[key] = dims.get(key, 0) + m
    return dims


def euler_characteristic(dims):
    """Graded Euler characteristic {q: coefficient} of (r, q) dimensions."""
    out = {}
    for (r, q), m in dims.items():
        out[q] = out.get(q, 0) + (-m if r % 2 else m)
    return {q: c for q, c in out.items() if c}


def check_summary(code, stdout, jones, torus_s=None):
    """``homology --output json`` under bn for one knot.

    ``jones`` is the knot's unnormalized quantum Jones polynomial; with
    ``torus_s`` the free part must sit at s - 1 and s + 1 with
    |s| = torus_s.
    """
    if code != 0:
        return ["exit code %s" % code]
    try:
        payload = json.loads(stdout)
        free = [tuple(t) for t in payload["free"]]
        torsion = [tuple(t) for t in payload["torsion"]]
    except (ValueError, KeyError, TypeError) as e:
        return ["unreadable summary: %s" % e]
    errors = []
    chi = euler_characteristic(f2_dims(free, torsion))
    if chi != jones:
        errors.append("Euler characteristic %s != quantum Jones %s"
                      % (sorted(chi.items()), sorted(jones.items())))
    qs = sorted(q for r, q, m in free if r == 0 and m == 1)
    if len(free) != 2 or len(qs) != 2 or qs[1] - qs[0] != 2:
        errors.append("free part %s is not two rank-1 summands at r = 0, "
                      "two q-degrees apart" % (free,))
    elif torus_s is not None and abs(qs[0] + 1) != torus_s:
        errors.append("free part at q = %s, expected s -/+ 1 with |s| = %d"
                      % (qs, torus_s))
    mu = max((k for _, _, k, _ in torsion), default=0)
    bound = payload.get("bound") or {}
    if bound.get("label") != "mu" or bound.get("value") != mu:
        errors.append("bound %s is not mu = %d, the largest torsion order"
                      % (bound, mu))
    return errors


def check_verify(code, stdout, suite, theory, instances):
    """``verify <suite> --theory <theory>`` over a one-knot table: every
    instance passes and there are exactly ``instances`` of them."""
    lines = stdout.splitlines()
    errors = []
    if code != 0:
        errors.append("exit code %s" % code)
    if not lines:
        return errors + ["no output"]
    body, last = lines[:-1], lines[-1]
    if last != "%d/%d instances passed" % (instances, instances):
        errors.append("last line %r, expected %d/%d instances passed"
                      % (last, instances, instances))
    if len(body) != instances:
        errors.append("%d instance lines, expected %d" % (len(body), instances))
    for line in body:
        if not (line.startswith("PASS %s " % suite)
                and line.endswith(" " + theory)):
            errors.append("not a PASS line of %s under %s: %r"
                          % (suite, theory, line))
    return errors


def check_compare(code, stdout, spec, equal):
    """``movie ... --compare <spec>``: ``equal`` says which verdict the
    mathematics requires (G∘F = id is equal, x^1 against it is not)."""
    want_line = "compare %s: %s" % (spec, "equal" if equal else "DIFFERENT")
    want_code = 0 if equal else 1
    lines = stdout.splitlines()
    errors = []
    if code != want_code:
        errors.append("exit code %s, expected %d" % (code, want_code))
    if not lines or lines[-1] != want_line:
        errors.append("last line %r, expected %r"
                      % (lines[-1] if lines else "", want_line))
    return errors


def check_bound(code, stdout):
    """``bound <start> <final> --movie <file>``: the saddle count of a
    ribbon movie bounds |mu(K0) - mu(K1)| (|nu(K0) - nu(K1)|)."""
    errors = [] if code == 0 else ["exit code %s" % code]
    if not any(line.startswith("hypothesis d = ") and
               line.endswith(": consistent") for line in stdout.splitlines()):
        errors.append("no consistent hypothesis line in %r" % stdout)
    return errors


def check_frames(jones0, jones1, summary0, summary1):
    """First and last frame of an isotopy movie: same Jones polynomial,
    same Bar-Natan homology."""
    errors = []
    if jones0 != jones1:
        errors.append("Jones polynomials of first and last frame differ")
    if summary0 != summary1:
        errors.append("bn summaries of first and last frame differ")
    return errors
