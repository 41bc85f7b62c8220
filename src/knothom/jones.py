"""Kauffman bracket state sum, kept independent of the homology code.

This module recounts circles with its own permutation-cycle tracer (no
union-find, no Resolution objects) so it can serve as an oracle for both
the smoothing machinery and the graded Euler characteristic.

Conventions: the A-smoothing of X[a,b,c,d] joins a-b and c-d (the same
pairing the complex calls the 0-smoothing), <unloop> = 1, each extra
circle contributes delta = -A^2 - A^-2, and the writhe correction is
f = (-A^3)^(-w) <D>.  Substituting t = A^-4 gives the Jones polynomial
normalized to 1 on the unknot.
"""


def circle_count(diagram, state):
    """Number of circles in a smoothing, via cycle decomposition of ends.

    Ends are (crossing, slot) pairs plus two virtual ends per free edge.
    Each edge pairs its two ends; each smoothing arc pairs two ends at a
    crossing.  Circles are the orbits of the composition.
    """
    edge_mate = {}
    occs = {}
    for ci, cr in enumerate(diagram.crossings):
        for slot, e in enumerate(cr):
            occs.setdefault(e, []).append((ci, slot))
    for e, pair in occs.items():
        p, q = pair
        edge_mate[p] = q
        edge_mate[q] = p
    smooth_mate = {}
    for ci in range(len(diagram.crossings)):
        if state >> ci & 1:
            pairs = ((0, 3), (1, 2))
        else:
            pairs = ((0, 1), (2, 3))
        for s1, s2 in pairs:
            smooth_mate[(ci, s1)] = (ci, s2)
            smooth_mate[(ci, s2)] = (ci, s1)
    # Orbits of smooth∘edge walk each circle in one direction, so every
    # circle shows up as exactly two orbits (one per direction).
    orbits = 0
    seen = set()
    for start in edge_mate:
        if start in seen:
            continue
        orbits += 1
        p = start
        while True:
            seen.add(p)
            p = smooth_mate[edge_mate[p]]
            if p == start:
                break
    if orbits % 2:
        raise ValueError("the smoothing walks %d orbits, an odd number; "
                         "the diagram is malformed" % orbits)
    return orbits // 2 + len(diagram.free_edges)


def kauffman_bracket(diagram):
    """The bracket as {power of A: integer coefficient}."""
    n = len(diagram.crossings)
    out = {}
    for state in range(1 << n):
        ones = bin(state).count("1")
        apow = n - 2 * ones
        c = circle_count(diagram, state)
        # delta^(c-1), delta = -A^2 - A^-2
        term = {0: 1}
        for _ in range(c - 1):
            nxt = {}
            for k, v in term.items():
                for dk in (2, -2):
                    nxt[k + dk] = nxt.get(k + dk, 0) - v
            term = nxt
        for k, v in term.items():
            key = k + apow
            out[key] = out.get(key, 0) + v
            if out[key] == 0:
                del out[key]
    return out


def jones_polynomial(diagram):
    """Jones polynomial in t (t = A^-4), as {power: coeff}.

    Only defined when all A-exponents of the normalized bracket are
    multiples of 4, which holds for knots and odd-writhe links; the
    general link case would need half-integer powers, so we raise there.
    """
    br = kauffman_bracket(diagram)
    w = diagram.writhe
    # multiply by (-A^3)^(-w) = (-1)^w A^(-3w)
    sign = -1 if w % 2 else 1
    f = {k - 3 * w: sign * v for k, v in br.items()}
    out = {}
    for k, v in f.items():
        if k % 4 != 0:
            raise ValueError("bracket exponent %d not divisible by 4" % k)
        out[-k // 4] = v
    return out


def quantum_jones(diagram):
    """(q + q^-1) * V(t=q^2): the unnormalized polynomial in q."""
    v = jones_polynomial(diagram)
    out = {}
    for k, c in v.items():
        for d in (1, -1):
            key = 2 * k + d
            out[key] = out.get(key, 0) + c
            if out[key] == 0:
                del out[key]
    return out


def determinant(diagram):
    """|V(-1)|, the knot determinant."""
    v = jones_polynomial(diagram)
    total = sum(c * (-1) ** (k % 2) for k, c in v.items())
    return abs(total)


def poly_str(p, var="t"):
    if not p:
        return "0"
    bits = []
    for k in sorted(p):
        c = p[k]
        if k == 0:
            bits.append("%+d" % c)
        else:
            head = "%+d*" % c if abs(c) != 1 else ("+" if c > 0 else "-")
            bits.append("%s%s^%d" % (head, var, k))
    return " ".join(bits)
