"""Test oracles for the label tables.  Three carry circle labels through
a local surgery label by label, the way the package did before
``persisting`` and ``CubeComplex.carry`` took the job; ``blocks_equal``
compares two maps matrix by matrix, the way the package did before
``complexes.maps_equal`` compared their tables.  The tests hold the
package to them."""

from knothom.complexes import mat_eq


def circle_match(rs, rt, skip=()):
    """For each circle of smoothing ``rt``, the circle of ``rs`` that
    persists as it, found through an edge that lies in ``rs`` on a circle
    not listed in ``skip``; None where there is no such edge."""
    match = []
    for circ in rt.circles:
        match.append(next((rs.index[e] for e in circ
                           if e in rs.index and rs.index[e] not in skip),
                          None))
    return tuple(match)


def transport(labels, match):
    """Target labels whose bit j is the bit of source circle match[j]
    (0, the label 1, where match[j] is None)."""
    out = 0
    for j, mj in enumerate(match):
        if mj is not None and labels >> mj & 1:
            out |= 1 << j
    return out


def plan_images(theory, plan, labels):
    """Images of ``labels`` under a merge or split ``plan`` shaped as
    ``CubeComplex.edge_plan`` returns it: yields (target labels, payload),
    without a sign."""
    kind = plan[0]
    base = transport(labels, plan[4])
    if kind == "merge":
        _, ia, ib, it, _ = plan
        prod = theory.mul_basis(labels >> ia & 1, labels >> ib & 1)
        for comp in (0, 1):
            coeff = prod[comp]
            if not theory.ring.is_zero(coeff):
                yield base | (comp << it), coeff
    else:
        _, ia, it1, it2, _ = plan
        for (l1, l2), coeff in theory.comul_basis(labels >> ia & 1).items():
            yield base | (l1 << it1) | (l2 << it2), coeff


def blocks_equal(f, g):
    """Whether the chain maps f and g have equal matrices out of every
    degree of their source, built from the images of the generators."""
    if f.r_shift != g.r_shift:
        return False
    return all(mat_eq(f.ring, f.block(r), g.block(r))
               for r in f.source.degrees)
