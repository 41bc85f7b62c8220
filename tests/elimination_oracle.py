"""The prescribed-pair elimination that an r1 or r2 move's read-off
(``cobordism._read_off``) stands for, kept as its test oracle: the pairs
are cancelled one by one through ``homology._Blocks``, fill-in and all,
and the result is a Reduction as ``reduce_complex`` returns one."""

from knothom.homology import _Blocks


def reduce_pairs(cx, pairs, drop=True):
    """Cancel the prescribed pivots (r, x, y) of ``cx``: x indexes a
    generator of degree r and y one of degree r + 1.  Degree by degree,
    the prescribed sources are popped least first, and each cancels
    against its y.  A source given twice, a target that is also a
    prescribed source, or a pair whose x or y an earlier pivot has
    cancelled, is already gone, and an entry <dx, y> that is not a unit
    cannot be cancelled; either raises ValueError.

    With ``drop``, degree r is loaded without its entries at the
    prescribed sources of degree r + 1, as the read-off loads it; since
    those sources are cancelled in their turn, this changes nothing that
    survives, and the tests hold both loadings to that."""
    R = cx.ring
    blocks = _Blocks(cx)
    killed = blocks.killed
    table = {}      # the prescribed pivots, {r: {x: y}}
    for r, x, y in pairs:
        if x in table.setdefault(r, {}):
            raise ValueError("prescribed pair already gone")
        table[r][x] = y
    for r, pivots in table.items():
        sources = table.get(r + 1, ())
        if any(y in sources for y in pivots.values()):
            raise ValueError("prescribed pair already gone")

    for r in cx.degrees:
        cols_r = blocks.load(r)
        rows_r = blocks.rows[r]
        for t in table.get(r + 1, ()) if drop else ():
            for w in rows_r.pop(t, ()):
                del cols_r[w][t]
                if not cols_r[w]:
                    del cols_r[w]
        for x in sorted(table.get(r, ())):
            y = table[r][x]
            if x in killed[r] or y in killed.get(r + 1, ()):
                raise ValueError("prescribed pair already gone")
            col = cols_r.get(x, {})
            if not R.is_unit(col.get(y, R.zero)):
                raise ValueError("prescribed pair is not a unit")
            uinv = R.inv(col[y])
            dx, into_y = blocks.cancel(r, x, y, R.mul, uinv)
            blocks.steps.append((r, x, y, uinv, dx, into_y))
    return blocks.reduction()
