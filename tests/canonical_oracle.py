"""Row-by-row canonical form: the test oracle for `finring.canonical_form`.

It narrows the shape's automorphisms one whole row of the relabeled mul
table at a time, each row packed into a uint64 key whose order is the
row's lexicographic order, so it assumes nothing about the generators of
the additive group.  Production narrows by the generator constants alone,
and the tests check the two forms byte for byte.
"""

import numpy as np

from finring import enumeration
from finring.enumeration import CanonicalForm


def row_narrowed_form(r):
    """The least (add, mul, one) relabeling of r onto its additive shape."""
    ctx = enumeration._shape_context(r.additive_type)
    n = r.order
    add, mul = r.tables()
    phi = next(enumeration._additive_maps(ctx, add))[0]
    pulled = np.argsort(phi)[mul[np.ix_(phi, phi)]].astype(np.uint8)
    autos, inverses = enumeration._shape_automorphisms(ctx)
    # Row x of a relabeling is phi[pulled[inv x, inv y]] over y; row 0 is
    # zero in every relabeling.  Entries are below 16, so 4 bits each.
    alive = np.arange(len(autos))
    shifts = np.arange(4 * (n - 1), -1, -4, dtype=np.uint64)
    for x in range(1, n):
        inv = inverses[alive]
        row = np.take_along_axis(autos[alive], pulled[inv[:, x:x + 1], inv], axis=1)
        key = (row.astype(np.uint64) << shifts).sum(axis=1)
        alive = alive[key == key.min()]
    inv = inverses[alive[0]]
    best = autos[alive[0]][pulled[np.ix_(inv, inv)]]
    one = int(autos[alive[0]][np.argsort(phi)[r.one]])
    return CanonicalForm(invariant_factors=ctx.factors,
                         add_table=tuple(v for row in ctx.add for v in row),
                         mul_table=tuple(best.ravel().tolist()), one=one)
