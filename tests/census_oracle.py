"""Streamed unit census of full matrix rings: the test oracle for orders 4097 to 2**20.

It walks every invertible matrix in numpy blocks, so it owes nothing to
the structural census in `finring.analysis`.  It reuses the package's
determinant kernel, which the tests check against a scalar cofactor
expansion, and `inverse_index` for the base ring's units.
"""

import numpy as np

from finring import BudgetError, analysis, rings


def base_unit_mask(base):
    """Which base-ring indices are units, one `inverse_index` per non-field index."""
    if analysis._field_like(base):
        return np.arange(base.order) != 0
    return np.array([analysis.inverse_index(base, u) is not None for u in range(base.order)])


def value_grid(m, k):
    """Every k-tuple over range(m), as the rows of an (m^k, k) array."""
    return np.indices((m,) * k, dtype=np.intp).reshape(k, m ** k).T


def table_ops(base):
    """The base ring's elementwise (add, mul, neg) as gathers through its tables."""
    badd, bmul = base.tables()
    bneg = np.argmax(badd == 0, axis=1)
    return (lambda a, b: badd[a, b]), (lambda a, b: bmul[a, b]), bneg.__getitem__


def invertible_blocks(r):
    """The invertible matrices of a matrix ring with every cell stored, as blocks
    of row-major entries.

    Matrices with an all-zero first column cannot be invertible, so that
    column is skipped.  A block holds every matrix for a run of the other
    first columns, in lexicographic order, with the remaining cells over
    all values (about `rings._BLOCK_ENTRIES` / 16 entries).  Its rows whose
    determinant is a unit of the base are yielded.  A ring of order above
    DEFAULT_ORDER_CAP raises BudgetError before any block.
    """
    if r.order > rings.DEFAULT_ORDER_CAP:
        raise BudgetError(f"{r.name}: streaming unit scan needs order <= {rings.DEFAULT_ORDER_CAP}")
    n, base = r.n, r.base
    ops = table_ops(base) if n > 1 else None
    base_units = base_unit_mask(base)
    first = [i * n for i in range(n)]
    rest = [k for k in range(r.cells) if k % n]
    columns = value_grid(base.order, n)[1:]  # M(n,Z(1)) has none
    inner = value_grid(base.order, len(rest))
    chunks = rings.row_blocks(len(columns), 16 * len(inner) * r.cells)
    step = chunks[0].stop if chunks else 0
    block = np.zeros((step * len(inner), r.cells), dtype=np.intp)
    block[:, rest] = np.tile(inner, (step, 1))
    for chunk in chunks:
        view = block[:(chunk.stop - chunk.start) * len(inner)]
        view[:, first] = np.repeat(columns[chunk], len(inner), axis=0)
        yield view[base_units[analysis._determinants(ops, view, n)]]


def stream_units(r):
    """(unit count, unit sum index) of a matrix ring with every cell stored (M(n,B),
    or UT(1,B)), streamed in blocks.

    Each block adds a per-value count of every cell (one `bincount`); a
    cell's sum is then the sum over values v of (count of v) * v in the
    base ring.
    """
    m, badd = r.base.order, r.base.add
    offsets = np.arange(r.cells) * m
    count, counts = 0, np.zeros(r.cells * m, dtype=np.int64)
    for units in invertible_blocks(r):
        count += len(units)
        counts += np.bincount((units + offsets).ravel(), minlength=r.cells * m)
    sums = []
    for cell in counts.reshape(r.cells, m).tolist():
        total = 0
        for v, k in enumerate(cell):
            if v and k:
                total = badd(total, rings._multiple(badd, v, k))
        sums.append(total)
    return count, r.from_entries(sums)
