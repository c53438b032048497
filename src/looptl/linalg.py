"""Small exact linear-algebra helpers over duck-typed fields.

Matrices are lists of lists of scalars supporting +, -, *, /, bool
(truthiness = nonzero).  Works for Fraction, RationalFunc and the
special-field elements alike.
"""

from __future__ import annotations


def rref(mat):
    """Row-reduce in place-free fashion; returns (rows, pivot_columns)."""
    rows = [list(r) for r in mat]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(mat):
    return len(rref(mat)[1])


def nullspace(mat, zero, one):
    """Basis of the right null space; vectors as lists of scalars."""
    if not mat:
        return []
    ncols = len(mat[0])
    rows, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = zero - rows[r][fc]
        out.append(vec)
    return out


def same_span(a, b):
    """Whether two row collections span the same subspace.

    One rref of a: every row of b must reduce to zero against its pivot
    rows, and then b spans all of span(a) exactly when its coordinates on
    those rows, its entries in the pivot columns, have full rank.
    """
    rows, pivots = rref(a)
    for vec in b:
        for row, pc in zip(rows, pivots):
            f = vec[pc]
            if f:
                vec = [x - f * y if y else x for x, y in zip(vec, row)]
        if any(vec):
            return False
    return rank([[vec[pc] for pc in pivots] for vec in b]) == len(pivots)
