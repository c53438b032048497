"""Exact linear algebra over duck-typed fields: one echelon reducer.

Vectors are lists of scalars supporting +, -, *, /, == and bool
(truthiness = nonzero).  Works for Fraction, RationalFunc and the
special-field elements alike; each has canonical equality, so a reduced
row echelon form can be compared entry by entry.

Each echelon row is kept dense, with the ascending list of its nonzero
columns (its support) beside it: subtracting a multiple of a row
touches only those columns, which is what keeps sparse elimination
cheap when a truth test on an exact scalar is not.
"""

from __future__ import annotations

from bisect import bisect


def _subtract(vec, f, row, support):
    """vec -= f * row in place, over the columns of row's support."""
    for j in support:
        vec[j] = vec[j] - f * row[j]


class Echelon:
    """Row echelon form of a growing set of rows.

    rows[i] has a one in column pivots[i], zeros before it and zeros in
    every pivot column that existed when it was added; pivots ascend.
    supports[i] lists the nonzero columns of rows[i] in ascending order.
    reduced() back-substitutes once to the reduced row echelon form.
    """

    def __init__(self, rows=()):
        self.pivots = []
        self.rows = []
        self.supports = []
        for row in rows:
            self.add(row)

    def reduce(self, vec):
        """vec less the combination of rows that clears every pivot column."""
        vec = list(vec)
        for c, row, support in zip(self.pivots, self.rows, self.supports):
            f = vec[c]
            if f:
                _subtract(vec, f, row, support)
        return vec

    def add(self, vec):
        """Add vec's reduction as a new row; False if vec is in the span."""
        vec = self.reduce(vec)
        for c, x in enumerate(vec):
            if x:
                inv = 1 / x
                support = [j for j in range(c, len(vec)) if vec[j]]
                for j in support:
                    vec[j] = vec[j] * inv
                k = bisect(self.pivots, c)
                self.pivots.insert(k, c)
                self.rows.insert(k, vec)
                self.supports.insert(k, support)
                return True
        return False

    def reduced(self):
        """Rows of the reduced row echelon form, in pivot order."""
        rows = [list(row) for row in self.rows]
        supports = list(self.supports)
        for i in reversed(range(len(rows))):
            row = rows[i]
            for j in range(i + 1, len(rows)):
                f = row[self.pivots[j]]
                if f:
                    _subtract(row, f, rows[j], supports[j])
            supports[i] = [k for k in range(self.pivots[i], len(row))
                           if row[k]]
        return rows


def rref(mat):
    """(nonzero rows of the reduced row echelon form, pivot columns)."""
    ech = Echelon(mat)
    return ech.reduced(), ech.pivots


def rank(mat):
    return len(Echelon(mat).pivots)


def nullspace(mat):
    """Basis of the right null space; vectors as lists of scalars.

    Zero and one come from the entries' own type, as in scalars._pmul.
    """
    ncols = len(mat[0]) if mat else 0
    if not ncols:
        return []
    zero = mat[0][0] - mat[0][0]
    one = zero + 1
    rows, pivots = rref(mat)
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = one
        for row, pc in zip(rows, pivots):
            vec[pc] = zero - row[fc]
        out.append(vec)
    return out


def same_span(a, b):
    """Whether two row collections span the same subspace: the reduced
    row echelon form depends only on the span."""
    return rref(a) == rref(b)
