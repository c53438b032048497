"""Exact linear algebra over the package's scalars: one echelon reducer.

Vectors are lists of exact scalars of one backend: Q(delta) elements,
RationalFunc, or the rationals (int and Fraction), which may also be
mixed into either of the others.  Each backend has canonical equality,
so a reduced row echelon form can be compared entry by entry.

Inside Echelon a row is integer numerators over one denominator, as
scalars._one_denominator gives them: power-basis numerators over a
positive integer for Q(delta), and for the rationals as the degree-1
field (level 1, delta = 1); integer polynomials in d over one
polynomial for RationalFunc.  Only a row's nonzero columns (its support)
are stored.  Clearing column c of vec (numerators vn over vd) with the
pivot row (rn over rd, rn[c] == rd) is vn * s - f * rn over vd * s,
where f / s is vn[c] / rd in lowest terms: f acts as one multiplication
map per operation, and vd gains only the cofactors s.  The content is
divided out once per vector, when it becomes a row.  Scalars are built
only where rows leave the class: rows, reduce and reduced, and so rref,
nullspace and same_span.  The two backends differ only in their
numerator arithmetic (_FieldRows, _PolyRows).
"""

from __future__ import annotations

import math
from bisect import bisect
from fractions import Fraction
from itertools import chain, repeat
from operator import add, floordiv, mul, sub

from .scalars import (FieldElement, RationalFunc, SpecialField, _canonical,
                      _one_denominator, _padd, _pcontent, _pexact_div, _pgcd,
                      _pmul)


def _dot(coeffs, planes):
    """The entrywise sum of coeffs[i] * planes[i], as an iterator; at
    least one coefficient is nonzero."""
    acc = None
    for c, plane in zip(coeffs, planes):
        if c:
            term = map(mul, plane, repeat(c))
            acc = term if acc is None else map(add, acc, term)
    return acc


class _FieldRows:
    """Numerator arithmetic over Q(delta): a numerator is `degree` ints on
    the power basis of delta, a denominator the same form of a positive
    integer.  With field None the rows are of ints and Fractions, carried
    in the degree-1 field at level 1 and given back as Fractions."""

    def __init__(self, field):
        self.rational = field is None
        self.field = SpecialField(1) if field is None else field
        self.zero_num = (0,) * self.field.degree
        self.one = (1,) + self.zero_num[1:]

    def encode(self, entries):
        # the others are lifted by the field's own +, which refuses an
        # element of another field
        field = self.field
        nums, den = _one_denominator(
            [x if type(x) is FieldElement and x.field is field
             else field.zero + x for x in entries])
        return nums, (den,) + self.zero_num[1:]

    def value(self, num, den):
        if self.rational:
            return Fraction(num[0], den[0])
        return _canonical(self.field, num, den[0])

    def _matrix(self, f):
        """Rows of the matrix of multiplication by f on the power basis:
        column i is f * delta^i, folded as FieldElement.inverse does."""
        cols = [f]
        for _ in range(self.field.degree - 1):
            cols.append(self.field._reduce([0, *cols[-1]]))
        return list(zip(*cols))

    def times(self, f):
        """nums -> the products f * r of the numerators r in nums."""
        m = self._matrix(f)

        def apply(nums):
            planes = list(zip(*nums))
            return list(zip(*[_dot(row, planes) for row in m]))
        return apply

    def less(self, f):
        """less(vec, support, nums): vec[j] -= f * r for the columns j
        and numerators r of a row."""
        zero = self.zero_num
        m = self._matrix(f)

        def apply(vec, support, nums):
            planes = list(zip(*nums))
            old = zip(*[vec.get(j, zero) for j in support])
            vec.update(zip(support, zip(*[map(sub, v, _dot(row, planes))
                                          for v, row in zip(old, m)])))
        return apply

    def content(self, nums, den):
        """nums over den with their common integer factor divided out."""
        g = math.gcd(den[0], *chain.from_iterable(nums))
        if g == 1:
            return nums, den
        return (list(zip(*[map(floordiv, plane, repeat(g))
                           for plane in zip(*nums)])),
                tuple(x // g for x in den))

    def inverse(self, x):
        """(num, den) of 1 / x."""
        inv = FieldElement(self.field, tuple(x)).inverse()
        return inv.num, (inv.den,) + self.zero_num[1:]


class _PolyRows:
    """Numerator arithmetic over RationalFunc: numerators and
    denominators are integer polynomials in d."""

    zero_num = ()
    one = [1]

    def encode(self, entries):
        nums, den = _one_denominator(
            [x if type(x) is RationalFunc else RationalFunc(0) + x
             for x in entries])
        return nums, list(den)

    def value(self, num, den):
        return RationalFunc(num, den)

    def times(self, f):
        return lambda nums: [_pmul(f, r) for r in nums]

    def less(self, f):
        neg = [-x for x in f]

        def apply(vec, support, nums):
            for j, r in zip(support, nums):
                vec[j] = _padd(vec.get(j, ()), _pmul(neg, r))
        return apply

    def content(self, nums, den):
        """nums over den divided by their primitive polynomial gcd and
        their integer content."""
        g = den
        for v in nums:
            g = _pgcd(g, v)
        nums = [_pexact_div(v, g) for v in nums]
        den = _pexact_div(den, g)
        c = math.gcd(_pcontent(den), *map(_pcontent, nums))
        if c == 1:
            return nums, den
        return [[x // c for x in v] for v in nums], [x // c for x in den]

    def inverse(self, x):
        return [1], list(x)


def _eliminate(ops, vec, vd, pivots, rows):
    """vec (column -> numerator) over vd less the multiples of rows that
    clear their pivot columns, taken in pivot order; (vec, vd)."""
    for c, (support, nums, rd) in zip(pivots, rows):
        f = vec.get(c)
        if f is None or not any(f):
            continue
        (f,), s = ops.content([f], rd)
        if s != ops.one:
            scale = ops.times(s)
            vec = dict(zip(vec, scale(list(vec.values()))))
            (vd,) = scale([vd])
        ops.less(f)(vec, support, nums)
        del vec[c]
    return vec, vd


class Echelon:
    """Row echelon form of a growing set of rows.

    Row i has a one in column pivots[i], zeros before it and zeros in
    every pivot column that existed when it was added; pivots ascend.
    It is stored as (support, numerators, denominator): its nonzero
    columns in ascending order, their numerators, and one denominator.
    rows gives the rows as scalars; reduced() back-substitutes once to
    the reduced row echelon form.
    """

    def __init__(self, rows=()):
        self.pivots = []
        self._rows = []
        self._ops = None
        self._ncols = None
        for row in rows:
            self.add(row)

    def _encode(self, vec):
        """(column -> numerator, den) of vec's nonzero entries, or
        (None, None) for a zero vector.  The first nonzero vector fixes
        the backend and the row length."""
        ent = [(j, x) for j, x in enumerate(vec) if x]
        if not ent:
            return None, None
        if self._ops is None:
            kind = next((x for _, x in ent if isinstance(
                x, (FieldElement, RationalFunc))), None)
            if isinstance(kind, RationalFunc):
                self._ops = _PolyRows()
            else:
                self._ops = _FieldRows(None if kind is None else kind.field)
            self._ncols = len(vec)
        nums, den = self._ops.encode([x for _, x in ent])
        return dict(zip((j for j, _ in ent), nums)), den

    def _scalars(self, items, den):
        """The dense row of scalars with numerators (column, num) over den."""
        value = self._ops.value
        out = [value(self._ops.zero_num, self._ops.one)] * self._ncols
        for j, v in items:
            if any(v):
                out[j] = value(v, den)
        return out

    def reduce(self, vec):
        """vec less the combination of rows that clears every pivot column."""
        enc, den = self._encode(vec)
        if enc is None:
            return list(vec)
        enc, den = _eliminate(self._ops, enc, den, self.pivots, self._rows)
        return self._scalars(enc.items(), den)

    def add(self, vec):
        """Add vec's reduction as a new row; False if vec is in the span."""
        enc, den = self._encode(vec)
        if enc is None:
            return False
        ops = self._ops
        enc, _ = _eliminate(ops, enc, den, self.pivots, self._rows)
        support = sorted(j for j, v in enc.items() if any(v))
        if not support:
            return False
        c = support[0]
        num, den = ops.inverse(enc[c])
        nums, den = ops.content(ops.times(num)([enc[j] for j in support]),
                                den)
        k = bisect(self.pivots, c)
        self.pivots.insert(k, c)
        self._rows.insert(k, (support, nums, den))
        return True

    @property
    def rows(self):
        """The rows as lists of scalars, in pivot order."""
        return [self._scalars(zip(support, nums), den)
                for support, nums, den in self._rows]

    def reduced(self):
        """Rows of the reduced row echelon form, in pivot order."""
        ops, rows = self._ops, list(self._rows)
        for i in reversed(range(len(rows))):
            support, nums, den = rows[i]
            vec, den = _eliminate(ops, dict(zip(support, nums)), den,
                                  self.pivots[i + 1:], rows[i + 1:])
            support = sorted(j for j, v in vec.items() if any(v))
            nums, den = ops.content([vec[j] for j in support], den)
            rows[i] = (support, nums, den)
        return [self._scalars(zip(support, nums), den)
                for support, nums, den in rows]


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
