"""Exact scalar arithmetic for loop-weight computations.

Three interchangeable backends:

* generic  -- rational functions in the loop weight d with integer
  coefficients, always kept in lowest terms;
* special  -- the exact real field Q(delta) where delta = 2*cos(pi/(ell+2))
  is the special loop weight at level ell;
* float    -- plain machine floats for cross-checks.

Quantum integers [m] satisfy [0]=0, [1]=1, [m+1] = d[m] - [m-1].
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConfigInvalid, PoleAtSpecialValue

# ---------------------------------------------------------------------------
# integer polynomial helpers (little-endian coefficient lists)
# ---------------------------------------------------------------------------


def _trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _pmul(a, b):
    if not a or not b:
        return []
    # the ring's own zero, so that a power no product reaches keeps the type
    out = [a[0] - a[0]] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _pdivmod(a, b):
    """Quotient and remainder of a by b over a field whose zero is falsy
    (Fraction or FieldElement coefficients)."""
    a, b = _trim(a), _trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    zero = b[-1] - b[-1]
    q = [zero] * max(len(a) - len(b) + 1, 0)
    r = a
    while len(r) >= len(b):
        k = len(r) - len(b)
        coef = r[-1] / b[-1]
        q[k] = coef
        for i in range(len(b) - 1):
            r[k + i] = r[k + i] - coef * b[i]
        r = _trim(r[:-1])
    return _trim(q), r


def _pexact_div(a, b):
    """Quotient a / b of integer polynomials when b divides a in Z[d].

    The quotient is found top down as r[-1] / lc(b) for the running
    remainder r; when it has integer coefficients each of these divisions
    is exact.  A division that leaves a residue, or a nonzero final
    remainder, raises ArithmeticError: the result is never truncated.
    (By Gauss's lemma a primitive b that divides a over Q divides it over
    Z, so dividing by a primitive gcd is always exact.)
    """
    a, b = _trim(a), _trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db, lb = len(b) - 1, b[-1]
    r = a
    q = [0] * max(len(r) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[k + db], lb)
        if rest:
            raise ArithmeticError("inexact polynomial division")
        if c:
            q[k] = c
            for i in range(db):
                r[k + i] -= c * b[i]
    if any(r[:db]):
        raise ArithmeticError("inexact polynomial division")
    return q


def _pcontent(a):
    g = 0
    for x in a:
        g = math.gcd(g, abs(x))
    return g or 1


def _pprimitive(a):
    c = _pcontent(a)
    return [x // c for x in a] if c > 1 else list(a)


def _pprem(a, b):
    """Integer pseudo-remainder of a by b (a scaled by powers of lc(b))."""
    r = _trim(a)
    db, lb = len(b) - 1, b[-1]
    while r and len(r) - 1 >= db:
        k = len(r) - 1 - db
        lead = r[-1]
        r = [lb * c for c in r]
        for i in range(len(b)):
            r[k + i] -= lead * b[i]
        r = _trim(r[:-1])
    return r


def _pgcd(a, b):
    """Primitive gcd of two integer polynomials (positive leading coeff)."""
    a, b = _trim(a), _trim(b)
    if not a:
        g = list(b)
    elif not b:
        g = list(a)
    else:
        x, y = _pprimitive(a), _pprimitive(b)
        if len(y) > len(x):
            x, y = y, x
        while y:
            r = _pprem(x, y)
            x, y = y, _pprimitive(r)
        g = x
    g = _trim(g)
    if g and g[-1] < 0:
        g = [-c for c in g]
    return g or [1]


def _horner(a, x, zero):
    """The value of sum_k a[k] x^k by Horner's rule, accumulated from zero
    (0.0 for a float value, the field's zero for an exact one)."""
    acc = zero
    for c in reversed(a):
        acc = acc * x + c
    return acc


def chebyshev(t, x0, x1, n):
    """[x_0, ..., x_n] for the three-term recurrence x_{j+1} = t x_j - x_{j-1}.

    With x0 = 0, x1 = 1 the x_j are the quantum integers [j] at loop weight
    t, U_{j-1}(t/2); with x0 = 2, x1 = t = 2cos(theta) they are
    2cos(j theta) = 2 T_j(t/2).
    """
    if n < 0:
        raise ValueError(f"recurrence index {n} is negative")
    out = [x0, x1]
    for _ in range(n - 1):
        out.append(t * out[-1] - out[-2])
    return out[:n + 1]


def _pstr(a, var="d"):
    if not a:
        return "0"
    terms = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(f"{c}")
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            s = "-" if c < 0 else ""
            pw = var if i == 1 else f"{var}^{i}"
            terms.append(f"{s}{mag}{pw}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


# ---------------------------------------------------------------------------
# generic backend: rational functions of the loop weight
# ---------------------------------------------------------------------------


class RationalFunc:
    """Rational function of the loop weight with integer coefficients.

    Kept in lowest terms over Z[d]: numerator and denominator share no
    factor, neither a polynomial nor an integer one, and the leading
    coefficient of the denominator is positive, so representations are
    canonical.  Normalisation divides by the polynomial gcd with
    _pexact_div and never leaves the integers.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,), _normalized=False):
        if isinstance(num, int):
            num = [num] if num else []
        if isinstance(den, int):
            den = [den]
        num, den = _trim(num), _trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not _normalized and den != [1]:
            if not num:
                den = [1]
            else:
                g = _pgcd(num, den)
                if len(g) > 1:
                    num, den = _pexact_div(num, g), _pexact_div(den, g)
                cn, cd = _pcontent(num), _pcontent(den)
                g = math.gcd(cn, cd)
                if g > 1:
                    num = [c // g for c in num]
                    den = [c // g for c in den]
                if den[-1] < 0:
                    num = [-c for c in num]
                    den = [-c for c in den]
        elif den == [1]:
            den = [1]
        self.num = tuple(num)
        self.den = tuple(den)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunc):
            return other
        if isinstance(other, int):
            return RationalFunc(other)
        if isinstance(other, Fraction):
            return RationalFunc([other.numerator], [other.denominator])
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.den == (1,) and o.den == (1,):
            return RationalFunc(_padd(self.num, o.num), [1], _normalized=True)
        return RationalFunc(
            _padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
            _pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunc([-c for c in self.num], list(self.den),
                            _normalized=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # times one is the other operand, with no gcd
        if o.num == (1,) and o.den == (1,):
            return self
        if self.num == (1,) and self.den == (1,):
            return o
        if self.den == (1,) and o.den == (1,):
            return RationalFunc(_pmul(self.num, o.num), [1], _normalized=True)
        return RationalFunc(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunc(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __pow__(self, k):
        out = RationalFunc(1)
        base = self
        if k < 0:
            base, k = RationalFunc(1) / self, -k
        for _ in range(k):
            out = out * base
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a constant hashes as the equal int or Fraction does
        num, den = self.num, self.den
        if len(num) > 1 or len(den) > 1:
            return hash((num, den))
        c = num[0] if num else 0
        return hash(c if den == (1,) else Fraction(c, den[0]))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        if self.den == (1,):
            return _pstr(self.num)
        return f"({_pstr(self.num)})/({_pstr(self.den)})"

    # -- evaluation ---------------------------------------------------------

    def eval_float(self, d):
        return _horner(self.num, d, 0.0) / _horner(self.den, d, 0.0)


D_GENERIC = RationalFunc([0, 1])
ONE = RationalFunc(1)
ZERO = RationalFunc(0)


def quantum_int(m):
    """Quantum integer [m] as a polynomial in the loop weight."""
    return chebyshev(D_GENERIC, ZERO, ONE, m)[m]


# ---------------------------------------------------------------------------
# special backend: Q(delta), delta = 2cos(pi/(ell+2))
# ---------------------------------------------------------------------------


def _cyclotomic(n):
    """Integer coefficients of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _pexact_div(poly, _cyclotomic(d))
    return poly


def minimal_polynomial(ell):
    """Minimal polynomial (little-endian, integer, monic) of 2cos(pi/(ell+2))."""
    m = 2 * (ell + 2)
    phi = _cyclotomic(m)
    n = len(phi) - 1  # = euler phi(m), even for m >= 3
    half = n // 2
    # phi is palindromic; rewrite z^(-half) * phi(z) in y = z + 1/z using
    # z^k + z^(-k) = C_k(y), C_0 = 2, C_1 = y, C_k = y C_{k-1} - C_{k-2}.
    cheb = chebyshev(D_GENERIC, RationalFunc(2), D_GENERIC, half)
    out = [phi[half]]
    for k in range(1, half + 1):
        out = _padd(out, [phi[half + k] * c for c in cheb[k].num])
    return out


class SpecialField:
    """The real field Q(delta) for the special loop weight at level ell."""

    _cache = {}

    def __new__(cls, ell):
        if ell in cls._cache:
            return cls._cache[ell]
        if not isinstance(ell, int) or ell < 1:
            raise ConfigInvalid(f"level must be an integer >= 1, not {ell!r}")
        self = super().__new__(cls)
        self.ell = ell
        self.minpoly = minimal_polynomial(ell)
        self.degree = len(self.minpoly) - 1
        self.delta_float = 2.0 * math.cos(math.pi / (ell + 2))
        # _powers[k] holds delta^(degree + k) on the power basis; the
        # minimal polynomial is monic over Z, so every entry is an integer
        self._powers = [[-c for c in self.minpoly[:-1]]]
        # elements are immutable, so one copy of each constant serves
        # every caller
        self.zero = self.element([0])
        self.one = self.element([1])
        self.delta = self.element([0, 1])
        cls._cache[ell] = self
        return self

    def element(self, coeffs):
        """The element sum_k coeffs[k] delta^k, for int or rational coeffs
        (any length)."""
        coeffs = [x if type(x) is int else Fraction(x) for x in coeffs]
        den = math.lcm(*(x.denominator for x in coeffs))
        nums = [x.numerator * (den // x.denominator) for x in coeffs]
        return _canonical(self, self._reduce(nums), den)

    def _reduce(self, nums):
        """Fold the integers sum_k nums[k] delta^k onto the power basis
        (a list of `degree` ints) through the table of delta^k mod the
        minimal polynomial."""
        n = self.degree
        out = nums[:n]
        if len(out) < n:
            return out + [0] * (n - len(out))
        powers = self._powers
        while len(powers) < len(nums) - n:
            prev = powers[-1]
            top = prev[-1]
            powers.append([top * a + b for a, b in
                           zip(powers[0], [0] + prev[:-1])])
        for k in range(n, len(nums)):
            c = nums[k]
            if c:
                row = powers[k - n]
                for i in range(n):
                    out[i] += c * row[i]
        return out

    def quantum_int(self, m):
        return chebyshev(self.delta, self.zero, self.one, m)[m]

    def __repr__(self):
        return f"SpecialField(ell={self.ell})"


def _canonical(field, nums, den):
    """FieldElement with numerators nums over den > 0 in lowest terms."""
    if den == 1:
        return FieldElement(field, tuple(nums))
    g = math.gcd(den, *nums)
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    return FieldElement(field, tuple(nums), den)


class FieldElement:
    """Element of Q(delta) on the power basis of delta: the integer
    numerators `num` (one per power, `degree` of them) over one positive
    integer denominator `den`, with gcd(*num, den) == 1, so equal elements
    have equal (num, den).  Immutable: the slots are set only in
    __init__, so the field's zero, one and delta are shared objects."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den=1):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self):
        """The power-basis coefficients as Fractions (read-only view)."""
        return tuple(Fraction(x, self.den) for x in self.num)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element([other])
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.den == o.den:
            nums = [a + b for a, b in zip(self.num, o.num)]
            if self.den == 1:
                return FieldElement(self.field, tuple(nums))
            return _canonical(self.field, nums, self.den)
        da, db = self.den, o.den
        return _canonical(self.field, [a * db + b * da for a, b in
                                       zip(self.num, o.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.den == o.den:
            nums = [a - b for a, b in zip(self.num, o.num)]
            if self.den == 1:
                return FieldElement(self.field, tuple(nums))
            return _canonical(self.field, nums, self.den)
        da, db = self.den, o.den
        return _canonical(self.field, [a * db - b * da for a, b in
                                       zip(self.num, o.num)], da * db)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.num, o.num
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return _canonical(self.field, self.field._reduce(prod),
                          self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        if not any(self.num):
            raise ZeroDivisionError("inverse of zero field element")
        # num * y = 1 is the integer system M y = e_0, M the matrix of
        # multiplication by num.  Fraction-free Gauss-Jordan (Bareiss,
        # Math. Comp. 22, 1968): every division is exact, and it ends with
        # the last pivot, det M, on the whole diagonal.
        field, n = self.field, self.field.degree
        cols, col = [], list(self.num)
        for _ in range(n):
            cols.append(col)
            col = field._reduce([0] + col)
        m = [[c[i] for c in cols] + [int(i == 0)] for i in range(n)]
        prev = 1
        for k in range(n):
            piv = next(i for i in range(k, n) if m[i][k])
            m[k], m[piv] = m[piv], m[k]
            row = m[k]
            pk = row[k]
            for i in range(n):
                if i != k:
                    f = m[i][k]
                    m[i] = [(pk * a - f * b) // prev
                            for a, b in zip(m[i], row)]
            prev = pk
        sign = 1 if prev > 0 else -1
        return _canonical(field, [sign * self.den * r[n] for r in m],
                          sign * prev)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k):
        field = self.field
        if k > 0 and self is field.delta:
            # delta^k is the monomial folded through the power table
            return FieldElement(field, tuple(field._reduce([0] * k + [1])))
        out = field.one
        base = self if k >= 0 else self.inverse()
        for _ in range(abs(k)):
            out = out * base
        return out

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            # elements of two fields are never equal (their rational
            # elements hash alike, and so can meet in one dict)
            return (other.field is self.field and self.num == other.num
                    and self.den == other.den)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a rational element hashes as the equal int or Fraction does
        num, den = self.num, self.den
        if any(num[1:]):
            return hash((id(self.field), num, den))
        return hash(num[0] if den == 1 else Fraction(num[0], den))

    def __bool__(self):
        return any(self.num)

    def __float__(self):
        # int / int is correctly rounded, as float(Fraction) is
        return _horner([x / self.den for x in self.num],
                       self.field.delta_float, 0.0)

    def __repr__(self):
        return _pstr(self.coeffs, var="delta") \
            if self.field.degree > 1 else str(self.coeffs[0])


# ---------------------------------------------------------------------------
# backend bridging
# ---------------------------------------------------------------------------


def _one_denominator(coeffs):
    """(nums, den) with coeffs[i] == nums[i] / den: a nonempty list of
    exact scalars of one backend brought to one denominator, each
    numerator an integer polynomial (in d over RationalFunc, in delta on
    the power basis over Q(delta)).  den is the lcm of the distinct
    denominators: a polynomial lcm, one _pgcd per distinct RationalFunc
    denominator, or math.lcm of the FieldElement ones."""
    if not isinstance(coeffs[0], RationalFunc):
        den = math.lcm(*(c.den for c in coeffs))
        return [c.num if c.den == den else [x * (den // c.den) for x in c.num]
                for c in coeffs], den
    den = [1]
    for cd in dict.fromkeys(c.den for c in coeffs):
        if cd != (1,):
            den = _pmul(den, _pexact_div(list(cd), _pgcd(den, list(cd))))
    den = tuple(den)
    mult = {}
    nums = []
    for c in coeffs:
        if c.den == den:
            nums.append(c.num)
            continue
        if c.den not in mult:
            mult[c.den] = _pexact_div(list(den), list(c.den))
        nums.append(_pmul(c.num, mult[c.den]))
    return nums, den


def specialize(x, ell):
    """Map a generic scalar into Q(delta) at the level-ell special weight.

    Raises PoleAtSpecialValue when the denominator vanishes there.
    """
    field = SpecialField(ell)
    if isinstance(x, (int, Fraction)):
        return field.element([x])
    den = _horner(x.den, field.delta, field.zero)
    if not den:
        raise PoleAtSpecialValue(
            f"denominator {_pstr(list(x.den))} vanishes at level {ell}")
    return _horner(x.num, field.delta, field.zero) * den.inverse()


def serialize_scalar(x):
    """Canonical string form of an exact scalar."""
    if isinstance(x, Fraction):
        return str(x)
    return repr(x)
