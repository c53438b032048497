import functools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from looptl.annular import even_sector_polynomial
from looptl.errors import PoleAtSpecialValue
from looptl.scalars import (RationalFunc, SpecialField, _pexact_div,
                            minimal_polynomial, quantum_int, serialize_scalar,
                            specialize)


def test_quantum_integers_generic():
    d = quantum_int(2).eval_float(1.75)
    assert d == pytest.approx(1.75)
    for m in range(17):
        # [m] = U_{m-1}(d/2), Chebyshev polynomials of the second kind as
        # sympy builds them (U_{-1} = 0)
        want = sympy.Poly(sympy.chebyshevu(m - 1, _D / 2), _D, domain="QQ")
        got = quantum_int(m)
        assert got.den == (1,)
        assert _zz(got.num).set_domain("QQ") == want
        # at d = 2 every [m] is m
        assert got.eval_float(2.0) == m


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6])
def test_minimal_polynomial_has_special_weight_root(ell):
    poly = minimal_polynomial(ell)
    x = 2.0 * math.cos(math.pi / (ell + 2))
    acc = 0.0
    for c in reversed(poly):
        acc = acc * x + c
    assert abs(acc) < 1e-9
    assert poly[-1] == 1  # monic


@pytest.mark.parametrize("ell", range(1, 9))
def test_special_field_weight(ell):
    field = SpecialField(ell)
    k = ell + 2
    assert float(field.delta) == pytest.approx(
        2.0 * math.cos(math.pi / k))
    # [m] = sin(m pi/k)/sin(pi/k) at the special weight
    for m in range(2 * k + 1):
        want = math.sin(m * math.pi / k) / math.sin(math.pi / k)
        assert abs(float(field.quantum_int(m)) - want) < 1e-12
    # the even-sector polynomial vanishes on the ring-curve eigenvalues
    # 2cos((p+1) pi/k) of the even labels p, and only there
    coeffs = [float(c) for c in even_sector_polynomial(ell).coeffs]
    roots = sorted(np.roots(coeffs[::-1]).real)
    want = sorted(2 * math.cos((p + 1) * math.pi / k)
                  for p in range(0, ell + 1, 2))
    assert roots == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("ell", range(1, 9))
def test_quantum_int_vanishes_at_level(ell):
    field = SpecialField(ell)
    assert field.quantum_int(ell + 2) == field.zero
    assert field.quantum_int(ell + 1) != field.zero
    # the field's recurrence agrees exactly with the generic quantum
    # integers evaluated at delta
    for m in range(2 * ell + 5):
        assert specialize(quantum_int(m), ell) == field.quantum_int(m)


@given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=1,
                max_size=3),
       st.lists(st.fractions(min_value=-5, max_value=5), min_size=1,
                max_size=3))
@settings(max_examples=60, deadline=None)
def test_field_ring_axioms(ca, cb):
    field = SpecialField(3)
    a = field.element(ca)
    b = field.element(cb)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + field.one) == a * b + a
    if b != field.zero:
        assert (a / b) * b == a


def test_field_inverse_exact():
    field = SpecialField(2)
    x = field.delta + field.one
    assert x * (field.one / x) == field.one


@pytest.mark.parametrize("ell", range(1, 7))
def test_delta_powers_match_repeated_multiplication(ell):
    field = SpecialField(ell)
    d = field.delta
    # the constants are built once per field and shared
    assert field.zero is field.zero and field.one is field.one
    assert d is SpecialField(ell).delta
    assert d ** 0 is field.one and (d + field.one) ** 0 is field.one
    inv = field.element([1]) / field.element([0, 1])
    for k in range(-3, 2 * field.degree + 4):
        want = field.element([1])
        for _ in range(abs(k)):
            want = want * (d if k > 0 else inv)
        assert d ** k == want, k
        # an element equal to delta but not the field's own object
        assert field.element([0, 1]) ** k == want, k
        assert float(want) == pytest.approx(field.delta_float ** k)


@pytest.mark.parametrize("ell", [1, 2, 5])
def test_rational_scalars_hash_like_the_equal_number(ell):
    field = SpecialField(ell)
    cases = [(field.one, 1), (field.zero, 0), (field.element([-3]), -3),
             (field.element([Fraction(1, 2)]), Fraction(1, 2)),
             (field.element([Fraction(-7, 3)]), Fraction(-7, 3)),
             (RationalFunc(1), 1), (RationalFunc(0), 0),
             (RationalFunc(-4), -4),
             (RationalFunc([-1], [2]), Fraction(-1, 2)),
             (RationalFunc([3], [6]), Fraction(1, 2))]
    if ell == 1:
        # 2cos(pi/3) = 1: every element of the degree-1 field is rational
        cases.append((field.delta, 1))
    for x, num in cases:
        assert x == num and hash(x) == hash(num), (x, num)
        assert {num: "hit"}.get(x) == "hit", (x, num)
        assert {x: "hit"}.get(num) == "hit", (x, num)
    # irrational elements still hash by value
    if field.degree > 1:
        x = field.delta * field.element([Fraction(2, 3)]) + field.one
        assert {x: "hit"}.get(field.element([1, Fraction(2, 3)])) == "hit"
    y = RationalFunc([1, 2], [3])
    assert {y: "hit"}.get(RationalFunc([2, 4], [6])) == "hit"
    # the ones of two fields hash alike but are elements of different
    # fields: a lookup misses instead of raising
    other = SpecialField(ell + 1)
    assert field.one != other.one and not field.one == other.one
    assert {field.one: "hit"}.get(other.one) is None
    with pytest.raises(ValueError):
        field.one + other.one


def test_specialize_rational_function():
    # [3] = d^2 - 1 specializes to 1 at ell = 2 (d = sqrt 2)
    val = specialize(quantum_int(3), 2)
    assert val == SpecialField(2).one


def test_specialize_pole():
    # [4] = d^3 - 2d vanishes at ell = 2, so [2]/[4] has a pole there
    with pytest.raises(PoleAtSpecialValue):
        specialize(quantum_int(2) / quantum_int(4), 2)


def test_serialize_roundtrip_strings():
    field = SpecialField(3)
    assert serialize_scalar(field.one) == "1"
    s = serialize_scalar(field.delta)
    assert "delta" in s
    assert serialize_scalar(Fraction(3, 4)) == "3/4"


# -- Q(delta) against an independent reference -------------------------------
# sympy polynomials over QQ, reduced by sympy's own minimal polynomial of
# 2cos(pi/(ell+2)); nothing below the field API comes from looptl.scalars.

_X = sympy.Symbol("x")


@functools.lru_cache(maxsize=None)
def _sympy_minpoly(ell):
    return sympy.Poly(sympy.minimal_polynomial(
        2 * sympy.cos(sympy.pi / (ell + 2)), _X), _X, domain="QQ")


def _ref(coeffs, ell):
    """Reference element: the rational polynomial sum c_k x^k mod the
    minimal polynomial."""
    big = [sympy.Rational(c.numerator, c.denominator) for c in coeffs]
    return sympy.Poly(big[::-1], _X, domain="QQ").rem(_sympy_minpoly(ell))


def _ref_fractions(poly, ell):
    """Power-basis coefficients of a reference element as Fractions."""
    degree = _sympy_minpoly(ell).degree()
    little = [Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()[::-1]]
    return tuple(little + [Fraction(0)] * (degree - len(little)))


def _canonical(x, degree):
    return (len(x.num) == degree and all(type(c) is int for c in x.num)
            and type(x.den) is int and x.den > 0
            and math.gcd(x.den, *x.num) == 1)


_FRACS = st.lists(st.fractions(min_value=-6, max_value=6,
                               max_denominator=12), min_size=1, max_size=9)


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6])
@given(ca=_FRACS, cb=_FRACS, k=st.integers(min_value=-4, max_value=4))
@settings(max_examples=30, deadline=None)
def test_field_matches_sympy_reference(ell, ca, cb, k):
    field = SpecialField(ell)
    degree = field.degree
    a, b = field.element(ca), field.element(cb)
    ra, rb = _ref(ca, ell), _ref(cb, ell)
    results = [(a, ra), (b, rb), (a + b, ra + rb), (a - b, ra - rb),
               (a * b, (ra * rb).rem(_sympy_minpoly(ell))),
               (a * k, ra * k), (k - a, k - ra)]
    if not rb.is_zero:
        inv = sympy.invert(rb, _sympy_minpoly(ell))
        results += [(b.inverse(), inv),
                    (a / b, (ra * inv).rem(_sympy_minpoly(ell)))]
    else:
        with pytest.raises(ZeroDivisionError):
            b.inverse()
    for got, want in results:
        assert _canonical(got, degree)
        # the Fraction view equals the exact power-basis coefficients, the
        # values a one-Fraction-per-coefficient store holds
        assert got.coeffs == _ref_fractions(want, ell)
        assert all(type(c) is Fraction for c in got.coeffs)
    assert (a == b) == (ra == rb)
    # the same element written with an added multiple of the minimal
    # polynomial is equal and hashes equal
    shift = [Fraction(int(c)) * k
             for c in _sympy_minpoly(ell).all_coeffs()[::-1]]
    padded = list(ca) + [Fraction(0)] * len(shift)
    again = field.element([x + y for x, y in zip(padded, shift)] +
                          padded[len(shift):])
    assert again == a and hash(again) == hash(a)


# -- Q(d) against an independent reference -----------------------------------
# sympy polynomials over ZZ in the loop weight; a RationalFunc is compared by
# cross-multiplication, so nothing below the API comes from looptl.scalars.

_D = sympy.Symbol("d")
_POLYS = st.lists(st.integers(min_value=-6, max_value=6), max_size=5)
_NONZERO = _POLYS.filter(any)


def _zz(coeffs):
    return sympy.Poly(list(coeffs)[::-1] or [0], _D, domain="ZZ")


def _rf_ref(x):
    return _zz(x.num), _zz(x.den)


def _same(x, ref):
    """x equals the reference fraction (num, den) and is canonical: no
    common factor in Z[d] (polynomial or integer) and a denominator with
    positive leading coefficient."""
    num, den = _rf_ref(x)
    canon = (all(type(c) is int for c in x.num + x.den)
             and (not x.num or x.num[-1] != 0) and x.den[-1] > 0
             and sympy.gcd(num, den) == _zz([1])
             and (x.num or x.den == (1,)))
    return canon and num * ref[1] == ref[0] * den


@given(an=_POLYS, ad=_NONZERO, bn=_POLYS, bd=_NONZERO, f=_NONZERO)
@settings(max_examples=150, deadline=None)
def test_ratfunc_matches_sympy_reference(an, ad, bn, bd, f):
    a, b = RationalFunc(an, ad), RationalFunc(bn, bd)
    (pa, qa), (pb, qb) = (_zz(an), _zz(ad)), (_zz(bn), _zz(bd))
    assert _same(a, (pa, qa)) and _same(b, (pb, qb))
    assert _same(a + b, (pa * qb + pb * qa, qa * qb))
    assert _same(a - b, (pa * qb - pb * qa, qa * qb))
    assert _same(a * b, (pa * pb, qa * qb))
    if pb.is_zero:
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert _same(a / b, (pa * qb, qa * pb))
    assert (a == b) == (pa * qb == pb * qa)
    # the same fraction with a common factor f on both sides is equal and
    # hashes equal
    ff = _zz(f)
    again = RationalFunc(list((pa * ff).all_coeffs()[::-1]),
                         list((qa * ff).all_coeffs()[::-1]))
    assert again == a and hash(again) == hash(a)
    assert again.num == a.num and again.den == a.den


@given(a=_POLYS, b=_NONZERO)
@settings(max_examples=150, deadline=None)
def test_exact_division_matches_sympy_or_raises(a, b):
    q, r = sympy.div(_zz(a).set_domain("QQ"), _zz(b).set_domain("QQ"))
    integral = r.is_zero and all(c.q == 1 for c in q.all_coeffs())
    if integral:
        assert _zz(_pexact_div(a, b)) == q.set_domain("ZZ")
    else:
        with pytest.raises(ArithmeticError):
            _pexact_div(a, b)
    # a multiple is always divided exactly, back to the factor
    prod = list((_zz(a) * _zz(b)).all_coeffs()[::-1])
    assert _zz(_pexact_div(prod, b)) == _zz(a)


def test_exact_division_never_truncates():
    with pytest.raises(ArithmeticError):
        _pexact_div([1, 0, 1], [0, 2])  # (d^2 + 1) / 2d
    with pytest.raises(ArithmeticError):
        _pexact_div([3], [2])
    assert _pexact_div([-2, 0, 2], [2, 2]) == [-1, 1]  # 2(d^2-1) / 2(d+1)
