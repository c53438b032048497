import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptl.annular import (RPolynomial, _beta_coeffs, _hook_free_diagrams,
                            _poly_gcd_field, _vanishes_on_family,
                            annular_closure, annular_ideal, beta_report,
                            eigenvalue_family, even_sector_polynomial,
                            generator_roots, jw_closure_coeffs)
from looptl.scalars import FieldElement, SpecialField, _padd, _pdivmod, _pmul
from looptl.structure import ideal_span
from looptl.tlcat import Morphism, compose, enumerate_diagrams, jones_wenzl


def test_polynomial_helpers_over_qdelta():
    field = SpecialField(3)
    one, delta = field.one, field.delta
    r = [field.zero, one]                               # R
    r_plus_delta = [delta, one]
    sq = _pmul(r_plus_delta, r_plus_delta)              # R^2 + 2 delta R + delta^2
    assert sq == [delta * delta, delta + delta, one]
    assert _padd(r, r) == [field.zero, field.element([2])]
    assert _padd(sq, [-delta * delta]) == [field.zero, delta + delta, one]
    q, rem = _pdivmod(_padd(sq, [one]), r_plus_delta)
    assert (q, rem) == ([delta, one], [one])
    assert _pdivmod(sq, r_plus_delta) == ([delta, one], [])
    # lambda_2 = 2 cos(pi/2) = 0 at l = 4: the even-sector polynomial is
    # R^3 - 3R, and the power no product reaches is still a field zero
    field4 = SpecialField(4)
    even4 = even_sector_polynomial(4).coeffs
    assert even4 == [field4.zero, field4.element([-3]), field4.zero,
                     field4.one]
    assert all(isinstance(c, FieldElement) for c in even4)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_closure_of_p2_is_r_squared_minus_one(ell):
    field = SpecialField(ell)
    p2 = jones_wenzl(2, backend="special", ell=ell)
    closed = annular_closure(p2)
    expect = [field.element([-1]), field.zero, field.one]
    got = list(closed.coeffs) + [field.zero] * (3 - len(closed.coeffs))
    assert got[:3] == expect


def test_closure_of_identity_strand():
    field = SpecialField(2)
    one_strand = Morphism.identity(1, field.delta)
    closed = annular_closure(one_strand)
    # one through-strand closes to the annular variable R itself
    assert list(closed.coeffs) == [field.zero, field.one]


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_ideal_generator_roots_in_family(ell):
    ideal = annular_ideal(ell, ell + 2)
    roots = generator_roots(ideal)
    fam = eigenvalue_family(ell)
    # every eigenvalue in the family is a root of the ideal generator
    for x in fam:
        assert min(abs(x - r) for r in roots) < 1e-9
    # and the family consists of values +-2 cos(k pi/(ell+2))
    for x in fam:
        best = min(abs(abs(x) - abs(2 * math.cos(math.pi * k / (ell + 2))))
                   for k in range(1, ell + 2))
        assert best < 1e-9


def test_beta_suite_level3_even_shifted():
    rep = beta_report(3)
    res = rep["results"][("shifted", "even")]
    assert res["orthogonal"] and res["idempotent"]
    assert res["nonzero"] == 2


def test_beta_suite_level5_even_shifted():
    # orthogonality at l=5 needs the S entries on closures of p_{2x}; on
    # monomials R^x the betas are neither orthogonal nor idempotent
    rep = beta_report(5)
    res = rep["results"][("shifted", "even")]
    assert res["orthogonal"] and res["idempotent"]
    assert res["nonzero"] == 3


@pytest.mark.parametrize("ell", [3, 5])
def test_beta_closures_match_jw_closures(ell):
    field = SpecialField(ell)
    closures = jw_closure_coeffs(ell + 1)
    for j, coeffs in enumerate(closures):
        p = (Morphism.identity(0, field.delta) if j == 0
             else jones_wenzl(j, backend="special", ell=ell))
        expect = RPolynomial([field.element([c]) for c in coeffs])
        assert annular_closure(p) == expect, j


def test_beta_level2_betas_proportional():
    """At level 2 the even quotient (modulo R^2 - 2) is two-dimensional,
    but the even S rows of labels 0 and 2 are equal and the label-4 row
    is their negative: all three betas coincide up to sign, so mutual
    orthogonality cannot hold."""
    rep = beta_report(2)
    res = rep["results"][("shifted", "even")]
    assert res["distinct"] == 1
    assert not res["orthogonal"]


@pytest.mark.parametrize("convention", ["shifted", "unshifted"])
@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
def test_beta_rescaling_matches_float_s_formula(ell, convention):
    """beta'_n times sqrt(2/k) sin(m pi/k) is sum_x S_{2n,2x} c_{2x}, with
    the S entries from the sine formula, before any reduction."""
    k = ell + 2
    top = k // 2
    shift = 1 if convention == "shifted" else 0
    closures = jw_closure_coeffs(2 * top)
    for n in range(top + 1):
        m = 2 * n + shift
        ref = [0.0] * (2 * top + 1)
        for x in range(top + 1):
            s = math.sqrt(2 / k) * math.sin(math.pi * m * (2 * x + shift) / k)
            for i, c in enumerate(closures[2 * x]):
                ref[i] += s * c
        beta = _beta_coeffs(n, ell, convention)
        assert all(isinstance(c, FieldElement) for c in beta)
        if max(abs(c) for c in ref) < 1e-12:
            # a vanishing S row gives the exact zero, not a beta scaled
            # by a float zero
            assert beta == [], (n, beta)
            continue
        factor = math.sqrt(2 / k) * math.sin(math.pi * m / k)
        got = [float(c) * factor for c in beta]
        got += [0.0] * (len(ref) - len(got))
        assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-12, n


@pytest.mark.parametrize("sector", ["full", "even"])
def test_beta_level4_exact_verdicts(sector):
    """At l = 4 the labels 4 and 6 repeat the vacuum's even S row up to
    sign, so four nonzero betas are only two up to a scalar."""
    res = beta_report(4)["results"][("shifted", sector)]
    assert not res["orthogonal"]
    assert not res["idempotent"]
    assert (res["nonzero"], res["distinct"]) == (4, 2)


def test_beta_report_values_are_exact():
    rep = beta_report(3)
    assert (rep["convention"], rep["sector"]) == ("shifted", "full")
    for res in rep["results"].values():
        for beta in res["betas"]:
            assert all(isinstance(c, FieldElement) for c in beta)
        assert all(isinstance(c, FieldElement)
                   for c in res["scalars"].values())


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_generator_matches_closures_of_the_two_sided_ideal(ell):
    """The reference: the monic gcd of the closures of an exact basis of
    the two-sided ideal of p_{ell+1} at grades ell+1 and ell+2."""
    field = SpecialField(ell)
    p = jones_wenzl(ell + 1, "special", ell=ell)
    polys = []
    for n in (ell + 1, ell + 2):
        vecs, basis = ideal_span(p, n)
        for vec in vecs:
            poly = annular_closure(Morphism(n, n, dict(zip(basis, vec)),
                                            field.delta))
            if poly.coeffs:
                polys.append(poly.coeffs)
    assert annular_ideal(ell, ell + 2).generator.coeffs == \
        _poly_gcd_field(polys)


@pytest.mark.parametrize("ell", range(1, 8))
def test_generator_is_the_next_quantum_integer_in_r(ell):
    field = SpecialField(ell)
    want = [field.element([c]) for c in jw_closure_coeffs(ell + 1)[-1]]
    assert annular_ideal(ell, ell + 2).generator.coeffs == want


@st.composite
def _square_morphism(draw, field, n):
    basis = enumerate_diagrams(n, n)
    picks = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=4))
    terms = {diag: field.element(draw(st.lists(
        st.integers(min_value=-3, max_value=3), min_size=1, max_size=2)))
        for diag in picks}
    return Morphism(n, n, terms, field.delta)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_closure_is_a_trace_and_skipped_diagrams_vanish(data):
    ell = data.draw(st.integers(min_value=1, max_value=4), label="ell")
    n = data.draw(st.integers(min_value=1, max_value=5), label="grade")
    field = SpecialField(ell)
    a = data.draw(_square_morphism(field, n), label="a")
    b = data.draw(_square_morphism(field, n), label="b")
    assert annular_closure(compose(a, b)) == annular_closure(compose(b, a))
    if n < ell + 1:
        return
    # (p x 1) D vanishes for every D that annular_ideal leaves out
    kept = set(_hook_free_diagrams(n, ell + 1))
    q = jones_wenzl(ell + 1, "special", ell=ell).tensor(
        Morphism.identity(n - ell - 1, field.delta))
    for diag in enumerate_diagrams(n, n):
        if diag not in kept:
            prod = compose(q, Morphism.from_diagram(diag, field.delta))
            assert prod.is_zero(), diag


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
def test_generator_vanishes_exactly_on_the_family(ell):
    assert beta_report(ell)["generator_vanishes_on_family"] is True
    gen = annular_ideal(ell, ell + 2).generator.coeffs
    # a generator with one coefficient shifted by one misses the family
    for i in range(len(gen)):
        mutant = list(gen)
        mutant[i] = mutant[i] + 1
        assert not _vanishes_on_family(mutant, ell), i
