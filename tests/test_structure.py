import random

import pytest

from looptl.scalars import SpecialField
from looptl.structure import (catalan, conditional_expectation,
                              expectation_to_grade, ideal_span,
                              radical_vectors, verify_ideal_theorem)
from looptl.tlcat import (Morphism, compose, enumerate_diagrams, jones_wenzl,
                          markov_trace)


def test_catalan_values():
    assert [catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_conditional_expectation_scales_identity():
    p = jones_wenzl(3)
    e = conditional_expectation(Morphism.identity(3, p.d))
    assert e == Morphism.identity(2, p.d).scale(p.d)


def _random_square(n, rng, field):
    basis = enumerate_diagrams(n, n)
    terms = {diag: field.element([rng.randint(-4, 4)])
             for diag in rng.sample(basis, min(3, len(basis)))}
    terms = {k: v for k, v in terms.items() if v != field.zero}
    return Morphism(n, n, terms, field.delta)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_conditional_expectation_preserves_trace(n):
    rng = random.Random(n)
    field = SpecialField(4)
    for _ in range(30):
        a = _random_square(n, rng, field)
        assert markov_trace(conditional_expectation(a)) == markov_trace(a)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projector_compression_is_scalar(n):
    """p f p = gamma p with gamma = Tr(p f)/Tr(p), exactly."""
    rng = random.Random(100 + n)
    field = SpecialField(5)
    p = jones_wenzl(n, backend="special", ell=5)
    trp = markov_trace(p)
    for _ in range(20):
        f = _random_square(n, rng, field)
        m = compose(compose(p, f), p)
        gamma = markov_trace(m) / trp
        assert m == p.scale(gamma)


def test_expectation_to_grade_reaches_target():
    field = SpecialField(3)
    a = _random_square(4, random.Random(1), field)
    out = expectation_to_grade(a, 2)
    assert out.m == out.n == 2


@pytest.mark.parametrize("ell", [1, 2])
def test_ideal_span_equals_radical(ell):
    for n in range(ell + 1, ell + 4):
        p = jones_wenzl(ell + 1, backend="special", ell=ell)
        span, _ = ideal_span(p, n)
        rad, _, _ = radical_vectors(n, ell)
        assert len(span) == len(rad)
    assert verify_ideal_theorem(ell, ell + 3)
