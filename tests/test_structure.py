import random
from fractions import Fraction

import pytest

from looptl import structure, tlcat
from looptl.errors import MismatchAtGrade
from looptl.linalg import Echelon
from looptl.scalars import SpecialField
from looptl.structure import (catalan, conditional_expectation, ideal_span,
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


def test_verify_ideal_theorem_walks_each_grade_once(monkeypatch):
    # the radical and the containment check share one loop-count walk
    walks = []
    walk = tlcat.gram_exponents

    def counted(m, n):
        walks.append((m, n))
        return walk(m, n)
    monkeypatch.setattr(tlcat, "gram_exponents", counted)
    monkeypatch.setattr(structure, "gram_exponents", counted)
    report = verify_ideal_theorem(2, 5)
    assert walks == [(n, n) for n in range(1, 6)]
    assert [g["radical_dim"] for g in report] == \
        [len(radical_vectors(n, 2)[0]) for n in range(1, 6)]


@pytest.mark.parametrize("ell", [1, 2])
def test_ideal_span_equals_radical(ell):
    for n in range(ell + 1, ell + 4):
        p = jones_wenzl(ell + 1, backend="special", ell=ell)
        span, _ = ideal_span(p, n)
        rad, _, _ = radical_vectors(n, ell)
        assert len(span) == len(rad)
    assert verify_ideal_theorem(ell, ell + 3)


def _reference_ideal_span(gen, n):
    """The hook closure through Morphism products: for each frontier
    element v and hook U_i in turn, compose(v, U_i) then compose(U_i, v)
    is reduced into the echelon form and, when new, joins the next
    frontier."""
    d = gen.d
    q = gen
    for _ in range(n - gen.m):
        q = q.tensor(Morphism.identity(1, d))
    basis = enumerate_diagrams(n, n)
    index = {diag: i for i, diag in enumerate(basis)}
    zero = d - d

    def vector(mor):
        vec = [zero] * len(basis)
        for diag, c in mor.terms.items():
            vec[index[diag]] += c
        return vec

    ech = Echelon([vector(q)])
    frontier = [q]
    hooks = [Morphism.hook(n, i, d) for i in range(n - 1)]
    while frontier:
        nxt = []
        for v in frontier:
            for h in hooks:
                for prod in (compose(v, h), compose(h, v)):
                    if ech.add(vector(prod)):
                        nxt.append(prod)
        frontier = nxt
    return ech.rows, basis


IDEAL_CASES = [("special", ell, n) for ell in (1, 2, 3)
               for n in range(ell + 1, 7)] + \
    [("generic", None, n) for n in (2, 3, 4)]


@pytest.mark.parametrize("backend,ell,n", IDEAL_CASES)
def test_ideal_span_rows_equal_the_compose_closure(backend, ell, n):
    """Rows of the hook-table closure equal, in value and order, those of
    the closure that multiplies Morphisms."""
    m = 2 if ell is None else ell + 1
    p = jones_wenzl(m, backend, ell=ell)
    rows, basis = ideal_span(p, n)
    want_rows, want_basis = _reference_ideal_span(p, n)
    assert basis == want_basis
    assert rows == want_rows
    assert rows


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_containment_check_flags_only_vectors_outside_the_radical(
        ell, monkeypatch):
    """verify_ideal_theorem's containment check passes a span whose first
    row is replaced by a combination of two rows with rational and
    irrational coefficients, and fails one whose first row is moved off
    the radical by adding one to one entry (no Gram row is zero)."""
    field = SpecialField(ell)
    c1 = field.element([Fraction(3, 7), Fraction(-1, 5)])
    c2 = field.element([Fraction(1, 2), Fraction(2, 3)])
    real = structure.ideal_span

    def combined(gen, n):
        rows, basis = real(gen, n)
        first = [c1 * x + c2 * y for x, y in zip(rows[0], rows[-1])]
        return [first] + rows[1:], basis

    def escaped(gen, n):
        rows, basis = real(gen, n)
        first = list(rows[0])
        first[0] = first[0] + field.one
        return [first] + rows[1:], basis

    monkeypatch.setattr(structure, "ideal_span", combined)
    assert verify_ideal_theorem(ell, ell + 2)
    monkeypatch.setattr(structure, "ideal_span", escaped)
    with pytest.raises(MismatchAtGrade, match="escapes the radical"):
        verify_ideal_theorem(ell, ell + 2)
