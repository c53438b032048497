import functools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptl.errors import PoleAtSpecialValue, SignatureMismatch
from looptl.scalars import (D_GENERIC, RationalFunc, SpecialField,
                            quantum_int, specialize)
from looptl.structure import catalan
from looptl.tlcat import (Diagram, Morphism, _jw_cleared, bar, compose,
                          compose_factored, enumerate_diagrams,
                          gram_exponents, gram_matrix, identity_diagram,
                          is_noncrossing, jones_wenzl, markov_trace,
                          radical_basis, stack_diagrams, trace_loops)


@pytest.mark.parametrize("m,n", [(0, 2), (1, 3), (2, 2), (3, 3), (2, 4)])
def test_diagram_counts_are_catalan(m, n):
    assert len(enumerate_diagrams(m, n)) == catalan((m + n) // 2)


def test_odd_boundary_has_no_diagrams():
    assert enumerate_diagrams(1, 2) == []


def test_all_enumerated_diagrams_noncrossing():
    for diag in enumerate_diagrams(3, 3):
        assert is_noncrossing(diag)


def _random_morphisms(n, seed):
    import random
    rng = random.Random(seed)
    field = SpecialField(3)
    d = field.delta
    basis = enumerate_diagrams(n, n)
    out = []
    for _ in range(3):
        terms = {diag: field.element([rng.randint(-3, 3)])
                 for diag in rng.sample(basis, 3)}
        terms = {k: v for k, v in terms.items() if v != field.zero}
        out.append(Morphism(n, n, terms, d))
    return out


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=25, deadline=None)
def test_composition_associative(seed):
    a, b, c = _random_morphisms(3, seed)
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=25, deadline=None)
def test_markov_trace_symmetric(seed):
    a, b, _ = _random_morphisms(3, seed)
    assert markov_trace(compose(a, b)) == markov_trace(compose(b, a))


def test_hook_relations():
    field = SpecialField(4)
    d = field.delta
    u1 = Morphism.hook(3, 0, d)
    u2 = Morphism.hook(3, 1, d)
    # U_i^2 = d U_i and U_1 U_2 U_1 = U_1
    assert compose(u1, u1) == u1.scale(d)
    assert compose(compose(u1, u2), u1) == u1


@pytest.mark.parametrize("k", range(1, 6))
def test_jones_wenzl_generic(k):
    p = jones_wenzl(k)
    assert compose(p, p) == p
    for i in range(k - 1):
        d = p.d
        assert compose(Morphism.hook(k, i, d), p).terms == {}
        assert compose(p, Morphism.hook(k, i, d)).terms == {}
    assert markov_trace(p) == quantum_int(k + 1)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_jw_trace_vanishes_at_special_weight(ell):
    tr = markov_trace(jones_wenzl(ell + 1))
    assert specialize(tr, ell) == SpecialField(ell).zero


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_jw_special_backend_matches_generic(ell):
    ps = jones_wenzl(ell + 1, backend="special", ell=ell)
    pg = jones_wenzl(ell + 1)
    assert set(ps.terms) == set(pg.terms)
    for diag, c in pg.terms.items():
        assert specialize(c, ell) == ps.terms[diag]


def test_jw_pole_beyond_level():
    with pytest.raises(PoleAtSpecialValue):
        jones_wenzl(3, backend="special", ell=1)


# -- projectors against the two-sided Wenzl relation -------------------------


@functools.lru_cache(maxsize=None)
def _two_sided_jw(kmax, backend, ell=None):
    """p_1, ..., p_kmax by the two-sided relation
    p_k = P - ([k-1]/[k]) P U_{k-1} P with P = p_{k-1} x 1, written with
    the public tensor, compose and scale only."""
    if backend == "generic":
        d, qint = D_GENERIC, quantum_int
    else:
        field = SpecialField(ell)
        d, qint = field.delta, field.quantum_int
    one = Morphism.identity(1, d)
    out = [None, one]
    for k in range(2, kmax + 1):
        big = out[-1].tensor(one)
        hook = Morphism.hook(k, k - 2, d)
        out.append(big - compose(compose(big, hook), big).scale(
            qint(k - 1) / qint(k)))
    return out


@pytest.mark.parametrize("k", range(1, 8))
def test_jw_generic_equals_two_sided_relation_term_for_term(k):
    want = _two_sided_jw(7, "generic")[k]
    assert list(jones_wenzl(k).terms.items()) == list(want.terms.items())


@pytest.mark.parametrize("ell", range(1, 7))
def test_jw_special_equals_two_sided_relation_term_for_term(ell):
    want = _two_sided_jw(ell + 1, "special", ell)
    for k in range(1, ell + 2):
        got = jones_wenzl(k, backend="special", ell=ell)
        assert list(got.terms.items()) == list(want[k].terms.items()), k
    with pytest.raises(PoleAtSpecialValue):
        jones_wenzl(ell + 2, backend="special", ell=ell)


@pytest.mark.parametrize("k", range(1, 8))
def test_jw_float_equals_generic_evaluated(k):
    got = jones_wenzl(k, backend="float", d_value=2.5)
    want = _two_sided_jw(7, "generic")[k]
    assert set(got.terms) == set(want.terms)
    for diag, c in want.terms.items():
        assert abs(got.terms[diag] - c.eval_float(2.5)) < 1e-12, diag


def test_bar_is_involution():
    a, b, _ = _random_morphisms(3, 17)
    assert bar(bar(a)) == a


@pytest.mark.parametrize("d", [D_GENERIC, SpecialField(3).delta],
                         ids=["generic", "special"])
def test_signature_mismatch(d):
    square = Morphism.identity(2, d)
    rect = Morphism.from_diagram(enumerate_diagrams(2, 4)[0], d)
    assert (rect.m, rect.n) == (2, 4)
    # a (2,2) morphism after a (3,3) one
    with pytest.raises(SignatureMismatch):
        compose(square, Morphism.identity(3, d))
    with pytest.raises(SignatureMismatch):
        markov_trace(rect)
    # no terms to trace: the signature alone decides
    with pytest.raises(SignatureMismatch):
        markov_trace(Morphism.zero(2, 4, d))
    with pytest.raises(SignatureMismatch):
        square + rect


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_gram_corank_one_at_grade_after_level(ell):
    n = ell + 1
    rad = radical_basis(n, ell)
    assert len(rad) == 1
    # the radical is spanned by the level's top projector
    p = jones_wenzl(n, backend="special", ell=ell)
    vec = rad[0]
    ratios = {d: vec.terms[d] / p.terms[d] for d in p.terms}
    assert len(set(ratios.values())) == 1


def test_gram_matrix_entries_are_loop_powers():
    basis, g = gram_matrix(2, 2, backend="float", d_value=2.0)
    assert len(g) == 2
    flat = sorted(x for row in g for x in row)
    assert flat == [2.0, 2.0, 4.0, 4.0]


# -- loop counts against an independent reference -----------------------------


def _union_find_loops(a, b):
    """Components of the union of two diagrams on the same points: a
    union-find over the points, each arc of either diagram a union."""
    parent = list(range(len(a.pairs)))

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for pairs in (a.pairs, b.pairs):
        for p, q in enumerate(pairs):
            parent[find(p)] = find(q)
    return sum(find(p) == p for p in range(len(parent)))


_GRAM_SHAPES = [(m, s - m) for s in range(0, 13, 2) for m in range(s + 1)]


@pytest.mark.parametrize("m,n", _GRAM_SHAPES,
                         ids=["%d-%d" % mn for mn in _GRAM_SHAPES])
def test_gram_exponents_count_union_find_components(m, n):
    basis, expo = gram_exponents(m, n)
    assert basis == enumerate_diagrams(m, n)
    assert expo == [[_union_find_loops(a, b) for b in basis] for a in basis]


# -- the Gram determinant against its closed form ------------------------------


_DET_PRIME = 1_000_003


def _det_mod(mat, p):
    """Determinant mod p by row reduction on int64 arrays: entries stay
    below p, so every product stays below p^2 < 2^63."""
    a = np.array(mat, dtype=np.int64) % p
    det = 1
    for k in range(len(a)):
        nonzero = np.flatnonzero(a[k:, k])
        if not nonzero.size:
            return 0
        i = k + int(nonzero[0])
        if i != k:
            a[[k, i]] = a[[i, k]]
            det = -det
        det = det * int(a[k, k]) % p
        row = a[k, k:] * pow(int(a[k, k]), -1, p) % p
        a[k + 1:, k:] = (a[k + 1:, k:]
                         - np.outer(a[k + 1:, k], row) % p) % p
    return det % p


def _meander_det(n, d, p):
    """prod_j U_j(d)^a(n, j) mod p (Di Francesco, Golinelli and Guitter,
    CMP 186, 1997): U_0 = 1, U_1 = d, U_{j+1} = d U_j - U_{j-1}, and
    a(n, j) = C(2n, n-j) - 2 C(2n, n-j-1) + C(2n, n-j-2)."""
    u = [1, d % p]
    for _ in range(n - 1):
        u.append((d * u[-1] - u[-2]) % p)

    def c(k):
        return comb(2 * n, k) if k >= 0 else 0
    out = 1
    for j in range(1, n + 1):
        out = out * pow(u[j], c(n - j) - 2 * c(n - j - 1) + c(n - j - 2),
                        p) % p
    return out


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 7)
                                  for d in (3, 5, 7, 11)] + [(7, 3), (7, 5)])
def test_gram_determinant_is_the_meander_determinant(n, d):
    """The Gram matrix d^gram_exponents(n, n) of the Markov pairing has
    the meander determinant, checked mod a prime by an elimination that
    shares no code with linalg or the loop walk."""
    _, expo = gram_exponents(n, n)
    mat = [[pow(d, e, _DET_PRIME) for e in row] for row in expo]
    assert _det_mod(mat, _DET_PRIME) == _meander_det(n, d, _DET_PRIME)


@pytest.mark.parametrize("n", range(8))
def test_trace_loops_count_union_find_components(n):
    ident = identity_diagram(n)
    for diag in enumerate_diagrams(n, n):
        assert trace_loops(diag) == _union_find_loops(diag, ident), diag


# -- stacking against an independent reference --------------------------------


def _stack_reference(upper, lower):
    """Union-find over every point of both diagrams, each arc a union and
    each glued interface pair a union; returns (diagram, loops)."""
    l, mid, n = upper.m, upper.n, lower.n
    points = [("u", p) for p in range(l + mid)] + \
        [("w", p) for p in range(mid + n)]
    parent = {p: p for p in points}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(a, b):
        parent[find(a)] = find(b)

    for p, q in enumerate(upper.pairs):
        union(("u", p), ("u", q))
    for p, q in enumerate(lower.pairs):
        union(("w", p), ("w", q))
    for i in range(mid):
        union(("u", l + i), ("w", i))
    ends = {}  # component root -> result indices of its outer ends
    for p in range(l):
        ends.setdefault(find(("u", p)), []).append(p)
    for q in range(n):
        ends.setdefault(find(("w", mid + q)), []).append(l + q)
    pairs = [None] * (l + n)
    for a, b in ends.values():
        pairs[a], pairs[b] = b, a
    loops = len({find(p) for p in points} - set(ends))
    return Diagram(l, n, pairs), loops


def test_stack_diagrams_matches_union_find_reference():
    checked = loop_cases = 0
    for l in range(5):
        for m in range(5):
            for n in range(5):
                for a in enumerate_diagrams(l, m):
                    for b in enumerate_diagrams(m, n):
                        want = _stack_reference(a, b)
                        assert stack_diagrams(a, b) == want, (a, b)
                        checked += 1
                        loop_cases += want[1] > 0
    assert checked == 579 and loop_cases > 100
    # m = 0 is a plain juxtaposition, l = n = 0 a closed diagram
    assert stack_diagrams(Diagram(2, 0, [1, 0]), Diagram(0, 2, [1, 0])) \
        == (Diagram(2, 2, [1, 0, 3, 2]), 0)
    assert stack_diagrams(Diagram(0, 4, [3, 2, 1, 0]),
                          Diagram(4, 0, [1, 0, 3, 2])) == (Diagram(0, 0, []), 1)


# denominators chosen from a small pool, so that different pairs of them
# have equal products and land in one bucket of the generic stacking
_DENS = ((1,), (0, 1), (1, 1), (2,), (-1, 0, 1))


def _random_generic(rng, m, n):
    basis = enumerate_diagrams(m, n)
    terms = {}
    for diag in rng.sample(basis, min(4, len(basis))):
        num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        terms[diag] = RationalFunc(num, list(rng.choice(_DENS)))
    return Morphism(m, n, terms, D_GENERIC)


def _at(x, d):
    return Morphism(x.m, x.n, {k: v.eval_float(d) for k, v in
                               x.terms.items()}, d)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_generic_compose_associative_on_random_triples(seed):
    import random
    rng = random.Random(seed)
    l = rng.randint(0, 4)
    m = rng.choice(range(l % 2, 5, 2))
    n = rng.choice(range(m % 2, 5, 2))
    p = rng.choice(range(n % 2, 5, 2))
    # compose(x, y) is y stacked over x, so c: (l, m), b: (m, n), a: (n, p)
    a, b, c = (_random_generic(rng, n, p), _random_generic(rng, m, n),
               _random_generic(rng, l, m))
    left, right = compose(compose(a, b), c), compose(a, compose(b, c))
    assert left == right
    # the generic product agrees with the plain float path at d = 2.5
    d = 2.5
    want = compose(compose(_at(a, d), _at(b, d)), _at(c, d))
    got = _at(left, d)
    for diag in set(got.terms) | set(want.terms):
        x, y = got.terms.get(diag, 0.0), want.terms.get(diag, 0.0)
        assert abs(x - y) <= 1e-9 * max(1.0, abs(y))
    if l == p:
        tr = markov_trace(want)
        assert abs(markov_trace(left).eval_float(d) - tr) \
            <= 1e-9 * max(1.0, abs(tr))


# -- the exact stacking kernel against per-pair backend arithmetic ------------


def _naive_compose(a, b):
    """(diagram, coefficient) pairs of compose(a, b) from one backend
    product, one power d**loops and one sum per stacked pair, zero sums
    dropped, in first-stacked order."""
    out = {}
    for da, ca in b.terms.items():
        for db, cb in a.terms.items():
            diag, loops = stack_diagrams(da, db)
            c = ca * cb * a.d ** loops
            out[diag] = out[diag] + c if diag in out else c
    return [(k, v) for k, v in out.items() if v]


def _naive_trace(a):
    total = a.d - a.d
    for diag, c in a.terms.items():
        total = total + c * a.d ** trace_loops(diag)
    return total


def _random_special(rng, field, m, n):
    """Up to four terms with rational power-basis coefficients over a few
    denominators, some of them equal up to sign, so that sums cancel."""
    basis = enumerate_diagrams(m, n)
    pool = [field.element([Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                           for _ in range(field.degree)]) for _ in range(2)]
    terms = {}
    for diag in rng.sample(basis, min(4, len(basis))):
        terms[diag] = rng.choice(pool) * rng.choice((1, -1))
    return Morphism(m, n, terms, field.delta)


def _with_projector(rng, x, p):
    """x plus a multiple of the projector p when their shapes agree, so
    that the stacked sums mix terms whose hook products cancel."""
    if (x.m, x.n) != (p.m, p.n):
        return x
    return x + p.scale(rng.choice((1, -2)) * p.d ** rng.randint(0, 2))


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(["generic", 2, 3, 4, 5]))
@settings(max_examples=60, deadline=None)
def test_exact_compose_and_trace_equal_per_pair_arithmetic(seed, backend):
    import random
    rng = random.Random(seed)
    if backend == "generic":
        field = None

        def draw(m, n):
            return _random_generic(rng, m, n)
    else:
        field = SpecialField(backend)

        def draw(m, n):
            return _random_special(rng, field, m, n)
    l = rng.randint(0, 4)
    m = rng.choice(range(l % 2, 5, 2))
    n = rng.choice(range(m % 2, 5, 2))
    k = rng.randint(2, 4 if field is None else min(4, backend + 1))
    p = jones_wenzl(k) if field is None else \
        jones_wenzl(k, backend="special", ell=backend)
    # compose(a, b) stacks b: (l, m) over a: (m, n)
    a, b = draw(m, n), draw(l, m)
    a, b = _with_projector(rng, a, p), _with_projector(rng, b, p)
    pairs = [(a, b), (Morphism.hook(k, rng.randrange(k - 1), p.d), p),
             (p, Morphism.hook(k, rng.randrange(k - 1), p.d))]
    for lower, upper in pairs:
        got = compose(lower, upper)
        assert list(got.terms.items()) == _naive_compose(lower, upper)
        if got.m == got.n:
            assert markov_trace(got) == _naive_trace(got)
    assert compose(pairs[1][0], pairs[1][1]).is_zero()
    for x in (a, b, p):
        if x.m == x.n:
            assert markov_trace(x) == _naive_trace(x)


@pytest.mark.parametrize("backend,k,ell",
                         [("generic", k, None) for k in range(1, 9)]
                         + [("special", k, ell) for ell in (4, 5, 6)
                            for k in range(1, ell + 2)])
def test_jones_wenzl_divides_each_cleared_term(backend, k, ell):
    """p_k equals N / den coefficient by coefficient, in key order, where
    _jw_cleared gives (N, den)."""
    N, den = _jw_cleared(k, backend, ell, None)
    inv = 1 / den
    want = [(diag, c * inv) for diag, c in N.terms.items()]
    assert list(jones_wenzl(k, backend, ell).terms.items()) == want


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(["generic", 2, 3, 4]))
@settings(max_examples=60, deadline=None)
def test_compose_factored_equals_compose(seed, backend):
    """compose_factored against compose on random lower factors, which
    do not kill hooks: upper diagrams with a bottom arc go through a
    nonzero hook product, and an upper factor (l, m) with l > m has
    diagrams without a bottom arc, which are composed directly."""
    import random
    rng = random.Random(seed)
    if backend == "generic":
        draw = functools.partial(_random_generic, rng)
    else:
        draw = functools.partial(_random_special, rng, SpecialField(backend))
    m = rng.randint(1, 4)
    l = m + rng.choice((0, 2))
    n = rng.choice(range(m % 2, 5, 2))
    # compose(a, b) stacks b: (l, m) over a: (m, n)
    a, b = draw(m, n), draw(l, m)
    if l == m:
        b = b + Morphism.identity(m, b.d).scale(b.d + 1)
    assert compose_factored(a, b) == compose(a, b)
