"""Structure theory of the diagram algebras at special loop weights.

At the special weight for level ell the Markov-pairing radical is the
unique proper two-sided ideal and is generated by the grade-(ell+1)
projector; the routines here compute both sides exactly and compare
them.
"""

from __future__ import annotations

from .errors import MismatchAtGrade, SignatureMismatch
from .scalars import SpecialField
from .tlcat import (Morphism, cap_diagram, compose, cup_diagram,
                    enumerate_diagrams, jones_wenzl, radical_vectors)


def catalan(k):
    from math import comb
    return comb(2 * k, k) // (k + 1)


# ---------------------------------------------------------------------------
# conditional expectation down the tower
# ---------------------------------------------------------------------------


def conditional_expectation(a):
    """The trace-preserving expectation from grade n+1 down to grade n.

    Caps the last strand:  eps(a) = (1_n x cup) (a x 1) (1_n x cap).
    Satisfies eps(1_{n+1}) = d * 1_n and preserves the Markov trace.
    """
    if a.m != a.n:
        raise SignatureMismatch("conditional expectation needs a square input")
    n = a.m - 1
    d = a.d
    idn = Morphism.identity(n, d)
    cup = idn.tensor(Morphism.from_diagram(cup_diagram(), d))   # (n+2, n)
    cap = idn.tensor(Morphism.from_diagram(cap_diagram(), d))   # (n, n+2)
    a1 = a.tensor(Morphism.identity(1, d))                      # (n+2, n+2)
    return compose(compose(cup, a1), cap)


def expectation_to_grade(a, n):
    """Iterate the conditional expectation down to grade n."""
    out = a
    while out.m > n:
        out = conditional_expectation(out)
    return out


# ---------------------------------------------------------------------------
# ideal generated by a square morphism, inside a fixed grade
# ---------------------------------------------------------------------------


def ideal_span(gen, n, stop_at_dim=None):
    """Exact basis of span{ a (gen x 1_k) b } inside the grade-n algebra.

    gen is a square morphism at grade m <= n with n - m even.  The span is
    produced by closing the padded generator under left and right hook
    multiplication, which reaches every a (gen x 1_k) b with diagram a, b.
    Returns (basis_vectors, diagram_basis); vectors are coefficient lists.
    """
    m = gen.m
    if gen.n != m:
        raise SignatureMismatch("ideal generator must be square")
    if n < m:
        return [], enumerate_diagrams(n, n)
    d = gen.d
    q = gen
    for _ in range(n - m):
        q = q.tensor(Morphism.identity(1, d))
    basis = enumerate_diagrams(n, n)
    index = {diag: i for i, diag in enumerate(basis)}
    zero = d - d
    one = d / d

    pivots = []   # list of (col, vector) fully reduced rows
    members = []  # morphisms whose vectors entered the span

    def reduce_vec(vec):
        vec = list(vec)
        for col, pv in pivots:
            if vec[col]:
                f = vec[col]
                vec = [x - f * y if y else x for x, y in zip(vec, pv)]
        return vec

    def try_add(mor):
        vec = [zero] * len(basis)
        for diag, c in mor.terms.items():
            vec[index[diag]] = vec[index[diag]] + c
        vec = reduce_vec(vec)
        for col in range(len(basis)):
            if vec[col]:
                inv = one / vec[col]
                vec = [x * inv for x in vec]
                pivots.append((col, vec))
                pivots.sort(key=lambda t: t[0])
                members.append(mor)
                return True
        return False

    frontier = [q]
    try_add(q)
    hooks = [Morphism.hook(n, i, d) for i in range(n - 1)]
    while frontier:
        nxt = []
        for v in frontier:
            if stop_at_dim is not None and len(pivots) >= stop_at_dim:
                frontier = []
                nxt = []
                break
            for h in hooks:
                for prod in (compose(v, h), compose(h, v)):
                    if try_add(prod):
                        nxt.append(prod)
        frontier = nxt
    vecs = []
    for _, pv in pivots:
        vecs.append(pv)
    return vecs, basis


def verify_ideal_theorem(ell, n_max):
    """Check radical == ideal(p_{ell+1}) for every grade up to n_max.

    Returns a per-grade report; raises MismatchAtGrade on failure.
    """
    m = ell + 1
    report = []
    p = jones_wenzl(m, "special", ell=ell)
    for n in range(1, n_max + 1):
        rad, basis, gram = radical_vectors(n, ell)
        if n < m:
            if rad:
                raise MismatchAtGrade(
                    f"nonzero radical below the generator grade at n={n}")
            report.append({"grade": n, "radical_dim": 0, "ideal_dim": 0})
            continue
        span, _ = ideal_span(p, n)
        # containment: every ideal vector is annihilated by the Gram matrix
        field = SpecialField(ell)
        for vec in span:
            for row in gram:
                acc = field.zero
                for x, g in zip(vec, row):
                    if x:
                        acc = acc + x * g
                if acc:
                    raise MismatchAtGrade(
                        f"ideal element escapes the radical at grade {n}")
        if len(span) != len(rad):
            raise MismatchAtGrade(
                f"radical dim {len(rad)} != ideal dim {len(span)} at n={n}")
        report.append({"grade": n, "radical_dim": len(rad),
                       "ideal_dim": len(span)})
    return report
