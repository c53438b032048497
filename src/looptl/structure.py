"""Structure theory of the diagram algebras at special loop weights.

At the special weight for level ell the Markov-pairing radical is the
unique proper two-sided ideal and is generated by the grade-(ell+1)
projector; the routines here compute both sides exactly and compare
them.
"""

from __future__ import annotations

from .errors import MismatchAtGrade, SignatureMismatch
from .linalg import Echelon, rank
from .scalars import _one_denominator
from .tlcat import (Diagram, Morphism, _check_diagram_cap, _loop_folder,
                    _loop_powers, catalan, enumerate_diagrams,
                    gram_exponents, jones_wenzl, radical_vectors,
                    stack_diagrams, u_diagram)


# ---------------------------------------------------------------------------
# conditional expectation down the tower
# ---------------------------------------------------------------------------


def conditional_expectation(a):
    """The trace-preserving expectation from grade n+1 down to grade n.

    Caps the last strand, eps(a) = (1_n x cup) (a x 1) (1_n x cap), as a
    partial trace: each diagram's top point n is joined to its bottom
    point 2n+1 in one pass over its pairs, times d when the two are
    already paired (the join closes a loop), and the coefficients are
    summed per grade-n diagram.  Satisfies eps(1_{n+1}) = d * 1_n and
    preserves the Markov trace.
    """
    if a.m != a.n:
        raise SignatureMismatch("conditional expectation needs a square input")
    if not a.m:
        raise SignatureMismatch(
            "conditional expectation needs grade >= 1, not grade 0")
    n = a.m - 1
    d = a.d
    top, bottom = n, 2 * n + 1
    # a grade-(n+1) point's index at grade n; the two joined points map
    # to -1, and their mates are paired to each other below
    place = list(range(n)) + [-1] + list(range(n, 2 * n)) + [-1]
    out = {}
    for diag, c in a.terms.items():
        pairs = diag.pairs
        new = [place[q] for q in pairs[:top] + pairs[top + 1:bottom]]
        if pairs[top] == bottom:
            c = c * d
        else:
            i, j = place[pairs[top]], place[pairs[bottom]]
            new[i], new[j] = j, i
        key = Diagram(n, n, new)
        out[key] = out[key] + c if key in out else c
    return Morphism(n, n, out, d)


# ---------------------------------------------------------------------------
# ideal generated by a square morphism, inside a fixed grade
# ---------------------------------------------------------------------------


def ideal_span(gen, n):
    """Exact basis of span{ a (gen x 1_k) b } inside the grade-n algebra.

    gen is a square morphism at grade m, padded to grade n by 1_k,
    k = n - m >= 0 of either parity; below its own grade (n < m) the span
    is empty.  The span is produced by closing the padded generator under
    left and right hook multiplication, which reaches every a (gen x 1_k) b
    with diagram a, b.
    Returns (basis_vectors, diagram_basis): the rows of the linalg.Echelon
    the closure fed, as coefficient lists in pivot order.

    The hooks act on basis indices.  Each call first tabulates, for every
    hook U_i and basis diagram D_j, the index and closed-loop count of
    U_i stacked over D_j (the product v U_i) and of D_j stacked over U_i
    (U_i v): C_n * 2(n-1) stackings.  A hook product closes at most one
    loop, so each product of the closure scatters v's (index,
    coefficient) pairs into a dict, each c as c or c*d; the dict's items
    are the row the Echelon takes and the next frontier's terms.  The
    tables live for the call.
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
    tables = []
    for i in range(n - 1):
        hook = u_diagram(n, i)
        for stacked in ([stack_diagrams(hook, diag) for diag in basis],
                        [stack_diagrams(diag, hook) for diag in basis]):
            tables.append([(index[prod], loops) for prod, loops in stacked])

    def product(terms, table):
        out = {}
        for j, c in terms:
            k, loops = table[j]
            c = c * d if loops else c
            out[k] = out[k] + c if k in out else c
        return out.items()

    start = [(index[diag], c) for diag, c in q.terms.items()]
    ech = Echelon(len(basis), [start])
    frontier = [start]
    while frontier:
        nxt = []
        for terms in frontier:
            for table in tables:
                vec = product(terms, table)
                if ech.add(vec):
                    nxt.append(vec)
        frontier = nxt
    return ech.rows, basis


def verify_ideal_theorem(ell, n_max):
    """Check radical == ideal(p_{ell+1}) for every grade up to n_max.

    Returns a per-grade report; raises MismatchAtGrade on failure, and
    StateSpaceTooLarge up front when the grade-n_max Gram matrix would
    pass the diagram cap.
    """
    _check_diagram_cap(n_max, n_max, power=2)
    m = ell + 1
    report = []
    p = jones_wenzl(m, "special", ell=ell)
    for n in range(1, n_max + 1):
        # one loop-count walk per grade serves the radical and the
        # containment check
        _, expo = gram_exponents(n, n)
        # the radical's dimension: the diagrams less the Gram rank
        rad = catalan(n) - rank(_loop_powers(expo, p.d, n, n))
        if n < m:
            if rad:
                raise MismatchAtGrade(
                    f"nonzero radical below the generator grade at n={n}")
            report.append({"grade": n, "radical_dim": 0, "ideal_dim": 0})
            continue
        span, _ = ideal_span(p, n)
        # containment: every ideal vector is annihilated by the Gram
        # matrix.  Entry (i, j) is delta^expo[i][j], so each row's dot
        # product sums the vector's integer numerators per exponent and
        # folds them with delta's powers once.
        fold = _loop_folder(p.d, n)
        for vec in span:
            support = [j for j, x in enumerate(vec) if x]
            nums, _ = _one_denominator([vec[j] for j in support])
            terms = list(zip(support, nums))
            for row in expo:
                sums = {}
                for j, num in terms:
                    acc = sums.get(row[j])
                    if acc is None:
                        sums[row[j]] = list(num)
                    else:
                        for t, x in enumerate(num):
                            acc[t] += x
                if fold(sums) is not None:
                    raise MismatchAtGrade(
                        f"ideal element escapes the radical at grade {n}")
        if len(span) != rad:
            raise MismatchAtGrade(
                f"radical dim {rad} != ideal dim {len(span)} at n={n}")
        report.append({"grade": n, "radical_dim": rad,
                       "ideal_dim": len(span)})
    return report
