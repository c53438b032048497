"""Closed-curve annular skein algebra.

Closing a square diagram around an annulus turns null-homotopic loops
into factors of d and essential loops into powers of the core ring
curve R; morphisms close to polynomials in R.  The padded grade-(ell+1)
projector generates an ideal in this polynomial ring; its monic gcd
generator cuts out the finite-dimensional quotient carrying the beta
projectors.  The closure is a trace, so the generator comes from the
closures of the padded projector times single diagrams, with no
elimination.
"""

from __future__ import annotations

import math
from itertools import combinations

from .errors import ConfigInvalid, IndexOutOfRange, SignatureMismatch
from .scalars import (SpecialField, _horner, _padd, _pdivmod, _pmul, _trim,
                      chebyshev, quantum_int)
from .tlcat import (Morphism, closure_loops, compose, enumerate_diagrams,
                    jones_wenzl)


class RPolynomial:
    """Polynomial in the essential ring curve R: its coefficient list,
    lowest power first, over a scalar backend.  Arithmetic on the lists
    goes through the scalars polynomial helpers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = _trim(coeffs)

    def __eq__(self, other):
        return isinstance(other, RPolynomial) and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            pw = "" if i == 0 else ("R" if i == 1 else f"R^{i}")
            bits.append(f"({c!r}){pw}" if pw else f"({c!r})")
        return " + ".join(bits)


def annular_closure(a):
    """Close a square morphism into a polynomial in the ring curve R.

    The coefficients are summed per (trivial, essential) loop count
    first, so each power of d multiplies one sum.
    """
    if a.m != a.n:
        raise SignatureMismatch("annular closure requires a square morphism")
    d = a.d
    sums = {}
    for diag, c in a.terms.items():
        key = closure_loops(diag)
        acc = sums.get(key)
        sums[key] = c if acc is None else acc + c
    zero = d - d
    coeffs = [zero] * (max((e for _, e in sums), default=-1) + 1)
    for (t, e), c in sums.items():
        coeffs[e] = coeffs[e] + (c * d ** t if t else c)
    return RPolynomial(coeffs)


# ---------------------------------------------------------------------------
# the annular ideal and its generator
# ---------------------------------------------------------------------------


def _poly_gcd_field(polys):
    """Monic gcd of field-coefficient polynomials (coefficient lists)."""
    g = []
    for p in polys:
        x, y = g, _trim(p)
        while y:
            x, y = y, _pdivmod(x, y)[1]
        g = x
        if len(g) == 1:
            break
    if not g:
        return []
    lead = g[-1]
    return [c / lead for c in g]


class AnnularIdeal:
    def __init__(self, ell, generator, grade_cap):
        self.ell = ell
        self.generator = generator
        self.grade_cap = grade_cap


def _hook_free_diagrams(n, m):
    """The (n, n)-diagrams D with no bottom arc (n+i, n+i+1), i < m-1.

    A D with such an arc is (1/d) D stacked over U_i, and a grade-m
    projector p kills U_i, so (p x 1_{n-m}) D = 0 for every D left out.
    """
    return [diag for diag in enumerate_diagrams(n, n)
            if all(diag.pairs[n + i] != n + i + 1 for i in range(m - 1))]


def annular_ideal(ell, grade_cap):
    """Monic generator of the closed-curve ideal of the padded projector.

    The closure is a trace on each grade: closure(a b) = closure(b a), by
    isotopy in the annulus.  So the closure of a (p x 1) b is the closure
    of (p x 1)(b a), and at each grade n the closures of the two-sided
    ideal span the same space as those of (p x 1_{n-m}) D over the
    diagrams D, p = p_{ell+1} at grade m = ell+1.  Only the D of
    _hook_free_diagrams are closed; (p x 1) kills the rest.  Returns the
    monic gcd over the exact field of the closures at every grade
    ell+1..grade_cap.
    """
    if grade_cap < ell + 1:
        raise IndexOutOfRange("grade cap below the generator grade")
    field = SpecialField(ell)
    p = jones_wenzl(ell + 1, "special", ell=ell)
    polys = []
    for n in range(ell + 1, grade_cap + 1):
        q = p.tensor(Morphism.identity(n - ell - 1, field.delta))
        for diag in _hook_free_diagrams(n, ell + 1):
            poly = annular_closure(
                compose(q, Morphism.from_diagram(diag, field.delta)))
            if poly.coeffs:
                polys.append(poly.coeffs)
    gen = _poly_gcd_field(polys)
    return AnnularIdeal(ell, RPolynomial(gen), grade_cap)


def generator_roots(ideal):
    """Float roots of the ideal generator."""
    import numpy as np
    coeffs = [float(c) for c in ideal.generator.coeffs]
    if len(coeffs) <= 1:
        return []
    return sorted(np.roots(list(reversed(coeffs))).real.tolist())


def eigenvalue_family(ell):
    """Distinct values of -(A^{2p+2} + A^{-2p-2}), A = i e^{i pi/(2 ell+4)}.

    The index p runs over 0..ell; these are the eigenvalues of the ring
    curve R on the label-p summand.  Returns the distinct values, sorted.
    Raises ConfigInvalid for ell < 1.
    """
    if ell < 1:
        raise ConfigInvalid("the eigenvalue family needs a level >= 1")
    vals = []
    for p in range(ell + 1):
        # A^(2p+2) + A^(-2p-2) = 2 cos((p+1) pi + (p+1) pi/(ell+2))
        theta = math.pi * (p + 1) + math.pi * (p + 1) / (ell + 2)
        val = -2.0 * math.cos(theta)
        if not any(abs(val - v) < 1e-9 for v in vals):
            vals.append(val)
    return sorted(vals)


def _vanishes_on_family(coeffs, ell):
    """Whether the R-polynomial with these Q(delta) coefficients vanishes
    exactly at every lambda_p = (-1)^p x_{p+1}, p = 0..ell, where
    x_j = 2 cos(j pi/(ell+2)) is read from chebyshev(delta, 2, delta,
    ell+1): the eigenvalue family, evaluated by Horner in the field."""
    field = SpecialField(ell)
    x = chebyshev(field.delta, 2 * field.one, field.delta, ell + 1)
    return not any(_horner(coeffs, -x[p + 1] if p % 2 else x[p + 1],
                           field.zero)
                   for p in range(ell + 1))


def even_sector_polynomial(ell):
    """prod over even labels p of (R - lambda_p), exactly over Q(delta),
    with lambda_p = 2 cos((p+1) pi/(ell+2)), an integer polynomial in delta
    by the Chebyshev recurrence."""
    field = SpecialField(ell)
    poly = [field.one]
    two_cos = chebyshev(field.delta, 2 * field.one, field.delta, ell + 1)
    for lam in two_cos[1::2]:
        poly = _pmul(poly, [-lam, field.one])
    return RPolynomial(poly)


# ---------------------------------------------------------------------------
# beta projectors in the quotient
# ---------------------------------------------------------------------------


def jw_closure_coeffs(jmax):
    """Integer R-coefficients of the annular closures of p_0 .. p_jmax.

    c_j is the quantum integer [j+1] read in R: the closure of p_j is the
    Chebyshev polynomial U_j(R/2) at every loop weight where p_j exists, so
    c_j(lambda) at lambda = 2 cos(t) is sin((j+1) t)/sin(t).
    """
    return [list(quantum_int(j + 1).num) for j in range(jmax + 1)]


def _beta_coeffs(n, ell, convention):
    """Exact R-coefficients of beta'_n = sum_x U_j(t) c_{2x}.

    c_{2x} is the annular closure of p_{2x} (jw_closure_coeffs), x runs
    over 0..floor((ell+2)/2), and U_j(t) = sin((j+1) theta)/sin(theta) at
    t = 2 cos(theta), theta = m pi/k, k = ell+2.  The shifted convention,
    S_{2n,2x} = sqrt(2/k) sin(pi (2n+1)(2x+1)/k), has m = 2n+1 and j = 2x;
    the unshifted one, S_{2n,2x} = sqrt(2/k) sin(pi (2n)(2x)/k), has
    m = 2n and j = 2x-1.  Either way S_{2n,2x} = sqrt(2/k) sin(theta)
    U_j(t), so beta_n = sum_x S_{2n,2x} c_{2x} is beta'_n times that real
    factor, and beta'_n = 0 where k divides m and the factor vanishes.
    On the label-p eigenvalue of R, c_{2x} takes the value
    S_{2x,p}/S_{0,p}.
    """
    shift = {"shifted": 1, "unshifted": 0}[convention]
    k = ell + 2
    m = 2 * n + shift
    if m % k == 0:
        return []
    field = SpecialField(ell)
    t = chebyshev(field.delta, 2 * field.one, field.delta, m)[m]
    u = chebyshev(t, field.zero, field.one, k + 1)   # U_{-1}, U_0, U_1, ...
    beta = []
    for x, c in enumerate(jw_closure_coeffs(k)[::2]):
        beta = _padd(beta, [u[2 * x + shift] * ci for ci in c])
    return beta


def _projector_check(betas, modulus):
    """Pairwise orthogonality, idempotency up to a nonzero scalar and the
    count of betas distinct up to a nonzero scalar, exactly in
    Q(delta)[R]/(modulus); the betas come reduced modulo it."""
    live = [(i, b) for i, b in enumerate(betas) if b]
    if not live:
        return {"orthogonal": False, "idempotent": False, "scalars": {},
                "nonzero": 0, "distinct": 0}
    orth = not any(_pdivmod(_pmul(a, b), modulus)[1]
                   for (_, a), (_, b) in combinations(live, 2))
    # beta^2 = c beta with c read off the leading coefficients; a nonzero
    # remainder of beta's degree makes c nonzero
    scalars = {}
    for i, beta in live:
        sq = _pdivmod(_pmul(beta, beta), modulus)[1]
        if len(sq) == len(beta):
            c = sq[-1] / beta[-1]
            if sq == [c * x for x in beta]:
                scalars[i] = c
    distinct = {tuple(x / b[-1] for x in b) for _, b in live}
    return {"orthogonal": orth, "idempotent": len(scalars) == len(live),
            "scalars": scalars, "nonzero": len(live),
            "distinct": len(distinct)}


def beta_report(ell):
    """Select the S convention (and sector) for the betas, exactly.

    beta'_n (_beta_coeffs), 0 <= n <= floor((ell+2)/2), is reduced in
    Q(delta)[R] modulo the generator of the annular ideal ("full") or its
    even-label factor ("even").  It differs from beta_n = sum_x S_{2n,2x}
    c_{2x} by the real factor sqrt(2/k) sin(m pi/k), which changes neither
    orthogonality, idempotency up to a nonzero scalar nor proportionality,
    so the report gives the betas and their scalars up to that factor.
    Tries both index conventions in both sectors and records which
    combinations give pairwise orthogonal, idempotent-up-to-nonzero-scalar
    projectors, and how many nonzero betas are distinct up to a scalar.
    At odd ell the nonzero even-sector betas are orthogonal eigenspace
    projectors up to scale.  At even ell the label ell has the same
    even-restricted S row as the vacuum, so beta_{ell/2} = beta_0 and
    orthogonality fails whatever the basis; at ell = 2 every beta is +-one
    and the same element.  Beside the float comparison of the generator's
    roots with the eigenvalue family, generator_vanishes_on_family says
    whether the generator vanishes exactly in Q(delta) on that family
    (_vanishes_on_family).
    """
    ideal = annular_ideal(ell, ell + 2)
    top = (ell + 2) // 2
    results = {}
    chosen = None
    moduli = {"full": ideal.generator.coeffs,
              "even": even_sector_polynomial(ell).coeffs}
    for sector, modulus in moduli.items():
        for conv in ("shifted", "unshifted"):
            betas = [_pdivmod(_beta_coeffs(n, ell, conv), modulus)[1]
                     for n in range(top + 1)]
            res = _projector_check(betas, modulus)
            res["betas"] = betas
            results[(conv, sector)] = res
            ok = res["orthogonal"] and res["idempotent"] and res["nonzero"] > 0
            if ok and chosen is None:
                chosen = (conv, sector)
    roots = generator_roots(ideal)
    family = eigenvalue_family(ell)
    family_subset = all(any(abs(v - r) < 1e-9 for r in roots) for v in family)
    family_equal = family_subset and len(family) == len(roots)
    return {
        "ell": ell,
        "generator": [float(c) for c in ideal.generator.coeffs],
        "roots": roots,
        "eigenvalue_family": family,
        "family_subset_of_roots": family_subset,
        "family_equals_roots": family_equal,
        "generator_vanishes_on_family": _vanishes_on_family(
            ideal.generator.coeffs, ell),
        "convention": chosen[0] if chosen else None,
        "sector": chosen[1] if chosen else None,
        "results": results,
    }
