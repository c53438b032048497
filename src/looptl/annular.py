"""Closed-curve annular skein algebra.

Closing a square diagram around an annulus turns null-homotopic loops
into factors of d and essential loops into powers of the core ring
curve R; morphisms close to polynomials in R.  The padded grade-(ell+1)
projector generates an ideal in this polynomial ring; its monic gcd
generator cuts out the finite-dimensional quotient carrying the beta
projectors.
"""

from __future__ import annotations

import math

from .errors import IndexOutOfRange, SignatureMismatch
from .scalars import SpecialField, _pdivmod, _trim
from .tlcat import Morphism, jones_wenzl
from .structure import ideal_span


class RPolynomial:
    """Polynomial in the essential ring curve R over a scalar backend."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = list(coeffs)
        while c and not c[-1]:
            c.pop()
        self.coeffs = c

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, RPolynomial) and _eq_lists(self.coeffs,
                                                            other.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else None
            b = other.coeffs[i] if i < len(other.coeffs) else None
            if a is None:
                out.append(b)
            elif b is None:
                out.append(a)
            else:
                out.append(a + b)
        return RPolynomial(out)

    def __sub__(self, other):
        return self + other.scale_int(-1)

    def scale_int(self, k):
        return RPolynomial([c * k for c in self.coeffs])

    def scale(self, s):
        return RPolynomial([c * s for c in self.coeffs])

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return RPolynomial([])
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                t = a * b
                out[i + j] = t if out[i + j] is None else out[i + j] + t
        zero = self.coeffs[0] - self.coeffs[0]
        return RPolynomial([zero if c is None else c for c in out])

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

    def eval_float(self, r, scalar_to_float=float):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * r + scalar_to_float(c)
        return acc


def _eq_lists(a, b):
    if len(a) != len(b):
        return False
    return all(x == y for x, y in zip(a, b))


def closure_diagram(diag):
    """Close a square diagram around the annulus.

    Returns (trivial_loops, essential_loops); asserts every loop winds
    -1, 0 or +1 around the core.
    """
    if diag.m != diag.n:
        raise SignatureMismatch("annular closure requires a square diagram")
    n = diag.m
    seen = [False] * (2 * n)
    trivial = essential = 0
    for start in range(2 * n):
        if seen[start]:
            continue
        wind = 0
        p = start
        while not seen[p]:
            seen[p] = True
            q = diag.pairs[p]
            seen[q] = True
            # seam hop: bottom i rejoins top i (+1), top i drops to bottom (-1)
            if q >= n:
                wind += 1
                p = q - n
            else:
                wind -= 1
                p = q + n
        if wind == 0:
            trivial += 1
        elif wind in (1, -1):
            essential += 1
        else:
            raise AssertionError(
                f"embedded closure loop wound {wind} times")
    return trivial, essential


def annular_closure(a):
    """Close a square morphism into a polynomial in the ring curve R."""
    if a.m != a.n:
        raise SignatureMismatch("annular closure requires a square morphism")
    d = a.d
    coeffs = []
    for diag, c in a.terms.items():
        t, e = closure_diagram(diag)
        val = c * d ** t if t else c
        while len(coeffs) <= e:
            coeffs.append(None)
        coeffs[e] = val if coeffs[e] is None else coeffs[e] + val
    zero = d - d
    return RPolynomial([zero if c is None else c for c in coeffs])


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


def annular_ideal(ell, grade_cap):
    """Monic generator of the closed-curve ideal of the padded projector.

    Collects closures of every span element a (p_{ell+1} x 1_k) b in each
    grade up to grade_cap and returns their monic gcd over the exact field.
    """
    if grade_cap < ell + 1:
        raise IndexOutOfRange("grade cap below the generator grade")
    field = SpecialField(ell)
    p = jones_wenzl(ell + 1, "special", ell=ell)
    polys = []
    for n in range(ell + 1, grade_cap + 1):
        vecs, basis = ideal_span(p, n)
        for vec in vecs:
            poly = annular_closure(Morphism(n, n, dict(zip(basis, vec)),
                                            field.delta))
            if not poly.is_zero():
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


def eigenvalue_family(ell, parity=None):
    """Distinct values of -(A^{2p+2} + A^{-2p-2}), A = i e^{i pi/(2 ell+4)}.

    The index p runs over 0..ell (restricted to even p when parity is
    "even"); these are the eigenvalues of the ring curve R on the label-p
    summand.  Returns the distinct values, sorted.
    """
    vals = []
    for p in range(ell + 1):
        if parity == "even" and p % 2:
            continue
        # A^(2p+2) + A^(-2p-2) = 2 cos((p+1) pi + (p+1) pi/(ell+2))
        theta = math.pi * (p + 1) + math.pi * (p + 1) / (ell + 2)
        val = -2.0 * math.cos(theta)
        if not any(abs(val - v) < 1e-9 for v in vals):
            vals.append(val)
    return sorted(vals)


def even_sector_polynomial(ell):
    """prod over even labels p of (R - lambda_p), exactly over Q(delta).

    lambda_p = 2 cos((p+1) pi/(ell+2)) for even p; each is an integer
    polynomial in delta by the Chebyshev recursion 2cos((j+1)t) =
    2cos(t) 2cos(jt) - 2cos((j-1)t).
    """
    field = SpecialField(ell)
    delta = field.delta
    two = field.one + field.one
    # c[j] = 2 cos(j pi/(ell+2))
    c_prev, c_cur = two, delta
    lams = []
    for j in range(1, ell + 2):
        if j % 2 == 1:          # j = p+1 with p even
            lams.append(c_cur)
        c_prev, c_cur = c_cur, delta * c_cur - c_prev
    poly = RPolynomial([field.one])
    for lam in lams:
        poly = poly * RPolynomial([field.zero - lam, field.one])
    return poly


# ---------------------------------------------------------------------------
# beta projectors in the quotient
# ---------------------------------------------------------------------------


def jw_closure_coeffs(jmax):
    """Integer R-coefficients of the annular closures of p_0 .. p_jmax.

    c_0 = 1, c_1 = R, c_{j+1} = R c_j - c_{j-1}: the closure of p_j is the
    Chebyshev polynomial U_j(R/2) at every loop weight where p_j exists, so
    c_j(lambda) at lambda = 2 cos(t) is sin((j+1) t)/sin(t).
    """
    out = [[1], [0, 1]]
    while len(out) <= jmax:
        prev, cur = out[-2], out[-1]
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        out.append(nxt)
    return out[:jmax + 1]


def _beta_coeffs(n, ell, convention):
    """Float R-coefficients of beta_n = sum_x S_{2n,2x} c_{2x}.

    c_{2x} is the annular closure of p_{2x} (jw_closure_coeffs); x runs
    over 0..floor((ell+2)/2).  On the label-p eigenvalue of R, c_{2x}
    takes the value S_{2x,p}/S_{0,p}, so beta_n evaluates there to
    (S^2 restricted to even labels)_{2n,p}/S_{0,p}.
    """
    top = (ell + 2) // 2
    if not 0 <= n <= top:
        raise IndexOutOfRange(f"beta index {n} outside 0..{top}")
    k = ell + 2
    norm = math.sqrt(2.0 / k)
    closures = jw_closure_coeffs(2 * top)
    coeffs = [0.0] * (2 * top + 1)
    for x in range(top + 1):
        if convention == "shifted":
            s = norm * math.sin(math.pi * (2 * n + 1) * (2 * x + 1) / k)
        elif convention == "unshifted":
            s = norm * math.sin(math.pi * (2 * n) * (2 * x) / k)
        else:
            raise ValueError(f"unknown convention {convention!r}")
        for i, c in enumerate(closures[2 * x]):
            coeffs[i] += s * c
    return coeffs


def _float_reduce(coeffs, gen):
    r = list(coeffs)
    while len(r) >= len(gen):
        if abs(r[-1]) < 1e-13:
            r.pop()
            continue
        f = r[-1] / gen[-1]
        k = len(r) - len(gen)
        for i in range(len(gen)):
            r[k + i] -= f * gen[i]
        r.pop()
    while r and abs(r[-1]) < 1e-12:
        r.pop()
    return r


def _float_mul(a, b):
    if not a or not b:
        return []
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _projector_check(betas, gen, tol=1e-9):
    """Pairwise orthogonality and idempotency-up-to-nonzero-scalar."""
    live = [(i, b) for i, b in enumerate(betas) if any(abs(c) > tol for c in b)]
    if not live:
        return {"orthogonal": False, "idempotent": False, "scalars": {},
                "nonzero": 0, "distinct": 0}
    orth = True
    for a in range(len(live)):
        for b in range(a + 1, len(live)):
            prod = _float_reduce(_float_mul(live[a][1], live[b][1]), gen)
            if any(abs(c) > tol for c in prod):
                orth = False
    idem = True
    scalars = {}
    for i, beta in live:
        sq = _float_reduce(_float_mul(beta, beta), gen)
        num = sum(x * y for x, y in zip(sq, beta))
        den = sum(x * x for x in beta)
        c = num / den
        resid = max((abs((sq[j] if j < len(sq) else 0.0) - c * beta[j])
                     for j in range(len(beta))), default=0.0)
        scalars[i] = c
        if resid > tol or abs(c) < tol:
            idem = False
    # count distinct projectors (up to sign): degenerate levels collapse
    distinct = []
    for _, b in live:
        nb = max(abs(c) for c in b)
        key = tuple(round(c / nb, 6) for c in b)
        keyn = tuple(round(-c / nb, 6) for c in b)
        if key not in distinct and keyn not in distinct:
            distinct.append(key)
    return {"orthogonal": orth, "idempotent": idem, "scalars": scalars,
            "nonzero": len(live), "distinct": len(distinct)}


def beta_report(ell, grade_cap=None, tol=1e-9):
    """Empirically select the S convention (and sector) for the betas.

    beta_n = sum_x S_{2n,2x} c_{2x}, 0 <= n <= floor((ell+2)/2), with c_{2x}
    the annular closure of p_{2x}, is reduced in floats (the S entries are
    generally outside the exact field) modulo the generator of the annular
    ideal ("full") or its even-label factor ("even").  Tries both index
    conventions in both sectors and records which combinations give
    pairwise orthogonal, idempotent-up-to-nonzero-scalar projectors.  At
    odd ell the nonzero even-sector betas are orthogonal eigenspace
    projectors up to scale.  At even ell the label ell has the same
    even-restricted S row as the vacuum, so beta_{ell/2} = beta_0 and
    orthogonality fails whatever the basis; at ell = 2 every beta is +-one
    and the same element.
    """
    if grade_cap is None:
        grade_cap = ell + 2
    ideal = annular_ideal(ell, grade_cap)
    top = (ell + 2) // 2
    results = {}
    chosen = None
    moduli = {"full": ideal.generator, "even": even_sector_polynomial(ell)}
    for sector, modulus in moduli.items():
        gen = [float(c) for c in modulus.coeffs]
        for conv in ("shifted", "unshifted"):
            betas = [_float_reduce(_beta_coeffs(n, ell, conv), gen)
                     for n in range(top + 1)]
            res = _projector_check(betas, gen, tol)
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
        "convention": chosen[0] if chosen else None,
        "sector": chosen[1] if chosen else None,
        "results": results,
        "ideal": ideal,
    }
