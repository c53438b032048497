"""Planar diagram calculus for the Temperley-Lieb category.

An (m, n)-diagram is a noncrossing perfect matching of m marked points on
the top edge and n on the bottom edge of a rectangle.  Points are indexed
0..m-1 across the top (left to right) and m..m+n-1 across the bottom
(left to right).  Vertical stacking composes diagrams; every closed loop
produced by stacking contributes a factor of the loop weight d.
"""

from __future__ import annotations

from math import comb

from .errors import (ConfigInvalid, IndexOutOfRange, PoleAtSpecialValue,
                     SignatureMismatch, StateSpaceTooLarge)
from .linalg import nullspace
from .scalars import (D_GENERIC, FieldElement, RationalFunc, SpecialField,
                      _canonical, _one_denominator, _padd, _pexact_div, _pgcd,
                      _pmul, quantum_int)


class Diagram:
    """Immutable noncrossing (m, n)-pairing."""

    __slots__ = ("m", "n", "pairs", "_hash")

    def __init__(self, m, n, pairs):
        self.m = m
        self.n = n
        self.pairs = tuple(pairs)
        if len(self.pairs) != m + n:
            raise SignatureMismatch("pairing length does not match signature")
        self._hash = hash((m, n, self.pairs))

    def __eq__(self, other):
        return (isinstance(other, Diagram) and self.m == other.m
                and self.n == other.n and self.pairs == other.pairs)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Diagram({self.m},{self.n},{list(self.pairs)})"

    def is_identity(self):
        return self.m == self.n and all(
            self.pairs[i] == self.m + i for i in range(self.m))


# Largest number of diagrams (or of Gram entries) a call may build:
# Catalan(14) = 2,674,440 diagrams and Catalan(8)^2 = 2,044,900 entries fit.
DIAGRAM_CAP = 1 << 22


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def _check_diagram_cap(m, n, power=1):
    """Raise StateSpaceTooLarge, before any work, when the (m, n)-diagrams
    (power 1) or the entries of their Gram matrix (power 2) would pass
    DIAGRAM_CAP."""
    count = 0 if (m + n) % 2 else catalan((m + n) // 2) ** power
    if count > DIAGRAM_CAP:
        raise StateSpaceTooLarge(
            f"Catalan({(m + n) // 2})^{power} = {count:,} at ({m}, {n}) "
            f"is past the diagram cap {DIAGRAM_CAP:,}")


def _boundary_order(m, n):
    """Point indices walked around the boundary: top L-R then bottom R-L."""
    return list(range(m)) + [m + n - 1 - t for t in range(n)]


def is_noncrossing(diag):
    pos = {}
    order = _boundary_order(diag.m, diag.n)
    for i, p in enumerate(order):
        pos[p] = i
    stack = []
    for p in order:
        q = diag.pairs[p]
        if pos[q] < pos[p]:
            if not stack or stack[-1] != q:
                return False
            stack.pop()
        else:
            stack.append(p)
    return not stack


def enumerate_diagrams(m, n):
    """All (m, n)-diagrams in a fixed deterministic order.

    Empty when m + n is odd; otherwise Catalan((m+n)/2) diagrams.
    """
    _check_diagram_cap(m, n)
    if (m + n) % 2:
        return []

    def gen(points):
        if not points:
            yield []
            return
        first = points[0]
        for k in range(1, len(points), 2):
            mate = points[k]
            for left in gen(points[1:k]):
                for right in gen(points[k + 1:]):
                    yield [(first, mate)] + left + right

    out = []
    for matching in gen(_boundary_order(m, n)):
        pairs = [0] * (m + n)
        for a, b in matching:
            pairs[a], pairs[b] = b, a
        out.append(Diagram(m, n, pairs))
    return out


def identity_diagram(n):
    return Diagram(n, n, [n + i for i in range(n)] + list(range(n)))


def cap_diagram():
    """The (0, 2)-diagram: an arc joining the two bottom points."""
    return Diagram(0, 2, [1, 0])


def cup_diagram():
    """The (2, 0)-diagram: an arc joining the two top points."""
    return Diagram(2, 0, [1, 0])


def u_diagram(n, i):
    """The hook generator on strands i, i+1 (0-based) inside grade n."""
    if not 0 <= i < n - 1:
        raise IndexOutOfRange(f"hook index {i} outside 0..{n - 2}")
    pairs = [0] * (2 * n)
    for k in range(n):
        pairs[k] = n + k
        pairs[n + k] = k
    pairs[i], pairs[i + 1] = i + 1, i
    pairs[n + i], pairs[n + i + 1] = n + i + 1, n + i
    return Diagram(n, n, pairs)


def stack_diagrams(upper, lower):
    """Glue upper's bottom edge to lower's top edge.

    Requires upper.n == lower.m; returns (diagram, closed_loop_count).
    Each strand of the result is followed from one outer end through
    upper.pairs and lower.pairs, crossing the interface between them;
    every interface point that no such strand crosses lies on a closed
    loop, and each loop is walked once to count it.
    """
    if upper.n != lower.m:
        raise SignatureMismatch(
            f"cannot stack ({upper.m},{upper.n}) on ({lower.m},{lower.n})")
    l, mid, n = upper.m, upper.n, lower.n
    up, low = upper.pairs, lower.pairs
    # interface point i is upper's bottom point l + i and lower's top point i
    crossed = [False] * mid
    pairs = [-1] * (l + n)
    for start in range(l + n):
        if pairs[start] >= 0:
            continue
        if start < l:
            q = up[start]
        else:
            q = low[mid + start - l]
            if q >= mid:
                end = l + q - mid
                pairs[start], pairs[end] = end, start
                continue
            crossed[q] = True
            q = up[l + q]
        # q is a point of upper: a result top end or an interface point
        while q >= l:
            i = q - l
            crossed[i] = True
            q = low[i]
            if q >= mid:
                q = l + q - mid
                break
            crossed[q] = True
            q = up[l + q]
        pairs[start], pairs[q] = q, start
    loops = 0
    for i in range(mid):
        if crossed[i]:
            continue
        loops += 1
        j = i
        while True:
            k = up[l + j] - l
            crossed[j] = crossed[k] = True
            j = low[k]
            if j == i:
                break
    return Diagram(l, n, pairs), loops


def tensor_diagrams(a, b):
    """Horizontal juxtaposition: a on the left, b on the right."""
    m, n = a.m + b.m, a.n + b.n
    pairs = [0] * (m + n)

    def a_new(p):
        return p if p < a.m else a.m + b.m + (p - a.m)

    def b_new(p):
        return a.m + p if p < b.m else m + a.n + (p - b.m)

    for p in range(a.m + a.n):
        pairs[a_new(p)] = a_new(a.pairs[p])
    for p in range(b.m + b.n):
        pairs[b_new(p)] = b_new(b.pairs[p])
    return Diagram(m, n, pairs)


def bar_diagram(a):
    """Reflect through a horizontal line: top and bottom edges swap."""

    def relabel(p):
        return a.n + p if p < a.m else p - a.m

    pairs = [0] * (a.m + a.n)
    for p in range(a.m + a.n):
        pairs[relabel(p)] = relabel(a.pairs[p])
    return Diagram(a.n, a.m, pairs)


def _pairing_loops(a, b):
    """Cycles of two perfect matchings of the same points, given as mate
    lists: the closed loops formed when the two are glued point to
    point."""
    seen = [False] * len(a)
    loops = 0
    for start in range(len(a)):
        if seen[start]:
            continue
        loops += 1
        p = start
        while not seen[p]:
            q = a[p]
            seen[p] = seen[q] = True
            p = b[q]
    return loops


def closure_loops(a):
    """Close a square diagram around a cylinder (or annulus): the counts
    (trivial, essential) of the loops that wind 0 and +-1 times around
    the core.  Asserts that no loop winds more often."""
    if a.m != a.n:
        raise SignatureMismatch("trace requires a square diagram")
    n = a.m
    pairs = a.pairs
    seen = [False] * (2 * n)
    loops = essential = 0
    for start in range(2 * n):
        if seen[start]:
            continue
        wind = 0
        p = start
        while not seen[p]:
            q = pairs[p]
            seen[p] = seen[q] = True
            # seam hop: bottom i rejoins top i (+1), top i drops to bottom (-1)
            if q >= n:
                wind += 1
                p = q - n
            else:
                wind -= 1
                p = q + n
        if wind not in (-1, 0, 1):
            raise AssertionError(f"embedded closure loop wound {wind} times")
        loops += 1
        essential += wind != 0
    return loops - essential, essential


def trace_loops(a):
    """Loop count when a square diagram is closed around a cylinder."""
    return sum(closure_loops(a))


class Morphism:
    """Formal linear combination of (m, n)-diagrams over a scalar backend.

    The loop weight d must be supplied as a scalar of the same backend so
    stacking can convert closed loops into factors.
    """

    __slots__ = ("m", "n", "terms", "d")

    def __init__(self, m, n, terms, d):
        self.m = m
        self.n = n
        self.d = d
        self.terms = {k: v for k, v in terms.items() if v}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_diagram(diag, d):
        return Morphism(diag.m, diag.n, {diag: d ** 0}, d)

    @staticmethod
    def zero(m, n, d):
        return Morphism(m, n, {}, d)

    @staticmethod
    def identity(n, d):
        return Morphism.from_diagram(identity_diagram(n), d)

    @staticmethod
    def hook(n, i, d):
        return Morphism.from_diagram(u_diagram(n, i), d)

    # -- linear structure ----------------------------------------------------

    def _check_sig(self, other):
        if self.m != other.m or self.n != other.n:
            raise SignatureMismatch(
                f"({self.m},{self.n}) vs ({other.m},{other.n})")

    def __add__(self, other):
        self._check_sig(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms[k] + v if k in terms else v
        return Morphism(self.m, self.n, terms, self.d)

    def __sub__(self, other):
        self._check_sig(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms[k] - v if k in terms else -v
        return Morphism(self.m, self.n, terms, self.d)

    def __neg__(self):
        return Morphism(self.m, self.n,
                        {k: -v for k, v in self.terms.items()}, self.d)

    def scale(self, c):
        """Every coefficient times c.  Each distinct coefficient is
        multiplied once, through a dict that lives for the call: a
        projector's Catalan(k) coefficients take few distinct values."""
        prods = {}
        terms = {}
        for k, v in self.terms.items():
            p = prods.get(v)
            if p is None:
                p = prods[v] = v * c
            terms[k] = p
        return Morphism(self.m, self.n, terms, self.d)

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) \
            and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return f"0:({self.m},{self.n})"
        bits = [f"({v!r})*{k!r}" for k, v in self.terms.items()]
        return " + ".join(bits)

    # -- categorical operations ----------------------------------------------

    def tensor(self, other):
        out = {}
        for da, ca in self.terms.items():
            for db, cb in other.terms.items():
                diag = tensor_diagrams(da, db)
                c = ca * cb
                out[diag] = out[diag] + c if diag in out else c
        return Morphism(self.m + other.m, self.n + other.n, out, self.d)


def _loop_folder(d, top, *dens):
    """fold(sums): the exact scalar sum_l sums[l] d^l / prod(dens),
    normalised once, or None when it is zero (which costs no gcd).  sums
    is a nonempty map from loop counts l <= top to integer polynomial
    numerators as _one_denominator gives them, dens are denominators of
    that backend.  d^0 .. d^top are computed and brought to one
    denominator here, once per folder; over Q(delta) each fold reduces
    its total through the field's power table once."""
    pnums, pden = _one_denominator([d ** l for l in range(top + 1)])
    powers = [[(j, y) for j, y in enumerate(p) if y] for p in pnums]
    width = max(len(p) for p in pnums)
    if isinstance(d, RationalFunc):
        den = list(pden)
        for x in dens:
            den = _pmul(den, x)

        def normalise(total):
            return RationalFunc(total, den) if any(total) else None
    else:
        field, den = d.field, pden
        for x in dens:
            den *= x

        def normalise(total):
            nums = field._reduce(total)
            return _canonical(field, nums, den) if any(nums) else None

    def fold(sums):
        total = [0] * (max(len(num) for num in sums.values()) + width - 1)
        for loops, num in sums.items():
            power = powers[loops]
            for i, x in enumerate(num):
                if x:
                    for j, y in power:
                        total[i + j] += x * y
        return normalise(total)
    return fold


def _stack_exact(upper, lower, d):
    """The terms of `lower` stacked under `upper` over an exact backend
    (RationalFunc or Q(delta)).

    Each operand is first brought to one denominator (_one_denominator);
    the integer numerator products are summed per output diagram and
    loop count, and each output coefficient is folded with d's powers and
    normalised once (_loop_folder): an output that sums to zero costs no
    gcd.  Keys come out in first-stacked order, zero outputs dropped.
    """
    if not (upper and lower):
        return {}
    unums, uden = _one_denominator(list(upper.values()))
    lnums, lden = _one_denominator(list(lower.values()))
    # each lower numerator as its nonzero entries and its degree
    lows = [(db, [(j, y) for j, y in enumerate(bn) if y], len(bn) - 1)
            for db, bn in zip(lower, lnums)]
    sums = {}
    for da, an in zip(upper, unums):
        for db, bn, bdeg in lows:
            diag, loops = stack_diagrams(da, db)
            by_loops = sums.get(diag)
            if by_loops is None:
                by_loops = sums[diag] = {}
            need = len(an) + bdeg
            acc = by_loops.get(loops)
            if acc is None:
                acc = by_loops[loops] = [0] * need
            elif len(acc) < need:
                acc.extend([0] * (need - len(acc)))
            for i, x in enumerate(an):
                if x:
                    for j, y in bn:
                        acc[i + j] += x * y
    top = max(max(by_loops) for by_loops in sums.values())
    fold = _loop_folder(d, top, uden, lden)
    for diag, by_loops in sums.items():
        # each output's accumulators are freed as soon as it is folded
        sums[diag] = fold(by_loops)
    return {diag: c for diag, c in sums.items() if c is not None}


def compose(a, b):
    """Categorical composite a after b: b stacked above a.

    a: (m, n), b: (l, m)  ->  (l, n); loops become d factors.
    """
    if b.n != a.m:
        raise SignatureMismatch(
            f"cannot stack ({b.m},{b.n}) over ({a.m},{a.n})")
    d = a.d
    if isinstance(d, (RationalFunc, FieldElement)):
        return Morphism(b.m, a.n, _stack_exact(b.terms, a.terms, d), d)
    powers = {}
    out = {}
    for da, ca in b.terms.items():
        for db, cb in a.terms.items():
            diag, loops = stack_diagrams(da, db)
            if loops not in powers:
                powers[loops] = d ** loops
            c = ca * cb * powers[loops] if loops else ca * cb
            if diag in out:
                out[diag] = out[diag] + c
            else:
                out[diag] = c
    return Morphism(b.m, a.n, out, d)


def compose_factored(a, b):
    """Same contract as compose(a, b), evaluated arc by arc.

    Each diagram D of the upper factor b with an adjacent bottom arc at
    (i, i+1) satisfies D = (1/d) * (D stacked over U_i), so its product
    with the lower factor routes through U_i * a; when the lower factor
    kills the hooks (as a projector does) almost every term vanishes.
    """
    d = a.d
    out = Morphism.zero(b.m, a.n, d)
    zcache = {}
    direct = {}
    for D, c in b.terms.items():
        if D.is_identity():
            out = out + a.scale(c)
            continue
        arc = None
        for i in range(D.n - 1):
            if D.pairs[D.m + i] == D.m + i + 1:
                arc = i
                break
        if arc is None:
            direct[D] = direct[D] + c if D in direct else c
            continue
        if arc not in zcache:
            zcache[arc] = compose(a, Morphism.hook(D.n, arc, d))
        z = zcache[arc]
        if z.is_zero():
            continue
        out = out + compose(z, Morphism.from_diagram(D, d)).scale(c / d)
    if direct:
        out = out + compose(a, Morphism(b.m, b.n, direct, d))
    return out


def bar(a):
    return Morphism(a.n, a.m, {bar_diagram(k): v for k, v in a.terms.items()},
                    a.d)


def markov_trace(a):
    """Markov trace of a square morphism; SignatureMismatch otherwise,
    with or without terms."""
    if a.m != a.n:
        raise SignatureMismatch(
            f"trace requires a square morphism, not ({a.m},{a.n})")
    d = a.d
    if not a.terms:
        return d - d
    if isinstance(d, (RationalFunc, FieldElement)):
        nums, den = _one_denominator(list(a.terms.values()))
        sums = {}
        for diag, num in zip(a.terms, nums):
            loops = trace_loops(diag)
            sums[loops] = _padd(sums.get(loops, []), num)
        total = _loop_folder(d, max(sums), den)(sums)
        return d - d if total is None else total
    total = None
    for diag, c in a.terms.items():
        val = c * d ** trace_loops(diag)
        total = val if total is None else total + val
    return total


# ---------------------------------------------------------------------------
# Jones-Wenzl projectors
# ---------------------------------------------------------------------------


def _backend(backend, ell=None, d_value=None):
    """(cache key, loop weight d, m -> [m]) of a scalar backend.

    Raises ConfigInvalid for an unknown backend, for "special" without
    an integer level >= 1 and for "float" without d_value.
    """
    if backend == "generic":
        return ("generic",), D_GENERIC, quantum_int
    if backend == "special":
        field = SpecialField(ell)
        return ("special", ell), field.delta, field.quantum_int
    if backend == "float":
        if d_value is None:
            raise ConfigInvalid("the float backend needs d_value")
        d = float(d_value)
        return ("float", d), d, lambda m: quantum_int(m).eval_float(d)
    raise ConfigInvalid(f"unknown backend {backend!r}")


_jw_cache = {}
_jw_cleared_cache = {}


def _jw_cleared(k, backend, ell, d_value):
    """Denominator-cleared projector: (N, den) with p_k = N / den.

    Built by the one-sided (single clasp) form of the Wenzl recursion
    (H. Wenzl, "On sequences of projections", 1987; S. Morrison, "A
    formula for the Jones-Wenzl projections", arXiv:1503.00384):
        p_k = P + sum_{i=1}^{k-1} (-1)^(k-i) ([i]/[k]) P W_i,
    where P = p_{k-1} x 1 and W_i = U_{k-1} ... U_i is the loop-free
    hook word that applies U_i first.  With N' = N_{k-1} x 1 this reads
        N_k = N' ([k] 1 + sum_i (-1)^(k-i) [i] W_i),   den_k = den [k],
    one composite of N' with a k-term morphism: k C(k-1) diagram
    stacks per grade.  Over the generic backend N and den are
    polynomials and the pair is divided by its common polynomial
    content, which keeps the recursion free of per-product gcd work;
    over the special and float backends den is folded into N at every
    step, so den is always one.
    """
    key, d, qint = _backend(backend, ell, d_value)
    if (key, k) in _jw_cleared_cache:
        return _jw_cleared_cache[(key, k)]
    if k == 1:
        out = (Morphism.identity(1, d), d ** 0)
    else:
        N, den = _jw_cleared(k - 1, backend, ell, d_value)
        qk = qint(k)
        if backend == "special" and not qk:
            raise PoleAtSpecialValue(
                f"projector grade {k} does not exist at level {ell}")
        if backend == "float" and abs(qk) < 1e-12:
            raise PoleAtSpecialValue(
                f"projector grade {k} is singular at d={d_value}")
        # W_{k-1} = U_{k-1}, then W_i = W_{i+1} U_i down to i = 1: in
        # this order p_k's terms come out in the key order of the
        # two-sided relation p_k = P - ([k-1]/[k]) P U_{k-1} P
        word = identity_diagram(k)
        terms = {word: qk}
        for i in range(k - 1, 0, -1):
            word, _ = stack_diagrams(u_diagram(k, i - 1), word)
            terms[word] = qint(i) if (k - i) % 2 == 0 else -qint(i)
        N1 = N.tensor(Morphism.identity(1, d))
        num = compose(N1, Morphism(k, k, terms, d))
        den = den * qk
        if backend == "generic":
            # the content gcd and its division, once per distinct
            # numerator (a dict for this grade)
            distinct = dict.fromkeys([den, *num.terms.values()])
            g = []
            for c in distinct:
                g = _pgcd(g, list(c.num))
                if g == [1]:
                    break
            if g != [1]:
                for c in distinct:
                    distinct[c] = RationalFunc(_pexact_div(list(c.num), g),
                                               [1], _normalized=True)
                num = Morphism(num.m, num.n,
                               {kk: distinct[v]
                                for kk, v in num.terms.items()}, d)
                den = distinct[den]
        else:
            num, den = num.scale(1 / den), d ** 0
        out = (num, den)
    _jw_cleared_cache[(key, k)] = out
    return out


def jones_wenzl(k, backend="generic", ell=None, d_value=None):
    """The grade-k Jones-Wenzl projector.

    Built by the one-sided Wenzl recursion (Morrison, arXiv:1503.00384)
        p_k = p_{k-1} x 1
              + sum_{i=1}^{k-1} (-1)^(k-i) ([i]/[k]) (p_{k-1} x 1) W_i,
    with W_i = U_{k-1} ... U_i (U_i applied first); see _jw_cleared.  In
    the special backend this exists for k <= ell + 1 and raises
    PoleAtSpecialValue beyond, where [k] = 0.
    """
    key = (_backend(backend, ell, d_value)[0], k)
    if key in _jw_cache:
        return _jw_cache[key]
    if k < 1:
        raise IndexOutOfRange("projector grade must be >= 1")
    _check_diagram_cap(k, k)
    N, den = _jw_cleared(k, backend, ell, d_value)
    p = N.scale(1 / den)
    _jw_cache[key] = p
    return p


# ---------------------------------------------------------------------------
# Markov pairing and its radical
# ---------------------------------------------------------------------------


def gram_exponents(m, n):
    """Loop-count matrix of the Markov pairing on the (m, n) diagram basis.

    Entry [i][j] is the number of loops in the cylinder closure of
    D_i stacked over bar(D_j): that closure glues every point of D_i to
    the same point of D_j, so the count is _pairing_loops of their
    pairs.  The pairing value is d to that power.  The count is
    symmetric in i and j, so only i <= j is walked.
    """
    _check_diagram_cap(m, n, power=2)
    basis = enumerate_diagrams(m, n)
    pairs = [b.pairs for b in basis]
    expo = [[0] * len(pairs) for _ in pairs]
    for i, a in enumerate(pairs):
        row = expo[i]
        for j in range(i, len(pairs)):
            row[j] = expo[j][i] = _pairing_loops(a, pairs[j])
    return basis, expo


def _loop_powers(expo, d, m, n):
    """The Gram matrix d^expo of gram_exponents(m, n)'s loop counts."""
    # a closure has at most (m + n) / 2 loops: one power per count
    powers = [d ** e for e in range((m + n) // 2 + 1)]
    return [[powers[e] for e in row] for row in expo]


def gram_matrix(m, n, backend="generic", ell=None, d_value=None):
    """Gram matrix of the Markov pairing over the chosen backend."""
    d = _backend(backend, ell, d_value)[1]
    basis, expo = gram_exponents(m, n)
    return basis, _loop_powers(expo, d, m, n)


def radical_vectors(n, ell):
    """Radical of the Markov pairing at grade n and the level-ell special
    weight: (exact null vectors, diagram basis, Gram matrix)."""
    basis, mat = gram_matrix(n, n, "special", ell)
    return nullspace(mat), basis, mat


def radical_basis(n, ell):
    """The radical_vectors of grade n at level ell as square morphisms."""
    vecs, basis, _ = radical_vectors(n, ell)
    d = SpecialField(ell).delta
    return [Morphism(n, n, dict(zip(basis, vec)), d) for vec in vecs]
