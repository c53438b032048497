"""Loop-gas Hamiltonians as constraint systems and their exact kernels.

Every Hamiltonian here is a positive sum of rank-one projectors
(v)(v*) with v a short combination of classical spin configurations,
so its ground space is exactly the joint kernel of the vectors v.
Constraint rows are stored at pattern level: a row fixes a small set
of sites to one of a few local patterns with scalar coefficients, and
stands for one linear functional per assignment of the remaining
sites.

Two independent kernel solvers are provided for systems of two-term
rows, the only kind the builders make: ratio propagation along move
graphs (exact d-exponents) and a numeric/modular oracle that reads
only the coefficients.  Ratio propagation and the oracle's GF(p) rank
both run hook-and-compress label propagation (Shiloach and Vishkin,
J. Algorithms 3, 1982) over numpy arrays, one row at a time; each is
written separately so that neither can share a defect with the other.
"""

from __future__ import annotations

import functools
from collections import deque
from fractions import Fraction

import numpy as np

from .errors import (ConfigInvalid, InconsistentCycle, StateSpaceTooLarge,
                     WindowDoesNotFit)
from .lattice import ENUM_STATE_CAP, HexTorusLattice, SquareTorusLattice
from .linalg import rank as exact_rank
from .scalars import (FieldElement, SpecialField, minimal_polynomial,
                      special_weight)
from .tlcat import Morphism, compose, enumerate_diagrams, jones_wenzl

DENSE_STATE_CAP = 300_000
_DENSE_SVD_CAP = 4096


class Row:
    """One pattern-level constraint row.

    sites is a tuple of site indices; each term is (pattern, coeff)
    where bit k of pattern gives the spin of sites[k] (set = |+>).
    For a pure two-term ratio row, dexp records the exact d-exponent:
    the kernel amplitude of the second pattern is d**dexp times the
    amplitude of the first.
    """

    __slots__ = ("tag", "label", "sites", "terms", "dexp")

    def __init__(self, tag, label, sites, terms, dexp=None):
        self.tag = tag
        self.label = label
        self.sites = tuple(sites)
        self.terms = list(terms)
        self.dexp = dexp

    def __repr__(self):
        return "Row(%s, %r, sites=%r, %d terms)" % (
            self.tag, self.label, self.sites, len(self.terms))


class ConstraintSystem:
    """A list of pattern rows over a lattice's spin configurations."""

    def __init__(self, lattice, ell, rows, model, field=None):
        self.lattice = lattice
        self.ell = ell
        self.rows = rows
        self.model = model
        self.field = field if field is not None else (
            SpecialField(ell) if ell is not None else None)

    @property
    def n_states(self):
        return 1 << self.lattice.nsites

    def __repr__(self):
        return "ConstraintSystem(%s, ell=%r, %d rows, %d sites)" % (
            self.model, self.ell, len(self.rows), self.lattice.nsites)


class KernelBasis:
    """Kernel of a constraint system over the full state index.

    For the propagation solver the basis is one vector per consistent
    component with exact amplitudes d**(pot[s]); comp[s] and pot[s]
    are arrays over all states (comp = -1 never occurs on the full
    space).  Components are numbered in the order of their smallest
    states, and pot is canonical: 0 at the smallest state of each
    component, so neither depends on the order of the rows.  Numeric
    solvers may carry dense float vectors instead.
    """

    def __init__(self, dimension, method, comp=None, pot=None,
                 vectors=None, d=None):
        self.dimension = dimension
        self.method = method
        self.comp = comp
        self.pot = pot
        self.vectors = vectors
        self.d = d

    def component_states(self, k):
        return np.nonzero(self.comp == k)[0]

    def __repr__(self):
        return "KernelBasis(dim=%d, %s)" % (self.dimension, self.method)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_h0(lat, ell):
    """Plaque-model constraint rows: isotopy (g) rows for every cell
    whose wall crosses it in a single arc, and loop (h) rows for every
    monochromatic neighborhood; the side with the extra trivial loop
    carries the 1/d coefficient."""
    if not isinstance(lat, HexTorusLattice):
        raise ConfigInvalid("the plaque model lives on the hex torus")
    field = SpecialField(ell)
    one = field.one
    inv_d = one / field.delta
    rows = []
    for site in range(lat.nsites):
        ring = lat.neighbors(site)
        sites = (site,) + tuple(ring)
        for ring_bits in range(64):
            vals = [(ring_bits >> k) & 1 for k in range(6)]
            blocks = sum(1 for k in range(6) if vals[k] != vals[k - 1])
            base = ring_bits << 1
            if blocks == 2:
                # wall meets the cell in a single arc: 1:1 isotopy flip
                rows.append(Row("g-term", ("cell", site), sites,
                                [(base | 1, one), (base, -one)], dexp=0))
            elif blocks == 0:
                mono = base | (ring_bits & 1)
                flip = mono ^ 1
                rows.append(Row("h-term", ("cell", site), sites,
                                [(mono, one), (flip, -inv_d)], dexp=1))
    return ConstraintSystem(lat, ell, rows, "h0", field)


def build_hprime(lat, ell):
    """Bond-model rows: 4 box rows per square cell (one per marked
    edge) and 4 dual-box rows per vertex."""
    if not isinstance(lat, SquareTorusLattice):
        raise ConfigInvalid("the bond model lives on the square torus")
    field = SpecialField(ell)
    one = field.one
    inv_d = one / field.delta
    rows = []
    for (i, j) in lat.cells():
        bonds = lat.cell_bonds(i, j)
        for mark in range(4):
            sites = (bonds[mark],) + tuple(b for k, b in enumerate(bonds)
                                           if k != mark)
            # |3> = marked bond -, others +; |4> = all +
            pat3 = 0b1110
            pat4 = 0b1111
            rows.append(Row("box", ("cell", i, j, mark), sites,
                            [(pat3, one), (pat4, -inv_d)], dexp=1))
    for (i, j) in lat.vertices():
        bonds = lat.vertex_bonds(i, j)
        for mark in range(4):
            sites = (bonds[mark],) + tuple(b for k, b in enumerate(bonds)
                                           if k != mark)
            # |1^> = marked bond +, others -; |0^> = all -
            rows.append(Row("dual-box", ("vertex", i, j, mark), sites,
                            [(0b0001, one), (0b0000, -inv_d)], dexp=1))
    return ConstraintSystem(lat, ell, rows, "hprime", field)


def build_ring_exchange(lat):
    """Ring-exchange rows |3> - |3'> (and dual): cyclic shifts of the
    single minority bond around each cell and vertex, no d-weighting."""
    rows = []
    for (i, j) in lat.cells():
        bonds = lat.cell_bonds(i, j)
        for mark in range(4):
            nxt = (mark + 1) % 4
            sites = tuple(bonds)
            pat_a = 0b1111 ^ (1 << mark)
            pat_b = 0b1111 ^ (1 << nxt)
            rows.append(Row("ring-exchange", ("cell", i, j, mark), sites,
                            [(pat_a, 1), (pat_b, -1)], dexp=0))
    for (i, j) in lat.vertices():
        bonds = lat.vertex_bonds(i, j)
        for mark in range(4):
            nxt = (mark + 1) % 4
            sites = tuple(bonds)
            rows.append(Row("ring-exchange", ("vertex", i, j, mark), sites,
                            [(1 << mark, 1), (1 << nxt, -1)], dexp=0))
    return ConstraintSystem(lat, None, rows, "ring-exchange", field=False)


# ---------------------------------------------------------------------------
# pattern expansion
# ---------------------------------------------------------------------------


def _scatter_contexts(nsites, sites):
    """All context words for a row's site set: a read-only array of
    state masks with zeros at those sites, in increasing order."""
    ctx = np.arange(1 << (nsites - len(sites)), dtype=np.int64)
    for pos in sorted(sites):
        # insert a zero bit at pos; lower positions are already final
        ctx = (ctx >> pos << (pos + 1)) | (ctx & ((1 << pos) - 1))
    ctx.flags.writeable = False
    return ctx


# contexts of up to 2^16 words (512 kB) are cached per site set; larger
# ones, which single-site windows make on the 3x3 torus, are rebuilt
_CACHED_CONTEXTS = 1 << 16
_cached_contexts = functools.lru_cache(maxsize=64)(_scatter_contexts)


def _pattern_state(pattern, sites):
    bits = 0
    for k, pos in enumerate(sites):
        if (pattern >> k) & 1:
            bits |= 1 << pos
    return bits


def concrete_states(row, nsites):
    """Arrays of global states per term of a pattern row."""
    sites = frozenset(row.sites)
    ctx = (_cached_contexts if 1 << (nsites - len(sites)) <= _CACHED_CONTEXTS
           else _scatter_contexts)(nsites, sites)
    return [ctx | _pattern_state(pat, row.sites) for pat, _ in row.terms]


# ---------------------------------------------------------------------------
# solver 1: exact ratio propagation
# ---------------------------------------------------------------------------


# pack[s] = label << _POT_SHIFT | (pot[s] - pot[label] + _POT_BIAS): the
# state s is tied to with its d-exponent relative to it, so one minimum
# carries both
_POT_SHIFT = 32
_POT_BIAS = 1 << (_POT_SHIFT - 1)
_POT_MASK = (1 << _POT_SHIFT) - 1


def kernel_propagate(cs):
    """One exact kernel vector per consistent ergodic component.

    Every row must be a two-term ratio row carrying its d-exponent.
    Rows are hooked one at a time: the states of each pair (a, b) are
    followed up to their roots, and where the roots differ the larger
    takes the smaller as its label, with the exponent that makes
    pot[b] - pot[a] = dexp.  Pointer jumping then points every state
    at its root.  Roots are component minima, so pot ends canonical
    (0 at each smallest state).  Every pair is then checked exactly,
    and the first whose ratio does not close raises InconsistentCycle.
    Raises StateSpaceTooLarge, before allocating anything, when 2^N
    exceeds ENUM_STATE_CAP.
    """
    for row in cs.rows:
        if row.dexp is None or len(row.terms) != 2:
            raise ConfigInvalid(
                "ratio propagation needs two-term ratio rows")
    n = cs.n_states
    if n > ENUM_STATE_CAP:
        raise StateSpaceTooLarge("ratio propagation capped at %d states"
                                 % ENUM_STATE_CAP)
    nsites = cs.lattice.nsites
    pack = (np.arange(n, dtype=np.int64) << _POT_SHIFT) + _POT_BIAS
    for row in cs.rows:
        sa, sb = concrete_states(row, nsites)
        while True:
            pa, pb = _root_pots(pack, sa), _root_pots(pack, sb)
            split = (pa >> _POT_SHIFT) != (pb >> _POT_SHIFT)
            if not split.any():
                break
            pa, pb = pa[split], pb[split]
            qa = (pa & _POT_MASK) - _POT_BIAS
            qb = (pb & _POT_MASK) - _POT_BIAS
            # an offer with the larger label loses to the root's own
            np.minimum.at(pack, pb >> _POT_SHIFT, pa + row.dexp - qb)
            np.minimum.at(pack, pa >> _POT_SHIFT, pb - row.dexp - qa)
    _jump_pots(pack)
    for row in cs.rows:
        sa, sb = concrete_states(row, nsites)
        # labels sit above the exponent bits: equal labels and the
        # right exponent difference leave exactly dexp
        bad = np.flatnonzero(pack[sb] - pack[sa] != row.dexp)
        if len(bad):
            raise InconsistentCycle("ratio cycle through states %d, %d"
                                    % (sa[bad[0]], sb[bad[0]]))
    label = pack >> _POT_SHIFT
    roots = label == np.arange(n)
    comp = (np.cumsum(roots) - 1)[label]
    pot = (pack & _POT_MASK) - _POT_BIAS
    d = float(special_weight(cs.ell)) if cs.ell is not None else 1.0
    return KernelBasis(int(roots.sum()), "propagate", comp=comp, pot=pot,
                       d=d)


def _root_pots(pack, states):
    """Packed root and exponent relative to it of the given states,
    following labels up to the roots; the states keep what was found."""
    val = pack[states]
    todo = np.arange(len(val))
    while len(todo):
        up = pack[val[todo] >> _POT_SHIFT]
        moved = (up >> _POT_SHIFT) != (val[todo] >> _POT_SHIFT)
        todo = todo[moved]
        val[todo] = up[moved] + (val[todo] & _POT_MASK) - _POT_BIAS
    pack[states] = val
    return val


def _jump_pots(pack):
    """Point every state at its root, adding up exponents on the way."""
    while True:
        label = pack >> _POT_SHIFT
        up = pack[label]
        if np.array_equal(up >> _POT_SHIFT, label):
            return
        pack[:] = up + (pack & _POT_MASK) - _POT_BIAS


# ---------------------------------------------------------------------------
# solver 2: numeric / modular row reduction
# ---------------------------------------------------------------------------


def _row_coeff_floats(row):
    return [float(c) for _, c in row.terms]


def _dense_nullspace(cs):
    n = cs.n_states
    nsites = cs.lattice.nsites
    mat_rows = []
    for row in cs.rows:
        cols = concrete_states(row, nsites)
        coeffs = _row_coeff_floats(row)
        for k in range(len(cols[0])):
            r = np.zeros(n)
            for t, arr in enumerate(cols):
                r[arr[k]] += coeffs[t]
            mat_rows.append(r)
    mat = np.array(mat_rows) if mat_rows else np.zeros((0, n))
    if mat.shape[0] == 0:
        return KernelBasis(n, "dense-svd", vectors=np.eye(n))
    u, s, vt = np.linalg.svd(mat, full_matrices=True)
    tol = 1e-8 * (s[0] if len(s) else 1.0)
    rank = int(np.sum(s > tol))
    return KernelBasis(n - rank, "dense-svd", vectors=vt[rank:].T)


def _find_prime_with_root(poly, start=1_000_003):
    """A prime p and a root of the integer polynomial mod p."""
    def is_prime(m):
        if m % 2 == 0:
            return m == 2
        f = 3
        while f * f <= m:
            if m % f == 0:
                return False
            f += 2
        return True

    p = start
    while True:
        while not is_prime(p):
            p += 2
        # smallest root first, evaluated in blocks to keep memory small
        for lo in range(0, p, 1 << 16):
            xs = np.arange(lo, min(p, lo + (1 << 16)), dtype=np.int64)
            acc = np.zeros_like(xs)
            for c in reversed(poly):
                acc = (acc * xs + int(c)) % p
            roots = np.flatnonzero(acc == 0)
            if len(roots):
                return p, lo + int(roots[0])
        p += 2


# pack[s] = label << _FACTOR_SHIFT | f with x_s = f * x_label in GF(p)
_FACTOR_SHIFT = 32
_FACTOR_MASK = (1 << _FACTOR_SHIFT) - 1


def _modular_rank(cs):
    """Rank of the expanded system of two-term rows over GF(p), with d
    mapped to a root of its minimal polynomial mod p.

    A row va*x_a + vb*x_b with both coefficients nonzero mod p ties
    x_b = -va/vb * x_a; with one nonzero coefficient it forces that
    state to zero.  Ties are hooked row by row, each state carrying
    (label, f) with x = f * x_label, the ratios read from the
    coefficients alone.  A component keeps one free amplitude unless
    a pair contradicts its factors or a forced zero lands in it, and
    rank = n - (free components).
    """
    poly = minimal_polynomial(cs.ell) if cs.ell is not None else [-1, 1]
    p, droot = _find_prime_with_root([int(c) for c in poly])
    nsites = cs.lattice.nsites
    n = cs.n_states
    pack = (np.arange(n, dtype=np.int64) << _FACTOR_SHIFT) | 1
    coeffs = [(row, _coeff_mod(row.terms[0][1], p, droot),
               _coeff_mod(row.terms[1][1], p, droot)) for row in cs.rows]
    for row, va, vb in coeffs:
        if not (va and vb):
            continue
        ratio = (p - va) * pow(vb, p - 2, p) % p
        sa, sb = concrete_states(row, nsites)
        while True:
            pa = _root_factors(pack, sa, p)
            pb = _root_factors(pack, sb, p)
            split = (pa >> _FACTOR_SHIFT) != (pb >> _FACTOR_SHIFT)
            if not split.any():
                break
            la, lb = pa[split] >> _FACTOR_SHIFT, pb[split] >> _FACTOR_SHIFT
            # x_lb = (ratio * fa / fb) * x_la
            num = ratio * (pa[split] & _FACTOR_MASK) % p
            den = pb[split] & _FACTOR_MASK
            np.minimum.at(pack, lb, (la << _FACTOR_SHIFT)
                          | num * _inverse_mod(den, p) % p)
            np.minimum.at(pack, la, (lb << _FACTOR_SHIFT)
                          | den * _inverse_mod(num, p) % p)
    _jump_factors(pack, p)
    label, f = pack >> _FACTOR_SHIFT, pack & _FACTOR_MASK
    dead = np.zeros(n, dtype=bool)
    for row, va, vb in coeffs:
        sa, sb = concrete_states(row, nsites)
        if va and vb:
            hit = sa[(va * f[sa] + vb * f[sb]) % p != 0]
        else:
            hit = sa if va else sb if vb else sa[:0]
        dead[label[hit]] = True
    return n - int(np.count_nonzero((label == np.arange(n)) & ~dead))


def _root_factors(pack, states, p):
    """Packed root and factor to it of the given states, following
    labels up to the roots; the states keep what was found."""
    val = pack[states]
    todo = np.arange(len(val))
    while len(todo):
        up = pack[val[todo] >> _FACTOR_SHIFT]
        moved = (up >> _FACTOR_SHIFT) != (val[todo] >> _FACTOR_SHIFT)
        todo = todo[moved]
        val[todo] = ((up[moved] >> _FACTOR_SHIFT) << _FACTOR_SHIFT
                     | (val[todo] & _FACTOR_MASK)
                     * (up[moved] & _FACTOR_MASK) % p)
    pack[states] = val
    return val


def _jump_factors(pack, p):
    """Point every state at its root, multiplying factors on the way."""
    while True:
        label = pack >> _FACTOR_SHIFT
        up = pack[label]
        if np.array_equal(up >> _FACTOR_SHIFT, label):
            return
        pack[:] = ((up >> _FACTOR_SHIFT) << _FACTOR_SHIFT
                   | (pack & _FACTOR_MASK) * (up & _FACTOR_MASK) % p)


def _inverse_mod(x, p):
    """Elementwise inverse of a nonzero int64 array mod the prime p,
    by Fermat's little theorem on its distinct values."""
    base, where = np.unique(x % p, return_inverse=True)
    out = np.ones_like(base)
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out[where]


def _coeff_mod(c, p, droot):
    """Image of a scalar coefficient in GF(p) under d -> droot."""
    if isinstance(c, (int, np.integer)):
        return c % p
    if isinstance(c, Fraction):
        return c.numerator * pow(c.denominator % p, p - 2, p) % p
    if isinstance(c, FieldElement):
        acc = 0
        for q in reversed(c.num):
            acc = (acc * droot + q) % p
        return acc * pow(c.den % p, p - 2, p) % p
    raise ConfigInvalid("cannot reduce coefficient %r mod p" % (c,))


def kernel_dense(cs):
    """Numeric kernel oracle, independent of ratio propagation.

    Every row must have exactly two terms, as every builder makes them;
    the oracle reads only the coefficients, never the d-exponents.
    Small systems get a dense float SVD with threshold 1e-8 times the
    top singular value; larger ones (up to the state cap) get a sparse
    modular rank computation, which fixes the dimension only.  Raises
    ConfigInvalid on any other row and StateSpaceTooLarge past the
    cap, both before allocating anything.
    """
    for row in cs.rows:
        if len(row.terms) != 2:
            raise ConfigInvalid("the kernel oracle needs two-term rows")
    n = cs.n_states
    if n > DENSE_STATE_CAP:
        raise StateSpaceTooLarge(
            "dense oracle capped at %d states" % DENSE_STATE_CAP)
    if n <= _DENSE_SVD_CAP:
        return _dense_nullspace(cs)
    rank = _modular_rank(cs)
    return KernelBasis(n - rank, "modular-elimination")


# ---------------------------------------------------------------------------
# Pauli expansion of the box and dual-box projectors
# ---------------------------------------------------------------------------


def _kron(a, b):
    out = [[None] * (len(a[0]) * len(b[0])) for _ in range(len(a) * len(b))]
    for i, arow in enumerate(a):
        for j, av in enumerate(arow):
            for k, brow in enumerate(b):
                for l, bv in enumerate(brow):
                    out[i * len(b) + k][j * len(b[0]) + l] = av * bv
    return out


def pauli_expand_check(ell):
    """Whether the box (and dual-box) projector built from its defining
    vector equals its fourth-degree Pauli-matrix expansion, exactly.

    A set basis-index bit means that bond carries |->; the marked bond
    is the leading tensor factor.  sigma_z = diag(1, -1) in the
    (|+>, |->) ordering.
    """
    field = SpecialField(ell)
    one, zero, d = field.one, field.zero, field.delta
    sz = [[one, zero], [zero, -one]]
    sx = [[zero, one], [one, zero]]
    ident = [[one, zero], [zero, one]]

    def mat_scale(m, c):
        return [[v * c for v in row] for row in m]

    def mat_add(*ms):
        out = ms[0]
        for m in ms[1:]:
            out = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(out, m)]
        return out

    def outer(vec):
        return [[a * b for b in vec] for a in vec]

    q16 = one / field.element([16])
    q8d = one / (field.element([8]) * d)
    q16d2 = one / (field.element([16]) * d * d)
    results = []
    for dual in (False, True):
        # defining vector: |3> (marked -, rest +) - (1/d)|4> (all +),
        # or |1^> (marked +, rest -) - (1/d)|0^> (all -)
        v = [zero] * 16
        if not dual:
            v[0b1000] = one           # marked bond |->, rest |+>
            v[0b0000] = -(one / d)    # all |+>
        else:
            v[0b0111] = one           # marked bond |+>, rest |->
            v[0b1111] = -(one / d)    # all |->
        proj = outer(v)

        flip = -one if dual else one
        head = mat_add(mat_scale(mat_add(ident, mat_scale(sz, -flip)), q16),
                       mat_scale(sx, zero - q8d),
                       mat_scale(mat_add(ident, mat_scale(sz, flip)), q16d2))
        tail = mat_add(ident, mat_scale(sz, flip))
        pauli = head
        for _ in range(3):
            pauli = _kron(pauli, tail)
        results.append(all(pauli[i][j] == proj[i][j]
                           for i in range(16) for j in range(16)))
    return all(results)


# ---------------------------------------------------------------------------
# combinatorial skein instances
# ---------------------------------------------------------------------------


def _diagram_words(n):
    """Reduced generator word for every planar pairing diagram on n
    strands, found by breadth-first products with no closed loops."""
    field = SpecialField(2)  # any weight with d != 1, to detect loops
    d = field.delta
    ident = Morphism.identity(n, d)
    id_diag = next(iter(ident.terms))
    words = {id_diag: ()}
    queue = deque([id_diag])
    while queue:
        diag = queue.popleft()
        base = Morphism.from_diagram(diag, d)
        for i in range(n - 1):
            # apply U_i after the existing word
            prod = compose(Morphism.hook(n, i, d), base)
            (new_diag, coeff), = prod.terms.items()
            if coeff == field.one and new_diag not in words:
                words[new_diag] = words[diag] + (i,)
                queue.append(new_diag)
    target = len(list(enumerate_diagrams(n, n)))
    assert len(words) == target, "word search missed some diagrams"
    return words


def _schedule(word):
    """Assign each letter a half-layer (row, type): U_k on an even slot
    pair needs an h-layer, on an odd pair a v-layer; letters occupy
    successive half-layers in temporal order."""
    placed = []
    half = 0  # half-layer counter: even = h-layer, odd = v-layer of row half//2
    for k in word:
        want = 0 if k % 2 == 0 else 1
        if half % 2 != want or placed and placed[-1][0] == half:
            half += 1
        while half % 2 != want:
            half += 1
        placed.append((half, k))
        half += 1
    return placed


def compile_skein_instances(lat, ell):
    """Constraint rows realizing the grade-(ell+1) projector at every
    window placement and both orientations.

    Each planar diagram on ell+1 strands maps to the spin pattern whose
    wall restriction inside the window matches it: an h-bond resolves
    the wall as a cup-cap when |+> and as two through-strands when
    |->, and a v-bond the other way round.  Interfering bonds between
    the first and last letter layers are pinned to the through-strand
    resolution.  Only the square torus has these windows.
    """
    if not isinstance(lat, SquareTorusLattice):
        raise ConfigInvalid("skein windows need the square torus")
    n = ell + 1
    if n > min(lat.w, lat.h):
        raise WindowDoesNotFit(
            "%d parallel strands need a window of extent %d on a "
            "%dx%d lattice" % (n, n, lat.w, lat.h))
    field = SpecialField(ell)
    jw = jones_wenzl(n, "special", ell)
    words = _diagram_words(n)

    scheds = {diag: _schedule(words[diag]) for diag in jw.terms}
    halves = [h for sc in scheds.values() for h, _ in sc]
    if not halves:
        raise WindowDoesNotFit("no generators available")
    h_first, h_last = min(halves), max(halves)
    depth_rows = h_last // 2 + 1
    if depth_rows > lat.h or depth_rows > lat.w:
        raise WindowDoesNotFit("window depth %d exceeds the lattice"
                               % depth_rows)

    # abstract window bonds: letters plus pins strictly between the
    # first and last occupied half-layers
    letters = set()
    for sc in scheds.values():
        for half, k in sc:
            row, typ = half // 2, half % 2
            col = k // 2 if typ == 0 else (k + 1) // 2
            letters.add((typ, col, row))
    pins = set()
    for half in range(h_first + 1, h_last):
        row, typ = half // 2, half % 2
        if typ == 0:
            cols = range(0, (n - 1) // 2 + 1)
        else:
            cols = range(0, n // 2 + 1)
        for col in cols:
            if (typ, col, row) not in letters:
                pins.add((typ, col, row))
    window = sorted(letters | pins)
    where = {b: k for k, b in enumerate(window)}

    def pattern_for(diag):
        # through-strand resolution: h-bond |->, v-bond |+>
        bits = 0
        for typ, col, row in window:
            if typ == 1:
                bits |= 1 << where[(typ, col, row)]
        for half, k in scheds[diag]:
            row, typ = half // 2, half % 2
            col = k // 2 if typ == 0 else (k + 1) // 2
            pos = where[(typ, col, row)]
            if typ == 0:
                bits |= 1 << pos       # h-bond cup-cap is |+>
            else:
                bits &= ~(1 << pos)    # v-bond cup-cap is |->
        return bits

    patterns = [(pattern_for(diag), coeff) for diag, coeff in jw.terms.items()]

    rows = []
    for orient in (0, 1):
        for j in range(lat.h):
            for i in range(lat.w):
                sites = []
                for typ, col, row in window:
                    if orient == 0:
                        sites.append(lat.bond_index(typ, i + col, j + row))
                    else:
                        # transpose: swap axes and bond type
                        sites.append(lat.bond_index(1 - typ,
                                                    j + row, i + col))
                rows.append(Row("skein", (ell, orient, i, j),
                                tuple(sites), list(patterns)))
    return rows


# ---------------------------------------------------------------------------
# joint kernels and probes
# ---------------------------------------------------------------------------


def joint_kernel(cs, skein_rows, target=None):
    """Kernel of the union of a ratio system and multi-term skein rows.

    The skein rows are restricted to the span of the ratio system's
    kernel (one amplitude per component): context k of a row becomes
    sum_t coeff_t * d**pot_t at component comp_t.  Contexts are
    deduplicated on integer keys (components and pots shifted by their
    minimum), and each distinct key becomes one row built exactly in
    the system's field, normalised by its leading entry and
    deduplicated again.  Its rank is taken exactly and, independently,
    by a float SVD of the same rows; the two are hard-checked against
    each other, and the SVD's singular values on either side of the
    rank are reported as sv_gap.  The verdict follows the trichotomy:
    zero, all of the ratio kernel, or the doubled-theory torus
    dimension.
    """
    base = kernel_propagate(cs)
    g0 = base.dimension
    nsites = cs.lattice.nsites
    comp, pot = base.comp, base.pot
    # amplitudes are d**pot, with d = 1 for a system without a level
    delta = cs.field.delta if cs.ell is not None else 1
    scaled = functools.cache(lambda coeff, e: coeff * delta ** e)
    inverse = functools.cache(lambda v: 1 / v)
    reduced = set()
    for row in skein_rows:
        cols = np.array(concrete_states(row, nsites))
        comps, pots = comp[cols], pot[cols]
        pots -= pots.min(axis=0)
        _, first = np.unique(_column_keys(np.concatenate([comps, pots])),
                             return_index=True)
        for k in first.tolist():
            vec = {}
            for t, (_, coeff) in enumerate(row.terms):
                c = int(comps[t, k])
                vec[c] = vec.get(c, 0) + scaled(coeff, int(pots[t, k]))
            vec = {c: v for c, v in vec.items() if v}
            if vec:
                lead = inverse(vec[min(vec)])
                reduced.add(tuple(sorted((c, v * lead)
                                         for c, v in vec.items())))

    rows = sorted(reduced, key=lambda r: [(c, repr(v)) for c, v in r])
    exact = [[0] * g0 for _ in rows]
    for r, key in enumerate(rows):
        for c, v in key:
            exact[r][c] = v
    rank = exact_rank(exact)
    mat = np.array([[float(v) for v in r] for r in exact] or [[0.0] * g0])
    _, s, vt = np.linalg.svd(mat, full_matrices=True)
    tol = 1e-8 * (s[0] if s.size and s[0] > 0 else 1.0)
    svd_rank = int(np.sum(s > tol))
    assert svd_rank == rank, "joint-kernel solvers disagree: %d vs %d" % (
        svd_rank, rank)
    dim = g0 - rank
    null = vt[rank:].T  # g0 x dim, coefficients per component
    # singular values beyond the matrix's own rows are exact zeros
    sv = list(s) + [0.0] * (g0 - len(s))
    sv_gap = [float(sv[rank - 1]) if rank else None,
              float(sv[rank]) if rank < g0 else None]

    verdict = "partial constraint"
    if dim == 0:
        verdict = "zero"
    elif dim == g0:
        verdict = "all of the ratio kernel"
    elif target is not None and dim == target:
        verdict = "doubled-theory dimension"
    report = {"dimension": dim, "g0_dimension": g0, "target": target,
              "verdict": verdict, "skein_rows": len(skein_rows),
              "reduced_rows": len(reduced), "sv_gap": sv_gap}
    return KernelBasis(dim, "joint", comp=comp, pot=pot,
                       vectors=null, d=base.d), report


def _column_keys(digits):
    """One int64 key per column of a non-negative integer array, equal
    exactly when the columns are; when the mixed-radix key would
    overflow, the keys so far are renumbered densely first."""
    key = np.zeros(digits.shape[1], dtype=np.int64)
    span = 1
    for digit in digits:
        radix = int(digit.max()) + 1
        if span * radix >= 1 << 62:
            _, key = np.unique(key, return_inverse=True)
            span = int(key.max()) + 1
        key = key * radix + digit
        span *= radix
    return key


def joint_vectors_dense(basis):
    """Materialize joint-kernel vectors over the full state index as
    unit float arrays."""
    n = len(basis.comp)
    amps = basis.d ** basis.pot.astype(float)
    out = []
    for k in range(basis.vectors.shape[1]):
        v = basis.vectors[np.asarray(basis.comp), k] * amps
        out.append(v / np.linalg.norm(v))
    return out


def code_space_probe(vectors, lat, tol=1e-9):
    """Whether every single-bond sigma_x and sigma_z compresses to a
    scalar on the span of the given state vectors.

    The deviation of a compression m = V^T O V from its scalar part is
    the spectral norm of m - (tr m / dim) I, which depends on the span
    only, not on the orthonormal basis V chosen in it.  Returns
    (largest deviation <= tol, largest deviation)."""
    if not vectors:
        return True, 0.0
    V, _ = np.linalg.qr(np.stack(vectors, axis=1))
    n_states, dim = V.shape
    worst = 0.0
    states = np.arange(n_states, dtype=np.int64)
    for b in range(lat.nsites):
        sz = 1.0 - 2.0 * ((states >> b) & 1)
        comp_z = V.T @ (sz[:, None] * V)
        flipped = states ^ (1 << b)
        comp_x = V.T @ V[flipped]
        for m in (comp_z, comp_x):
            scalar = np.trace(m) / dim
            worst = max(worst, float(np.linalg.norm(m - scalar * np.eye(dim),
                                                    2)))
    return worst <= tol, worst


def uniform_state_energy(cs, signs="alternating"):
    """Energy of the uniform-magnitude reference state in the operator
    whose projector vectors are the system's rows.

    The reference state assigns every configuration amplitude
    2**(-V/2), with sign (-1)**(number of |-> sites) in the default
    alternating convention or +1 in the uniform one.  The expectation
    is a per-row sum of squared overlaps, computed exactly.
    """
    field = cs.field if cs.field else None
    exact = field.zero if field else Fraction(0)
    for row in cs.rows:
        k = len(row.sites)
        acc = None
        for pat, coeff in row.terms:
            if signs == "alternating":
                sgn = -1 if (k - bin(pat).count("1")) % 2 else 1
            else:
                sgn = 1
            term = coeff * sgn
            acc = term if acc is None else acc + term
        weight = Fraction(1, 1 << k)
        contrib = acc * acc
        if field:
            exact = exact + contrib * field.element([weight])
        else:
            exact = exact + Fraction(contrib) * weight
    return exact, float(exact)


def containment_check(cs_inner, cs_outer):
    """Whether the kernel of cs_inner lies inside the kernel of
    cs_outer (both ratio systems over the same lattice)."""
    base = kernel_propagate(cs_inner)
    comp, pot = base.comp, base.pot
    nsites = cs_inner.lattice.nsites
    for row in cs_outer.rows:
        sa, sb = concrete_states(row, nsites)
        if not (np.array_equal(comp[sa], comp[sb])
                and np.all(pot[sb] - pot[sa] == row.dexp)):
            return False
    return True
