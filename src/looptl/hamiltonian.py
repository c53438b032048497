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
graphs (exact d-exponents) and a GF(p) rank oracle that reads only the
coefficients, as discrete logarithms of their ratios, at a prime
p = 1 mod 2(ell + 2), where d = zeta + 1/zeta maps to a sum of a root
of unity and its inverse in GF(p).  Ratio propagation and the oracle's
GF(p) rank both run hook-and-compress label propagation (Shiloach
and Vishkin, J. Algorithms 3, 1982) over numpy arrays, one row at a
time: the row's pairs are followed to their roots once, each split
pair hooks once, the larger root under the smaller, and only the
pairs whose offer lost are followed again; a chase writes back only
the states whose label moved (path compression as in Tarjan, J. ACM
22, 1975).  Ratio propagation runs on the orbits of the lattice
symmetries that map the rows onto themselves (the w*h
translations for the builders' systems), hooking one row per class;
the oracle runs on every state.  Each solver is written separately so
that neither can share a defect with the other.  kernel_propagate
keeps each solve per lattice object, keyed on all the move graph
depends on: nsites and the set of the rows' (sites, patterns,
d-exponent).  hprime at every level, its row shuffles and the calls
inside containment_check and joint_kernel thus share one solve, and
the entry is dropped with its lattice.  The GF(p) oracle keeps
nothing, so every dimension cross-check compares two computations.
joint_kernel expands one skein row per class under the symmetries
that map the skein rows onto themselves, keeping one column per
distinct (component, shifted pot) key, and maps its rows to the rest
of the class by a permutation and a power of d per component.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections import Counter, deque
from fractions import Fraction

import numpy as np

from .errors import (ConfigInvalid, InconsistentCycle, StateSpaceTooLarge,
                     WindowDoesNotFit)
from .lattice import ENUM_STATE_CAP, HexTorusLattice, SquareTorusLattice
from .linalg import rank as exact_rank
from .scalars import FieldElement, SpecialField
from .tlcat import (catalan, identity_diagram, jones_wenzl, stack_diagrams,
                    u_diagram)


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

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

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
    component, so neither depends on the order of the rows.  From
    kernel_propagate they are read-only, shared by every basis of one
    move graph on one lattice object, and orbits and group_order give
    the size of the solve: the nodes of the quotient of the move graph
    and the order of the symmetry group it was taken by.  The joint
    kernel also carries float coefficient vectors over the components.
    """

    def __init__(self, dimension, method, comp=None, pot=None,
                 vectors=None, d=None, orbits=None, group_order=None):
        self.dimension = dimension
        self.method = method
        self.comp = comp
        self.pot = pot
        self.vectors = vectors
        self.d = d
        self.orbits = orbits
        self.group_order = group_order

    def component_states(self, k):
        return np.nonzero(self.comp == k)[0]

    def __repr__(self):
        return "KernelBasis(dim=%d, %s)" % (self.dimension, self.method)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _check_bond_lattice(lat):
    """Raise ConfigInvalid unless lat is a square torus whose cells and
    vertices have four distinct bonds (w, h >= 2); below that a cell
    lists one bond twice and its rows contradict themselves."""
    if not isinstance(lat, SquareTorusLattice):
        raise ConfigInvalid("the bond model lives on the square torus")
    if min(lat.w, lat.h) < 2:
        raise ConfigInvalid("the bond model needs a torus of at least 2x2, "
                            "not %dx%d" % (lat.w, lat.h))


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
    _check_bond_lattice(lat)
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
    _check_bond_lattice(lat)
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
    return ConstraintSystem(lat, None, rows, "ring-exchange")


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
    """Arrays of global states per term of a pattern row, each made
    when it is iterated to."""
    sites = frozenset(row.sites)
    ctx = (_cached_contexts if 1 << (nsites - len(sites)) <= _CACHED_CONTEXTS
           else _scatter_contexts)(nsites, sites)
    return (ctx | _pattern_state(pat, row.sites) for pat, _ in row.terms)


def _check_rows(rows, lat, ratio=False):
    """Raise ConfigInvalid unless every row's sites lie on the lattice
    and, with ratio, every row is a two-term row carrying its
    d-exponent; plain Python over the rows, before any per-state
    array."""
    for row in rows:
        if ratio and (row.dexp is None or len(row.terms) != 2):
            raise ConfigInvalid("row %r is not a two-term ratio row" % row)
        if not all(0 <= site < lat.nsites for site in row.sites):
            raise ConfigInvalid("row %r has sites off the %d sites of the "
                                "lattice" % (row, lat.nsites))


def _check_same_lattice(cs, other):
    """Raise ConfigInvalid unless the two systems share one lattice."""
    a, b = cs.lattice, other.lattice
    if (a.kind, a.w, a.h) != (b.kind, b.w, b.h):
        raise ConfigInvalid("the systems live on different lattices: "
                            "%s %dx%d and %s %dx%d"
                            % (a.kind, a.w, a.h, b.kind, b.w, b.h))


# ---------------------------------------------------------------------------
# solver 1: exact ratio propagation
# ---------------------------------------------------------------------------


# A node of the quotient of the move graph by its symmetry group G is
# one orbit of states, named by its least state.  pack[A] = label <<
# _LABEL_SHIFT | g << _POT_SHIFT | (pot + _POT_BIAS): state A is tied
# to the image under the element g of the label's state, with the
# d-exponent pot[A] - pot[g(label)], so one minimum carries all three.
# The full solution packs comp << _POT_SHIFT | (pot + _POT_BIAS).
_POT_SHIFT = 32
_POT_BIAS = 1 << (_POT_SHIFT - 1)
_POT_MASK = (1 << _POT_SHIFT) - 1
_LABEL_SHIFT = 40
_ELEM_MASK = (1 << (_LABEL_SHIFT - _POT_SHIFT)) - 1
_ORBIT_SHIFT = _LABEL_SHIFT - _POT_SHIFT
# states per slice of the expansion's scatters and gathers
_CHUNK = 1 << 14


# solved move graphs per lattice object: (nsites, frozenset of (sites,
# patterns, dexp) per row) -> (dimension, comp, pot, orbits, group
# order), the arrays read-only; an entry lives exactly as long as its
# lattice
_PROPAGATED = weakref.WeakKeyDictionary()


def kernel_propagate(cs):
    """One exact kernel vector per consistent ergodic component.

    The move graph and its ratios depend on the lattice and on each
    row's sites, patterns and d-exponent only, never on the level or
    the coefficients, and comp and pot are canonical under any order
    of the rows.  So a solve is kept per lattice object, keyed on
    nsites and the set of (sites, patterns, dexp) of the rows, read
    afresh at each call; the entry lives as long as the lattice.  A
    repeat returns a new KernelBasis with its own d that shares the
    read-only comp and pot.  A solve that raises is not kept.  The
    rows are checked and the state cap applied before any lookup, and
    the errors are those of _propagate_uncached.
    """
    _check_rows(cs.rows, cs.lattice, ratio=True)
    if cs.n_states > ENUM_STATE_CAP:
        raise StateSpaceTooLarge("ratio propagation capped at %d states"
                                 % ENUM_STATE_CAP)
    key = (cs.lattice.nsites,
           frozenset((row.sites, row.terms[0][0], row.terms[1][0], row.dexp)
                     for row in cs.rows))
    solved = _PROPAGATED.setdefault(cs.lattice, {})
    if key not in solved:
        kb = _propagate_uncached(cs)
        kb.comp.flags.writeable = False
        kb.pot.flags.writeable = False
        solved[key] = (kb.dimension, kb.comp, kb.pot, kb.orbits,
                       kb.group_order)
    dimension, comp, pot, orbits, order = solved[key]
    d = float(cs.field.delta) if cs.ell is not None else 1.0
    return KernelBasis(dimension, "propagate", comp=comp, pot=pot, d=d,
                       orbits=orbits, group_order=order)


def _permuted(states, perms):
    """Images of states under each site permutation (bit i to bit
    perms[g, i]), as an int64 array (permutations x states)."""
    bits = (np.asarray(states, dtype=np.int64)[:, None]
            >> np.arange(perms.shape[1])) & 1
    return (bits @ (1 << perms.T)).T


def _row_images(rows, perms):
    """Key of the image of every row under every site permutation, as
    an int64 array (permutations x rows): site mask | pattern a << N |
    pattern b << 2N, the two patterns as state bits (N <= 20 sites)."""
    n = perms.shape[1]
    states = np.array([_row_states(row) for row in rows],
                      dtype=np.int64).reshape(-1, 3)
    mask, a, b = (_permuted(x, perms) for x in states.T)
    return mask | a << n | b << 2 * n


def _row_states(row):
    """The site mask of a row and the global state of each term."""
    return [sum(1 << site for site in row.sites)] + [
        _pattern_state(pat, row.sites) for pat, _ in row.terms]


def _row_symmetry(cs):
    """The symmetries of the move graph, as site permutations, identity
    first: the elements of the lattice's census group
    (torus_census._TABLES) that map the set of the rows' (sites,
    patterns, dexp), compared as state masks, onto itself."""
    from .torus_census import _TABLES
    perms = _TABLES[cs.lattice.kind](cs.lattice).symmetry
    images = _row_images(cs.rows, perms).tolist()
    dexps = [row.dexp for row in cs.rows]
    rows = set(zip(images[0], dexps))
    return perms[[g for g, keys in enumerate(images)
                  if rows.issuperset(zip(keys, dexps))]]


def _row_classes(rows, group):
    """One row of each class of rows under the site permutations of
    group, the first in the given order."""
    images = _row_images(rows, group).T.tolist()
    seen, firsts = set(), []
    for row, keys in zip(rows, images):
        if (keys[0], row.dexp) not in seen:
            firsts.append(row)
            seen.update((key, row.dexp) for key in keys)
    return firsts


def _propagate_uncached(cs):
    """One exact kernel vector per consistent ergodic component, solved
    afresh on the orbits of the move graph's symmetry group G.

    Every row must be a two-term ratio row carrying its d-exponent,
    with its sites on the lattice.  G (_row_symmetry) maps moves to
    moves with their exponents, so only one row per class under G is
    hooked (_hook_orbits), each pair (a, b) as a quotient pair (A, B,
    t): A and B are the orbits of a and b, and t = ea^-1 eb with ea, eb
    the elements that take the orbits' least states to a and b
    (_orbit_table).  Each quotient component stands for |G|/|H|
    components of the move graph, H the stabiliser of its root's
    component (_stabilisers); a quotient pair whose exponent does not
    close raises InconsistentCycle.  _expand numbers the components in
    the order of their least states and makes pot 0 there, so comp and
    pot are canonical.  Every pair of every row is then checked
    exactly, and the first whose ratio does not close raises
    InconsistentCycle.  Raises ConfigInvalid on any other row and
    StateSpaceTooLarge when 2^N exceeds ENUM_STATE_CAP, both before
    allocating anything.
    """
    _check_rows(cs.rows, cs.lattice, ratio=True)
    n = cs.n_states
    if n > ENUM_STATE_CAP:
        raise StateSpaceTooLarge("ratio propagation capped at %d states"
                                 % ENUM_STATE_CAP)
    from .torus_census import cayley_table
    nsites = cs.lattice.nsites
    group = _row_symmetry(cs)
    mul, inverse = cayley_table(group)
    work, reps = _orbit_table(cs.lattice, group)
    pairs = []
    for row in _row_classes(cs.rows, group):
        wa, wb = (work[s] for s in concrete_states(row, nsites))
        pairs.append((row, (wa >> _ORBIT_SHIFT).astype(np.int32),
                      (wb >> _ORBIT_SHIFT).astype(np.int32),
                      mul[inverse[wa & _ELEM_MASK], wb & _ELEM_MASK]
                      .astype(np.uint8)))
    pack = _hook_orbits(pairs, len(reps), mul, inverse)
    gens = _stabilisers(pack, pairs, work, reps, group, mul, inverse)
    del pairs
    dimension, comp, pot = _expand(work, pack, gens, mul)
    for row in cs.rows:
        sa, sb = concrete_states(row, nsites)
        # work now packs comp above the exponent bits: equal components
        # and the right exponent difference leave exactly dexp
        bad = np.flatnonzero(work[sb] - work[sa] != row.dexp)
        if len(bad):
            raise InconsistentCycle("ratio cycle through states %d, %d"
                                    % (sa[bad[0]], sb[bad[0]]))
    d = float(cs.field.delta) if cs.ell is not None else 1.0
    return KernelBasis(dimension, "propagate", comp=comp, pot=pot, d=d,
                       orbits=len(reps), group_order=len(group))


def _orbit_table(lat, group):
    """(work, reps): work[s] = orbit << _ORBIT_SHIFT | element over all
    states s, the orbit of s under the site permutations of group
    numbered in the order of least states, and the element that takes
    the orbit's least state to s; reps holds the least states.  A least
    state's element is the identity, 0."""
    from .torus_census import canonical_states
    work = np.empty(1 << lat.nsites, dtype=np.int64)
    reps = []
    orbits = 0
    for states, canon, elem in canonical_states(lat, group):
        heads = states[canon == states]
        work[heads] = np.arange(orbits, orbits + len(heads)) << _ORBIT_SHIFT
        work[states[0]:states[-1] + 1] = work[canon] | elem
        reps.append(heads)
        orbits += len(heads)
    return work, np.concatenate(reps).astype(np.int64)


def _hook_orbits(pairs, orbits, mul, inverse):
    """Packed root, element and exponent of every orbit once the
    quotient pairs (row, A, B, t) are hooked.

    The orbits of each pair are followed up to their roots, and where
    the roots differ the larger takes the smaller as its label, with
    the element and exponent that tie them (_tie); the pairs whose
    offer lost to another are followed and hooked again.  Pointer
    jumping then points every orbit at its root, the least orbit of its
    quotient component.
    """
    pack = (np.arange(orbits, dtype=np.int64) << _LABEL_SHIFT) + _POT_BIAS
    for row, oa, ob, t in pairs:
        pa, pb = _root_labels(pack, oa, mul), _root_labels(pack, ob, mul)
        while True:
            # pairs with one root stay joined: only split ones are chased
            split = np.flatnonzero((pa >> _LABEL_SHIFT)
                                   != (pb >> _LABEL_SHIFT))
            if not len(split):
                break
            oa, ob, t, pa, pb = oa[split], ob[split], t[split], pa[split], \
                pb[split]
            h, c = _tie(pa, pb, t, row.dexp, mul, inverse)
            # the larger root takes the smaller as its label; a pair whose
            # offer won is joined, the others are chased again
            ra, rb = pa >> _LABEL_SHIFT, pb >> _LABEL_SHIFT
            low = ra < rb
            root = np.where(low, rb, ra)
            offer = np.where(low, _packed(ra, inverse[h], c),
                             _packed(rb, h, -c))
            np.minimum.at(pack, root, offer)
            lost = np.flatnonzero(pack[root] != offer)
            oa, ob, t = oa[lost], ob[lost], t[lost]
            pa, pb = _root_labels(pack, oa, mul), _root_labels(pack, ob, mul)
    _jump_labels(pack, mul)
    return pack


def _stabilisers(pack, pairs, work, reps, group, mul, inverse):
    """gens[R], for each root R of the hooked orbits (pack): bit g set
    for each generator g found of the stabiliser of R's component.

    Seen from the root, a quotient pair closes a cycle through the
    element h; its exponent must be 0, or InconsistentCycle is raised,
    and h fixes the component.  So does g^-1 s g for an element s that
    fixes an orbit's least state tied to g(R).  Both kinds together
    generate the stabiliser.
    """
    label = pack >> _LABEL_SHIFT
    tie = (pack >> _POT_SHIFT) & _ELEM_MASK
    gens = np.zeros(len(reps), dtype=np.int64)
    for row, oa, ob, t in pairs:
        h, c = _tie(pack[oa], pack[ob], t, row.dexp, mul, inverse)
        bad = np.flatnonzero(c)
        if len(bad):
            sa, sb = concrete_states(row, group.shape[1])
            raise InconsistentCycle("ratio cycle through states %d, %d"
                                    % (sa[bad[0]], sb[bad[0]]))
        moved = np.flatnonzero(h)
        np.bitwise_or.at(gens, label[oa[moved]], 1 << h[moved])
    # orbits smaller than the group have a state fixed by some s != 1
    size = sum(np.bincount(work[lo:lo + _CHUNK] >> _ORBIT_SHIFT,
                           minlength=len(reps))
               for lo in range(0, len(work), _CHUNK))
    fixed = np.flatnonzero(size < len(group))
    bits = (reps[fixed, None] >> np.arange(group.shape[1])) & 1
    s, k = np.nonzero((bits << group[:, None]).sum(-1) == reps[fixed])
    g = tie[fixed[k]]
    np.bitwise_or.at(gens, label[fixed[k]], 1 << mul[mul[inverse[g], s], g])
    return gens


def _expand(work, pack, gens, mul):
    """(dimension, comp, pot) over all states from the hooked orbits.

    A state s in the orbit A, tied to g(R) with R its root, lies in the
    component of the root's quotient component and of the coset e g H
    in G/H, e the element that takes A to s and H the subgroup that
    gens[R] generates; the key of that component is R's number among
    the roots times |G| plus the coset's least element.  Components
    are numbered in the order of their least states, and pot is the
    orbit's exponent less that of the component's least state.  work
    (_orbit_table) is walked in slices and ends holding comp <<
    _POT_SHIFT | pot + _POT_BIAS, for the final check.
    """
    order = len(mul)
    label = pack >> _LABEL_SHIFT
    roots = np.flatnonzero(label == np.arange(len(pack)))
    masks, which = np.unique(gens[roots], return_inverse=True)
    # cosets[H, g, e]: the least element of the coset e g H
    cosets = np.array([_left_cosets(int(m), mul) for m in masks]
                      )[:, mul.T].reshape(-1)
    # |G|/|H| components per quotient component
    dimension = sum(order // row.count(0)
                    for row in cosets.reshape(len(masks), -1)[which, :order]
                    .tolist())
    number = np.zeros(len(pack), dtype=np.int64)
    number[roots] = np.arange(len(roots))
    subgroup = np.zeros(len(pack), dtype=np.int64)
    subgroup[roots] = which
    base = number[label] * order
    table = (subgroup[label] * order + ((pack >> _POT_SHIFT) & _ELEM_MASK)) \
        * order
    least = np.full(len(roots) * order, len(work), dtype=np.int64)
    for lo in range(0, len(work), _CHUNK):
        w = work[lo:lo + _CHUNK]
        orbit = w >> _ORBIT_SHIFT
        key = base[orbit] + cosets[table[orbit] + (w & _ELEM_MASK)]
        np.minimum.at(least, key, np.arange(lo, lo + len(w)))
        w[:] = key << _POT_SHIFT | orbit
    used = np.flatnonzero(least < len(work))
    assert len(used) == dimension, "cosets miscounted"
    heads = least[used]
    comp_of = np.empty(len(least), dtype=np.int64)
    comp_of[used[np.argsort(heads)]] = np.arange(dimension)
    q = (pack & _POT_MASK) - _POT_BIAS
    pot_of = np.zeros(len(least), dtype=np.int64)
    pot_of[used] = q[work[heads] & _POT_MASK]
    comp = np.empty(len(work), dtype=np.int64)
    pot = np.empty(len(work), dtype=np.int64)
    for lo in range(0, len(work), _CHUNK):
        w = work[lo:lo + _CHUNK]
        key = w >> _POT_SHIFT
        c = comp[lo:lo + _CHUNK] = comp_of[key]
        p = pot[lo:lo + _CHUNK] = q[w & _POT_MASK] - pot_of[key]
        w[:] = (c << _POT_SHIFT) + p + _POT_BIAS
    return dimension, comp, pot


def _packed(label, elem, pot):
    return (label << _LABEL_SHIFT) + (elem << _POT_SHIFT) + pot + _POT_BIAS


def _tie(pa, pb, t, dexp, mul, inverse):
    """Element h and exponent c of quotient pairs (A, B, t) with
    d-exponent dexp, seen from the roots: pa and pb are A's and B's
    packed root, element and exponent, A = gA(RA) and B = gB(RB) up to
    moves.  Then RA is tied to h(RB) with h = gA^-1 t gB, and pot[h(RB)]
    - pot[RA] = c."""
    h = mul[mul[inverse[(pa >> _POT_SHIFT) & _ELEM_MASK], t],
            (pb >> _POT_SHIFT) & _ELEM_MASK]
    return h, dexp + (pa & _POT_MASK) - (pb & _POT_MASK)


def _compose(val, up, mul):
    """A node's packed label followed by its label's: up's label, the
    product of the two elements and the sum of the two exponents."""
    elem = mul[(val >> _POT_SHIFT) & _ELEM_MASK,
               (up >> _POT_SHIFT) & _ELEM_MASK]
    return _packed(up >> _LABEL_SHIFT, elem,
                   (val & _POT_MASK) + (up & _POT_MASK) - 2 * _POT_BIAS)


def _root_labels(pack, nodes, mul):
    """Packed root, element and exponent relative to it of the given
    quotient nodes, following labels up to the roots; the nodes that
    moved keep what was found."""
    val = pack[nodes]
    up = pack[val >> _LABEL_SHIFT]
    moved = np.flatnonzero((up >> _LABEL_SHIFT) != (val >> _LABEL_SHIFT))
    todo, cur, up = moved, val[moved], up[moved]
    while len(todo):
        cur = _compose(cur, up, mul)
        val[todo] = cur
        up = pack[cur >> _LABEL_SHIFT]
        go = (up >> _LABEL_SHIFT) != (cur >> _LABEL_SHIFT)
        todo, cur, up = todo[go], cur[go], up[go]
    pack[nodes[moved]] = val[moved]
    return val


def _jump_labels(pack, mul):
    """Point every node at its root, composing elements and adding up
    exponents on the way."""
    while True:
        label = pack >> _LABEL_SHIFT
        up = pack[label]
        if np.array_equal(up >> _LABEL_SHIFT, label):
            return
        pack[:] = _compose(pack, up, mul)


def _left_cosets(gens, mul):
    """The least element of the left coset kH of each element k, H the
    subgroup generated by the elements whose bits are set in gens."""
    mul = mul.tolist()
    gens = [g for g in range(len(mul)) if gens >> g & 1]
    subgroup, todo = {0}, [0]
    while todo:
        a = todo.pop()
        for g in gens:
            if mul[a][g] not in subgroup:
                subgroup.add(mul[a][g])
                todo.append(mul[a][g])
    return [min(mul[k][h] for h in subgroup) for k in range(len(mul))]


# ---------------------------------------------------------------------------
# solver 2: modular row reduction
# ---------------------------------------------------------------------------


def _prime_and_root(ell, start=1_000_003):
    """(p, g, root): the first prime p >= start with p = 1 mod m,
    m = 2(ell + 2), the smallest generator g of GF(p)*, and the smallest
    root of d's minimal polynomial mod p.

    d = 2cos(2 pi/m) = zeta + 1/zeta for a primitive m-th root of unity
    zeta, and minimal_polynomial is Phi_m rewritten in z + 1/z.  At such
    a p, z = g^((p-1)/m) is a primitive m-th root, so the polynomial's
    roots mod p are z^k + z^-k for k prime to m.  A system without a
    level has d = 1 = 2cos(pi/3), the weight at ell = 1.
    """
    m = 2 * ((ell if ell is not None else 1) + 2)
    p = start + (1 - start) % m
    while any(p % f == 0 for f in range(3, math.isqrt(p) + 1, 2)):
        p += m
    g = _generator(p)
    z = pow(g, (p - 1) // m, p)
    return p, g, min((pow(z, k, p) + pow(z, -k, p)) % p
                     for k in range(1, m) if math.gcd(k, m) == 1)


def _generator(p):
    """The smallest generator of the multiplicative group of GF(p)."""
    m, primes, f = p - 1, [], 2
    while f * f <= m:
        if m % f == 0:
            primes.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        primes.append(m)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in primes):
        g += 1
    return g


def _discrete_logs(values, g, p):
    """{x: log to base g of x} for nonzero residues x, g a generator of
    GF(p)*, by baby-step giant-step (Shanks, 1971): one table of g^j
    for j < m = isqrt(p - 1) + 1, then at most m steps of g^-m per
    value."""
    m = math.isqrt(p - 1) + 1
    baby, x = {}, 1
    for j in range(m):
        baby[x] = j
        x = x * g % p
    giant = pow(g, -m, p)
    logs = {}
    for x in values:
        y, i = x, 0
        while y not in baby:
            y, i = y * giant % p, i + 1
        logs[x] = i * m + baby[y]
    return logs


# pack[s] = label << _LOG_SHIFT | (log[s] + _LOG_BIAS) with
# x_s = g^log[s] * x_label in GF(p); a stored log is a sum of at most
# n - 1 offers, each below p - 1, so n * (p - 1) < _LOG_BIAS keeps it
# inside its bits
_LOG_SHIFT = 43
_LOG_BIAS = 1 << (_LOG_SHIFT - 1)
_LOG_MASK = (1 << _LOG_SHIFT) - 1


def _modular_rank(cs):
    """Rank of the expanded system of two-term rows over GF(p), with d
    mapped to a root of its minimal polynomial mod p (_prime_and_root,
    which also gives the generator g of GF(p)*).

    A row va*x_a + vb*x_b with both coefficients nonzero mod p ties
    x_b = r * x_a with r = -va/vb; with one nonzero coefficient it
    forces that state to zero.  The ratios are read from the
    coefficients alone and taken to discrete logarithms to a generator
    g of GF(p)*, once per distinct ratio, so the ties add: each state
    carries (label, log) with x = g^log * x_label, every offer is
    reduced mod p - 1 as it hooks, and the roots are hooked row by row,
    the larger under the smaller, as in kernel_propagate.  A component
    keeps one free amplitude unless a pair's logs differ from log r
    mod p - 1 or a forced zero lands in it, and rank = n - (free
    components).  Raises StateSpaceTooLarge, before any per-state
    array, when n * (p - 1) does not fit the packed logs.
    """
    p, g, droot = _prime_and_root(cs.ell)
    nsites = cs.lattice.nsites
    n = cs.n_states
    if n * (p - 1) >= _LOG_BIAS:
        raise StateSpaceTooLarge("%d states cannot pack logs mod %d"
                                 % (n, p - 1))
    coeffs = []
    for row in cs.rows:
        va, vb = (_coeff_mod(c, p, droot) for _, c in row.terms)
        coeffs.append((row, va, vb, -va * pow(vb, -1, p) % p if vb else 0))
    log = _discrete_logs({r for *_, r in coeffs if r}, g, p)
    index = np.arange(n, dtype=np.int64)
    pack = index << _LOG_SHIFT
    pack += _LOG_BIAS
    for row, va, vb, r in coeffs:
        if not r:
            continue
        sa, sb = concrete_states(row, nsites)
        pa, pb = _root_logs(pack, sa), _root_logs(pack, sb)
        while True:
            split = np.flatnonzero((pa >> _LOG_SHIFT) != (pb >> _LOG_SHIFT))
            if not len(split):
                break
            sa, sb, pa, pb = sa[split], sb[split], pa[split], pb[split]
            la, lb = pa >> _LOG_SHIFT, pb >> _LOG_SHIFT
            # x_lb = g^step * x_la, and x_la = g^-step * x_lb
            step = log[r] + (pa & _LOG_MASK) - (pb & _LOG_MASK)
            # the larger root takes the smaller as its label; a pair whose
            # offer won is joined, the others are chased again
            low = la < lb
            root = np.where(low, lb, la)
            offer = ((np.where(low, la, lb) << _LOG_SHIFT)
                     + np.where(low, step, -step) % (p - 1) + _LOG_BIAS)
            np.minimum.at(pack, root, offer)
            lost = np.flatnonzero(pack[root] != offer)
            sa, sb = sa[lost], sb[lost]
            pa, pb = _root_logs(pack, sa), _root_logs(pack, sb)
    label = _jump_logs(pack)
    dead = np.zeros(n, dtype=bool)
    for row, va, vb, r in coeffs:
        sa, sb = concrete_states(row, nsites)
        if r:
            # a tied pair shares its label, so the packed difference is
            # log[b] - log[a]
            hit = sa[(pack[sb] - pack[sa] - log[r]) % (p - 1) != 0]
        else:
            hit = sa if va else sb if vb else sa[:0]
        dead[label[hit]] = True
    return n - int(np.count_nonzero((label == index) & ~dead))


def _root_logs(pack, states):
    """Packed root and log to it of the given states, following labels
    up to the roots; the states that moved keep what was found."""
    val = pack[states]
    up = pack[val >> _LOG_SHIFT]
    moved = np.flatnonzero((up >> _LOG_SHIFT) != (val >> _LOG_SHIFT))
    todo, cur, up = moved, val[moved], up[moved]
    while len(todo):
        cur = up + (cur & _LOG_MASK) - _LOG_BIAS
        val[todo] = cur
        up = pack[cur >> _LOG_SHIFT]
        go = (up >> _LOG_SHIFT) != (cur >> _LOG_SHIFT)
        todo, cur, up = todo[go], cur[go], up[go]
    pack[states[moved]] = val[moved]
    return val


def _jump_logs(pack):
    """Point every state at its root, adding up logs on the way, and
    return the labels; each round shifts, gathers and adds in place."""
    label = pack >> _LOG_SHIFT
    up, up_label = np.empty_like(pack), np.empty_like(pack)
    while True:
        np.take(pack, label, out=up, mode="clip")
        np.right_shift(up, _LOG_SHIFT, out=up_label)
        if np.array_equal(up_label, label):
            return label
        pack &= _LOG_MASK
        pack += up
        pack -= _LOG_BIAS
        label, up_label = up_label, label


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
    """Kernel dimension oracle, independent of ratio propagation.

    Every row must have exactly two terms, as every builder makes them;
    the oracle reads only the coefficients, never the d-exponents.  The
    dimension is n minus the rank of the expanded rows over GF(p)
    (_modular_rank, which ties amplitudes by discrete logarithms of the
    row ratios), at every size up to the state cap; no vectors are
    returned.  Raises ConfigInvalid on any other row and
    StateSpaceTooLarge past the cap, both before allocating anything.
    """
    for row in cs.rows:
        if len(row.terms) != 2:
            raise ConfigInvalid("the kernel oracle needs two-term rows")
    _check_rows(cs.rows, cs.lattice)
    n = cs.n_states
    if n > ENUM_STATE_CAP:
        raise StateSpaceTooLarge(
            "dense oracle capped at %d states" % ENUM_STATE_CAP)
    return KernelBasis(n - _modular_rank(cs), "modular-elimination")


# ---------------------------------------------------------------------------
# Pauli expansion of the box and dual-box projectors
# ---------------------------------------------------------------------------


def pauli_expand_check(ell):
    """Whether the box (and dual-box) projector built from its defining
    vector equals its fourth-degree Pauli-matrix expansion, exactly.

    A set basis-index bit means that bond carries |->; the marked bond
    is the leading tensor factor.  sigma_z = diag(1, -1) in the
    (|+>, |->) ordering.  Matrices are numpy object arrays of field
    elements, so kron and outer stay exact.
    """
    field = SpecialField(ell)
    one, zero, d = field.one, field.zero, field.delta
    sz = np.array([[one, zero], [zero, -one]], dtype=object)
    sx = np.array([[zero, one], [one, zero]], dtype=object)
    ident = np.array([[one, zero], [zero, one]], dtype=object)
    q16 = one / field.element([16])
    q8d = one / (field.element([8]) * d)
    q16d2 = one / (field.element([16]) * d * d)
    results = []
    for dual in (False, True):
        # defining vector: |3> (marked -, rest +) - (1/d)|4> (all +),
        # or |1^> (marked +, rest -) - (1/d)|0^> (all -)
        v = np.full(16, zero, dtype=object)
        if not dual:
            v[0b1000] = one           # marked bond |->, rest |+>
            v[0b0000] = -(one / d)    # all |+>
        else:
            v[0b0111] = one           # marked bond |+>, rest |->
            v[0b1111] = -(one / d)    # all |->
        proj = np.outer(v, v)

        flip = -one if dual else one
        head = ((ident - sz * flip) * q16 - sx * q8d
                + (ident + sz * flip) * q16d2)
        tail = ident + sz * flip
        pauli = head
        for _ in range(3):
            pauli = np.kron(pauli, tail)
        results.append(bool((pauli == proj).all()))
    return all(results)


# ---------------------------------------------------------------------------
# combinatorial skein instances
# ---------------------------------------------------------------------------


def _diagram_words(n):
    """Reduced generator word for every planar pairing diagram on n
    strands, found by breadth-first products that close no loop."""
    id_diag = identity_diagram(n)
    words = {id_diag: ()}
    queue = deque([id_diag])
    while queue:
        diag = queue.popleft()
        for i in range(n - 1):
            # apply U_i after the existing word
            new_diag, loops = stack_diagrams(diag, u_diagram(n, i))
            if not loops and new_diag not in words:
                words[new_diag] = words[diag] + (i,)
                queue.append(new_diag)
    assert len(words) == catalan(n), "word search missed some diagrams"
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
    resolution.  Only the square torus has these windows.  Returns
    the rows as a ConstraintSystem of model "skein" (no d-exponents).
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

    # orientation 0 puts window bond (col, row) at (i + col, j + row), the
    # transpose (orientation 1: axes and bond type swapped) at
    # (x + row, y + col); each runs over all w*h offsets, so on a
    # non-square torus too every row is a distinct translate
    rows = []
    for j in range(lat.h):
        for i in range(lat.w):
            sites = tuple(lat.bond_index(typ, i + col, j + row)
                          for typ, col, row in window)
            rows.append(Row("skein", (ell, 0, i, j), sites, list(patterns)))
    for x in range(lat.w):
        for y in range(lat.h):
            sites = tuple(lat.bond_index(1 - typ, x + row, y + col)
                          for typ, col, row in window)
            rows.append(Row("skein", (ell, 1, y, x), sites, list(patterns)))
    return ConstraintSystem(lat, ell, rows, "skein", field)


# ---------------------------------------------------------------------------
# joint kernels and probes
# ---------------------------------------------------------------------------


def joint_kernel(cs, skein, target=None):
    """Kernel of the union of a ratio system and multi-term skein rows.

    The skein rows are restricted to the span of the ratio system's
    kernel (one amplitude per component): context k of a row becomes
    sum_t coeff_t * d**pot_t at component comp_t.  Contexts are
    deduplicated on integer keys (components and pots shifted by their
    minimum), and each distinct key becomes one row built exactly in
    the system's field, normalised by its leading entry and
    deduplicated again; only one skein row per symmetry class is
    expanded so (_reduced_rows).  Their rank is taken exactly and,
    independently, by a float SVD of the same rows; the two are
    hard-checked against each other, and the SVD's singular values on
    either side of the rank are reported as sv_gap.  The verdict
    follows the trichotomy: zero, all of the ratio kernel, or the
    doubled-theory torus dimension.

    The ratio kernel comes from kernel_propagate, so a system whose
    rows' sites, patterns and d-exponents were solved before on the
    same lattice object, at any level, is not solved again.

    skein is the system compile_skein_instances returns, or a list of
    its rows.  ConfigInvalid is raised before any per-state array when
    a skein system lives on another lattice or a row has sites off
    cs's lattice.
    """
    if isinstance(skein, ConstraintSystem):
        _check_same_lattice(cs, skein)
    skein_rows = list(skein)
    _check_rows(skein_rows, cs.lattice)
    base = kernel_propagate(cs)
    g0 = base.dimension
    comp, pot = base.comp, base.pot
    reduced = _reduced_rows(cs, skein_rows, comp, pot)

    rows = sorted(reduced, key=lambda r: [(c, repr(v)) for c, v in r])
    exact = [[0] * g0 for _ in rows]
    mat = np.zeros((max(len(rows), 1), g0))
    for r, key in enumerate(rows):
        for c, v in key:
            exact[r][c] = v
            mat[r, c] = float(v)
    rank = exact_rank(exact)
    # only s and vt are read: with at least g0 rows the reduced SVD
    # already has all g0 right vectors, and no m x m U is built
    _, s, vt = np.linalg.svd(mat, full_matrices=len(mat) < g0)
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


def _reduced_rows(cs, rows, comp, pot):
    """The distinct normalised rows, as (component, value) tuples,
    that the skein rows give on the components of (comp, pot).

    Only the first row of each class under G_s (_skein_classes: the
    w*h translations for compile_skein_instances on a square torus,
    the identity alone for an arbitrary list) is expanded over its
    contexts.  g in G_s takes component c to pi_g(c) and adds s_g(c) to
    the pot of its states, so it takes a row v of a first row to the
    normalised row of v_c * d**(s_g(c) - min s_g) at pi_g(c), a row of
    the image skein row.
    """
    # amplitudes are d**pot, with d = 1 for a system without a level
    delta = cs.field.delta if cs.ell is not None else 1
    power = functools.cache(lambda e: delta ** e)
    scaled = functools.cache(lambda coeff, e: coeff * power(e))
    inverse = functools.cache(lambda v: 1 / v)
    group, firsts = _skein_classes(cs, rows)
    # components are numbered by least state, where the running maximum
    # of comp rises, and pot is 0 there
    reps = np.flatnonzero(np.diff(np.maximum.accumulate(comp), prepend=-1))
    images = _permuted(reps, group)
    pi = comp[images].tolist()
    shift = pot[images]
    shift = (shift - shift.min(axis=1, keepdims=True)).tolist()
    reduced = set()
    for row in firsts:
        for vec in _context_rows(row, comp, pot, cs.lattice.nsites, scaled,
                                 inverse):
            for p, s in zip(pi, shift):
                image = sorted((p[c], v * power(s[c])) for c, v in vec)
                lead = inverse(image[0][1])
                reduced.add(tuple((c, v * lead) for c, v in image))
    return reduced


def _skein_classes(cs, rows):
    """(G_s, firsts): the elements of _row_symmetry(cs) that map the
    rows onto themselves, each row compared by its site mask and the
    multiset of its terms' (global pattern state, coefficient), and
    the first row of each class under G_s, in the given order."""
    perms = _row_symmetry(cs)
    states = [_row_states(row) for row in rows]
    flat = iter(_permuted([x for st in states for x in st], perms).T.tolist())
    keys = []
    for row, st in zip(rows, states):
        coeffs = [c for _, c in row.terms]
        keys.append([(mask, frozenset(Counter(zip(terms, coeffs)).items()))
                     for mask, *terms in zip(*(next(flat) for _ in st))])
    have = {key[0] for key in keys}
    kept = [g for g in range(len(perms)) if all(k[g] in have for k in keys)]
    seen, firsts = set(), []
    for row, key in zip(rows, keys):
        if key[0] not in seen:
            firsts.append(row)
            seen.update(key[g] for g in kept)
    return perms[kept], firsts


def _context_rows(row, comp, pot, nsites, scaled, inverse):
    """The distinct nonzero rows over the components, normalised to a
    leading 1, that the contexts of one skein row give, read once per
    distinct (components, shifted pots) column."""
    comps, pots = [], []
    for states in concrete_states(row, nsites):
        comps.append(comp[states])
        pots.append(pot[states])
    low = functools.reduce(np.minimum, pots)
    for p in pots:
        p -= low
    del low
    cols = _distinct_columns(comps + pots)
    coeffs = [c for _, c in row.terms]
    out = set()
    for cc, pp in zip(zip(*(c[cols].tolist() for c in comps)),
                      zip(*(p[cols].tolist() for p in pots))):
        vec = {}
        for c, e, coeff in zip(cc, pp, coeffs):
            v = scaled(coeff, e)
            vec[c] = vec[c] + v if c in vec else v
        vec = {c: v for c, v in vec.items() if v}
        if vec:
            lead = inverse(vec[min(vec)])
            out.add(tuple(sorted((c, v * lead) for c, v in vec.items())))
    return out


def _distinct_columns(digits):
    """Index of the first occurrence of each distinct column of
    non-negative integer digit rows, in increasing order of the
    columns' keys: read from a table over the keys when their span is
    at most the number of columns, else found by sorting the keys."""
    key = _column_keys(digits)
    ncols = len(key)
    span = int(key.max()) + 1
    if span > ncols:
        return np.unique(key, return_index=True)[1]
    first = np.full(span, ncols, dtype=np.int64)
    np.minimum.at(first, key, np.arange(ncols))
    return first[first < ncols]


def _column_keys(digits):
    """One int64 key per column of non-negative integer digit rows (an
    array, or any iterable of equal-length rows), equal exactly when
    the columns are; when the mixed-radix key would overflow, the keys
    so far are renumbered densely first."""
    key, span = None, 1
    for digit in digits:
        radix = int(digit.max()) + 1
        if key is None:
            key = digit.astype(np.int64)
        else:
            if span * radix >= 1 << 62:
                key = np.unique(key, return_inverse=True)[1]
                span = int(key.max()) + 1
            key *= radix
            key += digit
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
    cs_outer.  Both must be ratio systems over the same lattice; else
    ConfigInvalid is raised before any per-state array.  The inner
    kernel comes from kernel_propagate, so it is solved once per
    lattice object and set of (sites, patterns, dexp); cs_outer's rows
    are only checked pair by pair against it."""
    _check_same_lattice(cs_inner, cs_outer)
    _check_rows(cs_outer.rows, cs_outer.lattice, ratio=True)
    base = kernel_propagate(cs_inner)
    comp, pot = base.comp, base.pot
    nsites = cs_inner.lattice.nsites
    for row in cs_outer.rows:
        sa, sb = concrete_states(row, nsites)
        if not (np.array_equal(comp[sa], comp[sb])
                and np.all(pot[sb] - pot[sa] == row.dexp)):
            return False
    return True
