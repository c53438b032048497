"""Cellulated tori and disks with classical bond/plaque spins.

Three lattice kinds:

* square-torus  -- w x h periodic square lattice, one spin per bond
  (the model whose Hamiltonian terms all have order 4);
* hex-torus     -- w x h periodic triangular lattice of plaques with
  hexagonal dual cells, one spin per plaque;
* square-disk   -- w x h patch of square cells with fixed boundary
  bond spins.

Domain walls live on the mid lattice separating |+> clusters from
|-> dual clusters; isolated vertices and isolated dual vertices
count as clusters.  extract_walls traces every wall once on an
oriented walk (_oriented_walk, |+> on the left) and classifies it as
trivial or essential by its winding pair, the net displacement of its
|+> side across the two fundamental periods.  census tabulates the
same counts for every state of a lattice at once.
"""

from __future__ import annotations

import functools
import json
import time
from collections import namedtuple

import numpy as np

from .errors import ComponentCapExceeded, ConfigInvalid, StateSpaceTooLarge

COMPONENT_CAP = 2_000_000
ENUM_STATE_CAP = 1 << 20
CENSUS_CHUNK = 1 << 10

class WallCensus:
    """Census of one configuration's domain walls and FK clusters.

    essential_loops lists the winding (x, y), in periods, of every
    essential loop, oriented so that the loop's |+> side lies on its
    left; the two walls of a band that wraps the torus wind opposite
    ways.
    """

    def __init__(self, trivial_loops, essential_loops, clusters,
                 dual_clusters, plus_edges, minus_edges,
                 wrapping_clusters=0, wrapping_dual_clusters=0):
        self.trivial_loops = trivial_loops
        self.essential_loops = list(essential_loops)
        self.clusters = clusters
        self.dual_clusters = dual_clusters
        self.plus_edges = plus_edges
        self.minus_edges = minus_edges
        self.wrapping_clusters = wrapping_clusters
        self.wrapping_dual_clusters = wrapping_dual_clusters

    @property
    def loops(self):
        return self.trivial_loops + len(self.essential_loops)

    def __repr__(self):
        return ("WallCensus(L=%d, essential=%r, C=%d, C*=%d, E=%d, E*=%d)"
                % (self.loops, self.essential_loops, self.clusters,
                   self.dual_clusters, self.plus_edges, self.minus_edges))


class SpinConfig:
    """Immutable spin assignment on the free sites of a lattice.

    Bit i set means site i carries |+>.
    """

    __slots__ = ("lattice", "bits")

    def __init__(self, lattice, bits):
        self.lattice = lattice
        self.bits = int(bits)
        if self.bits < 0 or self.bits >> lattice.nsites:
            raise ConfigInvalid("spin bits out of range for lattice")

    def plus(self, site):
        return bool((self.bits >> site) & 1)

    def swap(self):
        """Global |+> <-> |-> interchange."""
        mask = (1 << self.lattice.nsites) - 1
        return SpinConfig(self.lattice, self.bits ^ mask)

    def to_hex(self):
        width = (self.lattice.nsites + 3) // 4
        return format(self.bits, "0%dx" % max(width, 1))

    def __eq__(self, other):
        return (isinstance(other, SpinConfig)
                and self.lattice is other.lattice
                and self.bits == other.bits)

    def __hash__(self):
        return hash((id(self.lattice), self.bits))

    def __repr__(self):
        return "SpinConfig(%s)" % self.to_hex()


class SquareTorusLattice:
    """w x h square lattice on the torus with spins on bonds.

    Bond (0, i, j) is the horizontal bond from vertex (i, j) to
    (i+1, j); bond (1, i, j) is vertical from (i, j) to (i, j+1).
    """

    kind = "square-torus"

    def __init__(self, w, h):
        if w < 1 or h < 1:
            raise ConfigInvalid("torus dimensions must be positive")
        self.w = w
        self.h = h
        self.nsites = 2 * w * h

    def bond_index(self, orient, i, j):
        return 2 * ((j % self.h) * self.w + (i % self.w)) + orient

    def bond_coords(self, site):
        orient = site & 1
        cell = site >> 1
        return orient, cell % self.w, cell // self.w

    def vertex_index(self, i, j):
        return (j % self.h) * self.w + (i % self.w)

    def cell_bonds(self, i, j):
        """The 4 bonds of the square cell with lower-left vertex (i, j),
        counterclockwise from the bottom."""
        return (self.bond_index(0, i, j), self.bond_index(1, i + 1, j),
                self.bond_index(0, i, j + 1), self.bond_index(1, i, j))

    def vertex_bonds(self, i, j):
        """The 4 bonds incident to vertex (i, j), counterclockwise from
        the rightward one."""
        return (self.bond_index(0, i, j), self.bond_index(1, i, j),
                self.bond_index(0, i - 1, j), self.bond_index(1, i, j - 1))

    def cells(self):
        return [(i, j) for j in range(self.h) for i in range(self.w)]

    def vertices(self):
        return [(i, j) for j in range(self.h) for i in range(self.w)]

    def config(self, bits=0):
        return SpinConfig(self, bits)

    def all_plus(self):
        return SpinConfig(self, (1 << self.nsites) - 1)

    def staircase(self, offset=0):
        """Slope-1 staircase diagonal: |+> on one positively sloping
        staircase of bonds, |-> on the complement.  Requires w == h."""
        if self.w != self.h:
            raise ConfigInvalid("staircase needs a square torus")
        bits = 0
        for k in range(self.w):
            i = (k + offset) % self.w
            bits |= 1 << self.bond_index(0, i, k)
            bits |= 1 << self.bond_index(1, i + 1, k)
        return SpinConfig(self, bits)

    def swap_dual(self, config):
        """Global |+> <-> |-> interchange composed with the primal/dual
        lattice identification (half-unit diagonal shift).

        This is the symmetry of the bond model: boxes map to dual boxes
        and clusters trade places with dual clusters.
        """
        bits = 0
        for site in range(self.nsites):
            orient, i, j = self.bond_coords(site)
            if orient == 0:
                image = self.bond_index(1, i + 1, j)
            else:
                image = self.bond_index(0, i, j + 1)
            if not config.plus(site):
                bits |= 1 << image
        return SpinConfig(self, bits)

    def extract_walls(self, config):
        bits = config.bits
        primal, dual, walk = _square_wall_tables(self.w, self.h)
        spins = [(bits >> site) & 1 for site in range(self.nsites)]
        plus_edges = bin(bits).count("1")
        clusters, wrap_c = _masked_components(primal, spins, 1)
        dual_clusters, wrap_d = _masked_components(dual, spins, 0)
        trivial, essential = _trace_loops(walk, spins, range(len(walk.key)))
        return WallCensus(trivial, essential, clusters, dual_clusters,
                          plus_edges, self.nsites - plus_edges,
                          wrap_c, wrap_d)

    def spec_dict(self):
        return {"kind": self.kind, "w": self.w, "h": self.h}


def _masked_components(incident, spins, keep):
    """Components and wrapping components of the torus graph whose
    edges are the bonds with spins[bond] == keep; incident[v] lists (bond,
    other end, dx, dy) as in _square_wall_tables.  Depth-first search
    carrying universal-cover positions: a component wraps when it
    reaches a vertex at two different lifts."""
    seen = [None] * len(incident)
    comps = wrapping = 0
    for start in range(len(incident)):
        if seen[start] is not None:
            continue
        comps += 1
        wraps = False
        seen[start] = (0, 0)
        stack = [start]
        while stack:
            u = stack.pop()
            ux, uy = seen[u]
            for bond, v, dx, dy in incident[u]:
                if spins[bond] != keep:
                    continue
                pos = (ux + dx, uy + dy)
                if seen[v] is None:
                    seen[v] = pos
                    stack.append(v)
                elif seen[v] != pos:
                    wraps = True
        if wraps:
            wrapping += 1
    return comps, wrapping


# unit steps counterclockwise from the rightward one
_SQUARE_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))


@functools.cache
def _square_wall_tables(w, h):
    """Static geometry of the w x h square torus for extract_walls.

    primal[v] lists the bonds at vertex v counterclockwise from the
    rightward one, and dual[c] the bonds around the cell c with
    lower-left vertex c counterclockwise from the bottom one, each as
    (bond, other end, dx, dy) with (dx, dy) the lift of the step in
    universal-cover units; a bond joins its ends when |+> (primal) or
    |-> (dual).  walk is the oriented wall walk of primal
    (_oriented_walk).
    """
    lat = SquareTorusLattice(w, h)
    primal, dual = [], []
    for i, j in lat.vertices():
        # the bottom bond of a cell leads to the cell below it
        for graph, bonds, steps in (
                (primal, lat.vertex_bonds(i, j), _SQUARE_STEPS),
                (dual, lat.cell_bonds(i, j),
                 _SQUARE_STEPS[3:] + _SQUARE_STEPS[:3])):
            graph.append(tuple((bond, lat.vertex_index(i + dx, j + dy),
                                dx, dy)
                               for bond, (dx, dy) in zip(bonds, steps)))
    return tuple(primal), tuple(dual), _oriented_walk(primal, (w, h))


_Walk = namedtuple("_Walk", "key succ tail head period")


def _oriented_walk(incident, period, across=False):
    """Successor table of the domain walls, oriented with |+> on their
    left (the medial-lattice walk of Baxter, Kelland and Wu, J. Phys. A
    9, 1976).

    incident[v] lists (edge, other end, dx, dy) counterclockwise around
    v.  Entry 2*edge + end is the end-th listing of that edge, the
    half-edge from tail[entry] to head[entry].  succ[2*entry + spin],
    with spin the spin of key[entry], is (next entry, dx, dy): (dx, dy)
    is the lift by which the wall's |+> side moves, in units whose
    periods are period.

    Square lattices (across false): the key is the entry's bond.  A |->
    bond passes the wall on to the next half-edge around the same
    vertex; a |+> bond carries it to the other end, on to the half-edge
    after the twin.  This is face tracing of the |+> ribbon subgraph.

    Triangular lattice (across true): entry a->b, with a |+> and b |->,
    crosses one wall segment.  Its key is the third vertex c of the
    triangle ahead (a->c is the next half-edge around a), and the wall
    leaves through a->c when c is |-> and through c->b when c is |+>.
    """
    ids, listed = [], {}
    for row in incident:
        ids.append([])
        for edge, _, _, _ in row:
            listed[edge] = end = listed.get(edge, -1) + 1
            ids[-1].append(2 * edge + end)
    size = 2 * len(listed)
    tail, head, lift, turn = ([None] * size for _ in range(4))
    for v, row in enumerate(incident):
        for k, (_, other, dx, dy) in enumerate(row):
            entry = ids[v][k]
            tail[entry], head[entry], lift[entry] = v, other, (dx, dy)
            turn[entry] = ids[v][(k + 1) % len(row)]
    key, succ = [], []
    for entry in range(size):
        pivot = turn[entry] if across else entry
        key.append(head[pivot] if across else entry >> 1)
        succ += [(turn[entry], 0, 0), (turn[pivot ^ 1], *lift[pivot])]
    return _Walk(tuple(key), tuple(succ), tuple(tail), tuple(head), period)


def _trace_loops(walk, spins, starts):
    """Trace every wall through an entry of starts on an oriented walk
    (_oriented_walk), with spins indexed by its keys.  Returns (trivial
    count, windings): a winding is a loop's net displacement in periods,
    oriented with |+> on the left."""
    key, succ = walk.key, walk.succ
    px, py = walk.period
    seen = bytearray(len(key))
    trivial = 0
    essential = []
    for start in starts:
        if seen[start]:
            continue
        entry = start
        dx = dy = 0
        while not seen[entry]:
            seen[entry] = 1
            entry, sx, sy = succ[2 * entry + spins[key[entry]]]
            dx += sx
            dy += sy
        if dx or dy:
            essential.append((dx // px, dy // py))
        else:
            trivial += 1
    return trivial, essential


class SquareDiskLattice:
    """w x h cells of square lattice on a disk with fixed boundary spins.

    Vertices (i, j) with 0 <= i <= w, 0 <= j <= h.  Bonds on the outer
    rectangle perimeter are fixed to the boundary spin; the remaining
    bonds are the free sites.
    """

    kind = "square-disk"

    def __init__(self, w, h, boundary_plus=False):
        if w < 1 or h < 1:
            raise ConfigInvalid("disk dimensions must be positive")
        self.w = w
        self.h = h
        self.boundary_plus = boundary_plus
        self._free = []
        self._fixed = set()
        for j in range(h + 1):
            for i in range(w):
                if j in (0, h):
                    self._fixed.add(("h", i, j))
                else:
                    self._free.append(("h", i, j))
        for j in range(h):
            for i in range(w + 1):
                if i in (0, w):
                    self._fixed.add(("v", i, j))
                else:
                    self._free.append(("v", i, j))
        self._site_of = {b: k for k, b in enumerate(self._free)}
        self.nsites = len(self._free)

    def config(self, bits=0):
        return SpinConfig(self, bits)

    def bonds(self):
        return list(self._free) + sorted(self._fixed)

    def _bond_plus(self, config, bond):
        if bond in self._site_of:
            return config.plus(self._site_of[bond])
        return self.boundary_plus

    def extract_walls(self, config):
        primal, dual, walk = _disk_cluster_tables(self.w, self.h)
        spins = [(config.bits >> site) & 1 for site in range(self.nsites)]
        spins += [int(self.boundary_plus)] * len(self._fixed)
        plus_edges = sum(spins)
        clusters, _ = _masked_components(primal, spins, 1)
        # the outer face is one dual vertex whose component is not counted
        faces, _ = _masked_components(dual, spins, 0)
        trivial, _ = _trace_loops(walk, spins, range(len(walk.key)))
        return WallCensus(trivial, [], clusters, faces - 1,
                          plus_edges, len(spins) - plus_edges)

    def spec_dict(self):
        return {"kind": self.kind, "w": self.w, "h": self.h,
                "boundary": "+" if self.boundary_plus else "-"}


@functools.cache
def _disk_cluster_tables(w, h):
    """Static graphs of the w x h square disk for extract_walls.

    Bond k < nsites is free site k, and the fixed boundary bonds follow
    in the order of SquareDiskLattice.bonds.  primal[v] lists the bonds
    at vertex v = j*(w+1) + i counterclockwise from the rightward one,
    as (bond, other end, 0, 0) as in _square_wall_tables; dual[c] does
    the same, in any order, over the cells c = j*w + i and the outer
    face c = w*h.  Nothing on a disk wraps, so every lift is zero.  walk
    is the oriented wall walk of primal (_oriented_walk).
    """
    lat = SquareDiskLattice(w, h)
    index = {bond: k for k, bond in enumerate(lat.bonds())}

    def cell(i, j):
        return j * w + i if 0 <= i < w and 0 <= j < h else w * h

    primal = []
    for j in range(h + 1):
        for i in range(w + 1):
            around = (("h", i, j), ("v", i, j), ("h", i - 1, j),
                      ("v", i, j - 1))
            primal.append(tuple((index[bond], (j + dy) * (w + 1) + i + dx,
                                 0, 0)
                                for bond, (dx, dy) in zip(around,
                                                          _SQUARE_STEPS)
                                if bond in index))
    dual = [[] for _ in range(w * h + 1)]
    for bond, (orient, i, j) in enumerate(lat.bonds()):
        a = cell(i, j - 1) if orient == "h" else cell(i - 1, j)
        dual[a].append((bond, cell(i, j), 0, 0))
        dual[cell(i, j)].append((bond, a, 0, 0))
    # no lift on a disk, so the periods only have to be non-zero
    return tuple(primal), tuple(map(tuple, dual)), \
        _oriented_walk(primal, (1, 1))


_TRI_NEIGHBORS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


class HexTorusLattice:
    """Triangulated torus with spins on plaques (hexagonal dual cells).

    Sites are the w x h vertices of a periodic triangular lattice,
    each carrying one plaque spin; neighbors follow the six offsets
    of the triangular lattice.
    """

    kind = "hex-torus"

    def __init__(self, w, h):
        if w < 3 or h < 3:
            raise ConfigInvalid("hex torus needs w, h >= 3 for distinct "
                                "neighborhoods")
        self.w = w
        self.h = h
        self.nsites = w * h

    def site_index(self, i, j):
        return (j % self.h) * self.w + (i % self.w)

    def site_coords(self, site):
        return site % self.w, site // self.w

    def neighbors(self, site):
        i, j = self.site_coords(site)
        return [self.site_index(i + di, j + dj) for di, dj in _TRI_NEIGHBORS]

    def config(self, bits=0):
        return SpinConfig(self, bits)

    def extract_walls(self, config):
        """Domain-wall census of the plaque model.

        Wall segments are hexagon edges dual to triangular-lattice edges
        whose endpoint spins differ; every wall vertex has degree 0 or
        2, so the wall is a disjoint union of loops.  Each loop is
        traced from a directed edge that runs from a |+> site to a |->
        one.
        """
        incident, ends, walk = _hex_cluster_tables(self.w, self.h)
        plus = [(config.bits >> site) & 1 for site in range(self.nsites)]
        starts = [entry for entry, (a, b) in enumerate(zip(walk.tail,
                                                           walk.head))
                  if plus[a] > plus[b]]
        trivial, essential = _trace_loops(walk, plus, starts)
        # 1: both ends |+>, 0: both ends |->, 2: mixed
        edge = [plus[a] if plus[a] == plus[b] else 2 for a, b in ends]
        n_plus = sum(plus)
        # every |-> site is an isolated vertex of the |+> graph, and the
        # other way round
        clusters, wrap_c = _masked_components(incident, edge, 1)
        dual_clusters, wrap_d = _masked_components(incident, edge, 0)
        return WallCensus(trivial, essential,
                          clusters - (self.nsites - n_plus),
                          dual_clusters - n_plus,
                          edge.count(1), edge.count(0), wrap_c, wrap_d)

    def spec_dict(self):
        return {"kind": self.kind, "w": self.w, "h": self.h}


@functools.cache
def _hex_cluster_tables(w, h):
    """Static graph of the w x h triangular lattice for extract_walls.

    Edge e = 3*site + k joins site (i, j) to its neighbor
    (i + di, j + dj), for the k-th of the offsets (1, 0), (1, 1),
    (0, 1); ends[e] is (site, neighbor).  incident[v] lists the six
    edges at v counterclockwise, in the order of _TRI_NEIGHBORS, as
    (edge, other end, dx, dy) as in _square_wall_tables.  walk is the
    oriented wall walk of incident (_oriented_walk).
    """
    lat = HexTorusLattice(w, h)
    incident = []
    for a in range(lat.nsites):
        i, j = lat.site_coords(a)
        row = []
        for k, (di, dj) in enumerate(_TRI_NEIGHBORS):
            b = lat.site_index(i + di, j + dj)
            # offset k + 3 is minus offset k
            row.append((3 * a + k if k < 3 else 3 * b + k - 3, b, di, dj))
        incident.append(tuple(row))
    ends = tuple((a, incident[a][k][1])
                 for a in range(lat.nsites) for k in range(3))
    return tuple(incident), ends, _oriented_walk(incident, (w, h),
                                                 across=True)


# -- census of the whole state space ----------------------------------------

CENSUS_FIELDS = ("clusters", "dual_clusters", "wrapping_clusters",
                 "wrapping_dual_clusters", "loops", "essential_loops",
                 "plus_edges", "minus_edges")
_CENSUS_CACHE = {}


class StateCensus:
    """Counts of every configuration of one lattice, indexed by state bits.

    Each name of CENSUS_FIELDS is a uint8 array of length 2^nsites;
    plus_edges and minus_edges are E and E*, the |+> and |-> edges.
    ``orbits`` is the number of symmetry orbits, the states tabulated;
    ``seconds`` is the time the build took.
    """

    def __init__(self, columns, orbits, seconds):
        for name in CENSUS_FIELDS:
            setattr(self, name, columns[name])
        self.states = len(self.clusters)
        self.orbits = orbits
        self.seconds = seconds


def _spec_key(lat):
    return tuple(sorted(lat.spec_dict().items()))


def census_cached(lat):
    """Whether census(lat) would be answered from the cache."""
    return _spec_key(lat) in _CENSUS_CACHE


def census(lat):
    """Census of all 2^N configurations of a lattice, built once.

    Returns a StateCensus whose uint8 arrays hold, per state bits,
    the cluster and dual-cluster counts, how many of each wrap the
    torus, the loop count, how many loops are essential, and E and E*.
    The result is cached by ``lat.spec_dict()``.  Raises
    StateSpaceTooLarge, before allocating anything, when 2^N exceeds
    ENUM_STATE_CAP.

    Every count is invariant under the lattice's symmetry group (the
    translations of a torus, the two mirrors and the half turn of a
    disk), so only the least state of each orbit
    (torus_census.canonical_states) is tabulated, by
    the numpy kernels of torus_census over chunks of CENSUS_CHUNK
    states, and each state reads the row of its representative.
    tabulate_by_walls, one extract_walls call per state, is the
    reference the census is tested against.
    """
    key = _spec_key(lat)
    hit = _CENSUS_CACHE.get(key)
    if hit is not None:
        return hit
    n = 1 << lat.nsites
    if n > ENUM_STATE_CAP:
        raise StateSpaceTooLarge("enumeration capped at %d states"
                                 % ENUM_STATE_CAP)
    from .torus_census import canonical_states, tabulate_states
    t0 = time.perf_counter()
    columns = {name: np.empty(n, np.uint8) for name in CENSUS_FIELDS}
    reps = np.concatenate([states[canon == states]
                           for states, canon, _ in canonical_states(lat)])
    for start in range(0, len(reps), CENSUS_CHUNK):
        chunk = reps[start:start + CENSUS_CHUNK]
        for name, col in tabulate_states(lat, chunk).items():
            columns[name][chunk] = col
    # every state reads its representative's row; the blocks are walked
    # again so that no index array is of size 2^N
    for states, canon, _ in canonical_states(lat):
        block = slice(states[0], states[-1] + 1)
        for col in columns.values():
            col[block] = col[canon]
    result = StateCensus(columns, len(reps), time.perf_counter() - t0)
    _CENSUS_CACHE[key] = result
    return result


def tabulate_by_walls(lat, states):
    """Census columns of the given states, one extract_walls call each."""
    rows = []
    for bits in states:
        c = lat.extract_walls(lat.config(int(bits)))
        rows.append((c.clusters, c.dual_clusters, c.wrapping_clusters,
                     c.wrapping_dual_clusters, c.loops,
                     len(c.essential_loops), c.plus_edges, c.minus_edges))
    table = np.array(rows, dtype=np.uint8)
    return {name: table[:, k].copy() for k, name in enumerate(CENSUS_FIELDS)}


class ComponentGraph(namedtuple(
        "ComponentGraph", "lattice states a b dexp site pot consistent")):
    """One ergodic component under the moves of a model's rows, as arrays.

    states holds the component's state bits, sorted (int64).  Edge k
    moves states[a[k]] to states[b[k]] by the row whose first site is
    site[k], with d-exponent dexp[k].  pot holds each state's d-exponent
    relative to states[0] (int64), or None when the component is not
    ratio-consistent.
    """

    __slots__ = ()

    @property
    def configs(self):
        """The states as SpinConfigs, built on each access."""
        return [SpinConfig(self.lattice, bits)
                for bits in self.states.tolist()]


def explore_component(seed, model=None):
    """Breadth-first closure of a configuration under the moves of a
    model's two-term constraint rows (hamiltonian.build_hprime, h0).

    A row with patterns a and b on the sites of mask moves a state s
    with s & mask == a to s ^ a ^ b, d-exponent +dexp, and one with
    s & mask == b back, -dexp.  The closure runs frontier by frontier,
    each state taking its potential when it is found; the component is
    ratio-consistent when every edge has pot[b] - pot[a] == dexp (every
    cycle multiplies to one).  Raises ComponentCapExceeded when a
    frontier would take the component past COMPONENT_CAP states, before
    that frontier's edges are kept.
    """
    from .hamiltonian import _pattern_state, build_h0, build_hprime
    lat = seed.lattice
    if model is None:
        model = "h0" if lat.kind == "hex-torus" else "hprime"
    if model not in ("hprime", "h0"):
        raise ConfigInvalid("unknown model %r" % (model,))
    # sites, patterns and dexp are the same at every level
    rows = (build_h0 if model == "h0" else build_hprime)(lat, 1).rows
    moves = [(sum(1 << s for s in row.sites),
              *(_pattern_state(pat, row.sites) for pat, _ in row.terms),
              row.dexp, row.sites[0]) for row in rows]
    moves += [(m, b, a, -e, s) for m, a, b, e, s in moves]
    mask, frm, to, dexp, site = (np.array(col, dtype=np.int64)
                                 for col in zip(*moves))
    frontier = known = np.array([seed.bits], dtype=np.int64)
    pot = np.zeros(1, dtype=np.int64)
    levels, pots, hits = [frontier], [pot], []
    while len(frontier):
        src, move = [], []
        # CENSUS_CHUNK states at a time against every move
        for lo in range(0, len(frontier), CENSUS_CHUNK):
            i, m = np.nonzero(frontier[lo:lo + CENSUS_CHUNK, None] & mask
                              == frm)
            src.append(lo + i)
            move.append(m)
        src, move = np.concatenate(src), np.concatenate(move)
        a = frontier[src]
        b = a ^ frm[move] ^ to[move]
        new, first = np.unique(b, return_index=True)
        fresh = ~np.isin(new, known, assume_unique=True)
        frontier, first = new[fresh], first[fresh]
        if len(known) + len(frontier) > COMPONENT_CAP:
            raise ComponentCapExceeded("component exceeds %d states"
                                       % COMPONENT_CAP)
        hits.append((a, b, move))
        pot = pot[src[first]] + dexp[move[first]]
        # disjoint and each unique: a sort is their union (np.union1d's
        # np.unique would import numpy.ma)
        known = np.sort(np.concatenate((known, frontier)))
        levels.append(frontier)
        pots.append(pot)

    pot = np.concatenate(pots)[np.argsort(np.concatenate(levels))]
    a, b, move = (np.concatenate(col) for col in zip(*hits))
    del hits  # freed before the index arrays: a quarter of the peak
    a, b = np.searchsorted(known, a), np.searchsorted(known, b)
    consistent = bool(np.all(pot[b] - pot[a] == dexp[move]))
    return ComponentGraph(lat, known, a, b, dexp[move], site[move],
                          pot - pot[0] if consistent else None, consistent)


def lattice_from_spec(spec):
    """Build a lattice from a JSON-style spec dict (or JSON text).  A
    spec that is not an object with integer "w" and "h" raises
    ConfigInvalid."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise ConfigInvalid("a lattice spec must be a JSON object")
    if type(spec.get("w")) is not int or type(spec.get("h")) is not int:
        raise ConfigInvalid('a lattice spec needs integer "w" and "h"')
    kind = spec.get("kind")
    if kind == "square-torus":
        return SquareTorusLattice(spec["w"], spec["h"])
    if kind == "hex-torus":
        return HexTorusLattice(spec["w"], spec["h"])
    if kind == "square-disk":
        return SquareDiskLattice(spec["w"], spec["h"],
                                 spec.get("boundary", "-") == "+")
    raise ConfigInvalid("unknown lattice kind %r" % kind)

