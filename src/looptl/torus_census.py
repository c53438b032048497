"""Numpy kernels of the lattice census (lattice.census).

tabulate_states computes, for a batch of states at once and without
extract_walls, the cluster and dual-cluster counts with their wrapping
counts (min-label propagation carrying universal-cover offsets), the
loop and essential-loop counts (pointer doubling over an oriented
medial-lattice walk, as in Baxter, Kelland and Wu, J. Phys. A 9, 1976,
on which each loop is one cycle) and E and E*.  cluster_counts
computes the cluster count alone, for the Metropolis sampler past the
state cap.

Every count is a graph invariant of the lattice, so a state and its
images under the lattice's census group share one census row.  On the
square torus that group is the w*h translations times the point group
about a vertex (the quarter turns and the mirrors when w = h, else the
two mirrors and the half turn); on the hex torus it is the
translations, and on a disk the two mirrors and the half turn.  The
tables keep it as two factors: symmetry, the translations (a disk's
mirrors), and points, the point group (the identity alone off the
square torus).  canonical_states maps each state to the least state of
its orbit under symmetry and to an element that takes that state back
to it; the ratio propagation of hamiltonian solves its move graph on
those orbits.  least_images maps each such representative to its least
image under the whole census group, and lattice.census tabulates only
the states that are their own least image.

The square torus is tabulated from its own tables, built here from the
mid-lattice port pairing and sharing no code with extract_walls.  The
disk and the hex torus read the static tables of their extract_walls.
lattice.census imports this module when it builds a census, and the
sampler when it runs past the state cap.
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from .lattice import (HexTorusLattice, SquareDiskLattice, SquareTorusLattice,
                      _disk_cluster_tables, _hex_cluster_tables)

# port indices on a mid-lattice vertex (a bond midpoint)
NE, NW, SW, SE = 0, 1, 2, 3
_PORT_STEP = {NE: (1, 1), NW: (-1, 1), SW: (-1, -1), SE: (1, -1)}
_OPPOSITE = {NE: SW, SW: NE, NW: SE, SE: NW}

# arc pairings at a bond midpoint, keyed by (orientation, spin_is_plus).
# A |+> bond keeps the wall parallel to itself; a |-> bond keeps the
# wall parallel to the crossing dual bond.
_PAIRING = {
    ("h", True): {NW: NE, NE: NW, SW: SE, SE: SW},
    ("h", False): {NW: SW, SW: NW, NE: SE, SE: NE},
    ("v", True): {NE: SE, SE: NE, NW: SW, SW: NW},
    ("v", False): {NW: NE, NE: NW, SW: SE, SE: SW},
}

# Static census geometry of one lattice.  Spins are indexed by keys:
# the sites, then the fixed bonds, whose spins are `fixed`.  Edge k of
# both graphs is |+> when both edge_keys[.][k] are |+>, and |-> when
# both are |->.  walk = (nxt, dx, dy, key, wall): at 2*entry + spin of
# key[entry], the next entry and the step to it; wall is None when
# every entry lies on a wall, else (tail, head) keys, the entry lying on
# a wall when tail is |+> and head |->.  A node keyed by `sites` is a
# vertex of the primal graph only when |+>, and of the dual one only
# when |->; `outer` dual nodes are never counted.  symmetry holds one
# site permutation per row, the identity first: state bit s moves to
# bit symmetry[g][s], and every census count stays the same.  points
# holds the point group about a vertex in the same form; every product
# of an element of symmetry with one of points keeps every count too.
_CensusTables = namedtuple("_CensusTables", "fixed edge_keys primal dual "
                           "walk sites outer symmetry points")


def tabulate_states(lat, states):
    """Census columns of the given states, vectorised.

    states is an integer array; each column of lattice.CENSUS_FIELDS
    is a uint8 array aligned with it.  Computed without extract_walls:
    clusters by label propagation, loops as cycles of the oriented walk.
    """
    t, spins, plus, clusters, pack = _primal_clusters(lat, states)
    a, b = t.edge_keys
    minus = ~(spins[a] | spins[b])
    out = {"plus_edges": plus.sum(0, dtype=np.uint8),
           "minus_edges": minus.sum(0, dtype=np.uint8),
           "wrapping_clusters": _wrapping_count(plus, t.primal, pack)}
    dual, pack = _components_batch(minus, t.dual)
    out["wrapping_dual_clusters"] = _wrapping_count(minus, t.dual, pack)
    out["clusters"] = clusters
    out["dual_clusters"] = (dual - spins[t.sites].sum(0, dtype=np.uint8)
                            - t.outer)
    out["loops"], out["essential_loops"] = _loop_cycles_batch(spins, t.walk)
    return out


def cluster_counts(lat, states):
    """C of each of the given states, as a uint8 array aligned with
    them: tabulate_states' clusters column, computed alone."""
    return _primal_clusters(lat, states)[3]


def _primal_clusters(lat, states):
    """(tables, spins, plus, C, pack) of the given states: the
    lattice's census tables, the spin rows (the state bits, then the
    fixed keys), the kept primal edges, the primal components less the
    |-> nodes keyed by `sites`, and the primal labels of
    _components_batch."""
    t = _TABLES[lat.kind](lat)
    bits = (states[None, :] >> np.arange(lat.nsites)[:, None]) & 1
    fixed = np.array(t.fixed, bool)[:, None].repeat(len(states), 1)
    spins = np.concatenate([bits.astype(bool), fixed])
    a, b = t.edge_keys
    plus = spins[a] & spins[b]
    clusters, pack = _components_batch(plus, t.primal)
    clusters = clusters - (~spins[t.sites]).sum(0, dtype=np.uint8)
    return t, spins, plus, clusters, pack


# sites per lookup table, values of the top chunk per block, and bits
# of the element index packed below each image, of canonical_states
_CHUNK_BITS = 10
_BLOCK_ROWS = 16
_ELEM_BITS = 8


def cayley_table(symmetry):
    """Products of a group of site permutations, identity first, read
    from the permutations themselves: mul[a, b] is the element that
    applies b and then a, so state bit s goes to bit
    symmetry[a][symmetry[b][s]].  Returns (mul, inverse) as int64
    arrays."""
    index = {tuple(perm): g for g, perm in enumerate(symmetry.tolist())}
    mul = np.array([[index[tuple(a[b])] for b in symmetry]
                    for a in symmetry], dtype=np.int64)
    return mul, np.argmin(mul, axis=1)


def canonical_states(lat, symmetry=None):
    """Least state of the symmetry orbit of every state, block by block.

    Yields (states, canon, elem) for consecutive blocks of the states 0
    to 2^N - 1 (N <= 30): canon[k] is the least state in the orbit of
    states[k], and elem[k] (uint8) indexes a group element that takes
    canon[k] back to states[k]: the inverse of the first element that
    takes states[k] to canon[k], so the identity when canon[k] is
    states[k].  The group is symmetry, site permutations with the
    identity first (at most 256 of them), by default the census
    tables' symmetry (_TABLES), without their points.  Writing x =
    sum_c x_c 2^(10c) by bit chunks, the image of x under a site
    permutation is the OR over c of table_c[x_c], where table_c maps a
    chunk to its permuted bits (_chunk_tables); over a block of
    top-chunk values that is an outer OR of the tables.  Each image is
    packed above its element's index, so one minimum finds both.  The
    blocks keep every array far below 2^N entries.
    """
    n = lat.nsites
    if symmetry is None:
        symmetry = _TABLES[lat.kind](lat).symmetry
    assert len(symmetry) <= 1 << _ELEM_BITS, "elements are kept as uint8"
    inverse = cayley_table(symmetry)[1].astype(np.uint8)
    dtype = np.int32 if n + _ELEM_BITS < 32 else np.int64
    low_bits = max(n - 1, 0) // _CHUNK_BITS * _CHUNK_BITS
    images = []
    for g, perm in enumerate(symmetry[1:], 1):
        *low, top = [(table << _ELEM_BITS).astype(dtype)
                     for table in _chunk_tables(perm, n)]
        images.append((top, functools.reduce(np.bitwise_or.outer,
                                             reversed(low),
                                             dtype(g)).ravel()))
    width = 1 << low_bits
    for r in range(0, (1 << n) // width, _BLOCK_ROWS):
        states = np.arange(r * width, min(1 << n, (r + _BLOCK_ROWS) * width),
                           dtype=dtype)
        least = states << _ELEM_BITS
        rows = least.reshape(-1, width)
        for top, rest in images:
            np.minimum(rows, top[r:r + _BLOCK_ROWS, None] | rest, out=rows)
        yield (states, least >> _ELEM_BITS,
               inverse[(least & ((1 << _ELEM_BITS) - 1)).astype(np.uint8)])


def least_images(lat, states):
    """Least image of each of the given states under every product t p
    of an element t of the census's symmetry and an element p of its
    points (_TABLES), block by block, as an array aligned with states.
    A state's image under each product is read from its chunk tables,
    as in canonical_states; each block holds at most 2^16 images."""
    t = _TABLES[lat.kind](lat)
    # t p sends state bit s to bit symmetry[t][points[p][s]]
    group = np.concatenate([t.symmetry[:, p] for p in t.points])
    tables = [table.astype(states.dtype)
              for table in _chunk_tables(group, lat.nsites)]
    block = max(1, (1 << 16) // len(group))
    least = np.empty_like(states)
    for lo in range(0, len(states), block):
        x = states[lo:lo + block]
        images = functools.reduce(np.bitwise_or, (
            table[:, (x >> (c * _CHUNK_BITS)) & (table.shape[1] - 1)]
            for c, table in enumerate(tables)))
        least[lo:lo + block] = images.min(0)
    return least


def _chunk_tables(perms, n):
    """Image bits of every value of each _CHUNK_BITS-site chunk of the
    n sites under a site permutation, or a stack of them along the last
    axis, as int64 arrays: a state x = sum_c x_c 2^(10c) goes to the
    OR over c of table_c[..., x_c]."""
    tables = []
    # a lattice without sites has one state, its own least
    for lo in range(0, max(n, 1), _CHUNK_BITS):
        hi = min(n, lo + _CHUNK_BITS)
        bits = (np.arange(1 << (hi - lo)) >> np.arange(hi - lo)[:, None]) & 1
        tables.append((1 << perms[..., lo:hi]) @ bits)
    return tables


def _midpoint(lat, site):
    """Half-unit coordinates of the midpoint of a square-torus bond."""
    orient, i, j = lat.bond_coords(site)
    if orient == 0:
        return (2 * i + 1, 2 * j)
    return (2 * i, 2 * j + 1)


def _bond_at(lat, x, y):
    """Square-torus bond whose midpoint is at half-unit coordinates
    (x, y)."""
    x %= 2 * lat.w
    y %= 2 * lat.h
    if x & 1:
        return lat.bond_index(0, (x - 1) // 2, y // 2)
    return lat.bond_index(1, x // 2, (y - 1) // 2)


@functools.cache
def _torus_tables(w, h):
    """Census tables of the w x h square torus, from the port pairing.

    The primal graph keeps a bond when |+> and the dual graph when |->.
    The walk keeps, per site, the two ports whose edge, walked into the
    site, has the primal vertex on its left, as entries 2*site and
    2*site + 1; its steps are in half units.
    """
    lat = SquareTorusLattice(w, h)
    primal, dual = [], []
    for site in range(lat.nsites):
        orient, i, j = lat.bond_coords(site)
        if orient == 0:
            primal.append((site, lat.vertex_index(i, j),
                           lat.vertex_index(i + 1, j), 1, 0))
            dual.append((site, lat.vertex_index(i, j - 1),
                         lat.vertex_index(i, j), 0, 1))
        else:
            primal.append((site, lat.vertex_index(i, j),
                           lat.vertex_index(i, j + 1), 0, 1))
            dual.append((site, lat.vertex_index(i - 1, j),
                         lat.vertex_index(i, j), 1, 0))
    entry_of = {}
    for site in range(lat.nsites):
        x, y = _midpoint(lat, site)
        for port, (sx, sy) in _PORT_STEP.items():
            # walked in from (x+sx, y+sy), the edge has the corner
            # (x+(sx+sy)/2, y+(sy-sx)/2) on its left; primal ones are even
            if (x + (sx + sy) // 2) % 2 == (y + (sy - sx) // 2) % 2 == 0:
                entry_of[site, port] = len(entry_of)
        assert len(entry_of) == 2 * site + 2, "need two incoming ports"
    nxt, steps = [], []
    for site, port_in in entry_of:
        orient = "h" if site & 1 == 0 else "v"
        x, y = _midpoint(lat, site)
        for spin in (False, True):
            port_out = _PAIRING[(orient, spin)][port_in]
            sx, sy = _PORT_STEP[port_out]
            reached = (_bond_at(lat, x + sx, y + sy), _OPPOSITE[port_out])
            assert reached in entry_of, "the walk left the incoming ports"
            nxt.append(entry_of[reached])
            steps.append((sx, sy))
    sites = np.arange(lat.nsites)
    walk = (np.array(nxt), *np.array(steps).T, np.repeat(sites, 2), None)
    coords = [lat.bond_coords(site) for site in sites]
    shifts = [[lat.bond_index(o, i + a, j + b) for o, i, j in coords]
              for b in range(h) for a in range(w)]
    # about vertex (0, 0), the x mirror takes bond (o, i, j) to
    # (o, -i - 1, j) or (o, -i, j); the quarter turn, a symmetry only
    # when w = h, takes it to (1, -j, i) or (0, -j - 1, i), and the half
    # turn to (o, -i - 1, -j) or (o, -i, -j - 1)
    mirror = np.array([lat.bond_index(o, o - i - 1, j) for o, i, j in coords])
    turn = np.array([lat.bond_index(1 - o, -j - o, i) if w == h else
                     lat.bond_index(o, o - i - 1, -j - o)
                     for o, i, j in coords])
    turns = [sites]
    for _ in range(3 if w == h else 1):
        turns.append(turn[turns[-1]])
    # the turns, then each followed by the mirror; on a torus one bond
    # wide some coincide, and each permutation is listed once
    points = turns + [mirror[r] for r in turns]
    return _CensusTables((), (sites, sites), _TorusGraph(primal, w * h),
                         _TorusGraph(dual, w * h), walk,
                         np.empty(0, int), 0, np.array(shifts),
                         np.array(list(dict.fromkeys(map(tuple, points)))))


@functools.cache
def _disk_tables(w, h, boundary_plus):
    """Census tables of the w x h disk, read from extract_walls' own
    (lattice._disk_cluster_tables); the outer face is never counted.
    Its group is the rectangle's: the mirror x -> w - x, the mirror
    y -> h - y and their product, the rotation by 180 degrees; each
    keeps the boundary, whose spins are all equal."""
    primal, dual, walk = _disk_cluster_tables(w, h)
    bonds = np.arange(len(walk.key) // 2)
    lat = SquareDiskLattice(w, h)
    free = lat.bonds()[:lat.nsites]
    site_of = {bond: k for k, bond in enumerate(free)}
    fixed = (boundary_plus,) * (len(bonds) - lat.nsites)
    # bond (o, i, j) starts at vertex (i, j) and ends one step along o
    mirrors = [tuple(site_of[o, w - i - (o == "h") if fx else i,
                             h - j - (o == "v") if fy else j]
                     for o, i, j in free)
               for fy in (0, 1) for fx in (0, 1)]
    # a disk one cell wide is its own mirror image across that width:
    # each permutation is listed once
    return _CensusTables(fixed, (bonds, bonds), _graph_of(primal),
                         _graph_of(dual), _walk_arrays(walk, None),
                         np.empty(0, int), 1,
                         np.array(list(dict.fromkeys(mirrors)), dtype=int),
                         np.arange(lat.nsites)[None])


@functools.cache
def _hex_tables(w, h):
    """Census tables of the w x h hex torus, read from extract_walls'
    own (lattice._hex_cluster_tables).  Both graphs are the triangular
    lattice, whose nodes are the sites."""
    lat = HexTorusLattice(w, h)
    incident, ends, walk = _hex_cluster_tables(w, h)
    graph = _graph_of(incident)
    wall = (np.array(walk.tail), np.array(walk.head))
    coords = [lat.site_coords(site) for site in range(lat.nsites)]
    shifts = [[lat.site_index(i + a, j + b) for i, j in coords]
              for b in range(h) for a in range(w)]
    return _CensusTables((), tuple(np.array(ends).T), graph, graph,
                         _walk_arrays(walk, wall), np.arange(w * h), 0,
                         np.array(shifts), np.arange(lat.nsites)[None])


_TABLES = {
    "square-torus": lambda lat: _torus_tables(lat.w, lat.h),
    "square-disk": lambda lat: _disk_tables(lat.w, lat.h,
                                            lat.boundary_plus),
    "hex-torus": lambda lat: _hex_tables(lat.w, lat.h),
}


def _graph_of(incident):
    """_TorusGraph of the incident lists (edge, other end, dx, dy) of
    an extract_walls table."""
    edges = {}
    for a, row in enumerate(incident):
        for edge, b, dx, dy in row:
            edges.setdefault(edge, (edge, a, b, dx, dy))
    return _TorusGraph(list(edges.values()), len(incident))


def _walk_arrays(walk, wall):
    """The census walk of an oriented walk of lattice._oriented_walk."""
    nxt, dx, dy = np.array(walk.succ).T
    return nxt, dx, dy, np.array(walk.key), wall


# node offsets are packed as 64*x + y in the low _LABEL_SHIFT bits of
# label << _LABEL_SHIFT; |x|, |y| stay below the node count
_LABEL_SHIFT = 12
_OFFSET_BIAS = 1 << (_LABEL_SHIFT - 1)
_NOT_KEPT = 1 << 24


class _TorusGraph:
    """One graph on the torus or the disk, as arrays over its edges.

    edges: (edge, a, b, dx, dy), edge number `edge` from node a to node
    b with universal-cover lift (dx, dy).  The incoming lifts form
    arrays in_source/in_edge/in_lift of shape (nodes, most edge ends at
    a node); a node with fewer edge ends is padded with never-kept
    edges, from itself with lift _NOT_KEPT.
    """

    def __init__(self, edges, nodes):
        assert nodes <= 32, "offsets would overflow their packing"
        self.nodes = nodes
        edge, a, b, dx, dy = (np.array(col) for col in zip(*edges))
        self.edge, self.a, self.b = edge, a, b
        self.lift = (64 * dx + dy)[:, None]
        incoming = [[] for _ in range(nodes)]
        for k in range(len(edge)):
            incoming[a[k]].append((b[k], edge[k], -self.lift[k, 0]))
            incoming[b[k]].append((a[k], edge[k], self.lift[k, 0]))
        degree = max(map(len, incoming))
        table = np.array([row + [(v, 0, _NOT_KEPT)] * (degree - len(row))
                          for v, row in enumerate(incoming)])
        self.in_source, self.in_edge = table[..., 0], table[..., 1]
        self.in_lift = table[..., 2:3].astype(np.int32)


def _components_batch(keep, graph):
    """Components of a torus graph per state, and each node's packed
    label.

    keep[edge] is a bool row over the states: whether that edge is in
    the graph.  Min-label propagation carries each node's
    universal-cover offset from its label node, packed with the label;
    a node takes a neighbour's label only when it is smaller, so every
    offset is the lift of a real path.
    """
    count = keep.shape[1]
    nodes = np.arange(graph.nodes, dtype=np.int32)[:, None]
    via = np.where(keep[graph.in_edge], graph.in_lift, _NOT_KEPT)
    pack = np.repeat((nodes << _LABEL_SHIFT) + _OFFSET_BIAS, count, 1)
    while True:
        offer = (pack[graph.in_source] + via).min(axis=1)
        take = (offer >> _LABEL_SHIFT) < (pack >> _LABEL_SHIFT)
        if not take.any():
            break
        pack = np.where(take, offer, pack)
    return ((pack >> _LABEL_SHIFT) == nodes).sum(0, dtype=np.uint8), pack


def _wrapping_count(keep, graph, pack):
    """Wrapping components per state, from _components_batch's labels:
    a component wraps iff one of its kept edges joins two offsets that
    disagree."""
    count = keep.shape[1]
    bad = keep[graph.edge] & (pack[graph.a] + graph.lift != pack[graph.b])
    root = (pack[graph.a] >> _LABEL_SHIFT) * count + np.arange(count)
    wraps = np.zeros(graph.nodes * count, bool)
    wraps[root[bad]] = True
    return wraps.reshape(graph.nodes, count).sum(0, dtype=np.uint8)


def _loop_cycles_batch(spins, walk):
    """Loops and essential loops per state, from an oriented walk.

    spins[key] is a bool row over the states.  Each state's walk maps
    the entries on walls one to one, and every loop is one cycle of
    it.  Pointer doubling finds each entry's cycle minimum together
    with the displacement to it; every minimum (root) on a wall is one
    loop, essential iff the cycle's summed step displacement is
    non-zero.  Label and x/y displacements are packed in one int32,
    label highest, so one minimum carries all three.  Rows are states,
    so every gather stays inside one row.
    """
    nxt, dx, dy, key, wall = walk
    count, entries = spins.shape[1], len(key)
    rounds = (entries - 1).bit_length()
    # a window of 2^rounds steps moves at most 2^rounds each way
    width = rounds + 2
    low = 1 << (2 * width)
    # labels 0..entries-1 sit above the two width-bit displacements
    assert entries << (2 * width) < 1 << 31, "lattice too large to pack"
    bias = (1 << (width - 1)) * ((1 << width) + 1)
    labels = np.arange(entries, dtype=np.int32)
    # C order keeps the gathers below in one pass over memory
    arc = np.add(2 * labels, spins[key].T, order="C")
    rows = np.arange(count)[:, None] * entries
    succ = (nxt[arc] + rows).ravel()
    step = ((dx << width) + dy).astype(np.int32)[arc].ravel()
    # entry k's window [k, ptr(k)): lowest label seen plus displacement
    # from k to it, and the window's total displacement
    best = np.tile(labels * low + bias, count)
    ptr, span = succ, step
    for _ in range(rounds):
        best = np.minimum(best, best[ptr] + span)
        span = span + span[ptr]
        ptr = ptr[ptr]
    roots = (best >> (2 * width)) == np.tile(labels, count)
    if wall is not None:
        tail, head = wall
        roots &= (spins[tail] & ~spins[head]).T.ravel()
    # at a root, the cycle's displacement is its step plus the way back
    total = step + (best[succ] & (low - 1)) - bias
    essential = roots & (total != 0)
    return roots.reshape(count, entries).sum(1, dtype=np.uint8), \
        essential.reshape(count, entries).sum(1, dtype=np.uint8)
