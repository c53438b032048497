"""Numpy kernels of the lattice census (lattice.census).

tabulate_states computes, for a batch of states at once and without
extract_walls, the cluster and dual-cluster counts with their wrapping
counts (min-label propagation carrying universal-cover offsets), the
loop and essential-loop counts (pointer doubling over an oriented
medial-lattice walk, as in Baxter, Kelland and Wu, J. Phys. A 9, 1976,
on which each loop is one cycle) and E and E*.

The square torus is tabulated from its own tables, built here from the
mid-lattice port pairing and sharing no code with extract_walls.  The
disk and the hex torus read the static tables of their extract_walls.
lattice.census imports this module when it builds a census.
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from .lattice import (SquareDiskLattice, SquareTorusLattice,
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
# when |->; `outer` dual nodes are never counted.
_CensusTables = namedtuple("_CensusTables",
                           "fixed edge_keys primal dual walk sites outer")


def tabulate_states(lat, states):
    """Census columns of the given states, vectorised.

    states is an integer array; each column of lattice.CENSUS_FIELDS
    is a uint8 array aligned with it.  Computed without extract_walls:
    clusters by label propagation, loops as cycles of the oriented walk.
    """
    t = _TABLES[lat.kind](lat)
    bits = (states[None, :] >> np.arange(lat.nsites)[:, None]) & 1
    fixed = np.array(t.fixed, bool)[:, None].repeat(len(states), 1)
    spins = np.concatenate([bits.astype(bool), fixed])
    a, b = t.edge_keys
    plus = spins[a] & spins[b]
    minus = ~(spins[a] | spins[b])
    out = {"plus_edges": plus.sum(0, dtype=np.uint8),
           "minus_edges": minus.sum(0, dtype=np.uint8)}
    clusters, out["wrapping_clusters"] = \
        _wrapping_components_batch(plus, t.primal)
    dual, out["wrapping_dual_clusters"] = \
        _wrapping_components_batch(minus, t.dual)
    on = spins[t.sites]
    out["clusters"] = clusters - (~on).sum(0, dtype=np.uint8)
    out["dual_clusters"] = dual - on.sum(0, dtype=np.uint8) - t.outer
    out["loops"], out["essential_loops"] = _loop_cycles_batch(spins, t.walk)
    return out


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
    return _CensusTables((), (sites, sites), _TorusGraph(primal, w * h),
                         _TorusGraph(dual, w * h), walk,
                         np.empty(0, int), 0)


@functools.cache
def _disk_tables(w, h, boundary_plus):
    """Census tables of the w x h disk, read from extract_walls' own
    (lattice._disk_cluster_tables); the outer face is never counted."""
    primal, dual, walk = _disk_cluster_tables(w, h)
    bonds = np.arange(len(walk.key) // 2)
    fixed = (boundary_plus,) * (len(bonds) - SquareDiskLattice(w, h).nsites)
    return _CensusTables(fixed, (bonds, bonds), _graph_of(primal),
                         _graph_of(dual), _walk_arrays(walk, None),
                         np.empty(0, int), 1)


@functools.cache
def _hex_tables(w, h):
    """Census tables of the w x h hex torus, read from extract_walls'
    own (lattice._hex_cluster_tables).  Both graphs are the triangular
    lattice, whose nodes are the sites."""
    incident, ends, walk = _hex_cluster_tables(w, h)
    graph = _graph_of(incident)
    wall = (np.array(walk.tail), np.array(walk.head))
    return _CensusTables((), tuple(np.array(ends).T), graph, graph,
                         _walk_arrays(walk, wall), np.arange(w * h), 0)


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


def _wrapping_components_batch(keep, graph):
    """Components and wrapping components of a torus graph, per state.

    keep[edge] is a bool row over the states: whether that edge is in
    the graph.  Min-label propagation carries each node's
    universal-cover offset from its label node, packed with the label;
    a node takes a neighbour's label only when it is smaller, so every
    offset is the lift of a real path.  A component wraps iff one of
    its kept edges joins two offsets that disagree.
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
    label = pack >> _LABEL_SHIFT
    components = (label == nodes).sum(0, dtype=np.uint8)
    bad = keep[graph.edge] & (pack[graph.a] + graph.lift != pack[graph.b])
    root = label[graph.a] * count + np.arange(count)
    wraps = np.zeros(graph.nodes * count, bool)
    wraps[root[bad]] = True
    return components, wraps.reshape(graph.nodes, count).sum(0,
                                                             dtype=np.uint8)


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
