"""Numpy kernels of the square-torus census (lattice.census).

tabulate_states computes, for a batch of states at once and without
extract_walls, the cluster and dual-cluster counts with their wrapping
counts (min-label propagation carrying universal-cover offsets) and
the loop and essential-loop counts (pointer doubling over the mid
lattice walked with the primal vertex on the left, as in Baxter,
Kelland and Wu, J. Phys. A 9, 1976, so that each loop is one cycle).
lattice.census imports this module only when it builds a square-torus
census.
"""

from __future__ import annotations

import functools

import numpy as np

from .lattice import _OPPOSITE, _PAIRING, _PORT_STEP, SquareTorusLattice


def tabulate_states(lat, states):
    """Census columns of the given square-torus states, vectorised.

    states is an integer array; each column is a uint8 array aligned
    with it.  Computed without extract_walls: clusters by label
    propagation, loops as cycles of the oriented walk.
    """
    plus = ((states[None, :] >> np.arange(lat.nsites)[:, None]) & 1)
    plus = plus.astype(bool)
    primal, dual, walk = _torus_tables(lat.w, lat.h)
    out = {}
    out["clusters"], out["wrapping_clusters"] = \
        _wrapping_components_batch(plus, primal)
    out["dual_clusters"], out["wrapping_dual_clusters"] = \
        _wrapping_components_batch(~plus, dual)
    out["loops"], out["essential_loops"] = _loop_cycles_batch(states, walk)
    return out


@functools.cache
def _torus_tables(w, h):
    """Static geometry of the w x h torus for tabulate_states.

    primal/dual: the cluster graph (bonds kept when |+>) and dual graph
    (kept when |->) as _TorusGraph.  walk = (nxt, dx, dy): each site
    keeps the two ports whose edge, walked into the site, has the
    primal vertex on its left, as entries 2*site and 2*site + 1; at
    2*entry + spin, the next entry and the half-unit step taken to it.
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
        x, y = lat._midpoint(site)
        for port, (sx, sy) in _PORT_STEP.items():
            # walked in from (x+sx, y+sy), the edge has the corner
            # (x+(sx+sy)/2, y+(sy-sx)/2) on its left; primal ones are even
            if (x + (sx + sy) // 2) % 2 == (y + (sy - sx) // 2) % 2 == 0:
                entry_of[site, port] = len(entry_of)
        assert len(entry_of) == 2 * site + 2, "need two incoming ports"
    nxt, steps = [], []
    for site, port_in in entry_of:
        orient = "h" if site & 1 == 0 else "v"
        x, y = lat._midpoint(site)
        for spin in (False, True):
            port_out = _PAIRING[(orient, spin)][port_in]
            sx, sy = _PORT_STEP[port_out]
            reached = (lat._bond_at(x + sx, y + sy), _OPPOSITE[port_out])
            assert reached in entry_of, "the walk left the incoming ports"
            nxt.append(entry_of[reached])
            steps.append((sx, sy))
    walk = (np.array(nxt), *np.array(steps).T)
    return _TorusGraph(primal, w * h), _TorusGraph(dual, w * h), walk


# node offsets are packed as 64*x + y in the low _LABEL_SHIFT bits of
# label << _LABEL_SHIFT; |x|, |y| stay below the node count
_LABEL_SHIFT = 12
_OFFSET_BIAS = 1 << (_LABEL_SHIFT - 1)
_NOT_KEPT = 1 << 24


class _TorusGraph:
    """One bond graph on the torus, as arrays over its edges.

    edges: (site, a, b, dx, dy), the edge of a site from node a to
    node b with universal-cover lift (dx, dy).  Every node has the same
    number of edge ends (four), so the incoming lifts form rectangular
    arrays in_source/in_site/in_lift of shape (nodes, 4).
    """

    def __init__(self, edges, nodes):
        self.nodes = nodes
        site, a, b, dx, dy = (np.array(col) for col in zip(*edges))
        self.site, self.a, self.b = site, a, b
        self.lift = (64 * dx + dy)[:, None]
        incoming = [[] for _ in range(nodes)]
        for k in range(len(site)):
            incoming[a[k]].append((b[k], site[k], -self.lift[k, 0]))
            incoming[b[k]].append((a[k], site[k], self.lift[k, 0]))
        table = np.array(incoming)
        self.in_source, self.in_site = table[..., 0], table[..., 1]
        self.in_lift = table[..., 2:3].astype(np.int32)


def _wrapping_components_batch(keep, graph):
    """Components and wrapping components of a torus graph, per state.

    keep[site] is a bool row over the states: whether the edge of that
    site is in the graph.  Min-label propagation carries each node's
    universal-cover offset from its label node, packed with the label;
    a node takes a neighbour's label only when it is smaller, so every
    offset is the lift of a real path.  A component wraps iff one of
    its kept edges joins two offsets that disagree.
    """
    count = keep.shape[1]
    nodes = np.arange(graph.nodes, dtype=np.int32)[:, None]
    via = np.where(keep[graph.in_site], graph.in_lift, _NOT_KEPT)
    pack = np.repeat((nodes << _LABEL_SHIFT) + _OFFSET_BIAS, count, 1)
    while True:
        offer = (pack[graph.in_source] + via).min(axis=1)
        take = (offer >> _LABEL_SHIFT) < (pack >> _LABEL_SHIFT)
        if not take.any():
            break
        pack = np.where(take, offer, pack)
    label = pack >> _LABEL_SHIFT
    components = (label == nodes).sum(0, dtype=np.uint8)
    bad = keep[graph.site] & (pack[graph.a] + graph.lift != pack[graph.b])
    root = label[graph.a] * count + np.arange(count)
    wraps = np.zeros(graph.nodes * count, bool)
    wraps[root[bad]] = True
    return components, wraps.reshape(graph.nodes, count).sum(0,
                                                             dtype=np.uint8)


def _loop_cycles_batch(states, walk):
    """Loops and essential loops per state, from the oriented walk.

    Each state's oriented walk is a permutation of the 2N entries, and
    every loop is one cycle of it, at most 2N long.  Pointer doubling
    finds each entry's cycle minimum together with the displacement to
    it; every minimum (root) is one loop, essential iff the cycle's
    summed step displacement is non-zero.  Label and x/y displacements
    are packed in one int32, label highest, so one minimum carries all
    three.  Rows are states, so every gather stays inside one row.
    """
    nxt, dx, dy = walk
    count, entries = len(states), len(nxt) // 2
    rounds = (entries - 1).bit_length()
    # a window of 2^rounds steps moves at most 2^rounds each way
    width = rounds + 2
    low = 1 << (2 * width)
    # labels 0..entries-1 sit above the two width-bit displacements
    assert entries << (2 * width) < 1 << 31, "lattice too large to pack"
    bias = (1 << (width - 1)) * ((1 << width) + 1)
    labels = np.arange(entries, dtype=np.int32)
    site_of = labels >> 1
    arc = 2 * labels + ((states[:, None] >> site_of) & 1)
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
    # at a root, the cycle's displacement is its step plus the way back
    total = step + (best[succ] & (low - 1)) - bias
    essential = roots & (total != 0)
    return roots.reshape(count, entries).sum(1, dtype=np.uint8), \
        essential.reshape(count, entries).sum(1, dtype=np.uint8)
