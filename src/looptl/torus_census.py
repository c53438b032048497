"""Numpy kernels of the square-torus census (lattice.census).

tabulate_states computes, for a batch of states at once and without
extract_walls, the cluster and dual-cluster counts with their wrapping
counts (min-label propagation carrying universal-cover offsets) and
the loop and essential-loop counts (pointer doubling over the arc
permutation of the mid lattice).  lattice.census imports this module
only when it builds a square-torus census.
"""

from __future__ import annotations

import functools

import numpy as np

from .lattice import (NE, NW, SE, SW, _OPPOSITE, _PAIRING, _PORT_STEP,
                      SquareTorusLattice)


def tabulate_states(lat, states):
    """Census columns of the given square-torus states, vectorised.

    states is an integer array; each column is a uint8 array aligned
    with it.  Computed without extract_walls: clusters by label
    propagation, loops as cycles of the arc permutation.
    """
    plus = ((states[None, :] >> np.arange(lat.nsites)[:, None]) & 1)
    plus = plus.astype(bool)
    primal, dual, steps = _torus_tables(lat.w, lat.h)
    out = {}
    out["clusters"], out["wrapping_clusters"] = \
        _wrapping_components_batch(plus, primal)
    out["dual_clusters"], out["wrapping_dual_clusters"] = \
        _wrapping_components_batch(~plus, dual)
    out["loops"], out["essential_loops"] = _loop_cycles_batch(plus, steps)
    return out


@functools.cache
def _torus_tables(w, h):
    """Static geometry of the w x h torus for tabulate_states.

    primal/dual: the cluster graph (bonds kept when |+>) and dual graph
    (kept when |->) as _TorusGraph.  steps[spin]: for every entry state
    k = 4*site + port_in of the mid lattice, the next entry state and
    the half-unit step (dx, dy) taken to reach it.
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
    steps = []
    for spin in (False, True):
        nxt, dxs, dys = [], [], []
        for site in range(lat.nsites):
            orient = "h" if site & 1 == 0 else "v"
            x, y = lat._midpoint(site)
            for port_in in (NE, NW, SW, SE):
                port_out = _PAIRING[(orient, spin)][port_in]
                sx, sy = _PORT_STEP[port_out]
                nxt.append(4 * lat._bond_at(x + sx, y + sy)
                           + _OPPOSITE[port_out])
                dxs.append(sx)
                dys.append(sy)
        steps.append((np.array(nxt), np.array(dxs), np.array(dys)))
    return (_TorusGraph(primal, w * h), _TorusGraph(dual, w * h),
            steps)


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


def _loop_cycles_batch(plus, steps):
    """Loops and essential loops per state, from the arc permutation.

    Each state's mid-lattice walk is a permutation of the 4N entry
    states; every loop is two oriented cycles of it, each at most 2N
    long.  Pointer doubling finds each entry's cycle minimum together
    with the displacement to it; a cycle is essential iff its summed
    step displacement is non-zero.  Label and x/y displacements are
    packed in one int32, label highest, so one minimum carries all
    three.  Rows are states, so every gather stays inside one row.
    """
    count, entries = plus.shape[1], 4 * plus.shape[0]
    rounds = (entries // 2 - 1).bit_length()
    # a window of 2^rounds steps moves at most 2^rounds each way
    width = rounds + 2
    low = 1 << (2 * width)
    assert entries << (2 * width) < 1 << 31, "lattice too large to pack"
    bias = (1 << (width - 1)) * ((1 << width) + 1)
    spin = np.repeat(plus.T, 4, axis=1)
    (nxt0, dx0, dy0), (nxt1, dx1, dy1) = steps
    rows = np.arange(count)[:, None] * entries
    succ = (np.where(spin, nxt1, nxt0) + rows).ravel()
    step = np.where(spin, (dx1 << width) + dy1, (dx0 << width) + dy0)
    step = step.astype(np.int32).ravel()
    # entry k's window [k, ptr(k)): lowest label seen plus displacement
    # from k to it, and the window's total displacement
    labels = np.arange(entries, dtype=np.int32)
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
    return (roots.reshape(count, entries).sum(1) // 2).astype(np.uint8), \
        (essential.reshape(count, entries).sum(1) // 2).astype(np.uint8)
