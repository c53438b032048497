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
count as clusters.  extract_walls traces every mid-lattice loop and
classifies it as trivial or essential by its winding pair, measured
as net displacement across the two fundamental periods.  census
tabulates the same counts for every state of a lattice at once.
"""

from __future__ import annotations

import functools
import json
import time
from collections import deque

import numpy as np

from .errors import ComponentCapExceeded, ConfigInvalid, StateSpaceTooLarge

COMPONENT_CAP = 5_000_000
ENUM_STATE_CAP = 1 << 20
CENSUS_CHUNK = 1 << 10

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


class WallCensus:
    """Census of one configuration's domain walls and FK clusters."""

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

    def flip(self, site):
        return SpinConfig(self.lattice, self.bits ^ (1 << site))

    def swap(self):
        """Global |+> <-> |-> interchange."""
        mask = (1 << self.lattice.nsites) - 1
        return SpinConfig(self.lattice, self.bits ^ mask)

    def to_hex(self):
        width = (self.lattice.nsites + 3) // 4
        return format(self.bits, "0%dx" % max(width, 1))

    @classmethod
    def from_hex(cls, lattice, text):
        return cls(lattice, int(text, 16))

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

    # -- mid-lattice geometry -------------------------------------------
    def _midpoint(self, site):
        orient, i, j = self.bond_coords(site)
        if orient == 0:
            return (2 * i + 1, 2 * j)
        return (2 * i, 2 * j + 1)

    def _bond_at(self, x, y):
        """Bond whose midpoint is at half-unit coordinates (x, y)."""
        x %= 2 * self.w
        y %= 2 * self.h
        if x & 1:
            return self.bond_index(0, (x - 1) // 2, y // 2)
        return self.bond_index(1, x // 2, (y - 1) // 2)

    def extract_walls(self, config):
        bits = config.bits
        primal, dual, arcs = _square_wall_tables(self.w, self.h)
        spins = [(bits >> site) & 1 for site in range(self.nsites)]
        plus_edges = bin(bits).count("1")
        clusters, wrap_c = _masked_components(primal, spins, 1)
        dual_clusters, wrap_d = _masked_components(dual, spins, 0)
        trivial, essential = self._trace_loops(spins, arcs)
        return WallCensus(trivial, essential, clusters, dual_clusters,
                          plus_edges, self.nsites - plus_edges,
                          wrap_c, wrap_d)

    def _trace_loops(self, spins, arcs):
        """Trace every mid-lattice loop one arc at a time; return
        (trivial count, windings)."""
        visited = bytearray(4 * self.nsites)
        trivial = 0
        essential = []
        px, py = 2 * self.w, 2 * self.h
        for start in range(4 * self.nsites):
            if visited[start]:
                continue
            entry = start
            dx = dy = 0
            while True:
                nxt, exit_, sx, sy = arcs[2 * entry + spins[entry >> 2]]
                visited[entry] = visited[exit_] = 1
                dx += sx
                dy += sy
                entry = nxt
                if entry == start and dx % px == 0 and dy % py == 0:
                    break
            wind = (dx // px, dy // py)
            if wind == (0, 0):
                trivial += 1
            else:
                essential.append(wind)
        return trivial, essential

    def local_moves(self, config, model="hprime"):
        """Admissible single-bond flips.

        Returns (site, kind, partner, dexp) where the partner amplitude
        relates to this one by a factor d**dexp in any zero mode: the
        configuration with the extra small loop carries the larger
        amplitude.
        """
        if model != "hprime":
            raise ConfigInvalid("square torus carries the bond model")
        moves = []
        for (i, j) in self.cells():
            bonds = self.cell_bonds(i, j)
            n_plus = sum(config.plus(b) for b in bonds)
            if n_plus == 4:
                # complete box: removing any bond erases the face loop
                for b in set(bonds):
                    moves.append((b, "box", config.flip(b), -1))
            elif n_plus == 3:
                b = next(b for b in bonds if not config.plus(b))
                moves.append((b, "box", config.flip(b), 1))
        for (i, j) in self.vertices():
            bonds = self.vertex_bonds(i, j)
            n_plus = sum(config.plus(b) for b in bonds)
            if n_plus == 0:
                for b in set(bonds):
                    moves.append((b, "dual-box", config.flip(b), -1))
            elif n_plus == 1:
                b = next(b for b in bonds if config.plus(b))
                moves.append((b, "dual-box", config.flip(b), 1))
        return moves

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


@functools.cache
def _square_wall_tables(w, h):
    """Static geometry of the w x h square torus for extract_walls,
    built on first use from the lattice's own _midpoint, _bond_at and
    _PAIRING.

    primal[v] (dual[c]) lists, for every bond at vertex v (dual vertex
    c, the cell with lower-left vertex c), (bond, other end, dx, dy)
    with (dx, dy) the lift of the step in universal-cover units; a
    bond joins its ends when |+> (primal) or |-> (dual).  arcs[2*k +
    spin], for every entry k = 4*site + port_in of the mid lattice, is
    (next entry, exit 4*site + port_out, step dx, step dy) in half
    units.
    """
    lat = SquareTorusLattice(w, h)
    primal = [[] for _ in range(w * h)]
    dual = [[] for _ in range(w * h)]
    for bond in range(lat.nsites):
        orient, i, j = lat.bond_coords(bond)
        if orient == 0:
            # horizontal bond (i, j) joins vertices (i, j), (i+1, j) and
            # separates cells (i, j-1) and (i, j)
            ends = ((lat.vertex_index(i, j), lat.vertex_index(i + 1, j),
                     1, 0),
                    (lat.vertex_index(i, j - 1), lat.vertex_index(i, j),
                     0, 1))
        else:
            # vertical bond (i, j) joins vertices (i, j), (i, j+1) and
            # separates cells (i-1, j) and (i, j)
            ends = ((lat.vertex_index(i, j), lat.vertex_index(i, j + 1),
                     0, 1),
                    (lat.vertex_index(i - 1, j), lat.vertex_index(i, j),
                     1, 0))
        for graph, (a, b, dx, dy) in zip((primal, dual), ends):
            graph[a].append((bond, b, dx, dy))
            graph[b].append((bond, a, -dx, -dy))
    arcs = []
    for entry in range(4 * lat.nsites):
        site, port_in = divmod(entry, 4)
        orient = "h" if lat.bond_coords(site)[0] == 0 else "v"
        x, y = lat._midpoint(site)
        for spin in (0, 1):
            port_out = _PAIRING[(orient, bool(spin))][port_in]
            sx, sy = _PORT_STEP[port_out]
            nxt = 4 * lat._bond_at(x + sx, y + sy) + _OPPOSITE[port_out]
            arcs.append((nxt, 4 * site + port_out, sx, sy))
    return (tuple(map(tuple, primal)), tuple(map(tuple, dual)),
            tuple(arcs))


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
        if bond in self._fixed:
            return self.boundary_plus
        return False  # virtual bond outside the patch

    def extract_walls(self, config):
        primal, dual = _disk_cluster_tables(self.w, self.h)
        spins = [(config.bits >> site) & 1 for site in range(self.nsites)]
        spins += [int(self.boundary_plus)] * len(self._fixed)
        plus_edges = sum(spins)
        clusters, _ = _masked_components(primal, spins, 1)
        # the outer face is one dual vertex whose component is not counted
        faces, _ = _masked_components(dual, spins, 0)
        trivial = self._trace_loops(config)
        return WallCensus(trivial, [], clusters, faces - 1,
                          plus_edges, len(spins) - plus_edges)

    def _bond_at(self, x, y):
        if x & 1:
            return ("h", (x - 1) // 2, y // 2)
        return ("v", x // 2, (y - 1) // 2)

    def _trace_loops(self, config):
        """Count mid-lattice loops through at least one real bond.

        The patch sits in an all-|-> plane; loops may pass through
        nearby virtual bonds but are seeded only from real ones.
        """
        xmax, ymax = 2 * self.w + 8, 2 * self.h + 8
        visited = set()
        loops = 0
        for bond in self.bonds():
            orient, i, j = bond
            x0, y0 = (2 * i + 1, 2 * j) if orient == "h" else (2 * i, 2 * j + 1)
            for port0 in (NE, NW, SW, SE):
                if (x0, y0, port0) in visited:
                    continue
                x, y, port_in = x0, y0, port0
                while True:
                    bx = self._bond_at(x, y)
                    spin = self._bond_plus(config, bx)
                    o = bx[0]
                    port_out = _PAIRING[(o, spin)][port_in]
                    visited.add((x, y, port_in))
                    visited.add((x, y, port_out))
                    sx, sy = _PORT_STEP[port_out]
                    x, y = x + sx, y + sy
                    assert -8 <= x <= xmax and -8 <= y <= ymax, \
                        "mid-lattice trace escaped the patch region"
                    port_in = _OPPOSITE[port_out]
                    if (x, y, port_in) == (x0, y0, port0):
                        break
                loops += 1
        return loops

    def local_moves(self, config, model="hprime"):
        """Box and dual-box flips, excluding cells and vertices that
        meet the boundary."""
        if model != "hprime":
            raise ConfigInvalid("square disk carries the bond model")
        moves = []
        for j in range(1, self.h - 1):
            for i in range(1, self.w - 1):
                bonds = [("h", i, j), ("v", i + 1, j),
                         ("h", i, j + 1), ("v", i, j)]
                vals = [self._bond_plus(config, b) for b in bonds]
                free = [b for b in bonds if b in self._site_of]
                if sum(vals) == 4:
                    for b in free:
                        s = self._site_of[b]
                        moves.append((s, "box", config.flip(s), -1))
                elif sum(vals) == 3:
                    b = bonds[vals.index(False)]
                    if b in self._site_of:
                        s = self._site_of[b]
                        moves.append((s, "box", config.flip(s), 1))
        for j in range(2, self.h - 1):
            for i in range(2, self.w - 1):
                bonds = [("h", i, j), ("v", i, j),
                         ("h", i - 1, j), ("v", i, j - 1)]
                vals = [self._bond_plus(config, b) for b in bonds]
                free = [b for b in bonds if b in self._site_of]
                if sum(vals) == 0:
                    for b in free:
                        s = self._site_of[b]
                        moves.append((s, "dual-box", config.flip(s), -1))
                elif sum(vals) == 1:
                    b = bonds[vals.index(True)]
                    if b in self._site_of:
                        s = self._site_of[b]
                        moves.append((s, "dual-box", config.flip(s), 1))
        return moves

    def spec_dict(self):
        return {"kind": self.kind, "w": self.w, "h": self.h,
                "boundary": "+" if self.boundary_plus else "-"}


@functools.cache
def _disk_cluster_tables(w, h):
    """Static graphs of the w x h square disk for extract_walls.

    Bond k < nsites is free site k, and the fixed boundary bonds follow
    in the order of SquareDiskLattice.bonds.  primal[v] lists, for every
    bond at vertex v = j*(w+1) + i, (bond, other end, 0, 0) as in
    _square_wall_tables; dual[c] does the same over the cells c = j*w + i
    and the outer face c = w*h.  Nothing on a disk wraps, so every lift
    is zero.
    """
    lat = SquareDiskLattice(w, h)

    def cell(i, j):
        return j * w + i if 0 <= i < w and 0 <= j < h else w * h

    primal = [[] for _ in range((w + 1) * (h + 1))]
    dual = [[] for _ in range(w * h + 1)]
    for bond, (orient, i, j) in enumerate(lat.bonds()):
        v = j * (w + 1) + i
        if orient == "h":
            ends = ((v, v + 1), (cell(i, j - 1), cell(i, j)))
        else:
            ends = ((v, v + w + 1), (cell(i - 1, j), cell(i, j)))
        for graph, (a, b) in zip((primal, dual), ends):
            graph[a].append((bond, b, 0, 0))
            graph[b].append((bond, a, 0, 0))
    return tuple(map(tuple, primal)), tuple(map(tuple, dual))


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

    def local_moves(self, config, model="h0"):
        """Single-plaque flips of the plaque model.

        A g-move (isotopy, ratio 1) needs the wall to cross the plaque's
        hexagon in a single arc: the six neighbor spins form exactly one
        |+> run and one |-> run, and the center matches neither side
        completely.  An h-move (ratio d) needs the plaque and all its
        neighbors monochromatic; the flipped side gains a trivial loop.
        """
        if model != "h0":
            raise ConfigInvalid("hex torus carries the plaque model")
        moves = []
        for site in range(self.nsites):
            ring = [config.plus(n) for n in self.neighbors(site)]
            blocks = sum(1 for k in range(6) if ring[k] != ring[k - 1])
            if blocks == 0:
                if ring[0] == config.plus(site):
                    # flipping the center creates a loop around it
                    moves.append((site, "h", config.flip(site), 1))
                else:
                    # minority center: flipping erases its loop
                    moves.append((site, "h", config.flip(site), -1))
            elif blocks == 2:
                moves.append((site, "g", config.flip(site), 0))
        return moves

    def extract_walls(self, config):
        """Domain-wall census of the plaque model.

        Wall segments are hexagon edges dual to triangular-lattice
        edges whose endpoint spins differ; every wall vertex has degree
        0 or 2, so the wall is a disjoint union of loops.
        """
        w, h = self.w, self.h

        def tri_idx(kind, i, j):
            return 2 * ((j % h) * w + (i % w)) + kind

        # wall edges connect the two triangles sharing a lattice edge;
        # centers in units of thirds keep the lifts integral
        def center(kind, i, j):
            if kind == 0:
                return (3 * i + 2, 3 * j + 1)
            return (3 * i + 1, 3 * j + 2)

        adj = [[] for _ in range(2 * w * h)]
        n_edges = 0
        for j in range(h):
            for i in range(w):
                a = config.plus(self.site_index(i, j))
                # edge to (i+1, j): triangles 0@(i,j) and 1@(i,j-1)
                if a != config.plus(self.site_index(i + 1, j)):
                    self._add_wall(adj, tri_idx(0, i, j), center(0, i, j),
                                   tri_idx(1, i, j - 1), center(1, i, j - 1))
                    n_edges += 1
                # edge to (i, j+1): triangles 1@(i,j) and 0@(i-1,j)
                if a != config.plus(self.site_index(i, j + 1)):
                    self._add_wall(adj, tri_idx(1, i, j), center(1, i, j),
                                   tri_idx(0, i - 1, j), center(0, i - 1, j))
                    n_edges += 1
                # edge to (i+1, j+1): triangles 0@(i,j) and 1@(i,j)
                if a != config.plus(self.site_index(i + 1, j + 1)):
                    self._add_wall(adj, tri_idx(0, i, j), center(0, i, j),
                                   tri_idx(1, i, j), center(1, i, j))
                    n_edges += 1

        trivial, essential = self._walk_wall_loops(adj)

        incident, ends = _hex_cluster_tables(w, h)
        plus = [(config.bits >> site) & 1 for site in range(self.nsites)]
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

    def _add_wall(self, adj, ta, ca, tb, cb):
        # lift: nearest representative of cb - ca modulo the periods
        pw, ph = 3 * self.w, 3 * self.h
        dx = (cb[0] - ca[0] + pw // 2) % pw - pw // 2
        dy = (cb[1] - ca[1] + ph // 2) % ph - ph // 2
        adj[ta].append((tb, dx, dy))
        adj[tb].append((ta, -dx, -dy))

    def _walk_wall_loops(self, adj):
        pw, ph = 3 * self.w, 3 * self.h
        trivial = 0
        essential = []
        seen = [False] * len(adj)
        for start in range(len(adj)):
            if seen[start] or not adj[start]:
                continue
            # walk the degree-2 cycle
            seen[start] = True
            prev = start
            cur, dx, dy = adj[start][0]
            while cur != start:
                seen[cur] = True
                nxt = [e for e in adj[cur] if e[0] != prev]
                if not nxt:  # two-node loop: come back along the other edge
                    nxt = [e for e in adj[cur] if e != (prev, -dx, -dy)]
                step = nxt[0]
                prev = cur
                cur = step[0]
                dx += step[1]
                dy += step[2]
            assert dx % pw == 0 and dy % ph == 0
            wind = (dx // pw, dy // ph)
            if wind == (0, 0):
                trivial += 1
            else:
                essential.append(wind)
        return trivial, essential

    def spec_dict(self):
        return {"kind": self.kind, "w": self.w, "h": self.h}


@functools.cache
def _hex_cluster_tables(w, h):
    """Static graph of the w x h triangular lattice for extract_walls.

    Edge e = 3*site + k joins site (i, j) to its neighbor
    (i + di, j + dj), for the k-th of the offsets (1, 0), (1, 1),
    (0, 1); ends[e] is (site, neighbor), and incident[v] lists (edge,
    other end, dx, dy) as in _square_wall_tables.
    """
    lat = HexTorusLattice(w, h)
    incident = [[] for _ in range(lat.nsites)]
    ends = []
    for a in range(lat.nsites):
        i, j = lat.site_coords(a)
        for di, dj in _TRI_NEIGHBORS[:3]:
            b = lat.site_index(i + di, j + dj)
            incident[a].append((len(ends), b, di, dj))
            incident[b].append((len(ends), a, -di, -dj))
            ends.append((a, b))
    return tuple(map(tuple, incident)), tuple(ends)


# -- census of the whole state space ----------------------------------------

CENSUS_FIELDS = ("clusters", "dual_clusters", "wrapping_clusters",
                 "wrapping_dual_clusters", "loops", "essential_loops")
_CENSUS_CACHE = {}


class StateCensus:
    """Counts of every configuration of one lattice, indexed by state bits.

    Each name of CENSUS_FIELDS is a uint8 array of length 2^nsites.
    ``seconds`` is the time the build took.
    """

    def __init__(self, lattice, columns, seconds):
        self.nsites = lattice.nsites
        for name in CENSUS_FIELDS:
            setattr(self, name, columns[name])
        self.states = len(self.clusters)
        self.seconds = seconds
        # E and E* are stored only where E is not the popcount of the bits
        self._edges = (columns["plus_edges"], columns["minus_edges"]) \
            if "plus_edges" in columns else None

    def edge_counts(self):
        """(E, E*) per state: |+> and |-> edges, as uint8 arrays."""
        if self._edges is not None:
            return self._edges
        states = np.arange(self.states, dtype=np.uint32)
        plus = np.zeros(self.states, np.uint8)
        for site in range(self.nsites):
            plus += ((states >> site) & 1).astype(np.uint8)
        return plus, np.uint8(self.nsites) - plus


def _spec_key(lat):
    return tuple(sorted(lat.spec_dict().items()))


def census_cached(lat):
    """Whether census(lat) would be answered from the cache."""
    return _spec_key(lat) in _CENSUS_CACHE


def census(lat):
    """Census of all 2^N configurations of a lattice, built once.

    Returns a StateCensus whose uint8 arrays hold, per state bits,
    the cluster and dual-cluster counts, how many of each wrap the
    torus, the loop count and how many loops are essential.  The result
    is cached by ``lat.spec_dict()``.  Raises StateSpaceTooLarge, before
    allocating anything, when 2^N exceeds ENUM_STATE_CAP.

    The square torus is tabulated by the numpy kernels of
    torus_census over chunks of CENSUS_CHUNK states; other lattices call
    extract_walls per state (tabulate_by_walls), which also serves as
    the independent oracle of the kernels.
    """
    key = _spec_key(lat)
    hit = _CENSUS_CACHE.get(key)
    if hit is not None:
        return hit
    n = 1 << lat.nsites
    if n > ENUM_STATE_CAP:
        raise StateSpaceTooLarge("enumeration capped at %d states"
                                 % ENUM_STATE_CAP)
    t0 = time.perf_counter()
    if isinstance(lat, SquareTorusLattice):
        from .torus_census import tabulate_states
        columns = {name: np.empty(n, np.uint8) for name in CENSUS_FIELDS}
        for start in range(0, n, CENSUS_CHUNK):
            states = np.arange(start, min(n, start + CENSUS_CHUNK),
                               dtype=np.int64)
            for name, col in tabulate_states(lat, states).items():
                columns[name][start:start + len(states)] = col
    else:
        columns = tabulate_by_walls(lat, range(n))
    result = StateCensus(lat, columns, time.perf_counter() - t0)
    _CENSUS_CACHE[key] = result
    return result


def tabulate_by_walls(lat, states):
    """Census columns of the given states, one extract_walls call each.

    Besides CENSUS_FIELDS it returns plus_edges and minus_edges.
    """
    names = CENSUS_FIELDS + ("plus_edges", "minus_edges")
    rows = []
    for bits in states:
        c = lat.extract_walls(lat.config(int(bits)))
        rows.append((c.clusters, c.dual_clusters, c.wrapping_clusters,
                     c.wrapping_dual_clusters, c.loops,
                     len(c.essential_loops), c.plus_edges, c.minus_edges))
    table = np.array(rows, dtype=np.uint8)
    return {name: table[:, k].copy() for k, name in enumerate(names)}


class ComponentGraph:
    """One ergodic component under the local moves of a model."""

    def __init__(self, lattice, model, configs, edges, consistent, potentials):
        self.lattice = lattice
        self.model = model
        self.configs = configs          # canonical (sorted by bits)
        self.edges = edges              # (idx_a, idx_b, dexp, kind, site)
        self.consistent = consistent
        self.potentials = potentials    # d-exponent per config, or None

    @property
    def size(self):
        return len(self.configs)


def explore_component(seed, model=None, cap=COMPONENT_CAP):
    """BFS closure of a configuration under the admissible local moves.

    Edge weights are d-exponents; the component is ratio-consistent
    when the exponents are the gradient of a potential (every cycle
    multiplies to one).
    """
    lat = seed.lattice
    if model is None:
        model = "h0" if lat.kind == "hex-torus" else "hprime"
    seen = {seed.bits: 0}
    order = [seed]
    raw_edges = []
    queue = deque([seed])
    while queue:
        cur = queue.popleft()
        for site, kind, partner, dexp in lat.local_moves(cur, model):
            if partner.bits not in seen:
                if len(seen) >= cap:
                    raise ComponentCapExceeded(
                        "component exceeds %d states" % cap)
                seen[partner.bits] = len(order)
                order.append(partner)
                queue.append(partner)
            raw_edges.append((seen[cur.bits], seen[partner.bits],
                              dexp, kind, site))

    # canonical ordering by bits
    perm = sorted(range(len(order)), key=lambda k: order[k].bits)
    rank = [0] * len(order)
    for new, old in enumerate(perm):
        rank[old] = new
    configs = [order[old] for old in perm]
    edges = sorted((rank[a], rank[b], dexp, kind, site)
                   for a, b, dexp, kind, site in raw_edges)

    # ratio-consistency: propagate d-exponent potentials
    pot = [None] * len(configs)
    adj = [[] for _ in range(len(configs))]
    for a, b, dexp, _, _ in edges:
        adj[a].append((b, dexp))
        adj[b].append((a, -dexp))
    consistent = True
    pot[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v, dexp in adj[u]:
            if pot[v] is None:
                pot[v] = pot[u] + dexp
                queue.append(v)
            elif pot[v] != pot[u] + dexp:
                consistent = False
    return ComponentGraph(lat, model, configs, edges, consistent,
                          pot if consistent else None)


def lattice_from_spec(spec):
    """Build a lattice from a JSON-style spec dict (or JSON text)."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    kind = spec.get("kind")
    if kind == "square-torus":
        return SquareTorusLattice(spec["w"], spec["h"])
    if kind == "hex-torus":
        return HexTorusLattice(spec["w"], spec["h"])
    if kind == "square-disk":
        return SquareDiskLattice(spec["w"], spec["h"],
                                 spec.get("boundary", "-") == "+")
    raise ConfigInvalid("unknown lattice kind %r" % kind)


def extract_walls(config):
    return config.lattice.extract_walls(config)


def local_moves(config, model=None):
    lat = config.lattice
    if model is None:
        model = "h0" if lat.kind == "hex-torus" else "hprime"
    return lat.local_moves(config, model)
