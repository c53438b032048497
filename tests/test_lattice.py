import json
import os
import subprocess
import sys
from collections import Counter

import networkx as nx
import numpy as np
import pytest

from looptl import lattice
from looptl.errors import ComponentCapExceeded, ConfigInvalid
from looptl.hamiltonian import build_h0, build_hprime, kernel_propagate
from looptl.lattice import (HexTorusLattice, SquareDiskLattice,
                            SquareTorusLattice, explore_component,
                            lattice_from_spec)


def test_all_plus_walls_3x3():
    lat = SquareTorusLattice(3, 3)
    census = lat.extract_walls(lat.all_plus())
    assert census.clusters == 1
    assert census.dual_clusters == 9
    assert census.trivial_loops == 9
    assert census.essential_loops == []


def test_single_plus_bond_3x3():
    lat = SquareTorusLattice(3, 3)
    config = lat.config(1 << lat.bond_index(0, 0, 0))
    census = lat.extract_walls(config)
    # 7 isolated vertices + the 2-vertex cluster
    assert census.clusters == 8
    assert census.dual_clusters == 1
    assert census.loops == 8
    assert census.essential_loops == []


def test_staircase_essential_loops():
    lat = SquareTorusLattice(3, 3)
    census = lat.extract_walls(lat.staircase())
    windings = sorted(census.essential_loops)
    # the two sides of the diagonal annulus; one unoriented (1,1) class
    assert windings == [(-1, -1), (1, 1)]
    small = SquareTorusLattice(2, 2)
    c2 = small.extract_walls(small.staircase())
    assert sorted(c2.essential_loops) == [(-1, -1), (1, 1)]
    assert c2.trivial_loops == 0


@pytest.mark.parametrize("lat", [SquareTorusLattice(2, 3),
                                 HexTorusLattice(3, 3)],
                         ids=["square-2x3", "hex-3x3"])
def test_windings_are_oriented(lat):
    # with |+> on the left, the walls of the two sides of a wrapping
    # band wind opposite ways
    counts = Counter()
    for bits in range(1 << lat.nsites):
        counts.update(lat.extract_walls(lat.config(bits)).essential_loops)
    assert counts
    for (x, y), n in counts.items():
        assert counts[(-x, -y)] == n, (x, y)


def test_staircase_requires_square():
    with pytest.raises(ConfigInvalid):
        SquareTorusLattice(3, 2).staircase()


@pytest.mark.parametrize("bits", range(0, 256, 7))
def test_torus_trivial_loop_rule_2x2(bits):
    lat = SquareTorusLattice(2, 2)
    c = lat.extract_walls(lat.config(bits))
    assert c.trivial_loops == (c.clusters + c.dual_clusters
                               - c.wrapping_clusters
                               - c.wrapping_dual_clusters)


def test_disk_euler_identity_all_configs():
    lat = SquareDiskLattice(2, 3)
    for bits in range(1 << lat.nsites):
        c = lat.extract_walls(lat.config(bits))
        assert c.loops == c.clusters + c.dual_clusters


def test_swap_dual_exchanges_censuses():
    lat = SquareTorusLattice(2, 2)
    for bits in range(256):
        config = lat.config(bits)
        a = lat.extract_walls(config)
        b = lat.extract_walls(lat.swap_dual(config))
        assert (a.clusters, a.plus_edges) == (b.dual_clusters, b.minus_edges)
        assert a.loops == b.loops


def test_hex_swap_preserves_walls():
    lat = HexTorusLattice(3, 3)
    for bits in range(512):
        a = lat.extract_walls(lat.config(bits))
        b = lat.extract_walls(lat.config(bits).swap())
        assert a.trivial_loops == b.trivial_loops
        assert sorted(a.essential_loops) == sorted(b.essential_loops)
        assert (a.clusters, a.dual_clusters) == (b.dual_clusters, b.clusters)


@pytest.mark.parametrize("model,make", [
    ("hprime", lambda: SquareTorusLattice(2, 2)),
    ("h0", lambda: HexTorusLattice(3, 3)),
])
def test_moves_are_symmetric_and_loop_graded(model, make):
    # the components of seeds that together cover every state
    lat = make()
    covered = set()
    for bits in range(1 << lat.nsites):
        if bits in covered:
            continue
        graph = explore_component(lat.config(bits), model)
        covered.update(graph.states.tolist())
        loops = [lat.extract_walls(c).loops for c in graph.configs]
        triples = list(zip(graph.a.tolist(), graph.b.tolist(),
                           graph.dexp.tolist()))
        edges = set(triples)
        for (a, b, dexp), site in zip(triples, graph.site.tolist()):
            assert graph.states[a] ^ graph.states[b] == 1 << site
            assert loops[b] - loops[a] == dexp
            assert (b, a, -dexp) in edges
    assert len(covered) == 1 << lat.nsites


@pytest.mark.parametrize("make,seeds", [
    (lambda: build_hprime(SquareTorusLattice(2, 2), 2), [0, 0x96, 0xff]),
    (lambda: build_hprime(SquareTorusLattice(3, 2), 2), [0, 5, 0x2a7]),
    (lambda: build_h0(HexTorusLattice(3, 3), 2), [0, 0b101100, 0x1ff]),
], ids=["hprime-2x2", "hprime-3x2", "h0-hex-3x3"])
def test_components_match_ratio_propagation(make, seeds):
    cs = make()
    kb = kernel_propagate(cs)
    for bits in seeds:
        graph = explore_component(cs.lattice.config(bits), cs.model)
        states = np.flatnonzero(kb.comp == kb.comp[bits])
        assert graph.states.tolist() == states.tolist()
        assert graph.consistent
        assert graph.pot.tolist() == (kb.pot[states]
                                      - kb.pot[states[0]]).tolist()


def test_staircase_frozen_2x2():
    lat = SquareTorusLattice(2, 2)
    graph = explore_component(lat.staircase(), model="hprime")
    assert len(graph.configs) == 1


def test_staircases_share_component_3x3():
    lat = SquareTorusLattice(3, 3)
    graph = explore_component(lat.staircase(0), model="hprime")
    assert graph.consistent
    members = {c.bits for c in graph.configs}
    for offset in range(3):
        assert lat.staircase(offset).bits in members


def test_component_walk_leaves_numpy_ma_unimported():
    # numpy.ma costs about 15 ms to import; np.union1d would pull it in
    import looptl
    src = os.path.dirname(os.path.dirname(looptl.__file__))
    script = (
        "import sys\n"
        "from looptl.lattice import SquareTorusLattice, explore_component\n"
        "graph = explore_component(SquareTorusLattice(3, 3).staircase(0),"
        " model='hprime')\n"
        "print(len(graph.configs), 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3834", "False"]


def test_component_cap(monkeypatch):
    lat = SquareTorusLattice(3, 3)
    monkeypatch.setattr(lattice, "COMPONENT_CAP", 10)
    with pytest.raises(ComponentCapExceeded):
        explore_component(lat.all_plus(), model="hprime")
    # the staircase component has 3,834 states: a cap of that size admits
    # it, and one state less refuses the level that passes it
    seed = lat.staircase(0)
    monkeypatch.setattr(lattice, "COMPONENT_CAP", 3834)
    assert len(explore_component(seed, model="hprime").states) == 3834
    monkeypatch.setattr(lattice, "COMPONENT_CAP", 3833)
    with pytest.raises(ComponentCapExceeded, match="exceeds 3833 states"):
        explore_component(seed, model="hprime")


def test_lattice_from_spec_roundtrip():
    lat = SquareTorusLattice(3, 2)
    spec = json.dumps(lat.spec_dict())
    again = lattice_from_spec(json.loads(spec))
    assert again.spec_dict() == lat.spec_dict()
    hexlat = HexTorusLattice(3, 4)
    assert lattice_from_spec(hexlat.spec_dict()).spec_dict() == \
        hexlat.spec_dict()


def _kept_components(nodes, edges, leave_out=None):
    """Components of the graph on nodes with the given edges, not
    counting the one that holds leave_out."""
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    if leave_out is None:
        return nx.number_connected_components(g)
    return sum(1 for comp in nx.connected_components(g)
               if leave_out not in comp)


def _hex_clusters(lat, config, plus):
    sites = [s for s in range(lat.nsites) if config.plus(s) == plus]
    return _kept_components(sites, [
        (s, t) for s in sites for t in lat.neighbors(s)
        if config.plus(t) == plus])


def _disk_clusters(lat, config, plus):
    w, h = lat.w, lat.h

    def cell(i, j):
        return (i, j) if 0 <= i < w and 0 <= j < h else "outer"

    edges = []
    for bond in lat.bonds():
        orient, i, j = bond
        if lat._bond_plus(config, bond) != plus:
            continue
        if plus:
            edges.append(((i, j), (i + 1, j) if orient == "h" else (i, j + 1)))
        else:
            edges.append((cell(i, j), cell(i, j - 1) if orient == "h"
                          else cell(i - 1, j)))
    if plus:
        return _kept_components(
            [(i, j) for i in range(w + 1) for j in range(h + 1)], edges)
    return _kept_components(
        [(i, j) for i in range(w) for j in range(h)] + ["outer"], edges,
        leave_out="outer")


@pytest.mark.parametrize("lat,count", [
    (HexTorusLattice(3, 3), _hex_clusters),
    (SquareDiskLattice(3, 3, False), _disk_clusters),
    (SquareDiskLattice(3, 3, True), _disk_clusters),
], ids=["hex-3x3", "disk-3x3-minus", "disk-3x3-plus"])
def test_cluster_counts_match_networkx(lat, count):
    for bits in range(1 << lat.nsites):
        config = lat.config(bits)
        walls = lat.extract_walls(config)
        assert walls.clusters == count(lat, config, True), bits
        assert walls.dual_clusters == count(lat, config, False), bits
