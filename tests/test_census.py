"""The whole-state-space census against the per-state extract_walls
oracle, its capacity guard, and the sampler's two ways of finding dC."""

import tracemalloc

import numpy as np
import pytest

from looptl import gas
from looptl.errors import StateSpaceTooLarge
from looptl.lattice import (CENSUS_FIELDS, ENUM_STATE_CAP, HexTorusLattice,
                            SquareDiskLattice, SquareTorusLattice, census,
                            tabulate_by_walls)
from looptl.torus_census import tabulate_states


def _assert_columns_equal(got, want):
    for name in CENSUS_FIELDS:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("w,h", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1),
                                 (2, 2), (2, 3), (3, 2)])
def test_vectorised_census_matches_walls_on_every_state(w, h):
    lat = SquareTorusLattice(w, h)
    states = np.arange(1 << lat.nsites)
    _assert_columns_equal(tabulate_states(lat, states),
                          tabulate_by_walls(lat, states))


def test_cached_census_matches_walls_on_2x2():
    lat = SquareTorusLattice(2, 2)
    cen = census(lat)
    want = tabulate_by_walls(lat, range(256))
    _assert_columns_equal({name: getattr(cen, name)
                           for name in CENSUS_FIELDS}, want)
    assert census(SquareTorusLattice(2, 2)) is cen


def test_cached_census_matches_walls_on_seeded_3x3_states():
    lat = SquareTorusLattice(3, 3)
    cen = census(lat)
    assert cen.states == 1 << 18
    states = np.random.default_rng(20261018).integers(0, 1 << 18, 2500)
    want = tabulate_by_walls(lat, states)
    _assert_columns_equal({name: getattr(cen, name)[states]
                           for name in CENSUS_FIELDS}, want)


@pytest.mark.parametrize("lat", [
    SquareTorusLattice(4, 4), SquareTorusLattice(5, 3),
    SquareTorusLattice(3, 5), HexTorusLattice(5, 5),
    SquareDiskLattice(4, 4, boundary_plus=True),
], ids=["4-4", "5-3", "3-5", "hex-5x5", "disk-4x4-plus"])
def test_vectorised_census_matches_walls_past_the_census(lat):
    # no whole census exists at these sizes; seeded states still check
    # the oriented walks and their packing on larger lattices
    states = np.random.default_rng(20261019).integers(0, 1 << lat.nsites,
                                                      1500)
    _assert_columns_equal(tabulate_states(lat, states),
                          tabulate_by_walls(lat, states))


@pytest.mark.parametrize("lat,sample", [
    (SquareDiskLattice(2, 3), None),
    (SquareDiskLattice(2, 2, boundary_plus=True), None),
    (SquareDiskLattice(3, 3), None),
    (SquareDiskLattice(3, 3, boundary_plus=True), None),
    (HexTorusLattice(3, 3), None),
    (SquareDiskLattice(3, 4, boundary_plus=True), 2000),
    (HexTorusLattice(4, 4), 2000),
], ids=["disk-2x3-minus", "disk-2x2-plus", "disk-3x3-minus",
        "disk-3x3-plus", "hex-3x3", "disk-3x4-plus", "hex-4x4"])
def test_disk_and_hex_census_matches_extract_walls(lat, sample):
    cen = census(lat)
    states = np.arange(cen.states) if sample is None else \
        np.random.default_rng(20261020).integers(0, cen.states, sample)
    _assert_columns_equal({name: getattr(cen, name)[states]
                           for name in CENSUS_FIELDS},
                          tabulate_by_walls(lat, states))


def test_cap_raises_before_allocating():
    lat = SquareTorusLattice(4, 3)
    assert 1 << lat.nsites > ENUM_STATE_CAP
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLarge):
            census(lat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert gas.ENUM_STATE_CAP == ENUM_STATE_CAP


@pytest.mark.parametrize("size,sweeps,seed", [(2, 3000, 5), (3, 15000, 11)])
def test_sampler_table_and_search_give_the_same_chain(monkeypatch, size,
                                                      sweeps, seed):
    lat = SquareTorusLattice(size, size)
    g = gas.potts_params(2)
    assert gas._cluster_table(lat, sweeps) is not None
    with_table = gas.metropolis_sample(lat, g, sweeps, seed)
    monkeypatch.setattr(gas, "_cluster_table", lambda lat, sweeps: None)
    with_search = gas.metropolis_sample(lat, g, sweeps, seed)
    assert with_table.tallies == with_search.tallies
    assert with_table.accepted == with_search.accepted
    assert (with_table.mean_loops, with_table.mean_clusters,
            with_table.mean_dual_clusters) == \
        (with_search.mean_loops, with_search.mean_clusters,
         with_search.mean_dual_clusters)


def test_detailed_balance_catches_a_wrong_acceptance_entry(monkeypatch):
    lat = SquareTorusLattice(2, 2)
    g = gas.potts_params(2)
    assert gas.detailed_balance_check(lat, g) == (True, 1024)
    table = gas.acceptance_table(g)
    table[(1, 0)] *= 1 + 1e-9
    monkeypatch.setattr(gas, "acceptance_table", lambda model: table)
    assert gas.detailed_balance_check(lat, g)[0] is False


def test_detailed_balance_exact_in_number_field():
    ok, pairs = gas.detailed_balance_check(SquareTorusLattice(2, 2),
                                           gas.potts_params(3))
    assert ok and pairs == 1024
