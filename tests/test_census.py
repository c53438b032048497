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
from looptl.torus_census import (_TABLES, canonical_states, cayley_table,
                                 cluster_counts, tabulate_states)


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
    want = tabulate_by_walls(lat, states)
    _assert_columns_equal(tabulate_states(lat, states), want)
    # the sampler's C reader past the state cap
    assert np.array_equal(cluster_counts(lat, states), want["clusters"])


@pytest.mark.parametrize("lat,sample", [
    # no free bond: one state
    (SquareDiskLattice(1, 1), None),
    (SquareDiskLattice(3, 1, boundary_plus=True), None),
    (SquareDiskLattice(2, 3), None),
    (SquareDiskLattice(2, 2, boundary_plus=True), None),
    (SquareDiskLattice(3, 3), None),
    (SquareDiskLattice(3, 3, boundary_plus=True), None),
    (HexTorusLattice(3, 3), None),
    (SquareDiskLattice(3, 4, boundary_plus=True), 2000),
    (HexTorusLattice(4, 4), 2000),
], ids=["disk-1x1", "disk-3x1-plus", "disk-2x3-minus", "disk-2x2-plus",
        "disk-3x3-minus", "disk-3x3-plus", "hex-3x3", "disk-3x4-plus",
        "hex-4x4"])
def test_disk_and_hex_census_matches_extract_walls(lat, sample):
    cen = census(lat)
    states = np.arange(cen.states) if sample is None else \
        np.random.default_rng(20261020).integers(0, cen.states, sample)
    _assert_columns_equal({name: getattr(cen, name)[states]
                           for name in CENSUS_FIELDS},
                          tabulate_by_walls(lat, states))


def _symmetry(lat):
    return _TABLES[lat.kind](lat).symmetry


def _cycles(perm):
    seen, count = set(), 0
    for start in range(len(perm)):
        count += start not in seen
        while start not in seen:
            seen.add(start)
            start = perm[start]
    return count


@pytest.mark.parametrize("lat,orbits", [
    (SquareTorusLattice(3, 3), 29184), (SquareTorusLattice(3, 2), 700),
    (HexTorusLattice(4, 4), 4156), (HexTorusLattice(3, 4), 352),
    # the disks' group: the two mirrors and the half turn
    (SquareDiskLattice(3, 3), 1104), (SquareDiskLattice(3, 4), 33408),
], ids=["3x3", "3x2", "hex-4x4", "hex-3x4", "disk-3x3", "disk-3x4"])
def test_orbit_count_is_burnside_count(lat, orbits):
    group = _symmetry(lat)
    assert len({tuple(g) for g in group}) == len(group)
    assert all(sorted(g) == list(range(lat.nsites)) for g in group)
    # Burnside: orbits = (1/|G|) sum over g of 2^(cycles of g)
    fixed = sum(1 << _cycles(g) for g in group)
    assert fixed == orbits * len(group)
    assert census(lat).orbits == orbits


def _image(perm, state):
    """state with bit s moved to bit perm[s], bit by bit."""
    return sum(1 << perm[s] for s in range(len(perm)) if state >> s & 1)


@pytest.mark.parametrize("lat,subgroup", [
    (SquareTorusLattice(3, 2), None),
    # the translations along x alone
    (SquareTorusLattice(3, 2), [0, 1, 2]),
    (SquareDiskLattice(3, 3), None),
    (SquareDiskLattice(2, 3, boundary_plus=True), None),
    # one cell wide: the mirror across that width moves no bond
    (SquareDiskLattice(4, 1), None),
    (HexTorusLattice(3, 3), None),
    (HexTorusLattice(3, 3), [0]),
], ids=["3x2", "3x2-x-shifts", "disk-3x3-minus", "disk-2x3-plus",
        "disk-4x1", "hex-3x3", "hex-3x3-identity"])
def test_canonical_element_takes_the_least_state_back(lat, subgroup):
    group = _symmetry(lat)
    if subgroup is not None:
        group = group[subgroup]
    perms = group.tolist()
    # a group lists each permutation once, the identity first
    assert len(set(map(tuple, perms))) == len(perms)
    assert perms[0] == list(range(lat.nsites))
    seen = 0
    for states, canon, elem in canonical_states(lat, group):
        for x, least, e in zip(states.tolist(), canon.tolist(),
                               elem.tolist()):
            assert least == min(_image(perm, x) for perm in perms)
            assert _image(perms[e], least) == x
            assert e == 0 or least != x
            seen += 1
    assert seen == 1 << lat.nsites


@pytest.mark.parametrize("lat", [SquareTorusLattice(3, 2),
                                 SquareDiskLattice(3, 3),
                                 HexTorusLattice(3, 4)],
                         ids=["3x2", "disk-3x3", "hex-3x4"])
def test_cayley_table_composes_the_permutations(lat):
    perms = _symmetry(lat).tolist()
    mul, inverse = cayley_table(_symmetry(lat))
    for a, pa in enumerate(perms):
        assert perms[inverse[a]] == sorted(range(len(pa)), key=pa.__getitem__)
        for b, pb in enumerate(perms):
            # b first, then a
            assert perms[mul[a, b]] == [pa[pb[s]] for s in range(len(pa))]


@pytest.mark.parametrize("lat", [
    SquareTorusLattice(1, 1), SquareTorusLattice(1, 2),
    SquareTorusLattice(2, 1), SquareTorusLattice(2, 2),
    SquareTorusLattice(2, 3), SquareTorusLattice(3, 2),
    HexTorusLattice(3, 3), HexTorusLattice(3, 4),
    SquareDiskLattice(2, 3), SquareDiskLattice(2, 2, boundary_plus=True),
    SquareDiskLattice(3, 3), SquareDiskLattice(3, 3, boundary_plus=True),
    SquareDiskLattice(3, 4, boundary_plus=True),
], ids=["1x1", "1x2", "2x1", "2x2", "2x3", "3x2", "hex-3x3", "hex-3x4",
        "disk-2x3-minus", "disk-2x2-plus", "disk-3x3-minus",
        "disk-3x3-plus", "disk-3x4-plus"])
def test_census_through_orbits_matches_every_state(lat):
    cen = census(lat)
    chunks = [tabulate_states(lat, np.arange(lo, min(lo + 4096, cen.states)))
              for lo in range(0, cen.states, 4096)]
    for name in CENSUS_FIELDS:
        want = np.concatenate([chunk[name] for chunk in chunks])
        assert getattr(cen, name).tobytes() == want.tobytes(), name


@pytest.mark.parametrize("lat,order", [
    (SquareTorusLattice(4, 4), 16), (SquareTorusLattice(5, 3), 15),
    (HexTorusLattice(5, 5), 25), (SquareDiskLattice(4, 3), 4),
    (SquareDiskLattice(3, 4, boundary_plus=True), 4),
], ids=["4x4", "5x3", "hex-5x5", "disk-4x3-minus", "disk-3x4-plus"])
def test_walls_are_invariant_under_the_census_symmetries(lat, order):
    # the census reads one row per orbit; the per-state oracle must give
    # every image of a state the counts of the state itself
    states = np.random.default_rng(20261021).integers(0, 1 << lat.nsites,
                                                      100)
    want = tabulate_by_walls(lat, states)
    bits = (states[:, None] >> np.arange(lat.nsites)) & 1
    group = _symmetry(lat)
    assert len(group) == order
    for perm in group[1:]:
        images = (bits << perm).sum(1)
        assert not np.array_equal(images, states)
        _assert_columns_equal(tabulate_by_walls(lat, images), want)


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
    assert gas._cluster_table(lat) is not None
    with_table = gas.metropolis_sample(lat, g, sweeps, seed)
    monkeypatch.setattr(gas, "_cluster_table", lambda lat: None)
    with_kernel = gas.metropolis_sample(lat, g, sweeps, seed)
    for name in ("states", "weights"):
        assert getattr(with_table.tallies, name).tobytes() == \
            getattr(with_kernel.tallies, name).tobytes()
    assert with_table.accepted == with_kernel.accepted
    # the means, acceptance, sample size, visited states, checks
    assert with_table.summary() == with_kernel.summary()


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
