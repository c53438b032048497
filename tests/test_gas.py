import math

import numpy as np
import pytest

from looptl import gas, torus_census
from looptl.errors import ConfigInvalid, StateSpaceTooLarge
from looptl.gas import (GibbsModel, detailed_balance_check,
                        exact_distribution, extensive_constant_report,
                        fk_weight, gibbs_law_check, homology_rule_report,
                        measurement_distribution, metropolis_sample,
                        potts_params, tv_distance)
from looptl.hamiltonian import build_hprime, kernel_propagate
from looptl.lattice import (HexTorusLattice, SquareDiskLattice,
                            SquareTorusLattice, census, explore_component)


def test_potts_params_exact():
    g1, g2, g3 = potts_params(1), potts_params(2), potts_params(3)
    assert (g1.q_float, g1.p_float) == (1.0, 0.5)
    assert g2.q_float == pytest.approx(4.0)
    assert g2.p_float == pytest.approx(2.0 / 3.0)
    # level 3: q = phi^4 = (7 + 3 sqrt 5)/2
    assert g3.q_float == pytest.approx((7 + 3 * math.sqrt(5)) / 2)
    assert g3.flags  # the 5.6-vs-6.854 discrepancy is flagged


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_parameter_invariants(ell):
    g = potts_params(ell)
    assert float(g.n * g.n) == pytest.approx(g.q_float)
    assert g.p_float / (1 - g.p_float) == pytest.approx(
        math.sqrt(g.q_float))


def test_invalid_level():
    with pytest.raises(ConfigInvalid):
        GibbsModel(0)


def test_fk_weight_forms_and_swap_self_duality():
    lat = SquareTorusLattice(2, 2)
    g = potts_params(2)
    for bits in range(256):
        config = lat.config(bits)
        _, wa, ca = fk_weight(config, g)
        _, wb, cb = fk_weight(lat.swap_dual(config), g)
        # swapping exchanges (C, E) with (C*, E*): at the self-dual
        # point the cluster-form weight changes by q^(C - C* + E - E*)/2
        # ... which the torus Euler relation makes constant; check the
        # exchange itself plus weight equality scaled by that constant
        assert (ca.clusters, ca.plus_edges) == \
            (cb.dual_clusters, cb.minus_edges)
    # self-duality of p: the map p -> 1-p corresponds to q^... ; check
    # the defining identity p/(1-p) = sqrt(q) exactly in the field
    assert g.p / (g.field.one - g.p) == g.n


def test_disk_extensive_constant_single():
    lat = SquareDiskLattice(2, 3)
    rep = extensive_constant_report(lat, potts_params(2))
    assert list(rep) == [(0, 0)]
    assert rep[(0, 0)]["spread"] < 1e-12


def test_torus_constants_per_homology_class():
    lat = SquareTorusLattice(2, 2)
    rep = extensive_constant_report(lat, potts_params(2))
    for info in rep.values():
        assert info["spread"] < 1e-12


@pytest.mark.parametrize("lat", [
    SquareTorusLattice(2, 2), HexTorusLattice(3, 3), HexTorusLattice(3, 4),
    SquareDiskLattice(2, 3), SquareDiskLattice(3, 3, boundary_plus=True),
], ids=["square-2x2", "hex-3x3", "hex-3x4", "disk-2x3-minus",
        "disk-3x3-plus"])
def test_homology_rule(lat):
    # on a disk nothing wraps, and the rule is the Euler identity
    # L = C + C*
    holds, bad = homology_rule_report(lat)
    assert holds and bad == 0


def test_detailed_balance_exhaustive():
    lat = SquareTorusLattice(2, 2)
    for ell in (1, 2):
        ok, pairs = detailed_balance_check(lat, potts_params(ell))
        assert ok
        assert pairs == 256 * 8 // 2


def test_exact_distribution_normalized_and_uniform_at_level_one():
    lat = SquareTorusLattice(2, 2)
    probs, w, _ = exact_distribution(lat, potts_params(1))
    assert probs.sum() == pytest.approx(1.0)
    # q = 1, p = 1/2: all configurations equally likely
    assert np.allclose(probs, 1.0 / 256)


def test_exact_distribution_cap():
    with pytest.raises(StateSpaceTooLarge):
        exact_distribution(SquareTorusLattice(4, 3), potts_params(2))


def test_sampler_deterministic_and_converges_2x2():
    lat = SquareTorusLattice(2, 2)
    g = potts_params(2)
    rec1 = metropolis_sample(lat, g, 30_000, seed=5)
    rec2 = metropolis_sample(lat, g, 30_000, seed=5)
    assert len(rec1.chain_sweeps) == 120
    assert rec1.tallies.states.tobytes() == rec2.tallies.states.tobytes()
    assert rec1.tallies.weights.tobytes() == rec2.tallies.weights.tobytes()
    assert rec1.summary() == rec2.summary()
    probs, _, _ = exact_distribution(lat, g)
    assert tv_distance(rec1, probs) < 0.05
    assert 0.0 < rec1.acceptance_rate < 1.0


def test_sampler_mean_observables_match_enumeration():
    lat = SquareTorusLattice(2, 2)
    g = potts_params(2)
    rec = metropolis_sample(lat, g, 20_000, seed=9)
    probs, _, cen = exact_distribution(lat, g)
    exp_loops = sum(p * n for p, n in zip(probs, cen.loops.tolist()))
    # crude 3-standard-error band from the chain's own spread
    assert abs(rec.mean_loops - exp_loops) < 0.1
    # and 4 standard errors of the mean across the 80 chains
    assert abs(rec.mean_loops - exp_loops) < 4 * rec.mean_loops_stderr


def test_measurement_distribution_gibbs_ratio():
    lat = SquareTorusLattice(2, 2)
    cs = build_hprime(lat, 2)
    kb = kernel_propagate(cs)
    comp = int(kb.comp[255])
    probs = measurement_distribution(kb, comp)
    assert sum(probs.values()) == pytest.approx(1.0)
    assert gibbs_law_check(kb, comp, lat) < 1e-12
    # a move from the all-plus state changes the loop count by dexp:
    # probability ratio d^(2 dexp)
    graph = explore_component(lat.config(255), "hprime")
    k = np.flatnonzero(graph.states[graph.a] == 255)[0]
    dexp = int(graph.dexp[k])
    bits_b = int(graph.states[graph.b[k]])
    assert probs[bits_b] / probs[255] == pytest.approx(
        float(kb.d) ** (2 * dexp))


@pytest.mark.parametrize("shift", ["pot", "loops"])
def test_gibbs_law_spread_is_exact(monkeypatch, shift):
    lat = SquareTorusLattice(3, 3)
    kb = kernel_propagate(build_hprime(lat, 2))
    comp = int(kb.comp[12345])
    spread = gibbs_law_check(kb, comp, lat)
    assert type(spread) is int and spread == 0
    # one state's pot, or one census loop count, shifted by 1
    if shift == "pot":
        pot = kb.pot.copy()
        pot[12345] += 1
        kb = type(kb)(kb.dimension, kb.method, comp=kb.comp, pot=pot,
                      d=kb.d)
    else:
        cen = census(lat)
        loops = cen.loops.copy()
        loops[12345] -= 1
        monkeypatch.setattr(gas, "census", lambda lat: type(
            "Census", (), {"loops": loops})())
    assert gibbs_law_check(kb, comp, lat) == 1
    # another component, which the shifted state is not in
    other = int(kb.comp[np.flatnonzero(kb.comp != comp)[0]])
    assert gibbs_law_check(kb, other, lat) == 0


def test_sampler_rejects_lattices_other_than_square_torus():
    with pytest.raises(ConfigInvalid, match="square torus"):
        metropolis_sample(SquareDiskLattice(2, 2), potts_params(2), 10, 0)


@pytest.mark.parametrize("w,h,sweeps,lengths", [
    (2, 2, 499, [499]), (2, 2, 2051, [257] * 3 + [256] * 5),
    (4, 3, 501, [251, 250])],
    ids=["one-chain", "uneven", "past-the-census"])
def test_sampler_splits_sweeps_over_lockstep_chains(w, h, sweeps, lengths):
    lat = SquareTorusLattice(w, h)
    rec = metropolis_sample(lat, potts_params(2), sweeps, seed=3)
    assert rec.chain_sweeps.tolist() == lengths
    assert rec.proposed == sweeps * lat.nsites
    assert rec.oracle_checks == 1 + lengths[0]
    rep = rec.summary()
    assert (rep["chains"], rep["sweeps_per_chain"]) == \
        (len(lengths), [lengths[-1], lengths[0]])
    assert (rep["mean_loops_stderr"] is None) == (len(lengths) == 1)


@pytest.mark.parametrize("sweeps", [1, 249, 250, 500, 1_024_001, 10**7 + 5])
def test_chain_lengths_differ_by_at_most_one(sweeps):
    split = gas.chain_lengths(sweeps)
    assert len(split) == max(1, min(4096, sweeps // 250))
    assert split.sum() == sweeps and split.max() - split.min() <= 1
    assert (np.diff(split) <= 0).all()  # longest first


def _no_philox(seed):
    raise AssertionError("the chain drew before it checked its input")


@pytest.mark.parametrize("sweeps", [0, -3])
def test_sampler_rejects_fewer_than_one_sweep(monkeypatch, sweeps):
    monkeypatch.setattr(gas.np.random, "Philox", _no_philox)
    with pytest.raises(ConfigInvalid, match="sweep"):
        metropolis_sample(SquareTorusLattice(2, 2), potts_params(2),
                          sweeps, 0)


def test_sampler_bond_cap(monkeypatch):
    # 62 bonds is the largest state the chain's int64 draw can hold
    rec = metropolis_sample(SquareTorusLattice(31, 1), potts_params(2), 1, 5)
    assert rec.proposed == 62 == gas.SAMPLER_BOND_CAP
    monkeypatch.setattr(gas.np.random, "Philox", _no_philox)
    with pytest.raises(StateSpaceTooLarge):
        metropolis_sample(SquareTorusLattice(32, 1), potts_params(2), 1, 5)


def _reference_chains(lat, model, sweeps, seed):
    """The sampler as plain loops with running dict tallies, on the same
    Philox draws: K = min(4096, sweeps // 250) chains, at least one, the
    first sweeps % K of them one sweep longer; per sweep a (K, N) block
    of bond orders and a (K, N) block of uniforms, row k for chain k;
    proposals taken bond position by bond position, chain 0 first.  dC
    and the measured counts are read from the census.  Returns (tallies,
    accepted, [mean L, mean C, mean C*], rows), where each measured sweep
    adds the row (sweep, L, C, C* of chain 0, acceptance rate so far)."""
    cen = census(lat)
    clusters, loops = cen.clusters.tolist(), cen.loops.tolist()
    dual = cen.dual_clusters.tolist()
    acc = gas.acceptance_table(model)
    rng = np.random.Generator(np.random.Philox(seed))
    nb = lat.nsites
    chains = max(1, min(4096, sweeps // 250))
    lengths = [sweeps // chains + (k < sweeps % chains)
               for k in range(chains)]
    measure_every = max(1, lengths[0] // 10_000)
    states = rng.integers(0, 1 << nb, size=chains).tolist()
    tallies, accepted, sums, n_meas = {}, 0, [0.0, 0.0, 0.0], 0
    proposed, rows = 0, []
    for sweep in range(lengths[0]):
        active = sum(1 for n in lengths if n > sweep)
        bonds = rng.permuted(np.tile(np.arange(nb), (active, 1)), axis=1)
        us = rng.random((active, nb))
        for j in range(nb):
            for k in range(active):
                bits, bond, u = states[k], int(bonds[k, j]), float(us[k, j])
                flipped = bits ^ (1 << bond)
                r = acc[(clusters[flipped] - clusters[bits],
                         (bits >> bond) & 1)]
                ra = r if r < 1.0 else 1.0
                tallies[flipped] = tallies.get(flipped, 0.0) + ra
                if ra < 1.0:
                    tallies[bits] = tallies.get(bits, 0.0) + (1.0 - ra)
                if r >= 1.0 or u < r:
                    states[k] = flipped
                    accepted += 1
        proposed += active * nb
        if sweep % measure_every == 0:
            for bits in states[:active]:
                for i, col in enumerate((loops, clusters, dual)):
                    sums[i] += col[bits]
                n_meas += 1
            rows.append((sweep, loops[states[0]], clusters[states[0]],
                         dual[states[0]], accepted / proposed))
    return tallies, accepted, [s / n_meas for s in sums], rows


def _reference_tv(tallies, probs):
    total = 0.0
    for _, count in sorted(tallies.items()):
        total += count
    acc = seen = 0.0
    for bits, count in sorted(tallies.items()):
        acc += abs(count / total - probs[bits])
        seen += probs[bits]
    acc += 1.0 - seen
    return acc / 2.0


def _bit_for_bit_cases():
    for size, sweeps, seed in [(2, 3000, 5), (3, 2500, 11), (2, 2051, 7)]:
        yield pytest.param(size, sweeps, seed, 2,
                           id="%d-%d-%d" % (size, sweeps, seed))
    # l = 1: q = 1, p = 1/2, every ratio is 1 and every pre-move term
    # 0.0; every flip is taken, so within one sweep the chain never
    # returns to its start, which gets a 0.0 term and no visit
    yield pytest.param(3, 1, 11, 1, id="3-1-11-ell1")
    # l = 3: q = (7+3*sqrt(5))/2 is irrational, so the tally terms are
    # not dyadic and a state's sum taken in another order shows in its
    # bytes
    yield pytest.param(2, 3000, 5, 3, id="2-3000-5-ell3")


@pytest.mark.parametrize("path", ["table", "kernel", "dict-slots"])
@pytest.mark.parametrize("size,sweeps,seed,ell", _bit_for_bit_cases())
def test_sampler_matches_dict_reference_bit_for_bit(monkeypatch, path,
                                                    size, sweeps, seed, ell):
    lat = SquareTorusLattice(size, size)
    g = potts_params(ell)
    tallies, accepted, means, rows = _reference_chains(lat, g, sweeps, seed)
    dense = metropolis_sample(lat, g, sweeps, seed)
    if path == "kernel":
        monkeypatch.setattr(gas, "_cluster_table", lambda lat: None)
    elif path == "dict-slots":
        # the sampler's view of the cap: C by the kernel, tallies in a dict
        monkeypatch.setattr(gas, "ENUM_STATE_CAP", 1)
    reads = []
    read = torus_census.cluster_counts

    def counted_read(lat, states):
        reads.append(len(states))
        return read(lat, states)
    monkeypatch.setattr(torus_census, "cluster_counts", counted_read)
    rec = metropolis_sample(lat, g, sweeps, seed, record_rows=True)
    # below the cap the census serves every C; past it the kernel reads
    # C of every chain's flipped state once per lockstep step
    if path == "table":
        assert reads == []
    else:
        assert len(reads) == rec.chain_sweeps[0] * lat.nsites
        assert sum(reads) == rec.proposed
    states, weights = rec.tallies.states, rec.tallies.weights
    assert states.dtype == np.int64 and np.all(np.diff(states) > 0)
    assert np.all(weights > 0.0)
    assert states.tolist() == sorted(tallies)
    assert dict(zip(states.tolist(), weights.tolist())) == tallies
    assert len(rec.tallies) == len(tallies)
    assert states.tobytes() == dense.tallies.states.tobytes()
    assert weights.tobytes() == dense.tallies.weights.tobytes()
    assert rec.accepted == accepted
    assert rec.proposed == sweeps * lat.nsites
    assert [rec.mean_loops, rec.mean_clusters, rec.mean_dual_clusters] \
        == means
    # chain 0's measured rows; past the cap ("dict-slots") L, C and C*
    # come from the batched census kernel, not the census table
    assert rec.rows == rows
    total = 0.0
    for _, count in sorted(tallies.items()):
        total += count
    assert rec.sample_size == total
    probs, _, _ = exact_distribution(lat, g)
    assert tv_distance(rec, probs) == _reference_tv(tallies, probs)


@pytest.mark.parametrize("size,sweeps,longest", [
    ((2, 2), 2051, 257), ((4, 3), 501, 251)],
    ids=["dense", "past-the-census"])
def test_tallies_are_added_once_per_sweep(monkeypatch, size, sweeps,
                                          longest):
    # one scatter per sweep of the longest chain, never one per step
    shapes = []
    add = gas._TallyStore.add

    def counted(self, before, after, ratios):
        shapes.append(before.shape)
        return add(self, before, after, ratios)
    monkeypatch.setattr(gas._TallyStore, "add", counted)
    rec = metropolis_sample(SquareTorusLattice(*size), potts_params(2),
                            sweeps, seed=7)
    assert len(shapes) == rec.chain_sweeps[0] == longest
    assert sum(steps * chains for steps, chains in shapes) == rec.proposed


def test_tallies_are_a_read_only_mapping():
    lat = SquareTorusLattice(2, 2)
    rec = metropolis_sample(lat, potts_params(2), 200, seed=1)
    t = rec.tallies
    with pytest.raises(ValueError):
        t.states[0] = 0
    with pytest.raises(ValueError):
        t.weights[0] = 0.0
