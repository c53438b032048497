import math

import numpy as np
import pytest

from looptl import gas
from looptl.errors import ConfigInvalid, StateSpaceTooLarge
from looptl.gas import (GibbsModel, detailed_balance_check,
                        exact_distribution, extensive_constant_report,
                        fk_weight, gibbs_law_check, homology_rule_report,
                        measurement_distribution, metropolis_sample,
                        potts_params, tv_distance)
from looptl.hamiltonian import build_hprime, kernel_propagate
from looptl.lattice import (HexTorusLattice, SquareDiskLattice,
                            SquareTorusLattice, census)


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
    assert rec1.tallies == rec2.tallies
    probs, _, _ = exact_distribution(lat, g)
    assert tv_distance(rec1, probs) < 0.05
    assert 0.0 < rec1.acceptance_rate < 1.0


def test_sampler_mean_observables_match_enumeration():
    lat = SquareTorusLattice(2, 2)
    g = potts_params(2)
    rec = metropolis_sample(lat, g, 20_000, seed=9, measure_every=5)
    probs, _, censuses = exact_distribution(lat, g, keep_censuses=True)
    exp_loops = sum(p * c.loops for p, c in zip(probs, censuses))
    # crude 3-standard-error band from the chain's own spread
    assert abs(rec.mean_loops - exp_loops) < 0.1


def test_measurement_distribution_gibbs_ratio():
    lat = SquareTorusLattice(2, 2)
    cs = build_hprime(lat, 2)
    kb = kernel_propagate(cs)
    comp = int(kb.comp[255])
    probs = measurement_distribution(kb, comp)
    assert sum(probs.values()) == pytest.approx(1.0)
    # two configurations differing by one trivial loop: ratio d^2
    items = sorted(probs.items())
    assert gibbs_law_check(kb, comp, lat) < 1e-12
    bits_a = 255
    move = lat.local_moves(lat.config(bits_a), "hprime")[0]
    bits_b = move[2].bits
    assert probs[bits_b] / probs[bits_a] == pytest.approx(
        float(kb.d) ** (2 * move[3]))


def test_sampler_rejects_lattices_other_than_square_torus():
    with pytest.raises(ConfigInvalid, match="square torus"):
        metropolis_sample(SquareDiskLattice(2, 2), potts_params(2), 10, 0)


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


def _reference_chain(lat, model, sweeps, seed):
    """The sampler as a plain loop with running dict tallies, on the
    same Philox draws; dC and the measured counts are read from the
    census.  Returns (tallies, accepted, mean L, mean C, mean C*)."""
    cen = census(lat)
    clusters, loops = cen.clusters.tolist(), cen.loops.tolist()
    dual = cen.dual_clusters.tolist()
    acc = gas.acceptance_table(model)
    rng = np.random.Generator(np.random.Philox(seed))
    nb = lat.nsites
    measure_every = max(1, sweeps // 10_000)
    bits = int(rng.integers(0, 1 << nb))
    tallies, accepted, sums, n_meas = {}, 0, [0.0, 0.0, 0.0], 0
    for sweep in range(sweeps):
        bonds = rng.permutation(nb)
        us = rng.random(nb)
        for bond, u in zip(bonds.tolist(), us.tolist()):
            flipped = bits ^ (1 << bond)
            r = acc[(clusters[flipped] - clusters[bits], (bits >> bond) & 1)]
            ra = r if r < 1.0 else 1.0
            tallies[flipped] = tallies.get(flipped, 0.0) + ra
            if ra < 1.0:
                tallies[bits] = tallies.get(bits, 0.0) + (1.0 - ra)
            if r >= 1.0 or u < r:
                bits = flipped
                accepted += 1
        if sweep % measure_every == 0:
            for k, col in enumerate((loops, clusters, dual)):
                sums[k] += col[bits]
            n_meas += 1
    return (tallies, accepted) + tuple(s / n_meas for s in sums)


def _reference_tv(tallies, probs):
    total = 0.0
    for count in tallies.values():
        total += count
    acc = seen = 0.0
    for bits, count in tallies.items():
        acc += abs(count / total - probs[bits])
        seen += probs[bits]
    acc += 1.0 - seen
    return acc / 2.0


@pytest.mark.parametrize("path", ["table", "dfs", "dict-slots"])
@pytest.mark.parametrize("size,sweeps,seed", [(2, 3000, 5), (3, 2500, 11)])
def test_sampler_matches_dict_reference_bit_for_bit(monkeypatch, path,
                                                    size, sweeps, seed):
    lat = SquareTorusLattice(size, size)
    g = potts_params(2)
    assert sweeps > 2 * gas.TALLY_BLOCK  # several folds, one partial
    tallies, accepted, *means = _reference_chain(lat, g, sweeps, seed)
    if path == "dfs":
        monkeypatch.setattr(gas, "_cluster_table", lambda lat, sweeps: None)
    elif path == "dict-slots":
        # the sampler's view of the cap: dC by search, slots by dict
        monkeypatch.setattr(gas, "ENUM_STATE_CAP", 1)
    rec = metropolis_sample(lat, g, sweeps, seed)
    assert list(rec.tallies) == list(tallies)
    assert list(rec.tallies.values()) == list(tallies.values())
    assert rec.tallies == tallies and len(rec.tallies) == len(tallies)
    assert rec.accepted == accepted
    assert rec.proposed == sweeps * lat.nsites
    assert [rec.mean_loops, rec.mean_clusters, rec.mean_dual_clusters] \
        == means
    total = 0.0
    for count in tallies.values():
        total += count
    assert rec.sample_size == total
    probs, _, _ = exact_distribution(lat, g)
    assert tv_distance(rec, probs) == _reference_tv(tallies, probs)


def test_tallies_are_a_read_only_mapping():
    lat = SquareTorusLattice(2, 2)
    rec = metropolis_sample(lat, potts_params(2), 200, seed=1)
    t = rec.tallies
    first = next(iter(t))
    assert t[first] == dict(t.items())[first]
    assert first in t and (1 << 40) not in t
    with pytest.raises(TypeError):
        t[first] = 0.0
    with pytest.raises(ValueError):
        t.weights[0] = 0.0
