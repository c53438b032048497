"""Statistical layer: measurement distributions of ground vectors, the
loop-count Gibbs law, the random-cluster correspondence, and a
single-bond-flip Metropolis sampler with an exact-enumeration oracle.

The wall weight of a spin configuration can be read two ways:
    loop form      (d^2)^L
    cluster form   q^C * p^E * (1-p)^{E*}
with q = d^4 and p = sqrt(q)/(1+sqrt(q)).  In the plane the two agree
up to one extensive constant; on the torus the correction for wrapping
clusters is established empirically by the enumeration oracle and
emitted in reports, never silently absorbed.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import ItemsView, Mapping, ValuesView

import numpy as np

from .errors import ConfigInvalid, StateSpaceTooLarge
from .lattice import (ENUM_STATE_CAP, SquareTorusLattice, _square_wall_tables,
                      census)
from .scalars import SpecialField

RECOUNT_EVERY = 1000
# sweeps of proposals buffered before they are folded into the tallies
TALLY_BLOCK = 1024
# the chain's state is an int64 (start-state draw, proposal buffers)
SAMPLER_BOND_CAP = 62


class GibbsModel:
    """Exact parameter bundle of the self-dual random-cluster measure
    matching the loop gas at level ell: d the loop weight, n = d^2,
    q = d^4, p = sqrt(q)/(1+sqrt(q))."""

    def __init__(self, ell):
        self.ell = ell
        self.field = SpecialField(ell)
        d = self.field.delta
        self.d = d
        self.n = d * d
        self.q = d * d * d * d
        # sqrt(q) = d^2 exactly, so p stays inside the field
        self.p = self.n / (self.field.one + self.n)
        self.d_float = float(d)
        self.q_float = float(self.q)
        self.p_float = float(self.p)

    @property
    def flags(self):
        """Notes a report should carry verbatim."""
        out = []
        if self.ell == 3:
            out.append(
                "level-3 cluster weight is exactly (7+3*sqrt(5))/2 ~= "
                "%.4f; the often-quoted 5.6 does not match q = d**4"
                % self.q_float)
        return out

    def __repr__(self):
        return "GibbsModel(ell=%d, q=%.6g, p=%.6g)" % (
            self.ell, self.q_float, self.p_float)


def potts_params(ell):
    return GibbsModel(ell)


def measurement_distribution(basis, component):
    """Born distribution of one kernel basis vector over its states.

    Probabilities are (d^2)**(relative loop count), normalized; exact
    d-exponents come straight from the basis.  Returns a dict mapping
    state index to float probability.
    """
    states = basis.component_states(component)
    expo = basis.pot[states].astype(float)
    expo -= expo.min()
    w = basis.d ** (2.0 * expo)
    w /= w.sum()
    return dict(zip(states.tolist(), w.tolist()))


def fk_weight(config, model):
    """Both readings of the wall weight of one spin configuration.

    Returns (loop_form, cluster_form, census) with loop_form =
    (d^2)^L over all loops and cluster_form = q^C p^E (1-p)^{E*}.
    """
    walls = config.lattice.extract_walls(config)
    loop_form = model.d_float ** (2 * walls.loops)
    cluster_form = (model.q_float ** walls.clusters
                    * model.p_float ** walls.plus_edges
                    * (1 - model.p_float) ** walls.minus_edges)
    return loop_form, cluster_form, walls


def _cluster_forms(cen, model):
    """Cluster-form weight q^C p^E (1-p)^{E*} of every state as floats,
    multiplied in the order fk_weight uses."""
    q, p = model.q_float, model.p_float
    plus, minus = cen.plus_edges, cen.minus_edges
    top = int(max(cen.clusters.max(), plus.max(), minus.max())) + 1
    q_pow = np.array([q ** k for k in range(top)])
    p_pow = np.array([p ** k for k in range(top)])
    m_pow = np.array([(1 - p) ** k for k in range(top)])
    return q_pow[cen.clusters] * p_pow[plus] * m_pow[minus]


def exact_distribution(lat, model, keep_censuses=False):
    """Exhaustive cluster-form distribution over all configurations.

    Returns (probabilities array indexed by state bits, weights array,
    censuses list or None).  The weights come from the cached census of
    the lattice (lattice.census): C and E per state, the same float
    products as fk_weight.  With keep_censuses the per-state WallCensus
    objects of extract_walls are returned too, which costs one
    extract_walls call per state.  Raises StateSpaceTooLarge past
    ENUM_STATE_CAP.
    """
    weights = _cluster_forms(census(lat), model)
    censuses = None
    if keep_censuses:
        censuses = [lat.extract_walls(lat.config(bits))
                    for bits in range(len(weights))]
    probs = weights / weights.sum()
    return probs, weights, censuses


def extensive_constant_report(lat, model):
    """Loop-form / cluster-form ratio across all configurations,
    grouped by the number of wrapping clusters and wrapping dual
    clusters; in the plane (and in the non-wrapping torus sector) the
    ratio is one fixed constant.  "constant" is the ratio of the first
    state of each group in bits order."""
    cen = census(lat)
    d = model.d_float
    loop_pow = np.array([d ** (2 * k)
                         for k in range(int(cen.loops.max()) + 1)])
    ratios = loop_pow[cen.loops] / _cluster_forms(cen, model)
    keys = cen.wrapping_clusters.astype(np.int32) * 256 \
        + cen.wrapping_dual_clusters
    report = {}
    for key in np.unique(keys).tolist():
        vals = ratios[keys == key]
        report[(key // 256, key % 256)] = {
            "constant": float(vals[0]), "count": len(vals),
            "spread": float((vals.max() - vals.min()) / vals[0])}
    return report


def homology_rule_report(lat):
    """Empirical trivial-loop count rule on the torus: across the full
    enumeration, trivial loops = C + C* - (wrapping C) - (wrapping C*).
    Returns (holds_everywhere, number of violations)."""
    cen = census(lat)
    trivial = cen.loops.astype(np.int16) - cen.essential_loops
    expect = (cen.clusters.astype(np.int16) + cen.dual_clusters
              - cen.wrapping_clusters - cen.wrapping_dual_clusters)
    bad = int(np.count_nonzero(trivial != expect))
    return bad == 0, bad


class Tallies(Mapping):
    """Read-only waste-recycling tallies of one chain: state bits ->
    summed weight, iterated in first-visit order.

    ``states`` (int64) and ``weights`` (float64) are aligned arrays in
    that order.  Lookup by state builds an index on first use.
    """

    def __init__(self, states, weights):
        states.flags.writeable = weights.flags.writeable = False
        self.states = states
        self.weights = weights
        self._index = None

    def __len__(self):
        return len(self.states)

    def __iter__(self):
        return iter(self.states.tolist())

    def __getitem__(self, state):
        if self._index is None:
            self._index = {s: k for k, s in enumerate(self.states.tolist())}
        return float(self.weights[self._index[state]])

    def items(self):
        return _TallyItems(self)

    def values(self):
        return _TallyValues(self)


class _TallyItems(ItemsView):
    def __iter__(self):
        t = self._mapping
        return zip(t.states.tolist(), t.weights.tolist())


class _TallyValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping.weights.tolist())


class _TallyStore:
    """Buffers a chain's proposals and folds them into float64 tallies.

    Per proposal the chain appends the pre-move state and the index
    3*spin + dC + 1 of its acceptance ratio r; per sweep, the bond
    order.  fold() adds, in proposal order, min(r, 1) to the flipped
    state and 1 - min(r, 1) to the pre-move state where r < 1, so every
    state's sum is taken in the order a running dict would take it.
    Slots are given in first-visit order: through an int32 array over
    all 2^N states when 2^N <= ENUM_STATE_CAP, else through a dict.
    """

    def __init__(self, nsites, ratios):
        self.before = array("q")
        self.index = bytearray()
        self.bonds = []
        self._capped = np.minimum(np.array(ratios), 1.0)
        self._masks = np.left_shift(1, np.arange(nsites, dtype=np.int64))
        self._weights = np.zeros(0)
        self._visited = 0
        self._new = []  # states given slots, one array per fold
        if (1 << nsites) <= ENUM_STATE_CAP:
            self._slot = np.full(1 << nsites, -1, np.int32)
        else:
            self._slot = {}

    def fold(self):
        n = len(self.index)
        if not n:
            return
        before = np.array(self.before, dtype=np.int64)
        after = before ^ self._masks[np.concatenate(self.bonds)]
        ra = self._capped[np.frombuffer(self.index, np.uint8)]
        del self.before[:], self.index[:], self.bonds[:]
        keys = np.empty(2 * n, np.int64)
        keys[0::2], keys[1::2] = after, before
        vals = np.empty(2 * n)
        vals[0::2], vals[1::2] = ra, 1.0 - ra
        keep = np.ones(2 * n, bool)
        keep[1::2] = ra < 1.0
        keys, vals = keys[keep], vals[keep]
        slots = self._slots(keys)
        if self._visited > len(self._weights):
            grown = np.zeros(max(self._visited, 2 * len(self._weights)))
            grown[:len(self._weights)] = self._weights
            self._weights = grown
        np.add.at(self._weights, slots, vals)

    def _slots(self, keys):
        """Slot of every key; keys not seen before take the next slots
        in the order of their first occurrence."""
        if isinstance(self._slot, dict):
            slot, new, slots = self._slot, [], []
            for k in keys.tolist():
                if k not in slot:
                    slot[k] = len(slot)
                    new.append(k)
                slots.append(slot[k])
            new, slots = np.array(new, np.int64), np.array(slots, np.intp)
        else:
            unseen = keys[self._slot[keys] < 0]
            uniq, first = np.unique(unseen, return_index=True)
            new = uniq[np.argsort(first)]
            self._slot[new] = np.arange(self._visited,
                                        self._visited + len(new))
            slots = self._slot[keys]
        self._new.append(new)
        self._visited += len(new)
        return slots

    def tallies(self):
        """Fold what is left and return the tallies."""
        self.fold()
        states = np.concatenate(self._new + [np.zeros(0, np.int64)])
        return Tallies(states, self._weights[:self._visited].copy())


class SampleRecord:
    """Outcome of one Metropolis chain.  oracle_checks counts the chain's
    extract_walls calls: the starting cluster count and every drift
    check."""

    def __init__(self, seed, sweeps, tallies, accepted, proposed,
                 mean_loops, mean_clusters, mean_dual_clusters, rows,
                 oracle_checks):
        self.seed = seed
        self.sweeps = sweeps
        self.tallies = tallies
        self.oracle_checks = oracle_checks
        self.accepted = accepted
        self.proposed = proposed
        self.acceptance_rate = accepted / proposed if proposed else 0.0
        self.mean_loops = mean_loops
        self.mean_clusters = mean_clusters
        self.mean_dual_clusters = mean_dual_clusters
        self.rows = rows

    @property
    def sample_size(self):
        """Total tally weight, summed left to right in first-visit
        order."""
        return float(np.cumsum(self.tallies.weights)[-1])

    def summary(self):
        return {"seed": self.seed, "sweeps": self.sweeps,
                "acceptance_rate": self.acceptance_rate,
                "mean_loops": self.mean_loops,
                "mean_clusters": self.mean_clusters,
                "mean_dual_clusters": self.mean_dual_clusters,
                "sample_size": self.sample_size,
                "states_visited": len(self.tallies),
                "oracle_checks": self.oracle_checks}


def _dfs_delta_clusters(bits, bond, primal, walk):
    """Change in C if the given bond is flipped, by a depth-first
    search from one end of the bond to the other without it.  primal
    and walk are those of lattice._square_wall_tables."""
    a, b = walk.tail[2 * bond], walk.head[2 * bond]
    without = bits & ~(1 << bond)
    stack = [a]
    seen = 1 << a
    while stack:
        x = stack.pop()
        if x == b:
            return 0
        for bd, y, _, _ in primal[x]:
            if (without >> bd) & 1 and not (seen >> y) & 1:
                seen |= 1 << y
                stack.append(y)
    return 1 if (bits >> bond) & 1 else -1


def _cluster_table(lat, sweeps):
    """C of every state as bytes when the census is cheaper than the
    chain's searches (2^N <= sweeps * N, within ENUM_STATE_CAP), else
    None."""
    states = 1 << lat.nsites
    if states > ENUM_STATE_CAP or states > sweeps * lat.nsites:
        return None
    return census(lat).clusters.tobytes()


def acceptance_table(model):
    """Metropolis ratio q^dC (p/(1-p))^(-1 if the bond is |+> else 1)
    of a single-bond flip, keyed by (dC in {-1, 0, 1}, current spin)."""
    q, p = model.q_float, model.p_float
    ratio_e = p / (1 - p)
    return {(dc, s): (q ** dc) * (ratio_e ** (-1 if s else 1))
            for dc in (-1, 0, 1) for s in (0, 1)}


def metropolis_sample(lat, model, sweeps, seed, record_rows=False,
                      measure_every=None):
    """Single-bond-flip Metropolis chain for the cluster-form weight.

    One sweep proposes every bond once.  The acceptance ratio for a
    flip changing (dC, dE, dE*) is q^dC p^dE (1-p)^dE*
    (acceptance_table).  dC is C[flipped] - C[current] read from the
    lattice census when 2^N <= sweeps * N (_cluster_table), and
    otherwise found by a depth-first search between the bond's ends.
    The running cluster count is tracked incrementally, recounted by
    extract_walls every 1000 accepted moves and checked against
    extract_walls at every measurement; a drift raises AssertionError
    (an explicit check, kept under python -O).  The waste-recycling
    tallies are buffered per proposal and folded every TALLY_BLOCK
    sweeps (_TallyStore) into a read-only Tallies mapping.  The
    generator is counter-based (Philox) so chains are reproducible and
    parallelizable by seed; both ways of finding dC give the same chain.
    Runs on the square torus only; other lattices, sweeps < 1 and a
    negative seed raise ConfigInvalid, and more than SAMPLER_BOND_CAP
    bonds raise StateSpaceTooLarge, before anything is drawn or
    allocated.
    """
    if not isinstance(lat, SquareTorusLattice):
        raise ConfigInvalid("the sampler runs on the square torus")
    if sweeps < 1:
        raise ConfigInvalid("the sampler needs at least one sweep")
    if seed < 0:
        raise ConfigInvalid("the sampler seed must be non-negative")
    if lat.nsites > SAMPLER_BOND_CAP:
        raise StateSpaceTooLarge("the sampler is capped at %d bonds"
                                 % SAMPLER_BOND_CAP)
    rng = np.random.Generator(np.random.Philox(seed))
    nb = lat.nsites
    primal, _, walk = _square_wall_tables(lat.w, lat.h)
    if measure_every is None:
        measure_every = max(1, sweeps // 10_000)

    bits = int(rng.integers(0, 1 << nb))
    clusters = lat.extract_walls(lat.config(bits)).clusters
    oracle_checks = 1
    table = _cluster_table(lat, sweeps)
    ratio = acceptance_table(model)
    # flat acceptance table, indexed by 3*spin + dC + 1
    acc = [ratio[(dc, spin)] for spin in (0, 1) for dc in (-1, 0, 1)]
    store = _TallyStore(nb, acc)
    push_state, push_index = store.before.append, store.index.append

    accepted = proposed = 0
    since_recount = 0
    sum_loops = sum_c = sum_cstar = 0.0
    n_meas = 0
    rows = []
    for sweep in range(sweeps):
        # random-permutation scan: every bond exactly once per sweep,
        # which removes the bond-choice noise of an iid scan
        bonds = rng.permutation(nb)
        us = rng.random(nb)
        proposed += nb
        store.bonds.append(bonds)
        for bond, u in zip(bonds.tolist(), us.tolist()):
            spin = (bits >> bond) & 1
            flipped = bits ^ (1 << bond)
            if table is None:
                dc = _dfs_delta_clusters(bits, bond, primal, walk)
            else:
                dc = table[flipped] - table[bits]
            k = 3 * spin + dc + 1
            # waste-recycling tally (store.fold): average over the
            # accept/reject outcome instead of recording only the
            # realized state
            push_state(bits)
            push_index(k)
            # u lies in [0, 1), so a ratio of 1 or more always accepts
            if u < acc[k]:
                bits = flipped
                clusters += dc
                accepted += 1
                since_recount += 1
                if since_recount >= RECOUNT_EVERY:
                    true_count = lat.extract_walls(lat.config(bits)).clusters
                    oracle_checks += 1
                    if true_count != clusters:
                        raise AssertionError(
                            "incremental cluster count drifted")
                    since_recount = 0
        if sweep % measure_every == 0:
            walls = lat.extract_walls(lat.config(bits))
            oracle_checks += 1
            if walls.clusters != clusters:
                raise AssertionError("cluster count drifted")
            sum_loops += walls.loops
            sum_c += walls.clusters
            sum_cstar += walls.dual_clusters
            n_meas += 1
            if record_rows:
                rows.append((sweep, walls.loops, walls.clusters,
                             walls.dual_clusters,
                             accepted / max(proposed, 1)))
        if (sweep + 1) % TALLY_BLOCK == 0:
            store.fold()
    return SampleRecord(seed, sweeps, store.tallies(), accepted, proposed,
                        sum_loops / n_meas, sum_c / n_meas,
                        sum_cstar / n_meas, rows, oracle_checks)


def tv_distance(record, probs):
    """Total-variation distance between a chain's empirical
    distribution and an exact probability vector indexed by state.
    The sums run in first-visit order, left to right (np.cumsum), as
    a running loop over the tallies would take them."""
    tallies = record.tallies
    p = probs[tallies.states]
    acc = np.cumsum(np.abs(tallies.weights / record.sample_size - p))[-1]
    acc += 1.0 - np.cumsum(p)[-1]  # states never visited
    return acc / 2.0


def detailed_balance_check(lat, model):
    """Exact detailed balance of the sampler on every single-flip pair.

    For each pair a -> b = a with one bond flipped, with (C, E) from the
    lattice census, checks exactly that the cluster-form weights satisfy
    w_b = w_a q^dC (p/(1-p))^(-1 if the bond is |+> in a else 1) -- in
    the level's number field -- and both ways round.  Then Metropolis
    acceptance min(1, w_b/w_a) balances the flows.  The sampler's float entry
    acceptance_table(model)[(dC, spin)] must lie within 1e-12 relative
    of that exact ratio, and the sampler's depth-first dC must equal
    the census difference.  Returns (ok, pairs_checked).
    """
    n = 1 << lat.nsites
    if n > 4096:
        raise StateSpaceTooLarge("balance check is exhaustive")
    cen = census(lat)
    plus, minus = cen.plus_edges, cen.minus_edges
    q, p, one = model.q, model.p, model.field.one
    ratio_e = p / (one - p)
    exact = {(dc, s): q ** dc * ratio_e ** (-1 if s else 1)
             for dc in (-1, 0, 1) for s in (0, 1)}
    floats = acceptance_table(model)
    for key, r in exact.items():
        if abs(floats[key] - float(r)) > 1e-12 * abs(float(r)):
            return False, 0
    top = int(max(cen.clusters.max(), plus.max(), minus.max())) + 1
    q_pow, p_pow, m_pow = ([x ** k for k in range(top)]
                           for x in (q, p, one - p))
    weight = [q_pow[c] * p_pow[e] * m_pow[m] for c, e, m in
              zip(cen.clusters.tolist(), plus.tolist(), minus.tolist())]
    clusters = cen.clusters.tolist()
    primal, _, walk = _square_wall_tables(lat.w, lat.h)
    pairs = 0
    for a in range(n):
        for bond in range(lat.nsites):
            b = a ^ (1 << bond)
            if b < a:
                continue
            dc = clusters[b] - clusters[a]
            spin = (a >> bond) & 1
            if weight[b] != weight[a] * exact[(dc, spin)] or \
                    weight[a] != weight[b] * exact[(-dc, 1 - spin)]:
                return False, pairs
            if _dfs_delta_clusters(a, bond, primal, walk) != dc:
                return False, pairs
            pairs += 1
    return True, pairs


def gibbs_law_check(basis, component, lat):
    """Measurement probabilities on one kernel component follow the
    loop-count Gibbs law: -log p = const - 2 log(d) * (#loops), with
    the loop counts read from the lattice census.
    Returns the largest absolute residual."""
    probs = measurement_distribution(basis, component)
    logd2 = 2.0 * math.log(basis.d) if basis.d != 1.0 else 0.0
    loops = census(lat).loops
    worst = 0.0
    items = list(probs.items())
    bits0, p0 = items[0]
    n0 = int(loops[bits0])
    for bits, p in items[1:]:
        lhs = math.log(p) - math.log(p0)
        rhs = logd2 * (int(loops[bits]) - n0)
        worst = max(worst, abs(lhs - rhs))
    return worst
