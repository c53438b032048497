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

import numpy as np

from .errors import ConfigInvalid, StateSpaceTooLarge
from .lattice import ENUM_STATE_CAP, SquareTorusLattice, census
from .scalars import SpecialField

# lockstep chains: at most MAX_CHAINS, each at least CHAIN_SWEEPS long
MAX_CHAINS = 4096
CHAIN_SWEEPS = 250
# the chain's state is an int64 (start-state draw, tally keys)
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


def exact_distribution(lat, model):
    """Exhaustive cluster-form distribution over all configurations.

    Returns (probabilities array indexed by state bits, weights array,
    the lattice's StateCensus).  The weights come from the cached census
    of the lattice (lattice.census): C and E per state, the same float
    products as fk_weight.  Raises StateSpaceTooLarge past
    ENUM_STATE_CAP.
    """
    cen = census(lat)
    weights = _cluster_forms(cen, model)
    probs = weights / weights.sum()
    return probs, weights, cen


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
    # the occupied keys in increasing order, without np.unique's sort
    # (and its import of numpy.ma)
    for key in np.flatnonzero(np.bincount(keys)).tolist():
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


class Tallies:
    """Read-only waste-recycling tallies of one run: ``states`` (int64)
    are the visited states in increasing order and ``weights``
    (float64) their summed weights."""

    def __init__(self, states, weights):
        states.flags.writeable = weights.flags.writeable = False
        self.states = states
        self.weights = weights

    def __len__(self):
        return len(self.states)


class _TallyStore:
    """Sums the chains' waste-recycling weights.

    Once per sweep, add() takes (steps, chains) arrays of the pre-move
    states, flipped states and acceptance ratios r, and adds in one
    scatter, step by step and chain 0 first, min(r, 1) to the flipped
    state and 1 - min(r, 1) to the pre-move state, so every state's sum is
    taken in the order a running dict would take it.  The sums live in a
    float64 vector over all 2^N states when 2^N <= ENUM_STATE_CAP, else in
    a dict.  Every min(r, 1) is positive and a zero 1 - min(r, 1) adds
    nothing, so the visited states are those with a nonzero sum.
    """

    def __init__(self, nsites):
        if (1 << nsites) <= ENUM_STATE_CAP:
            self._sums = np.zeros(1 << nsites)
        else:
            self._sums = {}

    def add(self, before, after, ratios):
        ra = np.minimum(ratios, 1.0).ravel()
        keys = np.empty(2 * len(ra), np.int64)
        keys[0::2], keys[1::2] = after.ravel(), before.ravel()
        vals = np.empty(2 * len(ra))
        vals[0::2], vals[1::2] = ra, 1.0 - ra
        if isinstance(self._sums, dict):
            sums = self._sums
            for key, val in zip(keys.tolist(), vals.tolist()):
                sums[key] = sums.get(key, 0.0) + val
        else:
            np.add.at(self._sums, keys, vals)

    def tallies(self):
        if isinstance(self._sums, dict):
            states = sorted(k for k, v in self._sums.items() if v)
            weights = np.array([self._sums[k] for k in states])
            states = np.array(states, np.int64)
        else:
            states = np.flatnonzero(self._sums)
            weights = self._sums[states]
        return Tallies(states, weights)


class SampleRecord:
    """Outcome of one run of lockstep Metropolis chains.  chain_sweeps
    holds each chain's length; oracle_checks counts the drift checks
    against extract_walls: the starting count and one per measured
    sweep.  mean_loops_stderr is the standard error of mean_loops
    across the per-chain means, None for a single chain."""

    def __init__(self, seed, sweeps, chain_sweeps, tallies, accepted,
                 proposed, means, mean_loops_stderr, rows, oracle_checks):
        self.seed = seed
        self.sweeps = sweeps
        self.chain_sweeps = chain_sweeps
        self.tallies = tallies
        self.oracle_checks = oracle_checks
        self.accepted = accepted
        self.proposed = proposed
        self.acceptance_rate = accepted / proposed if proposed else 0.0
        self.mean_loops, self.mean_clusters, self.mean_dual_clusters = means
        self.mean_loops_stderr = mean_loops_stderr
        self.rows = rows

    @property
    def sample_size(self):
        """Total tally weight, summed left to right in increasing state
        order."""
        return float(np.cumsum(self.tallies.weights)[-1])

    def summary(self):
        return {"seed": self.seed, "sweeps": self.sweeps,
                "chains": len(self.chain_sweeps),
                "sweeps_per_chain": [int(self.chain_sweeps.min()),
                                     int(self.chain_sweeps.max())],
                "acceptance_rate": self.acceptance_rate,
                "mean_loops": self.mean_loops,
                "mean_loops_stderr": self.mean_loops_stderr,
                "mean_clusters": self.mean_clusters,
                "mean_dual_clusters": self.mean_dual_clusters,
                "sample_size": self.sample_size,
                "states_visited": len(self.tallies),
                "oracle_checks": self.oracle_checks}


def _cluster_table(lat):
    """C of every state as an int8 array when 2^N <= ENUM_STATE_CAP,
    else None; cluster counts stay below 128, so the view reads them
    unchanged."""
    if (1 << lat.nsites) > ENUM_STATE_CAP:
        return None
    return census(lat).clusters.view(np.int8)


def acceptance_table(model):
    """Metropolis ratio q^dC (p/(1-p))^(-1 if the bond is |+> else 1)
    of a single-bond flip, keyed by (dC in {-1, 0, 1}, current spin)."""
    q, p = model.q_float, model.p_float
    ratio_e = p / (1 - p)
    return {(dc, s): (q ** dc) * (ratio_e ** (-1 if s else 1))
            for dc in (-1, 0, 1) for s in (0, 1)}


def chain_lengths(sweeps):
    """Sweeps of each lockstep chain, longest first: K = min(MAX_CHAINS,
    sweeps // CHAIN_SWEEPS) chains, at least one, whose lengths differ
    by at most one and sum to sweeps."""
    chains = max(1, min(MAX_CHAINS, sweeps // CHAIN_SWEEPS))
    lengths = np.full(chains, sweeps // chains, np.int64)
    lengths[:sweeps % chains] += 1
    return lengths


def _cluster_readers(lat, table):
    """(clusters_of, observe) for chains in numpy arrays of state bits.
    clusters_of(states) is the int8 array of C of each state;
    observe(bits) is the (3, chains) array of L, C and C*.  With a
    cluster table both read census columns; without one, both run the
    census kernel on the given states alone, C through
    torus_census.cluster_counts and the observables through
    torus_census.tabulate_states."""
    if table is not None:
        cen = census(lat)

        def observe(bits):
            return np.stack([cen.loops[bits], table[bits],
                             cen.dual_clusters[bits]])
        return table.__getitem__, observe
    from .torus_census import cluster_counts, tabulate_states

    def clusters_of(states):
        return cluster_counts(lat, states).view(np.int8)

    def observe(bits):
        cols = tabulate_states(lat, bits)
        return np.stack([cols["loops"], cols["clusters"],
                         cols["dual_clusters"]])
    return clusters_of, observe


def _check_drift(lat, bits, clusters):
    """Compare one chain's running cluster count with extract_walls; a
    drift raises AssertionError (an explicit check, kept under python
    -O)."""
    if lat.extract_walls(lat.config(int(bits))).clusters != clusters:
        raise AssertionError("cluster count drifted")


def metropolis_sample(lat, model, sweeps, seed, record_rows=False):
    """Single-bond-flip Metropolis chains for the cluster-form weight.

    The sweeps are split over K lockstep chains (chain_lengths), run as
    numpy arrays: each step proposes one bond flip in every chain.  One
    sweep of a chain proposes every bond once, in a random order.  The
    acceptance ratio for a flip changing (dC, dE, dE*) is
    q^dC p^dE (1-p)^dE* (acceptance_table).  dC is C of the flipped
    state less the chain's running C; C of the flipped states is read
    from the lattice census when 2^N <= ENUM_STATE_CAP (_cluster_table),
    and past the cap from the census kernel run on those states alone
    (torus_census.cluster_counts).  A step only flips, reads C, accepts
    and records the next states; each sweep's waste-recycling tallies
    are then summed per state in one scatter, in proposal order
    (_TallyStore), and returned as read-only Tallies.  Every max(1,
    longest chain // 10,000) sweeps, L, C and C* of every chain are read
    (_cluster_readers), and one chain, in turn, has its running cluster
    count checked against extract_walls (_check_drift), as has chain 0
    at the start.  One
    counter-based (Philox) stream draws the K starting states, then per
    sweep a (K, N) block of bond orders and a (K, N) block of uniforms,
    row k for chain k; both ways of reading C give the same chains.
    With record_rows, each measured sweep adds the row (sweep, L, C, C*
    of chain 0, acceptance rate so far).
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
    lengths = chain_lengths(sweeps)
    chains = len(lengths)
    measure_every = max(1, int(lengths[0]) // 10_000)
    clusters_of, observe = _cluster_readers(lat, _cluster_table(lat))
    ratio = acceptance_table(model)
    # acceptance table indexed by 3*spin + dC, dC = -1 read from the end
    acc = np.array([ratio[(dc, spin)] for spin, dc in
                    ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (0, -1))])
    store = _TallyStore(nb)

    bits = rng.integers(0, 1 << nb, size=chains, dtype=np.int64)
    clusters = observe(bits)[1].astype(np.int8)
    _check_drift(lat, bits[0], clusters[0])
    oracle_checks = 1
    accepted = proposed = 0
    sums = np.zeros((3, chains), np.int64)
    measured = np.zeros(chains, np.int64)
    rows = []
    for sweep in range(int(lengths[0])):
        active = int(np.count_nonzero(lengths > sweep))
        # random-permutation scan: every bond exactly once per sweep,
        # which removes the bond-choice noise of an iid scan
        orders = rng.permuted(np.tile(np.arange(nb, dtype=np.uint8),
                                      (active, 1)), axis=1)
        # step-major copies: row j holds every chain's j-th proposal
        flips = np.left_shift(1, orders.T, dtype=np.int64, order="C")
        us = np.ascontiguousarray(rng.random((active, nb)).T)
        # hist[j]: the states before step j; finished chains drop out
        hist, ratios = np.empty((nb + 1, active), np.int64), np.empty(us.shape)
        bits, clusters = bits[:active], clusters[:active]
        hist[0] = bits
        for j in range(nb):
            flipped = bits ^ flips[j]
            dc = clusters_of(flipped) - clusters
            # a one-bit flip lowers the state exactly when the bit was set
            r = ratios[j] = acc[3 * (flipped < bits) + dc]
            # u lies in [0, 1), so a ratio of 1 or more always accepts
            move = us[j] < r
            bits = hist[j + 1] = np.where(move, flipped, bits)
            clusters = clusters + dc * move
        # waste recycling: weigh both outcomes, not only the realized state
        store.add(hist[:-1], hist[:-1] ^ flips, ratios)
        accepted += int(np.count_nonzero(hist[1:] != hist[:-1]))
        proposed += active * nb
        if sweep % measure_every == 0:
            chain = oracle_checks % active
            _check_drift(lat, bits[chain], clusters[chain])
            oracle_checks += 1
            seen = observe(bits)
            sums[:, :active] += seen
            measured[:active] += 1
            if record_rows:
                rows.append((sweep, *seen[:, 0].tolist(),
                             accepted / proposed))
    means = tuple(int(total) / int(measured.sum())
                  for total in sums.sum(axis=1))
    stderr = None
    if chains > 1:
        per_chain = sums[0] / measured
        stderr = float(per_chain.std(ddof=1) / math.sqrt(chains))
    return SampleRecord(seed, sweeps, lengths, store.tallies(), accepted,
                        proposed, means, stderr, rows, oracle_checks)


def tv_distance(record, probs):
    """Total-variation distance between a chain's empirical
    distribution and an exact probability vector indexed by state.
    The sums run in increasing state order, left to right (np.cumsum),
    as a running loop over the sorted tallies would take them."""
    tallies = record.tallies
    p = probs[tallies.states]
    acc = np.cumsum(np.abs(tallies.weights / record.sample_size - p))[-1]
    acc += 1.0 - np.cumsum(p)[-1]  # states never visited
    return acc / 2.0


def detailed_balance_check(lat, model):
    """Exact detailed balance of the sampler on every single-flip pair.

    For each pair a -> b = a with one bond flipped, with (C, E) from the
    lattice census, checks that |dC| <= 1 and, exactly, that the
    cluster-form weights satisfy w_b = w_a q^dC (p/(1-p))^(-1 if the
    bond is |+> in a else 1) -- in the level's number field -- and both
    ways round.  Then Metropolis
    acceptance min(1, w_b/w_a) balances the flows.  The sampler's float entry
    acceptance_table(model)[(dC, spin)] must lie within 1e-12 relative
    of that exact ratio, and the C the sampler reads past the state cap
    (the census kernel, _cluster_readers without a table) must equal
    extract_walls' on every state.  Returns (ok, pairs_checked).
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
    clusters_of, _ = _cluster_readers(lat, None)
    if clusters_of(np.arange(n)).tolist() != \
            [lat.extract_walls(lat.config(a)).clusters for a in range(n)]:
        return False, 0
    pairs = 0
    for a in range(n):
        for bond in range(lat.nsites):
            b = a ^ (1 << bond)
            if b < a:
                continue
            dc = clusters[b] - clusters[a]
            spin = (a >> bond) & 1
            if abs(dc) > 1 or weight[b] != weight[a] * exact[(dc, spin)] or \
                    weight[a] != weight[b] * exact[(-dc, 1 - spin)]:
                return False, pairs
            pairs += 1
    return True, pairs


def gibbs_law_check(basis, component, lat):
    """Measurement probabilities on one kernel component follow the
    loop-count Gibbs law: the amplitude of a state is d**pot, so its
    probability is proportional to (d^2)**L with L its loop count from
    the lattice census exactly when pot - L is constant on the
    component.  Returns the spread max - min of pot - L over the
    component's states, an integer that is 0 exactly when the law
    holds."""
    states = basis.component_states(component)
    excess = basis.pot[states] - census(lat).loops[states].astype(np.int64)
    return int(excess.max() - excess.min())
