import functools
import gc
import itertools
import random
import tracemalloc
import weakref
from fractions import Fraction
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import isprime, n_order, primefactors

from looptl import hamiltonian
from looptl.errors import (ConfigInvalid, InconsistentCycle,
                           StateSpaceTooLarge, WindowDoesNotFit)
from looptl.hamiltonian import (_PROPAGATED, ConstraintSystem, Row,
                                _coeff_mod, _column_keys, _diagram_words,
                                _discrete_logs, _distinct_columns,
                                _generator, _modular_rank,
                                _propagate_uncached, build_h0, build_hprime,
                                build_ring_exchange, code_space_probe,
                                compile_skein_instances, containment_check,
                                joint_kernel, joint_vectors_dense,
                                kernel_dense, kernel_propagate,
                                pauli_expand_check, uniform_state_energy)
from looptl.lattice import (ENUM_STATE_CAP, HexTorusLattice,
                            SquareDiskLattice, SquareTorusLattice, census)
from looptl.scalars import SpecialField, minimal_polynomial
from looptl.tlcat import (enumerate_diagrams, identity_diagram,
                          stack_diagrams, u_diagram)
from looptl.torus_census import _TABLES


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_pauli_expansion_exact(ell):
    assert pauli_expand_check(ell)


def test_hprime_row_counts_2x2():
    cs = build_hprime(SquareTorusLattice(2, 2), 2)
    assert sum(1 for r in cs.rows if r.tag == "box") == 16
    assert sum(1 for r in cs.rows if r.tag == "dual-box") == 16
    for row in cs.rows:
        assert len(row.terms) == 2 and row.dexp == 1


def test_kernel_solvers_agree_small():
    lat = SquareTorusLattice(2, 2)
    for ell in (1, 2, 3):
        cs = build_hprime(lat, ell)
        assert kernel_propagate(cs).dimension == kernel_dense(cs).dimension
    hexlat = HexTorusLattice(3, 3)
    cs = build_h0(hexlat, 2)
    assert kernel_propagate(cs).dimension == kernel_dense(cs).dimension


def test_kernel_vectors_weight_states_by_loop_count():
    lat = SquareTorusLattice(2, 2)
    cs = build_hprime(lat, 2)
    kb = kernel_propagate(cs)
    pot = kb.pot
    comp = kb.comp
    for bits in range(0, 256, 11):
        others = [b for b in range(256) if comp[b] == comp[bits]]
        la = lat.extract_walls(lat.config(bits)).loops
        for b in others[:4]:
            lb = lat.extract_walls(lat.config(b)).loops
            assert pot[b] - pot[bits] == lb - la


def test_inconsistent_cycle_detected():
    lat = SquareTorusLattice(2, 2)
    field = SpecialField(2)
    one = field.one
    inv_d = one / field.delta
    rows = [Row("box", "a", (0,), [(0, one), (1, -inv_d)], dexp=1),
            Row("box", "b", (0,), [(0, one), (1, -one)], dexp=-1)]
    cs = ConstraintSystem(lat, 2, rows, "synthetic")
    with pytest.raises(InconsistentCycle):
        kernel_propagate(cs)


def test_ring_exchange_contains_hprime_kernel():
    lat = SquareTorusLattice(2, 2)
    assert containment_check(build_hprime(lat, 2), build_ring_exchange(lat))


def test_state_space_cap():
    lat = SquareTorusLattice(4, 3)  # 24 bonds > cap
    cs = build_hprime(lat, 1)
    with pytest.raises(StateSpaceTooLarge):
        kernel_dense(cs)


def test_kernel_oracle_runs_up_to_the_state_cap():
    cs = build_hprime(SquareTorusLattice(5, 2), 2)
    assert cs.n_states == ENUM_STATE_CAP
    assert kernel_dense(cs).dimension == kernel_propagate(cs).dimension == 13


@pytest.mark.parametrize("size", [2, 3], ids=["2x2", "3x3"])
def test_kernel_dense_rejects_a_three_term_row(size):
    import tracemalloc
    cs = build_hprime(SquareTorusLattice(size, size), 2)
    one = cs.field.one
    cs.rows.insert(len(cs.rows) // 2, Row(
        "rand", "three", (0, 1, 2), [(0, one), (3, one), (5, -one)]))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigInvalid):
            kernel_dense(cs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 2^18 bytes: one uint8 per state of the 3x3 torus, so the row
    # check runs before any per-state array
    assert peak < 1 << 18


def test_skein_window_shapes():
    lat = SquareTorusLattice(3, 3)
    rows1 = compile_skein_instances(lat, 1)
    assert len(rows1) == 18
    assert all(len(r.sites) == 1 and len(r.terms) == 2 for r in rows1)
    # the 18 single-bond windows cover every bond exactly once
    assert sorted(r.sites[0] for r in rows1) == list(range(18))

    rows2 = compile_skein_instances(lat, 2)
    assert len(rows2) == 18
    assert all(len(r.sites) == 4 and len(r.terms) == 5 for r in rows2)


@pytest.mark.parametrize("w,h", [(2, 3), (3, 2)])
def test_skein_windows_on_a_non_square_torus_take_every_translation(w, h):
    """Each orientation places its window at all w*h translations, so
    the 2*w*h rows have distinct site sets and fall into one class per
    orientation under the w*h translations."""
    lat = SquareTorusLattice(w, h)
    rows = compile_skein_instances(lat, 1)
    assert len({frozenset(r.sites) for r in rows}) == len(rows) == 2 * w * h
    assert sorted(r.sites[0] for r in rows) == list(range(lat.nsites))
    group, firsts = hamiltonian._skein_classes(build_hprime(lat, 1),
                                               list(rows))
    assert (len(group), len(firsts)) == (w * h, 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_diagram_words_rebuild_their_diagrams_without_loops(n):
    words = _diagram_words(n)
    assert set(words) == set(enumerate_diagrams(n, n))
    # breadth first: no word is longer than one found after it
    lengths = [len(w) for w in words.values()]
    assert lengths == sorted(lengths)
    for diag, word in words.items():
        got = identity_diagram(n)
        for i in word:
            got, loops = stack_diagrams(got, u_diagram(n, i))
            assert loops == 0, (diag, word)
        assert got == diag, word


def test_skein_window_does_not_fit():
    with pytest.raises(WindowDoesNotFit):
        compile_skein_instances(SquareTorusLattice(3, 3), 3)
    with pytest.raises(WindowDoesNotFit):
        compile_skein_instances(SquareTorusLattice(2, 2), 2)


def test_joint_kernel_oracle_agreement_2x2():
    lat = SquareTorusLattice(2, 2)
    cs = build_hprime(lat, 1)
    skein = compile_skein_instances(lat, 1)
    basis, report = joint_kernel(cs, skein, target=1)
    assert report["dimension"] == basis.dimension
    assert 0 <= basis.dimension <= report["g0_dimension"]


def test_code_space_probe_on_joint_kernel():
    lat = SquareTorusLattice(2, 2)
    cs = build_hprime(lat, 1)
    basis, _ = joint_kernel(cs, compile_skein_instances(lat, 1), target=1)
    if basis.dimension:
        vecs = joint_vectors_dense(basis)
        ok, worst = code_space_probe(vecs, lat)
        assert worst >= 0.0


def test_code_space_probe_does_not_depend_on_the_basis():
    # the 4-dimensional l=2 joint kernel of the 3x3 torus, where the probe
    # is far from zero, in its own basis and in randomly rotated ones
    lat = SquareTorusLattice(3, 3)
    basis, _ = joint_kernel(build_hprime(lat, 2),
                            compile_skein_instances(lat, 2))
    vecs = np.stack(joint_vectors_dense(basis), axis=1)
    assert vecs.shape[1] == 4
    _, worst = code_space_probe(list(vecs.T), lat)
    assert worst > 0.1
    rng = np.random.default_rng(12)
    for _ in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        _, rotated = code_space_probe(list((vecs @ q).T), lat)
        assert abs(rotated - worst) < 1e-12


def test_uniform_state_energy_exact_value():
    lat = SquareTorusLattice(2, 2)
    cs = build_hprime(lat, 2)
    exact, approx = uniform_state_energy(cs)
    # 32 rows, each contributing (1 + 1/d)^2 / 16 with d = sqrt(2)
    field = SpecialField(2)
    expect = field.element([3]) + field.delta + field.delta
    assert exact == expect
    assert approx == pytest.approx(float(expect))


def test_uniform_state_energy_vanishes_at_level_one():
    lat = HexTorusLattice(3, 3)
    cs = build_h0(lat, 1)
    exact, approx = uniform_state_energy(cs, signs="uniform")
    assert approx == 0.0


def test_h0_rejects_square_lattice():
    with pytest.raises(ConfigInvalid):
        build_h0(SquareTorusLattice(2, 2), 1)


def test_kernel_propagate_caps_state_space_before_allocating():
    import tracemalloc
    lat = SquareTorusLattice(4, 3)  # 2^24 states
    cs = build_hprime(lat, 2)
    skein = compile_skein_instances(lat, 2)
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLarge):
            kernel_propagate(cs)
        with pytest.raises(StateSpaceTooLarge):
            joint_kernel(cs, skein)
        with pytest.raises(StateSpaceTooLarge):
            containment_check(cs, build_ring_exchange(lat))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# the vectorised solvers against plain references
# ---------------------------------------------------------------------------


@functools.cache
def _prime_and_root_at(ell):
    p, _, root = hamiltonian._prime_and_root(ell)
    return p, root


def _dense_rank_mod_p(cs):
    """Rank of the expanded system by plain Gaussian elimination over
    GF(p), one matrix row per (pattern row, context), built state by
    state without the package's row expansion."""
    p, droot = _prime_and_root_at(cs.ell)
    n = cs.n_states
    lines = []
    for row in cs.rows:
        mask = sum(1 << pos for pos in row.sites)
        for s in range(n):
            if s & mask:
                continue  # one line per context: the site bits all clear
            line = np.zeros(n, dtype=np.int64)
            for pat, coeff in row.terms:
                state = s | sum(1 << pos for k, pos in enumerate(row.sites)
                                if (pat >> k) & 1)
                line[state] = (line[state] + _coeff_mod(coeff, p, droot)) % p
            lines.append(line)
    m = np.array(lines)
    rank = 0
    for col in range(n):
        nz = np.flatnonzero(m[rank:, col])
        if not len(nz):
            continue
        m[[rank, rank + nz[0]]] = m[[rank + nz[0], rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), p - 2, p) % p
        others = np.flatnonzero(m[:, col])
        others = others[others != rank]
        m[others] = (m[others] - m[others, col][:, None] * m[rank]) % p
        rank += 1
        if rank == len(m):
            break
    return rank


def _random_two_term_system(seed, ell):
    """Seeded two-term rows on the 2x2 torus: random sites, distinct
    patterns and coefficients, a row whose coefficient is p (zero mod
    p), a cycle of ratios that does not close, and dexp annotations
    unrelated to the coefficients."""
    rng = random.Random(seed)
    lat = SquareTorusLattice(2, 2)
    p, _ = _prime_and_root_at(ell)
    field = SpecialField(ell) if ell is not None else None

    def scalar(a, b=0):
        return field.element([a, b]) if field else Fraction(a) + b

    choices = [scalar(1), scalar(-1), scalar(2), scalar(Fraction(1, 3)),
               scalar(0, 1), scalar(-3, 2)]
    rows = []
    for k in range(8):
        sites = rng.sample(range(lat.nsites), rng.choice((4, 5, 6)))
        pa, pb = rng.sample(range(1 << len(sites)), 2)
        rows.append(Row("rand", k, sites, [(pa, rng.choice(choices)),
                                           (pb, rng.choice(choices))],
                        dexp=rng.choice((-1, 0, 2))))
    # coefficient p: forces the other pattern's states to zero mod p
    rows.append(Row("rand", "p", (0, 5), [(1, scalar(p)), (2, scalar(1))],
                    dexp=0))
    # x_b = x_a on one row and x_b = 2 x_a on another: the cycle fails
    cycle = (3, 1, 2, 4)
    rows.append(Row("rand", "c1", cycle, [(0, scalar(1)), (1, scalar(-1))],
                    dexp=0))
    rows.append(Row("rand", "c2", cycle, [(0, scalar(2)), (1, scalar(-1))],
                    dexp=0))
    rng.shuffle(rows)
    return ConstraintSystem(lat, ell, rows, "synthetic")


_MODULAR_CASES = {
    "hprime-l1": lambda: build_hprime(SquareTorusLattice(2, 2), 1),
    "hprime-l2": lambda: build_hprime(SquareTorusLattice(2, 2), 2),
    "hprime-l3": lambda: build_hprime(SquareTorusLattice(2, 2), 3),
    "ring": lambda: build_ring_exchange(SquareTorusLattice(2, 2)),
    "hex-h0": lambda: build_h0(HexTorusLattice(3, 3), 2),
    **{"random-%d" % seed: (lambda seed=seed: _random_two_term_system(
        seed, None if seed % 2 else 2)) for seed in range(6)},
}


@pytest.mark.parametrize("case", list(_MODULAR_CASES))
def test_modular_rank_matches_dense_elimination(case):
    cs = _MODULAR_CASES[case]()
    assert _modular_rank(cs) == _dense_rank_mod_p(cs)


def test_modular_rank_reads_coefficients_not_dexp():
    # wrong d-exponents: propagation finds the broken cycle, while the
    # oracle still sees the consistent coefficients
    cs = build_hprime(SquareTorusLattice(2, 2), 2)
    for row in cs.rows[::3]:
        row.dexp = 2
    with pytest.raises(InconsistentCycle):
        kernel_propagate(cs)
    assert cs.n_states - _modular_rank(cs) == 10


def _residue_scan_root(poly, p):
    """The smallest root of poly mod p, by evaluating poly at every
    residue in numpy blocks."""
    for lo in range(0, p, 1 << 16):
        xs = np.arange(lo, min(p, lo + (1 << 16)), dtype=np.int64)
        acc = np.zeros_like(xs)
        for c in reversed(poly):
            acc = (acc * xs + int(c)) % p
        roots = np.flatnonzero(acc == 0)
        if len(roots):
            return lo + int(roots[0])


# pinned (p, root) at no level (ring exchange), l = 1 and l = 2
_KNOWN_PRIME_AND_ROOT = {None: (1_000_003, 1), 1: (1_000_003, 1),
                         2: (1_000_033, 95_913)}


@pytest.mark.parametrize("ell", [None, *range(1, 11)])
def test_prime_and_root_come_from_a_root_of_unity(ell):
    # without a level d = 1 = 2cos(pi/3), the weight at l = 1
    m = 2 * ((ell if ell is not None else 1) + 2)
    p, g, root = hamiltonian._prime_and_root(ell)
    assert p % m == 1 and isprime(p)
    assert not any(isprime(q) for q in range(1_000_003, p) if q % m == 1)
    assert g == _generator(p)
    poly = minimal_polynomial(ell) if ell is not None else [-1, 1]
    assert root == _residue_scan_root([int(c) for c in poly], p)
    if ell in _KNOWN_PRIME_AND_ROOT:
        assert (p, root) == _KNOWN_PRIME_AND_ROOT[ell]


@pytest.mark.parametrize("ell", [None, 2, 3])
def test_generator_and_discrete_logs(ell):
    p, _ = _prime_and_root_at(ell)
    g = _generator(p)
    assert n_order(g, p) == p - 1
    # the smallest: every smaller residue has order below p - 1
    assert all(any(pow(h, (p - 1) // q, p) == 1 for q in primefactors(p - 1))
               for h in range(2, g))
    rng = random.Random(ell or 0)
    xs = [1, p - 1, g] + [rng.randrange(1, p) for _ in range(200)]
    logs = _discrete_logs(xs, g, p)
    assert sorted(logs) == sorted(set(xs))
    assert all(0 <= e < p - 1 and pow(g, e, p) == x for x, e in logs.items())


def test_log_packing_bound_raises_before_allocating(monkeypatch):
    cs = build_hprime(SquareTorusLattice(3, 3), 2)
    # n * (p - 1) = 2^18 * (2^24 + 42) passes 2^42
    monkeypatch.setattr(hamiltonian, "_prime_and_root",
                        lambda ell: (16_777_259, 2, 1))
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLarge):
            _modular_rank(cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a quarter of one int64 array over the states
    assert peak < 8 * cs.n_states // 4


def _shuffled_system(cs, seed):
    rows = list(cs.rows)
    random.Random(seed).shuffle(rows)
    return ConstraintSystem(cs.lattice, cs.ell, rows, cs.model, cs.field)


_SHUFFLE_CASES = {
    "ring-2x2": lambda: build_ring_exchange(SquareTorusLattice(2, 2)),
    "hprime-3x3": lambda: build_hprime(SquareTorusLattice(3, 3), 2),
    "ring-3x3": lambda: build_ring_exchange(SquareTorusLattice(3, 3)),
    "h0-hex-3x3": lambda: build_h0(HexTorusLattice(3, 3), 2),
}


@pytest.mark.parametrize("model", list(_SHUFFLE_CASES))
def test_propagation_is_canonical_under_row_shuffles(model):
    # the uncached solve: kernel_propagate would answer the shuffled
    # systems from the first solve, equal by construction
    cs = _SHUFFLE_CASES[model]()
    ref = _propagate_uncached(cs)
    for seed in (1, 2):
        kb = _propagate_uncached(_shuffled_system(cs, seed))
        assert kb.comp.tobytes() == ref.comp.tobytes()
        assert kb.pot.tobytes() == ref.pot.tobytes()
    # components numbered by their smallest state, pot 0 there
    _, smallest = np.unique(ref.comp, return_index=True)
    assert np.array_equal(ref.comp[smallest], np.arange(ref.dimension))
    assert np.all(np.diff(smallest) > 0)
    assert np.all(ref.pot[smallest] == 0)


@pytest.mark.parametrize("size,pinned", [
    # (state, component, smallest state, pot): the parent union-find's
    # pot differences within each component
    (2, [(0, 0, 0, 0), (7, 1, 5, -1), (100, 0, 0, -3), (200, 2, 34, -1),
         (255, 3, 39, 2)]),
    (3, [(0, 0, 0, 0), (1, 0, 0, -1), (4097, 0, 0, -2), (12345, 0, 0, -6),
         (100000, 0, 0, -6), (200000, 1, 21, -3), (262143, 4, 8343, 4)])])
def test_propagation_pots_are_loop_count_differences(size, pinned):
    lat = SquareTorusLattice(size, size)
    kb = _propagate_uncached(build_hprime(lat, 2))
    _, smallest = np.unique(kb.comp, return_index=True)
    for state, comp, low, pot in pinned:
        assert (kb.comp[state], smallest[comp], kb.pot[state]) == \
            (comp, low, pot)
    # amplitude d^pot: pot is the loop count relative to the component's
    # smallest state, read from the census
    loops = census(lat).loops.astype(np.int64)
    assert np.array_equal(kb.pot, loops - loops[smallest[kb.comp]])


def test_propagation_raises_on_a_broken_cycle_of_a_real_system():
    cs = build_hprime(SquareTorusLattice(2, 2), 2)
    cs.rows[5].dexp = -1
    with pytest.raises(InconsistentCycle):
        _propagate_uncached(_shuffled_system(cs, 3))


# ---------------------------------------------------------------------------
# the per-lattice memo of ratio propagation
# ---------------------------------------------------------------------------


def _counting_solves(monkeypatch):
    """Wrap the uncached solve; the list holds one system per call."""
    calls = []

    def counted(cs):
        calls.append(cs)
        return _propagate_uncached(cs)
    monkeypatch.setattr(hamiltonian, "_propagate_uncached", counted)
    return calls


def test_propagation_is_solved_once_per_move_graph(monkeypatch):
    calls = _counting_solves(monkeypatch)
    lat = SquareTorusLattice(3, 3)
    systems = [build_hprime(lat, ell) for ell in (1, 2, 3)]
    systems += [_shuffled_system(systems[1], seed) for seed in (1, 2)]
    for cs in systems:
        assert kernel_propagate(cs).dimension == 22
    ring = build_ring_exchange(lat)
    assert containment_check(systems[3], ring)
    assert joint_kernel(systems[0], compile_skein_instances(lat, 1),
                        target=1)[1]["dimension"] == 1
    assert len(calls) == 1
    assert kernel_propagate(ring).dimension == 1012
    assert len(calls) == 2


@pytest.mark.parametrize("model", list(_SHUFFLE_CASES))
def test_propagation_hits_equal_a_fresh_solve(model):
    cs = _SHUFFLE_CASES[model]()
    kernel_propagate(cs)
    for seed in (1, 2):
        shuffled = _shuffled_system(cs, seed)
        hit, fresh = kernel_propagate(shuffled), _propagate_uncached(shuffled)
        assert (hit.dimension, hit.d) == (fresh.dimension, fresh.d)
        assert hit.comp.tobytes() == fresh.comp.tobytes()
        assert hit.pot.tobytes() == fresh.pot.tobytes()
    # a level's d comes with the basis, not with the shared arrays
    if model == "hprime-3x3":
        for ell in (1, 3):
            hit = kernel_propagate(build_hprime(cs.lattice, ell))
            fresh = _propagate_uncached(build_hprime(cs.lattice, ell))
            assert hit.d == fresh.d != kernel_propagate(cs).d
            assert hit.comp.tobytes() == fresh.comp.tobytes()
            assert hit.pot.tobytes() == fresh.pot.tobytes()


def _flip_dexp(row):
    row.dexp = -row.dexp


def _swap_patterns(row):
    (pa, ca), (pb, cb) = row.terms
    row.terms = [(pb, ca), (pa, cb)]


def _move_a_site(row):
    row.sites = row.sites[:3] + (0,)


@pytest.mark.parametrize("mutate", [_flip_dexp, _swap_patterns,
                                    _move_a_site],
                         ids=["dexp", "patterns", "sites"])
def test_propagation_misses_after_a_row_changes(monkeypatch, mutate):
    calls = _counting_solves(monkeypatch)
    cs = build_hprime(SquareTorusLattice(2, 2), 2)
    assert cs.rows[5].sites == (1, 2, 6, 3) and cs.rows[5].dexp == 1
    kernel_propagate(cs)
    saved = (cs.rows[5].sites, list(cs.rows[5].terms), cs.rows[5].dexp)
    mutate(cs.rows[5])
    with pytest.raises(InconsistentCycle):
        kernel_propagate(cs)
    # the failed solve is not kept: the same broken rows solve again
    with pytest.raises(InconsistentCycle):
        kernel_propagate(cs)
    assert len(calls) == 3 and len(_PROPAGATED[cs.lattice]) == 1
    cs.rows[5].sites, cs.rows[5].terms, cs.rows[5].dexp = saved
    assert kernel_propagate(cs).dimension == 10
    assert len(calls) == 3


def test_propagation_reads_the_order_of_a_rows_sites():
    # bit k of a pattern is sites[k]: reversing the sites turns the pair
    # of states 1 and 2 around, so its exponent changes sign and
    # nothing raises
    one = Fraction(1)
    row = Row("rand", 0, (0, 1), [(1, one), (2, -one)], dexp=1)
    cs = ConstraintSystem(SquareTorusLattice(2, 2), None, [row], "synthetic")
    assert kernel_propagate(cs).pot[1:3].tolist() == [0, 1]
    row.sites = (1, 0)
    kb = kernel_propagate(cs)
    assert kb.pot[1:3].tolist() == [0, -1]
    assert kb.pot.tobytes() == _propagate_uncached(cs).pot.tobytes()


def test_propagation_arrays_are_read_only():
    kb = kernel_propagate(build_hprime(SquareTorusLattice(2, 2), 2))
    with pytest.raises(ValueError):
        kb.comp[0] = 1
    with pytest.raises(ValueError):
        kb.pot[:] = 0


def test_propagation_entry_dies_with_its_lattice():
    lat = SquareTorusLattice(2, 2)
    kb = kernel_propagate(build_hprime(lat, 2))
    assert lat in _PROPAGATED
    dead = weakref.ref(lat), weakref.ref(kb.comp), weakref.ref(kb.pot)
    del lat, kb
    gc.collect()
    assert all(ref() is None for ref in dead)


@pytest.mark.parametrize("model,g0,reduced", [("hprime", 10, 14),
                                               ("ring", 40, 82)])
def test_joint_kernel_reports_singular_value_gap(model, g0, reduced):
    lat = SquareTorusLattice(2, 2)
    cs = build_hprime(lat, 1) if model == "hprime" \
        else build_ring_exchange(lat)
    basis, report = joint_kernel(cs, compile_skein_instances(lat, 1),
                                 target=1)
    kept, dropped = report["sv_gap"]
    assert report["dimension"] == basis.dimension == 1
    assert (report["g0_dimension"], report["reduced_rows"]) == (g0, reduced)
    assert kept > 1e-3 and dropped < 1e-12


def test_column_keys_renumber_before_overflowing():
    # three digits of radix 2^40 would need 120 bits as one mixed-radix key
    rng = np.random.default_rng(5)
    digits = rng.integers(0, 3, size=(3, 200)) << 39
    keys = _column_keys(digits)
    cols = [tuple(c) for c in digits.T.tolist()]
    for i in range(0, 200, 7):
        for j in range(200):
            assert (keys[i] == keys[j]) == (cols[i] == cols[j])


@pytest.mark.parametrize("radix,height,width", [
    (3, 4, 500),         # dense: the keys span at most the column count
    (1000, 3, 300),      # sparse: the keys are sorted
    (1 << 41, 3, 200)])  # the mixed-radix key renumbers before overflowing
def test_distinct_columns_match_numpy_unique(radix, height, width):
    rng = np.random.default_rng(radix)
    # few distinct values per digit, so that columns repeat
    digits = rng.integers(0, 3, size=(height, width)) * ((radix - 1) // 2)
    digits[-1] = rng.integers(0, 2, size=width)
    span = int(_column_keys(digits).max()) + 1
    assert (span <= width) == (radix == 3)
    _, first = np.unique(digits, axis=1, return_index=True)
    assert np.array_equal(_distinct_columns(digits), first)


@pytest.mark.parametrize("ell,dim,reduced,gap", [
    (1, 1, 36, (0.5176380902050416, 2.282778720162358e-16)),
    (2, 4, 18, (1.2133615628192058, 0.0))])
def test_joint_kernel_reports_on_the_3x3_torus(ell, dim, reduced, gap):
    lat = SquareTorusLattice(3, 3)
    _, report = joint_kernel(build_hprime(lat, ell),
                             compile_skein_instances(lat, ell), target=1)
    assert (report["dimension"], report["g0_dimension"],
            report["reduced_rows"]) == (dim, 22, reduced)
    assert report["sv_gap"] == pytest.approx(gap, abs=1e-12)


# ---------------------------------------------------------------------------
# systems the solvers must refuse
# ---------------------------------------------------------------------------


_REFUSED_CASES = {
    "containment-other-lattice": lambda: containment_check(
        build_hprime(SquareTorusLattice(2, 2), 2),
        build_ring_exchange(SquareTorusLattice(3, 3))),
    "joint-kernel-other-lattice": lambda: joint_kernel(
        build_hprime(SquareTorusLattice(3, 3), 1),
        compile_skein_instances(SquareTorusLattice(2, 2), 1), target=1),
    # the 3x3 skein rows as a plain list name bonds the 2x2 torus lacks
    "joint-kernel-sites-off-the-lattice": lambda: joint_kernel(
        build_hprime(SquareTorusLattice(2, 2), 1),
        list(compile_skein_instances(SquareTorusLattice(3, 3), 1)),
        target=1),
    # two-term skein rows at l=1 carry no d-exponent
    "containment-outer-without-ratios": lambda: containment_check(
        build_hprime(SquareTorusLattice(3, 3), 1),
        compile_skein_instances(SquareTorusLattice(3, 3), 1)),
}


@pytest.mark.parametrize("case", list(_REFUSED_CASES))
def test_solvers_refuse_systems_they_cannot_solve(case):
    import tracemalloc
    tracemalloc.start()
    try:
        with pytest.raises(ConfigInvalid):
            _REFUSED_CASES[case]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # below one int64 per state of the 3x3 torus
    assert peak < 1 << 21


# ---------------------------------------------------------------------------
# the hook loops against a breadth-first search on random systems
# ---------------------------------------------------------------------------


def _pattern_bits(pattern, sites):
    return sum(1 << pos for k, pos in enumerate(sites) if (pattern >> k) & 1)


def _bfs_kernel(cs):
    """Components numbered by their smallest state, pots relative to it,
    and whether every pair closes, from a networkx breadth-first search
    over the pairs listed state by state."""
    n = cs.n_states
    pairs = []
    for row in cs.rows:
        mask = sum(1 << pos for pos in row.sites)
        (pa, _), (pb, _) = row.terms
        for s in range(n):
            if not s & mask:
                pairs.append((s | _pattern_bits(pa, row.sites),
                              s | _pattern_bits(pb, row.sites), row.dexp))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    step = {}
    for a, b, dexp in pairs:
        graph.add_edge(a, b)
        step[a, b], step[b, a] = dexp, -dexp
    comp = np.full(n, -1, dtype=np.int64)
    pot = np.zeros(n, dtype=np.int64)
    k = 0
    for root in range(n):
        if comp[root] >= 0:
            continue
        comp[root] = k
        for u, v in nx.bfs_edges(graph, root):
            comp[v], pot[v] = k, pot[u] + step[u, v]
        k += 1
    closes = all(comp[a] == comp[b] and pot[b] - pot[a] == dexp
                 for a, b, dexp in pairs)
    return comp, pot, closes


@st.composite
def _small_two_term_systems(draw):
    """Two-term rows on a torus of at most 8 sites, with coefficients
    that include p (zero mod p) and d-exponents drawn apart from them,
    so that many cycles do not close."""
    lat = SquareTorusLattice(draw(st.integers(1, 4)), 1)
    ell = draw(st.sampled_from([None, 2]))
    p, _ = _prime_and_root_at(ell)
    field = SpecialField(ell) if ell is not None else None
    values = [1, -1, 2, Fraction(1, 3), Fraction(-3, 2), p]
    coeffs = st.sampled_from(
        [field.element([v]) for v in values] + [field.delta] if field
        else [Fraction(v) for v in values])
    rows = []
    for k in range(draw(st.integers(1, 6))):
        sites = draw(st.lists(st.integers(0, lat.nsites - 1), min_size=1,
                              max_size=min(4, lat.nsites), unique=True))
        pa, pb = draw(st.lists(st.integers(0, (1 << len(sites)) - 1),
                               min_size=2, max_size=2, unique=True))
        rows.append(Row("rand", k, sites, [(pa, draw(coeffs)),
                                           (pb, draw(coeffs))],
                        dexp=draw(st.integers(-2, 2))))
    return ConstraintSystem(lat, ell, rows, "synthetic")


@settings(max_examples=100, deadline=None)
@given(_small_two_term_systems())
def test_hook_loops_match_breadth_first_search(cs):
    comp, pot, closes = _bfs_kernel(cs)
    if closes:
        kb = _propagate_uncached(cs)
        assert kb.dimension == comp.max() + 1
        assert np.array_equal(kb.comp, comp)
        assert np.array_equal(kb.pot, pot)
    else:
        with pytest.raises(InconsistentCycle):
            _propagate_uncached(cs)
    assert _modular_rank(cs) == _dense_rank_mod_p(cs)


# ---------------------------------------------------------------------------
# the solve on symmetry orbits against the solve on every state
# ---------------------------------------------------------------------------


def _on_every_state(monkeypatch):
    """Make _propagate_uncached solve with the identity alone, on every
    state of the move graph."""
    symmetry = hamiltonian._row_symmetry
    monkeypatch.setattr(hamiltonian, "_row_symmetry",
                        lambda cs: symmetry(cs)[:1])


_ORBIT_CASES = dict(_SHUFFLE_CASES)
for _w, _h in [(2, 2), (2, 3), (3, 2), (3, 3)]:
    for _ell in (1, 2, 3):
        _ORBIT_CASES["hprime-%dx%d-l%d" % (_w, _h, _ell)] = functools.partial(
            build_hprime, SquareTorusLattice(_w, _h), _ell)
    _ORBIT_CASES.setdefault("ring-%dx%d" % (_w, _h), functools.partial(
        build_ring_exchange, SquareTorusLattice(_w, _h)))


@pytest.mark.parametrize("model", list(_ORBIT_CASES))
def test_orbit_solve_is_byte_identical_to_the_solve_on_every_state(
        monkeypatch, model):
    cs = _ORBIT_CASES[model]()
    lat = cs.lattice
    kb = _propagate_uncached(cs)
    # every builder's rows commute with all w*h translations
    assert kb.group_order == lat.w * lat.h
    assert kb.orbits < cs.n_states
    _on_every_state(monkeypatch)
    full = _propagate_uncached(cs)
    assert (full.orbits, full.group_order) == (cs.n_states, 1)
    assert full.dimension == kb.dimension
    assert full.comp.tobytes() == kb.comp.tobytes()
    assert full.pot.tobytes() == kb.pot.tobytes()


def test_a_row_set_without_symmetry_solves_on_every_state():
    # one row on bond 0 alone: no translation maps the row set onto itself
    one = Fraction(1)
    cs = ConstraintSystem(SquareTorusLattice(2, 2), None,
                          [Row("rand", 0, (0,), [(0, one), (1, -one)], 0)],
                          "synthetic")
    kb = _propagate_uncached(cs)
    assert (kb.orbits, kb.group_order, kb.dimension) == (256, 1, 128)


def _symmetric(lat, rows, group=None):
    """The system of the given (sites, pattern a, pattern b, dexp) rows
    and all their images under the site permutations of group, by
    default the lattice's census group: the translations of a torus,
    the mirrors of a disk."""
    if group is None:
        group = _TABLES[lat.kind](lat).symmetry
    one = Fraction(1)
    out = []
    for k, (sites, pa, pb, dexp) in enumerate(rows):
        for perm in group.tolist():
            out.append(Row("rand", k, [perm[s] for s in sites],
                           [(pa, one), (pb, -one)], dexp=dexp))
    return ConstraintSystem(lat, None, out, "synthetic")


def _drawn_rows(draw, nsites):
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        sites = draw(st.lists(st.integers(0, nsites - 1), min_size=1,
                              max_size=min(3, nsites), unique=True))
        pa, pb = draw(st.lists(st.integers(0, (1 << len(sites)) - 1),
                               min_size=2, max_size=2, unique=True))
        rows.append((sites, pa, pb, draw(st.integers(-2, 2))))
    return rows


@st.composite
def _symmetric_systems(draw):
    """Two-term rows on a torus or disk of at most 8 sites, each with
    all its images under the lattice's census group, so that the rows
    commute with it.  The all-|-> and all-|+> states are fixed by every
    element, so every system has states with a non-trivial
    stabiliser."""
    kind, w, h = draw(st.sampled_from(
        [("torus", 1, 1), ("torus", 2, 1), ("torus", 1, 2), ("torus", 3, 1),
         ("torus", 1, 3), ("torus", 2, 2), ("torus", 4, 1), ("torus", 1, 4),
         ("disk", 3, 1), ("disk", 2, 2), ("disk", 3, 2), ("disk", 2, 3)]))
    lat = SquareTorusLattice(w, h) if kind == "torus" \
        else SquareDiskLattice(w, h)
    return _symmetric(lat, _drawn_rows(draw, lat.nsites))


# bond 0 moves to bond 2 and then 4 under the translations of the 3x1
# torus: the pair (bond 0 |+>, bond 2 |+>) ties an orbit to itself
# through a translation, and its exponent 1 adds up to 3 around the
# cycle of three states
_CYCLE_UP_TO_A_TRANSLATION = _symmetric(SquareTorusLattice(3, 1),
                                         [((0, 2), 0b01, 0b10, 1)])
# the same orbit tie with exponent 0, and a flip of bond 1 that leaves
# states fixed by the translations in components of several states
_STABILISED = _symmetric(SquareTorusLattice(2, 2),
                          [((0, 2), 0b01, 0b10, 0), ((1,), 0, 1, 1)])


@settings(max_examples=100, deadline=None)
@given(_symmetric_systems())
@example(_CYCLE_UP_TO_A_TRANSLATION)
@example(_STABILISED)
def test_orbit_solve_matches_breadth_first_search(cs):
    comp, pot, closes = _bfs_kernel(cs)
    if closes:
        kb = _propagate_uncached(cs)
        assert kb.group_order == len(_TABLES[cs.lattice.kind](
            cs.lattice).symmetry)
        assert kb.dimension == comp.max() + 1
        assert np.array_equal(kb.comp, comp)
        assert np.array_equal(kb.pot, pot)
    else:
        with pytest.raises(InconsistentCycle):
            _propagate_uncached(cs)


# the symmetric group S3 acting on the 6 bonds of the 3x1 torus as on
# itself, bond k standing for its k-th element, by multiplication from
# the left: a group whose elements do not commute, unlike any
# lattice's, with most orbits of states of size 6 and some states fixed
# by a subgroup
_S3_ELEMENTS = list(itertools.permutations(range(3)))
_S3 = np.array([[_S3_ELEMENTS.index(tuple(g[i] for i in x))
                 for x in _S3_ELEMENTS] for g in _S3_ELEMENTS])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_orbit_solve_on_a_group_that_does_not_commute(data):
    cs = _symmetric(SquareTorusLattice(3, 1),
                     _drawn_rows(data.draw, 6), _S3)
    comp, pot, closes = _bfs_kernel(cs)
    with mock.patch.object(hamiltonian, "_row_symmetry", lambda cs: _S3):
        if closes:
            kb = _propagate_uncached(cs)
            assert kb.group_order == 6
            assert kb.dimension == comp.max() + 1
            assert np.array_equal(kb.comp, comp)
            assert np.array_equal(kb.pot, pot)
        else:
            with pytest.raises(InconsistentCycle):
                _propagate_uncached(cs)


def test_a_cycle_through_a_translation_raises():
    cs = _CYCLE_UP_TO_A_TRANSLATION
    assert not _bfs_kernel(cs)[2]
    # the only row class: its pair (1, 4) lies in one orbit, 4 is 1 moved
    # by a translation, and the full graph's cycle 1 -> 4 -> 16 -> 1
    # sums the exponent three times
    assert len(hamiltonian._row_classes(cs.rows, _TABLES[
        cs.lattice.kind](cs.lattice).symmetry)) == 1
    with pytest.raises(InconsistentCycle, match="states 1, 4"):
        _propagate_uncached(cs)


def test_stabilised_states_count_once():
    cs = _STABILISED
    kb = _propagate_uncached(cs)
    comp, pot, closes = _bfs_kernel(cs)
    assert closes and kb.group_order == 4
    # state 0 and the all-|+> state 255 are fixed by every translation,
    # and their components hold other states too
    for state in (0, 255):
        assert np.count_nonzero(comp == comp[state]) > 1
    assert kb.dimension == comp.max() + 1
    assert np.array_equal(kb.comp, comp) and np.array_equal(kb.pot, pot)


# ---------------------------------------------------------------------------
# the verdicts of containment_check and joint_kernel
# ---------------------------------------------------------------------------


def _one_pair_row(lat, a, b, dexp):
    """A row over every site whose one pair is the states a and b."""
    one = Fraction(1)
    return Row("planted", 0, tuple(range(lat.nsites)), [(a, one), (b, -one)],
               dexp=dexp)


def test_containment_fails_on_a_planted_outer_row():
    lat = SquareTorusLattice(2, 2)
    inner = build_hprime(lat, 2)
    kb = kernel_propagate(inner)
    comp, pot = kb.comp, kb.pot
    # two states of one component, and two of different components
    a, b = np.flatnonzero(comp == comp[255])[:2]
    c = int(np.flatnonzero(comp != comp[a])[0])
    a, b = int(a), int(b)

    def outer(*rows):
        return ConstraintSystem(lat, None, list(rows), "synthetic")
    right = int(pot[b] - pot[a])
    assert containment_check(inner, outer(_one_pair_row(lat, a, b, right)))
    assert not containment_check(
        inner, outer(_one_pair_row(lat, a, b, right + 1)))
    # the exponent agrees with the pots, but the pair joins two components
    assert not containment_check(
        inner, outer(_one_pair_row(lat, a, c, int(pot[c] - pot[a]))))
    # a real system with one row's exponent shifted
    ring = build_ring_exchange(lat)
    assert containment_check(inner, ring)
    ring.rows[3].dexp += 1
    assert not containment_check(inner, ring)


def test_joint_kernel_keeps_all_of_the_ratio_kernel_without_skein_rows():
    cs = build_hprime(SquareTorusLattice(2, 2), 2)
    basis, report = joint_kernel(cs, [], target=1)
    assert report["verdict"] == "all of the ratio kernel"
    assert report["dimension"] == basis.dimension == report["g0_dimension"]
    assert report["reduced_rows"] == 0
    assert basis.vectors.shape == (10, 10)


def test_joint_kernel_is_zero_when_every_state_is_forced_to_zero():
    cs = build_hprime(SquareTorusLattice(2, 2), 2)
    one = cs.field.one
    # one-term rows: every state has bond 0 either |-> or |+>
    kill = [Row("kill", pattern, (0,), [(pattern, one)])
            for pattern in (0, 1)]
    basis, report = joint_kernel(cs, kill, target=1)
    assert report["verdict"] == "zero"
    assert report["dimension"] == basis.dimension == 0
    assert report["reduced_rows"] == report["g0_dimension"] == 10


# ---------------------------------------------------------------------------
# the joint kernel on skein row classes against every skein row expanded
# ---------------------------------------------------------------------------


_JOINT_CASES = {}
for _w, _h in [(2, 2), (2, 3), (3, 2), (3, 3)]:
    _JOINT_CASES["hprime-%dx%d-l1" % (_w, _h)] = (
        functools.partial(build_hprime, ell=1), _w, _h, 1)
    if _w * _h < 9:
        _JOINT_CASES["ring-%dx%d-l1" % (_w, _h)] = (
            build_ring_exchange, _w, _h, 1)
_JOINT_CASES["hprime-3x3-l2"] = (functools.partial(build_hprime, ell=2),
                                 3, 3, 2)


def _skein_variant(rows, variant):
    """The compiled skein rows, shuffled, with one row dropped, or with
    one coefficient of one row doubled; on a square torus the last two
    leave no translation that maps the rows onto themselves."""
    rows = list(rows)
    if variant == "shuffled":
        random.Random(3).shuffle(rows)
    elif variant == "dropped":
        del rows[1]
    elif variant == "coefficient":
        row = rows[1]
        (pat, coeff), *rest = row.terms
        rows[1] = Row(row.tag, row.label, row.sites,
                      [(pat, coeff * 2)] + rest)
    return rows


def _check_skein_group(cs, rows, variant):
    group, firsts = hamiltonian._skein_classes(cs, rows)
    lat = cs.lattice
    if variant in ("compiled", "shuffled"):
        # the w*h translations, one class per orientation
        assert (len(group), len(firsts)) == (lat.w * lat.h, 2)
    else:
        assert (len(group), len(firsts)) == (1, len(rows))


_VARIANTS = ["compiled", "shuffled", "dropped", "coefficient"]


@pytest.mark.parametrize("variant", _VARIANTS)
@pytest.mark.parametrize("case", list(_JOINT_CASES))
def test_joint_kernel_on_skein_classes_equals_every_row_expanded(
        monkeypatch, case, variant):
    build, w, h, ell = _JOINT_CASES[case]
    lat = SquareTorusLattice(w, h)
    cs = build(lat)
    rows = _skein_variant(compile_skein_instances(lat, ell), variant)
    _check_skein_group(cs, rows, variant)
    basis, report = joint_kernel(cs, rows, target=1)
    _on_every_state(monkeypatch)
    assert len(hamiltonian._skein_classes(cs, rows)[0]) == 1
    every, every_report = joint_kernel(cs, rows, target=1)
    assert every_report == report
    assert every.vectors.tobytes() == basis.vectors.tobytes()


@pytest.mark.parametrize("variant", ["compiled", "shuffled"])
def test_ring_exchange_skein_rows_on_classes_on_the_3x3_torus(
        monkeypatch, variant):
    # the full report takes seconds here (3,476 rows over 1,012
    # components), so only the reduced rows are compared, and only
    # where G_s has more than the identity
    lat = SquareTorusLattice(3, 3)
    cs = build_ring_exchange(lat)
    rows = _skein_variant(compile_skein_instances(lat, 1), variant)
    _check_skein_group(cs, rows, variant)
    kb = kernel_propagate(cs)
    reduced = hamiltonian._reduced_rows(cs, rows, kb.comp, kb.pot)
    _on_every_state(monkeypatch)
    assert hamiltonian._reduced_rows(cs, rows, kb.comp, kb.pot) == reduced


def _with_images(lat, row):
    """row and its images under the census group of lat."""
    return [Row(row.tag, row.label, [perm[s] for s in row.sites], row.terms)
            for perm in _TABLES[lat.kind](lat).symmetry.tolist()]


def _on_classes_and_on_every_row(cs, skein):
    kb = kernel_propagate(cs)
    reduced = hamiltonian._reduced_rows(cs, skein, kb.comp, kb.pot)
    symmetry = hamiltonian._row_symmetry
    with mock.patch.object(hamiltonian, "_row_symmetry",
                           lambda cs: symmetry(cs)[:1]):
        every = hamiltonian._reduced_rows(cs, skein, kb.comp, kb.pot)
    return reduced, every


@st.composite
def _skein_over_symmetric_systems(draw):
    """A level-2 ratio system closed under the translations of a small
    torus, and skein rows of two or three terms with all their
    translates."""
    w, h = draw(st.sampled_from([(2, 1), (3, 1), (1, 2), (2, 2)]))
    lat = SquareTorusLattice(w, h)
    cs = ConstraintSystem(lat, 2, _symmetric(
        lat, _drawn_rows(draw, lat.nsites)).rows, "synthetic")
    d = cs.field.delta
    skein = []
    for k in range(draw(st.integers(1, 2))):
        sites = draw(st.lists(st.integers(0, lat.nsites - 1), min_size=1,
                              max_size=min(3, lat.nsites), unique=True))
        pats = draw(st.lists(st.integers(0, (1 << len(sites)) - 1),
                             min_size=2, max_size=3, unique=True))
        terms = [(pat, d ** draw(st.integers(-1, 1))
                  * draw(st.sampled_from([1, -1, 2]))) for pat in pats]
        skein += _with_images(lat, Row("skein", k, sites, terms))
    return cs, skein


# the pair (bond 1 |->, bond 2 |+>) to (bond 1 |+>, bond 2 |->) with
# exponent 1 and its translate on the 2x1 torus: the translation takes
# a component's least state to a state whose pot is not 0, so s_g != 0
_SHIFTED_ROWS = [((1, 2), 0b10, 0b01, 1)]


@settings(max_examples=80, deadline=None)
@given(_skein_over_symmetric_systems())
def test_skein_classes_of_symmetric_systems(system):
    cs, skein = system
    try:
        reduced, every = _on_classes_and_on_every_row(cs, skein)
    except InconsistentCycle:
        return
    assert reduced == every


def test_a_translation_that_shifts_pot_maps_the_skein_rows():
    lat = SquareTorusLattice(2, 1)
    cs = ConstraintSystem(lat, 2, _symmetric(lat, _SHIFTED_ROWS).rows,
                          "synthetic")
    kb = kernel_propagate(cs)
    reps = np.unique(kb.comp, return_index=True)[1]
    group, firsts = hamiltonian._skein_classes(cs, [])
    assert len(group) == 2 and np.any(
        kb.pot[hamiltonian._permuted(reps, group)])
    d = cs.field.delta
    skein = _with_images(lat, Row("skein", 0, (1, 0),
                                  [(0b01, cs.field.one), (0b10, -1 / d)]))
    reduced, every = _on_classes_and_on_every_row(cs, skein)
    assert reduced == every
    assert len(hamiltonian._skein_classes(cs, skein)[1]) == 1
    basis, report = joint_kernel(cs, skein)
    symmetry = hamiltonian._row_symmetry
    with mock.patch.object(hamiltonian, "_row_symmetry",
                           lambda cs: symmetry(cs)[:1]):
        full, full_report = joint_kernel(cs, skein)
    assert full_report == report
    assert full.vectors.tobytes() == basis.vectors.tobytes()
