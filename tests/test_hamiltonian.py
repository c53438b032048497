import numpy as np
import pytest

from looptl.errors import (ConfigInvalid, InconsistentCycle,
                           StateSpaceTooLarge, WindowDoesNotFit)
from looptl.hamiltonian import (ConstraintSystem, Row, build_h0,
                                build_hprime, build_ring_exchange,
                                code_space_probe, compile_skein_instances,
                                containment_check, joint_kernel,
                                joint_vectors_dense, kernel_dense,
                                kernel_propagate, pauli_expand_check,
                                uniform_state_energy)
from looptl.lattice import HexTorusLattice, SquareTorusLattice
from looptl.scalars import SpecialField


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
