import numpy as np
import pytest

from fieldcircuit.interconnect import (InterconnectionSpec, interconnect,
                                       permute_to_partition_order)
from fieldcircuit.structure import (Partition, StructureError, hamiltonian,
                                    to_dense, validate)
from tests.conftest import random_energy_system
from tests.oracles import direct_sum_spec


def random_skew(rng, m):
    a = rng.standard_normal((m, m))
    return a - a.T


def test_direct_sum_keeps_validity(rng):
    a = random_energy_system(rng, n1=2, n2=2, n3=1, m=2)
    b = random_energy_system(rng, n1=1, n2=3, n3=2, m=1)
    c = interconnect([a, b], direct_sum_spec(2, 1))
    assert c.partition == Partition(3, 5, 3, 3)
    assert validate(c).ok


def test_hamiltonian_additivity(rng):
    a = random_energy_system(rng, n1=2, n2=2, n3=1, m=2)
    b = random_energy_system(rng, n1=1, n2=3, n3=2, m=1)
    spec = InterconnectionSpec(random_skew(rng, 3), np.zeros((3, 3)), 3)
    c = interconnect([a, b], spec)
    za = rng.standard_normal(5)
    zb = rng.standard_normal(6)
    perm = permute_to_partition_order(a.partition, b.partition)
    zc = np.concatenate([za, zb])[perm]
    total = hamiltonian(c, zc)
    parts = hamiltonian(a, za) + hamiltonian(b, zb)
    assert abs(total - parts) <= 1e-13 * max(abs(total), 1.0)


def test_skew_coupling_preserves_structure(rng):
    for _ in range(100):
        a = random_energy_system(rng, n1=1, n2=2, n3=1, m=2)
        b = random_energy_system(rng, n1=2, n2=1, n3=1, m=2)
        spec = InterconnectionSpec(random_skew(rng, 4), np.zeros((4, 4)), 4)
        assert validate(interconnect([a, b], spec)).ok


def test_sym_coupling_adds_dissipation(rng):
    for _ in range(100):
        a = random_energy_system(rng, m=1)
        b = random_energy_system(rng, m=1)
        g = rng.standard_normal((2, 2))
        spec = InterconnectionSpec(random_skew(rng, 2), g @ g.T, 2)
        assert validate(interconnect([a, b], spec)).ok


def test_direct_sum_fold_is_associative(rng):
    # (A + B) + C and A + (B + C) place the same blocks in the same
    # partition-sorted slots, so the results agree exactly
    for _ in range(3):
        a = random_energy_system(rng, n1=1, n2=2, n3=1, m=1)
        b = random_energy_system(rng, n1=2, n2=1, n3=0, m=2)
        c = random_energy_system(rng, n1=0, n2=2, n3=2, m=1)
        left = interconnect([interconnect([a, b], direct_sum_spec(1, 2)), c],
                            direct_sum_spec(3, 1))
        right = interconnect([a, interconnect([b, c], direct_sum_spec(2, 1))],
                             direct_sum_spec(1, 3))
        assert left.partition == right.partition
        for name in ("E", "J", "R", "B", "M1", "M2", "S"):
            lhs = to_dense(getattr(left, name))
            rhs = to_dense(getattr(right, name))
            assert np.array_equal(lhs, rhs), name


def test_non_skew_f_rejected(rng):
    a = random_energy_system(rng, m=1)
    b = random_energy_system(rng, m=1)
    with pytest.raises(StructureError):
        interconnect([a, b],
                     InterconnectionSpec(np.eye(2), np.zeros((2, 2)), 2))


def test_indefinite_f_sym_rejected(rng):
    a = random_energy_system(rng, m=1)
    b = random_energy_system(rng, m=1)
    with pytest.raises(StructureError):
        interconnect([a, b],
                     InterconnectionSpec(np.zeros((2, 2)), -np.eye(2), 2))


def test_spec_dimension_mismatch(rng):
    a = random_energy_system(rng, m=2)
    b = random_energy_system(rng, m=2)
    with pytest.raises(StructureError):
        interconnect([a, b], direct_sum_spec(1, 1))


def test_zero_state_blocks(rng):
    # one side purely algebraic+gradient (n2 = 0), the other purely dynamic
    a = random_energy_system(rng, n1=2, n2=0, n3=1, m=1)
    b = random_energy_system(rng, n1=0, n2=2, n3=0, m=1)
    spec = InterconnectionSpec(random_skew(rng, 2), np.zeros((2, 2)), 2)
    c = interconnect([a, b], spec)
    assert c.partition == Partition(2, 2, 1, 2)
    assert validate(c).ok
    za = rng.standard_normal(3)
    zb = rng.standard_normal(2)
    perm = permute_to_partition_order(a.partition, b.partition)
    zc = np.concatenate([za, zb])[perm]
    assert hamiltonian(c, zc) == pytest.approx(
        hamiltonian(a, za) + hamiltonian(b, zb), rel=1e-13)


def test_permutation_is_a_bijection(rng):
    p_a = Partition(2, 1, 3, 0)
    p_b = Partition(0, 4, 1, 2)
    perm = permute_to_partition_order(p_a, p_b)
    assert sorted(perm) == list(range(11))


def test_coupled_flow_is_power_consistent(rng):
    # closed loop with zero residual input: dH/dt = -w'Rw for the coupled
    # system; simulate one midpoint step and check the discrete identity
    from fieldcircuit.integrators import simulate
    from fieldcircuit.waveforms import zero_input

    a = random_energy_system(rng, n1=0, n2=3, n3=0, m=1, lossless=True)
    b = random_energy_system(rng, n1=0, n2=2, n3=0, m=1, lossless=True)
    spec = InterconnectionSpec(random_skew(rng, 2), np.zeros((2, 2)), 2)
    c = interconnect([a, b], spec)
    z0 = rng.standard_normal(5)
    traj = simulate(c, z0, zero_input(2), tau=1e-2, t_end=0.5,
                    method="midpoint")
    h = traj.hamiltonians
    assert np.max(np.abs(h - h[0])) <= 1e-12 * abs(h[0])
