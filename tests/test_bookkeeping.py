"""Whole-trajectory energy bookkeeping against the per-step formulas, and the
storage contract: every system block is a float64 CSR array."""

import numpy as np
import pytest
import scipy.sparse as sp

from fieldcircuit.conductors import (SolidModel, StrandedModel, foil_system,
                                     solid_system, stranded_system, synth_foil)
from fieldcircuit.coupling import bind_circuit, couple
from fieldcircuit.integrators import METHOD_TAGS, simulate
from fieldcircuit.interconnect import InterconnectionSpec, interconnect
from fieldcircuit.mna import build_incidence, mna_system, parse_netlist
from fieldcircuit.serialization import load_system, save_system
from fieldcircuit.structure import (EnergySystem, Partition, hamiltonian,
                                    to_dense)
from fieldcircuit.waveforms import Sinusoid, WaveformStack
from tests.conftest import random_energy_system
from tests.oracles import direct_sum_spec

# Set before the first run: the batched sums reorder floating-point
# additions, so agreement is to a few ulps of the summed magnitudes.
RTOL = 1e-12

_BLOCKS = ("E", "J", "R", "B", "M1", "M2", "S")


# --- reference: the per-step bookkeeping, one step at a time -----------------

def _discrete_flow(sys, z_k, z_next, tau):
    """w at the step midpoint: [(z1⁺−z1)/τ; S z2_mid; z3_mid]."""
    p = sys.partition
    z_mid = 0.5 * (z_k + z_next)
    _, z2m, z3m = p.split(z_mid)
    d1 = (z_next[: p.n1] - z_k[: p.n1]) / tau
    return np.concatenate([d1, to_dense(sys.S) @ z2m, z3m])


def _reference_bookkeeping(sys, traj, u, tau, method):
    """outputs, D_cum, E_in and the sums of absolute step terms."""
    states, times = traj.states, traj.times
    steps = len(times) - 1
    b_mat, r_mat = to_dense(sys.B), to_dense(sys.R)
    outputs = np.zeros((steps + 1, sys.partition.m))
    d_cum, s_cum = np.zeros(steps + 1), np.zeros(steps + 1)
    d_abs, s_abs = np.zeros(steps + 1), np.zeros(steps + 1)
    for k in range(steps):
        t_k = times[k]
        w = _discrete_flow(sys, states[k], states[k + 1], tau)
        y = b_mat.T @ w
        if method == "trapezoidal":
            u_step = 0.5 * (u(t_k) + u(t_k + tau))
        else:
            u_step = u(t_k + 0.5 * tau)
        diss = float(w @ r_mat @ w)
        supply = float(y @ u_step)
        outputs[k + 1] = y
        d_cum[k + 1] = d_cum[k] + tau * diss
        s_cum[k + 1] = s_cum[k] + tau * supply
        d_abs[k + 1] = d_abs[k] + tau * abs(diss)
        s_abs[k + 1] = s_abs[k] + tau * abs(supply)
    return outputs, d_cum, s_cum, d_abs, s_abs


def _drive(m):
    return WaveformStack(tuple(Sinusoid(0.1 * k, 1.0 + k, 0.7 + 0.3 * k, 0.2 * k)
                               for k in range(m)))


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_batched_bookkeeping_matches_per_step(rng, method):
    tau = 0.05
    for shape in ((3, 3, 2, 2), (2, 0, 1, 1), (0, 3, 2, 3), (4, 2, 0, 2)):
        sys_r = random_energy_system(rng, *shape)
        u = _drive(sys_r.partition.m)
        z0 = rng.standard_normal(sys_r.partition.n)
        traj = simulate(sys_r, z0, u, tau, 40 * tau, method)
        out, d_cum, s_cum, d_abs, s_abs = _reference_bookkeeping(
            sys_r, traj, u, tau, method)
        np.testing.assert_allclose(traj.outputs, out, rtol=RTOL,
                                   atol=RTOL * np.max(np.abs(out)))
        # a cumulative sum is exact to a few ulps of its absolute terms
        assert np.all(np.abs(traj.dissipated_cum - d_cum) <= RTOL * d_abs)
        assert np.all(np.abs(traj.supplied_cum - s_cum) <= RTOL * s_abs)
        np.testing.assert_array_equal(
            traj.hamiltonians, [hamiltonian(sys_r, z) for z in traj.states])


def test_hamiltonian_of_a_stack_equals_each_state(rng):
    sys_r = random_energy_system(rng, n1=3, n2=4, n3=1, m=1)
    z = rng.standard_normal((7, sys_r.partition.n))
    h = hamiltonian(sys_r, z)
    assert h.shape == (7,)
    assert isinstance(hamiltonian(sys_r, z[2]), float)
    np.testing.assert_array_equal(h, [hamiltonian(sys_r, row) for row in z])
    # rows longer than numpy's 8192-element reduction buffer
    n = 9000
    m1 = sp.diags_array([rng.standard_normal(n - 7), rng.standard_normal(n),
                         rng.standard_normal(n - 7)], offsets=[-7, 0, 7])
    sys_big = EnergySystem(Partition(n, 0, 0, 0), E=np.zeros((0, 0)),
                           J=sp.csr_array((n, n)), R=sp.csr_array((n, n)),
                           B=np.zeros((n, 0)), M1=m1,
                           M2=np.zeros((0, 0)), S=np.zeros((0, 0)))
    z = rng.standard_normal((3, n))
    np.testing.assert_array_equal(hamiltonian(sys_big, z),
                                  [hamiltonian(sys_big, row) for row in z])


# --- storage contract ---------------------------------------------------------

def _assert_csr_blocks(obj, names):
    for name in names:
        block = getattr(obj, name)
        assert isinstance(block, sp.csr_array), (name, type(block))
        assert block.dtype == np.float64, (name, block.dtype)


def _spd(rng, n, rank=None):
    g = rng.standard_normal((n, rank or n))
    return g @ g.T + (0.0 if rank else 0.1 * np.eye(n))


def test_energy_system_from_dense_input_is_csr(rng):
    for shape in ((3, 3, 2, 2), (0, 0, 1, 0), (70, 2, 1, 1)):
        _assert_csr_blocks(random_energy_system(rng, *shape), _BLOCKS)


def test_mna_system_is_csr():
    nl = parse_netlist("V1 1 0 DC 1\nR1 1 2 2\nC1 2 0 3\nL1 2 0 1m\n")
    _assert_csr_blocks(mna_system(build_incidence(nl)), _BLOCKS)


def test_conductor_systems_are_csr(rng):
    stranded = StrandedModel(_spd(rng, 4, rank=2), _spd(rng, 4),
                             rng.standard_normal((4, 1)), np.array([[0.5]]))
    m2 = _spd(rng, 3)
    chi = rng.standard_normal((3, 1))
    solid = SolidModel(m2, _spd(rng, 3), chi, chi.T @ m2 @ chi)
    foil = synth_foil(_spd(rng, 3, rank=2), n_p=2, seed=3, k_nu=_spd(rng, 3))
    for system in (stranded_system(stranded), solid_system(solid),
                   foil_system(foil)):
        _assert_csr_blocks(system, _BLOCKS)


def test_interconnection_is_csr(rng):
    a = random_energy_system(rng, 2, 2, 1, 2)
    b = random_energy_system(rng, 1, 3, 0, 1)
    f = rng.standard_normal((3, 3))
    spec = InterconnectionSpec(f - f.T, np.zeros((3, 3)), 3)
    _assert_csr_blocks(spec, ("F_skew", "F_sym"))
    _assert_csr_blocks(direct_sum_spec(2, 1), ("F_skew", "F_sym"))
    _assert_csr_blocks(interconnect(a, b, spec), _BLOCKS)

    stranded = StrandedModel(_spd(rng, 3, rank=2), _spd(rng, 3),
                             rng.standard_normal((3, 1)), np.array([[0.5]]))
    nl = parse_netlist("FW1 0 1 stranded ws\nC1 1 0 1u\nR1 1 0 10\n")
    inc = build_incidence(nl)
    _, systems, binding = bind_circuit(inc, {"ws": stranded})
    _assert_csr_blocks(couple(mna_system(inc), systems, binding), _BLOCKS)


def test_loaded_system_is_csr(tmp_path, rng):
    save_system(random_energy_system(rng), str(tmp_path / "sys"))
    _assert_csr_blocks(load_system(str(tmp_path / "sys")), _BLOCKS)
