"""Whole-trajectory energy bookkeeping against the per-step formulas, and the
storage contract: every system block is a float64 CSR array."""

import numpy as np
import pytest
import scipy.sparse as sp

from fieldcircuit.conductors import (SolidModel, StrandedModel, foil_system,
                                     solid_system, stranded_system, synth_foil)
from fieldcircuit.coupling import bind_circuit, couple
from fieldcircuit.experiments import OscillatorConfig, build_oscillator
from fieldcircuit._stepping import METHOD_TAGS
from fieldcircuit.integrators import simulate
from fieldcircuit.interconnect import InterconnectionSpec, interconnect
from fieldcircuit.mna import build_incidence, mna_system, parse_netlist
from fieldcircuit.serialization import load_system, save_system
from fieldcircuit.structure import (EnergySystem, Partition, as_block,
                                    hamiltonian, to_dense)
from fieldcircuit.waveforms import Sinusoid, WaveformStack
from tests.conftest import random_energy_system
from tests.oracles import direct_sum_spec

# Set before the first run: the batched sums reorder floating-point
# additions, so agreement is to a few ulps of the summed magnitudes.
RTOL = 1e-12

_BLOCKS = ("E", "J", "R", "B", "M1", "M2", "S")


# --- reference: the per-step bookkeeping, one step at a time -----------------

def _discrete_flow(sys, z_k, z_next, tau, endpoint=False):
    """w = [(z1⁺−z1)/τ; S z2*; z3*] with z* the step midpoint, or the
    endpoint z⁺."""
    p = sys.partition
    z_at = z_next if endpoint else 0.5 * (z_k + z_next)
    _, z2, z3 = p.split(z_at)
    d1 = (z_next[: p.n1] - z_k[: p.n1]) / tau
    return np.concatenate([d1, to_dense(sys.S) @ z2, z3])


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
        endpoint = method == "implicit_euler"
        w = _discrete_flow(sys, states[k], states[k + 1], tau, endpoint)
        y = b_mat.T @ w
        if method == "trapezoidal":
            u_step = 0.5 * (u(t_k) + u(t_k + tau))
        elif endpoint:
            u_step = u(t_k + tau)
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
def test_batched_bookkeeping_matches_per_step(rng, sparse_stepper, method):
    # the sparse path audits the full states, so H is hamiltonian() of each
    # stored state bit for bit; tests/test_condensed.py holds the condensed
    # audit to round-off
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


def _implicit_euler_identity_defect(sys, traj):
    """Largest |ΔH − supplied + dissipated + ½(Δz1ᵀM1Δz1 + Δz2ᵀM2Δz2)| over
    the steps, relative to the largest stored energy: ΔH cancels digits of
    H, so round-off scales with H, not with the step terms."""
    p = sys.partition
    dz = np.diff(traj.states, axis=0)
    numerical = hamiltonian(sys, np.hstack(
        [dz[:, : p.n1 + p.n2], np.zeros((len(dz), p.n3))]))
    terms = (np.diff(traj.hamiltonians), np.diff(traj.supplied_cum),
             np.diff(traj.dissipated_cum), numerical)
    defect = terms[0] - terms[1] + terms[2] + terms[3]
    return np.max(np.abs(defect)) / np.max(np.abs(traj.hamiltonians))


def test_implicit_euler_balance_is_exact_up_to_numerical_dissipation(rng):
    cfg = OscillatorConfig(method="implicit_euler", conductor_kind="solid",
                           core_conductive=True, t_end=10e-6)
    parts = build_oscillator(cfg)
    traj = simulate(parts.system, parts.z0, parts.u, cfg.tau, cfg.t_end,
                    cfg.method)
    assert _implicit_euler_identity_defect(parts.system, traj) <= 1e-12
    tau = 0.05
    for k in range(6):
        sys_r = random_energy_system(rng, 3, 3, 2, 2, singular_e=k % 2 == 1)
        z0 = rng.standard_normal(sys_r.partition.n)
        traj = simulate(sys_r, z0, _drive(2), tau, 40 * tau, "implicit_euler")
        assert _implicit_euler_identity_defect(sys_r, traj) <= 1e-12


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


def test_as_block_returns_a_fresh_canonical_float64_csr_array(rng):
    dense = rng.standard_normal((4, 3))
    dense[dense < 0.3] = 0.0
    # int64 indices, unsorted, with a duplicate entry
    messy = sp.csr_matrix((np.array([2, 1, 5, 4], dtype=np.int64),
                           np.array([2, 0, 0, 0], dtype=np.int64),
                           np.array([0, 2, 4, 4, 4], dtype=np.int64)),
                          shape=(4, 3))
    want_messy = messy.toarray().astype(np.float64)
    for given in (dense, dense.astype(np.float32), sp.csr_array(dense),
                  sp.csr_matrix(dense), sp.csc_array(dense),
                  sp.coo_array(dense), messy):
        block = as_block(given, (4, 3), "X")
        assert isinstance(block, sp.csr_array)
        assert block.dtype == np.float64
        assert block.has_canonical_format
        want = want_messy if given is messy else np.asarray(
            to_dense(given), dtype=np.float64)
        assert np.array_equal(block.toarray(), want)
        arrays = ((given.data, given.indices, given.indptr)
                  if sp.issparse(given) and given.format == "csr"
                  else (given,) if not sp.issparse(given) else ())
        for mine in (block.data, block.indices, block.indptr):
            assert not any(np.shares_memory(mine, theirs)
                           for theirs in arrays)
    # the messy input itself is left as it was
    assert list(messy.indices) == [2, 0, 0, 0]


def test_m2_given_as_e_is_one_block(rng):
    sys_r = random_energy_system(rng, 2, 3, 1, 1)
    e = sp.csr_array(sys_r.M2)
    shared = EnergySystem(sys_r.partition, E=e, J=sys_r.J, R=sys_r.R,
                          B=sys_r.B, M1=sys_r.M1, M2=e,
                          S=sp.identity(3, format="csr"))
    assert shared.M2 is shared.E
    assert shared.E is not e
    apart = EnergySystem(sys_r.partition, E=e, J=sys_r.J, R=sys_r.R,
                         B=sys_r.B, M1=sys_r.M1, M2=e.copy(),
                         S=sp.identity(3, format="csr"))
    assert apart.M2 is not apart.E
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(shared.M2, name),
                              getattr(apart.M2, name))


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
    _assert_csr_blocks(interconnect([a, b], spec), _BLOCKS)

    stranded = StrandedModel(_spd(rng, 3, rank=2), _spd(rng, 3),
                             rng.standard_normal((3, 1)), np.array([[0.5]]))
    nl = parse_netlist("FW1 0 1 stranded ws\nC1 1 0 1u\nR1 1 0 10\n")
    inc = build_incidence(nl)
    _, systems, binding = bind_circuit(inc, {"ws": stranded})
    _assert_csr_blocks(couple(mna_system(inc), systems, binding), _BLOCKS)


def test_loaded_system_is_csr(tmp_path, rng):
    save_system(random_energy_system(rng), str(tmp_path / "sys"))
    _assert_csr_blocks(load_system(str(tmp_path / "sys")), _BLOCKS)
