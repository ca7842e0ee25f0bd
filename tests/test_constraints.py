"""Consistent initialization from the block structure of E_dae: the sparse
constraint rows against the dense left-null-space formula, cross-row
constraints at every size, the size of the dense blocks, and the memory
the initialization takes."""

import pathlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from fieldcircuit import experiments, mna
from fieldcircuit._dae import constraint_basis
from fieldcircuit.integrators import consistent_init, simulate, to_linear_dae
from fieldcircuit.structure import (EnergySystem, Partition, StructureError,
                                    to_dense)
from fieldcircuit.waveforms import zero_input
from tests.conftest import random_energy_system

NETLISTS = pathlib.Path(__file__).parent / "netlists" / "valid"


def dense_constraints(dae):
    """Reference rows (C, D): one SVD of the whole dense row-equilibrated
    E_dae for its left null space V, then Vᵀ A and Vᵀ B."""
    e, a, b = (to_dense(m) for m in (dae.E_dae, dae.A_dae, dae.B_dae))
    scale = np.max(np.abs(np.hstack([e, a, b])), axis=1)
    scale[scale == 0.0] = 1.0
    v = scipy.linalg.null_space((e / scale[:, None]).T)
    return v.T @ (a / scale[:, None]), v.T @ (b / scale[:, None])


def relative_residual(c, d, z, u):
    """Largest |C z + D u| per row, relative to the row's largest entry times
    the largest state or input entry (the measure consistent_init checks)."""
    res = np.abs(c @ z + d @ u)
    scale = np.maximum(
        np.max(np.abs(c), axis=1, initial=0.0) * max(np.max(np.abs(z)), 1.0),
        np.max(np.abs(d), axis=1, initial=0.0)
        * max(np.max(np.abs(u), initial=0.0), 1.0))
    scale[scale == 0.0] = 1.0
    return float(np.max(res / scale, initial=0.0))


def assert_dense_parity(sys, z0, u0):
    dae = to_linear_dae(sys)
    c_ref, d_ref = dense_constraints(dae)
    c_mat, d_mat, rows, dependent = constraint_basis(dae)
    # as many constraints as n − rank(E_dae)
    assert c_mat.shape == (c_ref.shape[0], sys.n)
    assert d_mat.shape == (c_ref.shape[0], sys.m)
    # and r = rank(E_dae) independent rows R of E_dae; the dependent rows,
    # one per constraint row, are the others
    assert rows.size == sys.n - c_mat.shape[0]
    assert dependent.size == c_mat.shape[0]
    assert np.array_equal(np.sort(np.concatenate((rows, dependent))),
                          np.arange(sys.n))
    assert np.linalg.matrix_rank(dae.E_dae[rows].toarray()) == rows.size
    assert relative_residual(c_ref, d_ref, z0, u0) <= 1e-12


OSCILLATORS_1MM = {
    "stranded-lossless": experiments.OscillatorConfig(),
    "stranded-core": experiments.OscillatorConfig(core_conductive=True),
    "solid-core": experiments.OscillatorConfig(conductor_kind="solid",
                                               core_conductive=True),
}


@pytest.mark.parametrize("name", sorted(OSCILLATORS_1MM))
def test_init_matches_dense_null_space_on_oscillators(name):
    parts = experiments.build_oscillator(OSCILLATORS_1MM[name])
    assert_dense_parity(parts.system, parts.z0, parts.u(0.0))


def test_init_matches_dense_null_space_on_random_systems(rng):
    for k in range(8):
        singular = bool(k % 2)
        sys_r = random_energy_system(rng, n1=k % 3, n2=2 + k % 3,
                                     n3=1 + k % 2, m=1 + k % 2,
                                     singular_e=singular)
        u0 = rng.standard_normal(sys_r.m)
        # with singular E, the cross-row null direction of the z2 block
        # decides part of z2
        z0 = consistent_init(sys_r, rng.standard_normal(sys_r.n), u0)
        assert_dense_parity(sys_r, z0, u0)


def test_init_keeps_z1_and_image_of_e_on_singular_dense_e():
    # E is singular but has no zero column: the kept image E z2 leaves one
    # direction of z2 to the constraints
    rng = np.random.default_rng(7)
    for _ in range(3):
        sys_r = random_energy_system(rng, n1=1, n2=3, n3=1, m=2,
                                     singular_e=True)
        given = rng.standard_normal(sys_r.n)
        u0 = rng.standard_normal(sys_r.m)
        z0 = consistent_init(sys_r, given, u0)
        assert_dense_parity(sys_r, z0, u0)
        assert z0[0] == given[0]
        e_z2 = sys_r.E @ z0[1:4]
        assert np.max(np.abs(e_z2 - sys_r.E @ given[1:4])) \
            <= 1e-12 * np.max(np.abs(e_z2))


def test_init_matches_dense_null_space_with_coupled_pivot_rows(rng):
    # R11 vanishes on the second gradient state, so F11 has one zero on its
    # diagonal: that row stays in the Schur remainder, and the pivot row
    # reaches its column through J11 (E[P, K] ≠ 0)
    sys_r = random_energy_system(rng, n1=3, n2=2, n3=2, m=2)
    g = rng.standard_normal((sys_r.n, sys_r.n))
    g[1] = 0.0
    r = g @ g.T + 0.5 * np.diag(np.arange(sys_r.n) != 1)
    sys_c = EnergySystem(sys_r.partition, E=sys_r.E, J=sys_r.J, R=r,
                         B=sys_r.B, M1=sys_r.M1, M2=sys_r.M2, S=sys_r.S)
    f11 = to_dense(sys_c.J - sys_c.R)[:3, :3]
    assert f11[1, 1] == 0.0 and f11[0, 1] != 0.0
    u0 = rng.standard_normal(sys_c.m)
    z0 = consistent_init(sys_c, rng.standard_normal(sys_c.n), u0)
    assert_dense_parity(sys_c, z0, u0)


def test_init_dc_block_floats_the_capacitor():
    # a capacitor between two non-ground nodes: only the charge is kept, so
    # both plates start at the source voltage with no charge
    nl = mna.parse_netlist((NETLISTS / "dc_block.cir").read_text())
    inc = mna.build_incidence(nl)
    sys_m = mna.mna_system(inc)
    u = mna.input_stack(nl, inc)
    z0 = consistent_init(sys_m, np.zeros(sys_m.n), u)
    assert_dense_parity(sys_m, z0, u(0.0))
    assert sys_m.state_labels == ("phi_src", "phi_out", "jV_V1")
    v_src = float(u(0.0)[0])
    assert v_src == pytest.approx(1.1, rel=1e-9)
    np.testing.assert_allclose(z0, [v_src, v_src, -v_src / 600.0],
                               rtol=1e-12)


def test_constraint_basis_leaves_the_shared_rewrite_unchanged():
    # rlc_series assembles an A_dae whose rows are not in column order; a
    # product sums each row in storage order, so sorting it in place would
    # move every later trajectory of the system in the last bits
    nl = mna.parse_netlist((NETLISTS / "rlc_series.cir").read_text())
    inc = mna.build_incidence(nl)
    u = mna.input_stack(nl, inc)

    def run(probe):
        sys_m = mna.mna_system(inc)
        dae = to_linear_dae(sys_m)
        mats = (dae.E_dae, dae.A_dae, dae.B_dae)
        before = [(m.indices.copy(), m.indptr.copy(), m.data.copy())
                  for m in mats]
        assert not dae.A_dae.has_sorted_indices
        if probe:
            constraint_basis(dae)
            for mat, arrays in zip(mats, before):
                for now, then in zip((mat.indices, mat.indptr, mat.data),
                                     arrays):
                    np.testing.assert_array_equal(now, then)
        z0 = consistent_init(sys_m, np.zeros(sys_m.n), u)
        return simulate(sys_m, z0, u, nl.tau, nl.t_end, "trapezoidal")

    probed, plain = run(True), run(False)
    for name in ("states", "hamiltonians", "dissipated_cum", "supplied_cum",
                 "outputs"):
        np.testing.assert_array_equal(getattr(probed, name),
                                      getattr(plain, name))


def test_init_dense_blocks_are_circuit_sized(monkeypatch):
    # the conductive block is eliminated by a sparse LU; only the circuit
    # and coupling rows reach the dense SVD
    parts = experiments.build_oscillator(experiments.OscillatorConfig(
        conductor_kind="solid", core_conductive=True))
    p = parts.system.partition
    null_space = scipy.linalg.null_space
    shapes = []

    def recording_null_space(a, *args, **kwargs):
        shapes.append(a.shape)
        return null_space(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "null_space", recording_null_space)
    z0 = consistent_init(parts.system, parts.z0, parts.u)
    assert shapes and max(max(shape) for shape in shapes) <= p.n2 + p.n3
    assert np.array_equal(z0, parts.z0)


def test_index2_initializes_past_the_old_dense_bound():
    # h = 0.4 mm: 4953 states; the source current starts at −C u'(0) = −10π
    cfg = experiments.OscillatorConfig(mesh_h=0.4e-3, t_end=0.2e-6)
    report = experiments.run_index2(cfg)
    parts = report.parts
    assert parts.system.n > 4900
    jv0 = parts.z0[parts.system.state_labels.index("jV_V1")]
    assert abs(jv0 + 10.0 * np.pi) <= 1e-12 * 10.0 * np.pi


@pytest.mark.parametrize("pairs", [10, 1300])
def test_init_finds_cross_row_constraints_at_every_size(pairs):
    # E = M2 = I ⊗ [[1, 1], [1, 1]] has no zero row; each pair has the left
    # null direction [1, −1], so z_a + z_b = 0.  All of z2 is in the image
    # of E and stays pinned, and all ones violates every constraint.  1300
    # pairs are 2600 nonzero rows, more than the hidden-constraint bound.
    n = 2 * pairs
    eye = sp.identity(pairs, format="csr")
    e = sp.kron(eye, np.ones((2, 2)), format="csr")
    sys_p = EnergySystem(Partition(0, n, 0, 0), E=e,
                         J=sp.kron(eye, [[0.0, 1.0], [-1.0, 0.0]],
                                   format="csr"),
                         R=sp.csr_array((n, n)), B=np.zeros((n, 0)),
                         M1=np.zeros((0, 0)), M2=e,
                         S=sp.identity(n, format="csr"))
    with pytest.raises(StructureError, match="inconsistent initial values"):
        consistent_init(sys_p, np.ones(n), zero_input(0))


@pytest.mark.parametrize("cfg", [
    experiments.OscillatorConfig(mesh_h=0.5e-3),
    experiments.OscillatorConfig(conductor_kind="solid", core_conductive=True,
                                 mesh_h=0.5e-3),
], ids=["stranded-lossless", "solid-core"])
def test_init_memory_stays_far_below_dense(cfg):
    # an n×n float64 array would take n²·8 bytes (76 MB at n = 3084)
    parts = experiments.build_oscillator(cfg)
    n = parts.system.n
    tracemalloc.start()
    try:
        consistent_init(parts.system, parts.z0, parts.u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4
