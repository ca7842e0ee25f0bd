import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fieldcircuit import structure
from fieldcircuit.structure import (EnergySystem, NumericalError,
                                    Partition, StructureError, as_block,
                                    dae_residual, effort_flow, fro_norm,
                                    hamiltonian, min_sym_eig, output,
                                    power_terms, to_dense, validate)
from tests.conftest import random_energy_system


def lc_fixture():
    # capacitor + inductor written directly in the z2 block
    c, l = 2.0, 3.0
    m2 = np.diag([c, l])
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    return EnergySystem(Partition(0, 2, 0, 1), E=m2, J=j,
                        R=np.zeros((2, 2)), B=np.array([[1.0], [0.0]]),
                        M1=np.zeros((0, 0)), M2=m2, S=np.eye(2))


def test_validate_accepts_lc_fixture():
    rep = validate(lc_fixture())
    assert rep.ok
    assert rep.skew_defect == 0.0
    assert rep.min_R_eig >= 0.0


def test_validate_random_systems(rng):
    for k in range(25):
        sys_k = random_energy_system(rng, n1=k % 4, n2=2 + k % 3, n3=k % 3,
                                     m=1 + k % 2)
        rep = validate(sys_k)
        assert rep.ok, rep.summary()


def test_validate_flags_broken_skew(rng):
    sys_r = random_energy_system(rng)
    j_bad = to_dense(sys_r.J).copy()
    j_bad[0, 1] += 1.0
    bad = EnergySystem(sys_r.partition, E=sys_r.E, J=j_bad, R=sys_r.R,
                       B=sys_r.B, M1=sys_r.M1, M2=sys_r.M2, S=sys_r.S)
    rep = validate(bad)
    assert not rep.ok
    assert rep.skew_defect > 0.5


def test_validate_flags_indefinite_r(rng):
    sys_r = random_energy_system(rng)
    r_bad = to_dense(sys_r.R).copy()
    n = r_bad.shape[0]
    r_bad -= 2.0 * np.linalg.eigvalsh(r_bad)[-1] * np.eye(n)
    bad = EnergySystem(sys_r.partition, E=sys_r.E, J=sys_r.J, R=r_bad,
                       B=sys_r.B, M1=sys_r.M1, M2=sys_r.M2, S=sys_r.S)
    assert not validate(bad).ok


def test_validate_flags_effort_mismatch(rng):
    sys_r = random_energy_system(rng, n2=3)
    s_bad = to_dense(sys_r.S) + 0.3
    bad = EnergySystem(sys_r.partition, E=sys_r.E, J=sys_r.J, R=sys_r.R,
                       B=sys_r.B, M1=sys_r.M1, M2=sys_r.M2, S=s_bad)
    rep = validate(bad)
    assert not rep.ok
    assert rep.effort_defect > 0.0


def test_hamiltonian_quadratic_form(rng):
    sys_r = random_energy_system(rng, n1=2, n2=3, n3=1)
    z = rng.standard_normal(6)
    z1, z2, _ = sys_r.partition.split(z)
    want = 0.5 * z1 @ to_dense(sys_r.M1) @ z1 + 0.5 * z2 @ to_dense(sys_r.M2) @ z2
    assert hamiltonian(sys_r, z) == pytest.approx(want, rel=1e-14)


def test_power_terms_balance_identity(rng):
    # d/dt H = -w'Rw + <y,u> holds along any consistent flow direction:
    # contract the residual rows with the flow w
    sys_r = random_energy_system(rng, n1=2, n2=2, n3=2, m=2)
    z = rng.standard_normal(6)
    u = rng.standard_normal(2)
    dz1 = rng.standard_normal(2)
    dz2 = rng.standard_normal(2)
    zdot = np.concatenate([dz1, dz2, np.zeros(2)])
    w = effort_flow(sys_r, dz1, z)
    res = dae_residual(sys_r, z, zdot, u)
    y = output(sys_r, dz1, z)
    diss, supply = power_terms(sys_r, dz1, z, u)
    z1, z2, _ = sys_r.partition.split(z)
    dh = z1 @ to_dense(sys_r.M1) @ dz1 + z2 @ to_dense(sys_r.M2) @ dz2
    # residual == 0 would give dh = -diss + supply; the defect is w'res
    assert dh - (-diss + supply) == pytest.approx(float(w @ res), rel=1e-10,
                                                  abs=1e-10)
    assert supply == pytest.approx(float(y @ u), rel=1e-12)


def test_output_is_b_transpose_w(rng):
    sys_r = random_energy_system(rng)
    z = rng.standard_normal(sys_r.partition.n)
    dz1 = rng.standard_normal(sys_r.partition.n1)
    w = effort_flow(sys_r, dz1, z)
    y = output(sys_r, dz1, z)
    np.testing.assert_allclose(y, to_dense(sys_r.B).T @ w, rtol=1e-13)


def test_partition_split_rejects_bad_length():
    with pytest.raises(StructureError):
        Partition(1, 1, 1, 0).split(np.zeros(4))


def test_partition_rejects_negative():
    with pytest.raises(StructureError):
        Partition(-1, 0, 0, 0)


def test_shape_mismatch_rejected():
    with pytest.raises(StructureError):
        EnergySystem(Partition(0, 2, 0, 1), E=np.eye(3), J=np.zeros((2, 2)),
                     R=np.zeros((2, 2)), B=np.zeros((2, 1)),
                     M1=np.zeros((0, 0)), M2=np.eye(2), S=np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0 + 2.0j, 0j])
def test_as_block_refuses_complex_and_non_finite_entries(bad):
    # a complex dtype is refused even where every imaginary part is 0
    dense = np.eye(3, dtype=np.result_type(float, type(bad)))
    dense[1, 2] = bad
    what = "complex" if isinstance(bad, complex) else "non-finite"
    for block in (dense, sp.csr_array(dense), sp.coo_matrix(dense)):
        with pytest.raises(StructureError, match=f"block R: {what}"):
            as_block(block, (3, 3), "R")
    with pytest.raises(StructureError, match=f"block R: {what}"):
        EnergySystem(Partition(0, 0, 3, 0), E=np.zeros((0, 0)),
                     J=np.zeros((3, 3)), R=dense, B=np.zeros((3, 0)),
                     M1=np.zeros((0, 0)), M2=np.zeros((0, 0)),
                     S=np.zeros((0, 0)))


def test_state_labels_checked():
    with pytest.raises(StructureError):
        EnergySystem(Partition(0, 2, 0, 1), E=np.eye(2), J=np.zeros((2, 2)),
                     R=np.zeros((2, 2)), B=np.zeros((2, 1)),
                     M1=np.zeros((0, 0)), M2=np.eye(2), S=np.eye(2),
                     state_labels=("only_one",))


# --- symmetric eigenvalue bound -------------------------------------------

def test_min_sym_eig_dense_matches_eigvalsh(rng):
    g = rng.standard_normal((40, 40))
    r = g @ g.T
    assert min_sym_eig(r) == pytest.approx(np.linalg.eigvalsh(r)[0],
                                           rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 40])
def test_min_sym_eig_small_indefinite_matches_eigvalsh(rng, n):
    # one path at every size: the certificate fails on an indefinite block,
    # then a 1×1 block gives its entry and a larger one a Lanczos estimate
    g = rng.standard_normal((n, n))
    r = g + g.T - 0.5 * n * np.eye(n)
    oracle = np.linalg.eigvalsh(r)[0]
    assert oracle < 0.0
    for shift in (0.0, 1e-10):
        value, is_bound = structure._min_sym_eig(sp.csr_array(r), shift)
        assert not is_bound
        assert value == pytest.approx(oracle, rel=1e-8)


def test_min_sym_eig_small_psd_block_is_certified(rng):
    g = rng.standard_normal((6, 3))
    r = g @ g.T                               # PSD, rank 3
    assert structure._min_sym_eig(r, 1e-10) == (-1e-10, True)
    assert structure._min_sym_eig(np.array([[2.0]]), 1e-10) == (-1e-10, True)
    assert min_sym_eig(np.array([[2.0]])) == 2.0


def test_validate_certifies_the_1mm_solid_core_oscillator():
    from fieldcircuit import experiments
    parts = experiments.build_oscillator(experiments.OscillatorConfig(
        conductor_kind="solid", core_conductive=True, mesh_h=1e-3))
    assert parts.system.n == 744
    rep = validate(parts.system)
    assert rep.ok and rep.min_R_eig_is_bound
    assert rep.min_R_eig == -1e-10 * fro_norm(parts.system.R)
    assert "(certified lower bound)" in rep.summary()


def test_min_sym_eig_sparse_psd_certificate(rng):
    # large sparse SPD: factorization certificate returns the -shift bound
    n = 2500
    diag = rng.uniform(1.0, 2.0, n)
    main = sp.diags_array([np.full(n - 1, -0.4), diag, np.full(n - 1, -0.4)],
                          offsets=[-1, 0, 1], format="csr")
    shift = 1e-8
    bound = min_sym_eig(main, shift=shift)
    assert bound == -shift


def test_validate_summary_names_certified_bound():
    # the PSD check of R on the h = 0.5 mm solid system (n = 3084) returns
    # the certified bound −shift, not an eigenvalue
    from fieldcircuit import experiments
    parts = experiments.build_oscillator(experiments.OscillatorConfig(
        conductor_kind="solid", core_conductive=True, mesh_h=0.5e-3))
    rep = validate(parts.system)
    assert rep.ok and rep.min_R_eig_is_bound and rep.min_R_eig < 0.0
    assert (f"min eig of symmetrized R     >= {rep.min_R_eig:.3e} "
            "(certified lower bound)") in rep.summary().splitlines()
    small = validate(lc_fixture())
    assert not small.min_R_eig_is_bound
    assert "min eig of symmetrized R      = 0.000e+00" in small.summary()


def test_min_sym_eig_sparse_indefinite_detected(rng):
    n = 2500
    diag = np.ones(n)
    diag[7] = -5.0
    mat = sp.diags_array(diag, format="csr")
    assert min_sym_eig(mat, shift=1e-8) < -1.0


def test_validate_zero_r_past_dense_limit_is_fast():
    # lossless: R has no nonzeros, so its smallest eigenvalue is 0 without
    # any eigensolve or factorization
    n = 3000
    eye = sp.identity(n, format="csr")
    skew = sp.diags_array([np.ones(n - 1), -np.ones(n - 1)], offsets=[1, -1],
                          format="csr")
    sys_z = EnergySystem(Partition(0, n, 0, 0), E=eye, J=skew,
                         R=sp.csr_array((n, n)), B=np.zeros((n, 0)),
                         M1=np.zeros((0, 0)), M2=eye, S=eye)
    start = time.perf_counter()
    rep = validate(sys_z)
    assert time.perf_counter() - start < 1.0
    assert rep.ok and rep.min_R_eig == 0.0 and not rep.min_R_eig_is_bound


def test_min_sym_eig_raises_when_lanczos_fails(monkeypatch):
    def failing_eigsh(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.zeros(0),
                                       np.zeros((0, 0)))

    monkeypatch.setattr(structure.spla, "eigsh", failing_eigsh)
    n = 7
    with pytest.raises(NumericalError, match=f"{n} x {n}"):
        min_sym_eig(sp.identity(n, format="csr"))


def test_fro_norm_zero_block():
    assert fro_norm(np.zeros((0, 0))) == 0.0


def test_dissipation_nonnegative_mass_property(rng):
    # w'Rw can only go negative by round-off: 1000 samples across 50 systems
    for _ in range(50):
        sys_r = random_energy_system(rng, n1=rng.integers(0, 4),
                                     n2=rng.integers(1, 5),
                                     n3=rng.integers(0, 3), m=2)
        p = sys_r.partition
        r_norm = fro_norm(sys_r.R)
        for _ in range(20):
            z = rng.standard_normal(p.n)
            dz1 = rng.standard_normal(p.n1)
            u = rng.standard_normal(p.m)
            w = effort_flow(sys_r, dz1, z)
            diss, _ = power_terms(sys_r, dz1, z, u)
            assert diss >= -1e-12 * r_norm * float(w @ w)


def test_hamiltonian_ignores_algebraic_states(rng):
    sys_r = random_energy_system(rng)
    p = sys_r.partition
    z = rng.standard_normal(p.n)
    other = z.copy()
    other[p.n1 + p.n2:] = rng.standard_normal(p.n3)
    assert hamiltonian(sys_r, z) == hamiltonian(sys_r, other)


def test_dae_residual_is_linear(rng):
    sys_r = random_energy_system(rng)
    p = sys_r.partition
    a, b = rng.standard_normal(2)
    za, zb = rng.standard_normal((2, p.n))
    da, db = rng.standard_normal((2, p.n))
    ua, ub = rng.standard_normal((2, p.m))
    combined = dae_residual(sys_r, a * za + b * zb, a * da + b * db,
                            a * ua + b * ub)
    split = a * dae_residual(sys_r, za, da, ua) \
        + b * dae_residual(sys_r, zb, db, ub)
    scale = max(np.max(np.abs(split)), 1.0)
    assert np.max(np.abs(combined - split)) <= 1e-12 * scale
