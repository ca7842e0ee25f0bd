import os
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp

from fieldcircuit.conductors import (FoilModel, SolidModel, StrandedModel,
                                     foil_system, load_model, save_model,
                                     solid_from_mesh, solid_system,
                                     stranded_from_mesh, stranded_resistance,
                                     stranded_system, synth_foil, system_for)
from fieldcircuit.fem import Material, Rect, build_rect_mesh, lumped_inductance
from fieldcircuit.integrators import simulate
from fieldcircuit.serialization import read_manifest
from fieldcircuit.structure import (StructureError, dae_residual, hamiltonian,
                                    power_terms, to_dense, validate)
from fieldcircuit.waveforms import Sinusoid, Tabulated, WaveformStack


def _spd(rng, n, rank=None):
    g = rng.standard_normal((n, rank or n))
    return g @ g.T + (0.0 if rank else 0.1 * np.eye(n))


@pytest.fixture(scope="module")
def cond_mesh():
    rects = [Rect("air", 0.0, 1.0, -1.0, 1.0),
             Rect("bar", 0.3, 0.6, -0.4, 0.4)]
    return build_rect_mesh(rects, 0.2)


# --- stranded ----------------------------------------------------------------

def test_stranded_system_structure(rng):
    k_nu = _spd(rng, 4)
    m_sig = _spd(rng, 4, rank=2)
    x = rng.standard_normal((4, 1))
    r_str = np.array([[0.7]])
    sys_s = stranded_system(StrandedModel(m_sig, k_nu, x, r_str))
    assert validate(sys_s).ok
    p = sys_s.partition
    assert (p.n1, p.n2, p.n3, p.m) == (4, 0, 1, 1)
    # J carries X in the off-diagonal block, R stacks M_sigma and R_str
    jd = to_dense(sys_s.J)
    np.testing.assert_allclose(jd[:4, 4:], x)
    rd = to_dense(sys_s.R)
    np.testing.assert_allclose(rd[:4, :4], m_sig)
    assert rd[4, 4] == 0.7


def test_stranded_lossless_pure_skew(rng):
    k_nu = _spd(rng, 3)
    model = StrandedModel(np.zeros((3, 3)), k_nu,
                          rng.standard_normal((3, 1)), np.zeros((1, 1)))
    sys_s = stranded_system(model)
    assert np.all(to_dense(sys_s.R) == 0.0)
    assert validate(sys_s).ok


def test_stranded_rejects_indefinite_resistance(rng):
    with pytest.raises(StructureError):
        StrandedModel(np.zeros((2, 2)), np.eye(2),
                      rng.standard_normal((2, 1)), np.array([[-1.0]]))


def test_stranded_from_mesh_rejects_conductive_winding(cond_mesh):
    mats = {"air": Material("air"), "bar": Material("bar", 1.0, 1e5)}
    with pytest.raises(StructureError, match="zero bulk conductivity"):
        stranded_from_mesh(cond_mesh, mats, "bar", 10.0)


def test_stranded_from_mesh_resistance(cond_mesh):
    mats = {"air": Material("air"), "bar": Material("bar")}
    model = stranded_from_mesh(cond_mesh, mats, "bar", 10.0,
                               sigma_winding=5.8e7)
    assert model.R_str[0, 0] > 0.0
    assert validate(stranded_system(model)).ok
    # lossless variant has zero winding resistance
    lossless = stranded_from_mesh(cond_mesh, mats, "bar", 10.0)
    assert np.all(to_dense(lossless.R_str) == 0.0)


def test_stranded_resistance_gram_psd(rng):
    m_w = _spd(rng, 5, rank=3)
    x = m_w @ rng.standard_normal((5, 2))
    r = stranded_resistance(m_w, x)
    np.testing.assert_allclose(r, r.T, atol=1e-14 * np.max(np.abs(r)))
    assert np.min(np.linalg.eigvalsh(r)) >= -1e-10 * np.max(np.abs(r))


# --- solid --------------------------------------------------------------------

def test_solid_factorization_identity(rng):
    for _ in range(10):
        m_sig = _spd(rng, 4, rank=3)
        chi = rng.standard_normal((4, 1))
        g = chi.T @ m_sig @ chi
        model = SolidModel(m_sig, _spd(rng, 4), chi, g)
        sys_s = solid_system(model)
        assert validate(sys_s).ok
        # R = [I, -X]' M_sigma [I, -X]
        stack = np.hstack([np.eye(4), -chi])
        expected = stack.T @ m_sig @ stack
        rd = to_dense(sys_s.R)
        assert np.max(np.abs(rd - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_solid_zero_column(rng):
    m_sig = _spd(rng, 3, rank=2)
    model = SolidModel(m_sig, np.eye(3), np.zeros((3, 1)), np.zeros((1, 1)))
    rd = to_dense(solid_system(model).R)
    np.testing.assert_allclose(rd[:3, :3], m_sig)
    assert np.all(rd[3] == 0.0) and np.all(rd[:, 3] == 0.0)


def test_solid_rejects_wrong_conductance(rng):
    m_sig = _spd(rng, 3)
    chi = rng.standard_normal((3, 1))
    g_bad = chi.T @ m_sig @ chi + 1.0
    with pytest.raises(StructureError, match="Gram"):
        SolidModel(m_sig, np.eye(3), chi, g_bad)


def test_solid_dc_steady_state(cond_mesh):
    mats = {"air": Material("air"), "bar": Material("bar", 1.0, 1e6)}
    model = solid_from_mesh(cond_mesh, mats, "bar")
    sys_s = solid_system(model)
    v = 0.35
    # adot = 0: field row gives K a = M_sigma chi v, current row i = G v
    k = to_dense(model.K_nu)
    rhs = to_dense(model.M_sigma) @ to_dense(model.X_sol).ravel() * v
    a_star = np.linalg.solve(k, rhs)
    z = np.concatenate([a_star, [v]])
    zdot = np.zeros_like(z)
    i_dc = float(to_dense(model.G_sol)[0, 0]) * v
    res = dae_residual(sys_s, z, zdot, np.array([i_dc]))
    scale = max(np.max(np.abs(rhs)), i_dc)
    assert np.max(np.abs(res)) <= 1e-10 * scale


# --- foil ---------------------------------------------------------------------

def test_synth_foil_validates_over_draws(rng):
    for seed in range(25):
        m_sig = _spd(np.random.default_rng(seed), 5, rank=3)
        model = synth_foil(m_sig, n_p=2, seed=seed)
        g = to_dense(model.G_foil)
        assert np.max(np.abs(g - g.T)) <= 1e-12 * max(np.max(np.abs(g)), 1e-300)
        assert validate(foil_system(model)).ok


def test_synth_foil_deterministic():
    m_sig = _spd(np.random.default_rng(3), 4, rank=2)
    a = synth_foil(m_sig, n_p=2, seed=11)
    b = synth_foil(m_sig, n_p=2, seed=11)
    np.testing.assert_array_equal(to_dense(a.X_foil), to_dense(b.X_foil))
    np.testing.assert_array_equal(a.c, b.c)


def test_synth_foil_zero_conductivity():
    model = synth_foil(np.zeros((3, 3)), n_p=1, seed=0, k_nu=np.eye(3))
    assert np.all(to_dense(model.X_foil) == 0.0)
    assert np.all(to_dense(model.G_foil) == 0.0)


def test_foil_rejects_column_space_violation():
    m_sig = np.diag([1.0, 0.0])
    x = np.array([[0.0], [1.0]])      # weight on the null row
    with pytest.raises(StructureError, match="column space"):
        FoilModel(m_sig, np.eye(2), x, np.array([1.0]), np.array([[1.0]]))


def test_foil_solid_duality_np1(cond_mesh):
    # single-partition foil built from the solid data: driving the foil with
    # a voltage and the solid with the foil's simulated current must produce
    # the same fields, and the solid contact voltage returns the drive
    mats = {"air": Material("air"), "bar": Material("bar", 1.0, 1e4)}
    solid = solid_from_mesh(cond_mesh, mats, "bar")
    m_sig = to_dense(solid.M_sigma)
    chi = to_dense(solid.X_sol).ravel()
    foil = FoilModel(solid.M_sigma, solid.K_nu, (m_sig @ chi)[:, None],
                     np.array([1.0]), to_dense(solid.G_sol))
    sys_f = foil_system(foil)
    sys_s = solid_system(solid)
    n_w = solid.n_w

    tau, t_end = 1e-4, 2e-2
    drive = Sinusoid(0.0, 1.0, 120.0)
    traj_f = simulate(sys_f, np.zeros(n_w + 2), WaveformStack((drive,)),
                      tau, t_end, "midpoint")
    i_foil = traj_f.states[:, -1]
    t_mid = traj_f.times[:-1] + tau / 2.0
    i_mid = 0.5 * (i_foil[:-1] + i_foil[1:])
    current = Tabulated(tuple(t_mid), tuple(i_mid))
    traj_s = simulate(sys_s, np.zeros(n_w + 1), WaveformStack((current,)),
                      tau, t_end, "midpoint")

    a_scale = max(np.max(np.abs(traj_f.states[:, :n_w])), 1e-300)
    assert np.max(np.abs(traj_f.states[:, :n_w]
                         - traj_s.states[:, :n_w])) <= 1e-10 * a_scale
    e_mid = 0.5 * (traj_f.states[:-1, n_w] + traj_f.states[1:, n_w])
    v_mid = 0.5 * (traj_s.states[:-1, n_w] + traj_s.states[1:, n_w])
    v_scale = max(np.max(np.abs(v_mid)), 1e-300)
    assert np.max(np.abs(e_mid - v_mid)) <= 1e-10 * v_scale
    drive_mid = np.array([drive(t) for t in t_mid])
    assert np.max(np.abs(v_mid - drive_mid)) <= 1e-10


# --- power balance: continuous rate recovered at second order -----------------

def _balance_defect(sys_c, u, tau, t_end, t_star):
    traj = simulate(sys_c, np.zeros(sys_c.partition.n), u, tau, t_end,
                    "midpoint")
    k = int(round(t_star / tau))
    dh = (traj.hamiltonians[k + 1] - traj.hamiltonians[k - 1]) / (2.0 * tau)
    # grid samples of algebraic components alternate around the true value
    # under the midpoint rule; the [1,2,1]/4 filter removes that parasite
    # while staying second-order accurate
    z = 0.25 * (traj.states[k - 1] + 2.0 * traj.states[k]
                + traj.states[k + 1])
    n1 = sys_c.partition.n1
    z[:n1] = traj.states[k, :n1]
    zdot1 = (traj.states[k + 1, :n1] - traj.states[k - 1, :n1]) / (2.0 * tau)
    uk = np.array([u(traj.times[k])]).ravel()
    diss, supply = power_terms(sys_c, zdot1, z, uk)
    return abs(dh - (supply - diss))


@pytest.mark.parametrize("kind", ["stranded", "solid", "foil"])
def test_power_balance_second_order(kind, rng):
    r = np.random.default_rng(99)
    k_nu = _spd(r, 3)
    m_sig = _spd(r, 3, rank=2)
    if kind == "stranded":
        model = StrandedModel(m_sig, k_nu, r.standard_normal((3, 1)),
                              np.array([[0.4]]))
    elif kind == "solid":
        chi = r.standard_normal((3, 1))
        model = SolidModel(m_sig, k_nu, chi, chi.T @ m_sig @ chi)
    else:
        model = synth_foil(m_sig, n_p=1, seed=5, k_nu=k_nu)
    sys_c = system_for(model)
    u = WaveformStack((Sinusoid(0.0, 1.0, 0.8),))
    d1 = _balance_defect(sys_c, u, 0.02, 1.0, 0.5)
    d2 = _balance_defect(sys_c, u, 0.01, 1.0, 0.5)
    assert d1 / d2 == pytest.approx(4.0, rel=0.5)


# --- model directories ----------------------------------------------------------

ROLES = {"stranded": ["M_sigma", "K_nu", "X", "R"],
         "solid": ["M_sigma", "K_nu", "X", "G"],
         "foil": ["M_sigma", "K_nu", "X", "c", "G"]}


def _saved_models(tmp_path, cond_mesh, rng):
    mats_s = {"air": Material("air"), "bar": Material("bar")}
    mats_c = {"air": Material("air"), "bar": Material("bar", 1.0, 1e5)}
    models = {
        "stranded": stranded_from_mesh(cond_mesh, mats_s, "bar", 10.0,
                                       sigma_winding=5.8e7),
        "solid": solid_from_mesh(cond_mesh, mats_c, "bar"),
        "foil": synth_foil(_spd(rng, 4, rank=2), n_p=2, seed=1,
                           k_nu=_spd(rng, 4)),
    }
    for kind, model in models.items():
        save_model(model, str(tmp_path / kind))
    return models


def test_model_round_trip_all_kinds(tmp_path, cond_mesh, rng):
    for kind, model in _saved_models(tmp_path, cond_mesh, rng).items():
        d = str(tmp_path / kind)
        back = load_model(d)
        assert type(back) is type(model)
        for field in fields(model):
            np.testing.assert_array_equal(
                to_dense(getattr(back, field.name)),
                to_dense(getattr(model, field.name)), err_msg=field.name)
        manifest = read_manifest(os.path.join(d, "manifest"))
        assert list(manifest) == ["kind"] + ROLES[kind]
        assert manifest["kind"] == kind
        sys_back = system_for(back)
        assert validate(sys_back).ok


def test_model_dispatch_rejects_non_models(tmp_path):
    for call in (lambda m: save_model(m, str(tmp_path / "x")), system_for):
        with pytest.raises(StructureError, match="not a conductor model"):
            call(np.eye(2))
    assert not (tmp_path / "x").exists()


def test_load_model_rejects_unknown_kind_and_missing_role(tmp_path, cond_mesh,
                                                          rng):
    _saved_models(tmp_path, cond_mesh, rng)
    man_path = tmp_path / "foil" / "manifest"
    text = man_path.read_text(encoding="utf-8")
    man_path.write_text(text.replace("kind = foil", "kind = sheet"),
                        encoding="utf-8")
    with pytest.raises(StructureError, match="unknown or missing model kind"):
        load_model(str(tmp_path / "foil"))
    man_path.write_text(text.replace("c = c.mtx\n", ""), encoding="utf-8")
    with pytest.raises(StructureError, match="missing role 'c'"):
        load_model(str(tmp_path / "foil"))


def test_load_model_missing_manifest(tmp_path):
    with pytest.raises(StructureError, match="manifest"):
        load_model(str(tmp_path))


def test_lumped_inductance_trivials(rng):
    k = _spd(rng, 4)
    assert lumped_inductance(k, np.zeros(4))[0] == 0.0
    x = rng.standard_normal(4)
    assert lumped_inductance(k, x)[0] > 0.0
