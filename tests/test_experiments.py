import math
import os

import numpy as np
import pytest

from fieldcircuit.experiments import (CONVERGENCE_METHODS, CONVERGENCE_TAUS,
                                      EXPECTED_ORDERS, OscillatorConfig,
                                      analytic_reference, build_oscillator,
                                      fit_order, measure_omega,
                                      oscillator_geometry, run_convergence,
                                      run_index2, run_oscillator)
from fieldcircuit.fem import check_mesh, parse_geometry
from fieldcircuit.integrators import simulate
from fieldcircuit.serialization import read_manifest, read_trajectory_csv
from fieldcircuit.structure import StructureError, hamiltonian

COARSE = dict(mesh_h=2.5e-3)


@pytest.fixture(scope="module")
def coarse_parts():
    return build_oscillator(OscillatorConfig(**COARSE))


# --- analytic reference -----------------------------------------------------------

def test_analytic_reference_at_zero():
    phi, cur, h0 = analytic_reference(2.0, 3.0, v0=1.5, i0=-0.5, t=0.0)
    assert phi == 1.5
    assert cur == -0.5
    assert h0 == 0.5 * 3.0 * 1.5**2 + 0.5 * 2.0 * 0.5**2


def test_analytic_reference_quarter_period():
    phi, cur, _ = analytic_reference(1.0, 1.0, v0=1.0, i0=0.0, t=math.pi / 2)
    assert phi == pytest.approx(0.0, abs=1e-15)
    assert cur == pytest.approx(-1.0)


def test_analytic_reference_conserves_energy(rng):
    l_val, c_val, v0, i0 = 2.2e-6, 1e-4, 0.7, 0.2
    for t in rng.uniform(0.0, 1e-3, size=100):
        phi, cur, h0 = analytic_reference(l_val, c_val, v0, i0, t)
        h_t = 0.5 * c_val * phi**2 + 0.5 * l_val * cur**2
        assert h_t == pytest.approx(h0, rel=1e-12)


def test_analytic_reference_rejects_nonpositive():
    with pytest.raises(StructureError):
        analytic_reference(0.0, 1.0, 1.0, 0.0, 0.0)


# --- frequency measurement -----------------------------------------------------------

def test_measure_omega_synthetic():
    w = 2.0 * math.pi * 12345.0
    t = np.linspace(0.0, 1e-3, 4001)
    assert measure_omega(t, np.sin(w * t + 0.3)) == pytest.approx(w, rel=1e-6)


def test_measure_omega_handles_exact_zeros():
    t = np.linspace(0.0, 2.0, 9)            # sin(pi t) hits exact zeros
    sig = np.sin(np.pi * t)
    sig[np.abs(sig) < 1e-15] = 0.0
    assert measure_omega(t, sig) == pytest.approx(np.pi, rel=1e-12)


def test_measure_omega_needs_two_crossings():
    t = np.linspace(0.0, 1.0, 50)
    with pytest.raises(StructureError, match="zero crossings"):
        measure_omega(t, np.exp(t))


# --- configuration validation ----------------------------------------------------------

@pytest.mark.parametrize("field,value", [
    ("capacitance", 0.0), ("tau", -1e-9), ("t_end", 0.0),
    ("mesh_h", 0.0), ("turns", 0.0),
])
def test_config_rejects_nonpositive(field, value):
    with pytest.raises(StructureError):
        OscillatorConfig(**{field: value})


@pytest.mark.parametrize("field", ["capacitance", "tau", "t_end", "mesh_h",
                                   "turns"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite(field, value):
    # refused before any netlist text is written
    with pytest.raises(StructureError, match=f"{field} must be positive and "
                                             f"finite"):
        OscillatorConfig(**{field: value})


def test_config_rejects_unknown_kind():
    with pytest.raises(StructureError):
        OscillatorConfig(conductor_kind="litz")


# --- oscillator runs ---------------------------------------------------------------------

def test_lossless_oscillator_report(tmp_path, coarse_parts):
    cfg = coarse_parts.config
    out = str(tmp_path / "osc")
    report = run_oscillator(cfg, out_dir=out, parts=coarse_parts)
    assert report.lossless
    assert report.max_rel_energy_drift <= 1e-10
    assert report.omega_measured == pytest.approx(report.omega_predicted,
                                                  rel=1e-3)
    for name in ("trajectory.csv", "run.manifest", "plot.gp"):
        assert os.path.isfile(os.path.join(out, name))
    man = read_manifest(os.path.join(out, "run.manifest"))
    assert man["experiment"] == "oscillator"
    assert float(man["max_rel_energy_drift"]) <= 1e-10
    assert int(man["free_dofs"]) == coarse_parts.model.K_nu.shape[0]


def test_oscillator_seeded_current_start():
    cfg = OscillatorConfig(v0=0.0, i0=0.5, **COARSE)
    parts = build_oscillator(cfg)
    z0 = parts.z0
    assert z0[parts.current_index] == pytest.approx(0.5)
    assert np.any(z0[:200] != 0.0)        # field dofs pre-magnetized
    report = run_oscillator(cfg, parts=parts)
    assert report.max_rel_energy_drift <= 1e-9


def test_dissipative_oscillator_balance(tmp_path):
    cfg = OscillatorConfig(core_conductive=True, t_end=2e-5, **COARSE)
    report = run_oscillator(cfg)
    assert not report.lossless
    assert report.max_rel_balance_defect <= 1e-8
    h = report.trajectory.hamiltonians
    assert h[-1] < h[0]


# --- index-2 experiment ----------------------------------------------------------------

def test_index2_defect_small(coarse_parts):
    cfg = OscillatorConfig(t_end=2e-5, **COARSE)
    report = run_index2(cfg)
    assert report.scale > 0.0
    assert report.defect_at_end <= 1e-8 * report.scale
    assert report.max_defect <= 1e-8 * report.scale


def test_index2_rejects_dissipative_setup():
    with pytest.raises(StructureError):
        run_index2(OscillatorConfig(conductor_kind="solid", **COARSE))


# --- convergence table ---------------------------------------------------------------------

def test_fit_order_recovers_slope():
    taus = np.array([0.4, 0.2, 0.1, 0.05])
    eps = 3.0 * taus**2
    assert fit_order(taus, eps) == pytest.approx(2.0, abs=1e-12)
    sat = [False, False, True, True]
    eps_sat = eps.copy()
    eps_sat[2:] = 1e-18                    # saturated points would bias the fit
    assert fit_order(taus, eps_sat, sat) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(StructureError, match="pre-saturation"):
        fit_order(taus, eps, [True, True, True, False])


def test_convergence_defaults_are_fixed():
    assert CONVERGENCE_TAUS == (0.8e-6, 0.4e-6, 0.2e-6, 0.1e-6, 0.05e-6)
    assert set(CONVERGENCE_METHODS) == set(EXPECTED_ORDERS)


def test_convergence_table_coarse(tmp_path):
    out = str(tmp_path / "conv")
    table = run_convergence(methods=("implicit_euler", "trapezoidal"),
                            taus=(0.8e-6, 0.4e-6, 0.2e-6),
                            cfg=OscillatorConfig(**COARSE),
                            out_dir=out)
    assert table.slopes["implicit_euler"] == pytest.approx(1.0, abs=0.25)
    assert table.slopes["trapezoidal"] == pytest.approx(2.0, abs=0.25)
    for row in table.rows_for("trapezoidal"):
        assert row.eps_h <= 1e-12
    assert os.path.isfile(os.path.join(out, "convergence.csv"))
    man = read_manifest(os.path.join(out, "run.manifest"))
    assert float(man["slope_trapezoidal"]) == pytest.approx(
        table.slopes["trapezoidal"])


def test_convergence_rejects_lossy_config():
    with pytest.raises(StructureError):
        run_convergence(cfg=OscillatorConfig(core_conductive=True, **COARSE))


# --- artefact consistency --------------------------------------------------------------

def test_trajectory_csv_h_column_matches_hamiltonian(tmp_path, coarse_parts,
                                                     sparse_stepper):
    # the H column is the structure Hamiltonian evaluated on the full states
    # of a run that keeps every column, not a lumped-circuit formula; the
    # written state columns are that run's phi and i, and the file
    # round-trips exactly.  On the sparse path H is audited from the full
    # states, bit for bit; the condensed path is held to round-off in
    # tests/test_condensed.py
    cfg = coarse_parts.config
    out = str(tmp_path / "osc")
    report = run_oscillator(cfg, out_dir=out, parts=coarse_parts)
    full = simulate(coarse_parts.system, coarse_parts.z0, coarse_parts.u,
                    cfg.tau, cfg.t_end, cfg.method)
    recomputed = np.array([hamiltonian(coarse_parts.system, z)
                           for z in full.states])
    assert np.array_equal(recomputed, full.hamiltonians)
    assert np.array_equal(report.trajectory.hamiltonians, full.hamiltonians)
    header, data = read_trajectory_csv(os.path.join(out, "trajectory.csv"))
    assert header == ["t", "H", "D_cum", "E_in", "phi", "i"]
    assert np.array_equal(data[:, 1], full.hamiltonians)
    assert np.array_equal(data[:, 4], full.states[:, coarse_parts.phi_index])
    assert np.array_equal(data[:, 5],
                          full.states[:, coarse_parts.current_index])


def test_oscillator_geometry_meshes_fine():
    geo = parse_geometry(oscillator_geometry("stranded", False, 10.0))
    mesh = geo.mesh(0.5e-3)
    check_mesh(mesh)
    for tag in ("air", "core", "coil"):
        assert mesh.region_triangles(tag).size > 0
