"""Shipping gate: one test per release criterion, one verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines; the
whole suite targets well under five minutes on a laptop.
"""

import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from fieldcircuit.conductors import (FoilModel, SolidModel, StrandedModel,
                                     foil_system, solid_from_mesh,
                                     solid_system, stranded_system,
                                     synth_foil)
from fieldcircuit.coupling import CouplingLayout, bind_circuit, couple
from fieldcircuit.experiments import (CONVERGENCE_METHODS, EXPECTED_ORDERS,
                                      ORDER_BANDS, OscillatorConfig,
                                      build_oscillator, run_convergence,
                                      run_index2, run_oscillator)
from fieldcircuit.fem import (Material, Rect, assemble_conductivity,
                              assemble_stiffness, build_rect_mesh,
                              element_integrals, pseudo_solve)
from fieldcircuit.integrators import consistent_init, simulate
from fieldcircuit.interconnect import InterconnectionSpec, interconnect, \
    permute_to_partition_order
from fieldcircuit.mna import (build_incidence, mna_system, parse_netlist,
                              print_netlist, NetlistError)
from fieldcircuit.structure import hamiltonian, to_dense, validate
from fieldcircuit.waveforms import Sinusoid, Tabulated, WaveformStack
from tests.conftest import random_energy_system
from tests.oracles import (oracle_mass, oracle_stiffness, oracle_winding,
                           random_triangle)
from tests.test_netlist_corpus import INVALID, VALID, _expectations


@contextmanager
def _verdict(num, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {label}: FAIL")
        raise
    print(f"[criterion {num:02d}] {label}: PASS")


def _spd(rng, n, rank=None):
    g = rng.standard_normal((n, rank or n))
    out = g @ g.T
    return out if rank and rank < n else out + 1e-3 * np.eye(n)


@pytest.fixture(scope="module")
def lossless():
    """Default oscillator (100 uF, v0 = 1 V, tau = 0.1 us, 500 steps), one
    trajectory per method, field model built once."""
    cfg = OscillatorConfig()
    parts = build_oscillator(cfg)
    reports = {m: run_oscillator(replace(cfg, method=m), parts=parts)
               for m in ("trapezoidal", "midpoint", "gauss4",
                         "implicit_euler")}
    return parts, reports


def test_criterion_01_lossless_energy_conservation(lossless):
    _, reports = lossless
    with _verdict(1, "lossless energy conservation"):
        for method in ("trapezoidal", "midpoint", "gauss4"):
            assert reports[method].max_rel_energy_drift <= 1e-10, method
        h = reports["implicit_euler"].trajectory.hamiltonians
        assert np.all(np.diff(h) < 0.0)          # strictly decreasing
        assert h[0] - h[-1] >= 1e-4 * h[0]


def test_criterion_02_dissipative_balance():
    with _verdict(2, "dissipative energy balance"):
        for kind in ("stranded", "solid"):
            cfg = OscillatorConfig(conductor_kind=kind, core_conductive=True)
            parts = build_oscillator(cfg)
            rep = run_oscillator(cfg, parts=parts)
            assert rep.max_rel_balance_defect <= 1e-8, kind
            rep_e = run_oscillator(replace(cfg, method="implicit_euler"),
                                   parts=parts)
            tr = rep_e.trajectory
            end_defect = abs(tr.hamiltonians[-1] + tr.dissipated_cum[-1]
                             - tr.hamiltonians[0])
            assert end_defect >= 10.0 * 1e-8 * tr.hamiltonians[0], kind


def test_criterion_03_discrete_dissipation_inequality():
    rng = np.random.default_rng(20240815)
    tau, steps = 0.05, 50
    with _verdict(3, "midpoint dissipation inequality, 100 random systems"):
        for _ in range(100):
            sys_r = random_energy_system(rng)
            p = sys_r.partition
            u = WaveformStack(tuple(
                Sinusoid(rng.uniform(-1, 1), rng.uniform(0.2, 2.0),
                         rng.uniform(0.05, 0.5))
                for _ in range(sys_r.B.shape[1])))
            z0 = consistent_init(sys_r, rng.standard_normal(p.n), u)
            traj = simulate(sys_r, z0, u, tau, steps * tau, "midpoint")
            s_mat = to_dense(sys_r.S)
            b_mat = to_dense(sys_r.B)
            for k in range(steps):
                za, zb = traj.states[k], traj.states[k + 1]
                mid = 0.5 * (za + zb)
                w = np.concatenate([(zb[:p.n1] - za[:p.n1]) / tau,
                                    s_mat @ mid[p.n1:p.n1 + p.n2],
                                    mid[p.n1 + p.n2:]])
                supply = tau * float(b_mat.T @ w
                                     @ u(traj.times[k] + tau / 2.0))
                gain = hamiltonian(sys_r, zb) - hamiltonian(sys_r, za)
                hk = hamiltonian(sys_r, za)
                assert gain - supply <= 1e-10 * (1.0 + abs(hk))


def test_criterion_04_convergence_orders():
    with _verdict(4, "integrator convergence orders"):
        table = run_convergence()
        assert set(table.slopes) == set(CONVERGENCE_METHODS)
        for method, slope in table.slopes.items():
            band = ORDER_BANDS[method]
            assert abs(slope - EXPECTED_ORDERS[method]) <= band, \
                f"{method}: slope {slope:+.3f}"
        for method in ("trapezoidal", "gauss4"):
            for row in table.rows_for(method):
                assert row.eps_h <= 1e-12, (method, row.tau)


def test_criterion_05_index2_energy_balance():
    with _verdict(5, "index-2 energy balance"):
        rep_t = run_index2()
        rep_e = run_index2(replace(OscillatorConfig(),
                                   method="implicit_euler"))
        assert rep_t.defect_at_end <= 1e-8 * rep_t.scale
        assert rep_e.defect_at_end >= 10.0 * max(1e-8 * rep_e.scale,
                                                 rep_t.defect_at_end)


def _random_netlist_text(rng):
    """Chain through every node (so nothing floats, ground included) plus a
    few random extra branches."""
    n_nodes = int(rng.integers(2, 6))
    nodes = ["0"] + [f"n{k}" for k in range(1, n_nodes + 1)]
    counters = {}
    lines = []

    def card(a, b):
        kind = str(rng.choice(list("RLCVI")))
        counters[kind] = counters.get(kind, 0) + 1
        name = f"{kind}{counters[kind]}"
        if kind in "RLC":
            value = 10.0 ** rng.uniform(-6.0, 3.0)
            lines.append(f"{name} {a} {b} {value!r}")
        elif rng.random() < 0.5:
            lines.append(f"{name} {a} {b} DC {rng.uniform(-5, 5)!r}")
        else:
            lines.append(f"{name} {a} {b} SIN 0 {rng.uniform(0.1, 5)!r} "
                         f"{10.0 ** rng.uniform(0, 4)!r}")

    for k in range(n_nodes):
        card(nodes[k], nodes[k + 1])
    for _ in range(int(rng.integers(0, 4))):
        a, b = rng.choice(len(nodes), size=2, replace=False)
        card(nodes[a], nodes[b])
    return "\n".join(lines) + "\n"


def test_criterion_06_structural_constructors():
    rng = np.random.default_rng(20240816)
    with _verdict(6, "constructor structural invariants"):
        # stranded winding systems
        for i in range(100):
            n_w = int(rng.integers(2, 7))
            n_str = int(rng.integers(1, 3))
            m_sigma = np.zeros((n_w, n_w)) if i % 2 else \
                _spd(rng, n_w, rank=n_w - 1)
            g = rng.standard_normal((n_str, n_str))
            model = StrandedModel(m_sigma, _spd(rng, n_w),
                                  rng.standard_normal((n_w, n_str)), g @ g.T)
            assert validate(stranded_system(model)).ok

        # solid conductors, including the congruence identity for R
        for _ in range(100):
            n_w = int(rng.integers(2, 7))
            n_sol = int(rng.integers(1, 3))
            m_sigma = _spd(rng, n_w, rank=n_w - 1)
            chi = rng.standard_normal((n_w, n_sol))
            model = SolidModel(m_sigma, _spd(rng, n_w), chi,
                               chi.T @ m_sigma @ chi)
            sys_s = solid_system(model)
            assert validate(sys_s).ok
            stack = np.hstack([np.eye(n_w), -chi])
            expected = stack.T @ m_sigma @ stack
            defect = np.max(np.abs(to_dense(sys_s.R) - expected))
            assert defect <= 1e-12 * np.max(np.abs(expected))

        # foil conductors plus an independent Schur-complement check
        for seed in range(100):
            n_w = int(rng.integers(2, 7))
            n_p = int(rng.integers(1, 4))
            model = synth_foil(_spd(rng, n_w, rank=n_w - 1), n_p, seed)
            assert validate(foil_system(model)).ok
            x = to_dense(model.X_foil)
            schur = to_dense(model.G_foil) - x.T @ pseudo_solve(
                model.M_sigma, x)
            schur = 0.5 * (schur + schur.T)
            scale = max(np.max(np.abs(to_dense(model.G_foil))), 1.0)
            assert np.linalg.eigvalsh(schur).min() >= -1e-8 * scale

        # circuits straight from random netlists; incidence blocks are
        # integer-valued, so J is skew to the bit, not just to tolerance
        for _ in range(100):
            nl = parse_netlist(_random_netlist_text(rng))
            report = validate(mna_system(build_incidence(nl)))
            assert report.ok and report.skew_defect == 0.0

        # power-preserving interconnection keeps structure and adds energy
        for _ in range(20):
            a = random_energy_system(rng, n1=2, n2=2, n3=1, m=2)
            b = random_energy_system(rng, n1=1, n2=3, n3=2, m=1)
            f = rng.standard_normal((3, 3))
            g = rng.standard_normal((3, 3))
            spec = InterconnectionSpec(f - f.T, g @ g.T, 3)
            c = interconnect([a, b], spec)
            assert validate(c).ok
            za = rng.standard_normal(a.partition.n)
            zb = rng.standard_normal(b.partition.n)
            perm = permute_to_partition_order(a.partition, b.partition)
            zc = np.concatenate([za, zb])[perm]
            total = hamiltonian(c, zc)
            parts = hamiltonian(a, za) + hamiltonian(b, zb)
            assert abs(total - parts) <= 1e-13 * max(abs(total), 1.0)

        # field-circuit coupling: all three conductor kinds on one circuit
        m_str = StrandedModel(np.zeros((3, 3)), _spd(rng, 3),
                              rng.standard_normal((3, 1)),
                              np.array([[0.3]]))
        chi = rng.standard_normal((2, 1))
        m_sig = _spd(rng, 2)
        m_sol = SolidModel(m_sig, _spd(rng, 2), chi, chi.T @ m_sig @ chi)
        m_foil = synth_foil(_spd(rng, 4, rank=3), 2, seed=7)
        nl = parse_netlist("FW1 0 1 stranded ws\nFS1 1 0 solid sol\n"
                           "FF1 2 0 foil fl\nC1 1 0 1u\nR1 1 2 10\n"
                           "V1 2 0 DC 1\n")
        inc = build_incidence(nl)
        _, systems, binding = bind_circuit(
            inc, {"ws": m_str, "sol": m_sol, "fl": m_foil})
        circuit = mna_system(inc)
        coupled = couple(circuit, systems, binding)
        report = validate(coupled)
        assert report.ok and report.skew_defect == 0.0
        layout = CouplingLayout.build(circuit, systems)
        z = rng.standard_normal(layout.n)
        h_parts = sum(
            hamiltonian(s, np.concatenate([z[layout.field_slices[k]],
                                           z[layout.algebraic_slices[k]]]))
            for k, s in enumerate(systems))
        h_parts += hamiltonian(circuit,
                               np.concatenate([z[layout.circuit_z2],
                                               z[layout.circuit_z3]]))
        assert abs(hamiltonian(coupled, z) - h_parts) \
            <= 1e-13 * max(abs(h_parts), 1.0)


def test_criterion_07_foil_solid_equivalence():
    with _verdict(7, "single-partition foil matches solid conductor"):
        rects = [Rect("air", 0.0, 1.0, -1.0, 1.0),
                 Rect("bar", 0.3, 0.6, -0.4, 0.4)]
        mesh = build_rect_mesh(rects, 0.2)
        mats = {"air": Material("air"), "bar": Material("bar", 1.0, 1e4)}
        solid = solid_from_mesh(mesh, mats, "bar")
        m_sig = to_dense(solid.M_sigma)
        chi = to_dense(solid.X_sol).ravel()
        foil = FoilModel(solid.M_sigma, solid.K_nu, (m_sig @ chi)[:, None],
                         np.array([1.0]), to_dense(solid.G_sol))
        sys_f, sys_s = foil_system(foil), solid_system(solid)
        n_w = solid.n_w

        tau, t_end = 1e-4, 5e-2               # 500 steps
        drive = Sinusoid(0.0, 1.0, 120.0)
        traj_f = simulate(sys_f, np.zeros(n_w + 2), WaveformStack((drive,)),
                          tau, t_end, "midpoint")
        t_mid = traj_f.times[:-1] + tau / 2.0
        i_mid = 0.5 * (traj_f.states[:-1, -1] + traj_f.states[1:, -1])
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


def test_criterion_08_frequency_self_consistency(lossless):
    parts, reports = lossless
    with _verdict(8, "oscillation frequency matches 1/sqrt(LC)"):
        omega_ref = 1.0 / math.sqrt(parts.lumped_l
                                    * parts.config.capacitance)
        omega = reports["trapezoidal"].omega_measured
        assert abs(omega - omega_ref) <= 1e-3 * omega_ref


def test_criterion_09_fe_assembly_oracle():
    rng = np.random.default_rng(20240817)
    with _verdict(9, "element matrices match the quadrature oracle"):
        for _ in range(50):
            coords = random_triangle(rng)
            nu = 10.0 ** rng.uniform(-2, 2)
            sigma = 10.0 ** rng.uniform(-2, 6)
            turns = 10.0 ** rng.uniform(-1, 3)
            for built, oracle in (
                    (element_integrals(coords[None], nu, "stiffness")[0],
                     oracle_stiffness(coords, nu)),
                    (element_integrals(coords[None], sigma, "mass")[0],
                     oracle_mass(coords, sigma)),
                    (element_integrals(coords[None], turns, "winding")[0],
                     oracle_winding(coords, turns))):
                scale = np.max(np.abs(oracle))
                assert np.max(np.abs(built - oracle)) <= 1e-13 * scale
                if built.ndim == 2:
                    assert np.max(np.abs(built - built.T)) <= 1e-14 * scale
                    assert np.linalg.eigvalsh(built).min() >= -1e-10 * scale

        rects = [Rect("air", 0.0, 1.0, -1.0, 1.0),
                 Rect("coil", 0.4, 0.7, -0.4, 0.4)]
        mesh = build_rect_mesh(rects, 0.1)
        mats = {"air": Material("air"),
                "coil": Material("coil", 1.0, 1e3)}
        for mat in (assemble_stiffness(mesh, mats),
                    assemble_conductivity(mesh, mats)):
            dense = to_dense(mat)
            scale = max(np.max(np.abs(dense)), 1e-300)
            assert np.max(np.abs(dense - dense.T)) <= 1e-14 * scale
            assert np.linalg.eigvalsh(dense).min() >= -1e-10 * scale


def test_criterion_10_netlist_corpus():
    with _verdict(10, "netlist corpus parses and rejects as annotated"):
        assert len(VALID) >= 30
        assert len(INVALID) >= 20
        for path in VALID:
            net = parse_netlist(path.read_text(encoding="utf-8"),
                                origin=path.name)
            printed = print_netlist(net)
            assert parse_netlist(printed, origin=path.name) == net
        for path in INVALID:
            text = path.read_text(encoding="utf-8")
            expected = _expectations(text)
            assert expected, path.name
            with pytest.raises(NetlistError) as info:
                parse_netlist(text, origin=path.name)
            for line, substring in expected:
                assert any(e.startswith(f"{path.name}:{line}:")
                           and substring in e
                           for e in info.value.errors), (path.name, line)
