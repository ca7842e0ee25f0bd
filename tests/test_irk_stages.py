"""Runge-Kutta stages decoupled through the eigenvalues of the Butcher
matrix (midpoint, implicit Euler, Gauss-4, Radau IIA): parity with the
Kronecker-stacked stage system.  Trapezoidal and BDF2 stepped as one pencil
for the increment: parity with the endpoint formulas.  And the shape of
every matrix the stepper factorizes, and the grid-evaluated inputs against
evaluation step by step."""

import numpy as np
import pytest
import scipy.sparse as sp

from fieldcircuit import _dae, experiments
from fieldcircuit._stepping import (METHOD_TAGS, Method, _StageSolver,
                                    method_from_tag)
from fieldcircuit.integrators import consistent_init, simulate, to_linear_dae
from fieldcircuit.structure import StructureError, row_dots
from fieldcircuit.waveforms import Sinusoid, WaveformStack
from tests.conftest import random_draws, random_energy_system
from tests.oracles import reference_endpoint_states, reference_per_step_run

IRK_METHODS = ("midpoint", "implicit_euler", "gauss4", "radau5")
INCREMENT_METHODS = ("trapezoidal", "bdf2")


def stacked_states(sys, z0, u, tau, steps, method):
    """Reference trajectory from the stacked sn×sn stage system
    (I⊗E − τ A_tab⊗A) k = [A z + B u(t + c_i τ)]_i, z⁺ = z + τ Σ b_i k_i."""
    dae = to_linear_dae(sys)
    method = method_from_tag(method)
    n, s = sys.n, len(method.b)
    mat = (sp.kron(sp.identity(s), dae.E_dae, format="csr")
           - tau * sp.kron(sp.csr_array(method.A), dae.A_dae, format="csr"))
    solver = _StageSolver(mat, f"stacked {method.tag}")
    states = [np.asarray(z0, dtype=np.float64)]
    for k in range(steps):
        z, t_k = states[-1], k * tau
        rhs = np.concatenate([
            dae.A_dae @ z + dae.B_dae @ np.asarray(u(t_k + ci * tau))
            for ci in method.c])
        ks = solver.solve(rhs)
        z_next = z.copy()
        for i, bi in enumerate(method.b):
            z_next = z_next + tau * bi * ks[i * n : (i + 1) * n]
        states.append(z_next)
    return np.array(states)


def relative_gap(states, reference):
    return float(np.max(np.abs(states - reference))
                 / np.max(np.abs(reference)))


@pytest.mark.parametrize("method", IRK_METHODS)
def test_decoupled_stages_match_stacked_on_random_systems(method):
    tau, steps = 0.05, 20
    for sys_r, z0, u in random_draws():
        traj = simulate(sys_r, z0, u, tau, steps * tau, method)
        ref = stacked_states(sys_r, z0, u, tau, steps, method)
        assert relative_gap(traj.states, ref) <= 1e-12


@pytest.mark.parametrize("method", IRK_METHODS)
@pytest.mark.parametrize("kind,bound", [("stranded", 1e-12), ("solid", 1e-9)])
def test_decoupled_stages_match_stacked_on_oscillators(kind, bound, method):
    cfg = experiments.OscillatorConfig(conductor_kind=kind,
                                       core_conductive=True)
    parts = experiments.build_oscillator(cfg)
    steps = 200
    traj = simulate(parts.system, parts.z0, parts.u, cfg.tau,
                    steps * cfg.tau, method)
    ref = stacked_states(parts.system, parts.z0, parts.u, cfg.tau, steps,
                         method)
    assert relative_gap(traj.states, ref) <= bound


@pytest.mark.parametrize("method", INCREMENT_METHODS)
def test_increment_form_matches_endpoint_formula_on_random_systems(method):
    tau, steps = 0.05, 20
    for sys_r, z0, u in random_draws():
        traj = simulate(sys_r, z0, u, tau, steps * tau, method)
        ref = reference_endpoint_states(sys_r, z0, u, tau, steps, method)
        assert relative_gap(traj.states, ref) <= 1e-12


@pytest.mark.parametrize("method", INCREMENT_METHODS)
@pytest.mark.parametrize("kind,bound", [("stranded", 1e-12), ("solid", 1e-9)])
def test_increment_form_matches_endpoint_formula_on_oscillators(kind, bound,
                                                                method):
    cfg = experiments.OscillatorConfig(conductor_kind=kind,
                                       core_conductive=True)
    parts = experiments.build_oscillator(cfg)
    steps = 200
    traj = simulate(parts.system, parts.z0, parts.u, cfg.tau,
                    steps * cfg.tau, method)
    ref = reference_endpoint_states(parts.system, parts.z0, parts.u, cfg.tau,
                                    steps, method)
    assert relative_gap(traj.states, ref) <= bound


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_grid_inputs_match_per_step_evaluation_on_random_systems(
        sparse_stepper, method):
    tau, steps = 0.05, 20
    for sys_r, z0, u in random_draws():
        traj = simulate(sys_r, z0, u, tau, steps * tau, method)
        states, u_step = reference_per_step_run(sys_r, z0, u, tau, steps,
                                                method)
        assert np.array_equal(traj.states, states)
        supplied = np.cumsum(tau * row_dots(traj.outputs[1:], u_step))
        assert np.array_equal(traj.supplied_cum[1:], supplied)


@pytest.mark.parametrize("method,expected", [
    ("gauss4", ["complex128"]),
    ("radau5", ["complex128", "float64"]),
    ("midpoint", ["float64"]),
    ("implicit_euler", ["float64"]),
    ("trapezoidal", ["float64"]),
    ("bdf2", ["float64", "float64"]),
])
def test_stepper_factors_one_n_by_n_pencil_per_eigenvalue(
        sparse_stepper, monkeypatch, rng, method, expected):
    sys_r = random_energy_system(rng, n1=2, n2=3, n3=2, m=2)
    u = WaveformStack((Sinusoid(0.3, 1.0, 0.2), Sinusoid(-0.5, 0.7, 0.4)))
    z0 = consistent_init(sys_r, rng.standard_normal(sys_r.n), u)
    splu = _dae.spla.splu
    factored = []

    def recording_splu(mat, *args, **kwargs):
        lu = splu(mat, *args, **kwargs)
        factored.append((mat.shape, mat.dtype.name, kwargs["permc_spec"],
                         lu.nnz))
        return lu

    monkeypatch.setattr(_dae.spla, "splu", recording_splu)
    first = simulate(sys_r, z0, u, 0.05, 1.0, method)
    # nothing larger than n×n
    assert {shape for shape, *_ in factored} == {(sys_r.n, sys_r.n)}
    # the first pencil on the system: MMD, then COLAMD, then MMD again only
    # if strictly sparser
    mmd, colamd = factored[:2]
    assert (mmd[2], colamd[2]) == ("MMD_AT_PLUS_A", "COLAMD")
    assert colamd[:2] == mmd[:2]
    kept = colamd[2]
    if mmd[3] < colamd[3]:
        assert factored[2] == mmd
        kept = mmd[2]
    later = factored[2 + (kept == mmd[2]):]
    # every later pencil is factored once, with the ordering kept
    assert {spec for _, _, spec, _ in later} <= {kept}
    # one matrix per kept eigenvalue
    assert sorted([mmd[1]] + [dtype for _, dtype, *_ in later]) == expected
    # a second run on the system keeps that ordering for every pencil
    factored.clear()
    second = simulate(sys_r, z0, u, 0.05, 1.0, method)
    assert {spec for _, _, spec, _ in factored} == {kept}
    assert sorted(dtype for _, dtype, *_ in factored) == expected
    assert np.array_equal(first.states, second.states)


def test_defective_butcher_matrix_is_refused(rng):
    # a double eigenvalue with one eigenvector: no T diagonalizes A_tab
    defective = Method("defective", np.array([[0.5, 0.0], [1.0, 0.5]]),
                       np.array([0.5, 0.5]), np.array([0.5, 1.0]))
    sys_r = random_energy_system(rng, n1=1, n2=2, n3=1, m=1)
    with pytest.raises(StructureError, match="not diagonalizable"):
        simulate(sys_r, np.zeros(sys_r.n), lambda t: np.zeros(1), 0.1, 0.1,
                 defective)
