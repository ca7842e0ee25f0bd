"""Runge-Kutta stages decoupled through the eigenvalues of the Butcher
matrix (midpoint, implicit Euler, Gauss-4, Radau IIA): parity with the
Kronecker-stacked stage system, and the shape of every matrix the stepper
factorizes."""

import numpy as np
import pytest
import scipy.sparse as sp

from fieldcircuit import experiments, integrators
from fieldcircuit.integrators import (Method, _StageSolver, consistent_init,
                                      method_from_tag, simulate, to_linear_dae)
from fieldcircuit.structure import StructureError
from fieldcircuit.waveforms import Sinusoid, WaveformStack
from tests.conftest import random_energy_system

IRK_METHODS = ("midpoint", "implicit_euler", "gauss4", "radau5")


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


def random_draws():
    rng = np.random.default_rng(20261018)
    for k in range(12):
        singular = bool(k % 2)
        sys_r = random_energy_system(rng, n1=k % 3, n2=2 + k % 3,
                                     n3=1 + k % 2, m=1 + k % 2,
                                     singular_e=singular)
        u = WaveformStack(tuple(
            Sinusoid(rng.uniform(-1, 1), rng.uniform(0.2, 2.0),
                     rng.uniform(0.05, 0.5)) for _ in range(sys_r.m)))
        # with singular E, the null direction of E in z2 is solved too
        z0 = consistent_init(sys_r, rng.standard_normal(sys_r.n), u)
        yield sys_r, z0, u


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


@pytest.mark.parametrize("method,expected", [
    ("gauss4", ["complex128"]),
    ("radau5", ["complex128", "float64"]),
    ("midpoint", ["float64"]),
    ("implicit_euler", ["float64"]),
])
def test_stepper_factors_one_n_by_n_pencil_per_eigenvalue(
        monkeypatch, rng, method, expected):
    sys_r = random_energy_system(rng, n1=2, n2=3, n3=2, m=2)
    u = WaveformStack((Sinusoid(0.3, 1.0, 0.2), Sinusoid(-0.5, 0.7, 0.4)))
    z0 = consistent_init(sys_r, rng.standard_normal(sys_r.n), u)
    splu = integrators.spla.splu
    factored = []

    def recording_splu(mat, *args, **kwargs):
        factored.append((mat.shape, mat.dtype.name))
        return splu(mat, *args, **kwargs)

    monkeypatch.setattr(integrators.spla, "splu", recording_splu)
    first = simulate(sys_r, z0, u, 0.05, 1.0, method)
    # nothing larger than n×n, and one matrix per kept eigenvalue
    assert sorted(factored) == [((sys_r.n, sys_r.n), d) for d in expected]
    second = simulate(sys_r, z0, u, 0.05, 1.0, method)
    assert np.array_equal(first.states, second.states)


def test_defective_butcher_matrix_is_refused(rng):
    # a double eigenvalue with one eigenvector: no T diagonalizes A_tab
    defective = Method("defective", np.array([[0.5, 0.0], [1.0, 0.5]]),
                       np.array([0.5, 0.5]), np.array([0.5, 1.0]))
    sys_r = random_energy_system(rng, n1=1, n2=2, n3=1, m=1)
    with pytest.raises(StructureError, match="not diagonalizable"):
        simulate(sys_r, np.zeros(sys_r.n), lambda t: np.zeros(1), 0.1, 0.1,
                 defective)
