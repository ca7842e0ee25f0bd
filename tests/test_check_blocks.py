"""The residual check of the stage solves in `simulate` runs once per block
of `block_rows(n)` steps: trajectories are bit-identical to stepping with
`_StageSolver.solve`, which checks and refines each solve on its own; a
block that fails the check is stepped again through `solve`, and no other
block is; the batched residual is the per-solve residual bit for bit; a
block holding a non-finite solution is refused whatever its residual says,
before any residual is formed; and a non-finite stage solution, from a
NaN, an infinite or an overflowing input, names its step, its time and
its pencil, with no warning first.  The block check belongs to the sparse
path of `simulate`, so every test here steps on it (`sparse_stepper`),
whatever path the cost rule would choose."""

import warnings

import numpy as np
import pytest

from fieldcircuit import integrators
from fieldcircuit.experiments import OscillatorConfig, build_oscillator
from fieldcircuit.integrators import (METHOD_TAGS, _pencil_plan,
                                      _StageSolver, method_from_tag,
                                      simulate, to_linear_dae)
from fieldcircuit.structure import NumericalError
from tests.conftest import random_draws, random_energy_system
from tests.oracles import reference_per_step_run, reference_residual_test

pytestmark = pytest.mark.usefixtures("sparse_stepper")

# steps per check block in the runs that cross blocks; a span is
# `_SPAN_BLOCKS` = 8 of them
BLOCK = 5
# more than two spans and not a whole number of blocks, so BDF2's history
# crosses block and span edges and the last block is short
STEPS = 2 * 8 * BLOCK + 3


@pytest.fixture(scope="module", params=["stranded", "solid"])
def oscillator(request):
    """The 1 mm oscillators: lossless stranded, and solid with a conductive
    core."""
    kind = request.param
    return build_oscillator(OscillatorConfig(
        conductor_kind=kind, core_conductive=kind == "solid", mesh_h=1e-3))


@pytest.fixture
def short_blocks(monkeypatch):
    monkeypatch.setattr(integrators, "block_rows", lambda width: BLOCK)


def spy_refined_solves(monkeypatch):
    """Count the calls of `_StageSolver.solve`, which `simulate` makes only
    when it steps a block again."""
    calls = []
    solve = _StageSolver.solve

    def counting_solve(self, rhs):
        calls.append(self._context)
        return solve(self, rhs)

    monkeypatch.setattr(integrators._StageSolver, "solve", counting_solve)
    return calls


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_random_draws_match_per_solve_reference_across_blocks(short_blocks,
                                                              method):
    tau = 0.05
    for sys_r, z0, u in random_draws():
        traj = simulate(sys_r, z0, u, tau, STEPS * tau, method)
        states, _ = reference_per_step_run(sys_r, z0, u, tau, STEPS, method)
        assert np.array_equal(traj.states, states)


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_oscillators_match_per_solve_reference_across_blocks(
        oscillator, short_blocks, method):
    parts = oscillator
    tau, cols = parts.config.tau, parts.written_columns
    args = (parts.system, parts.z0, parts.u, tau, STEPS * tau, method)
    full, kept = simulate(*args), simulate(*args, keep=cols)
    states, _ = reference_per_step_run(parts.system, parts.z0, parts.u, tau,
                                       STEPS, method)
    assert np.array_equal(full.states, states)
    assert np.array_equal(kept.states, states[:, cols])
    for name in ("outputs", "hamiltonians", "dissipated_cum", "supplied_cum"):
        assert np.array_equal(getattr(kept, name), getattr(full, name)), name


@pytest.mark.parametrize("method", ["trapezoidal", "gauss4"])
def test_one_failing_block_alone_is_stepped_again(oscillator, short_blocks,
                                                  monkeypatch, method):
    # one pencil each, real and complex: one batched check per block
    failing = 2
    checks = []
    accepts = _StageSolver.accepts

    def failing_accepts(self, rhs, x):
        checks.append(len(x))
        return accepts(self, rhs, x) and len(checks) - 1 != failing

    monkeypatch.setattr(integrators._StageSolver, "accepts", failing_accepts)
    refined = spy_refined_solves(monkeypatch)
    parts = oscillator
    steps, tau = 4 * BLOCK + 3, parts.config.tau
    traj = simulate(parts.system, parts.z0, parts.u, tau, steps * tau, method)
    # every block is checked once, and only the failing one is stepped again
    assert checks == [BLOCK] * 4 + [3]
    assert len(refined) == BLOCK
    monkeypatch.undo()
    states, _ = reference_per_step_run(parts.system, parts.z0, parts.u, tau,
                                       steps, method)
    assert np.array_equal(traj.states, states)


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_zero_bound_refines_every_solve_like_the_per_solve_reference(
        oscillator, monkeypatch, method):
    parts = oscillator
    steps, tau = 30, parts.config.tau
    args = (parts.system, parts.z0, parts.u, tau, steps)
    unrefined, _ = reference_per_step_run(*args, method)
    monkeypatch.setattr(integrators, "_RESIDUAL_BOUND", 0.0)
    refined = spy_refined_solves(monkeypatch)
    traj = simulate(*args[:3], tau, steps * tau, method)
    # every block fails, so every solve is stepped again through `solve`
    pencils = _pencil_plan(method_from_tag(method))[1]
    assert len(refined) == steps * len(pencils)
    states, _ = reference_per_step_run(*args, method)
    assert np.array_equal(traj.states, states)
    # refining changes the states: a check that accepted every block
    # would give the unrefined ones
    assert not np.array_equal(states, unrefined)


@pytest.mark.parametrize("kind,method", [("stranded", "trapezoidal"),
                                         ("solid", "gauss4")])
def test_batched_residual_is_the_per_solve_residual(kind, method):
    cfg = OscillatorConfig(conductor_kind=kind,
                           core_conductive=kind == "solid", mesh_h=1e-3)
    parts = build_oscillator(cfg)
    dae = to_linear_dae(parts.system)
    (lam, row, _), *_ = _pencil_plan(method_from_tag(method))[1]
    solver = _StageSolver(dae.E_dae - (cfg.tau * lam) * dae.A_dae, method)
    # right sides of the pencil at the states of a short run
    traj = simulate(parts.system, parts.z0, parts.u, cfg.tau, 40 * cfg.tau,
                    method)
    rhs = row.sum() * (dae.A_dae @ traj.states.T).T
    x = np.array([solver.solve_unchecked(b) for b in rhs])
    # every other solution is off by far more than round-off
    x[1::2] *= 1.0 + 1e-3
    res = solver.residuals(rhs, x)
    verdicts = []
    for k in range(len(x)):
        r, accepted = reference_residual_test(solver, rhs[k], x[k])
        assert np.array_equal(res[:, k], r)
        assert solver.accepts(rhs[k : k + 1], x[k : k + 1]) == accepted
        verdicts.append(accepted)
    assert True in verdicts and False in verdicts
    assert solver.accepts(rhs, x) == all(verdicts)
    assert solver.accepts(rhs[::2], x[::2])


def test_accepts_refuses_an_infinite_solution_whose_residual_test_passes(
        oscillator):
    parts = oscillator
    dae = to_linear_dae(parts.system)
    (lam, row, _), *_ = _pencil_plan(method_from_tag("trapezoidal"))[1]
    solver = _StageSolver(dae.E_dae - (parts.config.tau * lam) * dae.A_dae,
                          "trapezoidal")
    z = parts.z0 + np.linspace(0.0, 1.0, parts.system.n)
    rhs = np.stack([row.sum() * (dae.A_dae @ z), dae.A_dae @ z])
    x = np.array([solver.solve_unchecked(b) for b in rhs])
    assert solver.accepts(rhs, x)
    x[1, 0] = np.inf
    # the bound grows with ‖x‖∞ = inf, so the residual test alone passes
    with np.errstate(invalid="ignore", over="ignore"):
        _, accepted = reference_residual_test(solver, rhs[1], x[1])
    assert accepted
    assert not solver.accepts(rhs, x)
    assert not solver.accepts(rhs[1:], x[1:])
    assert solver.accepts(rhs[:1], x[:1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", ["trapezoidal", "gauss4"])
def test_accepts_refuses_a_non_finite_block_before_any_residual(
        oscillator, monkeypatch, method, bad):
    # a real and a complex pencil
    parts = oscillator
    dae = to_linear_dae(parts.system)
    (lam, row, _), *_ = _pencil_plan(method_from_tag(method))[1]
    solver = _StageSolver(dae.E_dae - (parts.config.tau * lam) * dae.A_dae,
                          method)
    z = parts.z0 + np.linspace(0.0, 1.0, parts.system.n)
    rhs = np.stack([row.sum() * (dae.A_dae @ z)] * 3)
    x = np.array([solver.solve_unchecked(b) for b in rhs])
    assert solver.accepts(rhs, x)
    formed = []
    residuals = _StageSolver.residuals

    def spy_residuals(self, rhs, x):
        formed.append(len(x))
        return residuals(self, rhs, x)

    monkeypatch.setattr(integrators._StageSolver, "residuals", spy_residuals)
    # in the real part, and in the imaginary part of a complex solution
    for value in ((bad, complex(0.0, bad)) if np.iscomplexobj(x) else (bad,)):
        bad_x = x.copy()
        bad_x[1, 7] = value
        assert not solver.accepts(rhs, bad_x)
        assert formed == []
    assert solver.accepts(rhs, x)
    assert formed == [3]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
@pytest.mark.parametrize("method", ["trapezoidal", "gauss4", "radau5", "bdf2"])
def test_non_finite_stage_solution_names_step_time_and_pencil(
        rng, short_blocks, method, bad):
    sys_r = random_energy_system(rng, n1=2, n2=3, n3=2, m=1)

    def u(t):
        # a NaN, an infinite or an overflowing input on one grid node of
        # the seventh step of each method
        return np.array([bad if 0.32 < t < 0.38 else np.sin(t)])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match=rf"step 7 at t = 0\.3\d*: non-finite stage "
                                 rf"solution \({method}, lambda = "):
            simulate(sys_r, np.zeros(sys_r.n), u, 0.05, 1.0, method)
