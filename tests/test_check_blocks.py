"""Every stage solve on the sparse path of `simulate` is one call of
`_StageSolver.solve`, which checks and refines it on its own:
trajectories are bit-identical to the per-solve reference
`reference_per_step_run` across span edges, with the residual bound of
`solve` read on every solve; and a non-finite stage solution, from a NaN,
an infinite or an overflowing input, names its step, its time and its
pencil, with no warning first.  The check belongs to the sparse path, so
every test here steps on it (`sparse_stepper`), whatever path the cost
rule would choose."""

import warnings

import numpy as np
import pytest

from fieldcircuit import _audit, _stepping
from fieldcircuit._stepping import (METHOD_TAGS, _pencil_plan, _StageSolver,
                                    method_from_tag)
from fieldcircuit.experiments import OscillatorConfig, build_oscillator
from fieldcircuit.integrators import simulate
from fieldcircuit.structure import NumericalError
from tests.conftest import random_draws, random_energy_system
from tests.oracles import reference_per_step_run

pytestmark = pytest.mark.usefixtures("sparse_stepper")

# states per block of `block_rows` in the runs that cross spans; a span is
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
    for module in (_stepping, _audit):
        monkeypatch.setattr(module, "block_rows", lambda width: BLOCK)


def spy_solves(monkeypatch):
    """Record the pencil of each call of `_StageSolver.solve`."""
    calls = []
    solve = _StageSolver.solve

    def counting_solve(self, rhs):
        calls.append(self._context)
        return solve(self, rhs)

    monkeypatch.setattr(_stepping._StageSolver, "solve", counting_solve)
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


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_zero_bound_refines_every_solve_like_the_per_solve_reference(
        oscillator, monkeypatch, method):
    parts = oscillator
    steps, tau = 30, parts.config.tau
    args = (parts.system, parts.z0, parts.u, tau, steps)
    unrefined, _ = reference_per_step_run(*args, method)
    monkeypatch.setattr(_stepping, "_RESIDUAL_BOUND", 0.0)
    solves = spy_solves(monkeypatch)
    traj = simulate(*args[:3], tau, steps * tau, method)
    # one `solve` per pencil per step, each of which fails the check and
    # is refined
    pencils = _pencil_plan(method_from_tag(method))[1]
    assert len(solves) == steps * len(pencils)
    states, _ = reference_per_step_run(*args, method)
    assert np.array_equal(traj.states, states)
    # refining changes the states: a step that skipped the check would
    # give the unrefined ones
    assert not np.array_equal(states, unrefined)


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
