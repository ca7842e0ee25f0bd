"""The reduced path of `simulate`: an index-1 system that the cost rule does
not condense, whose independent rows R of E_dae touch exactly r columns K,
steps z_K on the r×r sparse pencils of its reduced DAE and rebuilds the
other states from it (`_stepping.stepping_map`).  It agrees with the full
pencils for every method on the 1 mm solid-core oscillator, on the field
netlists the benchmark reduces and on random index-1 draws with that
structure; the columns a run keeps are those of a full run bit for bit;
systems without the structure, or over the budget of `_reduces`, step on
the full pencils and never factor C[:, N]; and `irk-solid` factors only
r×r pencils and the one C[:, N]."""

import dataclasses
import warnings

import numpy as np
import pytest

from fieldcircuit import _stepping, experiments
from fieldcircuit._stepping import METHOD_TAGS, stepping_map
from fieldcircuit.integrators import consistent_init, simulate, to_linear_dae
from fieldcircuit.structure import NumericalError, block_rows
from tests.conftest import random_draws
from tests.test_condensed import (NETLISTS, bench_models,  # noqa: F401
                                  both_paths, corpus_system, gaps, spy_splu)

# states within REDUCED_BOUND of max|z| of the full-pencil run, and H,
# D_cum and E_in within it of their scale; the largest gaps measured on the
# cases below are 1.1e-11 (states) and 6.4e-12 (energies), and on 500
# steps of the 0.5 mm solid core 1.7e-11 and 1.8e-11
REDUCED_BOUND = 1e-10


def assert_reduced_matches_full(monkeypatch, sys, z0, u, tau, steps,
                                method):
    fast, slow = both_paths(monkeypatch, sys, z0, u, tau, steps, method,
                            path="reduced")
    assert np.abs(fast.states - slow.states).max() <= \
        REDUCED_BOUND * np.abs(slow.states).max()
    _, energies = gaps(fast, slow)
    assert energies <= REDUCED_BOUND, energies
    return fast


@pytest.fixture(scope="module")
def solid_1mm():
    """The solid conductor with a conductive core at 1 mm (n 744, r 174)."""
    return experiments.build_oscillator(experiments.OscillatorConfig(
        conductor_kind="solid", core_conductive=True, mesh_h=1e-3))


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_solid_core_oscillator_reduced_matches_full_pencils(
        monkeypatch, solid_1mm, method):
    parts = solid_1mm
    fast = assert_reduced_matches_full(monkeypatch, parts.system, parts.z0,
                                       parts.u, parts.config.tau, 200,
                                       method)
    assert fast.differential_coordinates == 174


@pytest.mark.parametrize("method", METHOD_TAGS)
@pytest.mark.parametrize("name", ["cauer_ladder", "foil_port", "solid_port"])
def test_bench_model_netlists_reduced_match_full_pencils(
        monkeypatch, bench_models, name, method):
    nl, system, u = corpus_system(NETLISTS / f"{name}.cir", bench_models)
    z0 = consistent_init(system, np.zeros(system.n), u)
    tau = nl.tau if nl.tau is not None else 1e-5
    assert_reduced_matches_full(monkeypatch, system, z0, u, tau, 200, method)


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_random_index1_draws_reduced_match_full_pencils(monkeypatch,
                                                        method):
    # the condensing rule is off; a draw with a nonsingular E has rows R
    # that touch r columns, one with a singular E one column more; from an
    # inconsistent start too, which the full pencils carry as μ δ does
    rng = np.random.default_rng(3)
    reduced = 0
    for sys_r, z0, u in random_draws():
        with monkeypatch.context() as patch:
            patch.setattr(_stepping, "_condenses", lambda *args: False)
            _, path, _ = stepping_map(to_linear_dae(sys_r))
        if path == "reduced":
            reduced += 1
            for start in (z0, rng.standard_normal(sys_r.n)):
                assert_reduced_matches_full(monkeypatch, sys_r, start, u,
                                            0.05, 40, method)
    assert reduced == 6


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_reduced_run_keeps_the_columns_of_a_full_run(monkeypatch, solid_1mm,
                                                     method):
    # spans of one block: more than two spans, the last one short, so the
    # rebuild and BDF2's history cross span boundaries
    monkeypatch.setattr(_stepping, "_SPAN_BLOCKS", 1)
    parts = solid_1mm
    n = parts.system.n
    steps = 2 * block_rows(n) + 37
    rmap = stepping_map(to_linear_dae(parts.system))[2]
    keep = np.random.default_rng(5).permutation(
        np.concatenate((rmap.cols[::9], rmap.rest[::13], [n - 1])))
    args = (parts.system, parts.z0, parts.u, parts.config.tau,
            steps * parts.config.tau, method)
    full, kept = simulate(*args), simulate(*args, keep=keep)
    assert kept.stepping_path == full.stepping_path == "reduced"
    assert np.array_equal(kept.states, full.states[:, keep])
    for name in ("outputs", "hamiltonians", "dissipated_cum",
                 "supplied_cum"):
        assert np.array_equal(getattr(kept, name), getattr(full, name)), name


# --- the path each system takes ----------------------------------------------

# the oscillators that step on the full pencils although the condensing
# rule does not take them, and the index-2 one, which it takes but whose M
# is singular: (configuration, extra cards)
FULL_PENCIL_OSCILLATORS = {
    "stranded-core-1mm": (dict(core_conductive=True, mesh_h=1e-3), ()),
    "solid-core-0.25mm": (dict(conductor_kind="solid", core_conductive=True,
                               mesh_h=0.25e-3), ()),
    "index2": (dict(v0=0.0, i0=0.0), ("V1 1 0 SIN 0 1 50k",)),
}


@pytest.mark.parametrize("case", ["mixed_ports",
                                  *FULL_PENCIL_OSCILLATORS])
def test_full_pencil_systems_never_factor_the_constraint_block(
        monkeypatch, bench_models, case):
    if case == "mixed_ports":
        nl, system, u = corpus_system(NETLISTS / "mixed_ports.cir",
                                      bench_models)
        z0, tau = consistent_init(system, np.zeros(system.n), u), nl.tau
    else:
        config, cards = FULL_PENCIL_OSCILLATORS[case]
        cfg = experiments.OscillatorConfig(**config)
        parts = experiments.build_oscillator(cfg, extra_cards=cards)
        system, z0, u, tau = parts.system, parts.z0, parts.u, cfg.tau
    dae = to_linear_dae(system)
    calls = spy_splu(monkeypatch)
    traj = simulate(system, z0, u, tau, 2 * tau, "trapezoidal")
    assert traj.stepping_path == "sparse"
    assert not dae._map[1]
    # the pencil with its ordering trial (and M for index2): n×n only
    assert {shape for shape, *_ in calls} == {(system.n, system.n)}


def test_irk_solid_reduces_with_r_by_r_pencils_and_one_constraint_factor(
        monkeypatch):
    cfg = experiments.OscillatorConfig(conductor_kind="solid",
                                       core_conductive=True, mesh_h=0.5e-3)
    parts = experiments.build_oscillator(cfg)
    # a copy of the system, initialized as the benchmark's is
    system = dataclasses.replace(parts.system)
    z0 = consistent_init(system, parts.z0, parts.u)
    n, r = system.n, 642
    calls = spy_splu(monkeypatch)
    traj = simulate(system, z0, parts.u, cfg.tau, 5 * cfg.tau, "gauss4")
    assert (traj.stepping_path, traj.differential_coordinates) == \
        ("reduced", r)
    # C[:, N], then the ordering trial and the one complex pencil
    assert calls[0] == ((n - r, n - r), "float64", "MMD_AT_PLUS_A")
    assert {call[:2] for call in calls[1:]} == {((r, r), "complex128")}
    # the map is kept: a second run factors its pencils only
    del calls[:]
    simulate(system, z0, parts.u, cfg.tau, 5 * cfg.tau, "trapezoidal")
    assert {call[:2] for call in calls} == {((r, r), "float64")}
    assert_reduced_matches_full(monkeypatch, system, z0, parts.u, cfg.tau,
                                5, "gauss4")


@pytest.mark.parametrize("method", ["trapezoidal", "gauss4", "radau5",
                                    "bdf2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_names_step_time_and_pencil_on_the_reduced_path(
        solid_1mm, method, bad):
    parts = solid_1mm
    tau = parts.config.tau

    def u(t):
        # one grid node of the seventh step of each method
        return np.where(6.5 * tau < t < 7.5 * tau, bad, parts.u(t))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match=rf"step 7 at t = {6 * tau}: non-finite "
                                 rf"stage solution \({method}, lambda = "):
            simulate(parts.system, parts.z0, u, tau, 20 * tau, method)


def test_non_finite_eliminated_state_names_step_and_time(solid_1mm):
    # a lift that turns the rebuilt states non-finite, as an input that
    # only the eliminated states read would, on a copy of the system
    parts = solid_1mm
    system = dataclasses.replace(parts.system)
    dae = to_linear_dae(system)
    rmap = stepping_map(dae)[2]
    lift = rmap.lift.copy()
    lift[0, 0] = np.inf
    object.__setattr__(dae, "_map",
                       (False, dataclasses.replace(rmap, lift=lift)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"step 1 at t = 0\.0: "
                           r"non-finite state \(trapezoidal, reduced\)"):
            simulate(system, parts.z0, parts.u, parts.config.tau,
                     5 * parts.config.tau, "trapezoidal")
