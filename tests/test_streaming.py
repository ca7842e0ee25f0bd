"""The streaming step loop of `simulate`: the columns `keep` names, and every
energy, are bit-identical to a run that keeps every column; keeping a few
columns bounds the memory of a long run; one implicit DAE serves every
initialization and simulation of a system and is never written.  The
oscillator tests run on the path the cost rules choose (the lossless
stranded oscillator condenses, the solid one steps reduced); the
`sparse_path` tests run the lossless one on the sparse path too."""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fieldcircuit import _stepping, coupling, integrators, mna
from fieldcircuit._stepping import METHOD_TAGS
from fieldcircuit.experiments import OscillatorConfig, build_oscillator
from fieldcircuit.integrators import (Trajectory, consistent_init, simulate,
                                      to_linear_dae)
from fieldcircuit.structure import StructureError, block_rows

NETLISTS = Path(__file__).resolve().parent / "netlists" / "valid"


@pytest.fixture(scope="module", params=["stranded", "solid"])
def oscillator(request):
    """The 1 mm oscillators: lossless stranded, and solid with a conductive
    core."""
    kind = request.param
    return build_oscillator(OscillatorConfig(
        conductor_kind=kind, core_conductive=kind == "solid", mesh_h=1e-3))


def _assert_kept_matches_full(parts, kept, full):
    cols = parts.written_columns
    assert kept.states.shape == (len(full.times), cols.size)
    assert np.array_equal(kept.states, full.states[:, cols])
    assert kept.state_labels == tuple(full.state_labels[i] for i in cols)
    for name in ("times", "outputs", "hamiltonians", "dissipated_cum",
                 "supplied_cum"):
        assert np.array_equal(getattr(kept, name), getattr(full, name)), name


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_kept_columns_and_energies_match_a_full_run(oscillator, method,
                                                    monkeypatch):
    # spans of one block keep the runs short; the span boundaries are the
    # same code at any span length
    monkeypatch.setattr(_stepping, "_SPAN_BLOCKS", 1)
    parts = oscillator
    # more than two spans and not a whole number of them, so BDF2's history
    # crosses two span boundaries and the last span is short
    steps = 2 * block_rows(parts.system.partition.n) + 37
    tau = parts.config.tau
    args = (parts.system, parts.z0, parts.u, tau, steps * tau, method)
    _assert_kept_matches_full(parts, simulate(*args, keep=parts.written_columns),
                              simulate(*args))


@pytest.fixture(scope="module")
def lossless():
    """The 1 mm lossless stranded oscillator, which the cost rule condenses."""
    return build_oscillator(OscillatorConfig(mesh_h=1e-3))


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_sparse_path_kept_columns_and_energies_match_a_full_run(
        lossless, sparse_stepper, method, monkeypatch):
    monkeypatch.setattr(_stepping, "_SPAN_BLOCKS", 1)
    steps = 2 * block_rows(lossless.system.partition.n) + 37
    tau = lossless.config.tau
    args = (lossless.system, lossless.z0, lossless.u, tau, steps * tau,
            method)
    kept = simulate(*args, keep=lossless.written_columns)
    assert kept.stepping_path == "sparse"
    _assert_kept_matches_full(lossless, kept, simulate(*args))


def test_keeping_two_columns_halves_the_peak_of_a_long_run(lossless):
    _assert_keeping_two_columns_halves_the_peak(lossless)


def test_sparse_path_keeping_two_columns_halves_the_peak(lossless,
                                                         sparse_stepper):
    _assert_keeping_two_columns_halves_the_peak(lossless)


def _assert_keeping_two_columns_halves_the_peak(parts):
    tau = parts.config.tau
    # 5000 steps are 3.55 spans of 8 blocks at n = 743
    args = (parts.system, parts.z0, parts.u, tau, 5000 * tau, "trapezoidal")

    def traced(keep):
        tracemalloc.start()
        try:
            return simulate(*args, keep=keep), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (full, full_peak), (kept, kept_peak) = traced(None), traced(
        parts.written_columns)
    # the full store alone is 5001 x 743 doubles, 29.7 MB
    assert kept_peak <= 0.5 * full_peak, (kept_peak, full_peak)
    _assert_kept_matches_full(parts, kept, full)


def test_keep_with_every_column_in_order_is_a_full_run(oscillator):
    parts = oscillator
    n = parts.system.partition.n
    tau = parts.config.tau
    args = (parts.system, parts.z0, parts.u, tau, 20 * tau, "gauss4")
    full, every = simulate(*args), simulate(*args, keep=np.arange(n))
    assert np.array_equal(every.states, full.states)
    assert every.state_labels == full.state_labels


def test_keep_reorders_and_repeats_columns(oscillator):
    parts = oscillator
    tau = parts.config.tau
    args = (parts.system, parts.z0, parts.u, tau, 20 * tau, "radau5")
    full = simulate(*args)
    cols = [parts.current_index, parts.phi_index, parts.current_index]
    kept = simulate(*args, keep=cols)
    assert np.array_equal(kept.states, full.states[:, cols])
    assert kept.state_labels == tuple(full.state_labels[i] for i in cols)


def _netlist_system(name: str):
    nl = mna.read_netlist(str(NETLISTS / name))
    inc = mna.build_incidence(nl)
    _, systems, binding = coupling.bind_circuit(inc, {})
    system = coupling.couple(mna.mna_system(inc), systems, binding)
    return nl, system, coupling.coupled_input_stack(binding, nl, inc)


@pytest.mark.parametrize("keep, bad", [
    ([0, 2, -1], "keep[2] = -1"),
    ([0, 3], "keep[1] = 3"),
    ([1.0, 2.0], "keep[0] = 1.0"),
    ([True, False], "keep[0] = True"),
    ([[0, 1]], "shape (1, 2)"),
    (2, "shape ()"),
])
def test_keep_must_name_state_columns(keep, bad):
    _, system, u = _netlist_system("voltage_divider.cir")
    n = system.partition.n
    assert n == 3
    with pytest.raises(StructureError) as err:
        simulate(system, consistent_init(system, np.zeros(n), u), u, 0.1,
                 1.0, "trapezoidal", keep=keep)
    assert bad in str(err.value)


def test_trajectory_needs_one_label_per_state_column():
    t = np.arange(3.0)
    with pytest.raises(StructureError, match="one column per label"):
        Trajectory(t, np.zeros((3, 2)), np.zeros((3, 1)), t, t, t,
                   ("a", "b", "c"), ("y",))


def test_one_linear_dae_per_system_is_never_written(monkeypatch):
    # rlc_series assembles A_dae with unsorted rows, which scipy sorts in
    # place on abs(): the shared rewrite must keep its assembled order
    nl, system, u = _netlist_system("rlc_series.cir")
    builds = []
    rearrange = integrators.rearrange
    monkeypatch.setattr(integrators, "rearrange",
                        lambda sys: builds.append(sys) or rearrange(sys))
    dae = to_linear_dae(system)
    assert not dae.A_dae.has_sorted_indices
    before = [(m.data.copy(), m.indices.copy(), m.indptr.copy())
              for m in (dae.E_dae, dae.A_dae, dae.B_dae)]
    z0 = consistent_init(system, np.zeros(system.partition.n), u)
    t_end = 300 * nl.tau
    runs = [simulate(system, z0, u, nl.tau, t_end, m) for m in METHOD_TAGS]
    assert len(builds) == 1 and builds[0] is system
    assert to_linear_dae(system) is dae
    for mat, arrays in zip((dae.E_dae, dae.A_dae, dae.B_dae), before):
        for got, want in zip((mat.data, mat.indices, mat.indptr), arrays):
            assert np.array_equal(got, want)
    # as before the rewrite was shared: initialization and every simulate
    # on a system of their own give the same values to the bit
    assert np.array_equal(
        consistent_init(replace(system), np.zeros(system.partition.n), u), z0)
    for m, run in zip(METHOD_TAGS, runs):
        alone = simulate(replace(system), z0, u, nl.tau, t_end, m)
        for name in ("states", "hamiltonians", "dissipated_cum",
                     "supplied_cum"):
            assert np.array_equal(getattr(alone, name), getattr(run, name))
