"""The condensed path of `simulate`: an index-1 system whose differential
coordinates are few steps on x = E_dae[R] z through r×r propagators
(`_stepping.stepping_map`).  It agrees with the sparse path to
round-off on the 1 mm and 0.4 mm oscillators, on every corpus netlist the
cost rule condenses and on random index-1 draws, for every method; its
audit is the audit of its states to round-off.  Its map is that of the
stacked M = [E_dae[R]; C], with the columns K′ kept from those E_dae[R]
touches.  The index-2 oscillator, a singular M and a constraint column at
round-off stay on the sparse path; the LU factor of every corpus and
oscillator pencil stores at least the entries the cost rule counts; the
path and r of every corpus netlist and oscillator are pinned; a NaN input
names its step and time; and the manifests name the path and r."""

import dataclasses
import os
import pathlib
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fieldcircuit import _dae, _stepping, coupling, experiments, mna
from fieldcircuit._audit import energy_bookkeeping
from fieldcircuit._stepping import METHOD_TAGS, stepping_map
from fieldcircuit.cli import EXIT_OK, cli_main
from fieldcircuit.conductors import load_model, solid_from_mesh, solid_system
from fieldcircuit.fem import Material, Rect, build_rect_mesh
from fieldcircuit.integrators import consistent_init, simulate, to_linear_dae
from fieldcircuit.serialization import read_manifest, read_trajectory_csv
from fieldcircuit.structure import NumericalError, hamiltonian
from fieldcircuit.waveforms import Sinusoid, WaveformStack
from perfbench.workloads import write_field_models
from tests.conftest import random_draws, random_energy_system
# the 4-dof model directories of the field-port netlists
from tests.test_cli import port_models  # noqa: F401

NETLISTS = pathlib.Path(__file__).parent / "netlists" / "valid"

# bounds on the gaps between the two paths (`gaps`), above the largest
# measured over every case below: 6.3e-12 (states and outputs, Gauss-4 on
# 200 steps of a corpus circuit) and 5.4e-12 (energies, Radau IIA on 200
# steps of `solid_port`); the stranded oscillators read at most 3.5e-13 and
# 1.7e-14
STATE_BOUND = 5e-11
ENERGY_BOUND = 2e-11
# the solid conductor with a conductive core at 1 mm (r = 174), which the
# rule keeps sparse, stepped condensed all the same: the stiff eddy-current
# modes of Gauss-4 (R(∞) = 1) carry the largest gap, 5.8e-11 (states), and
# 8.1e-12 (energies, midpoint)
STIFF_STATE_BOUND = 5e-10
STIFF_ENERGY_BOUND = 1e-10


def both_paths(monkeypatch, sys, z0, u, tau, steps, method, force=False,
               path="condensed"):
    """A run on `path` and a run on the full pencils, on the same system:
    for "condensed" the run the cost rule chooses (or, with `force`, a
    condensed run whatever the rule says), for "reduced" a run with the
    condensing rule off."""
    fast_rules = ({"_condenses": False} if path == "reduced" else
                  {"_condenses": True} if force else {})
    runs = []
    for rules in (fast_rules, {"_condenses": False, "_reduces": False}):
        with monkeypatch.context() as patch:
            for name, value in rules.items():
                patch.setattr(_stepping, name, lambda *args, v=value: v)
            runs.append(simulate(sys, z0, u, tau, steps * tau, method))
    fast, slow = runs
    assert (fast.stepping_path, slow.stepping_path) == (path, "sparse")
    assert fast.differential_coordinates == slow.differential_coordinates
    return fast, slow


def column_gap(got, want):
    """Largest difference of a column relative to that column's largest
    magnitude (columns of zeros against the whole array's)."""
    scale = np.abs(want).max(axis=0, initial=0.0)
    scale = np.maximum(scale, 1e-6 * scale.max(initial=0.0) + 1e-300)
    return float((np.abs(got - want) / scale).max(initial=0.0))


def gaps(fast, slow):
    """(states and outputs, energies) gaps of two runs; the energies are
    relative to the largest of |H|, |D_cum| and |E_in|."""
    energy = max(np.abs(slow.hamiltonians).max(),
                 np.abs(slow.dissipated_cum).max(),
                 np.abs(slow.supplied_cum).max(), 1e-300)
    flows = max(column_gap(fast.states, slow.states),
                column_gap(fast.outputs, slow.outputs))
    energies = max(float(np.abs(getattr(fast, name)
                                - getattr(slow, name)).max()) / energy
                   for name in ("hamiltonians", "dissipated_cum",
                                "supplied_cum"))
    return flows, energies


def assert_paths_agree(monkeypatch, sys, z0, u, tau, steps, method,
                       force=False, bounds=(STATE_BOUND, ENERGY_BOUND)):
    fast, slow = both_paths(monkeypatch, sys, z0, u, tau, steps, method,
                            force)
    flows, energies = gaps(fast, slow)
    assert flows <= bounds[0], flows
    assert energies <= bounds[1], energies
    return fast


@pytest.fixture(scope="module", params=[1e-3, 0.4e-3], ids=["1mm", "0.4mm"])
def stranded(request):
    """The lossless stranded oscillators, r = 2."""
    return experiments.build_oscillator(
        experiments.OscillatorConfig(mesh_h=request.param))


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_stranded_oscillators_condense_and_match_sparse(monkeypatch,
                                                        stranded, method):
    parts = stranded
    steps = 100 if parts.config.mesh_h == 1e-3 else 40
    fast = assert_paths_agree(monkeypatch, parts.system, parts.z0, parts.u,
                              parts.config.tau, steps, method)
    assert fast.differential_coordinates == 2


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_solid_core_oscillator_stepped_condensed_matches_sparse(monkeypatch,
                                                                method):
    # eddy currents: conductive pivot rows, and D stores entries
    parts = experiments.build_oscillator(experiments.OscillatorConfig(
        conductor_kind="solid", core_conductive=True, mesh_h=1e-3))
    fast = assert_paths_agree(monkeypatch, parts.system, parts.z0, parts.u,
                              parts.config.tau, 200, method, force=True,
                              bounds=(STIFF_STATE_BOUND, STIFF_ENERGY_BOUND))
    assert fast.differential_coordinates == 174


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_random_index1_draws_match_sparse(monkeypatch, method):
    # every draw is index 1; half have a singular E
    tau = 0.05
    for sys_r, z0, u in random_draws():
        assert_paths_agree(monkeypatch, sys_r, z0, u, tau, 40, method,
                           force=True)


def assert_factor_bound(system, r, tau):
    """The premise of the cost rule on the trapezoidal pencil: under either
    ordering SuperLU stores at least |pattern(E_dae) ∪ pattern(A_dae)| + n
    ≥ nnz(A_dae) + n entries, so a system that `_condenses` admits has n·r
    no larger than the factor's entries."""
    dae = to_linear_dae(system)
    n = system.n
    union = abs(dae.E_dae.copy()) + abs(dae.A_dae.copy())
    union.eliminate_zeros()
    pencil = sp.csc_matrix(dae.E_dae - (0.5 * tau) * dae.A_dae)
    admitted = _stepping._condenses(dae, r)
    # the count the rule reads, on a copy: count_nonzero sorts in place
    a_nnz = dae.A_dae.copy().count_nonzero()
    assert admitted == (n * r <= a_nnz + n)
    assert a_nnz <= union.nnz
    for spec in ("COLAMD", "MMD_AT_PLUS_A"):
        nnz = spla.splu(pencil, permc_spec=spec).nnz
        assert union.nnz + n <= nnz, spec
        assert not admitted or n * r <= nnz, spec


@pytest.mark.parametrize("config,extra_cards", [
    (dict(mesh_h=1e-3), ()),
    (dict(conductor_kind="solid", core_conductive=True, mesh_h=1e-3), ()),
    (dict(v0=0.0, i0=0.0), ("V1 1 0 SIN 0 1 50k",)),
    (dict(conductor_kind="solid", core_conductive=True, mesh_h=0.5e-3), ()),
], ids=["stranded", "solid", "index2", "solid-0.5mm"])
def test_oscillator_pencil_factors_bound_the_rule(config, extra_cards):
    cfg = experiments.OscillatorConfig(**config)
    system = experiments.build_oscillator(cfg, extra_cards=extra_cards).system
    r, *_ = stepping_map(to_linear_dae(system))
    assert_factor_bound(system, r, cfg.tau)


def corpus_system(path, models):
    """(netlist, coupled system, input) of a corpus netlist."""
    nl = mna.read_netlist(str(path))
    inc = mna.build_incidence(nl)
    loaded = {port.model_ref: load_model(str(models / port.model_ref))
              for port in inc.field_ports}
    _, systems, binding = coupling.bind_circuit(inc, loaded)
    system = coupling.couple(mna.mna_system(inc), systems, binding)
    return nl, system, coupling.coupled_input_stack(binding, nl, inc)


# the netlists the cost rule condenses with the models of `port_models`
# (n·r ≤ nnz(A_dae) + n, and M nonsingular); the others step reduced:
# cauer_ladder (n·r = 35 > 22) and mixed_ports (160 > 97), whose rows R of
# E_dae touch more columns than r
CONDENSED_CORPUS = (
    "bridge_rectifier_rc", "comment_styles", "current_divider", "dc_block",
    "foil_port", "grid_3x3", "lc_tank", "method_bdf2", "method_euler",
    "method_midpoint", "method_radau5", "multi_source", "no_time_grid",
    "pi_filter", "plain_exponents", "r2r_ladder", "ragged_whitespace",
    "rc_lowpass", "rl_highpass", "rlc_parallel", "rlc_series", "snubber",
    "solid_port", "stranded_port", "suffix_tour", "tee_attenuator",
    "transformer_columns", "twin_t_notch", "voltage_divider", "wheatstone")


@pytest.mark.parametrize("path", sorted(NETLISTS.glob("*.cir")),
                         ids=lambda p: p.stem)
def test_corpus_netlists_take_the_path_the_rule_gives(monkeypatch,
                                                      port_models, path):
    # every netlist the rule condenses matches the sparse path for every
    # method; the others step sparse
    if path.stem == "foil_second_terminal":
        return  # refused by design: it binds a port its model lacks
    nl, system, u = corpus_system(path, port_models)
    z0 = consistent_init(system, np.zeros(system.n), u)
    tau = nl.tau if nl.tau is not None else 1e-5
    r, taken, _ = stepping_map(to_linear_dae(system))
    assert (taken == "condensed") == (path.stem in CONDENSED_CORPUS)
    assert_factor_bound(system, r, tau)
    if taken != "condensed":
        assert simulate(system, z0, u, tau, 5 * tau,
                        "trapezoidal").stepping_path == taken
        return
    for method in METHOD_TAGS:
        assert_paths_agree(monkeypatch, system, z0, u, tau, 200, method)


# r of every corpus netlist with the models of `port_models`, and the path
# and r of each system with the 1 mm models of the benchmark and of the
# oscillators: those of the stacked M = [E_dae[R]; C] factored with
# COLAMD, which the elimination through C[:, N] must keep
CORPUS_R = {
    "bridge_rectifier_rc": 1, "cauer_ladder": 5, "comment_styles": 0,
    "current_divider": 0, "dc_block": 1, "foil_port": 2, "grid_3x3": 0,
    "lc_tank": 2, "method_bdf2": 1, "method_euler": 1, "method_midpoint": 1,
    "method_radau5": 1, "mixed_ports": 8, "multi_source": 0,
    "no_time_grid": 0, "pi_filter": 3, "plain_exponents": 2,
    "r2r_ladder": 0, "ragged_whitespace": 1, "rc_lowpass": 1,
    "rl_highpass": 1, "rlc_parallel": 2, "rlc_series": 2, "snubber": 1,
    "solid_port": 4, "stranded_port": 2, "suffix_tour": 0,
    "tee_attenuator": 0, "transformer_columns": 2, "twin_t_notch": 3,
    "voltage_divider": 0, "wheatstone": 0}
BENCH_MODEL_R = {"foil_port": 173, "mixed_ports": 348, "solid_port": 173}
# the systems the cost rule does not condense, all reduced: mixed_ports
# has more columns in K than r (415 > 348) and carries the input rate
BENCH_MODEL_PATHS = {"cauer_ladder": "reduced", "foil_port": "reduced",
                     "mixed_ports": "reduced", "solid_port": "reduced"}
PORT_MODEL_PATHS = {"cauer_ladder": "reduced", "mixed_ports": "reduced"}
# the conductive-core stranded oscillator has more columns in K than r
# (174 > 107) and steps reduced with the input rate; the solid core at
# 0.25 mm has a lift over the budget of `_reduces`
OSCILLATOR_PATHS = {
    "stranded-1mm": (dict(mesh_h=1e-3), "condensed", 2),
    "stranded-0.4mm": (dict(mesh_h=0.4e-3), "condensed", 2),
    "stranded-core-1mm": (dict(core_conductive=True, mesh_h=1e-3),
                          "reduced", 107),
    "solid-core-1mm": (dict(conductor_kind="solid", core_conductive=True,
                            mesh_h=1e-3), "reduced", 174),
    "solid-core-0.5mm": (dict(conductor_kind="solid", core_conductive=True,
                              mesh_h=0.5e-3), "reduced", 642),
    "solid-core-0.25mm": (dict(conductor_kind="solid", core_conductive=True,
                               mesh_h=0.25e-3), "sparse", 2466),
}


@pytest.fixture(scope="module")
def bench_models(tmp_path_factory):
    """The 1 mm model directories of the benchmark's `sweep-small`."""
    models = tmp_path_factory.mktemp("bench-models")
    write_field_models(models, 1)
    return models


def path_and_r(system):
    r, path, _ = stepping_map(to_linear_dae(system))
    return path, r


@pytest.mark.parametrize("models", ["port", "bench"])
@pytest.mark.parametrize("name", sorted(CORPUS_R))
def test_corpus_paths_and_r_are_kept(request, models, name):
    _, system, _ = corpus_system(NETLISTS / f"{name}.cir",
                                 request.getfixturevalue(f"{models}_models"))
    if models == "bench":
        want = (BENCH_MODEL_PATHS.get(name, "condensed"),
                BENCH_MODEL_R.get(name, CORPUS_R[name]))
    else:
        want = ("condensed" if name in CONDENSED_CORPUS else
                PORT_MODEL_PATHS[name], CORPUS_R[name])
    assert path_and_r(system) == want


@pytest.mark.parametrize("name", sorted(OSCILLATOR_PATHS))
def test_oscillator_paths_and_r_are_kept(name):
    config, path, r = OSCILLATOR_PATHS[name]
    parts = experiments.build_oscillator(experiments.OscillatorConfig(
        **config))
    assert path_and_r(parts.system) == (path, r)


@pytest.mark.parametrize("method", METHOD_TAGS)
def test_condensed_audit_is_the_audit_of_its_states(monkeypatch, method):
    # H, outputs and dissipation from the coordinates against the audit of
    # the stored states, from an inconsistent start too
    rng = np.random.default_rng(3)
    endpoint = method == "implicit_euler"
    for sys_r, z0, u in random_draws():
        for start in (z0, rng.standard_normal(sys_r.n)):
            with monkeypatch.context() as patch:
                patch.setattr(_stepping, "_condenses", lambda *c: True)
                traj = simulate(sys_r, start, u, 0.05, 2.0, method)
            y, dissipated, h = energy_bookkeeping(sys_r, traj.states, 0.05,
                                                   endpoint)
            assert np.abs(traj.hamiltonians[1:] - h).max() <= \
                1e-13 * np.abs(h).max()
            assert column_gap(traj.outputs[1:], y) <= 1e-12
            assert np.abs(np.diff(traj.dissipated_cum) / 0.05
                          - dissipated).max() <= \
                1e-13 * np.abs(dissipated).max()
            assert traj.hamiltonians[0] == hamiltonian(sys_r, start)
            assert np.array_equal(traj.states[0], start)


# --- the elimination ---------------------------------------------------------

def assert_map_is_the_stacked_solve(dae):
    """V, G, A_r and B_r of the condensed map equal, to round-off, those of
    a sparse LU solve with M stacked as [E_dae[R]; C], unscaled: the
    elimination through the placed, scaled and transposed factor of
    C[:, N] changes nothing but round-off.  A column
    of [V G] = M⁻¹ [I 0; 0 −D] is measured against the larger of its own
    magnitude and that of its right side times the largest gain of any
    column (a column that cancels to zero keeps the round-off of its
    solve), and a column of A_r and B_r against that scale times
    ‖A_dae[R]‖∞, plus the column of B_dae[R].  The r columns K′ that
    C[:, N] leaves out are columns that E_dae[R] touches, K; returns
    whether K holds more than r columns, among which K′ was picked."""
    r, path, cmap = stepping_map(dae)
    assert path == "condensed"
    c_mat, d_mat, rows, dependent = _dae.constraint_basis(dae)
    n, m = dae.partition.n, dae.partition.m
    is_k = np.asarray(abs(dae.E_dae[rows]).sum(axis=0)).ravel() > 0.0
    k_prime = np.setdiff1d(np.arange(n),
                           _stepping._placement(c_mat, dependent, is_k))
    assert k_prime.size == r and is_k[k_prime].all()
    rhs = np.zeros((n, r + m))
    rhs[:r, :r] = np.eye(r)
    rhs[r:, r:] = -d_mat.toarray()
    stacked = sp.csc_matrix(sp.vstack((dae.E_dae[rows], c_mat)))
    sol = spla.splu(stacked).solve(rhs)
    rhs_max = np.abs(rhs).max(axis=0, initial=0.0)
    sol_max = np.abs(sol).max(axis=0, initial=0.0)
    gain = (sol_max[rhs_max > 0] / rhs_max[rhs_max > 0]).max(initial=0.0)
    scale = np.maximum(sol_max, gain * rhs_max)
    a_rows, b_rows = dae.A_dae[rows], dae.B_dae[rows].toarray()
    a_norm = abs(a_rows).sum(axis=1).max(initial=0.0)
    want = (sol[:, :r], sol[:, r:], a_rows @ sol[:, :r],
            a_rows @ sol[:, r:] + b_rows)
    scales = (scale[:r], scale[r:], a_norm * scale[:r],
              a_norm * scale[r:] + np.abs(b_rows).max(axis=0, initial=0.0))
    for got, ref, col_scale in zip((cmap.V, cmap.G, cmap.A_r, cmap.B_r),
                                   want, scales):
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-12 * col_scale)
    return np.count_nonzero(is_k) > r


# the condensed netlists whose rows R touch more columns K than r, with
# the models of `port_models`; the stranded oscillators touch 370 at
# 0.4 mm and 69 at 1 mm, with r = 2
WIDE_K = ("dc_block", "stranded_port", "transformer_columns", "twin_t_notch")


def test_stranded_oscillator_map_is_the_stacked_solve(stranded):
    assert assert_map_is_the_stacked_solve(to_linear_dae(stranded.system))


@pytest.mark.parametrize("name", CONDENSED_CORPUS)
def test_corpus_map_is_the_stacked_solve(port_models, name):
    _, system, _ = corpus_system(NETLISTS / f"{name}.cir", port_models)
    assert assert_map_is_the_stacked_solve(to_linear_dae(system)) == \
        (name in WIDE_K)


def test_round_off_column_of_c_steps_sparse(monkeypatch):
    # the current-driven solid conductor of
    # test_conductors::test_foil_solid_duality_np1 (n 46, r 15), condensed
    # by force: its z3 column of C is round-off, so C[:, N] is singular and
    # the system takes the full pencils
    mesh = build_rect_mesh([Rect("air", 0.0, 1.0, -1.0, 1.0),
                            Rect("bar", 0.3, 0.6, -0.4, 0.4)], 0.2)
    sys_s = solid_system(solid_from_mesh(
        mesh, {"air": Material("air"), "bar": Material("bar", 1.0, 1e4)},
        "bar"))
    c_mat = _dae.constraint_basis(to_linear_dae(sys_s))[0]
    assert np.abs(c_mat.toarray()[:, -1]).max() <= 2.3e-16
    monkeypatch.setattr(_stepping, "_condenses", lambda *args: True)
    traj = simulate(sys_s, np.zeros(sys_s.n),
                    WaveformStack((Sinusoid(0.0, 1.0, 120.0),)), 1e-4, 1e-3,
                    "midpoint")
    assert (traj.stepping_path, traj.differential_coordinates) == \
        ("sparse", 15)


def test_small_real_column_of_c_steps_condensed(port_models):
    # a column of suffix_tour's C is 9.99e-13 of its row: a real entry,
    # which the pivot ratio of C[:, N] does not read as an index
    _, system, _ = corpus_system(NETLISTS / "suffix_tour.cir", port_models)
    dae = to_linear_dae(system)
    c_dense = np.abs(_dae.constraint_basis(dae)[0].toarray())
    col_max = (c_dense / c_dense.max(axis=1, keepdims=True)).max(axis=0)
    assert 9.9e-13 < col_max.min() < 1e-12
    assert stepping_map(dae)[1] == "condensed"


def test_condensed_path_keeps_the_balance_of_the_lossless_oscillator():
    parts = experiments.build_oscillator(experiments.OscillatorConfig(
        mesh_h=0.4e-3))
    report = experiments.run_oscillator(
        dataclasses.replace(parts.config, t_end=150e-6), parts=parts)
    assert report.trajectory.stepping_path == "condensed"
    assert report.max_rel_energy_drift <= 1e-10


# --- the path each system takes ----------------------------------------------

def spy_splu(monkeypatch):
    calls = []
    splu = _dae.spla.splu

    def recording(mat, *args, **kwargs):
        calls.append((mat.shape, mat.dtype.name, kwargs.get("permc_spec")))
        return splu(mat, *args, **kwargs)

    monkeypatch.setattr(_dae.spla, "splu", recording)
    return calls


@pytest.mark.parametrize("forced", [False, True],
                         ids=["rule", "sparse_stepper"])
def test_sparse_stepper_steps_a_condensing_system_sparse(request,
                                                          port_models,
                                                          forced):
    # the rule condenses lc_tank; the fixture of the sparse-path tests must
    # patch the rule in the module that looks it up
    if forced:
        request.getfixturevalue("sparse_stepper")
    nl, system, u = corpus_system(NETLISTS / "lc_tank.cir", port_models)
    z0 = consistent_init(system, np.zeros(system.n), u)
    traj = simulate(system, z0, u, nl.tau, 5 * nl.tau, "trapezoidal")
    assert traj.stepping_path == ("sparse" if forced else "condensed")


def test_index2_oscillator_stays_sparse(monkeypatch):
    cfg = experiments.OscillatorConfig(v0=0.0, i0=0.0)
    parts = experiments.build_oscillator(
        cfg, extra_cards=("V1 1 0 SIN 0 1 50k",))
    dae = to_linear_dae(parts.system)
    calls = spy_splu(monkeypatch)
    traj = simulate(parts.system, parts.z0, parts.u, cfg.tau, 20 * cfg.tau,
                    "trapezoidal")
    # the rule would condense (r = 2), but M is singular: index 2
    assert traj.stepping_path == "sparse"
    assert traj.differential_coordinates == 2
    assert stepping_map(dae)[1] == "sparse"
    n = parts.system.n
    # no placement of C[:, N] leaves its columns K′ in K, so only the
    # pencil is factored, with its ordering trial
    assert calls[0] == ((n, n), "float64", "MMD_AT_PLUS_A")
    assert {shape for shape, *_ in calls} == {(n, n)}


def test_singular_m_draw_stays_sparse(rng, monkeypatch):
    # a voltage source across a capacitor: the algebraic row holds z2 only,
    # so M has an empty z3 column
    for _ in range(5):
        base = random_energy_system(rng, n1=0, n2=2, n3=1, m=1,
                                    lossless=True)
        j = base.J.toarray()
        j[2, 2] = 0.0
        j[:2, 2] = -j[2, :2]
        b = np.array([[0.0], [0.0], [1.0]])
        sys_i2 = dataclasses.replace(base, J=j, B=b)
        u = WaveformStack((Sinusoid(0.0, 1.0, 1.0),))
        z0 = consistent_init(sys_i2, np.zeros(3), u)
        traj = simulate(sys_i2, z0, u, 0.01, 0.2, "trapezoidal")
        assert traj.stepping_path == "sparse"
        assert stepping_map(to_linear_dae(sys_i2))[1] == "sparse"


@pytest.mark.parametrize("method", ["trapezoidal", "gauss4", "radau5",
                                    "bdf2"])
def test_non_finite_input_names_step_and_time_on_the_condensed_path(
        rng, method):
    sys_r = random_energy_system(rng, n1=2, n2=3, n3=2, m=1)

    def u(t):
        return np.array([np.nan if 0.32 < t < 0.38 else np.sin(t)])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match=rf"step 7 at t = 0\.3\d*: non-finite state "
                                 rf"\({method}, condensed\)"):
            simulate(sys_r, np.zeros(sys_r.n), u, 0.05, 1.0, method)


# --- what the runs report ----------------------------------------------------

def test_manifests_name_the_stepping_path(tmp_path, monkeypatch):
    rc = tmp_path / "rc.cir"
    rc.write_text("V1 1 0 DC 1\nR1 1 2 2\nC1 2 0 3\n.tran 0.05 6\n",
                  encoding="utf-8")
    for rules, path in (((), "condensed"), (("_condenses",), "reduced"),
                        (("_condenses", "_reduces"), "sparse")):
        out = tmp_path / path
        with monkeypatch.context() as patch:
            for rule in rules:
                patch.setattr(_stepping, rule, lambda *c: False)
            assert cli_main(["simulate", str(rc), "--out", str(out)]) \
                == EXIT_OK
        man = read_manifest(str(out / "run.manifest"))
        assert (man["stepping_path"], man["differential_coordinates"]) == \
            (path, "1")
    # the H column of the condensed run is H of its states to round-off
    header, data = read_trajectory_csv(str(tmp_path / "condensed"
                                           / "trajectory.csv"))
    sys_m = mna.mna_system(mna.build_incidence(mna.read_netlist(str(rc))))
    h = np.array([hamiltonian(sys_m, row[4 : 4 + sys_m.n]) for row in data])
    assert np.abs(h - data[:, 1]).max() <= 1e-14 * np.abs(h).max()

    cfg = experiments.OscillatorConfig(mesh_h=2.5e-3)
    experiments.run_oscillator(cfg, out_dir=str(tmp_path / "osc"))
    man = read_manifest(str(tmp_path / "osc" / "run.manifest"))
    assert (man["stepping_path"], man["differential_coordinates"]) == \
        ("condensed", "2")
    experiments.run_index2(cfg, out_dir=str(tmp_path / "index2"))
    man = read_manifest(str(tmp_path / "index2" / "run.manifest"))
    assert (man["stepping_path"], man["differential_coordinates"]) == \
        ("sparse", "2")
    assert os.path.isfile(tmp_path / "index2" / "trajectory.csv")
