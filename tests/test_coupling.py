from pathlib import Path

import numpy as np
import pytest

from fieldcircuit import coupling
from fieldcircuit.conductors import (FoilModel, SolidModel, StrandedModel,
                                     synth_foil, system_for)
from fieldcircuit.coupling import (BoundPort, CouplingLayout, PortBinding,
                                   bind_circuit, couple, coupled_input_stack)
from fieldcircuit.experiments import OscillatorConfig, build_oscillator
from fieldcircuit.integrators import simulate
from fieldcircuit.interconnect import interconnect, permute_to_partition_order
from fieldcircuit.mna import (build_incidence, mna_system, parse_netlist,
                              read_netlist)
from fieldcircuit.structure import (StructureError, hamiltonian, to_dense,
                                    validate)
from fieldcircuit.waveforms import Constant
from tests.oracles import reference_couple

VALID_NETLISTS = Path(__file__).resolve().parent / "netlists" / "valid"


def _spd(rng, n, rank=None):
    g = rng.standard_normal((n, rank or n))
    return g @ g.T + (0.0 if rank else 0.1 * np.eye(n))


def _mixed_parts(rng):
    k3 = _spd(rng, 3)
    stranded = StrandedModel(_spd(rng, 3, rank=2), k3,
                             rng.standard_normal((3, 1)), np.array([[0.5]]))
    m2 = _spd(rng, 2)
    chi = rng.standard_normal((2, 1))
    solid = SolidModel(m2, _spd(rng, 2), chi, chi.T @ m2 @ chi)
    foil = synth_foil(_spd(rng, 3, rank=2), n_p=2, seed=7, k_nu=_spd(rng, 3))
    nl = parse_netlist(
        "FW1 0 1 stranded ws\n"
        "FS1 1 0 solid sol\n"
        "FF1 2 0 foil fl\n"
        "C1 1 0 1u\n"
        "R1 1 2 10\n"
        "V1 2 0 DC 1\n")
    inc = build_incidence(nl)
    models = {"ws": stranded, "sol": solid, "fl": foil}
    return nl, inc, models


def _random_conductor(rng, kind):
    n = int(rng.integers(2, 5))
    if kind == "stranded":
        return StrandedModel(_spd(rng, n, rank=n - 1), _spd(rng, n),
                             rng.standard_normal((n, 1)),
                             np.array([[rng.uniform(0.1, 1.0)]]))
    if kind == "solid":
        m_sig = _spd(rng, n)
        chi = rng.standard_normal((n, 1))
        return SolidModel(m_sig, _spd(rng, n), chi, chi.T @ m_sig @ chi)
    return synth_foil(_spd(rng, n, rank=n - 1), int(rng.integers(1, 3)),
                      int(rng.integers(100)), k_nu=_spd(rng, n))


def _random_coupling_parts(rng, n_conductors):
    """Circuit, conductor systems and binding of a shuffled netlist with
    `n_conductors` field ports of random kinds between random nodes."""
    lines = ["C1 1 0 1u", "R1 1 2 10", "R2 2 3 5", "L1 3 0 1m",
             "V1 2 0 DC 1", "I1 3 0 DC 0.5"]
    models = {}
    for k in range(n_conductors):
        kind = str(rng.choice(["stranded", "solid", "foil"]))
        n_plus, n_minus = rng.choice(["0", "1", "2", "3"], 2, replace=False)
        lines.append(f"F{k} {n_plus} {n_minus} {kind} m{k}")
        models[f"m{k}"] = _random_conductor(rng, kind)
    rng.shuffle(lines)
    inc = build_incidence(parse_netlist("\n".join(lines) + "\n"))
    _, systems, binding = bind_circuit(inc, models)
    return mna_system(inc), systems, binding


def _mixed_ports_parts(rng):
    """The corpus netlist `mixed_ports` with the models of `_mixed_parts`."""
    _, _, models = _mixed_parts(rng)
    inc = build_incidence(read_netlist(str(VALID_NETLISTS / "mixed_ports.cir")))
    _, systems, binding = bind_circuit(inc, models)
    return mna_system(inc), systems, binding


# --- binding validation ---------------------------------------------------------

def test_binding_rejects_duplicate_name():
    ports = (BoundPort("P", "stranded", 0, 0, 0),
             BoundPort("P", "stranded", 1, 0, 0))
    with pytest.raises(StructureError, match="bound twice"):
        PortBinding(ports, (2,))


def test_binding_rejects_bad_conductor_index():
    with pytest.raises(StructureError, match="references conductor"):
        PortBinding((BoundPort("P", "stranded", 0, 3, 0),), (1,))


def test_binding_rejects_bad_column():
    with pytest.raises(StructureError, match="column 2"):
        PortBinding((BoundPort("P", "stranded", 0, 0, 2),), (1,))


def test_binding_rejects_shared_slot():
    ports = (BoundPort("P", "stranded", 0, 0, 0),
             BoundPort("Q", "stranded", 1, 0, 0))
    with pytest.raises(StructureError, match="more than one circuit branch"):
        PortBinding(ports, (1,))


def test_binding_port_index_offsets():
    binding = PortBinding((BoundPort("P", "solid", 0, 1, 1),), (2, 3))
    assert binding.conductor_port_index(binding.ports[0]) == 3


# --- couple -----------------------------------------------------------------------

def test_couple_without_conductors_returns_circuit():
    nl = parse_netlist("R1 1 0 5\nC1 1 0 1u\n")
    circuit = mna_system(build_incidence(nl))
    binding = PortBinding((), ())
    assert couple(circuit, [], binding) is circuit


def test_couple_rejects_count_mismatch(rng):
    nl = parse_netlist("R1 1 0 5\nC1 1 0 1u\n")
    circuit = mna_system(build_incidence(nl))
    stranded = StrandedModel(np.zeros((2, 2)), _spd(rng, 2),
                             rng.standard_normal((2, 1)), np.zeros((1, 1)))
    with pytest.raises(StructureError, match="binding does not match"):
        couple(circuit, [system_for(stranded)], PortBinding((), ()))


@pytest.mark.parametrize("draw", ["mixed_ports", 3, 3, 4, 4])
def test_couple_equals_pairwise_fold(rng, draw):
    if draw == "mixed_ports":
        circuit, systems, binding = _mixed_ports_parts(rng)
    else:
        circuit, systems, binding = _random_coupling_parts(rng, draw)
    got = couple(circuit, systems, binding)
    want = reference_couple(circuit, systems, binding)
    assert got.partition == want.partition
    for name in ("E", "J", "R", "B", "M1", "M2", "S"):
        assert np.array_equal(to_dense(getattr(got, name)),
                              to_dense(getattr(want, name))), name
    assert got.state_labels == want.state_labels
    assert got.output_labels == want.output_labels


@pytest.mark.parametrize("draw", ["mixed_ports", 1, 2, 3, 4])
def test_couple_interconnects_once(rng, monkeypatch, draw):
    if draw == "mixed_ports":
        circuit, systems, binding = _mixed_ports_parts(rng)
    else:
        circuit, systems, binding = _random_coupling_parts(rng, draw)
    calls = []

    def counting(parts, spec):
        calls.append(len(parts))
        return interconnect(parts, spec)

    monkeypatch.setattr(coupling, "interconnect", counting)
    couple(circuit, systems, binding)
    assert calls == [len(systems) + 1]


def test_partition_order_is_the_layout(rng):
    circuit, systems, _ = _random_coupling_parts(rng, 2)
    parts = [s.partition for s in (*systems, circuit)]
    perm = permute_to_partition_order(*parts)
    offsets = np.cumsum([0] + [p.n for p in parts])
    assert sorted(perm) == list(range(offsets[-1]))

    # each layout slice of the coupled state gathers that part's own block
    layout = CouplingLayout.build(circuit, systems)
    assert layout.n == offsets[-1]
    for k, p in enumerate(parts[:-1]):
        assert list(perm[layout.field_slices[k]]) == list(
            range(offsets[k], offsets[k] + p.n1))
        assert list(perm[layout.algebraic_slices[k]]) == list(
            range(offsets[k] + p.n1 + p.n2, offsets[k + 1]))
    start = offsets[-2] + parts[-1].n1
    assert list(perm[layout.circuit_z2]) == list(
        range(start, start + parts[-1].n2))
    assert list(perm[layout.circuit_z3]) == list(
        range(start + parts[-1].n2, offsets[-1]))


# --- bind_circuit -------------------------------------------------------------------

def test_bind_circuit_missing_model(rng):
    nl, inc, models = _mixed_parts(rng)
    del models["sol"]
    with pytest.raises(StructureError, match="no model named 'sol'"):
        bind_circuit(inc, models)


def test_bind_circuit_kind_mismatch(rng):
    nl, inc, models = _mixed_parts(rng)
    models["ws"], models["fl"] = models["fl"], models["ws"]
    with pytest.raises(StructureError) as err:
        bind_circuit(inc, models)
    msg = str(err.value)
    assert "'FW1' expects a stranded model" in msg
    assert "'FF1' expects a foil model" in msg


def test_bind_circuit_orders_by_first_use(rng):
    nl, inc, models = _mixed_parts(rng)
    ordered, systems, binding = bind_circuit(inc, models)
    assert [type(m).__name__ for m in ordered] == [
        "StrandedModel", "FoilModel", "SolidModel"]
    assert binding.conductor_port_counts == (1, 1, 1)
    by_name = {p.name: p for p in binding.ports}
    assert by_name["FW1"].circuit_index == 0
    assert by_name["FF1"].circuit_index == 1
    assert by_name["FS1"].circuit_index == 2


# --- the coupled system ---------------------------------------------------------------

def test_mixed_coupling_validates_and_adds_energies(rng):
    nl, inc, models = _mixed_parts(rng)
    ordered, systems, binding = bind_circuit(inc, models)
    circuit = mna_system(inc)
    coupled = couple(circuit, systems, binding)
    report = validate(coupled)
    assert report.ok
    assert report.skew_defect == 0.0

    layout = CouplingLayout.build(circuit, systems)
    assert layout.n == coupled.partition.n
    z = rng.standard_normal(layout.n)
    h_parts = sum(
        hamiltonian(s, np.concatenate([z[layout.field_slices[k]],
                                       z[layout.algebraic_slices[k]]]))
        for k, s in enumerate(systems))
    h_parts += hamiltonian(circuit, np.concatenate([z[layout.circuit_z2],
                                                    z[layout.circuit_z3]]))
    h_coupled = hamiltonian(coupled, z)
    assert abs(h_coupled - h_parts) <= 1e-13 * max(abs(h_parts), 1.0)


def test_layout_slices_partition_the_state(rng):
    nl, inc, models = _mixed_parts(rng)
    ordered, systems, binding = bind_circuit(inc, models)
    circuit = mna_system(inc)
    layout = CouplingLayout.build(circuit, systems)
    spans = sorted([*layout.field_slices, layout.circuit_z2,
                    *layout.algebraic_slices, layout.circuit_z3],
                   key=lambda s: s.start)
    cursor = 0
    for s in spans:
        assert s.start == cursor
        cursor = s.stop
    assert cursor == layout.n


def test_coupled_input_stack_layout(rng):
    nl, inc, models = _mixed_parts(rng)
    ordered, systems, binding = bind_circuit(inc, models)
    stack = coupled_input_stack(binding, nl, inc)
    n_cond = sum(binding.conductor_port_counts)
    assert len(stack.components) == n_cond + inc.a_i.shape[1] + inc.a_v.shape[1]
    for comp in stack.components[:n_cond]:
        assert isinstance(comp, Constant) and comp.value == 0.0
    assert stack.components[-1](0.0) == 1.0      # the DC source


def verify_coupling_identities(layout, models, binding, inc, traj, tau):
    """Max deviation of the coupling identities along a trajectory.

    At each completed step the conductor-side expression for a bound port
    quantity (from the field state) is compared with the circuit-side one
    (from the node potentials and source currents): winding voltage row vs
    A_strᵀφ, solid region current vs j_sol, foil terminal voltage vs A_foilᵀφ.
    Expressions use step midpoints; exact for midpoint/trapezoidal runs.
    """
    states = traj.states
    report = {}
    a_i = to_dense(inc.a_i)
    phi_slice = slice(layout.circuit_z2.start,
                      layout.circuit_z2.start + inc.n_phi)
    b_i = a_i.shape[1]
    for port in binding.ports:
        model = models[port.conductor]
        z1_sl = layout.field_slices[port.conductor]
        z3_sl = layout.algebraic_slices[port.conductor]
        dev = 0.0
        for k in range(1, states.shape[0]):
            mid = 0.5 * (states[k] + states[k - 1])
            diff = (states[k] - states[k - 1]) / tau
            phi_mid = mid[phi_slice]
            a_dot = diff[z1_sl]
            z3_mid = mid[z3_sl]
            if isinstance(model, StrandedModel):
                row = (to_dense(model.X_str).T @ a_dot
                       + to_dense(model.R_str) @ z3_mid)
                lhs = row[port.column]
                rhs = a_i[:, port.circuit_index] @ phi_mid
            elif isinstance(model, SolidModel):
                chi = to_dense(model.X_sol)
                row = (to_dense(model.G_sol) @ z3_mid
                       - chi.T @ (model.M_sigma @ a_dot))
                lhs = row[port.column]
                jv_mid = mid[layout.circuit_z3]
                rhs = jv_mid[port.circuit_index - b_i]
            else:
                lhs = float(np.asarray(model.c) @ z3_mid[:-1])
                rhs = a_i[:, port.circuit_index] @ phi_mid
            dev = max(dev, abs(float(lhs) - float(rhs)))
        report[port.name] = dev
    return report


def test_coupling_identities_on_oscillator():
    cfg = OscillatorConfig(mesh_h=2.5e-3)
    parts = build_oscillator(cfg)
    traj = simulate(parts.system, parts.z0, parts.u, cfg.tau,
                    50 * cfg.tau, "trapezoidal")
    report = verify_coupling_identities(parts.layout, [parts.model],
                                        parts.binding, parts.incidence,
                                        traj, cfg.tau)
    assert set(report) == {"FW1"}
    # identity rows are solved exactly by the scheme; only round-off remains
    phi_scale = np.max(np.abs(traj.states[:, parts.phi_index]))
    assert report["FW1"] <= 1e-10 * max(phi_scale, 1.0)


def test_coupling_identities_solid_oscillator():
    cfg = OscillatorConfig(conductor_kind="solid", mesh_h=2.5e-3)
    parts = build_oscillator(cfg)
    traj = simulate(parts.system, parts.z0, parts.u, cfg.tau,
                    50 * cfg.tau, "trapezoidal")
    report = verify_coupling_identities(parts.layout, [parts.model],
                                        parts.binding, parts.incidence,
                                        traj, cfg.tau)
    assert set(report) == {"FS1"}
    jv_scale = np.max(np.abs(traj.states[:, parts.current_index]))
    assert report["FS1"] <= 1e-9 * max(jv_scale, 1.0)
