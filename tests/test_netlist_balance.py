"""Criterion 03 on the netlist path: random RLC netlists with sources and a
stranded field port, parsed, coupled and validated, satisfy the discrete
dissipation inequality under the midpoint rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldcircuit import coupling, experiments, mna
from fieldcircuit.integrators import consistent_init, simulate
from fieldcircuit.structure import hamiltonian, validate

TAU, STEPS = 0.1e-6, 10

_r = st.floats(min_value=1.0, max_value=1e3)
_l = st.floats(min_value=1e-6, max_value=1e-3)
_c = st.floats(min_value=1e-6, max_value=1e-3)
_amplitude = st.floats(-100.0, 100.0)


@pytest.fixture(scope="module")
def coil():
    """The h = 1 mm stranded winding model of the oscillator."""
    return experiments.build_oscillator(experiments.OscillatorConfig()).model


@st.composite
def rlc_netlists(draw):
    """Netlist text: a chain of R/L branches from ground through nodes
    1..k, an R or C shunt from every node to ground, floating capacitors
    between some consecutive nodes, a stranded port across two points,
    current sources at nodes and voltage sources behind a resistor each.
    So no cutset holds only inductors and current sources and no loop only
    voltage sources.  A floating capacitor keeps only its charge from the
    given values; consistent_init solves both plate potentials."""
    k = draw(st.integers(min_value=1, max_value=4))
    points = ["0"] + [f"n{i}" for i in range(1, k + 1)]
    values = {"R": _r, "L": _l, "C": _c}
    lines = []
    for i in range(1, k + 1):
        kind = draw(st.sampled_from("RL"))
        lines.append(f"{kind}{i} {points[i - 1]} {points[i]} "
                     f"{draw(values[kind])!r}")
        shunt = draw(st.sampled_from("RC"))
        lines.append(f"{shunt}s{i} {points[i]} 0 {draw(values[shunt])!r}")
        if i > 1 and draw(st.booleans()):
            lines.append(f"Cf{i} {points[i - 1]} {points[i]} {draw(_c)!r}")
    a, b = draw(st.lists(st.sampled_from(points), min_size=2, max_size=2,
                         unique=True))
    lines.append(f"FW1 {a} {b} stranded coil")

    def waveform():
        if draw(st.booleans()):
            return f"DC {draw(_amplitude)!r}"
        return (f"SIN {draw(_amplitude)!r} {draw(_amplitude)!r} "
                f"{draw(st.floats(1e3, 1e5))!r}")

    for j in range(draw(st.integers(min_value=0, max_value=2))):
        node = draw(st.sampled_from(points[1:]))
        lines.append(f"I{j} {node} 0 {waveform()}")
    for j in range(draw(st.integers(min_value=0, max_value=2))):
        node = draw(st.sampled_from(points[1:]))
        lines.append(f"V{j} v{j} 0 {waveform()}")
        lines.append(f"Rv{j} v{j} {node} {draw(_r)!r}")
    return "\n".join(lines) + "\n"


# derandomized, so that a netlist that fails comes back on every run
@settings(max_examples=25, deadline=None, derandomize=True)
@given(text=rlc_netlists(), seed=st.integers(0, 2**32 - 1))
def test_criterion_03_on_netlist_path(coil, text, seed):
    nl = mna.parse_netlist(text)
    inc = mna.build_incidence(nl)
    circuit = mna.mna_system(inc)
    _, systems, binding = coupling.bind_circuit(inc, {"coil": coil})
    sys_c = coupling.couple(circuit, systems, binding)
    assert validate(sys_c).ok
    u = coupling.coupled_input_stack(binding, nl, inc)

    # node potentials and inductor currents of some 100 V and 100 A; the
    # rest is solved
    rng = np.random.default_rng(seed)
    circuit_state = [lab.startswith(("phi_", "jL_"))
                     for lab in sys_c.default_state_labels()]
    z0 = consistent_init(
        sys_c, 100.0 * rng.standard_normal(sys_c.n) * circuit_state, u)
    traj = simulate(sys_c, z0, u, TAU, STEPS * TAU, "midpoint")

    p = sys_c.partition
    za, zb = traj.states[:-1], traj.states[1:]
    mid = 0.5 * (za + zb)
    w = np.hstack([(zb[:, : p.n1] - za[:, : p.n1]) / TAU,
                   (sys_c.S @ mid[:, p.n1 : p.n1 + p.n2].T).T,
                   mid[:, p.n1 + p.n2 :]])
    u_mid = np.array([u(t + TAU / 2.0) for t in traj.times[:-1]])
    supply = TAU * np.sum((sys_c.B.T @ w.T).T * u_mid, axis=1)
    h = hamiltonian(sys_c, traj.states)
    gain = np.diff(h)
    assert np.all(gain - supply <= 1e-10 * (1.0 + np.abs(h[:-1])))
