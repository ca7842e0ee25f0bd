import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldcircuit._stepping import METHOD_TAGS
from fieldcircuit.conductors import KINDS
from fieldcircuit.mna import (GROUND, NetlistError, build_incidence,
                              input_stack, mna_system, parse_netlist,
                              parse_value, print_netlist)
from fieldcircuit.integrators import simulate
from fieldcircuit.structure import output, to_dense, validate
from fieldcircuit.waveforms import Constant, Sinusoid


# --- value tokens --------------------------------------------------------------

@pytest.mark.parametrize("token,expected", [
    ("1p", 1e-12), ("2.5n", 2.5e-9), ("3u", 3e-6), ("4m", 4e-3),
    ("5k", 5e3), ("6M", 6e6), ("7G", 7e9), ("100", 100.0),
    ("1e-3", 1e-3), ("-2.5e2", -250.0), (".5", 0.5), ("+3", 3.0),
])
def test_parse_value(token, expected):
    assert parse_value(token) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("token", ["", "abc", "1K", "1.2.3", "1e", "u5", "5 "])
def test_parse_value_malformed(token):
    assert parse_value(token) is None


# --- parse diagnostics -----------------------------------------------------------

def _errors_of(text):
    with pytest.raises(NetlistError) as err:
        parse_netlist(text, origin="nl")
    return err.value.errors


def test_self_loop_column_accurate():
    errs = _errors_of("R1 1 1 5.0\n")
    assert len(errs) == 1
    assert errs[0].startswith("nl:1:4:")
    assert "connects node '1' to itself" in errs[0]


def test_malformed_value_column_accurate():
    errs = _errors_of("R1 1 0 5x\n")
    assert errs[0].startswith("nl:1:8:")
    assert "malformed number" in errs[0]


def test_multiple_errors_collected():
    errs = _errors_of("R1 1 0 -5\nQ3 1 0 2\nC1 2 0 1u\nC1 2 0 1u\n")
    assert len(errs) == 3
    assert errs[0].startswith("nl:1:")     # non-positive value
    assert errs[1].startswith("nl:2:")     # unknown card letter
    assert errs[2].startswith("nl:4:")     # duplicate name
    assert "duplicate element name" in errs[2]


def test_empty_and_groundless_netlists():
    assert "no elements" in _errors_of("# nothing here\n")[0]
    assert "ground" in _errors_of("R1 1 2 5\n")[0]


def test_duplicate_directives():
    errs = _errors_of("R1 1 0 5\n.tran 1u 1m\n.tran 1u 1m\n")
    assert "duplicate .tran" in errs[0]
    errs = _errors_of("R1 1 0 5\n.method trapezoidal\n.method bdf2\n")
    assert "duplicate .method" in errs[0]


def test_unknown_method_and_directive():
    assert "unknown method" in _errors_of("R1 1 0 5\n.method rk9\n")[0]
    assert _errors_of("R1 1 0 5\n.method euler\n") == [
        "nl:2:9: unknown method 'euler'; choose from implicit_euler, "
        "midpoint, trapezoidal, bdf2, gauss4, radau5"]
    assert "unknown directive" in _errors_of("R1 1 0 5\n.opts x\n")[0]


def test_bad_field_port_kind():
    errs = _errors_of("FW1 1 0 litz m1\n")
    assert "unknown field-port kind" in errs[0]


def test_floating_node_detected():
    nl = parse_netlist("R1 1 0 5\nR2 2 3 5\n")
    with pytest.raises(NetlistError, match="no path to ground"):
        build_incidence(nl)


def test_two_floating_islands_are_named_in_node_order():
    # islands {a, b, c} and {x, y}; 1 and 2 reach ground only through 3
    nl = parse_netlist("R1 a b 5\nR2 1 2 5\nC1 x y 1u\nR3 2 3 5\n"
                       "R4 b c 5\nR5 3 0 5\nL1 y x 1m\n")
    with pytest.raises(NetlistError) as err:
        build_incidence(nl)
    assert err.value.errors == [f"node {nm!r} has no path to ground"
                                for nm in ("a", "b", "x", "y", "c")]


def test_nodes_keep_their_first_appearance_order():
    nl = parse_netlist("V1 b 0 DC 1\nR1 b a 5\nR2 0 c 5\nC1 a c 1u\n"
                       "R3 c b 5\n")
    assert nl.nodes == ("b", "a", "c")
    # a long RC ladder whose node names do not sort in ladder order, with
    # ground on either end of the shunt capacitors
    names = [f"x{k}" for k in np.random.default_rng(5).permutation(3001)]
    cards = [f"V1 {names[0]} 0 DC 1"]
    for k in range(3000):
        shunt = (names[k + 1], "0") if k % 2 else ("0", names[k + 1])
        cards += [f"R{k} {names[k]} {names[k + 1]} 1",
                  f"C{k} {shunt[0]} {shunt[1]} 1u"]
    nl = parse_netlist("\n".join(cards) + "\n")
    assert nl.nodes == tuple(names)
    assert build_incidence(nl).node_order == tuple(names)


def test_comments_and_blank_lines():
    nl = parse_netlist("* spice-style comment\n\nR1 1 0 5 # trailing\n")
    assert len(nl.cards) == 1
    assert nl.cards[0].value == 5.0


def test_tran_and_method_directives():
    nl = parse_netlist("R1 1 0 5\n.tran 0.1u 50u\n.method gauss4\n")
    assert nl.tau == pytest.approx(1e-7)
    assert nl.t_end == pytest.approx(5e-5)
    assert nl.method == "gauss4"


# --- canonical printing -----------------------------------------------------------

_pos_value = st.floats(min_value=1e-9, max_value=1e9,
                       allow_nan=False, allow_infinity=False)
_any_value = st.floats(min_value=-1e6, max_value=1e6,
                       allow_nan=False, allow_infinity=False)


@st.composite
def _netlist_texts(draw):
    # chain topology keeps every node connected to ground
    n = draw(st.integers(min_value=1, max_value=7))
    lines = []
    for k in range(n):
        kind = draw(st.sampled_from("RLCVIF"))
        a = GROUND if k == 0 else f"n{k}"
        b = f"n{k + 1}"
        name = f"{kind}{k}"
        if kind in "RLC":
            lines.append(f"{name} {a} {b} {draw(_pos_value)!r}")
        elif kind in "VI":
            if draw(st.booleans()):
                lines.append(f"{name} {a} {b} DC {draw(_any_value)!r}")
            else:
                o, amp, f = (draw(_any_value) for _ in range(3))
                lines.append(f"{name} {a} {b} SIN {o!r} {amp!r} {f!r}")
        else:
            fk = draw(st.sampled_from(("stranded", "solid", "foil")))
            col = draw(st.integers(0, 3))
            lines.append(f"{name} {a} {b} {fk} model_{k} {col}")
    if draw(st.booleans()):
        lines.append(f".tran {draw(_pos_value)!r} {draw(_pos_value)!r}")
    if draw(st.booleans()):
        lines.append(f".method {draw(st.sampled_from(METHOD_TAGS))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(_netlist_texts())
def test_parse_print_parse_idempotent(text):
    nl1 = parse_netlist(text)
    canon = print_netlist(nl1)
    nl2 = parse_netlist(canon)
    assert nl2 == nl1
    assert print_netlist(nl2) == canon


# --- incidence ---------------------------------------------------------------------

def test_branch_ordering_and_port_indices():
    nl = parse_netlist(
        "FW1 0 1 stranded coil\n"
        "FS1 2 0 solid bar\n"
        "I1 1 0 DC 1\n"
        "V1 2 0 DC 1\n"
        "R1 1 2 5\n")
    inc = build_incidence(nl)
    assert inc.node_order == ("1", "2")
    assert inc.i_branch_names == ("FW1", "I1")
    assert inc.v_branch_names == ("FS1", "V1")
    ports = {p.name: p for p in inc.field_ports}
    assert ports["FW1"].u_index == 0
    assert ports["FS1"].u_index == 2     # after the 2 current slots
    # FW1 written ground -> node: node 1 is the minus terminal
    np.testing.assert_array_equal(to_dense(inc.a_i)[:, 0], [-1.0, 0.0])


def test_field_ports_take_the_slot_of_their_kind():
    # ports written in reverse table order land in table order, each in the
    # source block that its kind's slot names, ahead of the sources
    kinds = list(KINDS)
    nl = parse_netlist("".join(f"F{k} 1 0 {kind} m{k}\n"
                               for k, kind in reversed(list(enumerate(kinds))))
                       + "I1 1 0 DC 1\nV1 2 0 DC 1\nR1 1 2 5\n")
    inc = build_incidence(nl)
    names = {"I": [f"F{k}" for k, kind in enumerate(kinds)
                   if KINDS[kind].slot == "I"] + ["I1"],
             "V": [f"F{k}" for k, kind in enumerate(kinds)
                   if KINDS[kind].slot == "V"] + ["V1"]}
    assert list(inc.i_branch_names) == names["I"]
    assert list(inc.v_branch_names) == names["V"]
    u_order = names["I"] + names["V"]
    for port in inc.field_ports:
        assert port.u_index == u_order.index(port.name)


def test_incidence_column_signs():
    nl = parse_netlist("R1 1 2 5\nC1 2 0 1u\nV1 1 0 DC 1\n")
    inc = build_incidence(nl)
    np.testing.assert_array_equal(to_dense(inc.a_r).ravel(), [1.0, -1.0])
    np.testing.assert_array_equal(to_dense(inc.a_c).ravel(), [0.0, 1.0])
    np.testing.assert_array_equal(to_dense(inc.a_v).ravel(), [1.0, 0.0])
    assert inc.g_diag[0] == pytest.approx(0.2)
    assert inc.c_diag[0] == pytest.approx(1e-6)


# --- the energy-based MNA system ------------------------------------------------

def test_mna_rc_hand_assembled():
    r_val, c_val = 2.0, 3.0
    nl = parse_netlist(f"V1 1 0 DC 1\nR1 1 2 {r_val}\nC1 2 0 {c_val}\n")
    sys_c = mna_system(build_incidence(nl))
    assert validate(sys_c).ok
    p = sys_c.partition
    assert (p.n1, p.n2, p.n3, p.m) == (0, 2, 1, 1)
    g = 1.0 / r_val
    np.testing.assert_allclose(to_dense(sys_c.E),
                               [[0.0, 0.0], [0.0, c_val]])
    np.testing.assert_allclose(to_dense(sys_c.R),
                               [[g, -g, 0.0], [-g, g, 0.0], [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(to_dense(sys_c.J),
                               [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0],
                                [1.0, 0.0, 0.0]])
    np.testing.assert_allclose(to_dense(sys_c.B).ravel(), [0.0, 0.0, -1.0])
    assert sys_c.state_labels == ("phi_1", "phi_2", "jV_V1")


def test_mna_rc_charging_curve():
    nl = parse_netlist("V1 1 0 DC 1\nR1 1 2 2\nC1 2 0 3\n.tran 0.05 6\n")
    inc = build_incidence(nl)
    sys_c = mna_system(inc)
    u = input_stack(nl, inc)
    traj = simulate(sys_c, np.zeros(3), u, nl.tau, nl.t_end, "midpoint")
    rc = 6.0
    ref = 1.0 - np.exp(-traj.times / rc)
    assert np.max(np.abs(traj.states[:, 1] - ref)) <= 2e-5


def test_mna_output_convention(rng):
    nl = parse_netlist("I1 1 0 DC 2\nR1 1 2 5\nV1 2 0 DC 1\nL1 1 0 1m\n")
    inc = build_incidence(nl)
    sys_c = mna_system(inc)
    assert validate(sys_c).ok
    z = rng.standard_normal(sys_c.partition.n)
    y = output(sys_c, np.zeros(0), z)
    n_phi = inc.n_phi
    phi = z[:n_phi]
    j_v = z[-1]
    a_i = to_dense(inc.a_i)
    np.testing.assert_allclose(y[0], -(a_i[:, 0] @ phi))
    np.testing.assert_allclose(y[1], -j_v)


def test_mna_lc_oscillation_energy():
    nl = parse_netlist("C1 1 0 1\nL1 1 0 1\n")
    inc = build_incidence(nl)
    sys_c = mna_system(inc)
    z0 = np.array([1.0, 0.0])      # charged capacitor, no inductor flux
    traj = simulate(sys_c, z0, input_stack(nl, inc), 0.01, 5.0, "midpoint")
    h = traj.hamiltonians
    assert abs(h[-1] - h[0]) <= 1e-12 * h[0]
    # period 2*pi for L = C = 1
    assert traj.states[int(round(np.pi / 0.01)), 0] == pytest.approx(-1.0,
                                                                     abs=1e-3)


def test_input_stack_components():
    nl = parse_netlist(
        "FW1 0 1 stranded coil\n"
        "I1 1 0 DC 2\n"
        "V1 1 0 SIN 0 5 100\n")
    inc = build_incidence(nl)
    stack = input_stack(nl, inc)
    assert isinstance(stack.components[0], Constant)     # field port slot
    assert stack.components[0](0.3) == 0.0
    assert stack.components[1](12.0) == 2.0
    assert isinstance(stack.components[2], Sinusoid)
    assert stack.components[2](0.0) == 0.0
    assert stack.components[2](1.0 / 400.0) == pytest.approx(5.0)


def test_kirchhoff_rows_vanish_along_trajectory():
    # the node-potential residual rows are the current balance at each node;
    # the midpoint stage equations enforce them at every step
    text = "V1 1 0 SIN 0 1 50\nR1 1 2 10\nC1 2 0 1e-3\nL1 2 0 0.5\n"
    nl = parse_netlist(text)
    inc = build_incidence(nl)
    sys_m = mna_system(inc)
    u = input_stack(nl, inc)
    from fieldcircuit._audit import energy_audit
    from fieldcircuit.integrators import consistent_init
    from fieldcircuit.structure import dae_residual
    z0 = consistent_init(sys_m, np.zeros(sys_m.partition.n), u)
    tau = 1e-4
    traj = simulate(sys_m, z0, u, tau, 0.05, "midpoint")
    n_phi = len(nl.nodes)
    for k in range(traj.states.shape[0] - 1):
        z_mid = 0.5 * (traj.states[k] + traj.states[k + 1])
        zdot = (traj.states[k + 1] - traj.states[k]) / tau
        res = dae_residual(sys_m, z_mid, zdot, u(traj.times[k] + tau / 2.0))
        assert np.max(np.abs(res[:n_phi])) <= 1e-9
    audit = energy_audit(sys_m, traj)
    h_scale = max(np.max(np.abs(traj.hamiltonians)), 1e-300)
    assert audit.max_abs_defect <= 1e-9 * h_scale
