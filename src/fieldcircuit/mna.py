"""Netlist parsing and modified nodal analysis.

Grammar: one card per line, the first character of the name selects the type
(R/L/C/V/I/F), `#` starts a comment.  Values accept the SI suffixes p n u m k
M G (case-sensitive).  Sources carry `DC <v>` or `SIN <offset> <amplitude>
<freq_hz> [phase_rad]` waveforms.  Directives: `.tran <tau> <tend>` and
`.method <tag>`.  Field ports (F cards) declare where a conductor model
attaches: `F<name> <n+> <n-> <kind> <model_ref> [<column>]`, with <kind> a
name of `conductors.KINDS`, whose entry also gives the circuit slot of the
port.

Parsing is total: every problem is collected with its line and column and
reported at once through NetlistError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dfield

import numpy as np
import scipy.sparse as sp

from fieldcircuit.conductors import KINDS
from fieldcircuit._stepping import method_from_tag
from fieldcircuit.structure import (EnergySystem, Partition, csr_entries,
                                   csr_from_entries, row_blocks)
from fieldcircuit.waveforms import Constant, Sinusoid, WaveformStack


class NetlistError(ValueError):
    """All parse/structure diagnostics for a netlist, line-accurate."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


_SUFFIX = {"p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3,
           "k": 1e3, "M": 1e6, "G": 1e9}
_NUMBER_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                        r"([pnumkMG]?)$")

GROUND = "0"


def parse_value(token: str):
    """SI value with optional case-sensitive suffix; None when malformed."""
    match = _NUMBER_RE.match(token)
    if not match:
        return None
    return float(match.group(1)) * _SUFFIX.get(match.group(2), 1.0)


def format_value(value: float) -> str:
    return repr(float(value))


@dataclass(frozen=True)
class Card:
    kind: str
    name: str
    n_plus: str
    n_minus: str
    value: float = None
    waveform: tuple = None
    field_kind: str = None
    model_ref: str = None
    column: int = 0
    line: int = dfield(default=0, compare=False)


@dataclass(frozen=True)
class Netlist:
    cards: tuple
    tau: float = None
    t_end: float = None
    method: str = None

    @property
    def nodes(self):
        """Non-ground nodes in first-appearance order (the keys of a dict
        keep their insertion order)."""
        seen = dict.fromkeys(node for card in self.cards
                             for node in (card.n_plus, card.n_minus))
        seen.pop(GROUND, None)
        return tuple(seen)


def _token_columns(raw_line: str):
    cols = []
    for match in re.finditer(r"\S+", raw_line):
        cols.append(match.start() + 1)
    return cols


def parse_netlist(text: str, origin: str = "<netlist>") -> Netlist:
    errors = []
    cards = []
    names = {}
    tau = t_end = method = None
    tran_line = method_line = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.lstrip().startswith("*"):   # whole-line comment
            continue
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()
        cols = _token_columns(line)

        def err(msg, tok_idx=0):
            col = cols[tok_idx] if tok_idx < len(cols) else len(line) + 1
            errors.append(f"{origin}:{lineno}:{col}: {msg}")

        head = tokens[0]
        if head.startswith("."):
            if head == ".tran":
                if tran_line is not None:
                    err(f"duplicate .tran directive (first at line {tran_line})")
                    continue
                tran_line = lineno
                if len(tokens) != 3:
                    err(".tran needs exactly two values: <tau> <tend>")
                    continue
                vals = [parse_value(t) for t in tokens[1:]]
                bad = next((i for i, v in enumerate(vals) if v is None), None)
                if bad is not None:
                    err(f"malformed number {tokens[1 + bad]!r}", 1 + bad)
                    continue
                if vals[0] <= 0 or vals[1] <= 0:
                    err(".tran values must be positive", 1)
                    continue
                tau, t_end = vals
            elif head == ".method":
                if method_line is not None:
                    err(f"duplicate .method directive (first at line {method_line})")
                    continue
                method_line = lineno
                if len(tokens) != 2:
                    err(".method needs exactly one tag")
                    continue
                try:
                    method = method_from_tag(tokens[1]).tag
                except ValueError as exc:
                    err(str(exc), 1)
            else:
                err(f"unknown directive {head!r}")
            continue

        kind = head[0].upper()
        if kind not in "RLCVIF":
            err(f"unknown card {head[0]!r}")
            continue
        if len(head) < 2:
            err(f"card needs a name after the type letter, got {head!r}")
            continue
        if head in names:
            err(f"duplicate element name {head!r} (first at line {names[head]})")
            continue
        names[head] = lineno
        if len(tokens) < 3:
            err("card needs two node names")
            continue
        n_plus, n_minus = tokens[1], tokens[2]
        if n_plus == n_minus:
            err(f"element {head!r} connects node {n_plus!r} to itself", 1)
            continue
        body = tokens[3:]

        if kind in "RLC":
            if len(body) != 1:
                err(f"{head!r} needs exactly one value", 3 if body else 2)
                continue
            value = parse_value(body[0])
            if value is None:
                err(f"malformed number {body[0]!r}", 3)
                continue
            if value <= 0.0:
                err(f"{head!r} value must be positive, got {body[0]}", 3)
                continue
            cards.append(Card(kind, head, n_plus, n_minus, value=value,
                              line=lineno))
        elif kind in "VI":
            wf, wf_err = _parse_waveform(body)
            if wf is None:
                err(wf_err, 3)
                continue
            cards.append(Card(kind, head, n_plus, n_minus, waveform=wf,
                              line=lineno))
        else:
            if len(body) not in (2, 3):
                err(f"{head!r} needs <kind> <model_ref> [<column>]",
                    3 if body else 2)
                continue
            if body[0] not in KINDS:
                err(f"unknown field-port kind {body[0]!r} "
                    f"(expected one of {', '.join(KINDS)})", 3)
                continue
            column = 0
            if len(body) == 3:
                try:
                    column = int(body[2])
                except ValueError:
                    err(f"malformed column index {body[2]!r}", 5)
                    continue
                if column < 0:
                    err("column index must be non-negative", 5)
                    continue
            cards.append(Card("F", head, n_plus, n_minus, field_kind=body[0],
                              model_ref=body[1], column=column, line=lineno))

    if not errors:
        touches_ground = any(GROUND in (c.n_plus, c.n_minus) for c in cards)
        if not cards:
            errors.append(f"{origin}:1:1: netlist defines no elements")
        elif not touches_ground:
            errors.append(f"{origin}:1:1: no element references the ground "
                          f"node '{GROUND}'")
    if errors:
        raise NetlistError(errors)
    return Netlist(tuple(cards), tau, t_end, method)


def _parse_waveform(body):
    if not body:
        return None, "source needs a waveform: DC <v> or SIN <o> <a> <f> [<ph>]"
    tag = body[0]
    if tag == "DC":
        if len(body) != 2:
            return None, "DC waveform needs exactly one value"
        v = parse_value(body[1])
        if v is None:
            return None, f"malformed number {body[1]!r}"
        return ("DC", v), None
    if tag == "SIN":
        if len(body) not in (4, 5):
            return None, "SIN waveform needs <offset> <amplitude> <freq_hz> [<phase_rad>]"
        vals = [parse_value(t) for t in body[1:]]
        for tok, v in zip(body[1:], vals):
            if v is None:
                return None, f"malformed number {tok!r}"
        if len(vals) == 3:
            vals.append(0.0)
        return ("SIN", *vals), None
    return None, f"unknown waveform {tag!r} (expected DC or SIN)"


def print_netlist(nl: Netlist) -> str:
    """Canonical text form; parse(print_netlist(parse(text))) == parse(text)."""
    lines = []
    for card in nl.cards:
        if card.kind in "RLC":
            lines.append(f"{card.name} {card.n_plus} {card.n_minus} "
                         f"{format_value(card.value)}")
        elif card.kind in "VI":
            body = " ".join([card.waveform[0],
                             *(format_value(v) for v in card.waveform[1:])])
            lines.append(f"{card.name} {card.n_plus} {card.n_minus} {body}")
        else:
            lines.append(f"{card.name} {card.n_plus} {card.n_minus} "
                         f"{card.field_kind} {card.model_ref} {card.column}")
    if nl.tau is not None:
        lines.append(f".tran {format_value(nl.tau)} {format_value(nl.t_end)}")
    if nl.method is not None:
        lines.append(f".method {nl.method}")
    return "\n".join(lines) + "\n"


def read_netlist(path: str) -> Netlist:
    with open(path, encoding="utf-8") as fh:
        return parse_netlist(fh.read(), origin=path)


# ---------------------------------------------------------------------------
# incidence construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldPort:
    """A circuit branch that a conductor model occupies.

    u_index points into the circuit input stack u = [currents; voltages];
    the `slot` of the port's kind in `conductors.KINDS` says which block.
    """

    name: str
    kind: str
    model_ref: str
    column: int
    u_index: int


@dataclass(frozen=True)
class IncidenceSet:
    node_order: tuple
    a_c: object
    a_r: object
    a_l: object
    a_v: object
    a_i: object
    c_diag: np.ndarray
    g_diag: np.ndarray
    l_diag: np.ndarray
    i_branch_names: tuple
    v_branch_names: tuple
    l_branch_names: tuple
    field_ports: tuple

    @property
    def n_phi(self) -> int:
        return len(self.node_order)


def _incidence(node_index: dict, cards, n: int):
    """Signed incidence of `cards`, one column each: +1 in the row of n+,
    −1 in the row of n−, no row for ground."""
    ends = np.array([[node_index.get(c.n_plus, -1),
                      node_index.get(c.n_minus, -1)] for c in cards],
                    dtype=np.int64).reshape(-1, 2)
    rows = ends.ravel()
    keep = rows >= 0
    return csr_from_entries([(rows[keep],
                              np.repeat(np.arange(len(cards)), 2)[keep],
                              np.tile([1.0, -1.0], len(cards))[keep])],
                            (n, len(cards)))


def build_incidence(nl: Netlist) -> IncidenceSet:
    """Signed incidence per element group, ground row eliminated.

    Each field port takes a branch of the source block named by the `slot`
    of its kind in `conductors.KINDS`: the current-source block is [field
    ports of slot "I", I sources], the voltage-source block is [field ports
    of slot "V", V sources], field ports grouped by kind in `KINDS` order.
    Raises NetlistError naming any node with no path to ground.
    """
    nodes = nl.nodes
    node_index = {nm: k for k, nm in enumerate(nodes)}
    n = len(nodes)

    # one row per node and row n for ground, one column per card
    ends = np.array([node_index.get(node, n) for card in nl.cards
                     for node in (card.n_plus, card.n_minus)], dtype=np.intp)
    blocks = row_blocks(ends, np.arange(ends.size) // 2, n + 1, len(nl.cards))
    floating = [nm for nm, block in zip(nodes, blocks) if block != blocks[n]]
    if floating:
        raise NetlistError(
            [f"node {nm!r} has no path to ground" for nm in floating])

    groups = {"C": [], "R": [], "L": [], "V": [], "I": [], "F": []}
    for card in nl.cards:
        groups[card.kind].append(card)
    ports = {"I": [], "V": []}
    for name, kind in KINDS.items():
        ports[kind.slot] += [c for c in groups["F"] if c.field_kind == name]

    i_cards = ports["I"] + groups["I"]
    v_cards = ports["V"] + groups["V"]
    field_ports = tuple(FieldPort(card.name, card.field_kind, card.model_ref,
                                  card.column, idx)
                        for idx, card in enumerate(i_cards + v_cards)
                        if card.kind == "F")

    return IncidenceSet(
        node_order=nodes,
        a_c=_incidence(node_index, groups["C"], n),
        a_r=_incidence(node_index, groups["R"], n),
        a_l=_incidence(node_index, groups["L"], n),
        a_v=_incidence(node_index, v_cards, n),
        a_i=_incidence(node_index, i_cards, n),
        c_diag=np.array([c.value for c in groups["C"]], dtype=np.float64),
        g_diag=1.0 / np.array([c.value for c in groups["R"]], dtype=np.float64),
        l_diag=np.array([c.value for c in groups["L"]], dtype=np.float64),
        i_branch_names=tuple(c.name for c in i_cards),
        v_branch_names=tuple(c.name for c in v_cards),
        l_branch_names=tuple(c.name for c in groups["L"]),
        field_ports=field_ports,
    )


# ---------------------------------------------------------------------------
# the MNA energy-based system
# ---------------------------------------------------------------------------

def _nodal_entries(a, weights: np.ndarray):
    """(rows, columns, values) of A diag(w) Aᵀ for an incidence A, one
    entry per position.  Each entry sums its branches' ±w in descending
    branch order, the order in which the sparse product (A diag(w)) Aᵀ
    adds them, and a zero sum is left out as the product leaves it out."""
    nodes, branch, sign = csr_entries(a)
    order = np.argsort(-branch, kind="stable")
    nodes, branch, sign = nodes[order], branch[order], sign[order]
    # both ends of a two-terminal branch are adjacent in this order
    pair = np.flatnonzero(branch[1:] == branch[:-1])
    first = np.concatenate((np.arange(nodes.size), pair, pair + 1))
    second = np.concatenate((np.arange(nodes.size), pair + 1, pair))
    by_branch = np.argsort(-branch[first], kind="stable")
    first, second = first[by_branch], second[by_branch]
    n = a.shape[0]
    keys, slot = np.unique(nodes[first] * n + nodes[second],
                           return_inverse=True)
    sums = np.bincount(slot, weights=sign[first] * weights[branch[first]]
                       * sign[second], minlength=keys.size)
    stored = sums != 0.0
    return keys[stored] // n, keys[stored] % n, sums[stored]


def mna_system(inc: IncidenceSet) -> EnergySystem:
    """Energy-based DAE of the circuit: z2 = [phi; j_L], z3 = j_V,
    u = [currents; voltages], y = (−A_Iᵀ phi, −j_V).

    Every block is stamped from the incidences of `build_incidence` in one
    construction: E = diag(A_C diag(C) A_Cᵀ, diag(L)), R = diag(A_R diag(G)
    A_Rᵀ, 0), J with −A_L, −A_V in the node rows and A_Lᵀ, A_Vᵀ in the branch
    rows, B = −[A_I, 0; 0, 0; 0, I]."""
    n_phi = inc.n_phi
    b_l = inc.l_diag.size
    b_v = inc.a_v.shape[1]
    b_i = inc.a_i.shape[1]
    n2 = n_phi + b_l
    n = n2 + b_v

    l_idx = n_phi + np.arange(b_l)
    e_mat = csr_from_entries([_nodal_entries(inc.a_c, inc.c_diag),
                              (l_idx, l_idx, inc.l_diag)], (n2, n2))
    r = csr_from_entries([_nodal_entries(inc.a_r, inc.g_diag)], (n, n))
    l_node, l_br, l_sign = csr_entries(inc.a_l)
    v_node, v_br, v_sign = csr_entries(inc.a_v)
    j = csr_from_entries([(l_node, n_phi + l_br, -l_sign),
                          (n_phi + l_br, l_node, l_sign),
                          (v_node, n2 + v_br, -v_sign),
                          (n2 + v_br, v_node, v_sign)], (n, n))
    i_node, i_br, i_sign = csr_entries(inc.a_i)
    v_idx = np.arange(b_v)
    b = csr_from_entries([(i_node, i_br, -i_sign),
                          (n2 + v_idx, b_i + v_idx, np.full(b_v, -1.0))],
                         (n, b_i + b_v))

    labels = (tuple(f"phi_{nm}" for nm in inc.node_order)
              + tuple(f"jL_{nm}" for nm in inc.l_branch_names)
              + tuple(f"jV_{nm}" for nm in inc.v_branch_names))
    out_labels = (tuple(f"yi_{nm}" for nm in inc.i_branch_names)
                  + tuple(f"yv_{nm}" for nm in inc.v_branch_names))
    return EnergySystem(Partition(0, n2, b_v, b_i + b_v),
                        E=e_mat, J=j, R=r, B=b,
                        M1=sp.csr_array((0, 0)), M2=e_mat,
                        S=sp.identity(n2, format="csr"),
                        state_labels=labels, output_labels=out_labels)


def input_stack(nl: Netlist, inc: IncidenceSet) -> WaveformStack:
    """Source waveforms in u-order; field-port slots are zero (driven through
    the coupling, not externally)."""
    by_name = {c.name: c for c in nl.cards}
    comps = []
    for name in (*inc.i_branch_names, *inc.v_branch_names):
        card = by_name[name]
        if card.kind == "F":
            comps.append(Constant(0.0))
        else:
            comps.append(_waveform_component(card.waveform))
    return WaveformStack(tuple(comps))


def _waveform_component(wf: tuple):
    if wf[0] == "DC":
        return Constant(wf[1])
    offset, amplitude, freq, phase = wf[1:]
    return Sinusoid(offset, amplitude, freq, phase)
