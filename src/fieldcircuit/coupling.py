"""Field-circuit coupling: route conductor ports into circuit branches.

Every bound pair contributes a +1 entry at [circuit port, conductor port] and
a -1 entry at the transposed position of the interconnection matrix; the
symmetric part is zero, so the coupling is lossless by construction.  The
coupled state is ordered: conductor field blocks (binding order), circuit
dynamic states, conductor algebraic states, circuit source currents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fieldcircuit import conductors as cond_mod
from fieldcircuit.interconnect import InterconnectionSpec, interconnect
from fieldcircuit.mna import IncidenceSet, Netlist, input_stack
from fieldcircuit.structure import EnergySystem, StructureError
from fieldcircuit.waveforms import Constant, WaveformStack

_KIND_OF_MODEL = {
    cond_mod.StrandedModel: "stranded",
    cond_mod.SolidModel: "solid",
    cond_mod.FoilModel: "foil",
}


@dataclass(frozen=True)
class BoundPort:
    name: str
    kind: str
    circuit_index: int
    conductor: int
    column: int


@dataclass(frozen=True)
class PortBinding:
    """Which circuit input/output slot each conductor port occupies."""

    ports: tuple
    conductor_port_counts: tuple

    def __post_init__(self):
        seen_names = set()
        seen_slots = set()
        offsets = np.concatenate([[0], np.cumsum(self.conductor_port_counts)])
        for port in self.ports:
            if port.name in seen_names:
                raise StructureError(f"field port {port.name!r} bound twice")
            seen_names.add(port.name)
            if not (0 <= port.conductor < len(self.conductor_port_counts)):
                raise StructureError(
                    f"field port {port.name!r} references conductor "
                    f"{port.conductor}, but only "
                    f"{len(self.conductor_port_counts)} are given")
            if not (0 <= port.column < self.conductor_port_counts[port.conductor]):
                raise StructureError(
                    f"field port {port.name!r} uses column {port.column} of a "
                    f"conductor with "
                    f"{self.conductor_port_counts[port.conductor]} ports")
            slot = (port.conductor, port.column)
            if slot in seen_slots:
                raise StructureError(
                    f"conductor port {slot} bound to more than one circuit branch")
            seen_slots.add(slot)
        object.__setattr__(self, "_offsets", offsets)

    def conductor_port_index(self, port: BoundPort) -> int:
        return int(self._offsets[port.conductor]) + port.column


def couple(circuit: EnergySystem, conductor_systems, binding: PortBinding) -> EnergySystem:
    """Interconnect the conductor systems with the circuit.

    Conductor inputs (v_str, i_sol, v_foil) are fed from circuit outputs and
    vice versa; external sources stay available through the circuit's
    remaining input slots (bound slots expect zero external input).
    """
    conductor_systems = list(conductor_systems)
    if len(binding.conductor_port_counts) != len(conductor_systems):
        raise StructureError("binding does not match the conductor list")
    for k, sysk in enumerate(conductor_systems):
        if sysk.partition.m != binding.conductor_port_counts[k]:
            raise StructureError(
                f"conductor {k} exposes {sysk.partition.m} ports, binding "
                f"expects {binding.conductor_port_counts[k]}")
    if not conductor_systems:
        return circuit

    acc = conductor_systems[0]
    for sysk in conductor_systems[1:]:
        m_a, m_b = acc.partition.m, sysk.partition.m
        zero = np.zeros((m_a + m_b, m_a + m_b))
        acc = interconnect(acc, sysk, InterconnectionSpec(zero, zero, m_a + m_b))

    m_cond = acc.partition.m
    m_circ = circuit.partition.m
    m = m_cond + m_circ
    f_skew = np.zeros((m, m))
    for port in binding.ports:
        q = binding.conductor_port_index(port)
        p = m_cond + port.circuit_index
        if not (0 <= port.circuit_index < m_circ):
            raise StructureError(
                f"field port {port.name!r} addresses circuit slot "
                f"{port.circuit_index} of {m_circ}")
        f_skew[p, q] = 1.0
        f_skew[q, p] = -1.0
    spec = InterconnectionSpec(f_skew, np.zeros((m, m)), m)
    return interconnect(acc, circuit, spec)


def bind_circuit(inc: IncidenceSet, models: dict):
    """Resolve the incidence set's field ports against conductor models.

    models maps model_ref -> StrandedModel/SolidModel/FoilModel.  Each
    distinct reference instantiates one conductor system (shared by all of
    its bound columns).  Returns (conductor models in binding order,
    conductor systems, PortBinding).
    """
    order = []
    errors = []
    for port in inc.field_ports:
        model = models.get(port.model_ref)
        if model is None:
            errors.append(f"field port {port.name!r}: no model named "
                          f"{port.model_ref!r} supplied")
            continue
        kind = _KIND_OF_MODEL.get(type(model))
        if kind != port.kind:
            errors.append(f"field port {port.name!r} expects a {port.kind} "
                          f"model, {port.model_ref!r} is {kind}")
        if port.model_ref not in order:
            order.append(port.model_ref)
    if errors:
        raise StructureError("; ".join(errors))

    systems = [cond_mod.system_for(models[ref]) for ref in order]
    counts = tuple(s.partition.m for s in systems)
    ports = tuple(
        BoundPort(p.name, p.kind, p.u_index, order.index(p.model_ref), p.column)
        for p in inc.field_ports)
    binding = PortBinding(ports, counts)
    ordered_models = [models[ref] for ref in order]
    return ordered_models, systems, binding


def coupled_input_stack(binding: PortBinding, nl: Netlist,
                        inc: IncidenceSet) -> WaveformStack:
    """External input for the coupled system: zeros on every conductor port,
    the circuit's source waveforms after them."""
    n_cond = int(sum(binding.conductor_port_counts))
    circuit_u = input_stack(nl, inc)
    return WaveformStack(tuple([Constant(0.0)] * n_cond)
                         + circuit_u.components)


# ---------------------------------------------------------------------------
# layout bookkeeping and identity verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingLayout:
    """Index maps from the coupled state vector back to the parts."""

    field_slices: tuple      # z1 range per conductor
    algebraic_slices: tuple  # conductor z3 range per conductor
    circuit_z2: slice
    circuit_z3: slice
    n: int

    @staticmethod
    def build(circuit: EnergySystem, conductor_systems) -> "CouplingLayout":
        n1s = [s.partition.n1 for s in conductor_systems]
        n3s = [s.partition.n3 for s in conductor_systems]
        n2c = circuit.partition.n2
        n3c = circuit.partition.n3
        field, alg = [], []
        off = 0
        for n1 in n1s:
            field.append(slice(off, off + n1))
            off += n1
        z2 = slice(off, off + n2c)
        off += n2c
        for n3 in n3s:
            alg.append(slice(off, off + n3))
            off += n3
        z3 = slice(off, off + n3c)
        off += n3c
        return CouplingLayout(tuple(field), tuple(alg), z2, z3, off)
