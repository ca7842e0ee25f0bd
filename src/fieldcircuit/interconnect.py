"""Power-preserving interconnection of energy-based systems.

Coupling any number of systems through u = (F_skew − F_sym) y + ũ, with y
and u the stacked outputs and inputs of all of them, closes the loop without
destroying the structure: the coupled system keeps a skew J and a PSD R, its
Hamiltonian is the sum of the parts, and the residual input ũ keeps the full
port dimension of every subsystem.  `partition_slices` is the one place that
orders the coupled state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from fieldcircuit.structure import (
    EnergySystem,
    Partition,
    StructureError,
    as_block,
    fro_norm,
    max_abs,
    min_sym_eig,
)

_TOL_SPEC = 1e-10


@dataclass(frozen=True)
class InterconnectionSpec:
    """Coupling matrices acting on the stacked outputs of the subsystems,
    held as float64 CSR arrays like the blocks of an EnergySystem."""

    F_skew: object
    F_sym: object
    residual_input_dim: int

    def __post_init__(self):
        m = self.residual_input_dim
        object.__setattr__(self, "F_skew",
                           as_block(self.F_skew, (m, m), "F_skew"))
        object.__setattr__(self, "F_sym",
                           as_block(self.F_sym, (m, m), "F_sym"))


def partition_slices(partitions) -> list:
    """Each system's (z1, z2, z3) slices of the coupled state, whose order
    [z1_1; …; z1_k; z2_1; …; z2_k; z3_1; …; z3_k] is defined here alone."""
    partitions = list(partitions)
    slices = [[] for _ in partitions]
    off = 0
    for block in ("n1", "n2", "n3"):
        for own, p in zip(slices, partitions):
            size = getattr(p, block)
            own.append(slice(off, off + size))
            off += size
    return [tuple(own) for own in slices]


def permute_to_partition_order(*partitions) -> np.ndarray:
    """Gather permutation from concatenated states [z_1; …; z_k] to the
    coupled order of `partition_slices`: z_coupled = z_concat[perm]."""
    where = np.concatenate([np.arange(s.start, s.stop, dtype=np.intp)
                            for own in partition_slices(partitions)
                            for s in own])
    return np.argsort(where)


def interconnect(systems, spec: InterconnectionSpec) -> EnergySystem:
    """Close the loop between any number of systems in one step; returns the
    coupled EnergySystem.

    The coupled partition is the componentwise sum, the state order is that
    of `partition_slices`, and the coupled input is the residual input ũ of
    full dimension m_1 + … + m_k.  J and R are ⊕J_i + B F_skew Bᵀ and
    ⊕R_i + B F_sym Bᵀ with B = ⊕B_i.
    """
    systems = list(systems)
    parts = [s.partition for s in systems]
    m = sum(p.m for p in parts)
    if spec.residual_input_dim != m:
        raise StructureError(
            f"interconnection spec sized for {spec.residual_input_dim} ports, "
            f"subsystems expose {m}")

    f_skew, f_sym = spec.F_skew, spec.F_sym
    skew_defect = max_abs(f_skew + f_skew.T)
    if skew_defect > _TOL_SPEC * max(fro_norm(f_skew), 1.0):
        raise StructureError(f"F_skew is not skew-symmetric, defect {skew_defect:.3e}")
    sym_defect = max_abs(f_sym - f_sym.T)
    if sym_defect > _TOL_SPEC * max(fro_norm(f_sym), 1.0):
        raise StructureError(f"F_sym is not symmetric, defect {sym_defect:.3e}")
    min_eig = min_sym_eig(f_sym)
    if min_eig < -_TOL_SPEC * max(fro_norm(f_sym), 1.0):
        raise StructureError(f"F_sym is not PSD, min eigenvalue {min_eig:.3e}")

    def block(name):
        return sp.block_diag([getattr(s, name) for s in systems], format="csr")

    perm = permute_to_partition_order(*parts)
    b_cat = block("B")
    j_cat = block("J") + b_cat @ f_skew @ b_cat.T
    r_cat = block("R") + b_cat @ f_sym @ b_cat.T

    labels = None
    if any(s.state_labels is not None for s in systems):
        cat = [lab for s in systems for lab in s.default_state_labels()]
        labels = tuple(cat[i] for i in perm)
    out_labels = None
    if any(s.output_labels is not None for s in systems):
        out_labels = tuple(lab for s in systems
                           for lab in s.default_output_labels())

    part = Partition(sum(p.n1 for p in parts), sum(p.n2 for p in parts),
                     sum(p.n3 for p in parts), m)
    return EnergySystem(
        partition=part,
        E=block("E"),
        J=j_cat[perm][:, perm],
        R=r_cat[perm][:, perm],
        B=b_cat[perm],
        M1=block("M1"),
        M2=block("M2"),
        S=block("S"),
        state_labels=labels,
        output_labels=out_labels,
    )
