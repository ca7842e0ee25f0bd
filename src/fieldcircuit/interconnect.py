"""Power-preserving interconnection of two energy-based systems.

Coupling two systems through u = (F_skew − F_sym) y + ũ closes the loop
without destroying the structure: the coupled system keeps a skew J and a PSD
R, its Hamiltonian is the sum of the parts, and the residual input ũ keeps
the full port dimension of both subsystems.
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
    """Coupling matrices acting on the stacked outputs of two subsystems,
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


def permute_to_partition_order(p_a: Partition, p_b: Partition) -> np.ndarray:
    """Gather permutation from concatenated states [z_A; z_B] to interleaved order.

    The coupled system orders states as [z1A; z1B; z2A; z2B; z3A; z3B]; the
    returned index array perm satisfies z_interleaved = z_concat[perm].
    """
    off_b = p_a.n
    ranges = [
        np.arange(0, p_a.n1),
        off_b + np.arange(0, p_b.n1),
        p_a.n1 + np.arange(0, p_a.n2),
        off_b + p_b.n1 + np.arange(0, p_b.n2),
        p_a.n1 + p_a.n2 + np.arange(0, p_a.n3),
        off_b + p_b.n1 + p_b.n2 + np.arange(0, p_b.n3),
    ]
    return np.concatenate(ranges).astype(np.intp)


def _block_diag(a, b):
    return sp.block_diag([a, b], format="csr")


def interconnect(sys_a: EnergySystem, sys_b: EnergySystem,
                 spec: InterconnectionSpec) -> EnergySystem:
    """Close the loop between two systems; returns the coupled EnergySystem.

    The coupled partition is the componentwise sum, state ordering is the
    interleaved one of permute_to_partition_order, and the coupled input is
    the residual input ũ of full dimension m_A + m_B.
    """
    p_a, p_b = sys_a.partition, sys_b.partition
    m = p_a.m + p_b.m
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

    perm = permute_to_partition_order(p_a, p_b)
    b_cat = _block_diag(sys_a.B, sys_b.B)
    j_cat = _block_diag(sys_a.J, sys_b.J) + b_cat @ f_skew @ b_cat.T
    r_cat = _block_diag(sys_a.R, sys_b.R) + b_cat @ f_sym @ b_cat.T

    labels = None
    if sys_a.state_labels is not None or sys_b.state_labels is not None:
        cat = list(sys_a.default_state_labels()) + list(sys_b.default_state_labels())
        labels = tuple(cat[i] for i in perm)
    out_labels = None
    if sys_a.output_labels is not None or sys_b.output_labels is not None:
        out_labels = tuple(sys_a.default_output_labels()
                           + sys_b.default_output_labels())

    part = Partition(p_a.n1 + p_b.n1, p_a.n2 + p_b.n2, p_a.n3 + p_b.n3, m)
    return EnergySystem(
        partition=part,
        E=_block_diag(sys_a.E, sys_b.E),
        J=j_cat[perm][:, perm],
        R=r_cat[perm][:, perm],
        B=b_cat[perm],
        M1=_block_diag(sys_a.M1, sys_b.M1),
        M2=_block_diag(sys_a.M2, sys_b.M2),
        S=_block_diag(sys_a.S, sys_b.S),
        state_labels=labels,
        output_labels=out_labels,
    )
