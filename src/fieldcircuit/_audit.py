"""The audit layer: the discrete energy bookkeeping of a run, from its
states or from the coordinates of the condensed path, and the measures
read from a finished trajectory."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from fieldcircuit.structure import (EnergySystem, StructureError, block_rows,
                                   hamiltonian, row_dots)


def energy_bookkeeping(sys: EnergySystem, states: np.ndarray, tau: float,
                       endpoint: bool):
    """Port outputs y, dissipated power wᵀRw and Hamiltonian of the steps
    between consecutive rows of a span of full states: one row each per
    step, H of the state the step ends in.  `simulate` integrates τ wᵀRw
    and τ⟨y, u_k⟩ over the spans.

    The discrete flow is w = [(z1⁺−z1)/τ; S z2*; z3*] and y = Bᵀw.  For
    implicit Euler (`endpoint`) z* is the endpoint z⁺ and u_k = u(t+τ), the
    flow and input the scheme used, so each step satisfies
    ΔH − τ⟨y, u_k⟩ + τ wᵀRw = −½(Δz1ᵀM1Δz1 + Δz2ᵀM2Δz2) exactly.  Otherwise
    z* is the step midpoint and u_k is the endpoint average
    (u(t) + u(t+τ))/2 for trapezoidal and u(t + τ/2) for the rest; that is
    the input the scheme used for trapezoidal and midpoint, whose balance
    is therefore exact, but not for BDF2 (u(t+τ)) or Gauss-4 and Radau IIA
    (their stage values u(t + c_i τ)).

    Only what B and R read is formed: z* on the z2 and z3 columns, and w
    on the columns `cols` where B or R store entries (none of the z1
    columns of a lossless field model but the coupling's).  y takes the
    rows `cols` of B, and wᵀRw the rows and columns `cols` of R; each
    product sums the same terms in the same order as with the full-width
    flow, whose other columns B and R never read.  The products w_i (Rw)_i
    go into a row of length n that is zero outside `cols`, so numpy's
    pairwise sum adds them in the order the full-width row did; on finite
    states the dissipation is the full-width one bit for bit, except that
    a sum of exactly zero reads +0.0, and it is exactly 0 when R stores no
    entries.  Steps are taken in blocks of `block_rows` states, so no
    temporary grows with the span; every step's arithmetic is the same
    whatever block it falls in.
    """
    p = sys.partition
    n1 = p.n1
    cols, b_cols, r_cols = _read_columns(sys)
    d1, d23 = cols[cols < n1], cols[cols >= n1] - n1
    n_steps = len(states) - 1
    y = np.empty((n_steps, p.m))
    dissipated = np.zeros(n_steps)
    h = np.empty(n_steps)
    rows = block_rows(p.n)
    # the products w_i (Rw)_i of a block, zero outside `cols`; none without R
    prod = np.zeros((min(rows, n_steps), p.n)) if sys.R.indptr[-1] else None
    for k in range(0, n_steps, rows):
        blk = states[k : k + rows + 1]
        tail = blk[:, n1:]
        z_at = tail[1:] if endpoint else 0.5 * (tail[:-1] + tail[1:])
        w23 = np.hstack([(sys.S @ z_at[:, : p.n2].T).T, z_at[:, p.n2 :]])
        w = np.hstack([(blk[1:, d1] - blk[:-1, d1]) / tau, w23[:, d23]])
        y[k : k + rows] = (b_cols.T @ w.T).T
        if prod is not None:
            terms = prod[: len(w)]
            terms[:, cols] = w * (r_cols @ w.T).T
            dissipated[k : k + rows] = terms.sum(axis=1)
        h[k : k + rows] = hamiltonian(sys, blk[1:])
    return y, dissipated, h


def _read_columns(sys: EnergySystem):
    """The columns `cols` of the flow w where B or R store entries, and B
    and R on the rows `cols` (the rows left out store nothing), R's columns
    renumbered to positions in `cols`."""
    b_ptr, r_ptr = sys.B.indptr, sys.R.indptr
    used = (np.diff(b_ptr) > 0) | (np.diff(r_ptr) > 0)
    used[sys.R.indices[: r_ptr[-1]]] = True
    cols = np.flatnonzero(used)
    at = np.concatenate(([0], cols + 1))
    b_cols = sp.csr_array((sys.B.data, sys.B.indices, b_ptr[at]),
                          shape=(cols.size, sys.m))
    r_cols = sp.csr_array((sys.R.data[: r_ptr[-1]], np.searchsorted(
        cols, sys.R.indices[: r_ptr[-1]]), r_ptr[at]),
        shape=(cols.size, cols.size))
    return cols, b_cols, r_cols


def condensed_audit(sys: EnergySystem, basis: np.ndarray, xi: np.ndarray,
                    tau: float, endpoint: bool):
    """Port outputs, dissipated powers and H of the steps between the rows
    of ξ, as `energy_bookkeeping` gives them for the states Φ ξ, without
    forming a state: H = ½ ξᵀ (Φ1ᵀ M1 Φ1 + Φ2ᵀ M2 Φ2) ξ, and the flow
    w = F ζ with F = [Φ1/τ 0; 0 S Φ2; 0 Φ3] and ζ = [ξ⁺ − ξ; ξ*] (ξ* the
    endpoint for implicit Euler, the midpoint otherwise) is formed on the
    columns B and R read (`_read_columns`) for y = Bᵀw and wᵀRw.  A form
    Fᵀ R F would cancel digits: on random index-1 draws its wᵀRw is off
    by 1e-11 where w formed first is off by 1e-14."""
    p = sys.partition
    n1, n12, q = p.n1, p.n1 + p.n2, basis.shape[1]
    b1, b2 = basis[:n1], basis[n1:n12]
    h_form = b1.T @ (sys.M1 @ b1) + b2.T @ (sys.M2 @ b2)
    flow = np.zeros((p.n, 2 * q))
    flow[:n1, :q] = b1 / tau
    flow[n1:n12, q:] = sys.S @ b2
    flow[n12:, q:] = basis[n12:]
    cols, b_cols, r_cols = _read_columns(sys)
    zeta = np.hstack((np.diff(xi, axis=0),
                      xi[1:] if endpoint else 0.5 * (xi[:-1] + xi[1:])))
    w = zeta @ flow[cols].T
    y = (b_cols.T @ w.T).T
    dissipated = (row_dots(w, (r_cols @ w.T).T) if sys.R.nnz
                  else np.zeros(len(zeta)))
    h = 0.5 * row_dots(xi[1:], xi[1:] @ h_form)
    return y, dissipated, h


@dataclass
class AuditTable:
    """Per-step discrete energy bookkeeping.

    defect[k] = ΔH_k − supplied_k + dissipated_k should vanish for the
    midpoint and trapezoidal schemes; balance_gap[k] = ΔH_k − supplied_k must
    stay below tolerance for any valid system under the midpoint rule.
    """

    dH: np.ndarray
    supplied: np.ndarray
    dissipated: np.ndarray
    defect: np.ndarray

    @property
    def balance_gap(self) -> np.ndarray:
        return self.dH - self.supplied

    @property
    def max_abs_defect(self) -> float:
        return float(np.max(np.abs(self.defect))) if self.defect.size else 0.0

    def flagged(self, tol: float) -> np.ndarray:
        """Steps whose balance defect is negative beyond tolerance
        (energy destroyed by the scheme rather than by R)."""
        return np.flatnonzero(self.defect < -tol)


def energy_audit(sys: EnergySystem, traj) -> AuditTable:
    """Tabulate per-step ΔH, supplied and dissipated energy, and the defect
    of a `Trajectory` of `simulate`."""
    dh = np.diff(traj.hamiltonians)
    supplied = np.diff(traj.supplied_cum)
    dissipated = np.diff(traj.dissipated_cum)
    return AuditTable(dh, supplied, dissipated, dh - supplied + dissipated)


def error_measures(traj, reference):
    """(eps_z, eps_H) of a `Trajectory` against a reference state waveform.

    reference(t) must return the reference values of the trajectory's
    state columns (the columns `simulate` kept).  eps_z is the maximum over
    the grid of the infinity norm of the difference; eps_H the relative
    drift of the Hamiltonian between the first and last instants.
    """
    eps_z = 0.0
    for k, t in enumerate(traj.times):
        ref = np.asarray(reference(t), dtype=np.float64)
        diff = np.abs(ref - traj.states[k])
        if diff.size:
            eps_z = max(eps_z, float(np.max(diff)))
    h0 = traj.hamiltonians[0]
    if h0 == 0.0:
        raise StructureError("eps_H undefined: initial Hamiltonian is zero")
    eps_h = abs(traj.hamiltonians[-1] - h0) / abs(h0)
    return eps_z, eps_h
