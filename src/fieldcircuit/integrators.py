"""Time integration of energy-based DAE systems with energy bookkeeping.

This is the entry layer.  `to_linear_dae` rewrites a system as one
implicit linear DAE (`fieldcircuit._dae`), `consistent_init` completes its
initial state so the algebraic constraints hold, and `simulate` steps it
with a method on one of the three paths of `fieldcircuit._stepping`.  The
`Trajectory` it returns carries the Hamiltonian and the cumulative
dissipated and supplied energy (`fieldcircuit._audit`), so the discrete
power balance can be audited after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from fieldcircuit._dae import (LinearDae, _left_null_basis,
                               check_constraint_residual, constraint_basis,
                               rearrange, sparse_least_squares)
from fieldcircuit._stepping import (condensed_run, method_from_tag,
                                    sparse_run, stepping_map)
from fieldcircuit.structure import (EnergySystem, StructureError, csr_entries,
                                   csr_from_entries, row_dots)
from fieldcircuit.waveforms import WaveformStack, zero_input


def to_linear_dae(sys: EnergySystem) -> LinearDae:
    """The system as a single implicit linear DAE, built once per system:
    `consistent_init` and every `simulate` on the system share it.  Its
    matrices are read, never written, by every consumer.
    """
    if sys._linear_dae is None:
        object.__setattr__(sys, "_linear_dae", rearrange(sys))
    return sys._linear_dae


@dataclass
class Trajectory:
    """Equidistant simulation record.

    states holds the columns of the state that the run kept (every column
    unless `simulate` was given `keep`), one row per instant, and
    state_labels their labels in the same order.
    outputs[k] for k >= 1 is the discrete port flow Bᵀ w of the step ending
    at times[k] (the quantity entering the discrete power balance);
    outputs[0] is zero since no step precedes the initial instant.
    hamiltonians, dissipated_cum and supplied_cum are taken from the full
    state whatever columns are kept.  dissipated_cum/supplied_cum integrate
    the discrete power terms of `energy_bookkeeping`: the balance is exact
    for midpoint and trapezoidal, and exact up to the numerical dissipation
    of implicit Euler.
    stepping_path names the path `simulate` took, "condensed", "reduced" or
    "sparse", and differential_coordinates is r, the rank of E_dae (None
    when the constraint rows could not be formed).  On the reduced and the
    sparse path the energies and outputs are computed from the full states,
    so hamiltonians[k] is `hamiltonian` of states[k] bit for bit; on the
    condensed path they are forms on the coordinates (`condensed_audit`),
    equal to those of the states to round-off.
    """

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    hamiltonians: np.ndarray
    dissipated_cum: np.ndarray
    supplied_cum: np.ndarray
    state_labels: tuple
    output_labels: tuple
    # "condensed", "reduced" or "sparse", and r, the rank of E_dae
    # (`simulate`)
    stepping_path: str = "sparse"
    differential_coordinates: int = None

    def __post_init__(self):
        k = len(self.times)
        for name in ("states", "outputs", "hamiltonians",
                     "dissipated_cum", "supplied_cum"):
            if len(getattr(self, name)) != k:
                raise StructureError(f"trajectory field {name} length mismatch")
        if np.shape(self.states)[1:] != (len(self.state_labels),):
            raise StructureError(
                f"trajectory states of shape {np.shape(self.states)} do not "
                f"have one column per label ({len(self.state_labels)})")


@dataclass(frozen=True)
class _CallableInput:
    """A plain callable u(t) as an input with the `at` of `WaveformStack`:
    one call per time, each value read as m floats."""

    u: object
    m: int

    def at(self, times: np.ndarray) -> np.ndarray:
        return np.array([self.u(t) for t in times],
                        dtype=np.float64).reshape(len(times), self.m)


def _resolve_input(u, m: int):
    """The input of `simulate` as an object whose `at(times)` gives u at
    each of an array of times, one row of m values per time."""
    if u is None:
        return zero_input(m)
    if isinstance(u, WaveformStack):
        if u.dim != m:
            raise StructureError(f"input waveform has {u.dim} ports, system has {m}")
        return u
    if callable(u):
        return _CallableInput(u, m)
    raise StructureError("input must be a waveform stack, a callable, or None")


def _kept_columns(keep, n: int):
    """The state columns `keep` names as an index array, or None when it
    keeps every column in order.  StructureError names the first entry that
    is not an integer in [0, n)."""
    if keep is None:
        return None
    cols = np.asarray(keep)
    if cols.ndim != 1:
        raise StructureError(
            f"keep: expected a 1-D array of state indices, got shape "
            f"{cols.shape}")
    bad = (np.flatnonzero((cols < 0) | (cols >= n))
           if cols.dtype.kind in "iu" else np.arange(cols.size))
    if bad.size:
        raise StructureError(f"keep[{bad[0]}] = {cols[bad[0]]} is not a "
                             f"state index in [0, {n})")
    cols = cols.astype(np.intp)
    return None if np.array_equal(cols, np.arange(n)) else cols


def _input_grid(u, starts: np.ndarray):
    """u(t_k + dt) at the step starts t_k of steps first..stop−1, as one
    (steps, m) array per offset dt and step range, each sampled once by
    one call `u.at(times)` of the input that `_resolve_input` gives.  The
    times are the floats t_k + dt that the step formulas name, and `at`
    evaluates the float expression of u(t) on each, so the values are
    those of evaluating u step by step."""
    memo = {}

    def at(dt: float, first: int = 0, stop=None) -> np.ndarray:
        key = (dt, first, stop)
        if key not in memo:
            memo[key] = u.at(starts[first:stop] + dt)
        return memo[key]
    return at


def step_count(tau: float, t_end: float) -> int:
    """Steps of the grid 0, tau, ..., t_end.  StructureError when tau is not
    positive and finite, t_end not finite, or tau does not divide t_end."""
    if not (0.0 < tau < math.inf and math.isfinite(t_end)):
        raise StructureError("tau must be positive and finite, t_end finite")
    n_steps_f = t_end / tau
    n_steps = int(round(n_steps_f))
    if n_steps < 1 or abs(n_steps_f - n_steps) > 1e-9 * max(1.0, n_steps_f):
        raise StructureError(
            f"tau = {tau} does not divide the interval of length {t_end}")
    return n_steps


def simulate(sys: EnergySystem, z0: np.ndarray, u, tau: float, t_end: float,
             method, keep=None) -> Trajectory:
    """March the system on the equidistant grid 0, tau, ..., t_end.

    tau must divide t_end (`step_count`).  Identical inputs produce
    bit-identical trajectories: stepping is sequential, and every matrix a
    step applies is formed before the first step and reused by every step.
    The input u is sampled once per node offset for the whole grid before
    the first step, as one array (`_input_grid`: `at` of a waveform stack,
    one call per time of a plain callable); the stepper and the energy
    bookkeeping read the same values.

    Three paths step the same scheme (`fieldcircuit._stepping`), and
    `stepping_map` chooses among them from counts known before anything
    is factored.  The condensed and the reduced path keep r columns K′ of
    those the r independent rows of E_dae touch and eliminate the other
    states through one sparse LU of the constraint block C[:, N].  The
    condensed path takes an index-1 system with few differential
    coordinates and steps them with r×r propagators, the input terms of
    the whole grid formed up front, and audits the coordinates only
    (`condensed_run`).  The reduced path takes one that is not condensed,
    with K′ = K: it solves r×r sparse pencils on z_K, rebuilds the other
    states from z_K with a dense lift and audits the full states, one span
    at a time (`sparse_run`).  The sparse path takes every other system,
    a singular C[:, N] (index 2 or more) included, and solves n×n pencils
    one span of states at a time, then audits the span from its full
    states (`sparse_run`).  On the reduced and the sparse path every stage
    solve is checked on its own and refined if needed.  The three paths
    agree to round-off.  On each, a non-finite input or solution raises
    NumericalError naming the step and its time (and on the reduced and
    the sparse path the pencil).

    Only the state columns `keep` names are stored, a 1-D array of indices
    in [0, n), in that order; `keep=None` keeps every column.  Which columns
    are kept changes no value: the arithmetic of every step, of the audit
    and of each column is the same.  Memory is O(span · n + steps · |keep|)
    on the sparse and the reduced path (whose lift is no larger than the
    span) and O(n · r + steps · |keep|) on the condensed one.
    """
    method = method_from_tag(method)
    n_steps = step_count(tau, t_end)

    p = sys.partition
    z0 = np.asarray(z0, dtype=np.float64)
    if z0.shape != (p.n,):
        raise StructureError(f"z0: expected length {p.n}, got {z0.shape}")
    cols = _kept_columns(keep, p.n)
    times = tau * np.arange(n_steps + 1)
    u_at = _input_grid(_resolve_input(u, p.m), times[:-1])
    dae = to_linear_dae(sys)
    r, path, smap = stepping_map(dae)
    endpoint = method.tag == "implicit_euler"
    if path == "condensed":
        states, outputs, dissipated, h = condensed_run(
            sys, smap, method, tau, times, u_at, z0, cols, endpoint)
    else:
        states, outputs, dissipated, h = sparse_run(
            sys, dae, method, tau, times, u_at, z0, cols, endpoint, smap)

    if method.tag == "trapezoidal":
        u_step = 0.5 * (u_at(0.0) + u_at(tau))
    else:
        u_step = u_at(tau if endpoint else 0.5 * tau)
    zero = np.zeros(1)
    d_cum = np.concatenate([zero, np.cumsum(tau * dissipated)])
    s_cum = np.concatenate(
        [zero, np.cumsum(tau * row_dots(outputs[1:], u_step))])
    labels = sys.default_state_labels()
    if cols is not None:
        labels = tuple(labels[i] for i in cols)
    return Trajectory(times, states, outputs, h, d_cum, s_cum, labels,
                      sys.default_output_labels(), path, r)


def consistent_init(sys: EnergySystem, differential_values: np.ndarray,
                    u0) -> np.ndarray:
    """Complete a partial initial state so the algebraic constraints hold at t = 0.

    The z1 and E z2 of the full-length differential_values are kept.  With
    z2 = z2_g + N η, N a basis of the null space of E, η and z3 solve the
    constraint rows C z + D u = 0 that touch them
    (`sparse_least_squares`).  If those rows leave a direction free
    (hidden constraints, higher index), C ẋ = −D u̇ joins them and the joint
    system in (η, z3, ẋ) is solved the same way, at any size; `u0` may be a
    waveform for its derivative.
    Raises StructureError when the kept values contradict the constraints
    (`check_constraint_residual`: a row beyond 1e-8 of its scale).
    """
    p = sys.partition
    z = np.asarray(differential_values, dtype=np.float64).copy()
    if z.shape != (p.n,):
        raise StructureError(f"expected full-length vector of {p.n} entries")

    if callable(u0):
        u_val = np.asarray(u0(0.0), dtype=np.float64)
        u_dot = (np.asarray(u0.derivative(0.0), dtype=np.float64)
                 if hasattr(u0, "derivative") else np.zeros(p.m))
    else:
        u_val = np.asarray(u0, dtype=np.float64) if p.m else np.zeros(0)
        u_dot = np.zeros(p.m)
    if u_val.shape != (p.m,):
        raise StructureError(f"u0: expected length {p.m}, got {u_val.shape}")

    dae = to_linear_dae(sys)
    c_mat, d_mat, *_ = constraint_basis(dae)
    # the free directions [0; N; 0] of η and [0; 0; I] of z3, N from the
    # entries of Eᵀ
    e_rows, e_cols, e_vals = csr_entries(sys.E)
    n_rows, n_cols, n_vals, width, _ = _left_null_basis(e_cols, e_rows,
                                                        e_vals, p.n2)
    z3 = np.arange(p.n3)
    free = csr_from_entries([(p.n1 + n_rows, n_cols, n_vals),
                             (p.n1 + p.n2 + z3, width + z3, np.ones(p.n3))],
                            (p.n, width + p.n3))
    z[p.n1 + p.n2 :] = 0.0
    mat, rhs = c_mat @ free, -(c_mat @ z) - d_mat @ u_val
    if csgraph.structural_rank(mat) < free.shape[1]:
        # rows [E ẋ − A x = B u0] and [C ẋ = −D u̇0]; unknowns [y; ẋ]
        mat = sp.block_array([[-(dae.A_dae @ free), dae.E_dae],
                              [None, c_mat]], format="csr")
        rhs = np.concatenate((dae.A_dae @ z + dae.B_dae @ u_val,
                              -(d_mat @ u_dot)))
    z += free @ sparse_least_squares(mat, rhs)[: free.shape[1]]

    check_constraint_residual(c_mat, d_mat, z, u_val, p)
    return z


