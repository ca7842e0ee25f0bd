"""Time integration of energy-based DAE systems with energy bookkeeping.

Every system is rewritten as one implicit linear DAE, E_dae ẋ = A_dae x +
B_dae u, and stepped with fixed-step implicit schemes by one stepper: each
step solves for the increment with one n×n pencil E_dae − τλ A_dae per
real λ and per conjugate pair, never a stacked sn×sn stage system.  Every
method with an invertible Butcher matrix (midpoint, implicit Euler, Gauss-4,
Radau IIA of order 5) takes λ from the eigenvalues of that matrix (one real
solve for midpoint and implicit Euler, one complex for Gauss-4, one real
and one complex for Radau IIA); trapezoidal (λ = ½) and BDF2 (λ = ⅔, after
a trapezoidal first step) are one real pencil each.
Trajectories carry the Hamiltonian and cumulative dissipated/supplied energy
so the discrete power balance can be audited after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from fieldcircuit.structure import (
    EnergySystem,
    NumericalError,
    Partition,
    StructureError,
    block_rows,
    hamiltonian,
    quadratic_forms,
    row_dots,
)
from fieldcircuit.waveforms import WaveformStack, zero_input

_EPS = np.finfo(np.float64).eps
# smallest min|U_ii| / max|U_ii| accepted in the LU of the row-scaled pivot
# block of `_constraint_basis` (FE masses measure 1e-7 and above)
_PIVOT_RATIO = 1e-12


# ---------------------------------------------------------------------------
# implicit linear DAE form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearDae:
    """The system rewritten as E_dae ẋ = A_dae x + B_dae u with x = [z1; z2; z3]."""

    E_dae: object
    A_dae: object
    B_dae: object
    partition: Partition


def to_linear_dae(sys: EnergySystem) -> LinearDae:
    """The system as a single implicit linear DAE, built once per system:
    `consistent_init` and every `simulate` on the system share it.  Its
    matrices are read, never written, by every consumer.
    """
    if sys._linear_dae is None:
        object.__setattr__(sys, "_linear_dae", _rearrange(sys))
    return sys._linear_dae


def _rearrange(sys: EnergySystem) -> LinearDae:
    """Rearrange the structured equations into E_dae ẋ = A_dae x + B_dae u.

    Row blocks (z1/z2/z3 equations):
        (J−R)₁₁ ż1                = M1 z1 − (J−R)₁₂ S z2 − (J−R)₁₃ z3 − B₁ u
        E ż2 − (J−R)₂₁ ż1         = (J−R)₂₂ S z2 + (J−R)₂₃ z3 + B₂ u
        −(J−R)₃₁ ż1               = (J−R)₃₂ S z2 + (J−R)₃₃ z3 + B₃ u
    """
    p = sys.partition
    n1, n2, n3 = p.n1, p.n2, p.n3
    jr = sys.J - sys.R
    i1 = slice(0, n1)
    i2 = slice(n1, n1 + n2)
    i3 = slice(n1 + n2, p.n)

    def blk(rows, cols):
        return sp.csr_array(jr[rows, :][:, cols])

    zeros = sp.csr_array
    e_rows = [
        [blk(i1, i1), zeros((n1, n2)), zeros((n1, n3))],
        [-blk(i2, i1), sys.E, zeros((n2, n3))],
        [-blk(i3, i1), zeros((n3, n2)), zeros((n3, n3))],
    ]
    a_rows = [
        [sys.M1, -blk(i1, i2) @ sys.S, -blk(i1, i3)],
        [zeros((n2, n1)), blk(i2, i2) @ sys.S, blk(i2, i3)],
        [zeros((n3, n1)), blk(i3, i2) @ sys.S, blk(i3, i3)],
    ]
    b_rows = [-sys.B[i1], sys.B[i2], sys.B[i3]]
    return LinearDae(sp.csr_array(sp.bmat(e_rows, format="csr")),
                     sp.csr_array(sp.bmat(a_rows, format="csr")),
                     sp.csr_array(sp.vstack(b_rows, format="csr")), p)


# ---------------------------------------------------------------------------
# methods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Method:
    """Integration scheme: one of the fixed tags, with a Butcher tableau where
    the scheme is a genuine implicit Runge-Kutta method."""

    tag: str
    A: object = None
    b: object = None
    c: object = None


_S3 = math.sqrt(3.0)
_S6 = math.sqrt(6.0)

_TABLEAUX = {
    "implicit_euler": (
        np.array([[1.0]]),
        np.array([1.0]),
        np.array([1.0]),
    ),
    "midpoint": (
        np.array([[0.5]]),
        np.array([1.0]),
        np.array([0.5]),
    ),
    # Lobatto IIIA; its Butcher matrix is singular (an explicit first stage,
    # which cannot be evaluated behind a singular E_dae), so it steps by its
    # one-pencil plan in `_INCREMENT_PLANS`; the tableau serves the order
    # conditions.
    "trapezoidal": (
        np.array([[0.0, 0.0], [0.5, 0.5]]),
        np.array([0.5, 0.5]),
        np.array([0.0, 1.0]),
    ),
    "bdf2": (None, None, None),
    "gauss4": (
        np.array([[0.25, 0.25 - _S3 / 6.0],
                  [0.25 + _S3 / 6.0, 0.25]]),
        np.array([0.5, 0.5]),
        np.array([0.5 - _S3 / 6.0, 0.5 + _S3 / 6.0]),
    ),
    "radau5": (
        np.array([
            [(88.0 - 7.0 * _S6) / 360.0,
             (296.0 - 169.0 * _S6) / 1800.0,
             (-2.0 + 3.0 * _S6) / 225.0],
            [(296.0 + 169.0 * _S6) / 1800.0,
             (88.0 + 7.0 * _S6) / 360.0,
             (-2.0 - 3.0 * _S6) / 225.0],
            [(16.0 - _S6) / 36.0, (16.0 + _S6) / 36.0, 1.0 / 9.0],
        ]),
        np.array([(16.0 - _S6) / 36.0, (16.0 + _S6) / 36.0, 1.0 / 9.0]),
        np.array([(4.0 - _S6) / 10.0, (4.0 + _S6) / 10.0, 1.0]),
    ),
}

# (nodes c, [(λ, row r, weight γ)], history h) of `_pencil_plan`: the
# endpoint formula (E − τ/2 A) z⁺ = (E + τ/2 A) z + τ B (u(t) + u(t+τ))/2 and
# BDF2 (3E − 2τA) z⁺ = E (4z − z⁻) + 2τ B u(t+τ), solved for (z⁺ − z)/τ
_INCREMENT_PLANS = {
    "trapezoidal": ((0.0, 1.0), [(0.5, np.array([0.5, 0.5]), 1.0)], 0.0),
    "bdf2": ((1.0,), [(2.0 / 3.0, np.array([2.0 / 3.0]), 1.0)], 1.0 / 3.0),
}

_ALIASES = {"euler": "implicit_euler", "trap": "trapezoidal"}

METHOD_TAGS = tuple(_TABLEAUX)


def method_from_tag(tag) -> Method:
    if isinstance(tag, Method):
        return tag
    key = _ALIASES.get(tag, tag)
    if key not in _TABLEAUX:
        raise ValueError(
            f"unknown method '{tag}'; choose from {', '.join(METHOD_TAGS)}")
    a, b, c = _TABLEAUX[key]
    return Method(key, a, b, c)


# ---------------------------------------------------------------------------
# factorized stage solver with iterative refinement
# ---------------------------------------------------------------------------

def _splu(mat, what: str, permc_spec: str = "COLAMD"):
    """splu of a square matrix; NumericalError naming `what` if singular."""
    try:
        return spla.splu(sp.csc_matrix(mat), permc_spec=permc_spec)
    except RuntimeError as exc:
        raise NumericalError(f"singular {what}") from exc


# a stage solve x of P x = rhs is accepted when ‖rhs − P x‖∞ ≤
# _RESIDUAL_BOUND · eps · (‖rhs‖∞ + ‖P‖∞ ‖x‖∞)
_RESIDUAL_BOUND = 32.0


class _StageSolver:
    """LU factorization of a fixed stage matrix, reused across all steps.

    The pencil is factored with the MMD_AT_PLUS_A and with the COLAMD
    column ordering, and the factor that stores fewer entries (SuperLU's
    `nnz`, supernode blocks included: what the triangular solves read) is
    kept, COLAMD on a tie.  MMD is the sparser on the pencils of fine
    meshes (281k entries against 416k at n = 4952), COLAMD on coarse ones
    (about 30k against 33k–37k at n ≈ 743).  Only one factor is alive at
    a time.
    `solve` checks the residual of each solve against `_RESIDUAL_BOUND`
    and refines it once or twice if needed, which keeps it near round-off
    even when the stage matrix mixes badly scaled physical blocks.  The
    stepper of `simulate` solves with `solve_unchecked` instead and
    applies the same test to a whole block of solves at once (`accepts`);
    a block that fails is stepped again through `solve`.
    """

    def __init__(self, mat, context: str):
        self._context = context
        self._mat = sp.csr_array(mat)
        what = (f"stage matrix ({context}); the matrix pencil may be "
                f"irregular or the model inconsistent")
        csc = sp.csc_matrix(mat)
        mmd_nnz = _splu(csc, what, "MMD_AT_PLUS_A").nnz
        self._lu = _splu(csc, what, "COLAMD")
        if mmd_nnz < self._lu.nnz:
            del self._lu
            self._lu = _splu(csc, what, "MMD_AT_PLUS_A")
        self._row_scale = float(abs(self._mat).sum(axis=1).max(initial=0.0))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = self._lu.solve(rhs)
        for _ in range(2):
            r = rhs - self._mat @ x
            scale = self._row_scale * np.abs(x).max(initial=0.0)
            bound = _RESIDUAL_BOUND * _EPS * (np.abs(rhs).max(initial=0.0)
                                              + scale)
            if np.abs(r).max(initial=0.0) <= bound:
                break
            x = x + self._lu.solve(r)
        return self._finite(x)

    def solve_unchecked(self, rhs: np.ndarray) -> np.ndarray:
        """The first solve of `solve`, without its residual test."""
        return self._finite(self._lu.solve(rhs))

    def _finite(self, x: np.ndarray) -> np.ndarray:
        if not np.isfinite(x).all():
            raise NumericalError(f"non-finite stage solution ({self._context})")
        return x

    def residuals(self, rhs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """rhs_k − P x_k for each row k of two stacks of right sides and
        solutions, as column k of one array: one sparse-times-dense
        product, whose columns are bit-identical to the products P x_k."""
        res = self._mat @ x.T
        return np.subtract(rhs.T, res, out=res)

    def accepts(self, rhs: np.ndarray, x: np.ndarray) -> bool:
        """Whether every row of x passes the residual test of `solve` as
        the solution for the same row of rhs.  Each per-row figure is
        computed with the arithmetic of `solve`, so the verdict is the one
        `solve` reaches row by row."""
        res = self.residuals(rhs, x)
        # |res| overwrites a real residual
        res_max = np.abs(res, out=res if res.dtype.kind == "f" else None).max(
            axis=0, initial=0.0)
        scale = self._row_scale * np.abs(x).max(axis=1, initial=0.0)
        bound = _RESIDUAL_BOUND * _EPS * (np.abs(rhs).max(axis=1, initial=0.0)
                                          + scale)
        return bool((res_max <= bound).all())


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

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
    the discrete power terms of `_energy_bookkeeping`: the balance is exact
    for midpoint and trapezoidal, and exact up to the numerical dissipation
    of implicit Euler.
    """

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    hamiltonians: np.ndarray
    dissipated_cum: np.ndarray
    supplied_cum: np.ndarray
    state_labels: tuple
    output_labels: tuple

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


def _resolve_input(u, m: int):
    if u is None:
        return zero_input(m)
    if isinstance(u, WaveformStack):
        if u.dim != m:
            raise StructureError(f"input waveform has {u.dim} ports, system has {m}")
        return u
    if callable(u):
        return u
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


def _input_grid(u, starts: np.ndarray, m: int):
    """u(t_k + dt) at the step starts t_k of steps first..stop−1, as one
    (steps, m) array per offset dt and step range, each evaluated once.
    The times are the floats t_k + dt that the step formulas name, so the
    values are those of evaluating u step by step."""
    memo = {}

    def at(dt: float, first: int = 0, stop=None) -> np.ndarray:
        key = (dt, first, stop)
        if key not in memo:
            span = starts[first:stop] + dt
            memo[key] = np.array([u(t) for t in span],
                                 dtype=np.float64).reshape(span.size, m)
        return memo[key]
    return at


# blocks of `block_rows` states held between two energy audits (about 8 MB):
# with spans of one block, interleaved with the steps, the audit of 500
# steps at n = 4952 took 86 ms against 68 ms with spans of eight
_SPAN_BLOCKS = 8


def simulate(sys: EnergySystem, z0: np.ndarray, u, tau: float, t_end: float,
             method, t0: float = 0.0, keep=None) -> Trajectory:
    """March the system on the equidistant grid t0, t0+tau, ..., t_end.

    tau must divide t_end − t0.  Identical inputs produce bit-identical
    trajectories: stepping is sequential, and every stage matrix is
    factorized before the first step (`_StageSolver` keeps the sparser of
    two orderings) and reused by every step.  The input u is evaluated once
    per node offset for the whole grid before the first step
    (`_input_grid`); the stepper and the energy bookkeeping read the same
    values.

    The loop steps one span of `_SPAN_BLOCKS` · `block_rows(n)` states at a
    time.  The residual of every stage solve is checked once per block of
    `block_rows(n)` steps, not after each solve; a block that fails the
    check is stepped again with refined solves (`_make_stepper`), so the
    states are those of refining solve by solve.  After a span the loop
    audits it (`_energy_bookkeeping`: outputs, dissipated power and H) and
    stores only the state columns `keep` names, a 1-D array of indices in
    [0, n), in that order.  The last state of a span (and for BDF2 the one
    before it) starts the next.  `keep=None` keeps every column.  Memory
    is O(span · n + steps · |keep|): with every column kept the steps
    write straight into the returned array, otherwise into one span of
    full states that is reused.  Which columns are kept changes no value:
    the arithmetic of every step and of the audit is the same.
    """
    method = method_from_tag(method)
    if not (0.0 < tau < math.inf and math.isfinite(t_end - t0)):
        raise StructureError("tau must be positive and finite, t_end - t0 finite")
    length = t_end - t0
    n_steps_f = length / tau
    n_steps = int(round(n_steps_f))
    if n_steps < 1 or abs(n_steps_f - n_steps) > 1e-9 * max(1.0, n_steps_f):
        raise StructureError(
            f"tau = {tau} does not divide the interval of length {length}")

    p = sys.partition
    z0 = np.asarray(z0, dtype=np.float64)
    if z0.shape != (p.n,):
        raise StructureError(f"z0: expected length {p.n}, got {z0.shape}")
    cols = _kept_columns(keep, p.n)
    times = t0 + tau * np.arange(n_steps + 1)
    u_at = _input_grid(_resolve_input(u, p.m), times[:-1], p.m)
    march = _make_stepper(to_linear_dae(sys), method, tau, times, u_at)

    span = _SPAN_BLOCKS * block_rows(p.n)
    labels = sys.default_state_labels()
    if cols is None:
        states = buf = np.empty((n_steps + 1, p.n))
    else:
        states = np.empty((n_steps + 1, cols.size))
        states[0] = z0[cols]
        buf = np.empty((min(span, n_steps) + 1, p.n))
        labels = tuple(labels[i] for i in cols)
    buf[0] = z0
    outputs = np.zeros((n_steps + 1, p.m))
    dissipated = np.empty(n_steps)
    h = np.empty(n_steps + 1)
    h[0] = hamiltonian(sys, buf[:1])[0]
    endpoint = method.tag == "implicit_euler"
    z_prev = z0  # the state before the span's first, for BDF2
    for base in range(0, n_steps, span):
        stop = min(base + span, n_steps)
        blk = buf[base : stop + 1] if cols is None else buf[: stop - base + 1]
        march(base, blk, z_prev)
        (outputs[base + 1 : stop + 1], dissipated[base:stop],
         h[base + 1 : stop + 1]) = _energy_bookkeeping(sys, blk, tau, endpoint)
        z_prev = blk[-2].copy()
        if cols is not None:
            states[base + 1 : stop + 1] = blk[1:, cols]
            buf[0] = blk[-1]

    if method.tag == "trapezoidal":
        u_step = 0.5 * (u_at(0.0) + u_at(tau))
    else:
        u_step = u_at(tau if endpoint else 0.5 * tau)
    zero = np.zeros(1)
    d_cum = np.concatenate([zero, np.cumsum(tau * dissipated)])
    s_cum = np.concatenate(
        [zero, np.cumsum(tau * row_dots(outputs[1:], u_step))])
    return Trajectory(times, states, outputs, h, d_cum, s_cum, labels,
                      sys.default_output_labels())


def _energy_bookkeeping(sys: EnergySystem, states: np.ndarray, tau: float,
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
    Steps are taken in blocks of `block_rows` states, so no temporary grows
    with the span; every step's arithmetic is the same whatever block it
    falls in.
    """
    p = sys.partition
    n_steps = len(states) - 1
    y = np.empty((n_steps, p.m))
    dissipated = np.empty(n_steps)
    h = np.empty(n_steps)
    rows = block_rows(p.n)
    for k in range(0, n_steps, rows):
        blk = states[k : k + rows + 1]
        z_at = blk[1:] if endpoint else 0.5 * (blk[:-1] + blk[1:])
        w = np.hstack([(blk[1:, : p.n1] - blk[:-1, : p.n1]) / tau,
                       (sys.S @ z_at[:, p.n1 : p.n1 + p.n2].T).T,
                       z_at[:, p.n1 + p.n2 :]])
        y[k : k + rows] = (sys.B.T @ w.T).T
        dissipated[k : k + rows] = quadratic_forms(sys.R, w)
        h[k : k + rows] = hamiltonian(sys, blk[1:])
    return y, dissipated, h


def _pencil_plan(method: Method):
    """(nodes c, [(λ_j, row r_j, weight γ_j)], history h) of a method: its
    `_INCREMENT_PLANS` entry, or the Runge-Kutta stages decoupled through
    the eigenvalues of the Butcher matrix.  With T⁻¹ A_tab T = Λ the stage
    system splits into one pencil per λ_j, with r_j = T⁻¹_j and γ = bᵀT
    (Butcher, BIT 16, 1976).  Of a conjugate pair only the member with
    Im λ > 0 is kept; its partner's w is the complex conjugate, so the pair
    adds 2 Re(γ_j w_j)."""
    if method.tag in _INCREMENT_PLANS:
        return _INCREMENT_PLANS[method.tag]
    lam, t_mat = np.linalg.eig(np.asarray(method.A, dtype=np.float64))
    if np.linalg.cond(t_mat) > 1e8:
        raise StructureError(
            f"Butcher matrix of {method.tag} is not diagonalizable")
    t_inv = np.linalg.inv(t_mat)
    gamma = np.asarray(method.b, dtype=np.float64) @ t_mat
    return method.c, [(lam[j], t_inv[j], 2.0 * gamma[j]) if lam[j].imag else
                      (lam[j].real, t_inv[j].real, gamma[j].real)
                      for j in np.flatnonzero(lam.imag >= 0.0)], 0.0


def _make_stepper(dae: LinearDae, method: Method, tau: float, times, u_at):
    """Bind the stepping of the grid `times`, factorizing every pencil up
    front: per pencil (λ_j, r_j, γ_j) of `_pencil_plan` a step solves
    (E − τλ_j A) w_j = (Σ_i r_ji) A z + B Σ_i r_ji u(t + c_i τ)
    + h E (z − z⁻)/τ, and z⁺ = z + τ Σ_j Re(γ_j w_j).  BDF2's first step is
    trapezoidal's.  The input term is formed for every step before the
    first, from the grid inputs `u_at` of `_input_grid` and on the rows
    that B reaches only; a step then does one product A z and, per pencil,
    one indexed add and the solve.

    Steps run in check blocks of `block_rows(n)` steps.  Within a block
    each solve is `solve_unchecked`, and each pencil's right sides and
    solutions are written to its rows × n buffers, allocated once here.
    After the block, `_StageSolver.accepts` tests them all with the bound
    of `_StageSolver.solve`.  A block that fails, or that meets a
    non-finite solution, is stepped again from its first state (and the
    one before it) through `solve`, which refines each solve as needed.
    So every state is the one that stepping through `solve` alone gives,
    and so is every NumericalError.

    Returns march(first, states, z_prev): steps states[1:] from states[0],
    whose step is `first` and whose predecessor is z_prev (read by BDF2).
    """
    n_steps = len(times) - 1
    rows = min(block_rows(dae.partition.n), n_steps)
    src = np.flatnonzero(np.diff(dae.B_dae.indptr))
    b_src = dae.B_dae[src]
    startup = [method_from_tag("trapezoidal")] if method.tag == "bdf2" else []
    plans = []
    for first, m in enumerate(startup + [method]):
        stop = None if m is method else first + 1
        nodes, pencils, history = _pencil_plan(m)
        # [k, i]: the input at node i of step first + k, u(t_k + c_i τ)
        u_nodes = np.stack([u_at(float(ci) * tau, first, stop)
                            for ci in nodes], axis=1)
        solvers = []
        for lam, row, weight in pencils:
            mat = dae.E_dae - (tau * lam) * dae.A_dae
            rhs_buf, x_buf = np.empty((2, rows, mat.shape[0]), mat.dtype)
            solvers.append((_StageSolver(
                mat, f"{m.tag}, lambda = {lam:.6g}, tau = {tau}"), row.sum(),
                (b_src @ (row @ u_nodes).T).T, weight, rhs_buf, x_buf))
        plans.append((first, stop or n_steps, solvers, history / tau))

    def step(k, z, z_prev, slot, refine):
        first, _, pencils, lag = plans[min(k, len(plans) - 1)]
        az = dae.A_dae @ z
        z_next = z
        for solver, row_sum, b_u, weight, rhs_buf, x_buf in pencils:
            rhs = np.multiply(row_sum, az, out=rhs_buf[slot])
            rhs[src] += b_u[k - first]
            if lag:
                rhs += lag * (dae.E_dae @ (z - z_prev))
            if refine:
                x = solver.solve(rhs)
            else:
                x = x_buf[slot] = solver.solve_unchecked(rhs)
            z_next = z_next + tau * np.real(weight * x)
        return z_next

    def run(first, states, z_prev, refine):
        for j in range(len(states) - 1):
            k = first + j
            try:
                states[j + 1] = step(k, states[j],
                                     states[j - 1] if j else z_prev, j, refine)
            except NumericalError as exc:
                raise NumericalError(
                    f"step {k + 1} at t = {times[k]}: {exc}") from exc

    def accepted(first, count):
        for plan_first, plan_stop, pencils, _ in plans:
            lo, hi = max(plan_first - first, 0), min(plan_stop - first, count)
            if lo < hi and not all(
                    solver.accepts(rhs_buf[lo:hi], x_buf[lo:hi])
                    for solver, *_, rhs_buf, x_buf in pencils):
                return False
        return True

    def march(first, states, z_prev):
        for lo in range(0, len(states) - 1, rows):
            blk = states[lo : lo + rows + 1]
            prev = states[lo - 1] if lo else z_prev
            try:
                run(first + lo, blk, prev, refine=False)
                if accepted(first + lo, len(blk) - 1):
                    continue
            except NumericalError:
                pass  # the refined steps raise it again unless they avoid it
            run(first + lo, blk, prev, refine=True)
    return march


# ---------------------------------------------------------------------------
# consistent initialization
# ---------------------------------------------------------------------------

def _row_max_abs(mat) -> np.ndarray:
    """Largest absolute stored entry of each row of a CSR block (0 if
    empty), read from `data` over `indptr`: scipy's abs() would sort the
    index arrays of an unsorted matrix in place, and the shared rewrite of
    `to_linear_dae` is never written."""
    row_max = np.zeros(mat.shape[0])
    full = np.flatnonzero(np.diff(mat.indptr))
    if full.size:
        row_max[full] = np.maximum.reduceat(
            np.abs(mat.data[: mat.indptr[-1]]), mat.indptr[full])
    return row_max


def _left_null_basis(mat) -> sp.csr_array:
    """Sparse basis V of the left null space of mat, Vᵀ mat = 0: a unit
    vector per zero row, and one dense SVD per connected block of the other
    rows (two rows share a block when they share a column)."""
    mat = sp.csr_array(mat)
    mat.eliminate_zeros()
    nz_rows = np.flatnonzero(np.diff(mat.indptr))
    zero_rows = np.flatnonzero(np.diff(mat.indptr) == 0)
    m_nz = mat[nz_rows]
    # rows i and j are linked when they share a column
    _, labels = csgraph.connected_components(abs(m_nz) @ abs(m_nz).T,
                                             directed=False)
    order = np.argsort(labels, kind="stable")
    blocks = [sp.eye_array(zero_rows.size)]
    for rows in np.split(order, np.flatnonzero(np.diff(labels[order])) + 1):
        blk = m_nz[rows]
        blocks.append(scipy.linalg.null_space(
            blk[:, np.unique(blk.indices)].toarray().T))
    rows = np.r_[zero_rows, nz_rows[order]]  # row order of the blocks
    return sp.block_diag(blocks, "csr")[np.argsort(rows)]


def _constraint_basis(dae: LinearDae):
    """Sparse algebraic constraint rows (C, D): C x + D u = 0 holds on every
    solution of E ẋ = A x + B u.

    The rows are vᵀA and vᵀB for a basis of the left null space of E, taken
    after every row of [E A B] is scaled to unit size so rank detection is
    not thrown off by mixed physical units.  The gradient states P with a
    nonzero diagonal of F11 = (J−R)₁₁ (the conductive nodes, F11 = −M_σ)
    are eliminated by one sparse LU of E[P, P]: v = [v_P; w] with w a left
    null vector of the Schur remainder E[Q, K] − E[Q, P] E[P, P]⁻¹ E[P, K]
    on the other rows Q and columns K, and v_P = −E[P, P]⁻ᵀ E[Q, P]ᵀ w.
    In the remainder (`_left_null_basis`) zero rows are a row selection;
    only the circuit and coupling rows get a dense SVD per connected block.
    The LU keeps COLAMD, the sparser ordering here: on the conductive core
    block MMD_AT_PLUS_A stores 34.2k entries against 13.4k at h = 0.5 mm.
    """
    row_max = np.maximum.reduce(
        [_row_max_abs(mat) for mat in (dae.E_dae, dae.A_dae, dae.B_dae)])
    row_max[row_max == 0.0] = 1.0
    d_inv = sp.diags_array(1.0 / row_max, format="csr")
    e_eq = d_inv @ dae.E_dae
    is_piv = e_eq.diagonal() != 0.0
    is_piv[dae.partition.n1 :] = False
    piv, rest = np.flatnonzero(is_piv), np.flatnonzero(~is_piv)
    what = (f"gradient-state pivot block F11[P, P] of E_dae "
            f"({piv.size} x {piv.size})")
    lu = _splu(e_eq[piv][:, piv], what)
    # the rows are scaled to unit size, so a tiny pivot ratio is a rank
    # defect (a PSD conductivity with a full diagonal), not mixed units
    u_diag = np.abs(lu.U.diagonal())
    if piv.size and u_diag.min() < _PIVOT_RATIO * u_diag.max():
        raise NumericalError(f"singular {what}")
    e_rest = e_eq[rest]
    e_qp, e_pk, schur = e_rest[:, piv], e_eq[piv][:, rest], e_rest[:, rest]
    if e_pk.nnz:
        # only the columns E[P, K] touches change; their order is immaterial
        cols = np.unique(e_pk.indices)
        x = sp.csr_array(lu.solve(e_pk[:, cols].toarray()))
        schur = sp.hstack([schur[:, np.setdiff1d(np.arange(rest.size), cols)],
                           schur[:, cols] - e_qp @ x])
    w = _left_null_basis(schur)
    # v_P vanishes for the null vectors w that E[Q, P] does not reach
    hit = np.unique(w[np.flatnonzero(np.diff(e_qp.indptr))].indices)
    v_p = sp.csr_array(-lu.solve((e_qp.T @ w[:, hit]).toarray(), trans="T"))
    v = sp.vstack([sp.csr_array((v_p.data, hit[v_p.indices], v_p.indptr),
                                shape=(piv.size, w.shape[1])), w])
    v_t = sp.csr_array((d_inv @ v[np.argsort(np.r_[piv, rest])]).T)
    return v_t @ dae.A_dae, v_t @ dae.B_dae


def _sparse_least_squares(mat, rhs) -> np.ndarray:
    """Least-squares x of mat x ≈ rhs, 0 in empty columns: G and b are mat
    and rhs without empty rows, each row scaled to unit largest entry, and
    the augmented system [[I, G], [Gᵀ, 0]] [r; x] = [b; 0] is factored once
    by `splu` with COLAMD: MMD_AT_PLUS_A turns the KKT factor of `index2`
    (n = 1557) from 115k into 571k entries and 9.5 into 61 ms."""
    mat = sp.csr_array(mat)
    mat.eliminate_zeros()
    rows, cols = np.flatnonzero(np.diff(mat.indptr)), np.unique(mat.indices)
    scale = 1.0 / _row_max_abs(mat[rows])
    g = sp.diags_array(scale) @ mat[rows][:, cols]
    lu = _splu(sp.bmat([[sp.eye_array(rows.size), g], [g.T, None]]),
               f"initialization least squares ({rows.size} x {cols.size})")
    sol = lu.solve(np.r_[scale * rhs[rows], np.zeros(cols.size)])
    x = np.zeros(mat.shape[1])
    x[cols] = sol[rows.size :]
    return x


def consistent_init(sys: EnergySystem, differential_values: np.ndarray, u0,
                    t0: float = 0.0, tol: float = 1e-8) -> np.ndarray:
    """Complete a partial initial state so the algebraic constraints hold at t0.

    The z1 and E z2 of the full-length differential_values are kept.  With
    z2 = z2_g + N η, N a basis of the null space of E, η and z3 solve the
    constraint rows C z + D u = 0 that touch them
    (`_sparse_least_squares`).  If those rows leave a direction free
    (hidden constraints, higher index), C ẋ = −D u̇ joins them and the joint
    system in (η, z3, ẋ) is solved the same way, at any size; `u0` may be a
    waveform for its derivative.
    Raises StructureError when the kept values contradict the constraints.
    """
    p = sys.partition
    z = np.asarray(differential_values, dtype=np.float64).copy()
    if z.shape != (p.n,):
        raise StructureError(f"expected full-length vector of {p.n} entries")

    if callable(u0):
        u_val = np.asarray(u0(t0), dtype=np.float64)
        u_dot = (np.asarray(u0.derivative(t0), dtype=np.float64)
                 if hasattr(u0, "derivative") else np.zeros(p.m))
    else:
        u_val = np.asarray(u0, dtype=np.float64) if p.m else np.zeros(0)
        u_dot = np.zeros(p.m)
    if u_val.shape != (p.m,):
        raise StructureError(f"u0: expected length {p.m}, got {u_val.shape}")

    dae = to_linear_dae(sys)
    c_mat, d_mat = _constraint_basis(dae)
    # the free directions [0; N; 0] of η and [0; 0; I] of z3
    free = sp.block_diag([sp.csr_array((p.n1, 0)), _left_null_basis(sys.E.T),
                          sp.eye_array(p.n3)], format="csr")
    z[p.n1 + p.n2 :] = 0.0
    mat, rhs = c_mat @ free, -(c_mat @ z) - d_mat @ u_val
    if csgraph.structural_rank(mat) < free.shape[1]:
        # rows [E ẋ − A x = B u0] and [C ẋ = −D u̇0]; unknowns [y; ẋ]
        mat = sp.block_array([[-(dae.A_dae @ free), dae.E_dae],
                              [None, c_mat]])
        rhs = np.r_[dae.A_dae @ z + dae.B_dae @ u_val, -(d_mat @ u_dot)]
    z += free @ _sparse_least_squares(mat, rhs)[: free.shape[1]]

    _check_constraint_residual(c_mat, d_mat, z, u_val, tol, p)
    return z


def _check_constraint_residual(c_mat, d_mat, z, u_val, tol, p):
    if c_mat.shape[0] == 0:
        return
    res = c_mat @ z + d_mat @ u_val
    row_scale = np.maximum(
        _row_max_abs(c_mat) * max(np.max(np.abs(z), initial=0.0), 1.0),
        _row_max_abs(d_mat) * max(np.max(np.abs(u_val), initial=0.0), 1.0))
    row_scale[row_scale == 0.0] = 1.0
    rel = np.abs(res) / row_scale
    bad = float(np.max(rel))
    if bad > tol:
        worst = int(np.argmax(rel))
        dominant = int(np.argmax(np.abs(c_mat[[worst]].toarray())))
        if dominant < p.n1:
            block = "z1 (gradient-state) components"
        elif dominant < p.n1 + p.n2:
            block = "z2 (dynamic-state) components"
        else:
            block = "z3 (algebraic-state) components"
        raise StructureError(
            f"inconsistent initial values: constraint residual {bad:.3e} "
            f"touching {block}; check source values and pencil regularity "
            f"(check_pencil)")


# ---------------------------------------------------------------------------
# audit and error measures
# ---------------------------------------------------------------------------

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


def energy_audit(sys: EnergySystem, traj: Trajectory) -> AuditTable:
    """Tabulate per-step ΔH, supplied and dissipated energy, and the defect."""
    dh = np.diff(traj.hamiltonians)
    supplied = np.diff(traj.supplied_cum)
    dissipated = np.diff(traj.dissipated_cum)
    return AuditTable(dh, supplied, dissipated, dh - supplied + dissipated)


def error_measures(traj: Trajectory, reference):
    """(eps_z, eps_H) against a reference state waveform.

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
