"""Time integration of energy-based DAE systems with energy bookkeeping.

Every system is rewritten as one implicit linear DAE, E_dae ẋ = A_dae x +
B_dae u, and stepped with fixed-step implicit schemes, each a plan of
pencils (`_pencil_plan`): a step solves for the increment with one pencil
E_dae − τλ A_dae per real λ and per conjugate pair, never a stacked sn×sn
stage system.  Every method with an invertible Butcher matrix (midpoint,
implicit Euler, Gauss-4, Radau IIA of order 5) takes λ from the eigenvalues
of that matrix (one real solve for midpoint and implicit Euler, one complex
for Gauss-4, one real and one complex for Radau IIA); trapezoidal (λ = ½)
and BDF2 (λ = ⅔, after a trapezoidal first step) are one real pencil each.

The plan is stepped on one of two paths.  An index-1 system whose rank r
of E_dae is small steps on its differential coordinates x = E_dae[R] z,
with R r independent rows of E_dae: with the constraint rows (C, D) of
`_constraint_basis` and M = [E_dae[R]; C], every consistent state is
z = V x + G u, V = M⁻¹[I; 0] and G = M⁻¹[0; −D], and the DAE is the ODE
ẋ = A_r x + B_r u, A_r = A_dae[R] V, B_r = A_dae[R] G + B_dae[R] (the
state-space form of Hairer & Wanner, Solving ODEs II, §VI.1; Kron
reduction in circuit theory).  Each pencil is then the dense r×r
I − τλ A_r, and a step is one product with a propagator.  The cost rule
`_condenses` takes this path when V, n×r, stores no more entries than the
LU factor of any pencil can; a singular M, which makes the index 2 or
more, keeps the sparse path, on which each pencil is an n×n sparse LU and
every solve with it is checked on its own (`_StageSolver.solve`).  The two
paths agree to round-off and keep the same discrete power balance.
Trajectories carry the Hamiltonian and cumulative dissipated/supplied energy
so the discrete power balance can be audited after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
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
    csr_entries,
    csr_from_entries,
    hamiltonian,
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
    # the column ordering of every pencil E_dae − τλ A_dae, chosen by the
    # first one factored (`_pencil_solver`)
    _permc_spec: str = field(default=None, init=False, repr=False,
                             compare=False)
    # (C, D) and R of `_constraint_basis`, built on first use; `simulate`
    # lets (C, D) go once it has its map (`_condensed_map`)
    _constraints: tuple = field(default=None, init=False, repr=False,
                                compare=False)
    _rows: np.ndarray = field(default=None, init=False, repr=False,
                              compare=False)
    # |pattern(E_dae) ∪ pattern(A_dae)| of `_condenses`, counted on first use
    _union: int = field(default=None, init=False, repr=False, compare=False)
    # the `_CondensedMap` of `_condensed_map`, or False where M is singular
    _condensed: object = field(default=None, init=False, repr=False,
                               compare=False)


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

    Each matrix is one construction from the entries of its blocks placed
    at their offsets.  (J−R)[:, z2] S is one sparse product, whose rows are
    those of the products of the three row blocks; a row of A_dae keeps
    its M1, (J−R) S and (J−R)[:, z3] entries in that order, each part in
    the order of its own storage.
    """
    p = sys.partition
    n, n1, n2 = p.n, p.n1, p.n2
    jr = sys.J - sys.R
    rows, cols, vals = csr_entries(jr)
    part = np.searchsorted([n1, n1 + n2], cols, side="right")
    # +1 on the z1 rows, −1 on the others
    sign = np.where(rows < n1, 1.0, -1.0)
    on1, on2, on3 = part == 0, part == 1, part == 2
    jr_s = csr_from_entries([(rows[on2], cols[on2] - n1, vals[on2])],
                            (n, n2), like=(jr,)) @ sys.S
    s_rows, s_cols, s_vals = csr_entries(jr_s)
    e_rows, e_cols, e_vals = csr_entries(sys.E)
    m_rows, m_cols, m_vals = csr_entries(sys.M1)
    e_dae = csr_from_entries([(rows[on1], cols[on1], sign[on1] * vals[on1]),
                              (n1 + e_rows, n1 + e_cols, e_vals)], (n, n),
                             like=(jr, sys.E))
    a_dae = csr_from_entries(
        [(m_rows, m_cols, m_vals),
         (s_rows, n1 + s_cols, np.where(s_rows < n1, -1.0, 1.0) * s_vals),
         (rows[on3], cols[on3], -sign[on3] * vals[on3])],
        (n, n), like=(sys.M1, jr, sys.S))
    b = sys.B
    b_data = b.data[: b.indptr[-1]].copy()
    b_data[: b.indptr[n1]] *= -1.0
    b_dae = sp.csr_array((b_data, b.indices[: b.indptr[-1]].copy(),
                          b.indptr.copy()), shape=b.shape)
    return LinearDae(e_dae, a_dae, b_dae, p)


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
    """LU factorization of a fixed stage matrix P, reused across all steps.

    P is kept once, as canonical CSR (sorted, summed entries), and its
    arrays are read without a copy as the CSC arrays of Pᵀ, which is what
    is factored; P x = rhs is solved through that factor with SuperLU's
    transposed triangular solves (`trans="T"`), the faster of its two solve
    loops on the FE pencils.  Pᵀ is factored once with the column ordering
    `permc_spec`.  Without one it is factored with the MMD_AT_PLUS_A and
    with the COLAMD ordering, and the factor that stores fewer entries
    (SuperLU's `nnz`, supernode blocks included: what the triangular
    solves read) is kept, COLAMD on a tie; `permc_spec` then names the
    ordering kept; COLAMD on Pᵀ orders the rows of P.  MMD is the sparser
    on the pencils of fine meshes (243k entries against 397k at n = 4952),
    COLAMD on coarse ones (about 30k against 33k at n ≈ 743).  Only one
    factor is alive at a time.
    `solve` checks the residual of each solve against `_RESIDUAL_BOUND`
    and refines it once or twice if needed, which keeps it near round-off
    even when the stage matrix mixes badly scaled physical blocks, and
    raises NumericalError on a non-finite solution.  Every stage solve of
    `simulate`'s sparse path is one call of `solve`.
    """

    def __init__(self, mat, context: str, permc_spec: str = None):
        self._context = context
        mat = sp.csr_array(mat)
        if not mat.has_canonical_format:
            # splu sums the duplicates of its CSC input in place, which
            # would corrupt the CSR matrix that shares its arrays
            mat = mat.copy()
            mat.sum_duplicates()
        self._mat = mat
        what = (f"stage matrix ({context}); the matrix pencil may be "
                f"irregular or the model inconsistent")
        p_t = sp.csc_matrix((mat.data, mat.indices, mat.indptr),
                            shape=mat.shape[::-1])
        if permc_spec is None:
            mmd_nnz = _splu(p_t, what, "MMD_AT_PLUS_A").nnz
            permc_spec = "COLAMD"
            self._lu = _splu(p_t, what, permc_spec)
            if mmd_nnz < self._lu.nnz:
                del self._lu
                permc_spec = "MMD_AT_PLUS_A"
                self._lu = _splu(p_t, what, permc_spec)
        else:
            self._lu = _splu(p_t, what, permc_spec)
        self.permc_spec = permc_spec
        self._row_scale = float(abs(mat).sum(axis=1).max(initial=0.0))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = self._lu.solve(rhs, "T")  # trans="T": P x = rhs
        for _ in range(2):
            r = rhs - self._mat @ x
            scale = self._row_scale * np.abs(x).max(initial=0.0)
            bound = _RESIDUAL_BOUND * _EPS * (np.abs(rhs).max(initial=0.0)
                                              + scale)
            if np.abs(r).max(initial=0.0) <= bound:
                break
            x = x + self._lu.solve(r, "T")
        if not np.isfinite(x).all():
            raise NumericalError(f"non-finite stage solution ({self._context})")
        return x


def _pencil_solver(dae: LinearDae, mat, context: str) -> _StageSolver:
    """The `_StageSolver` of a pencil E_dae − τλ A_dae of `dae`.  All of
    them share one pattern, so the first pencil factored on the DAE runs
    the ordering trial of `_StageSolver`, and every later one, of another
    λ, τ or method, is factored once with the ordering kept."""
    solver = _StageSolver(mat, context, dae._permc_spec)
    object.__setattr__(dae, "_permc_spec", solver.permc_spec)
    return solver


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
    stepping_path names the path `simulate` took, "condensed" or "sparse",
    and differential_coordinates is r, the rank of E_dae (None when the
    constraint rows could not be formed).  On the sparse path the energies
    and outputs are computed from the full states, so hamiltonians[k] is
    `hamiltonian` of states[k] bit for bit; on the condensed path they are
    forms on the coordinates (`_condensed_audit`), equal to those of the
    states to round-off.
    """

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    hamiltonians: np.ndarray
    dissipated_cum: np.ndarray
    supplied_cum: np.ndarray
    state_labels: tuple
    output_labels: tuple
    # "condensed" or "sparse", and r, the rank of E_dae (`simulate`)
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


# blocks of `block_rows` states held between two energy audits (about 8 MB):
# with spans of one block, interleaved with the steps, the audit of 500
# steps at n = 4952 took 86 ms against 68 ms with spans of eight
_SPAN_BLOCKS = 8


def step_count(tau: float, t_end: float, t0: float = 0.0) -> int:
    """Steps of the grid t0, t0 + tau, ..., t_end.  StructureError when tau
    is not positive and finite, t_end − t0 not finite, or tau does not
    divide t_end − t0."""
    if not (0.0 < tau < math.inf and math.isfinite(t_end - t0)):
        raise StructureError(
            "tau must be positive and finite, t_end - t0 finite")
    length = t_end - t0
    n_steps_f = length / tau
    n_steps = int(round(n_steps_f))
    if n_steps < 1 or abs(n_steps_f - n_steps) > 1e-9 * max(1.0, n_steps_f):
        raise StructureError(
            f"tau = {tau} does not divide the interval of length {length}")
    return n_steps


def simulate(sys: EnergySystem, z0: np.ndarray, u, tau: float, t_end: float,
             method, t0: float = 0.0, keep=None) -> Trajectory:
    """March the system on the equidistant grid t0, t0+tau, ..., t_end.

    tau must divide t_end − t0 (`step_count`).  Identical inputs produce
    bit-identical trajectories: stepping is sequential, and every matrix a
    step applies is formed before the first step and reused by every step.
    The input u is sampled once per node offset for the whole grid before
    the first step, as one array (`_input_grid`: `at` of a waveform stack,
    one call per time of a plain callable); the stepper and the energy
    bookkeeping read the same values.

    Two paths step the same scheme, and `_condensed_map` chooses between
    them from counts known before anything is factored (`_condenses`).
    The condensed path takes an index-1 system with few differential
    coordinates x = E_dae[R] z and steps the ODE ẋ = A_r x + B_r u with
    r×r propagators, the input terms of the whole grid formed up front
    (`_condensed_run`); each state is V x + G v + μ δ, and the audit reads
    the coordinates only.  The sparse path takes every other system, an
    index-2 one included, and solves n×n pencils with the column ordering
    chosen once per system (`_pencil_solver`), one span of
    `_SPAN_BLOCKS` · `block_rows(n)` states at a time (`_sparse_run`).
    Every stage solve is checked on its own for finiteness and residual,
    and refined if needed (`_StageSolver.solve`).  After a span the loop
    audits it
    (`_energy_bookkeeping`: outputs, dissipated power and H, from the full
    states); the last state of a span (and for BDF2 the one before it)
    starts the next.  The two paths agree to round-off.  On both, a
    non-finite input or solution raises NumericalError naming the step
    and its time (and on the sparse path the pencil).

    Only the state columns `keep` names are stored, a 1-D array of indices
    in [0, n), in that order; `keep=None` keeps every column.  Which columns
    are kept changes no value: the arithmetic of every step, of the audit
    and of each column is the same.  Memory is O(span · n + steps · |keep|)
    on the sparse path and O(n · r + steps · |keep|) on the condensed one.
    """
    method = method_from_tag(method)
    n_steps = step_count(tau, t_end, t0)

    p = sys.partition
    z0 = np.asarray(z0, dtype=np.float64)
    if z0.shape != (p.n,):
        raise StructureError(f"z0: expected length {p.n}, got {z0.shape}")
    cols = _kept_columns(keep, p.n)
    times = t0 + tau * np.arange(n_steps + 1)
    u_at = _input_grid(_resolve_input(u, p.m), times[:-1])
    dae = to_linear_dae(sys)
    r, cmap = _condensed_map(dae)
    endpoint = method.tag == "implicit_euler"
    if cmap is None:
        states, outputs, dissipated, h = _sparse_run(
            sys, dae, method, tau, times, u_at, z0, cols, endpoint)
    else:
        states, outputs, dissipated, h = _condensed_run(
            sys, cmap, method, tau, times, u_at, z0, cols, endpoint)

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
                      sys.default_output_labels(),
                      "sparse" if cmap is None else "condensed", r)


def _sparse_run(sys, dae, method, tau, times, u_at, z0, cols, endpoint):
    """States (the columns `cols`, or all), outputs, dissipated powers and
    H of `simulate` on the sparse path: spans of full states stepped by
    `_make_stepper` and audited by `_energy_bookkeeping`."""
    p = sys.partition
    n_steps = len(times) - 1
    march = _make_stepper(dae, method, tau, times, u_at)
    span = _SPAN_BLOCKS * block_rows(p.n)
    if cols is None:
        states = buf = np.empty((n_steps + 1, p.n))
    else:
        states = np.empty((n_steps + 1, cols.size))
        states[0] = z0[cols]
        buf = np.empty((min(span, n_steps) + 1, p.n))
    buf[0] = z0
    outputs = np.zeros((n_steps + 1, p.m))
    dissipated = np.empty(n_steps)
    h = np.empty(n_steps + 1)
    h[0] = hamiltonian(sys, buf[:1])[0]
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
    return states, outputs, dissipated, h


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


def _stepping_plans(method: Method, tau: float, u_at, n_steps: int):
    """(first, stop, m, pencils, history, u_nodes) of each plan of a method
    on n_steps steps, BDF2 taking trapezoidal's for step 0: method m steps
    first..stop−1 by its `_pencil_plan` (pencils, history), and u_nodes[k, i]
    is the grid input `u_at` at node i of step first + k, u(t_k + c_i τ)."""
    startup = [method_from_tag("trapezoidal")] if method.tag == "bdf2" else []
    plans = []
    for first, m in enumerate(startup + [method]):
        stop = None if m is method else first + 1
        nodes, pencils, history = _pencil_plan(m)
        u_nodes = np.stack([u_at(float(ci) * tau, first, stop)
                            for ci in nodes], axis=1)
        plans.append((first, stop or n_steps, m, pencils, history, u_nodes))
    return plans


def _make_stepper(dae: LinearDae, method: Method, tau: float, times, u_at):
    """Bind the stepping of the grid `times`, factorizing the transpose of
    every pencil up front with the ordering of the system (`_pencil_solver`),
    each kept once, as the CSR arrays of the pencil: per pencil
    (λ_j, r_j, γ_j) of `_pencil_plan` a step solves
    (E − τλ_j A) w_j = (Σ_i r_ji) A z + B Σ_i r_ji u(t + c_i τ)
    + h E (z − z⁻)/τ, and z⁺ = z + τ Σ_j Re(γ_j w_j), summed in pencil
    order straight into the state's row (Re is taken of a conjugate pair's
    complex w only).  BDF2's first step is trapezoidal's
    (`_stepping_plans`).  The input term is formed for every step before
    the first, from the grid inputs `u_at` of `_input_grid` and on the rows
    that B reaches only; a step then does one product A z and, per pencil,
    one indexed add and one `_StageSolver.solve`, a transposed solve with
    the factor of the pencil's transpose, which checks and refines the
    solve and raises NumericalError on a non-finite solution.  The input
    term and the steps are computed with numpy's overflow and invalid-value
    warnings off: a non-finite value they produce reaches `solve`, which
    reports it.

    Returns march(first, states, z_prev): steps states[1:] from states[0],
    whose step is `first` and whose predecessor is z_prev (read by BDF2).
    """
    src = np.flatnonzero(np.diff(dae.B_dae.indptr))
    b_src = dae.B_dae[src]
    plans = []
    for first, _, m, pencils, history, u_nodes in _stepping_plans(
            method, tau, u_at, len(times) - 1):
        solvers = []
        for lam, row, weight in pencils:
            solver = _pencil_solver(
                dae, dae.E_dae - (tau * lam) * dae.A_dae,
                f"{m.tag}, lambda = {lam:.6g}, tau = {tau}")
            # a non-finite input surfaces as a non-finite stage solution
            with np.errstate(over="ignore", invalid="ignore"):
                b_u = (b_src @ (row @ u_nodes).T).T
            solvers.append((solver, row.sum(), b_u, weight,
                            np.iscomplexobj(weight)))
        plans.append((first, solvers, history / tau))

    def step(k, z, z_prev, z_next):
        """Write the state after step k from z (and z_prev) into z_next."""
        first, pencils, lag = plans[min(k, len(plans) - 1)]
        az = dae.A_dae @ z
        acc = z
        for solver, row_sum, b_u, weight, pair in pencils:
            rhs = row_sum * az
            rhs[src] += b_u[k - first]
            if lag:
                rhs += lag * (dae.E_dae @ (z - z_prev))
            inc = weight * solver.solve(rhs)
            np.add(acc, tau * (inc.real if pair else inc), out=z_next)
            acc = z_next

    def march(first, states, z_prev):
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(len(states) - 1):
                k = first + j
                try:
                    step(k, states[j], states[j - 1] if j else z_prev,
                         states[j + 1])
                except NumericalError as exc:
                    raise NumericalError(
                        f"step {k + 1} at t = {times[k]}: {exc}") from exc
    return march


# ---------------------------------------------------------------------------
# condensed stepping of index-1 systems
# ---------------------------------------------------------------------------

def _condenses(dae: LinearDae, r: int) -> bool:
    """The cost rule of `simulate`: step on the r differential coordinates
    when V, n×r and dense, stores no more entries than the LU factor of any
    pencil E_dae − τλ A_dae can: the pencil's entries and the n unit
    diagonal entries of L, n·r ≤ |pattern(E_dae) ∪ pattern(A_dae)| + n.  So
    V never outgrows the factor it replaces, and the r×r product of a step
    costs less than a solve with that factor.  The counts are known before
    anything is factored, and the union is counted once per DAE
    (`_pattern_union`).  The solid conductor with a conductive core at
    h = 0.5 mm (n·r = 3084 · 642 ≈ 2.0M against 24.6k) stays sparse."""
    if dae._union is None:
        object.__setattr__(dae, "_union", _pattern_union(dae))
    n = dae.partition.n
    return n * r <= dae._union + n


def _pattern_union(dae: LinearDae) -> int:
    """|pattern(E_dae) ∪ pattern(A_dae)|, the positions where either stores
    a nonzero: A_dae's count plus E_dae's entries that A_dae does not hold,
    found by looking up E_dae's few entries in A_dae's rows that they touch,
    sorted as keys row·n + column.  No sum of the two is formed, and the
    shared rewrite is only read."""
    n = dae.partition.n
    e_rows, e_cols, e_vals = csr_entries(dae.E_dae)
    e_keys = e_rows[e_vals != 0] * n + e_cols[e_vals != 0]
    a = dae.A_dae
    touched = np.unique(e_keys // n)
    starts, counts = a.indptr[touched], np.diff(a.indptr)[touched]
    at = (np.repeat(starts - np.cumsum(counts) + counts, counts)
          + np.arange(counts.sum()))
    held = a.data[at] != 0
    a_keys = np.sort(np.repeat(touched, counts)[held] * n + a.indices[at][held])
    found = np.minimum(np.searchsorted(a_keys, e_keys), a_keys.size - 1)
    shared = np.count_nonzero(a_keys[found] == e_keys) if a_keys.size else 0
    return np.count_nonzero(a.data[:a.indptr[-1]]) + e_keys.size - shared


@dataclass(frozen=True)
class _CondensedMap:
    """The state-space form ẋ = A_r x + B_r u of an index-1 DAE on its
    differential coordinates x = E_dae[R] z.  Every consistent state is
    z = V x + G u, with V = M⁻¹[I; 0] and G = M⁻¹[0; −D] for
    M = [E_dae[R]; C]; A_r = A_dae[R] V and B_r = A_dae[R] G + B_dae[R]."""

    e_rows: object      # E_dae[R], r × n, sparse
    V: np.ndarray       # n × r
    G: np.ndarray       # n × m
    A_r: np.ndarray     # r × r
    B_r: np.ndarray     # r × m


def _condensed_map(dae: LinearDae):
    """(r, the `_CondensedMap` of dae, or None for the sparse path): None
    when the cost rule `_condenses` keeps the system sparse, or when M is
    singular, which makes the index 2 or more.  The map is built on first
    use and kept on the DAE; the rule is evaluated on every call.  The
    steps read only R and the map, so the constraint rows (C, D) are let
    go here: on the sparse path they would stay alive next to the pencil
    factors (0.24 MB on `mixed_ports`).  A DAE whose constraint rows cannot
    be formed (a singular pivot block, which `consistent_init` reports)
    steps sparse, with r unknown (None)."""
    rows = dae._rows
    if rows is None:
        try:
            rows = _constraint_basis(dae)[2]
        except NumericalError:
            return None, None
    cmap = None
    if _condenses(dae, rows.size):
        if dae._condensed is None:
            c_mat, d_mat, _ = _constraint_basis(dae)
            object.__setattr__(dae, "_condensed", _build_condensed(
                dae, c_mat, d_mat, rows) or False)
        cmap = dae._condensed or None
    object.__setattr__(dae, "_constraints", None)
    return rows.size, cmap


def _build_condensed(dae: LinearDae, c_mat, d_mat, rows):
    """The `_CondensedMap` of dae with its rows R and constraint rows
    (C, D), or None when M = [E_dae[R]; C] is singular: SuperLU finds it
    exactly singular, or the scaled M has a pivot ratio
    min|U_ii| / max|U_ii| below `_PIVOT_RATIO`.  M is scaled to unit
    largest entries in its rows, then by powers of two into [½, 1) in its
    columns, so the ratio does not read the circuit's units as an index
    (`suffix_tour`); a power of two changes no pivot choice and no bit of
    the solve.  M is factored once (COLAMD) and freed once V and G are
    formed by one solve with r + m right sides, unscaled."""
    n, m, r = dae.partition.n, dae.partition.m, rows.size
    e_rows = dae.E_dae[rows]
    mat = sp.vstack([e_rows, c_mat], format="csr")
    row_max = _row_max_abs(mat)
    if not row_max.all():
        return None
    scale = 1.0 / row_max
    m_rows, m_cols, m_vals = csr_entries(mat)
    m_vals = scale[m_rows] * m_vals
    # an empty column keeps the scale 1, and SuperLU finds M singular
    col_max = np.zeros(n)
    np.maximum.at(col_max, m_cols, np.abs(m_vals))
    col_scale = np.ldexp(1.0, -np.frexp(col_max)[1])
    try:
        lu = _splu(csr_from_entries([(m_rows, m_cols,
                                      m_vals * col_scale[m_cols])],
                                    (n, n), like=(mat,)), "condensing matrix")
    except NumericalError:
        return None
    u_diag = np.abs(lu.U.diagonal())
    if u_diag.min(initial=np.inf) < _PIVOT_RATIO * u_diag.max(initial=0.0):
        return None
    d_rows, d_cols, d_vals = csr_entries(d_mat)
    eye = np.arange(r)
    rhs = csr_from_entries(
        [(eye, eye, scale[:r]),
         (r + d_rows, r + d_cols, -scale[r + d_rows] * d_vals)],
        (n, r + m)).toarray()
    sol = col_scale[:, None] * lu.solve(rhs) if rhs.size else rhs
    del lu
    v, g = sol[:, :r], sol[:, r:]
    a_rows = dae.A_dae[rows]
    return _CondensedMap(e_rows, v, g, a_rows @ v,
                         a_rows @ g + dae.B_dae[rows].toarray())


def _condensed_plans(cmap: _CondensedMap, method: Method, tau: float, u_at,
                     n_steps: int):
    """The stepping of ξ = [x; v; μ] per plan, as (first, stop, Ψ, g):
    steps first..stop−1 set ξ_{k+1} = Ψ ξ_k + g_k, or for BDF2, which adds
    L (x_k − x_{k−1}) to x, ξ_{k+1} = Ψ [ξ_{k−1}; ξ_k] + g_k with the q×2q
    Ψ = [−L 0; Ψ + L], one product of the two rows ξ_{k−1}, ξ_k as they
    lie in memory.  Each pencil (λ_j, r_j, γ_j) of `_pencil_plan` is the
    r×r matrix P_j = I − τλ_j A_r, and with s_j = Σ_i r_ji and U_k the
    inputs at the nodes of step k
        x⁺ = x + τ Σ_j Re γ_j P_j⁻¹ (s_j A_r x + B_r r_j U_k + h (x − x⁻)/τ),
        v⁺ = R∞ v + Σ_j Re (γ_j/λ_j) r_j U_k,   μ⁺ = R∞ μ,
    with R∞ = 1 − Σ_j Re γ_j s_j/λ_j: the sparse step on the state
    V x + G v + μ δ (with the C rows of that step, C z⁺ = R∞ C z −
    D Σ_j Re(γ_j/λ_j) r_j U_k) gives the state V x⁺ + G v⁺ + μ⁺ δ.  The
    inputs of every step of a plan (`_stepping_plans`) are formed at
    once."""
    r, m = cmap.B_r.shape
    eye = np.eye(r)
    plans = []
    for first, stop, _, pencils, history, u_nodes in _stepping_plans(
            method, tau, u_at, n_steps):
        psi = np.zeros((r + m + 1, r + m + 1))
        psi[:r, :r] = eye
        lag = np.zeros((r, r)) if history else None
        g = np.zeros((len(u_nodes), r + m + 1))
        r_inf = 1.0
        for lam, row, weight in pencils:
            pencil = eye - (tau * lam) * cmap.A_r
            sol = np.linalg.solve(pencil, np.hstack(
                [cmap.A_r, cmap.B_r] + ([eye] if history else [])))
            u_row = row @ u_nodes
            psi[:r, :r] += (tau * weight * row.sum() * sol[:, :r]).real
            g[:, :r] += (tau * weight * (u_row @ sol[:, r : r + m].T)).real
            g[:, r : r + m] += (weight / lam * u_row).real
            if history:
                lag += (history * weight * sol[:, r + m :]).real
            r_inf -= (weight * row.sum() / lam).real
        psi[r:, r:] = r_inf * np.eye(m + 1)
        if history:
            psi = np.hstack((np.zeros_like(psi), psi))
            psi[:r, :r] = -lag
            psi[:r, r + m + 1 : 2 * r + m + 1] += lag
        plans.append((first, stop, psi, g))
    return plans


def _condensed_run(sys, cmap: _CondensedMap, method, tau, times, u_at, z0,
                   cols, endpoint):
    """States (the columns `cols`, or all), outputs, dissipated powers and
    H of `simulate` on the condensed path.  ξ_0 = [E_dae[R] z0; u(t0); 1]
    and δ = z0 − V x0 − G v0, which holds what of z0 is not a consistent
    state (it is round-off after `consistent_init`), so that every state is
    Φ ξ_k with the basis Φ = [V G δ] and z0 = Φ ξ_0.  The coordinates are
    stepped for the whole grid (`_condensed_plans`), tested for finiteness
    (NumericalError naming the first non-finite step and its time), and
    audited (`_condensed_audit`).  A stored column i is Σ_j ξ_j Φ_ij,
    summed one basis column j at a time in order, so it has the same bits
    whichever columns are kept."""
    n_steps = len(times) - 1
    r, m = cmap.B_r.shape
    xi = np.empty((n_steps + 1, r + m + 1))
    x0, v0 = cmap.e_rows @ z0, u_at(0.0, 0, 1)[0]
    xi[0] = np.concatenate((x0, v0, [1.0]))
    basis = np.column_stack((cmap.V, cmap.G,
                             z0 - cmap.V @ x0 - cmap.G @ v0))
    # a non-finite input or state ends in a non-finite ξ, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for first, stop, psi, g in _condensed_plans(cmap, method, tau, u_at,
                                                    n_steps):
            # what the step reads: ξ_k, or for BDF2 ξ_{k−1} and ξ_k, which
            # are row k − 1 of the windows of two rows of ξ
            back = psi.shape[1] // xi.shape[1] - 1
            reads = xi if not back else sliding_window_view(
                xi.reshape(-1), psi.shape[1])[:: xi.shape[1]]
            for k in range(first, stop):
                np.dot(psi, reads[k - back], out=xi[k + 1])
                xi[k + 1] += g[k - first]
    finite = np.isfinite(xi).all(axis=1)
    finite[0] &= bool(np.isfinite(basis).all())
    if not finite.all():
        k = max(int(np.argmin(finite)), 1)
        raise NumericalError(f"step {k} at t = {times[k - 1]}: non-finite "
                             f"state ({method.tag}, condensed)")
    kept = np.ascontiguousarray((basis if cols is None else basis[cols]).T)
    states = np.empty((n_steps + 1, kept.shape[1]))
    states[0] = z0 if cols is None else z0[cols]
    rows = block_rows(kept.shape[1])
    for lo in range(1, n_steps + 1, rows):
        blk, coef = states[lo : lo + rows], xi[lo : lo + rows]
        np.multiply(coef[:, :1], kept[0], out=blk)
        for j in range(1, len(kept)):
            blk += coef[:, j : j + 1] * kept[j]
    outputs = np.zeros((n_steps + 1, sys.partition.m))
    h = np.empty(n_steps + 1)
    h[0] = hamiltonian(sys, z0[None])[0]
    outputs[1:], dissipated, h[1:] = _condensed_audit(sys, basis, xi, tau,
                                                      endpoint)
    return states, outputs, dissipated, h


def _condensed_audit(sys: EnergySystem, basis: np.ndarray, xi: np.ndarray,
                     tau: float, endpoint: bool):
    """Port outputs, dissipated powers and H of the steps between the rows
    of ξ, as `_energy_bookkeeping` gives them for the states Φ ξ, without
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


def _row_blocks(rows, cols, n_rows: int, n_cols: int) -> np.ndarray:
    """Block label of each of n_rows rows, given entries (rows, cols) that
    reach every row: two rows share a block when they share a column, and
    the blocks are numbered in the order of their first row.  A union of
    rows over the entry arrays: every entry joins its row to the first row
    of its column; each round hooks the larger of two roots an entry joins
    under the smaller, then points every row at its root, until no entry
    joins two roots.  Roots only ever hook under smaller rows, so a root is
    the first row of its block."""
    parent = np.arange(n_rows)
    first = np.full(n_cols, n_rows)
    np.minimum.at(first, cols, rows)
    joined = first[cols]
    while True:
        a, b = parent[rows], parent[joined]
        apart = a != b
        if not apart.any():
            break
        a, b = a[apart], b[apart]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    return np.unique(parent, return_inverse=True)[1]


def _left_null_basis(rows, cols, vals, n_rows: int):
    """Sparse basis V of the left null space of the n_rows-row matrix with
    the entries (rows, cols, vals), Vᵀ mat = 0, as the entries (rows,
    columns, values) of V, its column count and `width` dependent rows: a
    unit vector per zero row, then one dense SVD per connected block of the
    other rows (two rows share a block when they share a column), blocks in
    the order of their first row.  Zero entries are left out, of the matrix
    and of V; the entries of a row of V come in ascending columns.

    The dependent rows are the zero rows and, per block with a null space
    of k < its rows, the k rows a column-pivoted QR of the block's null
    vectors picks; V on them is nonsingular, so the rows of the matrix
    that are left are independent."""
    stored = vals != 0.0
    rows, cols, vals = rows[stored], cols[stored], vals[stored]
    is_zero = np.ones(n_rows, dtype=bool)
    is_zero[rows] = False
    zero_rows, nz_rows = np.flatnonzero(is_zero), np.flatnonzero(~is_zero)
    local = np.searchsorted(nz_rows, rows)
    col_ids, col_of = np.unique(cols, return_inverse=True)
    labels = _row_blocks(local, col_of, nz_rows.size, col_ids.size)
    blocks = labels.max(initial=-1) + 1
    row_order = np.argsort(labels, kind="stable")
    row_at = np.zeros(blocks + 1, dtype=np.intp)
    np.cumsum(np.bincount(labels, minlength=blocks), out=row_at[1:])
    entry_order = np.argsort(labels[local], kind="stable")
    entry_at = np.zeros(blocks + 1, dtype=np.intp)
    np.cumsum(np.bincount(labels[local], minlength=blocks),
              out=entry_at[1:])
    parts = [(zero_rows, np.arange(zero_rows.size), np.ones(zero_rows.size))]
    dependent = [zero_rows]
    width = zero_rows.size
    for b in range(blocks):
        blk = row_order[row_at[b] : row_at[b + 1]]
        at = entry_order[entry_at[b] : entry_at[b + 1]]
        blk_cols = np.unique(col_of[at])
        dense = np.zeros((blk_cols.size, blk.size))
        dense[np.searchsorted(blk_cols, col_of[at]),
              np.searchsorted(blk, local[at])] = vals[at]
        null = scipy.linalg.null_space(dense)
        i, j = np.nonzero(null)
        parts.append((nz_rows[blk[i]], width + j, null[i, j]))
        k = null.shape[1]
        picked = (scipy.linalg.qr(null.T, mode="r", pivoting=True)[1][:k]
                  if 0 < k < blk.size else np.arange(k))
        dependent.append(nz_rows[blk[picked]])
        width += k
    return (*map(np.concatenate, zip(*parts)), width,
            np.concatenate(dependent))


def _constraint_basis(dae: LinearDae):
    """Sparse algebraic constraint rows (C, D): C x + D u = 0 holds on every
    solution of E ẋ = A x + B u; and the rows R of E that are left when the
    dependent rows of the left null basis are taken out, r = n − rows(C)
    independent rows of E.  Built once per DAE and kept on it, so that
    `consistent_init` and the `simulate` calls after it share them (the
    first `simulate` lets C and D go, and a later call forms them again).

    The rows are vᵀA and vᵀB for a basis of the left null space of E, taken
    after every row of [E A B] is scaled to unit size so rank detection is
    not thrown off by mixed physical units.  The gradient states P with a
    nonzero diagonal of F11 = (J−R)₁₁ (the conductive nodes, F11 = −M_σ)
    are eliminated by one sparse LU of E[P, P] (`_eliminate_pivots`); a
    system without them, every circuit, factors nothing here.  In what
    remains (`_left_null_basis`) zero rows are a row selection; only the
    circuit and coupling rows get a dense SVD per connected block.
    """
    if dae._constraints is None:
        c_mat, d_mat, rows = _constraint_rows(dae)
        object.__setattr__(dae, "_constraints", (c_mat, d_mat))
        object.__setattr__(dae, "_rows", rows)
    return (*dae._constraints, dae._rows)


def _constraint_rows(dae: LinearDae):
    """(C, D, R) of `_constraint_basis`, computed."""
    row_max = np.maximum.reduce(
        [_row_max_abs(mat) for mat in (dae.E_dae, dae.A_dae, dae.B_dae)])
    row_max[row_max == 0.0] = 1.0
    scale = 1.0 / row_max
    n, n1 = dae.partition.n, dae.partition.n1
    # the scaled E: each row in descending columns, the order in which the
    # products of its pivot columns sum; exact zeros left out
    rows, cols, vals = csr_entries(dae.E_dae)
    ptr = dae.E_dae.indptr
    flip = ptr[rows] + ptr[rows + 1] - 1 - np.arange(rows.size)
    cols, vals = cols[flip], scale[rows] * vals[flip]
    stored = vals != 0.0
    rows, cols, vals = rows[stored], cols[stored], vals[stored]
    is_piv = np.zeros(n, dtype=bool)
    is_piv[rows[rows == cols]] = True
    is_piv[n1:] = False
    if is_piv.any():
        v_rows, v_cols, v_vals, width, dependent = _eliminate_pivots(
            rows, cols, vals, is_piv, dae.E_dae)
    else:
        v_rows, v_cols, v_vals, width, dependent = _left_null_basis(
            rows, cols, vals, n)
    independent = np.ones(n, dtype=bool)
    independent[dependent] = False
    # Vᵀ D⁻¹, each row in ascending columns
    order = np.argsort(v_rows, kind="stable")
    v_rows, v_cols = v_rows[order], v_cols[order]
    v_vals = scale[v_rows] * v_vals[order]
    stored = v_vals != 0.0
    v_t = csr_from_entries([(v_cols[stored], v_rows[stored],
                             v_vals[stored])], (width, n))
    return v_t @ dae.A_dae, v_t @ dae.B_dae, np.flatnonzero(independent)


def _eliminate_pivots(rows, cols, vals, is_piv, e_dae):
    """Left null basis v of the scaled E of `_constraint_basis`, given by its
    entries, whose pivots `is_piv` are eliminated first: v = [v_P; w] with
    w a left null vector of the Schur remainder E[Q, K] − E[Q, P]
    E[P, P]⁻¹ E[P, K] on the other rows Q and columns K, and v_P =
    −E[P, P]⁻ᵀ E[Q, P]ᵀ w.  Returns the entries of v, its column count and
    its dependent rows, all in Q, as `_left_null_basis` does.  The blocks
    of E keep the index dtype of e_dae, and E[Q, P] the descending column
    order of its rows.  The LU
    keeps COLAMD, the sparser ordering here: on the conductive core block
    MMD_AT_PLUS_A stores 34.2k entries against 13.4k at h = 0.5 mm.
    """
    piv, rest = np.flatnonzero(is_piv), np.flatnonzero(~is_piv)
    pos = np.empty(is_piv.size, dtype=np.intp)
    pos[piv], pos[rest] = np.arange(piv.size), np.arange(rest.size)
    n_p, n_q = piv.size, rest.size
    row_p, col_p = is_piv[rows], is_piv[cols]

    def block(on):
        return pos[rows[on]], pos[cols[on]], vals[on]

    what = (f"gradient-state pivot block F11[P, P] of E_dae "
            f"({n_p} x {n_p})")
    lu = _splu(csr_from_entries([block(row_p & col_p)], (n_p, n_p),
                                like=(e_dae,)), what)
    # the rows are scaled to unit size, so a tiny pivot ratio is a rank
    # defect (a PSD conductivity with a full diagonal), not mixed units
    u_diag = np.abs(lu.U.diagonal())
    if u_diag.min() < _PIVOT_RATIO * u_diag.max():
        raise NumericalError(f"singular {what}")
    e_qp = csr_from_entries([block(~row_p & col_p)], (n_q, n_p),
                            like=(e_dae,))
    s_rows, s_cols, s_vals = block(~row_p & ~col_p)
    pk_rows, pk_cols, pk_vals = block(row_p & ~col_p)
    if pk_rows.size:
        # only the columns E[P, K] touches change; they go last, in order
        touched = np.unique(pk_cols)
        x = sp.csr_array(lu.solve(csr_from_entries(
            [(pk_rows, np.searchsorted(touched, pk_cols), pk_vals)],
            (n_p, touched.size), like=(e_dae,)).toarray()))
        is_t = np.zeros(n_q, dtype=bool)
        is_t[touched] = True
        moved = is_t[s_cols]
        kept = np.cumsum(~is_t) - 1
        t_rows, t_cols, t_vals = csr_entries(csr_from_entries(
            [(s_rows[moved], np.searchsorted(touched, s_cols[moved]),
              s_vals[moved])], (n_q, touched.size), like=(e_dae,))
            - e_qp @ x)
        s_rows = np.concatenate((s_rows[~moved], t_rows))
        s_cols = np.concatenate((kept[s_cols[~moved]],
                                 n_q - touched.size + t_cols))
        s_vals = np.concatenate((s_vals[~moved], t_vals))
    w_rows, w_cols, w_vals, width, dependent = _left_null_basis(
        s_rows, s_cols, s_vals, n_q)
    # v_P vanishes for the null vectors w that E[Q, P] does not reach
    hit = np.unique(w_cols[np.diff(e_qp.indptr)[w_rows] > 0])
    on_hit = np.isin(w_cols, hit)
    w_hit = csr_from_entries([(w_rows[on_hit],
                               np.searchsorted(hit, w_cols[on_hit]),
                               w_vals[on_hit])], (n_q, hit.size))
    v_p = -lu.solve((e_qp.T @ w_hit).toarray(), trans="T")
    i, j = np.nonzero(v_p)
    return (np.concatenate((piv[i], rest[w_rows])),
            np.concatenate((hit[j], w_cols)),
            np.concatenate((v_p[i, j], w_vals)), width, rest[dependent])


def _sparse_least_squares(mat, rhs) -> np.ndarray:
    """Least-squares x of mat x ≈ rhs, 0 in empty columns (all of x when
    mat has no nonzero entry, which factors nothing): G and b are mat
    and rhs without empty rows, each row scaled to unit largest entry, and
    the augmented system [[I, G], [Gᵀ, 0]] [r; x] = [b; 0], built in one
    construction, is factored once by `splu` with COLAMD: MMD_AT_PLUS_A
    turns the KKT factor of `index2` (n = 1557) from 115k into 571k entries
    and 9.5 into 61 ms."""
    rows, cols, vals = csr_entries(mat)
    stored = vals != 0.0
    rows, cols, vals = rows[stored], cols[stored], vals[stored]
    nz_rows, used = np.unique(rows), np.unique(cols)
    x = np.zeros(mat.shape[1])
    if not nz_rows.size:
        return x
    scale = 1.0 / _row_max_abs(mat)[nz_rows]
    r_of, c_of = np.searchsorted(nz_rows, rows), np.searchsorted(used, cols)
    g = scale[r_of] * vals
    stored = g != 0.0
    r_of, c_of, g = r_of[stored], c_of[stored], g[stored]
    n_r = nz_rows.size
    by_row, by_col = np.lexsort((c_of, r_of)), np.lexsort((r_of, c_of))
    eye = np.arange(n_r)
    kkt = csr_from_entries([(eye, eye, np.ones(n_r)),
                            (r_of[by_row], n_r + c_of[by_row], g[by_row]),
                            (n_r + c_of[by_col], r_of[by_col], g[by_col])],
                           (n_r + used.size, n_r + used.size), like=(mat,))
    lu = _splu(kkt, f"initialization least squares "
                    f"({n_r} x {used.size})")
    sol = lu.solve(np.concatenate((scale * rhs[nz_rows],
                                   np.zeros(used.size))))
    x[used] = sol[n_r:]
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
    c_mat, d_mat, _ = _constraint_basis(dae)
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
