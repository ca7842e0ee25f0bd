"""The stepping layer: the methods, and the three paths that step a
`LinearDae` on an equidistant grid with them.

Every method is a plan of pencils (`_pencil_plan`): a step solves for the
increment with one pencil E_dae − τλ A_dae per real λ and per conjugate
pair, never a stacked sn×sn stage system.  Every method with an invertible
Butcher matrix (midpoint, implicit Euler, Gauss-4, Radau IIA of order 5)
takes λ from the eigenvalues of that matrix (one real solve for midpoint
and implicit Euler, one complex for Gauss-4, one real and one complex for
Radau IIA); trapezoidal (λ = ½) and BDF2 (λ = ⅔, after a trapezoidal first
step) are one real pencil each.

The plan is stepped on one of three paths (`stepping_map`).  An index-1
system whose rank r of E_dae is small steps on its differential
coordinates x = E_dae[R] z, with R r independent rows of E_dae: with the
constraint rows (C, D) of `constraint_basis` and M = [E_dae[R]; C], every
consistent state is z = V x + G u, V = M⁻¹[I; 0] and G = M⁻¹[0; −D], and
the DAE is the ODE ẋ = A_r x + B_r u, A_r = A_dae[R] V,
B_r = A_dae[R] G + B_dae[R] (the state-space form of Hairer & Wanner,
Solving ODEs II, §VI.1; Kron reduction in circuit theory).  Each pencil is
then the dense r×r I − τλ A_r, and a step is one product with a propagator
(`condensed_run`).  The cost rule `_condenses` takes this path when V,
n×r, stores no more entries than the LU factor of any pencil can.

An index-1 system that the rule does not condense, whose rows R touch
exactly r columns K, steps on the reduced path: C[:, N] on the other
columns is factored once, the states z_N are eliminated from every pencil
at once (static condensation), and each pencil is the r×r sparse
E_dae[R, K] − τλ Ã, stepped by `_make_stepper` like the full one; z_N is
rebuilt from z_K by a dense lift (`sparse_run` with a `_ReducedMap`).  The
cost rule `_reduces` takes this path when the lift fits the span buffer.

Every other system, a singular M or C[:, N] (index 2 or more) included,
steps on the sparse path, the full pencils (`sparse_run`), each an n×n
sparse LU.  On the reduced and the sparse path every solve is checked on
its own (`_StageSolver.solve`).  The three paths agree to round-off and
keep the same discrete power balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import scipy.sparse as sp

from fieldcircuit._audit import condensed_audit, energy_bookkeeping
from fieldcircuit._dae import (_PIVOT_RATIO, LinearDae, _row_max_abs, _splu,
                               constraint_basis)
from fieldcircuit.structure import (NumericalError, Partition, StructureError,
                                   block_rows, csr_entries, csr_from_entries,
                                   hamiltonian)


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

METHOD_TAGS = tuple(_TABLEAUX)


def method_from_tag(tag) -> Method:
    if isinstance(tag, Method):
        return tag
    if tag not in _TABLEAUX:
        raise ValueError(
            f"unknown method '{tag}'; choose from {', '.join(METHOD_TAGS)}")
    return Method(tag, *_TABLEAUX[tag])


_EPS = np.finfo(np.float64).eps
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
        x = self._lu.solve(rhs, trans="T")  # P x = rhs
        for _ in range(2):
            r = rhs - self._mat @ x
            scale = self._row_scale * np.abs(x).max(initial=0.0)
            bound = _RESIDUAL_BOUND * _EPS * (np.abs(rhs).max(initial=0.0)
                                              + scale)
            if np.abs(r).max(initial=0.0) <= bound:
                break
            x = x + self._lu.solve(r, trans="T")
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
    (`_stepping_plans`).  The weighted inputs Σ_i r_ji u(t + c_i τ) are
    formed for every step before the first, from the grid inputs `u_at` of
    `_input_grid`, m values per step; B times them, on the rows that B
    reaches only, is formed for the steps of each `march` call at once, so
    no input term of every step × those rows is held (232 rows of the
    reduced B̃ of the 0.5 mm solid core).  A step then does one product
    A z and, per pencil, one indexed add and one `_StageSolver.solve`, a
    transposed solve with the factor of the pencil's transpose, which
    checks and refines the solve and raises NumericalError on a non-finite
    solution.  The input terms and the steps are computed with numpy's
    overflow and invalid-value warnings off: a non-finite value they
    produce reaches `solve`, which reports it.

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
                u_row = row @ u_nodes
            solvers.append((solver, row.sum(), u_row, weight,
                            np.iscomplexobj(weight)))
        plans.append((first, solvers, history / tau))

    def step(k, z, z_prev, z_next, terms):
        """Write the state after step k from z (and z_prev) into z_next,
        with the input terms `terms` of the march."""
        i = min(k, len(plans) - 1)
        _, pencils, lag = plans[i]
        lo, b_u = terms[i]
        az = dae.A_dae @ z
        acc = z
        for (solver, row_sum, _, weight, pair), b_k in zip(pencils, b_u):
            rhs = row_sum * az
            rhs[src] += b_k[k - lo]
            if lag:
                rhs += lag * (dae.E_dae @ (z - z_prev))
            inc = weight * solver.solve(rhs)
            np.add(acc, tau * (inc.real if pair else inc), out=z_next)
            acc = z_next

    def march(first, states, z_prev):
        stop = first + len(states) - 1
        with np.errstate(over="ignore", invalid="ignore"):
            # per plan, its first step `lo` here and B times the weighted
            # inputs of its steps lo..stop−1, per pencil
            terms = []
            for p_first, pencils, _ in plans:
                lo = max(first, p_first)
                terms.append((lo, [
                    (b_src @ u_row[lo - p_first : stop - p_first].T).T
                    for _, _, u_row, _, _ in pencils]))
            for j in range(len(states) - 1):
                k = first + j
                try:
                    step(k, states[j], states[j - 1] if j else z_prev,
                         states[j + 1], terms)
                except NumericalError as exc:
                    raise NumericalError(
                        f"step {k + 1} at t = {times[k]}: {exc}") from exc
    return march


# blocks of `block_rows` states held between two energy audits (about 8 MB):
# with spans of one block, interleaved with the steps, the audit of 500
# steps at n = 4952 took 86 ms against 68 ms with spans of eight
_SPAN_BLOCKS = 8


def sparse_run(sys, dae, method, tau, times, u_at, z0, cols, endpoint,
               rmap=None):
    """States (the columns `cols`, or all), outputs, dissipated powers and
    H of `simulate` on the sparse path: spans of full states stepped by
    `_make_stepper` and audited by `energy_bookkeeping`.  With the
    `_ReducedMap` `rmap` (the reduced path) the steps march z_K on the
    reduced DAE instead, `block_rows` steps at a time, and each block's
    full states are rebuilt from it (`_rebuilder`) into the span before
    its audit."""
    p = sys.partition
    n_steps = len(times) - 1
    span = _SPAN_BLOCKS * block_rows(p.n)
    if cols is None:
        states = buf = np.empty((n_steps + 1, p.n))
    else:
        states = np.empty((n_steps + 1, cols.size))
        states[0] = z0[cols]
        buf = np.empty((min(span, n_steps) + 1, p.n))
    buf[0] = z0
    if rmap is None:
        march = _make_stepper(dae, method, tau, times, u_at)
        z_prev = z0  # the state before the span's first, for BDF2
    else:
        march = _make_stepper(rmap.dae, method, tau, times, u_at)
        rebuild = _rebuilder(rmap, method, tau, times, u_at, z0)
        rows = block_rows(p.n)
        coords = np.empty((min(rows, n_steps) + 1, rmap.cols.size))
        z_prev = coords[0] = z0[rmap.cols]
    outputs = np.zeros((n_steps + 1, p.m))
    dissipated = np.empty(n_steps)
    h = np.empty(n_steps + 1)
    h[0] = hamiltonian(sys, buf[:1])[0]
    for base in range(0, n_steps, span):
        stop = min(base + span, n_steps)
        blk = buf[base : stop + 1] if cols is None else buf[: stop - base + 1]
        if rmap is None:
            march(base, blk, z_prev)
            z_prev = blk[-2].copy()
        else:
            for lo in range(0, stop - base, rows):
                z_k = coords[: min(rows, stop - base - lo) + 1]
                march(base + lo, z_k, z_prev)
                rebuild(base + lo, z_k, blk[lo : lo + len(z_k)])
                z_prev = z_k[-2].copy()
                coords[0] = z_k[-1]
        (outputs[base + 1 : stop + 1], dissipated[base:stop],
         h[base + 1 : stop + 1]) = energy_bookkeeping(sys, blk, tau, endpoint)
        if cols is not None:
            states[base + 1 : stop + 1] = blk[1:, cols]
            buf[0] = blk[-1]
    return states, outputs, dissipated, h


def _condenses(dae: LinearDae, r: int) -> bool:
    """The cost rule of `simulate`: step on the r differential coordinates
    when V, n×r and dense, stores no more entries than A_dae and the n unit
    diagonal entries of L, n·r ≤ nnz(A_dae) + n.  The LU factor of any
    pencil E_dae − τλ A_dae stores at least |pattern(E_dae) ∪
    pattern(A_dae)| + n ≥ nnz(A_dae) + n entries, so V never outgrows the
    factor it replaces, and the r×r product of a step costs less than a solve with
    that factor.  The count is known before anything is factored; it is
    read from the stored values, since scipy's `count_nonzero` would sort
    an unsorted A_dae in place.  The solid conductor with a conductive core
    at h = 0.5 mm (n·r = 3084 · 642 ≈ 2.0M against 24.4k) is not condensed;
    it steps on the reduced path (`_reduces`)."""
    a, n = dae.A_dae, dae.partition.n
    return n * r <= np.count_nonzero(a.data[: a.indptr[-1]]) + n


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


def stepping_map(dae: LinearDae):
    """(r, the path of `simulate`, its map) for a DAE: ("condensed", the
    `_CondensedMap`) when the cost rule `_condenses` admits the system and M
    is nonsingular; ("reduced", the `_ReducedMap`) when the rule does not
    and the system has a reduced DAE that `_reduces` admits; otherwise
    ("sparse", None), the full pencils, which take a singular M (index 2 or
    more) too.  Each map is built on first use and kept on the DAE, with
    False where there is none; the rules are evaluated on every call, but
    a reduced map that `_reduces` refuses when first examined is never
    built.  The steps read only R and the maps, so the constraint rows
    (C, D) are let go here: on the sparse path they would stay alive next
    to the pencil factors (0.24 MB on `mixed_ports`).  A DAE whose
    constraint rows cannot be formed (a singular pivot block, which
    `consistent_init` reports) steps sparse, with r unknown (None)."""
    if dae._rows is None:
        try:
            constraint_basis(dae)
        except NumericalError:
            return None, "sparse", None
    rows, dependent = dae._rows
    path, smap = "sparse", None
    if _condenses(dae, rows.size):
        if dae._condensed is None:
            c_mat, d_mat, *_ = constraint_basis(dae)
            object.__setattr__(dae, "_condensed", _build_condensed(
                dae, c_mat, d_mat, rows, dependent) or False)
        if dae._condensed:
            path, smap = "condensed", dae._condensed
    else:
        if dae._reduced is None:
            c_mat, d_mat, *_ = constraint_basis(dae)
            object.__setattr__(dae, "_reduced", _build_reduced(
                dae, c_mat, d_mat, rows) or False)
        rmap = dae._reduced
        if rmap and _reduces(dae.partition.n, *rmap.lift.shape):
            path, smap = "reduced", rmap
    object.__setattr__(dae, "_constraints", None)
    return rows.size, path, smap


def _scaled_lu(mat, what: str, column_scale: bool):
    """(the LU of the transpose of the square CSR matrix `mat` with its rows
    scaled, the row scale), or None when `mat` is singular: a row is empty,
    SuperLU finds it exactly singular, or the scaled matrix has a pivot
    ratio min|U_ii| / max|U_ii| below `_PIVOT_RATIO`.  The rows are scaled
    to unit largest entry, and with `column_scale` the columns by powers of
    two into [½, 1), so the ratio does not read a circuit's units as an
    index (`suffix_tour`).  The transpose is read from the CSR arrays of
    `mat` and ordered with MMD_AT_PLUS_A; it pivots across the columns of
    `mat`, where a power of two would change pivot choices, so the column
    scale is applied to the diagonal of U only, which is what the factor
    with it reads when the power of two changes no pivot choice.
    `mat x = b` is then solved as `lu.solve(scale * b, trans="T")`."""
    n = mat.shape[0]
    row_max = _row_max_abs(mat)
    if not row_max.all():
        return None
    scale = 1.0 / row_max
    m_rows, m_cols, m_vals = csr_entries(mat)
    m_vals = scale[m_rows] * m_vals
    try:
        lu = _splu(sp.csc_matrix((m_vals, mat.indices, mat.indptr),
                                 shape=(n, n)), what, "MMD_AT_PLUS_A")
    except NumericalError:
        return None
    u_diag = np.abs(lu.U.diagonal())
    if column_scale:
        # an empty column keeps the scale 1, and SuperLU finds mat
        # singular; the pivot of step perm_r[j] lies in column j of mat
        col_max = np.zeros(n)
        np.maximum.at(col_max, m_cols, np.abs(m_vals))
        u_diag[lu.perm_r] *= np.ldexp(1.0, -np.frexp(col_max)[1])
    if u_diag.min(initial=np.inf) < _PIVOT_RATIO * u_diag.max(initial=0.0):
        return None
    return lu, scale


def _build_condensed(dae: LinearDae, c_mat, d_mat, rows, dependent):
    """The `_CondensedMap` of dae with its rows R, constraint rows (C, D)
    and the dependent rows of `constraint_basis`, or None when
    M = [E_dae[R]; C] is singular (`_scaled_lu`).

    Each row of M is placed at the row of the DAE it comes from: E_dae[R]
    at R, and row j of C at the dependent row paired with it.  So placed,
    M has the pattern of the stage pencils E_dae − τλ A_dae, and it is
    factored as `_StageSolver` factors them: Mᵀ, row-scaled, is read from
    the CSR arrays of M, ordered with MMD_AT_PLUS_A, and V and G come from
    one transposed solve with r + m right sides, unscaled.  On the lossless
    stranded oscillator the factor stores 243k entries at n = 4952
    (h = 0.4 mm; COLAMD on the placed M: 397k) and 785k at n = 12563
    (0.25 mm; 1.34M); at n = 743 (1 mm) it stores 32.7k against COLAMD's
    30.6k, in the same 1.6 ms, so no ordering trial is made.  M is factored
    once and freed once V and G are formed."""
    n, m, r = dae.partition.n, dae.partition.m, rows.size
    c_rows, c_cols, c_vals = csr_entries(c_mat)
    is_row = np.zeros(n, dtype=bool)
    is_row[rows] = True
    e_rows, e_cols, e_vals = csr_entries(dae.E_dae)
    on = is_row[e_rows]
    mat = csr_from_entries([(e_rows[on], e_cols[on], e_vals[on]),
                            (dependent[c_rows], c_cols, c_vals)], (n, n),
                           like=(dae.E_dae, c_mat))
    factored = _scaled_lu(mat, "condensing matrix", column_scale=True)
    if factored is None:
        return None
    lu, scale = factored
    d_rows, d_cols, d_vals = csr_entries(d_mat)
    eye = np.arange(r)
    d_at = dependent[d_rows]
    rhs = csr_from_entries(
        [(rows, eye, scale[rows]),
         (d_at, r + d_cols, -scale[d_at] * d_vals)], (n, r + m)).toarray()
    sol = lu.solve(rhs, trans="T") if rhs.size else rhs
    del lu
    v, g = sol[:, :r], sol[:, r:]
    a_rows = dae.A_dae[rows]
    return _CondensedMap(dae.E_dae[rows], v, g, a_rows @ v,
                         a_rows @ g + dae.B_dae[rows].toarray())


def _reduces(n: int, eliminated: int, reached: int) -> bool:
    """The cost rule of the reduced path: the dense lift P, N×q, from the q
    constraint rows that K and the inputs reach to the N eliminated
    states, fits the span buffer that the sparse path already holds,
    N·q ≤ `_SPAN_BLOCKS` · `block_rows(n)` · n, about 1.05M entries.  The
    solid conductor with a conductive core needs 2442 · 146 ≈ 0.36M at
    h = 0.5 mm and is reduced; at 0.25 mm it needs 2.8M and steps on the
    full pencils."""
    return eliminated * reached <= _SPAN_BLOCKS * block_rows(n) * n


@dataclass(frozen=True)
class _ReducedMap:
    """The reduced DAE E_dae[R, K] ż_K = Ã z_K + B̃ u of an index-1 system
    whose independent rows R of E_dae touch exactly r columns K, with
    Ã = A_dae[R, K] − A_dae[R, N] X and B̃ = B_dae[R] − A_dae[R, N] Y for
    [X Y] = C[:, N]⁻¹ [C[:, K] D] on the other columns N.  Only q rows Q
    of C and D reach K or the inputs, so [X Y] = −P H with the lift
    P = −C[:, N]⁻¹[:, Q] and H = [C[Q, K] D[Q]], and the eliminated states
    are z_N = P H [z_K; v] + μ δ_N (`_rebuilder`)."""

    dae: LinearDae          # E_dae[R, K], Ã, B̃: r × r and r × m, sparse
    cols: np.ndarray        # K
    rest: np.ndarray        # N
    lift: np.ndarray        # P, N × q
    gather: object          # H, q × (r + m), sparse


def _build_reduced(dae: LinearDae, c_mat, d_mat, rows):
    """The `_ReducedMap` of dae with its rows R and constraint rows (C, D),
    or None: when E_dae[R] touches more than r columns (stranded windings),
    when no column is left to eliminate, when `_reduces` refuses the lift,
    or when C[:, N] is singular (`_scaled_lu` without the column scale,
    which a column of round-off would pass), which makes the index 2 or
    more.  Nothing is factored unless the rule admits the lift.

    In a stage pencil E_dae − τλ A_dae the constraint rows are −τλ C, for
    every λ, τ and method, so eliminating z_N through C[:, N] gives the
    same Ã and B̃ for all of them (static condensation, a Schur
    complement).  C[:, N] is factored once (`_scaled_lu`) and solved on the
    q unit columns of Q only, `block_rows(N)` of them at a time, into P;
    the factor is let go once P is formed.  At h = 0.5 mm (N = 2442,
    q = 146) P takes 2.9 MB, and the reduced pencils store 53k entries in
    their factors against 143k for the full ones."""
    n, m, r = dae.partition.n, dae.partition.m, rows.size
    e_rows, e_cols, e_vals = csr_entries(dae.E_dae[rows])
    on = e_vals != 0.0
    e_rows, e_cols, e_vals = e_rows[on], e_cols[on], e_vals[on]
    is_k = np.zeros(n, dtype=bool)
    is_k[e_cols] = True
    cols, rest = np.flatnonzero(is_k), np.flatnonzero(~is_k)
    if cols.size != r or not rest.size:
        return None
    c_rows, c_cols, c_vals = csr_entries(c_mat)
    d_rows, d_cols, d_vals = csr_entries(d_mat)
    on_k = is_k[c_cols]
    reached = np.union1d(c_rows[on_k], d_rows)
    if not _reduces(n, rest.size, reached.size):
        return None
    pos = np.empty(n, dtype=np.intp)
    pos[cols], pos[rest] = np.arange(r), np.arange(rest.size)
    factored = _scaled_lu(
        csr_from_entries([(c_rows[~on_k], pos[c_cols[~on_k]],
                           c_vals[~on_k])], (rest.size, rest.size),
                         like=(c_mat,)),
        f"constraint block C[:, N] ({rest.size} x {rest.size})",
        column_scale=False)
    if factored is None:
        return None
    lu, scale = factored
    q = reached.size
    units = csr_from_entries([(reached, np.arange(q), -scale[reached])],
                             (rest.size, q)).tocsc()
    lift = np.empty((rest.size, q))
    width = block_rows(rest.size)
    for lo in range(0, q, width):
        lift[:, lo : lo + width] = lu.solve(
            units[:, lo : lo + width].toarray(), trans="T")
    del lu, units
    at = np.searchsorted(reached, c_rows[on_k])
    gather = csr_from_entries(
        [(at, pos[c_cols[on_k]], c_vals[on_k]),
         (np.searchsorted(reached, d_rows), r + d_cols, d_vals)],
        (q, r + m), like=(c_mat, d_mat))
    a_rows, a_cols, a_vals = csr_entries(dae.A_dae[rows])
    on = is_k[a_cols]
    a_rn = csr_from_entries([(a_rows[~on], pos[a_cols[~on]], a_vals[~on])],
                            (r, rest.size), like=(dae.A_dae,))
    # A_dae[R, N] P H, on the rows of R that reach N, placed at the
    # columns [K; the ports] of [Ã B̃]
    hit = np.flatnonzero(np.diff(a_rn.indptr))
    prod = (gather.T @ (a_rn[hit] @ lift).T).T
    i, j = np.nonzero(prod)
    coupled = sp.csr_array((prod[i, j], (hit[i], j)), shape=(r, r + m))
    a_red = csr_from_entries([(a_rows[on], pos[a_cols[on]], a_vals[on])],
                             (r, r), like=(dae.A_dae,)) + coupled[:, :r]
    b_red = dae.B_dae[rows] + coupled[:, r:]
    e_red = csr_from_entries([(e_rows, pos[e_cols], e_vals)], (r, r),
                             like=(dae.E_dae,))
    p = dae.partition
    blocks = np.bincount(np.searchsorted([p.n1, p.n1 + p.n2], cols,
                                         side="right"), minlength=3)
    return _ReducedMap(
        LinearDae(e_red, a_red, b_red, Partition(*map(int, blocks), m)),
        cols, rest, lift, gather)


def _input_recursion(pencils, u_nodes):
    """(R∞, g) of the pencils (λ_j, r_j, γ_j) of a plan and its inputs
    u_nodes: a step of the plan sends a state with C z = −D v + μ c to one
    with C z⁺ = −D v⁺ + μ⁺ c, where v⁺ = R∞ v + g_k, μ⁺ = R∞ μ,
    g_k = Σ_j Re (γ_j/λ_j) r_j U_k and R∞ = 1 − Σ_j Re γ_j s_j/λ_j: the C
    rows of the pencil (λ_j, r_j, γ_j) are −τλ_j C, so C w_j =
    −(s_j C z + D r_j U_k)/(τλ_j).  The condensed path steps (v, μ) in ξ,
    and the reduced path rebuilds z_N from them."""
    r_inf = 1.0
    g = np.zeros((len(u_nodes), u_nodes.shape[2]))
    for lam, row, weight in pencils:
        g += (weight / lam * (row @ u_nodes)).real
        r_inf -= (weight * row.sum() / lam).real
    return r_inf, g


def _rebuilder(rmap: _ReducedMap, method: Method, tau: float, times, u_at,
               z0):
    """rebuild(first, z_k, states): write the full states after steps
    first + 1.. into the rows 1.. of `states`, from the rows 1.. of z_k, at
    most `block_rows(n)` of them: z_K, and z_N = P H [z_K; v_k] + μ_k δ_N,
    with (v_k, μ_k) stepped from (u(0), 1) by `_input_recursion` and
    δ_N = z0_N − P H [z0_K; u(0)], what of z0 is not consistent (round-off
    after `consistent_init`).  Since C z_k = −D v_k + μ_k C[:, N] δ_N, and
    z_K of the reduced steps is that of the full pencils to round-off, so
    are the states.  A non-finite z_N, from an input that only the
    eliminated states read, raises NumericalError naming the step and its
    time; the products are taken with numpy's overflow and invalid-value
    warnings off, as the steps are."""
    n_steps = len(times) - 1
    v = np.empty((n_steps + 1, rmap.dae.partition.m))
    mu = np.empty(n_steps + 1)
    v[0], mu[0] = u_at(0.0, 0, 1)[0], 1.0
    cols, rest, lift, r = rmap.cols, rmap.rest, rmap.lift, rmap.cols.size
    gather_k, gather_v = rmap.gather[:, :r], rmap.gather[:, r:]
    with np.errstate(over="ignore", invalid="ignore"):
        for first, stop, _, pencils, _, u_nodes in _stepping_plans(
                method, tau, u_at, n_steps):
            r_inf, g = _input_recursion(pencils, u_nodes)
            for k in range(first, stop):
                v[k + 1] = r_inf * v[k] + g[k - first]
                mu[k + 1] = r_inf * mu[k]
        delta = z0[rest] - lift @ (gather_k @ z0[cols] + gather_v @ v[0])

    def rebuild(first, z_k, states):
        k = len(z_k) - 1
        at = slice(first + 1, first + 1 + k)
        with np.errstate(over="ignore", invalid="ignore"):
            out = (gather_k @ z_k[1:].T + gather_v @ v[at].T).T @ lift.T
            # row by row, with no temporary of the block's size
            for row, scale in zip(out, mu[at]):
                row += scale * delta
        finite = np.isfinite(out).all(axis=1)
        if not finite.all():
            j = first + 1 + int(np.argmin(finite))
            raise NumericalError(f"step {j} at t = {times[j - 1]}: "
                                 f"non-finite state ({method.tag}, reduced)")
        states[1:, cols] = z_k[1:]
        states[1:, rest] = out
    return rebuild


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
    with R∞ = 1 − Σ_j Re γ_j s_j/λ_j (`_input_recursion`): the sparse
    step on the state
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
        r_inf, g[:, r : r + m] = _input_recursion(pencils, u_nodes)
        for lam, row, weight in pencils:
            pencil = eye - (tau * lam) * cmap.A_r
            sol = np.linalg.solve(pencil, np.hstack(
                [cmap.A_r, cmap.B_r] + ([eye] if history else [])))
            u_row = row @ u_nodes
            psi[:r, :r] += (tau * weight * row.sum() * sol[:, :r]).real
            g[:, :r] += (tau * weight * (u_row @ sol[:, r : r + m].T)).real
            if history:
                lag += (history * weight * sol[:, r + m :]).real
        psi[r:, r:] = r_inf * np.eye(m + 1)
        if history:
            psi = np.hstack((np.zeros_like(psi), psi))
            psi[:r, :r] = -lag
            psi[:r, r + m + 1 : 2 * r + m + 1] += lag
        plans.append((first, stop, psi, g))
    return plans


def condensed_run(sys, cmap: _CondensedMap, method, tau, times, u_at, z0,
                  cols, endpoint):
    """States (the columns `cols`, or all), outputs, dissipated powers and
    H of `simulate` on the condensed path.  ξ_0 = [E_dae[R] z0; u(0); 1]
    and δ = z0 − V x0 − G v0, which holds what of z0 is not a consistent
    state (it is round-off after `consistent_init`), so that every state is
    Φ ξ_k with the basis Φ = [V G δ] and z0 = Φ ξ_0.  The coordinates are
    stepped for the whole grid (`_condensed_plans`), tested for finiteness
    (NumericalError naming the first non-finite step and its time), and
    audited (`condensed_audit`).  A stored column i is Σ_j ξ_j Φ_ij,
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
    outputs[1:], dissipated, h[1:] = condensed_audit(sys, basis, xi, tau,
                                                     endpoint)
    return states, outputs, dissipated, h

