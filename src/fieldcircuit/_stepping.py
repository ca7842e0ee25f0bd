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

The plan is stepped on one of three paths (`stepping_map`).  Two rest on
one elimination of an index-1 system (`_build_reduced`; Hairer & Wanner,
Solving ODEs II, §VI.1): with R r independent rows of E_dae and the
constraint rows (C, D) of `constraint_basis`, r columns K′ of those that
E_dae[R] touches are kept and the states z_N on the others are eliminated
through one sparse LU of C[:, N].  The condensed path steps a system whose
V (z = V x + G u on x = E_dae[R] z), n×r, stores no more entries than the
LU factor of any pencil can (`_condenses`) on the ODE ẋ = A_r x + B_r u,
each pencil a dense r×r I − τλ A_r and a step one product with a
propagator (`condensed_run`).  The reduced path steps one that the rule
does not condense on the r×r sparse pencils Ẽ − τλ Ã through
`_make_stepper`, each step carrying the input rate E_dae[R, N]·(Y, δ_N)
where R touches more than r columns, and rebuilds z_N by a dense lift
that fits the span buffer (`_reduces`; `sparse_run` with a
`_ReducedMap`).  Every other system, a singular C[:, N] or Ẽ (index 2 or
more) included, steps on the full pencils, each an n×n sparse LU
(`sparse_run`).  On the reduced and the sparse path every solve is
checked on its own (`_StageSolver.solve`).  The three paths agree to
round-off and keep the same discrete power balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import scipy.sparse as sp
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

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


def _make_stepper(dae: LinearDae, method: Method, tau: float, times, u_at,
                  rate=None):
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
    `_input_grid`; B times them, on the rows that B reaches only, is formed
    per `march` call, not for every step.  A step then does one product
    A z and, per pencil, one indexed add and one `_StageSolver.solve`, a
    transposed solve with the factor of the pencil's transpose, which
    checks and refines the solve and raises NumericalError on a non-finite
    solution.  The input terms and the steps are computed with numpy's
    overflow and invalid-value warnings off: a non-finite value they
    produce reaches `solve`, which reports it.

    With `rate` = ([F Y, F δ_N], v, μ), the input-rate columns of a reduced
    DAE and the constraint inputs of every step (`_constraint_inputs`), the
    input matrix is [B_dae F Y F δ_N], and pencil j weighs them at step k
    by (r_j U_k − s_j v_k)/(τλ_j) − h (v_k − v_{k−1})/τ and
    s_j μ_k/(τλ_j) + h (μ_k − μ_{k−1})/τ (`_build_reduced`).

    Returns march(first, states, z_prev): steps states[1:] from states[0],
    whose step is `first` and whose predecessor is z_prev (read by BDF2).
    """
    b_dae = dae.B_dae
    if rate is not None:
        b_dae = sp.hstack((b_dae, rate[0]), format="csr")
    src = np.flatnonzero(np.diff(b_dae.indptr))
    b_src = b_dae[src]
    plans = []
    for first, stop, m, pencils, history, u_nodes in _stepping_plans(
            method, tau, u_at, len(times) - 1):
        solvers = []
        for lam, row, weight in pencils:
            solver = _pencil_solver(
                dae, dae.E_dae - (tau * lam) * dae.A_dae,
                f"{m.tag}, lambda = {lam:.6g}, tau = {tau}")
            # a non-finite input surfaces as a non-finite stage solution
            with np.errstate(over="ignore", invalid="ignore"):
                u_row = row @ u_nodes
                if rate is not None:
                    u_row = np.column_stack(
                        (u_row, *_rate_inputs(lam, row, history, tau, u_row,
                                              *rate[1:], first, stop)))
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


def _rate_inputs(lam, row, history, tau, u_row, v, mu, first, stop):
    """The weights of the columns F Y and F δ_N of a reduced DAE's input
    matrix in the pencil (λ, r) of a plan with history h, at its steps
    first..stop−1 with the weighted inputs u_row = r U_k
    (`_make_stepper`)."""
    s, now = row.sum(), slice(first, stop)
    v_rate = (u_row - s * v[now]) / (tau * lam)
    mu_rate = s * mu[now] / (tau * lam)
    if history:
        back = slice(first - 1, stop - 1)
        v_rate -= history / tau * (v[now] - v[back])
        mu_rate += history / tau * (mu[now] - mu[back])
    return v_rate, mu_rate


# blocks of `block_rows` states held between two energy audits (about 8 MB):
# with spans of one block, interleaved with the steps, the audit of 500
# steps at n = 4952 took 86 ms against 68 ms with spans of eight
_SPAN_BLOCKS = 8


def sparse_run(sys, dae, method, tau, times, u_at, z0, cols, endpoint,
               rmap=None):
    """States (the columns `cols`, or all), outputs, dissipated powers and
    H of `simulate` on the sparse path: spans of full states stepped by
    `_make_stepper` and audited by `energy_bookkeeping`.  With the
    `_ReducedMap` `rmap` (the reduced path) the steps march z_K′ on the
    reduced DAE instead, with its input-rate columns where it has them,
    `block_rows` steps at a time, and each block's full states are rebuilt
    from it (`_rebuilder`) into the span before its audit."""
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
        v, mu, delta = _constraint_inputs(rmap, method, tau, times, u_at, z0)
        rate = None
        if rmap.rate is not None:
            f_delta = sp.csr_array((rmap.rate @ delta)[:, None])
            rate = sp.hstack((rmap.rate_y, f_delta)), v, mu
        march = _make_stepper(rmap.dae, method, tau, times, u_at, rate)
        rebuild = _rebuilder(rmap, method, times, v, mu, delta)
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
    factor it replaces, and the r×r product of a step costs less than a
    solve with it.  The count, known before anything is factored, is read
    from the stored values: scipy's `count_nonzero` would sort an unsorted
    A_dae in place.  The solid conductor with a conductive core
    at h = 0.5 mm (n·r = 3084 · 642 ≈ 2.0M against 24.4k) is not condensed;
    it steps on the reduced path (`_reduces`)."""
    a, n = dae.A_dae, dae.partition.n
    return n * r <= np.count_nonzero(a.data[: a.indptr[-1]]) + n


@dataclass(frozen=True)
class _CondensedMap:
    """The state-space form ẋ = A_r x + B_r u of an index-1 DAE on its
    differential coordinates x = E_dae[R] z: every consistent state is
    z = V x + G u (`_build_reduced`), A_r = A_dae[R] V and
    B_r = A_dae[R] G + B_dae[R]."""

    e_rows: object      # E_dae[R], r × n, sparse
    V: np.ndarray       # n × r
    G: np.ndarray       # n × m
    A_r: np.ndarray     # r × r
    B_r: np.ndarray     # r × m


def stepping_map(dae: LinearDae):
    """(r, the path of `simulate`, its map) for a DAE: "condensed" with the
    `_CondensedMap` of `_build_reduced` under the cost rule `_condenses`,
    else "reduced" with its `_ReducedMap` where `_reduces` admits the lift,
    else "sparse" (None), the full pencils.  The map is kept on the DAE
    with the verdict of `_condenses` it was built under (False for none);
    the rules are evaluated on every call.  The constraint rows (C, D) are
    let go here: on the sparse path they would stay alive next to the
    pencil factors.  A DAE whose constraint rows cannot be formed (a
    singular pivot block) steps sparse, r None."""
    if dae._rows is None:
        try:
            constraint_basis(dae)
        except NumericalError:
            return None, "sparse", None
    rows, dependent = dae._rows
    condense = _condenses(dae, rows.size)
    if dae._map is None or dae._map[0] != condense:
        c_mat, d_mat, *_ = constraint_basis(dae)
        object.__setattr__(dae, "_map", (condense, _build_reduced(
            dae, c_mat, d_mat, rows, dependent, condense) or False))
    object.__setattr__(dae, "_constraints", None)
    smap = dae._map[1]
    if smap and condense:
        return rows.size, "condensed", smap
    if smap and _reduces(dae.partition.n, *smap.lift.shape):
        return rows.size, "reduced", smap
    return rows.size, "sparse", None


def _scaled_lu(mat, what: str):
    """(the LU of the transpose of the square CSR matrix `mat` with its rows
    scaled to unit largest entry, the row scale), or None where `mat` is
    singular: an empty row, a column of round-off (no scaled entry above
    `_RESIDUAL_BOUND` eps), an exactly singular factor, or pivots whose
    ratio min/max is below `_PIVOT_RATIO` once each is scaled by the power
    of two that takes its column into [½, 1), so a real column 1e-12 of
    its row (`suffix_tour`) is no index.  The transpose, ordered with
    MMD_AT_PLUS_A, is read from the CSR arrays of `mat`, and `mat x = b` is
    solved as `lu.solve(scale * b, trans="T")`."""
    n = mat.shape[0]
    row_max = _row_max_abs(mat)
    if not row_max.all():
        return None
    scale = 1.0 / row_max
    m_rows, m_cols, m_vals = csr_entries(mat)
    m_vals = scale[m_rows] * m_vals
    col_max = np.zeros(n)
    np.maximum.at(col_max, m_cols, np.abs(m_vals))
    if col_max.min(initial=1.0) <= _RESIDUAL_BOUND * _EPS:
        return None
    try:
        lu = _splu(sp.csc_matrix((m_vals, mat.indices, mat.indptr),
                                 shape=(n, n)), what, "MMD_AT_PLUS_A")
    except NumericalError:
        return None
    # the pivot of step perm_r[j] lies in column j of mat
    u_diag = np.abs(lu.U.diagonal())
    u_diag[lu.perm_r] *= np.ldexp(1.0, -np.frexp(col_max)[1])
    if u_diag.min(initial=np.inf) < _PIVOT_RATIO * u_diag.max(initial=0.0):
        return None
    return lu, scale


def _reduces(n: int, eliminated: int, reached: int) -> bool:
    """The cost rule of the reduced path: the dense lift P, N×w, onto the
    N eliminated states fits the span buffer that the sparse path holds,
    N·w ≤ `_SPAN_BLOCKS` · `block_rows(n)` · n, about 1.05M entries: the
    solid conductor with a conductive core needs 2442 · 146 ≈ 0.36M at
    h = 0.5 mm, and 2.8M at 0.25 mm, which steps on the full pencils."""
    return eliminated * reached <= _SPAN_BLOCKS * block_rows(n) * n


@dataclass(frozen=True)
class _ReducedMap:
    """The reduced DAE Ẽ ż_K′ = Ã z_K′ + B̃ u of an index-1 system on r
    columns K′ of those its independent rows R of E_dae touch, with
    Ẽ = E_dae[R, K′] − F X, Ã = A_dae[R, K′] − A_dae[R, N] X and
    B̃ = B_dae[R] − A_dae[R, N] Y for F = E_dae[R, N] and
    [X Y] = C[:, N]⁻¹ [C[:, K′] D] = −P H (`_build_reduced`); the other
    states are z_N = P H [z_K′; v] + μ δ_N (`_rebuilder`).  Where R
    touches more than r columns, F ≠ 0 and each step carries the input
    rate F (Y, δ_N) of z_N (`_make_stepper`)."""

    dae: LinearDae          # Ẽ, Ã, B̃: r × r and r × m, sparse
    cols: np.ndarray        # K′
    rest: np.ndarray        # N
    lift: np.ndarray        # P, N × w
    gather: object          # H, w × (r + m), sparse
    rate: object = None     # F, r × N, sparse; None where F = 0
    rate_y: object = None   # F Y, r × m, sparse


def _placement(c_mat, dependent, is_k):
    """The column on whose diagonal each row of C is placed, leaving r
    columns K′ ⊂ K (`is_k`), or None.  Where |K| > r, row j keeps its
    dependent row where that is a column outside K with an entry of row j;
    the other rows are matched to the free columns by a minimum-weight
    full bipartite matching, weighing an entry 1 + log(row max/|c|) and,
    on a column of K, the sum of all weights more (static pivoting as in
    MC64; Duff & Koster, SIAM J. Matrix Anal. Appl. 22, 2001), and all of
    C is matched where those rows leave a column outside K (about 0.25 s
    at 0.4 mm, against 1.3 ms for the 369 rows left there)."""
    rows, cols, vals = csr_entries(c_mat)
    on = vals != 0.0
    rows, cols, vals = rows[on], cols[on], vals[on]
    at = np.full(c_mat.shape[0], -1, dtype=np.intp)
    # where |K| = r, K′ = K: all rows are matched to the other columns
    some_k = np.count_nonzero(is_k) > is_k.size - at.size
    own = (cols == dependent[rows]) & ~is_k[cols] & some_k
    at[rows[own]] = cols[own]
    row_max = _row_max_abs(c_mat)
    for free in (at < 0, np.ones(at.size, dtype=bool)):
        col_free = ~is_k | some_k
        col_free[at[~free]] = False
        row_of, col_of = np.flatnonzero(free), np.flatnonzero(col_free)
        sel = np.flatnonzero(free[rows] & col_free[cols])
        weight = 1.0 + np.log(row_max[rows[sel]] / np.abs(vals[sel]))
        weight += is_k[cols[sel]] * weight.sum()
        try:
            # COO sorts the indices; on unsorted ones the matching hangs
            i, j = min_weight_full_bipartite_matching(sp.csr_array(
                (weight, (np.searchsorted(row_of, rows[sel]),
                          np.searchsorted(col_of, cols[sel]))),
                shape=(row_of.size, col_of.size)))
        except ValueError:
            continue
        at[row_of[i]] = col_of[j]
        if np.count_nonzero(~is_k[at]) == np.count_nonzero(~is_k):
            return at
    return None


def _build_reduced(dae: LinearDae, c_mat, d_mat, rows, dependent,
                   condense: bool):
    """The map of dae with its rows R, constraint rows (C, D) and their
    dependent rows: the `_CondensedMap` with `condense`, else the
    `_ReducedMap`; None where C[:, N] or Ẽ is singular (`_scaled_lu`;
    index 2 or more), and, factoring nothing, without `condense` where
    none is left to eliminate or `_reduces` refuses the lift.

    The constraint rows of every stage pencil E_dae − τλ A_dae are −τλ C,
    so one elimination through C[:, N] serves every λ, τ and method
    (static condensation; Guyan, AIAA J. 3, 1965).  C[:, N], placed by
    `_placement`, is factored once and solved, `block_rows(N)` columns at
    a time, on the smaller set of right sides: the unit columns of the q
    rows Q of C and D that reach K′ or the inputs (P = −C[:, N]⁻¹[:, Q],
    H = [C[Q, K′] D[Q]]), or [C[:, K′] D] (P = −[X Y], H = I).  With
    F = E_dae[R, N], E_dae[R] Z = [Ẽ −F Y] for Z = [I 0; −X −Y] on the
    rows (K′, N), and [V G] = Z [Ẽ⁻¹ Ẽ⁻¹F Y; 0 I].

    The reduced DAE holds the rows R of a pencil on z_N = −X z_K′ − Y v +
    μ δ_N (`_constraint_inputs`).  Where R touches only K′, F = 0 and
    Ẽ = E_dae[R, K′].  Where it touches more columns (stranded windings,
    floating capacitor pairs), the C rows of pencil (λ_j, r_j, γ_j) give
    w_N = −X w_K′ − (Y (r_j U_k − s_j v_k) + s_j μ_k δ_N)/(τλ_j), so F w_N
    adds the input rate F (Y (r_j U_k − s_j v_k) + s_j μ_k δ_N)/(τλ_j) to
    its right side, and BDF2's history h E_dae[R] (z − z⁻)/τ adds
    h F (−Y (v_k − v_{k−1}) + (μ_k − μ_{k−1}) δ_N)/τ (`_make_stepper`); Ẽ
    is then tested as C[:, N] is."""
    n, m, r = dae.partition.n, dae.partition.m, rows.size
    e_rows = dae.E_dae[rows]
    e_r, e_c, e_v = csr_entries(e_rows)
    is_k = np.zeros(n, dtype=bool)
    is_k[e_c[e_v != 0.0]] = True
    c_rows, c_cols, c_vals = csr_entries(c_mat)
    d_rows, d_cols, d_vals = csr_entries(d_mat)
    if not condense and r == n:
        return None
    at = _placement(c_mat, dependent, is_k)
    if at is None:
        return None
    is_n = np.zeros(n, dtype=bool)
    is_n[at] = True
    cols, rest = np.flatnonzero(~is_n), np.flatnonzero(is_n)
    on_k = ~is_n[c_cols]
    reached = np.union1d(c_rows[on_k], d_rows)
    if not condense and not _reduces(n, n - r, min(reached.size, r + m)):
        return None
    pos = np.empty(n, dtype=np.intp)
    pos[cols], pos[rest] = np.arange(r), np.arange(n - r)
    at = pos[at]
    factored = _scaled_lu(
        csr_from_entries([(at[c_rows[~on_k]], pos[c_cols[~on_k]],
                           c_vals[~on_k])], (n - r, n - r), like=(c_mat,)),
        f"constraint block C[:, N] ({n - r} x {n - r})")
    if factored is None:
        return None
    lu, scale = factored
    parts = [(c_rows[on_k], pos[c_cols[on_k]], c_vals[on_k]),
             (d_rows, r + d_cols, d_vals)]
    if r + m < reached.size:
        s_rows, s_cols, s_vals = map(np.concatenate, zip(*parts))
        gather = sp.eye_array(r + m, format="csr")
    else:
        s_rows, s_cols, s_vals = reached, np.arange(reached.size), 1.0
        gather = csr_from_entries(
            [(np.searchsorted(reached, i), j, v) for i, j, v in parts],
            (reached.size, r + m), like=(c_mat, d_mat))
    lift = np.zeros((n - r, gather.shape[0]))
    lift[at[s_rows], s_cols] = -scale[at[s_rows]] * s_vals
    width = block_rows(n - r)
    for lo in range(0, lift.shape[1], width):
        lift[:, lo : lo + width] = lu.solve(lift[:, lo : lo + width],
                                            trans="T")
    del lu
    if condense:
        zmap = np.zeros((n, r + m))  # Z: [z_K′; u] to z
        zmap[cols, :r] = np.eye(r)
        zmap[rest] = (gather.T @ lift.T).T
        ef = e_rows @ zmap
        factored = _scaled_lu(sp.csr_array(ef[:, :r]), "reduced E_dae")
        if factored is None:
            return None
        lu, scale = factored
        ef[:, :r], ef[:, r:] = np.eye(r), -ef[:, r:]
        sol = np.eye(r + m)
        sol[:r] = lu.solve(scale[:, None] * ef, trans="T")
        v_g = zmap @ sol
        a_vg = dae.A_dae[rows] @ v_g
        return _CondensedMap(e_rows, v_g[:, :r], v_g[:, r:], a_vg[:, :r],
                             a_vg[:, r:] + dae.B_dae[rows].toarray())
    a_rows, a_cols, a_vals = csr_entries(dae.A_dae[rows])
    on = ~is_n[a_cols]
    a_rn = csr_from_entries([(a_rows[~on], pos[a_cols[~on]], a_vals[~on])],
                            (r, n - r), like=(dae.A_dae,))
    # A_dae[R, N] P H, on the rows of R that reach N, placed at the
    # columns [K′; the ports] of [Ã B̃]
    hit = np.flatnonzero(np.diff(a_rn.indptr))
    prod = (gather.T @ (a_rn[hit] @ lift).T).T
    i, j = np.nonzero(prod)
    coupled = sp.csr_array((prod[i, j], (hit[i], j)), shape=(r, r + m))
    a_red = csr_from_entries([(a_rows[on], pos[a_cols[on]], a_vals[on])],
                             (r, r), like=(dae.A_dae,)) + coupled[:, :r]
    b_red = dae.B_dae[rows] + coupled[:, r:]
    on = e_v != 0.0
    e_r, e_c, e_v = e_r[on], e_c[on], e_v[on]
    on = ~is_n[e_c]
    e_red = csr_from_entries([(e_r[on], pos[e_c[on]], e_v[on])], (r, r),
                             like=(dae.E_dae,))
    rate = rate_y = None
    if not on.all():
        # F = E_dae[R, N]: Ẽ = E_dae[R, K′] + (F P H)[:, K′] and
        # F Y = −(F P H)[:, the ports], as for A_dae; each product is
        # formed inline: freeing A_dae's temporaries before Ã is stored
        # split the heap, and repeated runs of the 0.5 mm solid core
        # peaked 11 MB higher
        rate = csr_from_entries([(e_r[~on], pos[e_c[~on]], e_v[~on])],
                                (r, n - r), like=(dae.E_dae,))
        hit = np.flatnonzero(np.diff(rate.indptr))
        prod = (gather.T @ (rate[hit] @ lift).T).T
        i, j = np.nonzero(prod)
        coupled = sp.csr_array((prod[i, j], (hit[i], j)), shape=(r, r + m))
        e_red = e_red + coupled[:, :r]
        rate_y = -coupled[:, r:]
        if _scaled_lu(e_red, f"reduced E_dae ({r} x {r})") is None:
            return None
    p = dae.partition
    blocks = np.bincount(np.searchsorted([p.n1, p.n1 + p.n2], cols,
                                         side="right"), minlength=3)
    return _ReducedMap(
        LinearDae(e_red, a_red, b_red, Partition(*map(int, blocks), m)),
        cols, rest, lift, gather, rate, rate_y)


def _input_recursion(pencils, u_nodes):
    """(R∞, g) of the pencils (λ_j, r_j, γ_j) of a plan and its inputs
    u_nodes: a step of the plan sends a state with C z = −D v + μ c to one
    with C z⁺ = −D v⁺ + μ⁺ c, where v⁺ = R∞ v + g_k, μ⁺ = R∞ μ,
    g_k = Σ_j Re (γ_j/λ_j) r_j U_k and R∞ = 1 − Σ_j Re γ_j s_j/λ_j: the C
    rows of the pencil (λ_j, r_j, γ_j) are −τλ_j C, so C w_j =
    −(s_j C z + D r_j U_k)/(τλ_j).  The condensed path steps (v, μ) in ξ,
    and the reduced path forms its input rate and rebuilds z_N from them
    (`_constraint_inputs`)."""
    r_inf = 1.0
    g = np.zeros((len(u_nodes), u_nodes.shape[2]))
    for lam, row, weight in pencils:
        g += (weight / lam * (row @ u_nodes)).real
        r_inf -= (weight * row.sum() / lam).real
    return r_inf, g


def _constraint_inputs(rmap: _ReducedMap, method: Method, tau: float, times,
                       u_at, z0):
    """(v, μ, δ_N) of a reduced run from z0: the constraint rows of step k
    are C z_k = −D v_k + μ_k C[:, N] δ_N, with (v_k, μ_k) stepped from
    (u(0), 1) by `_input_recursion` and δ_N = z0_N − P H [z0_K′; u(0)],
    what of z0 is not consistent (round-off after `consistent_init`),
    formed with numpy's overflow and invalid-value warnings off, as the
    steps are."""
    n_steps, r = len(times) - 1, rmap.cols.size
    gather_k, gather_v = rmap.gather[:, :r], rmap.gather[:, r:]
    v = np.empty((n_steps + 1, rmap.dae.partition.m))
    mu = np.empty(n_steps + 1)
    v[0], mu[0] = u_at(0.0, 0, 1)[0], 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for first, stop, _, pencils, _, u_nodes in _stepping_plans(
                method, tau, u_at, n_steps):
            r_inf, g = _input_recursion(pencils, u_nodes)
            for k in range(first, stop):
                v[k + 1] = r_inf * v[k] + g[k - first]
                mu[k + 1] = r_inf * mu[k]
        delta = z0[rmap.rest] - rmap.lift @ (gather_k @ z0[rmap.cols]
                                             + gather_v @ v[0])
    return v, mu, delta


def _rebuilder(rmap: _ReducedMap, method: Method, times, v, mu, delta):
    """rebuild(first, z_k, states): write the full states after steps
    first + 1.. into the rows 1.. of `states`, from the rows 1.. of z_k, at
    most `block_rows(n)` of them: z_K′, and z_N = P H [z_K′; v_k] + μ_k δ_N
    with the (v, μ, δ_N) of `_constraint_inputs`.  Since
    C z_k = −D v_k + μ_k C[:, N] δ_N, and z_K′ of the reduced steps is that
    of the full pencils to round-off, so are the states.  A non-finite
    z_N, from an input that only the eliminated states read, raises
    NumericalError naming the step and its time; the products are taken
    with numpy's overflow and invalid-value warnings off, as the steps
    are."""
    cols, rest, lift, r = rmap.cols, rmap.rest, rmap.lift, rmap.cols.size
    gather_k, gather_v = rmap.gather[:, :r], rmap.gather[:, r:]

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

