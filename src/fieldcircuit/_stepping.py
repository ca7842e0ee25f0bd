"""The stepping layer: the methods, and the two paths that step a
`LinearDae` on an equidistant grid with them.

Every method is a plan of pencils (`_pencil_plan`): a step solves for the
increment with one pencil E_dae − τλ A_dae per real λ and per conjugate
pair, never a stacked sn×sn stage system.  Every method with an invertible
Butcher matrix (midpoint, implicit Euler, Gauss-4, Radau IIA of order 5)
takes λ from the eigenvalues of that matrix (one real solve for midpoint
and implicit Euler, one complex for Gauss-4, one real and one complex for
Radau IIA); trapezoidal (λ = ½) and BDF2 (λ = ⅔, after a trapezoidal first
step) are one real pencil each.

The plan is stepped on one of two paths.  An index-1 system whose rank r
of E_dae is small steps on its differential coordinates x = E_dae[R] z,
with R r independent rows of E_dae: with the constraint rows (C, D) of
`constraint_basis` and M = [E_dae[R]; C], every consistent state is
z = V x + G u, V = M⁻¹[I; 0] and G = M⁻¹[0; −D], and the DAE is the ODE
ẋ = A_r x + B_r u, A_r = A_dae[R] V, B_r = A_dae[R] G + B_dae[R] (the
state-space form of Hairer & Wanner, Solving ODEs II, §VI.1; Kron
reduction in circuit theory).  Each pencil is then the dense r×r
I − τλ A_r, and a step is one product with a propagator
(`condensed_run`).  The cost rule `_condenses` takes this path when V,
n×r, stores no more entries than the LU factor of any pencil can; a
singular M, which makes the index 2 or more, keeps the sparse path
(`sparse_run`), on which each pencil is an n×n sparse LU and every solve
with it is checked on its own (`_StageSolver.solve`).  The two paths agree
to round-off and keep the same discrete power balance.
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
from fieldcircuit.structure import (NumericalError, StructureError, block_rows,
                                   csr_entries, csr_from_entries, hamiltonian)


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


# blocks of `block_rows` states held between two energy audits (about 8 MB):
# with spans of one block, interleaved with the steps, the audit of 500
# steps at n = 4952 took 86 ms against 68 ms with spans of eight
_SPAN_BLOCKS = 8


def sparse_run(sys, dae, method, tau, times, u_at, z0, cols, endpoint):
    """States (the columns `cols`, or all), outputs, dissipated powers and
    H of `simulate` on the sparse path: spans of full states stepped by
    `_make_stepper` and audited by `energy_bookkeeping`."""
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
         h[base + 1 : stop + 1]) = energy_bookkeeping(sys, blk, tau, endpoint)
        z_prev = blk[-2].copy()
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
    at h = 0.5 mm (n·r = 3084 · 642 ≈ 2.0M against 24.4k) stays sparse."""
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


def condensed_map(dae: LinearDae):
    """(r, the `_CondensedMap` of dae, or None for the sparse path): None
    when the cost rule `_condenses` keeps the system sparse, or when M is
    singular, which makes the index 2 or more.  The map is built on first
    use and kept on the DAE; the rule is evaluated on every call.  The
    steps read only R and the map, so the constraint rows (C, D) are let
    go here: on the sparse path they would stay alive next to the pencil
    factors (0.24 MB on `mixed_ports`).  A DAE whose constraint rows cannot
    be formed (a singular pivot block, which `consistent_init` reports)
    steps sparse, with r unknown (None)."""
    if dae._rows is None:
        try:
            constraint_basis(dae)
        except NumericalError:
            return None, None
    rows, dependent = dae._rows
    cmap = None
    if _condenses(dae, rows.size):
        if dae._condensed is None:
            c_mat, d_mat, *_ = constraint_basis(dae)
            object.__setattr__(dae, "_condensed", _build_condensed(
                dae, c_mat, d_mat, rows, dependent) or False)
        cmap = dae._condensed or None
    object.__setattr__(dae, "_constraints", None)
    return rows.size, cmap


def _build_condensed(dae: LinearDae, c_mat, d_mat, rows, dependent):
    """The `_CondensedMap` of dae with its rows R, constraint rows (C, D)
    and the dependent rows of `constraint_basis`, or None when
    M = [E_dae[R]; C] is singular: SuperLU finds it exactly singular, or
    the scaled M has a pivot ratio min|U_ii| / max|U_ii| below
    `_PIVOT_RATIO`.  M is scaled to unit largest entries in its rows, then
    by powers of two into [½, 1) in its columns, so the ratio does not read
    the circuit's units as an index (`suffix_tour`).

    Each row of M is placed at the row of the DAE it comes from: E_dae[R]
    at R, and row j of C at the dependent row paired with it.  So placed,
    M has the pattern of the stage pencils E_dae − τλ A_dae, and it is
    factored as `_StageSolver` factors them: Mᵀ, row-scaled, is read from
    the CSR arrays of M, ordered with MMD_AT_PLUS_A, and V and G come from
    one transposed solve with r + m right sides, unscaled.  That factor
    pivots across the columns of M, where a power of two would change
    pivot choices, so the column scale is applied to the diagonal of U
    only, which is what the factor with it reads when the power of two
    changes no pivot choice.  On the lossless stranded oscillator the
    factor stores 243k entries at n = 4952 (h = 0.4 mm; COLAMD on the
    placed M: 397k) and 785k at n = 12563 (0.25 mm; 1.34M); at n = 743
    (1 mm) it stores 32.7k against COLAMD's 30.6k, in the same 1.6 ms, so
    no ordering trial is made.  M is factored once and freed once V and G
    are formed."""
    n, m, r = dae.partition.n, dae.partition.m, rows.size
    c_rows, c_cols, c_vals = csr_entries(c_mat)
    is_row = np.zeros(n, dtype=bool)
    is_row[rows] = True
    e_rows, e_cols, e_vals = csr_entries(dae.E_dae)
    on = is_row[e_rows]
    mat = csr_from_entries([(e_rows[on], e_cols[on], e_vals[on]),
                            (dependent[c_rows], c_cols, c_vals)], (n, n),
                           like=(dae.E_dae, c_mat))
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
        lu = _splu(sp.csc_matrix((m_vals, mat.indices, mat.indptr),
                                 shape=(n, n)),
                   "condensing matrix", "MMD_AT_PLUS_A")
    except NumericalError:
        return None
    # the pivot of step perm_r[j] lies in column j of M
    u_diag = np.abs(lu.U.diagonal())
    u_diag[lu.perm_r] *= col_scale
    if u_diag.min(initial=np.inf) < _PIVOT_RATIO * u_diag.max(initial=0.0):
        return None
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

