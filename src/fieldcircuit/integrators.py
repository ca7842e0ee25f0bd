"""Time integration of energy-based DAE systems with energy bookkeeping.

Every system is rewritten as one implicit linear DAE, E_dae ẋ = A_dae x +
B_dae u, and stepped with fixed-step implicit schemes by one of two
steppers.  Trapezoidal uses the endpoint formula, which is also the startup
step of BDF2.  Every method with an invertible Butcher matrix (midpoint and
implicit Euler, the one-stage Gauss and Radau IIA methods, Gauss-4 and Radau
IIA of order 5) goes through one Runge-Kutta stepper whose stages are
decoupled through the eigenvalues λ of the Butcher matrix: each step solves
one n×n pencil E_dae − τλ A_dae per real λ and per conjugate pair (one real
solve for midpoint and implicit Euler, one complex for Gauss-4, one real and
one complex for Radau IIA), never a stacked sn×sn stage system.
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
    """Rearrange the structured equations into a single implicit linear DAE.

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
    # which cannot be evaluated behind a singular E_dae), so `_make_stepper`
    # steps it by the endpoint formula instead; the tableau serves the order
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

def _splu(mat, what: str):
    """splu of a square matrix; NumericalError naming `what` if singular."""
    try:
        return spla.splu(sp.csc_matrix(mat))
    except RuntimeError as exc:
        raise NumericalError(f"singular {what}") from exc


class _StageSolver:
    """LU factorization of a fixed stage matrix, reused across all steps.

    One or two rounds of iterative refinement keep the solve residual near
    round-off even when the stage matrix mixes badly scaled physical blocks.
    """

    def __init__(self, mat, context: str):
        self._context = context
        self._mat = sp.csr_array(mat)
        self._lu = _splu(mat, f"stage matrix ({context}); the matrix pencil "
                              f"may be irregular or the model inconsistent")
        self._row_scale = float(abs(self._mat).sum(axis=1).max(initial=0.0))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = self._lu.solve(rhs)
        for _ in range(2):
            r = rhs - self._mat @ x
            bound = 32.0 * _EPS * (np.linalg.norm(rhs, np.inf)
                                   + self._row_scale * np.linalg.norm(x, np.inf))
            if np.linalg.norm(r, np.inf) <= bound:
                break
            x = x + self._lu.solve(r)
        if not np.all(np.isfinite(x)):
            raise NumericalError(f"non-finite stage solution ({self._context})")
        return x


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Equidistant simulation record.

    outputs[k] for k >= 1 is the discrete port flow Bᵀ w of the step ending
    at times[k] (the quantity entering the discrete power balance);
    outputs[0] is zero since no step precedes the initial instant.
    dissipated_cum/supplied_cum integrate the discrete power terms; the
    supplied energy pairs the output with the endpoint average of u for
    trapezoidal and with u(t + τ/2) for every other method (see
    `_energy_bookkeeping`), so the balance is exact only for midpoint and
    trapezoidal.
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


def simulate(sys: EnergySystem, z0: np.ndarray, u, tau: float, t_end: float,
             method, t0: float = 0.0) -> Trajectory:
    """March the system on the equidistant grid t0, t0+tau, ..., t_end.

    tau must divide t_end − t0.  Identical inputs produce bit-identical
    trajectories: stepping is sequential and every stage matrix is factorized
    exactly once.  The loop only steps; energies and outputs are evaluated
    afterwards from the stored states, all steps at once.
    """
    method = method_from_tag(method)
    if tau <= 0:
        raise StructureError("tau must be positive")
    span = t_end - t0
    n_steps_f = span / tau
    n_steps = int(round(n_steps_f))
    if n_steps < 1 or abs(n_steps_f - n_steps) > 1e-9 * max(1.0, n_steps_f):
        raise StructureError(
            f"tau = {tau} does not divide the interval of length {span}")

    p = sys.partition
    z0 = np.asarray(z0, dtype=np.float64)
    if z0.shape != (p.n,):
        raise StructureError(f"z0: expected length {p.n}, got {z0.shape}")
    u = _resolve_input(u, p.m)
    stepper = _make_stepper(to_linear_dae(sys), method, tau)

    times = t0 + tau * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, p.n))
    states[0] = z0
    for k in range(n_steps):
        try:
            states[k + 1] = stepper(k, states[k], states, times[k], u)
        except NumericalError as exc:
            raise NumericalError(f"step {k + 1} at t = {times[k]}: {exc}") from exc

    outputs, d_cum, s_cum = _energy_bookkeeping(sys, states, times, u, tau,
                                                method)
    return Trajectory(times, states, outputs, hamiltonian(sys, states),
                      d_cum, s_cum, sys.default_state_labels(),
                      sys.default_output_labels())


def _energy_bookkeeping(sys: EnergySystem, states: np.ndarray,
                        times: np.ndarray, u, tau: float, method: Method):
    """Port outputs and cumulative dissipated and supplied energy of a whole
    trajectory, from its stored states.

    Step k contributes τ wᵀRw and τ⟨y, u_k⟩ with the discrete flow
    w = [(z1⁺−z1)/τ; S z2_mid; z3_mid] and y = Bᵀw.  u_k is the endpoint
    average (u(t) + u(t+τ))/2 for trapezoidal and u(t + τ/2) otherwise.
    That is the input the scheme used only for trapezoidal and midpoint,
    whose balance is therefore exact; implicit Euler and BDF2 step with
    u(t+τ), Gauss-4 and Radau IIA with their stage values u(t + c_i τ).
    Steps are taken in blocks of `block_rows` states, so no temporary grows
    with the trajectory; every step's arithmetic is the same whatever block
    it falls in.
    """
    p = sys.partition
    if method.tag == "trapezoidal":
        u_step = [0.5 * (np.asarray(u(t)) + np.asarray(u(t + tau)))
                  for t in times[:-1]]
    else:
        u_step = [u(t + 0.5 * tau) for t in times[:-1]]
    u_step = np.asarray(u_step, dtype=np.float64)
    n_steps = len(times) - 1
    y = np.empty((n_steps, p.m))
    dissipated = np.empty(n_steps)
    rows = block_rows(p.n)
    for k in range(0, n_steps, rows):
        blk = states[k : k + rows + 1]
        z_mid = 0.5 * (blk[:-1] + blk[1:])
        w = np.hstack([(blk[1:, : p.n1] - blk[:-1, : p.n1]) / tau,
                       (sys.S @ z_mid[:, p.n1 : p.n1 + p.n2].T).T,
                       z_mid[:, p.n1 + p.n2 :]])
        y[k : k + rows] = (sys.B.T @ w.T).T
        dissipated[k : k + rows] = quadratic_forms(sys.R, w)
    zero = np.zeros(1)
    outputs = np.vstack([np.zeros((1, p.m)), y])
    d_cum = np.concatenate([zero, np.cumsum(tau * dissipated)])
    s_cum = np.concatenate([zero, np.cumsum(tau * row_dots(y, u_step))])
    return outputs, d_cum, s_cum


def _make_stepper(dae: LinearDae, method: Method, tau: float):
    """Bind the per-step update, factorizing every needed matrix up front."""
    if method.tag in ("trapezoidal", "bdf2"):
        # endpoint formula (E − τ/2 A) z⁺ = (E + τ/2 A) z + τ B ū; it is also
        # BDF2's startup step, which keeps second order
        rhs = dae.E_dae + (tau / 2.0) * dae.A_dae
        trap = _StageSolver(dae.E_dae - (tau / 2.0) * dae.A_dae,
                            f"trapezoidal, tau = {tau}")
        if method.tag == "bdf2":
            bdf2 = _StageSolver(3.0 * dae.E_dae - 2.0 * tau * dae.A_dae,
                                f"bdf2, tau = {tau}")

        def step(k, z, states, t_k, u):
            if k and method.tag == "bdf2":
                u_next = np.asarray(u(t_k + tau), dtype=np.float64)
                return bdf2.solve(dae.E_dae @ (4.0 * z - states[k - 1])
                                  + 2.0 * tau * (dae.B_dae @ u_next))
            u_avg = 0.5 * (np.asarray(u(t_k)) + np.asarray(u(t_k + tau)))
            return trap.solve(rhs @ z + tau * (dae.B_dae @ u_avg))
        return step

    # implicit Runge-Kutta (midpoint and implicit Euler are its one-stage
    # cases), decoupled through the eigenvalues of the Butcher matrix: with
    # T⁻¹ A_tab T = Λ the stage system splits into one pencil E − τλ_j A per
    # eigenvalue, solved for w_j with the right side Σ_i T⁻¹_ji (A z + B u_i),
    # and z⁺ = z + τ Σ_j γ_j w_j with γ = bᵀT (Butcher, BIT 16, 1976).  Of a
    # conjugate pair only the member with Im λ > 0 is solved; its partner's w
    # is the complex conjugate, so the pair adds 2 Re(γ_j w_j).
    lam, t_mat = np.linalg.eig(np.asarray(method.A, dtype=np.float64))
    if np.linalg.cond(t_mat) > 1e8:
        raise StructureError(
            f"Butcher matrix of {method.tag} is not diagonalizable")
    t_inv = np.linalg.inv(t_mat)
    gamma = np.asarray(method.b, dtype=np.float64) @ t_mat
    pencils = []
    for j in np.flatnonzero(lam.imag >= 0.0):
        if lam[j].imag == 0.0:
            lam_j, row, weight = lam[j].real, t_inv[j].real, gamma[j].real
        else:
            lam_j, row, weight = lam[j], t_inv[j], 2.0 * gamma[j]
        solver = _StageSolver(dae.E_dae - (tau * lam_j) * dae.A_dae,
                              f"{method.tag}, lambda = {lam_j:.6g}, "
                              f"tau = {tau}")
        pencils.append((solver, row, row.sum(), weight))

    def step(k, z, states, t_k, u):
        # row i: the input at stage i, u(t_k + c_i τ)
        u_stages = np.array([u(t_k + float(ci) * tau) for ci in method.c],
                            dtype=np.float64)
        az = dae.A_dae @ z
        z_next = z
        for solver, row, row_sum, weight in pencils:
            w = solver.solve(row_sum * az + dae.B_dae @ (row @ u_stages))
            z_next = z_next + tau * np.real(weight * w)
        return z_next
    return step


# ---------------------------------------------------------------------------
# consistent initialization
# ---------------------------------------------------------------------------

def _row_max_abs(mat) -> np.ndarray:
    """Largest absolute entry of each row of a sparse block (0 if empty)."""
    if not mat.nnz:
        return np.zeros(mat.shape[0])
    return abs(mat).max(axis=1).toarray().ravel()


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
    """
    row_max = np.maximum.reduce(
        [_row_max_abs(mat) for mat in (dae.E_dae, dae.A_dae, dae.B_dae)])
    row_max[row_max == 0.0] = 1.0
    d_inv = sp.diags_array(1.0 / row_max, format="csr")
    e_eq = d_inv @ dae.E_dae
    is_piv = e_eq.diagonal() != 0.0
    is_piv[dae.partition.n1 :] = False
    piv, rest = np.flatnonzero(is_piv), np.flatnonzero(~is_piv)
    lu = _splu(e_eq[piv][:, piv], f"gradient-state pivot block F11[P, P] "
                                  f"of E_dae ({piv.size} x {piv.size})")
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


def _sparse_lstsq(mat, rhs) -> np.ndarray:
    """Least-squares x of mat x ≈ rhs, 0 in empty columns: G and b are mat
    and rhs without empty rows, each row scaled to unit largest entry, and
    the augmented system [[I, G], [Gᵀ, 0]] [r; x] = [b; 0] is factored once
    by `splu` (COLAMD ordering)."""
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
    constraint rows C z + D u = 0 that touch them (`_sparse_lstsq`).  If
    those rows leave a direction free (hidden constraints, higher index),
    C ẋ = −D u̇ joins them and the joint system in (η, z3, ẋ) is solved the
    same way, at any size; `u0` may be a waveform for its derivative.
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
    z += free @ _sparse_lstsq(mat, rhs)[: free.shape[1]]

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


def error_measures(traj: Trajectory, reference, components=None):
    """(eps_z, eps_H) against a reference state waveform.

    reference(t) must return the reference values of the compared components
    (all states when `components` is None).  eps_z is the maximum over the
    grid of the infinity norm of the difference; eps_H the relative drift of
    the Hamiltonian between the first and last instants.
    """
    if components is None:
        components = np.arange(traj.states.shape[1])
    components = np.asarray(components, dtype=np.intp)
    eps_z = 0.0
    for k, t in enumerate(traj.times):
        ref = np.asarray(reference(t), dtype=np.float64)
        diff = np.abs(ref - traj.states[k, components])
        if diff.size:
            eps_z = max(eps_z, float(np.max(diff)))
    h0 = traj.hamiltonians[0]
    if h0 == 0.0:
        raise StructureError("eps_H undefined: initial Hamiltonian is zero")
    eps_h = abs(traj.hamiltonians[-1] - h0) / abs(h0)
    return eps_z, eps_h
