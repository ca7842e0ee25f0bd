"""Time integration of energy-based DAE systems with energy bookkeeping.

Every system is rewritten as one implicit linear DAE, E_dae ẋ = A_dae x +
B_dae u, and stepped with fixed-step implicit schemes: midpoint, trapezoidal,
implicit Euler, BDF2 and the fully implicit Runge-Kutta methods Gauss-4 and
Radau IIA of order 5.  Trajectories carry the Hamiltonian and cumulative
dissipated/supplied energy so the discrete power balance can be audited after
the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fieldcircuit.structure import (
    EnergySystem,
    NumericalError,
    Partition,
    StructureError,
    hamiltonian,
    quadratic_forms,
    row_dots,
    to_dense,
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

    @property
    def stages(self) -> int:
        return 0 if self.A is None else len(self.b)


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
    # Lobatto IIIA; kept for reference, stepped via the endpoint formula
    # because the explicit first stage cannot be evaluated behind singular E.
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


def check_tableau(method: Method) -> None:
    """Basic consistency: weights sum to one, abscissae inside [0, 1]."""
    if method.A is None:
        return
    if abs(float(np.sum(method.b)) - 1.0) > 1e-14:
        raise StructureError(f"tableau weights of {method.tag} do not sum to 1")
    if np.any(method.c < -1e-15) or np.any(method.c > 1.0 + 1e-15):
        raise StructureError(f"tableau abscissae of {method.tag} leave [0, 1]")


# ---------------------------------------------------------------------------
# factorized stage solver with iterative refinement
# ---------------------------------------------------------------------------

class _StageSolver:
    """LU factorization of a fixed stage matrix, reused across all steps.

    One or two rounds of iterative refinement keep the solve residual near
    round-off even when the stage matrix mixes badly scaled physical blocks.
    """

    def __init__(self, mat, context: str):
        self._context = context
        self._mat = sp.csr_array(mat)
        try:
            self._lu = spla.splu(sp.csc_matrix(mat))
        except RuntimeError as exc:
            raise NumericalError(
                f"singular stage matrix ({context}); the matrix pencil may "
                f"be irregular or the model inconsistent") from exc
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
# single steps
# ---------------------------------------------------------------------------

def _midpoint_matrices(dae: LinearDae, tau: float):
    lhs = dae.E_dae - (tau / 2.0) * dae.A_dae
    rhs = dae.E_dae + (tau / 2.0) * dae.A_dae
    return lhs, rhs


def step_midpoint(sys: EnergySystem, z_k: np.ndarray, u_mid: np.ndarray,
                  tau: float):
    """One midpoint step; returns (z_next, y_mid).

    y_mid is the discrete port output Bᵀ [(z1⁺−z1)/τ; S z2_mid; z3_mid] that
    enters the exact discrete power balance.
    """
    u_mid = np.asarray(u_mid, dtype=np.float64)
    traj = simulate(sys, z_k, lambda t: u_mid, tau, tau, "midpoint")
    return traj.states[1], traj.outputs[1]


def step_irk(dae: LinearDae, method, z_k: np.ndarray, u, t_k: float,
             tau: float) -> np.ndarray:
    """One step of a one-step method on E_dae ẋ = A_dae x + B_dae u.

    `u` is an evaluable waveform.  The step is the one `simulate` takes:
    trapezoidal uses the endpoint formula (its tableau has an explicit first
    stage, which a singular E_dae cannot evaluate), Gauss-4 and Radau IIA the
    stacked stage system.
    """
    method = method_from_tag(method)
    if method.tag == "bdf2":
        raise StructureError("bdf2 is a multistep scheme; use simulate()")
    z_k = np.asarray(z_k, dtype=np.float64)
    return _make_stepper(dae, method, tau)(0, z_k, None, t_k, u)


def _stacked_stage_matrix(dae: LinearDae, method: Method, tau: float):
    s = method.stages
    eye = sp.identity(s, format="csr")
    a_tab = sp.csr_array(np.asarray(method.A))
    return sp.kron(eye, dae.E_dae, format="csr") - tau * sp.kron(
        a_tab, dae.A_dae, format="csr")


def _stacked_rhs(dae: LinearDae, method: Method, z_k, u, t_k, tau):
    ax = dae.A_dae @ z_k
    parts = []
    for ci in method.c:
        ui = np.asarray(u(t_k + float(ci) * tau), dtype=np.float64)
        parts.append(ax + dae.B_dae @ ui)
    return np.concatenate(parts)


def _apply_stages(dae: LinearDae, method: Method, z_k, k_stacked, tau):
    n = dae.partition.n
    z = z_k.copy()
    for i, bi in enumerate(method.b):
        z = z + tau * float(bi) * k_stacked[i * n : (i + 1) * n]
    return z


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Equidistant simulation record.

    outputs[k] for k >= 1 is the discrete port flow Bᵀ w of the step ending
    at times[k] (the quantity entering the discrete power balance);
    outputs[0] is zero since no step precedes the initial instant.
    dissipated_cum/supplied_cum integrate the discrete power terms with the
    same input convention the stepping scheme used.
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
    w = [(z1⁺−z1)/τ; S z2_mid; z3_mid] and y = Bᵀw; u_k is the input the
    scheme used: the endpoint average for trapezoidal, the midpoint value
    otherwise.
    """
    p = sys.partition
    z_mid = 0.5 * (states[:-1] + states[1:])
    w = np.hstack([(states[1:, : p.n1] - states[:-1, : p.n1]) / tau,
                   (sys.S @ z_mid[:, p.n1 : p.n1 + p.n2].T).T,
                   z_mid[:, p.n1 + p.n2 :]])
    y = (sys.B.T @ w.T).T
    if method.tag == "trapezoidal":
        u_step = [0.5 * (np.asarray(u(t)) + np.asarray(u(t + tau)))
                  for t in times[:-1]]
    else:
        u_step = [u(t + 0.5 * tau) for t in times[:-1]]
    u_step = np.asarray(u_step, dtype=np.float64)
    zero = np.zeros(1)
    outputs = np.vstack([np.zeros((1, p.m)), y])
    d_cum = np.concatenate([zero, np.cumsum(tau * quadratic_forms(sys.R, w))])
    s_cum = np.concatenate([zero, np.cumsum(tau * row_dots(y, u_step))])
    return outputs, d_cum, s_cum


def _make_stepper(dae: LinearDae, method: Method, tau: float):
    """Bind the per-step update, factorizing every needed matrix up front."""
    if method.tag in ("midpoint", "trapezoidal"):
        lhs, rhs = _midpoint_matrices(dae, tau)
        solver = _StageSolver(lhs, f"{method.tag}, tau = {tau}")

        if method.tag == "midpoint":
            def step(k, z, states, t_k, u):
                u_mid = np.asarray(u(t_k + 0.5 * tau), dtype=np.float64)
                return solver.solve(rhs @ z + tau * (dae.B_dae @ u_mid))
        else:
            def step(k, z, states, t_k, u):
                u_avg = 0.5 * (np.asarray(u(t_k)) + np.asarray(u(t_k + tau)))
                return solver.solve(rhs @ z + tau * (dae.B_dae @ u_avg))
        return step

    if method.tag == "implicit_euler":
        solver = _StageSolver(dae.E_dae - tau * dae.A_dae,
                              f"implicit_euler, tau = {tau}")

        def step(k, z, states, t_k, u):
            u_next = np.asarray(u(t_k + tau), dtype=np.float64)
            return solver.solve(dae.E_dae @ z + tau * (dae.B_dae @ u_next))
        return step

    if method.tag == "bdf2":
        # startup: one trapezoidal step keeps second order
        lhs, rhs = _midpoint_matrices(dae, tau)
        trap = _StageSolver(lhs, f"bdf2 startup, tau = {tau}")
        solver = _StageSolver(3.0 * dae.E_dae - 2.0 * tau * dae.A_dae,
                              f"bdf2, tau = {tau}")

        def step(k, z, states, t_k, u):
            if k == 0:
                u_avg = 0.5 * (np.asarray(u(t_k)) + np.asarray(u(t_k + tau)))
                return trap.solve(rhs @ z + tau * (dae.B_dae @ u_avg))
            z_prev = states[k - 1]
            u_next = np.asarray(u(t_k + tau), dtype=np.float64)
            return solver.solve(dae.E_dae @ (4.0 * z - z_prev)
                                + 2.0 * tau * (dae.B_dae @ u_next))
        return step

    # fully implicit Runge-Kutta through the stacked stage system
    mat = _stacked_stage_matrix(dae, method, tau)
    solver = _StageSolver(mat, f"{method.tag}, tau = {tau}")

    def step(k, z, states, t_k, u):
        ks = solver.solve(_stacked_rhs(dae, method, z, u, t_k, tau))
        return _apply_stages(dae, method, z, ks, tau)
    return step


# ---------------------------------------------------------------------------
# consistent initialization
# ---------------------------------------------------------------------------

def default_pinned_mask(sys: EnergySystem) -> np.ndarray:
    """Differential components: all of z1 plus the image-of-E part of z2."""
    p = sys.partition
    mask = np.zeros(p.n, dtype=bool)
    mask[: p.n1] = True
    e_cols = sys.E.indices[sys.E.data != 0.0]
    mask[p.n1 + e_cols] = True
    return mask


def _row_equilibrate(mat: np.ndarray, rhs: np.ndarray):
    scale = np.max(np.abs(mat), axis=1)
    scale[scale == 0.0] = 1.0
    return mat / scale[:, None], rhs / scale


_INIT_DENSE_LIMIT = 2500


def _constraint_basis(dae: LinearDae):
    """Left null space of the (row-equilibrated) leading matrix.

    The algebraic constraints of E ẋ = A x + B u are vᵀ(A x + B u) = 0 for
    every v with vᵀE = 0; zero rows of E are only a subset once the leading
    matrix couples state blocks.  Rows are scaled to unit size first so rank
    detection is not thrown off by mixed physical units.  Zero rows enter as
    exact unit vectors; cross-row null directions are recovered from the
    nonzero rows alone, and skipped when there are more than the dense limit
    of those (enough for assembled field models, whose conductivity mass
    vanishes outside its support).
    """
    e_d = sp.csr_array(dae.E_dae)
    a_d = sp.csr_array(dae.A_dae)
    b_d = sp.csr_array(dae.B_dae)
    n = dae.partition.n
    row_max = np.zeros(n)
    for mat in (e_d, a_d, b_d):
        m_abs = abs(mat)
        if m_abs.nnz:
            row_max = np.maximum(row_max, m_abs.max(axis=1).toarray().ravel())
    row_max[row_max == 0.0] = 1.0
    d_inv = sp.diags_array(1.0 / row_max, format="csr")
    e_eq = sp.csr_array(d_inv @ e_d).copy()
    e_eq.eliminate_zeros()
    zero_rows = np.flatnonzero(np.diff(e_eq.indptr) == 0)
    nz_rows = np.flatnonzero(np.diff(e_eq.indptr) != 0)
    v_unit = np.zeros((n, zero_rows.size))
    v_unit[zero_rows, np.arange(zero_rows.size)] = 1.0
    # exactly-zero rows give exact basis vectors; any remaining left-null
    # directions live on the other rows alone
    if nz_rows.size and nz_rows.size <= _INIT_DENSE_LIMIT:
        v_mix = scipy.linalg.null_space(to_dense(e_eq[nz_rows, :]).T)
        v_rest = np.zeros((n, v_mix.shape[1]))
        v_rest[nz_rows, :] = v_mix
        v = np.hstack([v_unit, v_rest])
    else:
        v = v_unit
    c_mat = v.T @ to_dense(d_inv @ a_d) if v.size else np.zeros((0, n))
    d_mat = (v.T @ to_dense(d_inv @ b_d)
             if v.size else np.zeros((0, dae.partition.m)))
    return v, c_mat, d_mat


def consistent_init(sys: EnergySystem, differential_values: np.ndarray, u0,
                    pinned: np.ndarray = None, t0: float = 0.0,
                    tol: float = 1e-8) -> np.ndarray:
    """Complete a partial initial state so the algebraic constraints hold at t0.

    differential_values is a full-length vector; only entries flagged by
    `pinned` (default: z1 and the image-of-E part of z2) are kept, the rest
    are solved from the algebraic constraints of the linear DAE.  When those
    do not determine all free components (hidden constraints of higher
    index), the differentiated constraints are appended and the joint system
    in (x_free, ẋ) is solved; `u0` may be a waveform so its derivative is
    available for that case.  Raises when the pinned values contradict the
    constraints.
    """
    p = sys.partition
    z = np.asarray(differential_values, dtype=np.float64).copy()
    if z.shape != (p.n,):
        raise StructureError(f"expected full-length vector of {p.n} entries")
    if pinned is None:
        pinned = default_pinned_mask(sys)
    pinned = np.asarray(pinned, dtype=bool)
    if pinned.shape != (p.n,):
        raise StructureError("pinned mask length mismatch")

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
    _, c_mat, d_mat = _constraint_basis(dae)
    free = np.flatnonzero(~pinned)
    z[free] = 0.0
    du = d_mat @ u_val if p.m else np.zeros(c_mat.shape[0])

    if free.size and c_mat.shape[0]:
        rhs = -(c_mat @ z) - du
        mat_eq, rhs_eq = _row_equilibrate(c_mat[:, free], rhs)
        sol, _, rank, _ = np.linalg.lstsq(mat_eq, rhs_eq, rcond=None)
        z[free] = sol
        if rank < free.size:
            z = _init_with_hidden_constraints(dae, z, free, u_val, u_dot,
                                              c_mat, d_mat)

    _check_constraint_residual(c_mat, d_mat, z, u_val, tol, p)
    return z


def _init_with_hidden_constraints(dae: LinearDae, z, free, u_val, u_dot,
                                  c_mat, d_mat):
    """Joint solve in (x_free, ẋ) adding the differentiated constraints."""
    n = dae.partition.n
    if n > _INIT_DENSE_LIMIT:
        raise NumericalError(
            "consistent initialization with hidden constraints needs a dense "
            f"least-squares solve; system size {n} exceeds the supported bound")
    a_d = to_dense(dae.A_dae)
    e_d = to_dense(dae.E_dae)
    b_d = to_dense(dae.B_dae)
    m = dae.partition.m
    z_pin = z.copy()
    z_pin[free] = 0.0

    # rows: [E ẋ − A x = B u0] and [C ẋ = −D u̇0]; unknowns [x_free; ẋ]
    top = np.hstack([-a_d[:, free], e_d])
    bot = np.hstack([np.zeros((c_mat.shape[0], free.size)), c_mat])
    mat = np.vstack([top, bot])
    rhs = np.concatenate([
        a_d @ z_pin + (b_d @ u_val if m else np.zeros(n)),
        -(d_mat @ u_dot) if m else np.zeros(c_mat.shape[0]),
    ])
    mat_eq, rhs_eq = _row_equilibrate(mat, rhs)
    sol, _, _, _ = np.linalg.lstsq(mat_eq, rhs_eq, rcond=None)
    out = z_pin.copy()
    out[free] = sol[: free.size]
    return out


def _check_constraint_residual(c_mat, d_mat, z, u_val, tol, p):
    if c_mat.shape[0] == 0:
        return
    res = c_mat @ z + (d_mat @ u_val if p.m else 0.0)
    row_scale = np.max(np.abs(c_mat), axis=1) * max(np.max(np.abs(z), initial=0.0), 1.0)
    if p.m and d_mat.size:
        row_scale = np.maximum(
            row_scale, np.max(np.abs(d_mat), axis=1)
            * max(np.max(np.abs(u_val), initial=0.0), 1.0))
    row_scale[row_scale == 0.0] = 1.0
    rel = np.abs(res) / row_scale
    bad = float(np.max(rel)) if rel.size else 0.0
    if bad > tol:
        worst = int(np.argmax(rel))
        dominant = int(np.argmax(np.abs(c_mat[worst])))
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
