"""Independent re-implementations used as test references.

Element integrals are evaluated here through the affine map onto the
reference triangle and its Jacobian, a different route than the production
assembly (which works with barycentric gradient coefficients directly).
Quadrature points are the published degree-5 values.
`reference_element_integrals` is the stacked kernel as four-operand
`einsum` calls, the reference of the matrix products that
`fem.element_integrals` forms.  `direct_sum_spec`,
the uncoupled interconnection, serves the interconnection tests;
`reference_couple` joins conductors and circuit two systems at a time, the
fold that the one-step `couple` must reproduce exactly.
`reference_endpoint_states` steps trapezoidal, and BDF2 after its
trapezoidal first step, by the endpoint formulas solved for z⁺, the
reference of the increment form the stepper uses.
`reference_per_step_run` steps every method with its inputs evaluated
step by step and every stage solve checked and refined on its own by
`_StageSolver.solve`, the reference of the grid-evaluated inputs of
`simulate` and of its stepper.
`reference_bookkeeping` is the audit of a span with the full-width
midpoint and flow, the reference of the audit that forms only the columns
B and R read.
`reference_csv` is the value-at-a-time `csv.writer` loop that the streamed
CSV writer must reproduce byte for byte.
`reference_incidences`, `reference_mna_system`, `reference_rearrange`,
`reference_constraint_basis` and `reference_consistent_init` build the
setup chain from netlist to z0 block by block, with one sparse matrix per
element column, per diagonal and per zero block, the reference of the
stamped and offset-placed construction that must give the same arrays.
"""
import csv
import io
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from fieldcircuit import _dae
from fieldcircuit._stepping import (_pencil_plan, _pencil_solver,
                                    _StageSolver, method_from_tag)
from fieldcircuit.fem import TRI_QUAD_POINTS, TRI_QUAD_WEIGHTS
from fieldcircuit.integrators import to_linear_dae
from fieldcircuit.interconnect import InterconnectionSpec, interconnect
from fieldcircuit.mna import GROUND
from fieldcircuit.structure import (EnergySystem, Partition, block_rows,
                                    hamiltonian)

_S15 = math.sqrt(15.0)
_RULE = [((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), 9.0 / 40.0)]
for _b, _w in (((6.0 - _S15) / 21.0, (155.0 - _S15) / 1200.0),
               ((6.0 + _S15) / 21.0, (155.0 + _S15) / 1200.0)):
    _RULE += [((1.0 - 2.0 * _b, _b, _b), _w),
              ((_b, 1.0 - 2.0 * _b, _b), _w),
              ((_b, _b, 1.0 - 2.0 * _b), _w)]


def _affine(coords):
    p = np.asarray(coords, dtype=np.float64)
    jac = np.column_stack([p[1] - p[0], p[2] - p[0]])
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    grads = np.linalg.inv(jac).T @ np.array([[-1.0, 1.0, 0.0],
                                             [-1.0, 0.0, 1.0]])
    return grads, 0.5 * abs(det)


def oracle_stiffness(coords, nu):
    """2*pi*nu * integral of [dwi/dz dwj/dz + (dwi/dr + wi/r)(dwj/dr + wj/r)]*r."""
    coords = np.asarray(coords, dtype=np.float64)
    grads, area = _affine(coords)
    out = np.zeros((3, 3))
    for lam, w in _RULE:
        lam = np.asarray(lam)
        r = float(lam @ coords[:, 0])
        dr = grads[0] + lam / r
        dz = grads[1]
        out += w * (np.outer(dz, dz) + np.outer(dr, dr)) * r
    return 2.0 * math.pi * nu * area * out


def oracle_mass(coords, sigma):
    """2*pi*sigma * integral of wi*wj*r."""
    coords = np.asarray(coords, dtype=np.float64)
    _, area = _affine(coords)
    out = np.zeros((3, 3))
    for lam, w in _RULE:
        lam = np.asarray(lam)
        r = float(lam @ coords[:, 0])
        out += w * np.outer(lam, lam) * r
    return 2.0 * math.pi * sigma * area * out


def oracle_winding(coords, turns_density):
    """2*pi*(Nt/Sc) * integral of wi*r."""
    coords = np.asarray(coords, dtype=np.float64)
    _, area = _affine(coords)
    out = np.zeros(3)
    for lam, w in _RULE:
        lam = np.asarray(lam)
        r = float(lam @ coords[:, 0])
        out += w * lam * r
    return 2.0 * math.pi * turns_density * area * out


def reference_element_integrals(coords, coefficients, kind):
    """`fem.element_integrals` as four-operand `einsum` calls over the
    quadrature points, the reference of the matrix-product kernel."""
    coords = np.asarray(coords, dtype=np.float64)
    r = coords[:, :, 0]
    z = coords[:, :, 1]
    area2 = ((r[:, 1] - r[:, 0]) * (z[:, 2] - z[:, 0])
             - (r[:, 2] - r[:, 0]) * (z[:, 1] - z[:, 0]))
    r_q = r @ TRI_QUAD_POINTS.T
    lam, w = TRI_QUAD_POINTS, TRI_QUAD_WEIGHTS
    scale = 2.0 * math.pi * coefficients * (0.5 * area2)
    if kind == "winding":
        return np.einsum("q,qi,mq->mi", w, lam, r_q) * scale[:, None]
    if kind == "mass":
        blocks = np.einsum("q,qi,qj,mq->mij", w, lam, lam, r_q)
    else:
        b = np.stack([z[:, 1] - z[:, 2], z[:, 2] - z[:, 0], z[:, 0] - z[:, 1]],
                     axis=1) / area2[:, None]
        c = np.stack([r[:, 2] - r[:, 1], r[:, 0] - r[:, 2], r[:, 1] - r[:, 0]],
                     axis=1) / area2[:, None]
        grad = (np.einsum("mi,mj->mij", b, b) + np.einsum("mi,mj->mij", c, c))
        blocks = (grad * np.einsum("q,mq->m", w, r_q)[:, None, None]
                  + np.einsum("q,mi,qj->mij", w, b, lam)
                  + np.einsum("q,qi,mj->mij", w, lam, b)
                  + np.einsum("q,qi,qj,mq->mij", w, lam, lam, 1.0 / r_q))
    return blocks * scale[:, None, None]


def random_triangle(rng, r_min=0.2):
    """Positively oriented triangle with every vertex at r >= r_min."""
    while True:
        base = np.array([rng.uniform(r_min + 0.1, 2.0), rng.uniform(-1.0, 1.0)])
        pts = base + rng.uniform(-0.1, 0.1, size=(3, 2))
        pts[:, 0] = np.maximum(pts[:, 0], r_min)
        area2 = ((pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
                 - (pts[2, 0] - pts[0, 0]) * (pts[1, 1] - pts[0, 1]))
        if area2 < 0.0:
            pts[[1, 2]] = pts[[2, 1]]
            area2 = -area2
        if area2 > 1e-3:
            return pts


def direct_sum_spec(m_a, m_b):
    """The trivial spec (no coupling): F_skew = F_sym = 0."""
    m = m_a + m_b
    return InterconnectionSpec(np.zeros((m, m)), np.zeros((m, m)), m)


def reference_couple(circuit, conductor_systems, binding):
    """The conductors folded pairwise by zero-coupling interconnections,
    then that sum joined to the circuit through the port coupling."""
    acc = conductor_systems[0]
    for sysk in conductor_systems[1:]:
        acc = interconnect([acc, sysk],
                           direct_sum_spec(acc.partition.m, sysk.partition.m))
    m_cond = acc.partition.m
    m = m_cond + circuit.partition.m
    f_skew = np.zeros((m, m))
    for port in binding.ports:
        q = binding.conductor_port_index(port)
        f_skew[m_cond + port.circuit_index, q] = 1.0
        f_skew[q, m_cond + port.circuit_index] = -1.0
    spec = InterconnectionSpec(f_skew, np.zeros((m, m)), m)
    return interconnect([acc, circuit], spec)


def reference_endpoint_states(sys, z0, u, tau, steps, method):
    """States of `steps` trapezoidal or BDF2 steps by the endpoint formulas
    (E − τ/2 A) z⁺ = (E + τ/2 A) z + τ B (u(t) + u(t+τ))/2 and, for BDF2
    after its trapezoidal first step, (3E − 2τA) z⁺ = E (4z − z⁻)
    + 2τ B u(t+τ)."""
    dae = to_linear_dae(sys)
    e, a, b = dae.E_dae, dae.A_dae, dae.B_dae
    trap = _StageSolver(e - (tau / 2.0) * a, "reference trapezoidal")
    bdf2 = _StageSolver(3.0 * e - 2.0 * tau * a, "reference bdf2")
    states = [np.asarray(z0, dtype=np.float64)]
    for k in range(steps):
        z, t_k = states[-1], k * tau
        u_next = np.asarray(u(t_k + tau), dtype=np.float64)
        if k and method == "bdf2":
            rhs = e @ (4.0 * z - states[-2]) + 2.0 * tau * (b @ u_next)
            states.append(bdf2.solve(rhs))
        else:
            u_avg = 0.5 * (np.asarray(u(t_k), dtype=np.float64) + u_next)
            rhs = (e + (tau / 2.0) * a) @ z + tau * (b @ u_avg)
            states.append(trap.solve(rhs))
    return np.array(states)


def reference_per_step_run(sys, z0, u, tau, steps, method):
    """States of `steps` steps from t = 0 and the input of each step's
    supplied energy, with u called inside the loop: per pencil (λ_j, r_j,
    γ_j) of `_pencil_plan`, the right side (Σ_i r_ji) A z + B (r_j ·
    [u(t_k + c_i τ)]_i) + h E (z − z⁻)/τ over the whole state, and
    (u(t) + u(t+τ))/2, u(t+τ) or u(t + τ/2) for trapezoidal, implicit
    Euler or the rest.  Each solve is `_StageSolver.solve`, which tests
    and refines it on its own, of a pencil factored with the ordering that
    `_pencil_solver` keeps for the system."""
    dae = to_linear_dae(sys)
    method = method_from_tag(method)
    startup = [method_from_tag("trapezoidal")] if method.tag == "bdf2" else []
    plans = []
    for m in startup + [method]:
        nodes, pencils, history = _pencil_plan(m)
        solvers = [(_pencil_solver(dae, dae.E_dae - (tau * lam) * dae.A_dae,
                                   m.tag), row, weight)
                   for lam, row, weight in pencils]
        plans.append(([float(ci) * tau for ci in nodes], solvers,
                      history / tau))
    times = 0.0 + tau * np.arange(steps + 1)
    states = [np.asarray(z0, dtype=np.float64)]
    for k in range(steps):
        offsets, solvers, lag = plans[min(k, len(plans) - 1)]
        z, z_prev = states[-1], states[max(k - 1, 0)]
        u_nodes = np.array([u(times[k] + dt) for dt in offsets],
                           dtype=np.float64)
        az = dae.A_dae @ z
        z_next = z
        for solver, row, weight in solvers:
            rhs = row.sum() * az + dae.B_dae @ (row @ u_nodes)
            if lag:
                rhs = rhs + lag * (dae.E_dae @ (z - z_prev))
            z_next = z_next + tau * np.real(weight * solver.solve(rhs))
        states.append(z_next)
    if method.tag == "trapezoidal":
        u_step = [0.5 * (np.asarray(u(t)) + np.asarray(u(t + tau)))
                  for t in times[:-1]]
    else:
        endpoint = method.tag == "implicit_euler"
        u_step = [u(t + (tau if endpoint else 0.5 * tau)) for t in times[:-1]]
    return np.array(states), np.asarray(u_step, dtype=np.float64)


def reference_bookkeeping(sys, states, tau, endpoint):
    """(y, wᵀRw, H) of the steps of a span, as `_audit.energy_bookkeeping`
    returns them, from the full-width z* and w = [(z1⁺−z1)/τ; S z2*; z3*]
    of each block of `block_rows(n)` steps: y = Bᵀw over all n rows and
    wᵀRw the row sums of the C-ordered products w ⊙ Rw."""
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
        dissipated[k : k + rows] = np.sum(
            np.ascontiguousarray(w)
            * np.ascontiguousarray((sys.R @ w.T).T), axis=1)
        h[k : k + rows] = hamiltonian(sys, blk[1:])
    return y, dissipated, h


def reference_csv(header, columns) -> bytes:
    """CSV bytes of equal-length columns through `csv.writer`, one value at
    a time: floating values as `%.17g`, the others as `str`."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    numeric = [np.issubdtype(c.dtype, np.floating) for c in columns]
    for k in range(columns[0].shape[0]):
        writer.writerow(format(float(c[k]), ".17g") if num else str(c[k])
                        for c, num in zip(columns, numeric))
    return buf.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# the setup chain as it was built block by block: references of the stamped
# MNA system, of the DAE rewrite by offsets and of consistent_init
# ---------------------------------------------------------------------------

def _column(node_index, card, n):
    rows, vals = [], []
    if card.n_plus != GROUND:
        rows.append(node_index[card.n_plus])
        vals.append(1.0)
    if card.n_minus != GROUND:
        rows.append(node_index[card.n_minus])
        vals.append(-1.0)
    return sp.csr_array((vals, (rows, [0] * len(rows))), shape=(n, 1))


def reference_incidences(nl, inc):
    """(a_c, a_r, a_l, a_v, a_i) of `inc`, one n×1 column per card
    stacked by `hstack`, the cards taken in the branch order of `inc`."""
    node_index = {nm: k for k, nm in enumerate(inc.node_order)}
    n = len(node_index)
    by_name = {c.name: c for c in nl.cards}

    def hcat(cards):
        if not cards:
            return sp.csr_array((n, 0))
        return sp.csr_array(sp.hstack(
            [_column(node_index, c, n) for c in cards], format="csr"))

    return tuple(hcat(cards) for cards in (
        [c for c in nl.cards if c.kind == "C"],
        [c for c in nl.cards if c.kind == "R"],
        [c for c in nl.cards if c.kind == "L"],
        [by_name[nm] for nm in inc.v_branch_names],
        [by_name[nm] for nm in inc.i_branch_names]))


def _diag(vals):
    return sp.diags_array(vals, format="csr") if vals.size \
        else sp.csr_array((0, 0))


def reference_mna_system(inc):
    """The MNA system of `mna.mna_system` built from sparse products and
    `bmat`s of its blocks."""
    n_phi = inc.n_phi
    b_l = inc.l_diag.size
    b_v = inc.a_v.shape[1]
    b_i = inc.a_i.shape[1]
    n2 = n_phi + b_l
    a_c, a_r, a_l, a_v, a_i = (sp.csr_array(x) for x in
                               (inc.a_c, inc.a_r, inc.a_l, inc.a_v, inc.a_i))
    e_cap = sp.csr_array(a_c @ _diag(inc.c_diag) @ a_c.T) if inc.c_diag.size \
        else sp.csr_array((n_phi, n_phi))
    e_mat = sp.block_diag((e_cap, _diag(inc.l_diag)), format="csr") if b_l \
        else e_cap
    r_phi = sp.csr_array(a_r @ _diag(inc.g_diag) @ a_r.T) if inc.g_diag.size \
        else sp.csr_array((n_phi, n_phi))
    j = sp.bmat([
        [sp.csr_array((n_phi, n_phi)), -a_l, -a_v],
        [a_l.T, sp.csr_array((b_l, b_l)), sp.csr_array((b_l, b_v))],
        [a_v.T, sp.csr_array((b_v, b_l)), sp.csr_array((b_v, b_v))],
    ], format="csr")
    r = sp.bmat([
        [r_phi, sp.csr_array((n_phi, b_l + b_v))],
        [sp.csr_array((b_l + b_v, n_phi)),
         sp.csr_array((b_l + b_v, b_l + b_v))],
    ], format="csr")
    b = -sp.bmat([
        [a_i, sp.csr_array((n_phi, b_v))],
        [sp.csr_array((b_l, b_i)), sp.csr_array((b_l, b_v))],
        [sp.csr_array((b_v, b_i)), sp.identity(b_v, format="csr")],
    ], format="csr")
    return EnergySystem(Partition(0, n2, b_v, b_i + b_v),
                        E=e_mat, J=j, R=r, B=b,
                        M1=sp.csr_array((0, 0)), M2=e_mat,
                        S=sp.identity(n2, format="csr"))


def reference_rearrange(sys):
    """(E_dae, A_dae, B_dae) of `_dae.rearrange`, each from a
    `bmat` or `vstack` of the sliced blocks of J − R."""
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
    return (sp.csr_array(sp.bmat(e_rows, format="csr")),
            sp.csr_array(sp.bmat(a_rows, format="csr")),
            sp.csr_array(sp.vstack(b_rows, format="csr")))


def reference_left_null_basis(mat):
    """`_dae._left_null_basis` with its row blocks found through
    the graph of abs(m) abs(m)ᵀ and assembled by `block_diag`."""
    mat = sp.csr_array(mat)
    mat.eliminate_zeros()
    nz_rows = np.flatnonzero(np.diff(mat.indptr))
    zero_rows = np.flatnonzero(np.diff(mat.indptr) == 0)
    m_nz = mat[nz_rows]
    _, labels = csgraph.connected_components(abs(m_nz) @ abs(m_nz).T,
                                             directed=False)
    order = np.argsort(labels, kind="stable")
    blocks = [sp.eye_array(zero_rows.size)]
    for rows in np.split(order, np.flatnonzero(np.diff(labels[order])) + 1):
        blk = m_nz[rows]
        blocks.append(scipy.linalg.null_space(
            blk[:, np.unique(blk.indices)].toarray().T))
    rows = np.r_[zero_rows, nz_rows[order]]
    return sp.block_diag(blocks, "csr")[np.argsort(rows)]


def reference_constraint_basis(e_dae, a_dae, b_dae, n1):
    """(C, D) of `_dae.constraint_basis`, with the scaling as a
    diagonal product and the pivot block factored even when it is empty."""
    row_max = np.maximum.reduce(
        [_dae._row_max_abs(mat) for mat in (e_dae, a_dae, b_dae)])
    row_max[row_max == 0.0] = 1.0
    d_inv = sp.diags_array(1.0 / row_max, format="csr")
    e_eq = d_inv @ e_dae
    is_piv = e_eq.diagonal() != 0.0
    is_piv[n1:] = False
    piv, rest = np.flatnonzero(is_piv), np.flatnonzero(~is_piv)
    lu = _dae._splu(e_eq[piv][:, piv], "pivot block")
    e_rest = e_eq[rest]
    e_qp, e_pk, schur = e_rest[:, piv], e_eq[piv][:, rest], e_rest[:, rest]
    if e_pk.nnz:
        cols = np.unique(e_pk.indices)
        x = sp.csr_array(lu.solve(e_pk[:, cols].toarray()))
        schur = sp.hstack([schur[:, np.setdiff1d(np.arange(rest.size), cols)],
                           schur[:, cols] - e_qp @ x])
    w = reference_left_null_basis(schur)
    hit = np.unique(w[np.flatnonzero(np.diff(e_qp.indptr))].indices)
    v_p = sp.csr_array(-lu.solve((e_qp.T @ w[:, hit]).toarray(), trans="T"))
    v = sp.vstack([sp.csr_array((v_p.data, hit[v_p.indices], v_p.indptr),
                                shape=(piv.size, w.shape[1])), w])
    v_t = sp.csr_array((d_inv @ v[np.argsort(np.r_[piv, rest])]).T)
    return v_t @ a_dae, v_t @ b_dae


def reference_sparse_least_squares(mat, rhs):
    """`_dae.sparse_least_squares` with the augmented system
    assembled by `bmat`."""
    mat = sp.csr_array(mat)
    mat.eliminate_zeros()
    rows, cols = np.flatnonzero(np.diff(mat.indptr)), np.unique(mat.indices)
    scale = 1.0 / _dae._row_max_abs(mat[rows])
    g = sp.diags_array(scale) @ mat[rows][:, cols]
    lu = _dae._splu(sp.bmat([[sp.eye_array(rows.size), g],
                             [g.T, None]]), "least squares")
    sol = lu.solve(np.r_[scale * rhs[rows], np.zeros(cols.size)])
    x = np.zeros(mat.shape[1])
    x[cols] = sol[rows.size :]
    return x


def reference_consistent_init(sys, differential_values, u_val, u_dot):
    """z0 of `consistent_init` for input values u0 and u̇0, from the
    reference rewrite, constraint basis and least squares, with the free
    directions assembled by `block_diag`."""
    p = sys.partition
    z = np.asarray(differential_values, dtype=np.float64).copy()
    e_dae, a_dae, b_dae = reference_rearrange(sys)
    c_mat, d_mat = reference_constraint_basis(e_dae, a_dae, b_dae, p.n1)
    free = sp.block_diag([sp.csr_array((p.n1, 0)),
                          reference_left_null_basis(sys.E.T),
                          sp.eye_array(p.n3)], format="csr")
    z[p.n1 + p.n2 :] = 0.0
    mat, rhs = c_mat @ free, -(c_mat @ z) - d_mat @ u_val
    if csgraph.structural_rank(mat) < free.shape[1]:
        mat = sp.block_array([[-(a_dae @ free), e_dae], [None, c_mat]])
        rhs = np.r_[a_dae @ z + b_dae @ u_val, -(d_mat @ u_dot)]
    z += free @ reference_sparse_least_squares(mat, rhs)[: free.shape[1]]
    return z
