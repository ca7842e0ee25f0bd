"""Independent re-implementations used as test references.

Element integrals are evaluated here through the affine map onto the
reference triangle and its Jacobian, a different route than the production
assembly (which works with barycentric gradient coefficients directly).
Quadrature points are the published degree-5 values.  `direct_sum_spec`,
the uncoupled interconnection, serves the interconnection tests;
`reference_couple` joins conductors and circuit two systems at a time, the
fold that the one-step `couple` must reproduce exactly.
`reference_endpoint_states` steps trapezoidal, and BDF2 after its
trapezoidal first step, by the endpoint formulas solved for z⁺, the
reference of the increment form the stepper uses.
`reference_per_step_run` steps every method with its inputs evaluated
step by step and every stage solve checked and refined on its own by
`_StageSolver.solve`, the reference of the grid-evaluated inputs of
`simulate` and of its residual check once per block of steps.
`reference_residual_test` is the per-solve residual and acceptance test of
`_StageSolver.solve`, the reference of the batched `residuals` and
`accepts`.
`reference_csv` is the value-at-a-time `csv.writer` loop that the streamed
CSV writer must reproduce byte for byte.
"""
import csv
import io
import math

import numpy as np

from fieldcircuit import integrators
from fieldcircuit.integrators import (_pencil_plan, _StageSolver,
                                      method_from_tag, to_linear_dae)
from fieldcircuit.interconnect import InterconnectionSpec, interconnect

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
    and refines it on its own."""
    dae = to_linear_dae(sys)
    method = method_from_tag(method)
    startup = [method_from_tag("trapezoidal")] if method.tag == "bdf2" else []
    plans = []
    for m in startup + [method]:
        nodes, pencils, history = _pencil_plan(m)
        solvers = [(_StageSolver(dae.E_dae - (tau * lam) * dae.A_dae, m.tag),
                    row, weight) for lam, row, weight in pencils]
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


def reference_residual_test(solver, rhs, x):
    """(rhs − P x, accepted) of one stage solve, with the arithmetic of the
    first residual test of `_StageSolver.solve`: accepted when ‖rhs −
    P x‖∞ ≤ bound · eps · (‖rhs‖∞ + ‖P‖∞ ‖x‖∞), bound the module's
    `_RESIDUAL_BOUND`."""
    r = rhs - solver._mat @ x
    scale = solver._row_scale * np.abs(x).max(initial=0.0)
    bound = (integrators._RESIDUAL_BOUND * np.finfo(np.float64).eps
             * (np.abs(rhs).max(initial=0.0) + scale))
    return r, bool(np.abs(r).max(initial=0.0) <= bound)


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
