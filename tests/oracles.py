"""Independent re-implementations used as test references.

Element integrals are evaluated here through the affine map onto the
reference triangle and its Jacobian, a different route than the production
assembly (which works with barycentric gradient coefficients directly).
Quadrature points are the published degree-5 values.  `direct_sum_spec`,
the uncoupled interconnection, serves the interconnection tests.
"""
import math

import numpy as np

from fieldcircuit.interconnect import InterconnectionSpec

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
