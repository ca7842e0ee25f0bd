"""Axisymmetric finite elements for the azimuthal magnetic vector potential.

Linear nodal elements on triangles in the (r, z) half plane.  The curl-curl
stiffness, conductivity mass and winding-coupling blocks are integrated with
a degree-5 seven-point rule; all quadrature points are interior, so the
1/r term stays finite even on triangles touching the axis (whose rows are
removed by the Dirichlet reduction anyway).  `element_integrals` is the only
element integration: it works on a stack of triangles, and every assembly
routine calls it once on all the triangles it needs.

Geometry is described by axis-aligned rectangles; later rectangles paint over
earlier ones, the first one is the computational domain.  Lengths in geometry
files are millimetres and are converted to metres on read.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fieldcircuit import serialization
from fieldcircuit.structure import (
    NumericalError,
    StructureError,
    to_csr,
    to_dense,
)

MU0 = 4.0e-7 * math.pi

# degree-5 rule on the reference triangle: centroid plus two interior orbits
_B_A = (6.0 - math.sqrt(15.0)) / 21.0
_B_B = (6.0 + math.sqrt(15.0)) / 21.0
_W_A = (155.0 - math.sqrt(15.0)) / 1200.0
_W_B = (155.0 + math.sqrt(15.0)) / 1200.0

TRI_QUAD_POINTS = np.array([
    [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    [1.0 - 2.0 * _B_A, _B_A, _B_A],
    [_B_A, 1.0 - 2.0 * _B_A, _B_A],
    [_B_A, _B_A, 1.0 - 2.0 * _B_A],
    [1.0 - 2.0 * _B_B, _B_B, _B_B],
    [_B_B, 1.0 - 2.0 * _B_B, _B_B],
    [_B_B, _B_B, 1.0 - 2.0 * _B_B],
])
TRI_QUAD_WEIGHTS = np.array([9.0 / 40.0, _W_A, _W_A, _W_A, _W_B, _W_B, _W_B])


@dataclass(frozen=True)
class Material:
    tag: str
    mu_r: float = 1.0
    sigma: float = 0.0

    @property
    def nu(self) -> float:
        return 1.0 / (MU0 * self.mu_r)


AIR = Material("air")

NODE_FREE = 0
NODE_OUTER = 1
NODE_AXIS = 2


@dataclass
class Mesh:
    """Triangulation of the (r, z) half plane.

    nodes: (n, 2) coordinates in metres; node_tags: 0 free, 1 outer boundary,
    2 axis (both boundary kinds carry the homogeneous Dirichlet condition);
    triangles: (m, 3) zero-based node indices, positively oriented;
    tri_tags: region tag string per triangle.
    """

    nodes: np.ndarray
    node_tags: np.ndarray
    triangles: np.ndarray
    tri_tags: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=np.float64)
        self.node_tags = np.asarray(self.node_tags, dtype=np.intp)
        self.triangles = np.asarray(self.triangles, dtype=np.intp)
        self.tri_tags = np.asarray(self.tri_tags)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def region_triangles(self, tag: str) -> np.ndarray:
        return np.flatnonzero(self.tri_tags == tag)

    def region_nodes(self, tag: str) -> np.ndarray:
        tris = self.triangles[self.region_triangles(tag)]
        return np.unique(tris)

    def free_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.node_tags == NODE_FREE)


def signed_areas(mesh: Mesh) -> np.ndarray:
    p = mesh.nodes[mesh.triangles]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def check_mesh(mesh: Mesh) -> None:
    if mesh.nodes.ndim != 2 or mesh.nodes.shape[1] != 2:
        raise StructureError("mesh nodes must be an (n, 2) array")
    if mesh.triangles.ndim != 2 or mesh.triangles.shape[1] != 3:
        raise StructureError("mesh triangles must be an (m, 3) array")
    if mesh.node_tags.shape != (mesh.n_nodes,):
        raise StructureError("node_tags length mismatch")
    if mesh.tri_tags.shape != (mesh.n_triangles,):
        raise StructureError("tri_tags length mismatch")
    if mesh.n_triangles and (mesh.triangles.min() < 0
                             or mesh.triangles.max() >= mesh.n_nodes):
        raise StructureError("triangle refers to a node out of range")
    if np.any(mesh.nodes[:, 0] < -1e-12):
        raise StructureError("mesh extends to negative radius")
    areas = signed_areas(mesh)
    if np.any(areas <= 0.0):
        bad = int(np.argmin(areas))
        raise StructureError(
            f"triangle {bad} is degenerate or negatively oriented "
            f"(signed area {areas[bad]:.3e})")


# ---------------------------------------------------------------------------
# structured rectangle meshing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rect:
    tag: str
    r0: float
    r1: float
    z0: float
    z1: float

    def __post_init__(self):
        if not (self.r1 > self.r0 and self.z1 > self.z0):
            raise StructureError(f"rect {self.tag!r} has non-positive extent")
        if self.r0 < 0.0:
            raise StructureError(f"rect {self.tag!r} extends to negative radius")

    def contains(self, r, z, eps: float = 1e-12):
        """Elementwise test of points (r, z), scalars or arrays."""
        return ((self.r0 - eps <= r) & (r <= self.r1 + eps)
                & (self.z0 - eps <= z) & (z <= self.z1 + eps))


def _grid_coords(lo: float, hi: float, breaks, h: float) -> np.ndarray:
    pts = sorted({lo, hi, *(b for b in breaks if lo < b < hi)})
    coords = []
    for a, b in zip(pts[:-1], pts[1:]):
        n_sub = max(1, math.ceil((b - a) / h - 1e-9))
        coords.extend(a + (b - a) * k / n_sub for k in range(n_sub))
    coords.append(hi)
    return np.asarray(coords)


def build_rect_mesh(rects, h: float) -> Mesh:
    """Tensor-grid triangulation resolving every rectangle edge exactly.

    The first rectangle is the domain; later rectangles override region tags
    where they contain a cell centroid.  Each grid cell is split into two
    positively oriented triangles.
    """
    if h <= 0.0:
        raise StructureError("mesh size h must be positive")
    rects = [r if isinstance(r, Rect) else Rect(*r) for r in rects]
    if not rects:
        raise StructureError("no rectangles given")
    dom = rects[0]
    for rect in rects[1:]:
        if not (dom.r0 - 1e-12 <= rect.r0 and rect.r1 <= dom.r1 + 1e-12
                and dom.z0 - 1e-12 <= rect.z0 and rect.z1 <= dom.z1 + 1e-12):
            raise StructureError(
                f"rect {rect.tag!r} leaves the domain rectangle {dom.tag!r}")

    rs = _grid_coords(dom.r0, dom.r1, [c for r in rects for c in (r.r0, r.r1)], h)
    zs = _grid_coords(dom.z0, dom.z1, [c for r in rects for c in (r.z0, r.z1)], h)
    nr, nz = len(rs), len(zs)
    rr, zz = np.meshgrid(rs, zs, indexing="ij")
    nodes = np.column_stack([rr.ravel(), zz.ravel()])

    # cell (i, j) has lower-left node i * nz + j; cells run i-major
    ll = (np.arange(nr - 1)[:, None] * nz + np.arange(nz - 1)).ravel()
    lr, ul, ur = ll + nz, ll + 1, ll + nz + 1
    triangles = np.stack([ll, lr, ur, ll, ur, ul], axis=1).reshape(-1, 3)

    cr, cz = np.meshgrid((rs[:-1] + rs[1:]) / 2.0, (zs[:-1] + zs[1:]) / 2.0,
                         indexing="ij")
    tags = np.full(ll.size, dom.tag, dtype=object)
    for rect in rects[1:]:
        tags[rect.contains(cr.ravel(), cz.ravel())] = rect.tag
    tri_tags = np.repeat(tags, 2).astype(str)

    node_tags = np.full(len(nodes), NODE_FREE, dtype=np.intp)
    eps = 1e-12 * max(dom.r1 - dom.r0, dom.z1 - dom.z0)
    on_rmin = np.abs(nodes[:, 0] - dom.r0) <= eps
    on_edge = ((np.abs(nodes[:, 0] - dom.r1) <= eps)
               | (np.abs(nodes[:, 1] - dom.z0) <= eps)
               | (np.abs(nodes[:, 1] - dom.z1) <= eps))
    node_tags[on_edge] = NODE_OUTER
    if dom.r0 <= eps:
        node_tags[on_rmin] = NODE_AXIS
    else:
        node_tags[on_rmin] = NODE_OUTER

    mesh = Mesh(nodes, node_tags, triangles, tri_tags)
    check_mesh(mesh)
    return mesh


# ---------------------------------------------------------------------------
# element integration
# ---------------------------------------------------------------------------

def element_integrals(coords, coefficients, kind: str) -> np.ndarray:
    """Element integrals of a stack of triangles.

    coords has shape (m, 3, 2), each triangle positively oriented;
    coefficients is one scalar or one value per triangle.  kind selects
      "stiffness": 2π ν ∮ [∂wi/∂z ∂wj/∂z + (∂wi/∂r + wi/r)(∂wj/∂r + wj/r)]
                   r dr dz, shape (m, 3, 3);
      "mass":      2π σ ∮ wi wj r dr dz, shape (m, 3, 3);
      "winding":   2π (Nt/Sc) ∮ wi r dr dz, shape (m, 3).
    """
    coords = np.asarray(coords, dtype=np.float64)
    r = coords[:, :, 0]
    z = coords[:, :, 1]
    area2 = ((r[:, 1] - r[:, 0]) * (z[:, 2] - z[:, 0])
             - (r[:, 2] - r[:, 0]) * (z[:, 1] - z[:, 0]))
    if np.any(area2 <= 0.0):
        bad = int(np.argmin(area2))
        raise StructureError(
            f"element {bad} is degenerate or negatively oriented")
    area = 0.5 * area2
    r_q = r @ TRI_QUAD_POINTS.T                  # (m, 7)
    lam = TRI_QUAD_POINTS                        # (7, 3)
    w = TRI_QUAD_WEIGHTS
    scale = 2.0 * math.pi * coefficients * area

    if kind == "winding":
        return np.einsum("q,qi,mq->mi", w, lam, r_q) * scale[:, None]
    if kind == "mass":
        blocks = np.einsum("q,qi,qj,mq->mij", w, lam, lam, r_q)
    elif kind == "stiffness":
        b = np.stack([z[:, 1] - z[:, 2], z[:, 2] - z[:, 0], z[:, 0] - z[:, 1]],
                     axis=1) / area2[:, None]
        c = np.stack([r[:, 2] - r[:, 1], r[:, 0] - r[:, 2], r[:, 1] - r[:, 0]],
                     axis=1) / area2[:, None]
        grad = (np.einsum("mi,mj->mij", b, b) + np.einsum("mi,mj->mij", c, c))
        blocks = (grad * np.einsum("q,mq->m", w, r_q)[:, None, None]
                  + np.einsum("q,mi,qj->mij", w, b, lam)
                  + np.einsum("q,qi,mj->mij", w, lam, b)
                  + np.einsum("q,qi,qj,mq->mij", w, lam, lam, 1.0 / r_q))
    else:
        raise ValueError(f"unknown element integral {kind!r}")
    return blocks * scale[:, None, None]


# ---------------------------------------------------------------------------
# global assembly
# ---------------------------------------------------------------------------

def _material_for(tag: str, materials: dict) -> Material:
    mat = materials.get(tag)
    if mat is None:
        return Material(tag)
    return mat


def _assemble_3x3(mesh: Mesh, coefficients: np.ndarray, kind: str):
    """Assembly of all element 3x3 blocks with per-element factor."""
    blocks = element_integrals(mesh.nodes[mesh.triangles], coefficients, kind)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_nodes
    mat = sp.coo_array((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    # exact symmetrization removes summation-order round-off
    return sp.csr_array(0.5 * (mat + mat.T))


def _triangle_values(mesh: Mesh, materials: dict, attr: str) -> np.ndarray:
    """One material property per triangle, looked up once per region tag."""
    tags, inverse = np.unique(mesh.tri_tags, return_inverse=True)
    values = np.array([getattr(_material_for(t, materials), attr) for t in tags])
    return values[inverse]


def assemble_stiffness(mesh: Mesh, materials: dict):
    """Global curl-curl stiffness K_nu over all nodes (no Dirichlet applied)."""
    return _assemble_3x3(mesh, _triangle_values(mesh, materials, "nu"),
                         "stiffness")


def assemble_conductivity(mesh: Mesh, materials: dict):
    """Global conductivity mass M_sigma over all nodes."""
    return _assemble_3x3(mesh, _triangle_values(mesh, materials, "sigma"),
                         "mass")


def region_plane_area(mesh: Mesh, tag: str) -> float:
    idx = mesh.region_triangles(tag)
    if idx.size == 0:
        raise StructureError(f"mesh has no region tagged {tag!r}")
    return float(np.sum(signed_areas(mesh)[idx]))


def assemble_stranded_column(mesh: Mesh, tag: str, turns: float) -> np.ndarray:
    """Winding coupling column over all nodes for a stranded coil region.

    Uniform turns density turns / plane-area over the tagged region.
    """
    idx = mesh.region_triangles(tag)
    if idx.size == 0:
        raise StructureError(f"mesh has no region tagged {tag!r}")
    density = turns / region_plane_area(mesh, tag)
    tris = mesh.triangles[idx]
    x_e = element_integrals(mesh.nodes[tris], density, "winding")
    return np.bincount(tris.ravel(), weights=x_e.ravel(),
                       minlength=mesh.n_nodes)


def solid_distribution(mesh: Mesh, tag: str) -> np.ndarray:
    """Voltage distribution chi of a solid conductor region over all nodes:
    1/(2π r) on the region's nodes, zero elsewhere.  The region must stay
    clear of the axis."""
    nodes = mesh.region_nodes(tag)
    if nodes.size == 0:
        raise StructureError(f"mesh has no region tagged {tag!r}")
    radii = mesh.nodes[nodes, 0]
    if np.any(radii <= 1e-12):
        raise StructureError(
            f"solid region {tag!r} touches the axis; its voltage distribution "
            f"1/(2π r) is undefined there")
    chi = np.zeros(mesh.n_nodes)
    chi[nodes] = 1.0 / (2.0 * math.pi * radii)
    return chi


def assemble_solid_column(mesh: Mesh, tag: str, m_sigma=None,
                          materials: dict = None):
    """Coupling column M_sigma · chi of a solid conductor region, and chi
    (see `solid_distribution`)."""
    chi = solid_distribution(mesh, tag)
    if m_sigma is None:
        if materials is None:
            raise StructureError("assemble_solid_column needs m_sigma or materials")
        m_sigma = assemble_conductivity(mesh, materials)
    return to_csr(m_sigma) @ chi, chi


# ---------------------------------------------------------------------------
# Dirichlet reduction
# ---------------------------------------------------------------------------

def reduce_matrix(mat, free: np.ndarray):
    mat = to_csr(mat)
    return sp.csr_array(mat[free, :][:, free])


def reduce_vector(vec: np.ndarray, free: np.ndarray) -> np.ndarray:
    return np.asarray(vec, dtype=np.float64)[free]


def reduced_field_matrices(mesh: Mesh, materials: dict):
    """The mesh's free nodes, and K_nu and M_sigma assembled and reduced to
    them."""
    free = mesh.free_nodes()
    k_nu = reduce_matrix(assemble_stiffness(mesh, materials), free)
    m_sigma = reduce_matrix(assemble_conductivity(mesh, materials), free)
    return free, k_nu, m_sigma


# ---------------------------------------------------------------------------
# linear algebra on assembled blocks
# ---------------------------------------------------------------------------

def pseudo_solve(m_mat, x, rtol: float = 1e-10):
    """Solve M Y = X for symmetric PSD M with X in range(M).

    One sparse path for singular and regular M alike: the support of M (rows
    with any entry) is factorized once as M + 1e-8·diag(M), which is
    nonsingular for a PSD M, and three rounds of refinement against M remove
    the shift (iterated Tikhonov).  The shift is relative to each diagonal
    entry, so blocks of very different conductivity are shifted alike.  X
    must vanish off the support and the solution is verified against rtol.
    Raises StructureError when X leaves the column space, or when the
    shifted block is singular (M is not PSD).
    """
    m_csr = to_csr(m_mat)
    x_arr = np.asarray(to_dense(x) if sp.issparse(x) else x, dtype=np.float64)
    vec_in = x_arr.ndim == 1
    if vec_in:
        x_arr = x_arr[:, None]
    n = m_csr.shape[0]
    if x_arr.shape[0] != n:
        raise StructureError("pseudo_solve: row count mismatch")
    m_abs = abs(m_csr)
    row_norm = m_abs.max(axis=1).toarray().ravel() if m_abs.nnz else np.zeros(n)
    scale = row_norm.max() if n else 0.0
    support = np.flatnonzero(row_norm > 1e-14 * max(scale, 1e-300))
    off = np.setdiff1d(np.arange(n), support)
    x_scale = np.max(np.abs(x_arr)) if x_arr.size else 0.0
    if off.size and x_arr.size and np.max(np.abs(x_arr[off])) > rtol * max(x_scale, 1e-300):
        raise StructureError(
            "pseudo_solve: right-hand side has weight outside the support of M "
            "(not in the column space)")
    y = np.zeros_like(x_arr)
    if support.size:
        block = sp.csc_matrix(m_csr[support, :][:, support])
        shifted = block + sp.diags_array(1e-8 * block.diagonal(), format="csc")
        try:
            lu = spla.splu(shifted)
        except RuntimeError as exc:
            raise StructureError(
                "pseudo_solve: the shifted support block of M is singular; "
                "M is not symmetric positive semi-definite") from exc
        rhs = x_arr[support]
        sol = lu.solve(rhs)
        for _ in range(3):
            sol += lu.solve(rhs - block @ sol)
        y[support] = sol
    res = m_csr @ y - x_arr
    if x_arr.size and np.max(np.abs(res)) > rtol * max(x_scale, scale * np.max(np.abs(y), initial=0.0), 1e-300):
        raise StructureError(
            "pseudo_solve: residual exceeds tolerance; right-hand side is not "
            "in the column space of M")
    return y[:, 0] if vec_in else y


def lumped_inductance(k_nu, x_col) -> float:
    """Static inductance Xᵀ K⁻¹ X of one winding column against the
    Dirichlet-reduced stiffness."""
    k_csr = to_csr(k_nu)
    x_arr = np.asarray(to_dense(x_col), dtype=np.float64).ravel()
    if k_csr.shape[0] != x_arr.size:
        raise StructureError("lumped_inductance: dimension mismatch")
    try:
        sol = spla.splu(sp.csc_matrix(k_csr)).solve(x_arr)
    except RuntimeError as exc:
        raise NumericalError("stiffness matrix is singular; apply the "
                             "Dirichlet reduction first") from exc
    return float(x_arr @ sol)


def check_pencil(m_sigma, k_nu, seed: int = 0) -> None:
    """Regularity probe of the pencil (M_sigma, K_nu): c·M + K must be
    invertible for generic c.  Raises NumericalError when both a unit and a
    seeded random shift fail to factorize."""
    m_csr = sp.csc_matrix(to_csr(m_sigma))
    k_csc = sp.csc_matrix(to_csr(k_nu))
    shifts = [1.0, float(np.random.default_rng(seed).uniform(0.5, 2.0))]
    for c in shifts:
        try:
            spla.splu(k_csc + c * m_csr)
            return
        except RuntimeError:
            continue
    raise NumericalError(
        "pencil (M_sigma, K_nu) appears singular: no tested shift c gives an "
        "invertible c·M + K; check the Dirichlet reduction and mesh")


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def write_mesh(mesh: Mesh, path: str) -> None:
    """`node r z tag` / `tri a b c region` records, zero-based indices,
    written through `serialization.write_text_atomic`."""
    buf = io.StringIO()
    for k in range(mesh.n_nodes):
        r, z = mesh.nodes[k]
        buf.write(f"node {float(r)!r} {float(z)!r} {int(mesh.node_tags[k])}\n")
    for k in range(mesh.n_triangles):
        a, b, c = mesh.triangles[k]
        buf.write(f"tri {a} {b} {c} {mesh.tri_tags[k]}\n")
    serialization.write_text_atomic(path, buf.getvalue())


@dataclass
class Geometry:
    """Parsed geometry description: rectangles (metres), materials, windings
    (tag -> turn count), free numeric parameters."""

    rects: list
    materials: dict
    windings: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def mesh(self, h: float) -> Mesh:
        return build_rect_mesh(self.rects, h)


def parse_geometry(text: str, origin: str = "<geometry>") -> Geometry:
    """Rectangle-list geometry format.

    Cards, one per line (`#` starts a comment):
        rect <tag> <r0> <r1> <z0> <z1>      lengths in mm
        material <tag> <mu_r> <sigma>       sigma in S/m
        winding <tag> <turns>
        param <name> <value>
    The first rect is the computational domain.
    """
    rects, materials, windings, params = [], {}, {}, {}
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "rect" and len(parts) == 6:
                r0, r1, z0, z1 = (float(v) * 1e-3 for v in parts[2:])
                rects.append(Rect(parts[1], r0, r1, z0, z1))
            elif kind == "material" and len(parts) == 4:
                materials[parts[1]] = Material(parts[1], float(parts[2]),
                                               float(parts[3]))
            elif kind == "winding" and len(parts) == 3:
                windings[parts[1]] = float(parts[2])
            elif kind == "param" and len(parts) == 3:
                params[parts[1]] = float(parts[2])
            else:
                errors.append(f"{origin}:{lineno}: unrecognized card {line!r}")
        except (ValueError, StructureError) as exc:
            errors.append(f"{origin}:{lineno}: {exc}")
    if not rects and not errors:
        errors.append(f"{origin}: geometry defines no rectangles")
    if errors:
        raise StructureError("; ".join(errors))
    return Geometry(rects, materials, windings, params)


def read_geometry(path: str) -> Geometry:
    with open(path, encoding="utf-8") as fh:
        return parse_geometry(fh.read(), origin=path)
