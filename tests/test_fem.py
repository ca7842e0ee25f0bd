import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fieldcircuit import experiments
from fieldcircuit.experiments import oscillator_geometry
from fieldcircuit.fem import (MU0, Material, Mesh, Rect, _grid_coords,
                              assemble_conductivity, assemble_solid_column,
                              assemble_stiffness, assemble_stranded_column,
                              build_rect_mesh, check_mesh, check_pencil,
                              element_integrals, lumped_inductance,
                              parse_geometry, pseudo_solve, read_geometry,
                              reduce_matrix, reduce_vector, region_plane_area,
                              signed_areas, write_mesh)
from fieldcircuit.structure import (NumericalError, StructureError, min_sym_eig,
                                    to_dense)
from tests.oracles import (oracle_mass, oracle_stiffness, oracle_winding,
                           random_triangle)


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


# --- element matrices against the quadrature oracle ---------------------------

def test_element_stiffness_matches_oracle(rng):
    for _ in range(50):
        tri = random_triangle(rng)
        nu = rng.uniform(0.1, 1e7)
        assert _rel_err(element_integrals(tri[None], nu, "stiffness")[0],
                        oracle_stiffness(tri, nu)) <= 1e-13


def test_element_mass_matches_oracle(rng):
    for _ in range(50):
        tri = random_triangle(rng)
        sigma = rng.uniform(0.1, 6e7)
        assert _rel_err(element_integrals(tri[None], sigma, "mass")[0],
                        oracle_mass(tri, sigma)) <= 1e-13


def test_element_winding_matches_oracle(rng):
    for _ in range(50):
        tri = random_triangle(rng)
        dens = rng.uniform(0.5, 1e4)
        assert _rel_err(element_integrals(tri[None], dens, "winding")[0],
                        oracle_winding(tri, dens)) <= 1e-13


def test_element_matrices_symmetric_and_psd(rng):
    for _ in range(20):
        tri = random_triangle(rng)
        for mat in (element_integrals(tri[None], 1.0, "stiffness")[0],
                    element_integrals(tri[None], 1.0, "mass")[0]):
            scale = np.max(np.abs(mat))
            assert np.max(np.abs(mat - mat.T)) <= 1e-14 * scale
            assert np.min(np.linalg.eigvalsh(mat)) >= -1e-10 * scale


def test_element_degenerate_triangle_rejected():
    flat = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(StructureError):
        element_integrals(flat[None], 1.0, "stiffness")


def test_zero_coefficient_gives_zero_matrices():
    tri = np.array([[1.0, 0.0], [2.0, 0.0], [1.5, 1.0]])
    assert np.all(element_integrals(tri[None], 0.0, "stiffness")[0] == 0.0)
    assert np.all(element_integrals(tri[None], 0.0, "mass")[0] == 0.0)
    assert np.all(element_integrals(tri[None], 0.0, "winding")[0] == 0.0)


# --- structured meshing -------------------------------------------------------

def test_unit_square_counts():
    mesh = build_rect_mesh([Rect("dom", 0.0, 1.0, 0.0, 1.0)], 1.0)
    assert mesh.n_nodes == 4
    assert mesh.n_triangles == 2
    mesh_half = build_rect_mesh([Rect("dom", 0.0, 1.0, 0.0, 1.0)], 0.5)
    assert mesh_half.n_nodes == 9
    assert mesh_half.n_triangles == 8


def test_mesh_positively_oriented_and_tagged():
    rects = [Rect("air", 0.0, 1.0, -1.0, 1.0), Rect("core", 0.0, 0.4, -0.5, 0.5)]
    mesh = build_rect_mesh(rects, 0.25)
    check_mesh(mesh)
    assert np.all(signed_areas(mesh) > 0.0)
    assert mesh.region_triangles("core").size > 0
    assert mesh.region_triangles("air").size > 0
    # axis nodes carry the axis tag, outer boundary the outer tag
    axis = mesh.nodes[:, 0] == 0.0
    assert np.all(mesh.node_tags[axis] == 2)
    outer = mesh.nodes[:, 0] == 1.0
    assert np.all(mesh.node_tags[outer] == 1)


def test_mesh_rejects_escaping_rectangle():
    with pytest.raises(StructureError, match="leaves the domain"):
        build_rect_mesh([Rect("dom", 0.0, 1.0, 0.0, 1.0),
                         Rect("out", 0.5, 2.0, 0.0, 1.0)], 0.5)


def test_mesh_grid_resolves_region_edges():
    # region edges must land on grid lines even when h does not divide them
    rects = [Rect("dom", 0.0, 1.0, 0.0, 1.0), Rect("in", 0.3, 0.7, 0.3, 0.7)]
    mesh = build_rect_mesh(rects, 0.5)
    rs = np.unique(mesh.nodes[:, 0])
    for edge in (0.3, 0.7):
        assert np.min(np.abs(rs - edge)) < 1e-12


def _loop_mesh(rects, h):
    """Cell-by-cell reference for build_rect_mesh: nodes, node tags, and the
    triangles and centroid tags of each cell in a double loop."""
    dom = rects[0]
    rs = _grid_coords(dom.r0, dom.r1, [c for r in rects for c in (r.r0, r.r1)], h)
    zs = _grid_coords(dom.z0, dom.z1, [c for r in rects for c in (r.z0, r.z1)], h)
    nr, nz = len(rs), len(zs)
    rr, zz = np.meshgrid(rs, zs, indexing="ij")
    nodes = np.column_stack([rr.ravel(), zz.ravel()])
    tris, tags = [], []
    for i in range(nr - 1):
        for j in range(nz - 1):
            ll, lr = i * nz + j, (i + 1) * nz + j
            ul, ur = i * nz + j + 1, (i + 1) * nz + j + 1
            tris += [(ll, lr, ur), (ll, ur, ul)]
            cr, cz = (rs[i] + rs[i + 1]) / 2.0, (zs[j] + zs[j + 1]) / 2.0
            tag = dom.tag
            for rect in rects[1:]:
                if (rect.r0 - 1e-12 <= cr <= rect.r1 + 1e-12
                        and rect.z0 - 1e-12 <= cz <= rect.z1 + 1e-12):
                    tag = rect.tag
            tags += [tag, tag]
    node_tags = np.full(len(nodes), 0, dtype=np.intp)
    eps = 1e-12 * max(dom.r1 - dom.r0, dom.z1 - dom.z0)
    on_rmin = np.abs(nodes[:, 0] - dom.r0) <= eps
    node_tags[(np.abs(nodes[:, 0] - dom.r1) <= eps)
              | (np.abs(nodes[:, 1] - dom.z0) <= eps)
              | (np.abs(nodes[:, 1] - dom.z1) <= eps)] = 1
    node_tags[on_rmin] = 2 if dom.r0 <= eps else 1
    return (nodes, node_tags, np.asarray(tris, dtype=np.intp),
            np.asarray(tags, dtype=object).astype(str))


_OSCILLATOR_RECTS = parse_geometry(
    oscillator_geometry("stranded", False, 10.0)).rects


@pytest.mark.parametrize("rects, h", [
    ([Rect("dom", 0.0, 1.0, 0.0, 1.0)], 1.0),
    (_OSCILLATOR_RECTS, 1e-3),
    (_OSCILLATOR_RECTS, 0.4e-3),
    # "b" paints over part of "a"; h divides none of the edges
    ([Rect("dom", 0.1, 1.0, -0.7, 0.9), Rect("a", 0.2, 0.8, -0.5, 0.5),
      Rect("b", 0.5, 0.9, 0.0, 0.7), Rect("c", 0.3, 0.45, -0.3, 0.1)], 0.07),
], ids=["unit-square", "oscillator-1mm", "oscillator-0.4mm", "overpaint"])
def test_mesh_matches_cell_loop(rects, h):
    mesh = build_rect_mesh(rects, h)
    nodes, node_tags, triangles, tri_tags = _loop_mesh(rects, h)
    for built, ref in ((mesh.nodes, nodes), (mesh.node_tags, node_tags),
                       (mesh.triangles, triangles), (mesh.tri_tags, tri_tags)):
        assert built.dtype == ref.dtype
        np.testing.assert_array_equal(built, ref)


# --- assembled matrices --------------------------------------------------------

@pytest.fixture(scope="module")
def small_mesh():
    rects = [Rect("air", 0.0, 1.0, -1.0, 1.0),
             Rect("coil", 0.4, 0.7, -0.4, 0.4)]
    return build_rect_mesh(rects, 0.1)


def test_assembled_stiffness_symmetric_pd(small_mesh):
    mats = {"air": Material("air"), "coil": Material("coil")}
    k_nu = assemble_stiffness(small_mesh, mats)
    kd = to_dense(k_nu)
    assert np.max(np.abs(kd - kd.T)) == 0.0
    free = small_mesh.free_nodes()
    k_red = reduce_matrix(k_nu, free)
    assert min_sym_eig(k_red) > 0.0


def test_assembled_conductivity_support(small_mesh):
    mats = {"air": Material("air"), "coil": Material("coil", 1.0, 5.8e7)}
    m_sig = assemble_conductivity(small_mesh, mats)
    md = to_dense(m_sig)
    assert np.max(np.abs(md - md.T)) == 0.0
    assert min_sym_eig(m_sig) >= -1e-10 * np.max(np.abs(md))
    coil_nodes = small_mesh.region_nodes("coil")
    nonzero_rows = np.flatnonzero(np.any(md != 0.0, axis=1))
    assert set(nonzero_rows) == set(coil_nodes.tolist())


def test_conductivity_zero_everywhere(small_mesh):
    mats = {"air": Material("air"), "coil": Material("coil")}
    assert to_dense(assemble_conductivity(small_mesh, mats)).max() == 0.0


def test_stranded_column_partition_of_unity(small_mesh):
    turns = 42.0
    col = assemble_stranded_column(small_mesh, "coil", turns)
    # sum_i X_i = 2*pi*Nt*(integral of r over coil)/S_coil; r linear per
    # triangle, so the integral is the exact sum of area*centroid radius
    idx = small_mesh.region_triangles("coil")
    areas = signed_areas(small_mesh)[idx]
    cent_r = small_mesh.nodes[small_mesh.triangles[idx], 0].mean(axis=1)
    s_coil = region_plane_area(small_mesh, "coil")
    expected = 2.0 * math.pi * turns * float(areas @ cent_r) / s_coil
    assert np.sum(col) == pytest.approx(expected, rel=1e-12)


def test_stranded_column_support(small_mesh):
    col = assemble_stranded_column(small_mesh, "coil", 10.0)
    support = np.flatnonzero(col)
    assert set(support) <= set(small_mesh.region_nodes("coil").tolist())
    assert np.all(assemble_stranded_column(small_mesh, "coil", 0.0) == 0.0)
    with pytest.raises(StructureError, match="no region"):
        assemble_stranded_column(small_mesh, "missing", 1.0)


def test_solid_column_construction(small_mesh):
    mats = {"air": Material("air"), "coil": Material("coil", 1.0, 5.8e7)}
    m_sig = assemble_conductivity(small_mesh, mats)
    x_sol, chi = assemble_solid_column(small_mesh, "coil", m_sig)
    nodes = small_mesh.region_nodes("coil")
    radii = small_mesh.nodes[nodes, 0]
    np.testing.assert_allclose(chi[nodes], 1.0 / (2.0 * math.pi * radii))
    g_sol = float(chi @ to_dense(m_sig) @ chi)
    assert g_sol > 0.0
    np.testing.assert_allclose(x_sol, to_dense(m_sig) @ chi)


def test_assembly_matches_oracle_scatter():
    # air, a conducting coil and a permeable, conducting core on the axis
    rects = [Rect("air", 0.0, 1.0, -1.0, 1.0),
             Rect("core", 0.0, 0.2, -0.5, 0.5),
             Rect("coil", 0.4, 0.7, -0.4, 0.4)]
    mesh = build_rect_mesh(rects, 0.1)
    mats = {"air": Material("air"), "coil": Material("coil", 1.0, 5.8e7),
            "core": Material("core", 100.0, 1e3)}
    turns = 25.0
    density = turns / region_plane_area(mesh, "coil")
    n = mesh.n_nodes
    k_ref, m_ref, x_ref = np.zeros((n, n)), np.zeros((n, n)), np.zeros(n)
    for tri, tag in zip(mesh.triangles, mesh.tri_tags):
        coords = mesh.nodes[tri]
        k_ref[np.ix_(tri, tri)] += oracle_stiffness(coords, mats[tag].nu)
        m_ref[np.ix_(tri, tri)] += oracle_mass(coords, mats[tag].sigma)
        if tag == "coil":
            x_ref[tri] += oracle_winding(coords, density)
    for built, ref in ((to_dense(assemble_stiffness(mesh, mats)), k_ref),
                       (to_dense(assemble_conductivity(mesh, mats)), m_ref),
                       (assemble_stranded_column(mesh, "coil", turns), x_ref)):
        assert np.max(np.abs(built - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_solid_region_on_axis_rejected():
    rects = [Rect("air", 0.0, 1.0, 0.0, 1.0), Rect("rod", 0.0, 0.3, 0.2, 0.8)]
    mesh = build_rect_mesh(rects, 0.1)
    mats = {"air": Material("air"), "rod": Material("rod", 1.0, 1e6)}
    with pytest.raises(StructureError, match="axis"):
        assemble_solid_column(mesh, "rod", materials=mats)


# --- reduction / linear algebra -------------------------------------------------

def expand_vector(vec, free, n):
    """Inverse of the Dirichlet reduction: zeros on the fixed nodes."""
    out = np.zeros(n)
    out[free] = vec
    return out


def test_reduce_expand_round_trip(small_mesh, rng):
    free = small_mesh.free_nodes()
    vec = rng.standard_normal(small_mesh.n_nodes)
    red = reduce_vector(vec, free)
    back = expand_vector(red, free, small_mesh.n_nodes)
    np.testing.assert_array_equal(back[free], vec[free])
    fixed = np.setdiff1d(np.arange(small_mesh.n_nodes), free)
    assert np.all(back[fixed] == 0.0)


def test_pseudo_solve_trivials():
    m = np.diag([2.0, 0.0])
    np.testing.assert_allclose(pseudo_solve(m, np.array([4.0, 0.0])),
                               [2.0, 0.0])
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(pseudo_solve(np.eye(3), x), x)
    # exactly singular support block: the shifted factorization and its
    # refinement solve it like any other
    np.testing.assert_allclose(pseudo_solve(np.ones((2, 2)), np.array([2.0, 2.0])),
                               [1.0, 1.0])


def test_pseudo_solve_random_gram(rng):
    g = rng.standard_normal((6, 4))
    m = g @ g.T          # rank 4, PSD
    w = rng.standard_normal((6, 2))
    x = m @ w
    y = pseudo_solve(m, x)
    assert np.max(np.abs(m @ y - x)) <= 1e-11 * np.max(np.abs(x))
    # a support of more than 400 rows next to empty rows
    n = 450
    lap = sp.diags_array([-np.ones(n - 1), 2.5 * np.ones(n), -np.ones(n - 1)],
                         offsets=[-1, 0, 1])
    m = sp.block_diag((lap, sp.csr_array((3, 3))), format="csr")
    x = m @ rng.standard_normal((n + 3, 2))
    y = pseudo_solve(m, x)
    assert np.all(y[n:] == 0.0)
    assert np.max(np.abs(m @ y - x)) <= 1e-11 * np.max(np.abs(x))


def test_pseudo_solve_rank_deficient_gram_stays_sparse(rng, monkeypatch):
    # rank 40 in n = 300: no least squares and no densified block, only the
    # n×k right sides
    g = rng.standard_normal((300, 40))
    m = sp.csr_array(g @ g.T)
    x = m @ rng.standard_normal((300, 3))
    dense_shapes = []

    def no_lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    for cls in (sp.csr_array, sp.csc_array, sp.coo_array, sp.csr_matrix,
                sp.csc_matrix, sp.coo_matrix):
        for name in ("toarray", "todense"):
            def spy(self, *args, _original=getattr(cls, name), **kwargs):
                out = _original(self, *args, **kwargs)
                dense_shapes.append(out.shape)
                return out
            monkeypatch.setattr(cls, name, spy)
    y = pseudo_solve(m, x)
    assert np.max(np.abs(m @ y - x)) <= 1e-12 * np.max(np.abs(x))
    assert all(len(shape) < 2 or min(shape) <= 3 for shape in dense_shapes)


def test_pseudo_solve_mixed_conductivity_matches_plain_lu(rng):
    # σ = 58e6 in the coil next to σ = 100 in the core: the shift is
    # relative to each diagonal entry, so neither block is moved by it
    parts = experiments.build_oscillator(experiments.OscillatorConfig(
        conductor_kind="solid", core_conductive=True, mesh_h=1e-3))
    m = parts.model.M_sigma
    d = m.diagonal()
    support = np.flatnonzero(d)
    assert d[support].max() > 1e5 * d[support].min()
    x = m @ rng.standard_normal((m.shape[0], 2))
    block = sp.csc_matrix(m[support][:, support])
    plain = spla.splu(block).solve(x[support])
    y = pseudo_solve(m, x)
    assert _rel_err(y[support], plain) <= 1e-13
    assert np.all(y[np.flatnonzero(d == 0.0)] == 0.0)


def test_pseudo_solve_rejects_a_singular_indefinite_block():
    # zero diagonal: the shift leaves this singular, indefinite M as it is
    m = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(StructureError, match="not symmetric positive"):
        pseudo_solve(m, np.array([1.0, 0.0, 1.0]))


def test_pseudo_solve_rejects_off_range():
    m = np.diag([1.0, 0.0])
    with pytest.raises(StructureError, match="column space"):
        pseudo_solve(m, np.array([1.0, 1.0]))


def test_check_pencil(small_mesh):
    mats = {"air": Material("air"), "coil": Material("coil", 1.0, 5.8e7)}
    free = small_mesh.free_nodes()
    k = reduce_matrix(assemble_stiffness(small_mesh, mats), free)
    m = reduce_matrix(assemble_conductivity(small_mesh, mats), free)
    check_pencil(m, k)        # regular pencil: no error
    n = k.shape[0]
    zero = np.zeros((n, n))
    with pytest.raises(NumericalError, match="singular"):
        check_pencil(zero, zero)


def test_lumped_inductance_positive(small_mesh):
    mats = {"air": Material("air"), "coil": Material("coil")}
    free = small_mesh.free_nodes()
    k = reduce_matrix(assemble_stiffness(small_mesh, mats), free)
    x = reduce_vector(assemble_stranded_column(small_mesh, "coil", 10.0), free)
    l_val = lumped_inductance(k, x)
    assert l_val > 0.0
    # quadratic form scaling: doubling turns quadruples L
    x2 = reduce_vector(assemble_stranded_column(small_mesh, "coil", 20.0), free)
    assert lumped_inductance(k, x2) == pytest.approx(4.0 * l_val, rel=1e-12)


def test_lumped_inductance_singular_stiffness_raises():
    with pytest.raises(NumericalError, match="singular"):
        lumped_inductance(np.diag([1.0, 1.0, 0.0, 1.0]), np.ones(4))


# --- file formats ----------------------------------------------------------------

def read_mesh(path):
    """Parse the `node r z tag` / `tri a b c region` records of `write_mesh`."""
    nodes, node_tags, tris, tri_tags = [], [], [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if parts[0] == "node" and len(parts) == 4:
                    nodes.append((float(parts[1]), float(parts[2])))
                    node_tags.append(int(parts[3]))
                elif parts[0] == "tri" and len(parts) == 5:
                    tris.append((int(parts[1]), int(parts[2]), int(parts[3])))
                    tri_tags.append(parts[4])
                else:
                    raise ValueError
            except ValueError:
                raise StructureError(
                    f"{path}:{lineno}: malformed mesh record {line!r}") from None
    mesh = Mesh(np.asarray(nodes), np.asarray(node_tags),
                np.asarray(tris), np.asarray(tri_tags))
    check_mesh(mesh)
    return mesh


def test_mesh_file_round_trip(tmp_path, small_mesh):
    path = str(tmp_path / "m.txt")
    write_mesh(small_mesh, path)
    back = read_mesh(path)
    np.testing.assert_array_equal(back.nodes, small_mesh.nodes)
    np.testing.assert_array_equal(back.node_tags, small_mesh.node_tags)
    np.testing.assert_array_equal(back.triangles, small_mesh.triangles)
    assert list(back.tri_tags) == list(small_mesh.tri_tags)


def test_mesh_file_line_diagnostics(tmp_path):
    path = str(tmp_path / "bad.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node 0.0 0.0 0\nnode 1.0 oops 0\n")
    with pytest.raises(StructureError, match=":2:"):
        read_mesh(path)


def test_geometry_parse_and_units():
    geo = parse_geometry(
        "# oscillator-like\n"
        "rect air 0 20 -20 20\n"
        "rect core 0 5 -10 10\n"
        "material core 100 0\n"
        "winding core 10\n"
        "param cap 1e-4\n")
    assert geo.rects[0].r1 == pytest.approx(0.020)   # mm to m
    assert geo.materials["core"].mu_r == 100.0
    assert geo.windings["core"] == 10.0
    assert geo.params["cap"] == 1e-4
    mesh = geo.mesh(0.005)
    assert mesh.region_triangles("core").size > 0


def test_geometry_parse_reports_all_bad_lines():
    text = "rect air 0 20 -20 20\nbogus card here\nmaterial core x 0\n"
    with pytest.raises(StructureError) as err:
        parse_geometry(text, origin="geo")
    msg = str(err.value)
    assert "geo:2" in msg and "geo:3" in msg


def test_geometry_requires_rectangles(tmp_path):
    with pytest.raises(StructureError, match="no rectangles"):
        parse_geometry("param a 1\n")
    p = tmp_path / "g.geo"
    p.write_text("rect dom 0 1 0 1\n", encoding="utf-8")
    geo = read_geometry(str(p))
    assert geo.rects[0].tag == "dom"


def test_check_mesh_catches_bad_orientation():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 2, 1]])        # clockwise
    with pytest.raises(StructureError, match="orient"):
        check_mesh(Mesh(nodes, np.zeros(3, dtype=int), tris,
                        np.array(["a"])))


def test_mu0_value():
    assert MU0 == 4.0e-7 * math.pi
