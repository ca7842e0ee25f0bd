"""Field conductor models: stranded, solid and foil windings.

Each model wraps the Dirichlet-reduced field matrices plus its coupling data
and maps onto an energy-based DAE:

  stranded: state (a, i_str), input winding voltage, output winding current;
  solid:    state (a, v_sol), input source current, output contact voltage;
  foil:     state (a, e, i_foil), input total voltage, output winding current.

The solid model stores the voltage-distribution columns chi; its dissipation
block is the congruence [I, -chi]ᵀ M_sigma [I, -chi].  The foil model stores
the already conductivity-weighted coupling columns, which must lie in the
column space of M_sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from fieldcircuit import fem
from fieldcircuit.structure import (
    EnergySystem,
    Partition,
    StructureError,
    as_block,
    to_csr,
    to_dense,
)
from fieldcircuit.serialization import read_manifest, read_matrix, write_manifest, write_matrix

import os


def _check_sym_psd(mat, name: str, tol: float = 1e-10) -> None:
    dense = to_dense(mat)
    if dense.size == 0:
        return
    scale = max(float(np.max(np.abs(dense))), 1e-300)
    if np.max(np.abs(dense - dense.T)) > tol * scale:
        raise StructureError(f"{name} is not symmetric")
    eig = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    if eig[0] < -tol * max(scale, 1.0):
        raise StructureError(f"{name} is not positive semi-definite "
                             f"(min eig {eig[0]:.3e})")


@dataclass(frozen=True)
class StrandedModel:
    """Homogenized multi-turn winding; losses live in the winding resistance."""

    M_sigma: object
    K_nu: object
    X_str: object
    R_str: object

    def __post_init__(self):
        n_w = to_csr(self.K_nu).shape[0]
        object.__setattr__(self, "M_sigma", as_block(self.M_sigma, (n_w, n_w), "M_sigma"))
        object.__setattr__(self, "K_nu", as_block(self.K_nu, (n_w, n_w), "K_nu"))
        x = np.atleast_2d(to_dense(self.X_str))
        if x.shape[0] != n_w:
            x = x.T
        object.__setattr__(self, "X_str", as_block(x, (n_w, x.shape[1]), "X_str"))
        n_str = self.n_str
        object.__setattr__(self, "R_str", as_block(self.R_str, (n_str, n_str), "R_str"))
        _check_sym_psd(self.R_str, "R_str")

    @property
    def n_w(self) -> int:
        return self.K_nu.shape[0]

    @property
    def n_str(self) -> int:
        return self.X_str.shape[1]


@dataclass(frozen=True)
class SolidModel:
    """Massive conductor; X_sol holds the voltage-distribution columns chi."""

    M_sigma: object
    K_nu: object
    X_sol: object
    G_sol: object

    def __post_init__(self):
        n_w = to_csr(self.K_nu).shape[0]
        object.__setattr__(self, "M_sigma", as_block(self.M_sigma, (n_w, n_w), "M_sigma"))
        object.__setattr__(self, "K_nu", as_block(self.K_nu, (n_w, n_w), "K_nu"))
        x = np.atleast_2d(to_dense(self.X_sol))
        if x.shape[0] != n_w:
            x = x.T
        object.__setattr__(self, "X_sol", as_block(x, (n_w, x.shape[1]), "X_sol"))
        n_sol = self.n_sol
        object.__setattr__(self, "G_sol", as_block(self.G_sol, (n_sol, n_sol), "G_sol"))
        _check_sym_psd(self.G_sol, "G_sol")
        gram = to_dense(self.X_sol).T @ (self.M_sigma @ to_dense(self.X_sol))
        scale = max(float(np.max(np.abs(gram))), 1e-300)
        if np.max(np.abs(gram - to_dense(self.G_sol))) > 1e-8 * scale:
            raise StructureError(
                "G_sol does not match the conductance Gram matrix "
                "X_solᵀ M_sigma X_sol of the stored distribution columns")

    @property
    def n_w(self) -> int:
        return self.K_nu.shape[0]

    @property
    def n_sol(self) -> int:
        return self.X_sol.shape[1]


@dataclass(frozen=True)
class FoilModel:
    """Foil winding with partition potentials e and total current i_foil."""

    M_sigma: object
    K_nu: object
    X_foil: object
    c: object
    G_foil: object

    def __post_init__(self):
        n_w = to_csr(self.K_nu).shape[0]
        object.__setattr__(self, "M_sigma", as_block(self.M_sigma, (n_w, n_w), "M_sigma"))
        object.__setattr__(self, "K_nu", as_block(self.K_nu, (n_w, n_w), "K_nu"))
        x = np.atleast_2d(to_dense(self.X_foil))
        if x.shape[0] != n_w and x.shape[1] == n_w:
            x = x.T
        object.__setattr__(self, "X_foil", as_block(x, (n_w, x.shape[1]), "X_foil"))
        c = np.asarray(to_dense(self.c), dtype=np.float64).ravel()
        n_p = self.X_foil.shape[1]
        if c.shape != (n_p,):
            raise StructureError(f"c: expected {n_p} entries, got {c.shape}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "G_foil", as_block(self.G_foil, (n_p, n_p), "G_foil"))
        _check_sym_psd(self.G_foil, "G_foil")
        self._check_column_space()

    def _check_column_space(self):
        """Solvability condition: X_foil columns inside the column space of
        M_sigma and the Schur complement G_foil − X_foilᵀ M⁺ X_foil PSD."""
        x_dense = to_dense(self.X_foil)
        if x_dense.size == 0:
            return
        try:
            y = fem.pseudo_solve(self.M_sigma, x_dense)
        except StructureError as exc:
            raise StructureError(
                f"X_foil leaves the column space of M_sigma: {exc}") from exc
        schur = to_dense(self.G_foil) - x_dense.T @ y
        _check_sym_psd(0.5 * (schur + schur.T), "foil Schur complement", tol=1e-8)

    @property
    def n_w(self) -> int:
        return self.K_nu.shape[0]

    @property
    def n_p(self) -> int:
        return self.X_foil.shape[1]


# ---------------------------------------------------------------------------
# energy-based systems
# ---------------------------------------------------------------------------

def _field_labels(n_w: int):
    return tuple(f"a{k}" for k in range(n_w))


def stranded_system(model: StrandedModel) -> EnergySystem:
    """State (a, i_str); input winding voltages; output winding currents."""
    n_w, n_str = model.n_w, model.n_str
    n = n_w + n_str
    x = model.X_str
    j = sp.bmat([[None, x], [-x.T, None]], format="csr")
    j.resize((n, n))
    r = sp.block_diag((model.M_sigma, model.R_str), format="csr")
    b = sp.vstack([sp.csr_array((n_w, n_str)),
                   sp.identity(n_str, format="csr")], format="csr")
    labels = _field_labels(n_w) + tuple(f"i_str{k}" for k in range(n_str))
    out = tuple(f"i_str{k}" for k in range(n_str))
    return EnergySystem(Partition(n_w, 0, n_str, n_str),
                        E=sp.csr_array((0, 0)), J=j, R=r, B=b,
                        M1=model.K_nu, M2=sp.csr_array((0, 0)),
                        S=sp.csr_array((0, 0)),
                        state_labels=labels, output_labels=out)


def solid_system(model: SolidModel) -> EnergySystem:
    """State (a, v_sol); input source currents; output contact voltages."""
    n_w, n_sol = model.n_w, model.n_sol
    m_sig = model.M_sigma
    chi = to_dense(model.X_sol)
    mx = sp.csr_array(m_sig @ chi)
    r = sp.bmat([[m_sig, -mx], [-mx.T, model.G_sol]], format="csr")
    b = sp.vstack([sp.csr_array((n_w, n_sol)),
                   sp.identity(n_sol, format="csr")], format="csr")
    n = n_w + n_sol
    labels = _field_labels(n_w) + tuple(f"v_sol{k}" for k in range(n_sol))
    out = tuple(f"v_sol{k}" for k in range(n_sol))
    return EnergySystem(Partition(n_w, 0, n_sol, n_sol),
                        E=sp.csr_array((0, 0)), J=sp.csr_array((n, n)), R=r,
                        B=b, M1=model.K_nu, M2=sp.csr_array((0, 0)),
                        S=sp.csr_array((0, 0)),
                        state_labels=labels, output_labels=out)


def foil_system(model: FoilModel) -> EnergySystem:
    """State (a, e, i_foil); input total foil voltage; output foil current."""
    n_w, n_p = model.n_w, model.n_p
    n = n_w + n_p + 1
    c_col = sp.csr_array(model.c[:, None])
    j = sp.bmat([
        [sp.csr_array((n_w, n_w)), None, None],
        [None, sp.csr_array((n_p, n_p)), c_col],
        [None, -c_col.T, sp.csr_array((1, 1))],
    ], format="csr")
    x = model.X_foil
    r = sp.bmat([
        [model.M_sigma, -x, None],
        [-x.T, model.G_foil, None],
        [None, None, sp.csr_array((1, 1))],
    ], format="csr")
    b = sp.csr_array(([1.0], ([n - 1], [0])), shape=(n, 1))
    labels = (_field_labels(n_w) + tuple(f"e{k}" for k in range(n_p))
              + ("i_foil",))
    return EnergySystem(Partition(n_w, 0, n_p + 1, 1),
                        E=sp.csr_array((0, 0)), J=j, R=r, B=b,
                        M1=model.K_nu, M2=sp.csr_array((0, 0)),
                        S=sp.csr_array((0, 0)),
                        state_labels=labels, output_labels=("i_foil",))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def stranded_resistance(m_winding, x_str) -> np.ndarray:
    """Winding resistance Gram matrix X_strᵀ M⁺ X_str against the winding
    conductivity mass (with the winding material's sigma, not the eddy one)."""
    x = np.atleast_2d(np.asarray(to_dense(x_str), dtype=np.float64))
    if x.shape[0] != to_csr(m_winding).shape[0]:
        x = x.T
    y = fem.pseudo_solve(m_winding, x)
    r = x.T @ y
    return 0.5 * (r + r.T)


def stranded_from_mesh(mesh, materials: dict, tag: str, turns: float,
                       sigma_winding: float = 0.0) -> StrandedModel:
    """Assemble a stranded model from a meshed geometry.

    The winding region must carry sigma = 0 in `materials` (the homogenized
    strands are transparent to eddy currents); its ohmic loss enters through
    sigma_winding > 0 as the lumped resistance.
    """
    mat = materials.get(tag)
    if mat is not None and mat.sigma != 0.0:
        raise StructureError(
            f"stranded region {tag!r} must have zero bulk conductivity; its "
            f"loss is modeled by sigma_winding")
    free = mesh.free_nodes()
    k_nu = fem.reduce_matrix(fem.assemble_stiffness(mesh, materials), free)
    m_sig = fem.reduce_matrix(fem.assemble_conductivity(mesh, materials), free)
    x_full = fem.assemble_stranded_column(mesh, tag, turns)
    x_str = fem.reduce_vector(x_full, free)[:, None]
    if sigma_winding > 0.0:
        winding_mats = {tag: fem.Material(tag, 1.0, sigma_winding)}
        m_w = fem.reduce_matrix(fem.assemble_conductivity(mesh, winding_mats), free)
        r_str = stranded_resistance(m_w, x_str)
    else:
        r_str = np.zeros((1, 1))
    return StrandedModel(m_sig, k_nu, x_str, r_str)


def solid_from_mesh(mesh, materials: dict, tag: str) -> SolidModel:
    """Assemble a solid-conductor model; the region must be conductive in
    `materials` and stay clear of the axis."""
    mat = materials.get(tag)
    if mat is None or mat.sigma <= 0.0:
        raise StructureError(f"solid region {tag!r} needs positive conductivity")
    free = mesh.free_nodes()
    k_nu = fem.reduce_matrix(fem.assemble_stiffness(mesh, materials), free)
    m_full = fem.assemble_conductivity(mesh, materials)
    _, chi_full = fem.assemble_solid_column(mesh, tag, m_sigma=m_full)
    m_sig = fem.reduce_matrix(m_full, free)
    chi = fem.reduce_vector(chi_full, free)[:, None]
    g = chi.T @ (m_sig @ chi)
    return SolidModel(m_sig, k_nu, chi, 0.5 * (g + g.T))


def synth_foil(m_sigma, n_p: int, seed: int, k_nu=None) -> FoilModel:
    """Random foil model with the column-space condition built in.

    X_foil = M_sigma · W guarantees the columns stay inside the column space;
    G_foil is the exact Gram matrix, making the Schur complement zero.
    """
    m_csr = to_csr(m_sigma)
    n_w = m_csr.shape[0]
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n_w, n_p))
    x = m_csr @ w
    c = rng.uniform(0.5, 2.0, n_p)
    if np.max(np.abs(x)) > 0.0:
        y = fem.pseudo_solve(m_csr, x)
        g = x.T @ y
        g = 0.5 * (g + g.T)
    else:
        g = np.zeros((n_p, n_p))
    if k_nu is None:
        d = rng.uniform(1.0, 2.0, n_w)
        k_nu = sp.diags_array(d, format="csr") if n_w else sp.csr_array((0, 0))
    return FoilModel(m_csr, k_nu, x, c, g)


# ---------------------------------------------------------------------------
# model directories
# ---------------------------------------------------------------------------

_KIND_FIELDS = {
    "stranded": ("M_sigma", "K_nu", "X", "R"),
    "solid": ("M_sigma", "K_nu", "X", "G"),
    "foil": ("M_sigma", "K_nu", "X", "c", "G"),
}


def save_model(model, dirpath: str) -> None:
    os.makedirs(dirpath, exist_ok=True)
    if isinstance(model, StrandedModel):
        kind, parts = "stranded", {"X": model.X_str, "R": model.R_str}
    elif isinstance(model, SolidModel):
        kind, parts = "solid", {"X": model.X_sol, "G": model.G_sol}
    elif isinstance(model, FoilModel):
        kind, parts = "foil", {"X": model.X_foil, "c": model.c[:, None],
                               "G": model.G_foil}
    else:
        raise StructureError(f"not a conductor model: {type(model).__name__}")
    parts = {"M_sigma": model.M_sigma, "K_nu": model.K_nu, **parts}
    manifest = {"kind": kind}
    for role, mat in parts.items():
        fname = role + ".mtx"
        write_matrix(os.path.join(dirpath, fname), mat)
        manifest[role] = fname
    write_manifest(os.path.join(dirpath, "manifest"), manifest)


def load_model(dirpath: str):
    mpath = os.path.join(dirpath, "manifest")
    if not os.path.isfile(mpath):
        raise StructureError(f"conductor model directory {dirpath!r} lacks a manifest")
    manifest = read_manifest(mpath)
    kind = manifest.get("kind")
    if kind not in _KIND_FIELDS:
        raise StructureError(f"{mpath}: unknown or missing model kind {kind!r}")
    mats = {}
    for role in _KIND_FIELDS[kind]:
        fname = manifest.get(role)
        if fname is None:
            raise StructureError(f"{mpath}: missing role {role!r}")
        mats[role] = read_matrix(os.path.join(dirpath, fname))
    if kind == "stranded":
        return StrandedModel(mats["M_sigma"], mats["K_nu"], mats["X"], mats["R"])
    if kind == "solid":
        return SolidModel(mats["M_sigma"], mats["K_nu"], mats["X"], mats["G"])
    return FoilModel(mats["M_sigma"], mats["K_nu"], mats["X"],
                     to_dense(mats["c"]).ravel(), mats["G"])


def system_for(model) -> EnergySystem:
    if isinstance(model, StrandedModel):
        return stranded_system(model)
    if isinstance(model, SolidModel):
        return solid_system(model)
    if isinstance(model, FoilModel):
        return foil_system(model)
    raise StructureError(f"not a conductor model: {type(model).__name__}")
