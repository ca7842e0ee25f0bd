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

All three share one block contract (M_sigma and K_nu n_w×n_w, n_w×k
coupling columns, a symmetric PSD k×k port block).  The table `KINDS` is the
one place that names the kinds: it maps each kind name to its model class,
the file roles of its model directory, its energy-system builder and the
circuit slot of its port, and `save_model`, `load_model`, `system_for`,
`coupling.bind_circuit` and the netlist parser of `mna` read it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from fieldcircuit import fem
from fieldcircuit.structure import (
    EnergySystem,
    Partition,
    StructureError,
    as_block,
    max_abs,
    min_sym_eig,
    to_csr,
    to_dense,
)
from fieldcircuit.serialization import read_manifest, read_matrix, write_manifest, write_matrix


def _check_sym_psd(mat, name: str, tol: float = 1e-10) -> None:
    scale = max(max_abs(mat), 1e-300)
    if max_abs(mat - mat.T) > tol * scale:
        raise StructureError(f"{name} is not symmetric")
    bound = tol * max(scale, 1.0)
    eig = min_sym_eig(mat, shift=bound)
    if eig < -bound:
        raise StructureError(f"{name} is not positive semi-definite "
                             f"(min eig {eig:.3e})")


def _columns(x, n_w: int) -> np.ndarray:
    """Coupling columns as an n_w×k array: a 1-d vector or a k×n_w stack is
    read as columns."""
    x = np.atleast_2d(np.asarray(to_dense(x), dtype=np.float64))
    if x.shape[0] != n_w and x.shape[1] == n_w:
        x = x.T
    return x


class _Conductor:
    """Block contract shared by the conductor models, whose fields come in
    the order of their file roles: M_sigma and K_nu are n_w×n_w, the third
    field holds the n_w×k coupling columns and the last one is the
    symmetric PSD k×k port block."""

    def __post_init__(self):
        names = [f.name for f in fields(self)]
        x_name, port_name = names[2], names[-1]
        n_w = to_csr(self.K_nu).shape[0]
        x = _columns(getattr(self, x_name), n_w)
        k = x.shape[1]
        for name, value, shape in (
                ("M_sigma", self.M_sigma, (n_w, n_w)),
                ("K_nu", self.K_nu, (n_w, n_w)),
                (x_name, x, (n_w, k)),
                (port_name, getattr(self, port_name), (k, k))):
            object.__setattr__(self, name, as_block(value, shape, name))
        _check_sym_psd(getattr(self, port_name), port_name)

    @property
    def n_w(self) -> int:
        return self.K_nu.shape[0]


@dataclass(frozen=True)
class StrandedModel(_Conductor):
    """Homogenized multi-turn winding; losses live in the winding resistance."""

    M_sigma: object
    K_nu: object
    X_str: object
    R_str: object

    @property
    def n_str(self) -> int:
        return self.X_str.shape[1]


@dataclass(frozen=True)
class SolidModel(_Conductor):
    """Massive conductor; X_sol holds the voltage-distribution columns chi."""

    M_sigma: object
    K_nu: object
    X_sol: object
    G_sol: object

    def __post_init__(self):
        super().__post_init__()
        chi = to_dense(self.X_sol)
        gram = chi.T @ (self.M_sigma @ chi)
        scale = max(float(np.max(np.abs(gram))), 1e-300)
        if np.max(np.abs(gram - to_dense(self.G_sol))) > 1e-8 * scale:
            raise StructureError(
                "G_sol does not match the conductance Gram matrix "
                "X_solᵀ M_sigma X_sol of the stored distribution columns")

    @property
    def n_sol(self) -> int:
        return self.X_sol.shape[1]


@dataclass(frozen=True)
class FoilModel(_Conductor):
    """Foil winding with partition potentials e and total current i_foil."""

    M_sigma: object
    K_nu: object
    X_foil: object
    c: object
    G_foil: object

    def __post_init__(self):
        super().__post_init__()
        c = np.asarray(to_dense(self.c), dtype=np.float64).ravel()
        if c.shape != (self.n_p,):
            raise StructureError(f"c: expected {self.n_p} entries, got {c.shape}")
        object.__setattr__(self, "c", c)
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
    x = _columns(x_str, to_csr(m_winding).shape[0])
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
    free, k_nu, m_sig = fem.reduced_field_matrices(mesh, materials)
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
    free, k_nu, m_sig = fem.reduced_field_matrices(mesh, materials)
    chi = fem.reduce_vector(fem.solid_distribution(mesh, tag), free)[:, None]
    g = chi.T @ (m_sig @ chi)
    return SolidModel(m_sig, k_nu, chi, 0.5 * (g + g.T))


def synth_foil(m_sigma, n_p: int, seed: int, k_nu=None) -> FoilModel:
    """Random foil model with the column-space condition built in.

    X_foil = M_sigma · W keeps the columns inside the column space;
    G_foil = Wᵀ X_foil is the exact Gram matrix X_foilᵀ M⁺ X_foil, making
    the Schur complement zero.
    """
    m_csr = to_csr(m_sigma)
    n_w = m_csr.shape[0]
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n_w, n_p))
    x = m_csr @ w
    c = rng.uniform(0.5, 2.0, n_p)
    g = w.T @ x
    if k_nu is None:
        d = rng.uniform(1.0, 2.0, n_w)
        k_nu = sp.diags_array(d, format="csr") if n_w else sp.csr_array((0, 0))
    return FoilModel(m_csr, k_nu, x, c, 0.5 * (g + g.T))


# ---------------------------------------------------------------------------
# the conductor-kind table and model directories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConductorKind:
    """One conductor kind: its model class, the file roles of a model
    directory (one per model field, in field order), its energy-system
    builder and the circuit slot of its port: "I" for a current-source slot
    (the port takes the branch voltage), "V" for a voltage-source slot (the
    port takes the branch current)."""

    model: type
    roles: tuple
    system: object
    slot: str


KINDS = {
    "stranded": ConductorKind(StrandedModel, ("M_sigma", "K_nu", "X", "R"),
                              stranded_system, "I"),
    "solid": ConductorKind(SolidModel, ("M_sigma", "K_nu", "X", "G"),
                           solid_system, "V"),
    "foil": ConductorKind(FoilModel, ("M_sigma", "K_nu", "X", "c", "G"),
                          foil_system, "I"),
}


def kind_of(model) -> str:
    """The name of the conductor kind of `model` in `KINDS`."""
    for name, kind in KINDS.items():
        if type(model) is kind.model:
            return name
    raise StructureError(f"not a conductor model: {type(model).__name__}")


def save_model(model, dirpath: str) -> None:
    kind = kind_of(model)
    os.makedirs(dirpath, exist_ok=True)
    manifest = {"kind": kind}
    for role, field in zip(KINDS[kind].roles, fields(model)):
        block = getattr(model, field.name)
        fname = role + ".mtx"
        write_matrix(os.path.join(dirpath, fname),
                     block.reshape(-1, 1) if block.ndim == 1 else block)
        manifest[role] = fname
    write_manifest(os.path.join(dirpath, "manifest"), manifest)


def load_model(dirpath: str):
    mpath = os.path.join(dirpath, "manifest")
    if not os.path.isfile(mpath):
        raise StructureError(f"conductor model directory {dirpath!r} lacks a manifest")
    manifest = read_manifest(mpath)
    kind = manifest.get("kind")
    if kind not in KINDS:
        raise StructureError(f"{mpath}: unknown or missing model kind {kind!r}")
    mats = []
    for role in KINDS[kind].roles:
        fname = manifest.get(role)
        if fname is None:
            raise StructureError(f"{mpath}: missing role {role!r}")
        mats.append(read_matrix(os.path.join(dirpath, fname)))
    return KINDS[kind].model(*mats)


def system_for(model) -> EnergySystem:
    return KINDS[kind_of(model)].system(model)
