"""Energy-based DAE systems: container type, validation, and pointwise evaluation.

A system couples three state groups: gradient states z1 (energy ½ z1ᵀ M1 z1),
dynamic states z2 behind a possibly singular mass matrix E (energy
½ z2ᵀ M2 z2, effort e = S z2), and algebraic states z3.  The dynamics read

    [M1 z1; E ż2; 0] = (J − R) [ż1; S z2; z3] + B u,      y = Bᵀ [ż1; S z2; z3]

with skew J, symmetric positive semi-definite R and the compatibility
condition Eᵀ S = M2.  All blocks are real and constant.

Storage contract: every block of an EnergySystem is a finite, real float64
`scipy.sparse.csr_array`, whatever its size; `as_block` refuses complex and
non-finite input.  Checks on the blocks stay sparse at every size: the PSD
test of `min_sym_eig` is a sparse LDLᵀ certificate, then a Lanczos
eigensolve.  Dense arrays appear only where a block is small by
construction (n×k coupling columns, k×k port blocks, circuit-sized blocks
of the initialization), never as an n×n matrix of the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class StructureError(ValueError):
    """The model violates the energy-based structure or its declared shapes."""


class NumericalError(RuntimeError):
    """A linear solve or a time step failed numerically."""


# ---------------------------------------------------------------------------
# block helpers
# ---------------------------------------------------------------------------

def as_block(X, shape, name: str) -> sp.csr_array:
    """Copy a matrix block, dense or sparse, into a canonical float64 CSR
    array (sorted indices, no duplicate entries).

    A 1-d input is read as a column.  Raises StructureError naming the block
    when the shape disagrees or an entry is complex, NaN or infinite.
    """
    if not sp.issparse(X):
        X = np.asarray(X)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
    if X.shape != shape:
        raise StructureError(
            f"block {name}: expected shape {shape}, got {X.shape}")
    if np.iscomplexobj(X):
        raise StructureError(f"block {name}: complex entries; every block "
                             "must be real")
    X = sp.csr_array(X).astype(np.float64)
    if not np.isfinite(X.data).all():
        raise StructureError(f"block {name}: non-finite entries (NaN or inf)")
    X.sum_duplicates()
    return X


def to_dense(X) -> np.ndarray:
    return X.toarray() if sp.issparse(X) else np.asarray(X, dtype=np.float64)


def to_csr(X) -> sp.csr_array:
    return sp.csr_array(X)


def max_abs(X) -> float:
    """Largest absolute entry; 0 for empty blocks."""
    X = to_csr(X)
    return float(abs(X).max()) if X.nnz else 0.0


def fro_norm(X) -> float:
    return float(spla.norm(to_csr(X)))


def quadratic_forms(A, X: np.ndarray) -> np.ndarray:
    """xᵀ A x for every row x of the stack X, one value per row.

    A single row goes through the same arithmetic as a stack, so an energy
    evaluated once per state equals the one evaluated for the whole
    trajectory to the bit.  Rows are taken in blocks of `block_rows`.
    """
    rows = block_rows(X.shape[1])
    return np.concatenate([row_dots(x, (A @ x.T).T)
                           for x in np.split(X, range(rows, len(X), rows))])


def block_rows(width: int) -> int:
    """Rows per block when a stack of float64 rows of this width is taken
    about 1 MB at a time, so the operands of each sparse product stay in
    cache."""
    return max(1, (1 << 17) // max(width, 1))


def row_dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """⟨x_k, y_k⟩ for every pair of rows of two equally shaped stacks."""
    return np.sum(np.ascontiguousarray(X) * np.ascontiguousarray(Y), axis=1)


def min_sym_eig(R, shift: float = 0.0) -> float:
    """Smallest eigenvalue of the symmetrized matrix ½(R + Rᵀ), or a
    certified lower bound on it.

    One sparse path at every size: 0 for an R without nonzeros; with
    shift > 0, −shift when ½(R+Rᵀ) + shift·I admits a no-pivoting
    triangular factorization with positive diagonal (Sylvester's law of
    inertia certifies the spectrum ≥ −shift); otherwise the entry of a 1×1
    block or a Lanczos estimate (NumericalError when the iteration fails).
    Callers pass their PSD tolerance as the shift.
    """
    return _min_sym_eig(R, shift)[0]


def _min_sym_eig(R, shift: float):
    """min_sym_eig's value, and whether it is only the certified bound −shift."""
    Rs = to_csr(R)
    if not Rs.count_nonzero():
        return 0.0, False
    Rs = 0.5 * (Rs + Rs.T)
    if shift > 0.0 and _factorization_psd(Rs, shift):
        return -shift, True
    n = Rs.shape[0]
    if n == 1:
        return float(Rs[0, 0]), False
    try:
        val = spla.eigsh(Rs, k=1, which="SA", return_eigenvectors=False)
        return float(val[0]), False
    except spla.ArpackError as exc:
        raise NumericalError(f"Lanczos failed on the {n} x {n} R") from exc


def _factorization_psd(sym_csr, shift: float) -> bool:
    """Certify sym_csr + shift·I ≻ 0 via an unpivoted sparse LU.

    With row pivoting disabled on a symmetric matrix the factorization is an
    LDLᵀ in disguise; all-positive U diagonal proves positive definiteness.
    """
    n = sym_csr.shape[0]
    shifted = sp.csc_matrix(sym_csr + shift * sp.identity(n, format="csr"))
    try:
        lu = spla.splu(shifted, diag_pivot_thresh=0.0,
                       permc_spec="MMD_AT_PLUS_A",
                       options={"SymmetricMode": True})
    except RuntimeError:
        return False
    if (lu.perm_r != lu.perm_c).any():
        return False
    return bool(np.all(lu.U.diagonal() > 0.0))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """State and port dimensions of an energy-based system.

    n1 gradient states, n2 dynamic states, n3 algebraic states, m ports.
    Any of n1, n2, n3 may be zero.
    """

    n1: int
    n2: int
    n3: int
    m: int

    def __post_init__(self):
        for nm in ("n1", "n2", "n3", "m"):
            v = getattr(self, nm)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise StructureError(f"partition field {nm} must be a count, got {v!r}")

    @property
    def n(self) -> int:
        return self.n1 + self.n2 + self.n3

    def split(self, z: np.ndarray):
        """Split a full state vector into (z1, z2, z3)."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.n,):
            raise StructureError(f"state vector: expected length {self.n}, got {z.shape}")
        return z[: self.n1], z[self.n1 : self.n1 + self.n2], z[self.n1 + self.n2 :]


@dataclass(frozen=True)
class EnergySystem:
    """One energy-based DAE with quadratic Hamiltonian and linear effort map.

    Immutable after construction; all operations on it are pure functions.
    """

    partition: Partition
    E: object  # n2 x n2, possibly singular
    J: object  # n x n, skew
    R: object  # n x n, symmetric PSD
    B: object  # n x m
    M1: object  # n1 x n1, symmetric
    M2: object  # n2 x n2, symmetric
    S: object  # n2 x n2, effort map e = S z2
    state_labels: tuple = None
    output_labels: tuple = None
    # the implicit DAE form, built on first use by integrators.to_linear_dae
    # and shared by every later use: the system never changes
    _linear_dae: object = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        p = self.partition
        n = p.n
        object.__setattr__(self, "E", as_block(self.E, (p.n2, p.n2), "E"))
        object.__setattr__(self, "J", as_block(self.J, (n, n), "J"))
        object.__setattr__(self, "R", as_block(self.R, (n, n), "R"))
        object.__setattr__(self, "B", as_block(self.B, (n, p.m), "B"))
        object.__setattr__(self, "M1", as_block(self.M1, (p.n1, p.n1), "M1"))
        object.__setattr__(self, "M2", as_block(self.M2, (p.n2, p.n2), "M2"))
        object.__setattr__(self, "S", as_block(self.S, (p.n2, p.n2), "S"))
        if self.state_labels is not None:
            labels = tuple(self.state_labels)
            if len(labels) != n:
                raise StructureError(
                    f"state_labels: expected {n} labels, got {len(labels)}")
            object.__setattr__(self, "state_labels", labels)
        if self.output_labels is not None:
            labels = tuple(self.output_labels)
            if len(labels) != p.m:
                raise StructureError(
                    f"output_labels: expected {p.m} labels, got {len(labels)}")
            object.__setattr__(self, "output_labels", labels)

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def m(self) -> int:
        return self.partition.m

    def default_state_labels(self) -> tuple:
        if self.state_labels is not None:
            return self.state_labels
        return tuple(f"x{i}" for i in range(self.n))

    def default_output_labels(self) -> tuple:
        if self.output_labels is not None:
            return self.output_labels
        return tuple(f"y{i}" for i in range(self.m))


@dataclass(frozen=True)
class ValidationReport:
    """Structural defect magnitudes of one EnergySystem.

    min_R_eig is a certified lower bound on the spectrum of the symmetrized
    R when min_R_eig_is_bound is set, at any size: the bound −tol_psd·‖R‖_F
    that `validate` passes to min_sym_eig as its shift.  Only when that
    certificate fails, or R has no nonzeros (0), is it an eigenvalue.
    """

    skew_defect: float
    sym_defect: float
    min_R_eig: float
    effort_defect: float
    ok: bool
    min_R_eig_is_bound: bool = False

    def summary(self) -> str:
        eig = (f"min eig of symmetrized R     >= {self.min_R_eig:.3e} "
               "(certified lower bound)" if self.min_R_eig_is_bound else
               f"min eig of symmetrized R      = {self.min_R_eig:.3e}")
        lines = [
            f"skew defect   |J + J^T|_max   = {self.skew_defect:.3e}",
            f"sym defect    |R - R^T|_max   = {self.sym_defect:.3e}",
            eig,
            f"effort defect |E^T S - M2|max = {self.effort_defect:.3e}",
            f"ok = {self.ok}",
        ]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def validate(sys: EnergySystem, tol_skew: float = 1e-10,
             tol_psd: float = 1e-10) -> ValidationReport:
    """Measure the structural defects of a system.

    Tolerances are relative to the Frobenius norm of the checked block.
    """
    J, R = sys.J, sys.R
    skew_defect = max_abs(J + J.T)
    sym_defect = max_abs(R - R.T)
    min_R, is_bound = _min_sym_eig(R, tol_psd * fro_norm(R))
    effort_defect = max_abs(sys.E.T @ sys.S - sys.M2)
    ok = (
        skew_defect <= tol_skew * fro_norm(J)
        and sym_defect <= tol_skew * fro_norm(R)
        and min_R >= -tol_psd * fro_norm(R)
        and effort_defect <= tol_skew * max(fro_norm(sys.M2), fro_norm(sys.E))
    )
    return ValidationReport(skew_defect, sym_defect, min_R, effort_defect,
                            bool(ok), is_bound)


def hamiltonian(sys: EnergySystem, z: np.ndarray):
    """Stored energy ½ z1ᵀ M1 z1 + ½ z2ᵀ M2 z2; z3 carries none.

    z is one state of length n (returns a float) or a stack of states, one
    per row (returns one energy per row).
    """
    p = sys.partition
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape[-1] != p.n:
        raise StructureError(
            f"state vector: expected length {p.n} or rows of it, got {z.shape}")
    zs = np.atleast_2d(z)
    z1, z2 = zs[:, : p.n1], zs[:, p.n1 : p.n1 + p.n2]
    h = 0.5 * quadratic_forms(sys.M1, z1) + 0.5 * quadratic_forms(sys.M2, z2)
    return float(h[0]) if z.ndim == 1 else h


def effort_flow(sys: EnergySystem, zdot1: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The flow-side vector w = [ż1; S z2; z3] that J, R and B act on."""
    zdot1 = np.asarray(zdot1, dtype=np.float64)
    if zdot1.shape != (sys.partition.n1,):
        raise StructureError(
            f"zdot1: expected length {sys.partition.n1}, got {zdot1.shape}")
    _, z2, z3 = sys.partition.split(z)
    return np.concatenate([zdot1, sys.S @ z2, z3])


def dae_residual(sys: EnergySystem, z: np.ndarray, zdot: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """Residual [M1 z1; E ż2; 0] − (J − R) w − B u; zero along exact solutions."""
    p = sys.partition
    z1, _, _ = p.split(z)
    zdot = np.asarray(zdot, dtype=np.float64)
    if zdot.shape != (p.n,):
        raise StructureError(f"zdot: expected length {p.n}, got {zdot.shape}")
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (p.m,):
        raise StructureError(f"u: expected length {p.m}, got {u.shape}")
    zdot1, zdot2, _ = p.split(zdot)
    w = effort_flow(sys, zdot1, z)
    lhs = np.concatenate([sys.M1 @ z1, sys.E @ zdot2, np.zeros(p.n3)])
    return lhs - (sys.J @ w - sys.R @ w) - sys.B @ u


def output(sys: EnergySystem, zdot1: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Port output y = Bᵀ [ż1; S z2; z3]."""
    w = effort_flow(sys, zdot1, z)
    return sys.B.T @ w


def power_terms(sys: EnergySystem, zdot1: np.ndarray, z: np.ndarray,
                u: np.ndarray):
    """Instantaneous (dissipation, supply) = (wᵀ R w, ⟨y, u⟩).

    Along exact solutions dH/dt = −dissipation + supply.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (sys.partition.m,):
        raise StructureError(f"u: expected length {sys.partition.m}, got {u.shape}")
    w = effort_flow(sys, zdot1, z)
    dissipation = float(w @ (sys.R @ w))
    y = sys.B.T @ w
    supply = float(y @ u)
    return dissipation, supply
