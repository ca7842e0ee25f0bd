"""The DAE layer: a system rewritten as one implicit linear DAE,
E_dae ẋ = A_dae x + B_dae u (`rearrange`), its algebraic constraint rows
C x + D u = 0 and the independent rows R of E_dae (`constraint_basis`),
and the sparse solves of consistent initialization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fieldcircuit.structure import (EnergySystem, NumericalError, Partition,
                                   StructureError, csr_entries,
                                   csr_from_entries, row_blocks)


@dataclass(frozen=True)
class LinearDae:
    """The system rewritten as E_dae ẋ = A_dae x + B_dae u with x = [z1; z2; z3]."""

    E_dae: object
    A_dae: object
    B_dae: object
    partition: Partition
    # the column ordering of every pencil E_dae − τλ A_dae, chosen by the
    # first one factored (`_pencil_solver`)
    _permc_spec: str = field(default=None, init=False, repr=False,
                             compare=False)
    # (C, D) and (R, the dependent rows) of `constraint_basis`, built on
    # first use; `simulate` lets (C, D) go once it has its map
    # (`stepping_map`)
    _constraints: tuple = field(default=None, init=False, repr=False,
                                compare=False)
    _rows: tuple = field(default=None, init=False, repr=False,
                         compare=False)
    # (the verdict of `_condenses`, the map `stepping_map` built, or False)
    _map: tuple = field(default=None, init=False, repr=False, compare=False)


def rearrange(sys: EnergySystem) -> LinearDae:
    """Rearrange the structured equations into E_dae ẋ = A_dae x + B_dae u.

    Row blocks (z1/z2/z3 equations):
        (J−R)₁₁ ż1                = M1 z1 − (J−R)₁₂ S z2 − (J−R)₁₃ z3 − B₁ u
        E ż2 − (J−R)₂₁ ż1         = (J−R)₂₂ S z2 + (J−R)₂₃ z3 + B₂ u
        −(J−R)₃₁ ż1               = (J−R)₃₂ S z2 + (J−R)₃₃ z3 + B₃ u

    Each matrix is one construction from the entries of its blocks placed
    at their offsets.  (J−R)[:, z2] S is one sparse product, whose rows are
    those of the products of the three row blocks; a row of A_dae keeps
    its M1, (J−R) S and (J−R)[:, z3] entries in that order, each part in
    the order of its own storage.
    """
    p = sys.partition
    n, n1, n2 = p.n, p.n1, p.n2
    jr = sys.J - sys.R
    rows, cols, vals = csr_entries(jr)
    part = np.searchsorted([n1, n1 + n2], cols, side="right")
    # +1 on the z1 rows, −1 on the others
    sign = np.where(rows < n1, 1.0, -1.0)
    on1, on2, on3 = part == 0, part == 1, part == 2
    jr_s = csr_from_entries([(rows[on2], cols[on2] - n1, vals[on2])],
                            (n, n2), like=(jr,)) @ sys.S
    s_rows, s_cols, s_vals = csr_entries(jr_s)
    e_rows, e_cols, e_vals = csr_entries(sys.E)
    m_rows, m_cols, m_vals = csr_entries(sys.M1)
    e_dae = csr_from_entries([(rows[on1], cols[on1], sign[on1] * vals[on1]),
                              (n1 + e_rows, n1 + e_cols, e_vals)], (n, n),
                             like=(jr, sys.E))
    a_dae = csr_from_entries(
        [(m_rows, m_cols, m_vals),
         (s_rows, n1 + s_cols, np.where(s_rows < n1, -1.0, 1.0) * s_vals),
         (rows[on3], cols[on3], -sign[on3] * vals[on3])],
        (n, n), like=(sys.M1, jr, sys.S))
    b = sys.B
    b_data = b.data[: b.indptr[-1]].copy()
    b_data[: b.indptr[n1]] *= -1.0
    b_dae = sp.csr_array((b_data, b.indices[: b.indptr[-1]].copy(),
                          b.indptr.copy()), shape=b.shape)
    return LinearDae(e_dae, a_dae, b_dae, p)


def _splu(mat, what: str, permc_spec: str = "COLAMD"):
    """splu of a square matrix; NumericalError naming `what` if singular."""
    try:
        return spla.splu(sp.csc_matrix(mat), permc_spec=permc_spec)
    except RuntimeError as exc:
        raise NumericalError(f"singular {what}") from exc


# smallest min|U_ii| / max|U_ii| accepted in the LU of the row-scaled pivot
# block of `constraint_basis` (FE masses measure 1e-7 and above)
_PIVOT_RATIO = 1e-12


def _row_max_abs(mat) -> np.ndarray:
    """Largest absolute stored entry of each row of a CSR block (0 if
    empty), read from `data` over `indptr`: scipy's abs() would sort the
    index arrays of an unsorted matrix in place, and the shared rewrite of
    `to_linear_dae` is never written."""
    row_max = np.zeros(mat.shape[0])
    full = np.flatnonzero(np.diff(mat.indptr))
    if full.size:
        row_max[full] = np.maximum.reduceat(
            np.abs(mat.data[: mat.indptr[-1]]), mat.indptr[full])
    return row_max


def _left_null_basis(rows, cols, vals, n_rows: int):
    """Sparse basis V of the left null space of the n_rows-row matrix with
    the entries (rows, cols, vals), Vᵀ mat = 0, as the entries (rows,
    columns, values) of V, its column count and `width` dependent rows,
    the j-th paired with column j of V: a unit vector per zero row, then
    one dense SVD per connected block of the other rows (two rows share a
    block when they share a column), blocks in the order of their first
    row.  Zero entries are left out, of the matrix and of V; the entries of
    a row of V come in ascending columns.

    The dependent rows are the zero rows, each paired with its unit
    vector, and, per block with a null space of k < its rows, the k rows a
    column-pivoted QR of the block's null vectors picks, in pivot order;
    V on them is nonsingular, so the rows of the matrix that are left are
    independent."""
    stored = vals != 0.0
    rows, cols, vals = rows[stored], cols[stored], vals[stored]
    is_zero = np.ones(n_rows, dtype=bool)
    is_zero[rows] = False
    zero_rows, nz_rows = np.flatnonzero(is_zero), np.flatnonzero(~is_zero)
    local = np.searchsorted(nz_rows, rows)
    col_ids, col_of = np.unique(cols, return_inverse=True)
    labels = row_blocks(local, col_of, nz_rows.size, col_ids.size)
    blocks = labels.max(initial=-1) + 1
    row_order = np.argsort(labels, kind="stable")
    row_at = np.zeros(blocks + 1, dtype=np.intp)
    np.cumsum(np.bincount(labels, minlength=blocks), out=row_at[1:])
    entry_order = np.argsort(labels[local], kind="stable")
    entry_at = np.zeros(blocks + 1, dtype=np.intp)
    np.cumsum(np.bincount(labels[local], minlength=blocks),
              out=entry_at[1:])
    parts = [(zero_rows, np.arange(zero_rows.size), np.ones(zero_rows.size))]
    dependent = [zero_rows]
    width = zero_rows.size
    for b in range(blocks):
        blk = row_order[row_at[b] : row_at[b + 1]]
        at = entry_order[entry_at[b] : entry_at[b + 1]]
        blk_cols = np.unique(col_of[at])
        dense = np.zeros((blk_cols.size, blk.size))
        dense[np.searchsorted(blk_cols, col_of[at]),
              np.searchsorted(blk, local[at])] = vals[at]
        null = scipy.linalg.null_space(dense)
        i, j = np.nonzero(null)
        parts.append((nz_rows[blk[i]], width + j, null[i, j]))
        k = null.shape[1]
        picked = (scipy.linalg.qr(null.T, mode="r", pivoting=True)[1][:k]
                  if 0 < k < blk.size else np.arange(k))
        dependent.append(nz_rows[blk[picked]])
        width += k
    return (*map(np.concatenate, zip(*parts)), width,
            np.concatenate(dependent))


def constraint_basis(dae: LinearDae):
    """Sparse algebraic constraint rows (C, D): C x + D u = 0 holds on every
    solution of E ẋ = A x + B u; the rows R of E that are left when the
    dependent rows of the left null basis are taken out, r = n − rows(C)
    independent rows of E; and those dependent rows, one per row of C:
    row j of C is paired with row dependent[j] of E, and R and the
    dependent rows together are every row once.  Built once per DAE and
    kept on it, so that
    `consistent_init` and the `simulate` calls after it share them (the
    first `simulate` lets C and D go, and a later call forms them again).

    The rows are vᵀA and vᵀB for a basis of the left null space of E, taken
    after every row of [E A B] is scaled to unit size so rank detection is
    not thrown off by mixed physical units.  The gradient states P with a
    nonzero diagonal of F11 = (J−R)₁₁ (the conductive nodes, F11 = −M_σ)
    are eliminated by one sparse LU of E[P, P] (`_eliminate_pivots`); a
    system without them, every circuit, factors nothing here.  In what
    remains (`_left_null_basis`) zero rows are a row selection; only the
    circuit and coupling rows get a dense SVD per connected block.
    """
    if dae._constraints is None:
        c_mat, d_mat, rows, dependent = _constraint_rows(dae)
        object.__setattr__(dae, "_constraints", (c_mat, d_mat))
        object.__setattr__(dae, "_rows", (rows, dependent))
    return (*dae._constraints, *dae._rows)


def _constraint_rows(dae: LinearDae):
    """(C, D, R, the dependent rows) of `constraint_basis`, computed."""
    row_max = np.maximum.reduce(
        [_row_max_abs(mat) for mat in (dae.E_dae, dae.A_dae, dae.B_dae)])
    row_max[row_max == 0.0] = 1.0
    scale = 1.0 / row_max
    n, n1 = dae.partition.n, dae.partition.n1
    # the scaled E: each row in descending columns, the order in which the
    # products of its pivot columns sum; exact zeros left out
    rows, cols, vals = csr_entries(dae.E_dae)
    ptr = dae.E_dae.indptr
    flip = ptr[rows] + ptr[rows + 1] - 1 - np.arange(rows.size)
    cols, vals = cols[flip], scale[rows] * vals[flip]
    stored = vals != 0.0
    rows, cols, vals = rows[stored], cols[stored], vals[stored]
    is_piv = np.zeros(n, dtype=bool)
    is_piv[rows[rows == cols]] = True
    is_piv[n1:] = False
    if is_piv.any():
        v_rows, v_cols, v_vals, width, dependent = _eliminate_pivots(
            rows, cols, vals, is_piv, dae.E_dae)
    else:
        v_rows, v_cols, v_vals, width, dependent = _left_null_basis(
            rows, cols, vals, n)
    independent = np.ones(n, dtype=bool)
    independent[dependent] = False
    # Vᵀ D⁻¹, each row in ascending columns
    order = np.argsort(v_rows, kind="stable")
    v_rows, v_cols = v_rows[order], v_cols[order]
    v_vals = scale[v_rows] * v_vals[order]
    stored = v_vals != 0.0
    v_t = csr_from_entries([(v_cols[stored], v_rows[stored],
                             v_vals[stored])], (width, n))
    return (v_t @ dae.A_dae, v_t @ dae.B_dae, np.flatnonzero(independent),
            dependent)


def _eliminate_pivots(rows, cols, vals, is_piv, e_dae):
    """Left null basis v of the scaled E of `constraint_basis`, given by its
    entries, whose pivots `is_piv` are eliminated first: v = [v_P; w] with
    w a left null vector of the Schur remainder E[Q, K] − E[Q, P]
    E[P, P]⁻¹ E[P, K] on the other rows Q and columns K, and v_P =
    −E[P, P]⁻ᵀ E[Q, P]ᵀ w.  Returns the entries of v, its column count and
    its dependent rows, all in Q, as `_left_null_basis` does.  The blocks
    of E keep the index dtype of e_dae, and E[Q, P] the descending column
    order of its rows.  The LU
    keeps COLAMD, the sparser ordering here: on the conductive core block
    MMD_AT_PLUS_A stores 34.2k entries against 13.4k at h = 0.5 mm.
    """
    piv, rest = np.flatnonzero(is_piv), np.flatnonzero(~is_piv)
    pos = np.empty(is_piv.size, dtype=np.intp)
    pos[piv], pos[rest] = np.arange(piv.size), np.arange(rest.size)
    n_p, n_q = piv.size, rest.size
    row_p, col_p = is_piv[rows], is_piv[cols]

    def block(on):
        return pos[rows[on]], pos[cols[on]], vals[on]

    what = (f"gradient-state pivot block F11[P, P] of E_dae "
            f"({n_p} x {n_p})")
    lu = _splu(csr_from_entries([block(row_p & col_p)], (n_p, n_p),
                                like=(e_dae,)), what)
    # the rows are scaled to unit size, so a tiny pivot ratio is a rank
    # defect (a PSD conductivity with a full diagonal), not mixed units
    u_diag = np.abs(lu.U.diagonal())
    if u_diag.min() < _PIVOT_RATIO * u_diag.max():
        raise NumericalError(f"singular {what}")
    e_qp = csr_from_entries([block(~row_p & col_p)], (n_q, n_p),
                            like=(e_dae,))
    s_rows, s_cols, s_vals = block(~row_p & ~col_p)
    pk_rows, pk_cols, pk_vals = block(row_p & ~col_p)
    if pk_rows.size:
        # only the columns E[P, K] touches change; they go last, in order
        touched = np.unique(pk_cols)
        x = sp.csr_array(lu.solve(csr_from_entries(
            [(pk_rows, np.searchsorted(touched, pk_cols), pk_vals)],
            (n_p, touched.size), like=(e_dae,)).toarray()))
        is_t = np.zeros(n_q, dtype=bool)
        is_t[touched] = True
        moved = is_t[s_cols]
        kept = np.cumsum(~is_t) - 1
        t_rows, t_cols, t_vals = csr_entries(csr_from_entries(
            [(s_rows[moved], np.searchsorted(touched, s_cols[moved]),
              s_vals[moved])], (n_q, touched.size), like=(e_dae,))
            - e_qp @ x)
        s_rows = np.concatenate((s_rows[~moved], t_rows))
        s_cols = np.concatenate((kept[s_cols[~moved]],
                                 n_q - touched.size + t_cols))
        s_vals = np.concatenate((s_vals[~moved], t_vals))
    w_rows, w_cols, w_vals, width, dependent = _left_null_basis(
        s_rows, s_cols, s_vals, n_q)
    # v_P vanishes for the null vectors w that E[Q, P] does not reach
    hit = np.unique(w_cols[np.diff(e_qp.indptr)[w_rows] > 0])
    on_hit = np.isin(w_cols, hit)
    w_hit = csr_from_entries([(w_rows[on_hit],
                               np.searchsorted(hit, w_cols[on_hit]),
                               w_vals[on_hit])], (n_q, hit.size))
    v_p = -lu.solve((e_qp.T @ w_hit).toarray(), trans="T")
    i, j = np.nonzero(v_p)
    return (np.concatenate((piv[i], rest[w_rows])),
            np.concatenate((hit[j], w_cols)),
            np.concatenate((v_p[i, j], w_vals)), width, rest[dependent])


def sparse_least_squares(mat, rhs) -> np.ndarray:
    """Least-squares x of mat x ≈ rhs, 0 in empty columns (all of x when
    mat has no nonzero entry, which factors nothing): G and b are mat
    and rhs without empty rows, each row scaled to unit largest entry, and
    the augmented system [[I, G], [Gᵀ, 0]] [r; x] = [b; 0], built in one
    construction, is factored once by `splu` with COLAMD: MMD_AT_PLUS_A
    turns the KKT factor of `index2` (n = 1557) from 115k into 571k entries
    and 9.5 into 61 ms."""
    rows, cols, vals = csr_entries(mat)
    stored = vals != 0.0
    rows, cols, vals = rows[stored], cols[stored], vals[stored]
    nz_rows, used = np.unique(rows), np.unique(cols)
    x = np.zeros(mat.shape[1])
    if not nz_rows.size:
        return x
    scale = 1.0 / _row_max_abs(mat)[nz_rows]
    r_of, c_of = np.searchsorted(nz_rows, rows), np.searchsorted(used, cols)
    g = scale[r_of] * vals
    stored = g != 0.0
    r_of, c_of, g = r_of[stored], c_of[stored], g[stored]
    n_r = nz_rows.size
    by_row, by_col = np.lexsort((c_of, r_of)), np.lexsort((r_of, c_of))
    eye = np.arange(n_r)
    kkt = csr_from_entries([(eye, eye, np.ones(n_r)),
                            (r_of[by_row], n_r + c_of[by_row], g[by_row]),
                            (n_r + c_of[by_col], r_of[by_col], g[by_col])],
                           (n_r + used.size, n_r + used.size), like=(mat,))
    lu = _splu(kkt, f"initialization least squares "
                    f"({n_r} x {used.size})")
    sol = lu.solve(np.concatenate((scale * rhs[nz_rows],
                                   np.zeros(used.size))))
    x[used] = sol[n_r:]
    return x


def check_constraint_residual(c_mat, d_mat, z, u_val, p):
    """StructureError naming the state block of the worst constraint row
    when |C z + D u| exceeds 1e-8 relative to the scale of that row."""
    if c_mat.shape[0] == 0:
        return
    res = c_mat @ z + d_mat @ u_val
    row_scale = np.maximum(
        _row_max_abs(c_mat) * max(np.max(np.abs(z), initial=0.0), 1.0),
        _row_max_abs(d_mat) * max(np.max(np.abs(u_val), initial=0.0), 1.0))
    row_scale[row_scale == 0.0] = 1.0
    rel = np.abs(res) / row_scale
    bad = float(np.max(rel))
    if bad > 1e-8:
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

