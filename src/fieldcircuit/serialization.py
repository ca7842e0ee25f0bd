"""On-disk formats: Matrix Market system directories, trajectory CSV,
plain-text manifests.

A system directory holds E.mtx, J.mtx, R.mtx, B.mtx, M1.mtx, M2.mtx, S.mtx in
Matrix Market coordinate format (1-based, `real general`) plus a one-line
header file `partition` with the four dimensions.  Trajectories are plain CSV
with 17 significant digits so a round trip is bit-exact.  CSV files are
streamed to disk in blocks of rows (`structure.block_rows`), so memory does
not grow with the file.  Every file is written to a sibling temp file that
is renamed into place, and removed if writing fails.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os

import numpy as np
import scipy.io
import scipy.sparse as sp

from fieldcircuit.structure import (EnergySystem, Partition, StructureError,
                                    block_rows, to_csr)

_MATRIX_FILES = ("E", "J", "R", "B", "M1", "M2", "S")


def replace_atomic(tmp_path: str, path: str) -> None:
    os.replace(tmp_path, path)


@contextlib.contextmanager
def _atomic_open(path: str, mode: str, **kwargs):
    """Open a sibling temp file and rename it to `path` once the block has
    written it, so readers never see a partial file.  If the block raises,
    the temp file is removed and an existing file at `path` is untouched."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    replace_atomic(tmp, path)


def write_text_atomic(path: str, text) -> None:
    """Write a string, or an iterable of string chunks, atomically."""
    with _atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines((text,) if isinstance(text, str) else text)


def write_matrix(path: str, mat) -> None:
    """Matrix Market coordinate format, general symmetry, 1-based indices."""
    coo = sp.coo_matrix(to_csr(mat))
    with _atomic_open(path, "wb") as fh:
        scipy.io.mmwrite(fh, coo, symmetry="general", precision=17)


def read_matrix(path: str):
    """CSR array of a MatrixMarket file; StructureError if it is malformed."""
    try:
        mat = scipy.io.mmread(path)
    except ValueError as exc:
        raise StructureError(f"{path}: not a readable MatrixMarket file: "
                             f"{exc}") from None
    if not sp.issparse(mat):
        mat = sp.coo_matrix(np.atleast_2d(mat))
    return sp.csr_array(mat)


def save_system(system: EnergySystem, dirpath: str) -> None:
    os.makedirs(dirpath, exist_ok=True)
    p = system.partition
    write_text_atomic(os.path.join(dirpath, "partition"),
                      f"partition {p.n1} {p.n2} {p.n3} {p.m}\n")
    for name in _MATRIX_FILES:
        write_matrix(os.path.join(dirpath, name + ".mtx"), getattr(system, name))


def load_system(dirpath: str) -> EnergySystem:
    head = os.path.join(dirpath, "partition")
    if not os.path.isfile(head):
        raise StructureError(f"system directory {dirpath!r} lacks a partition file")
    with open(head, encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) != 5 or tokens[0] != "partition":
        raise StructureError(
            f"malformed partition header in {head!r}: expected "
            f"'partition n1 n2 n3 m'")
    try:
        n1, n2, n3, m = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise StructureError(f"non-integer dimension in {head!r}") from exc
    blocks = {}
    for name in _MATRIX_FILES:
        fpath = os.path.join(dirpath, name + ".mtx")
        if not os.path.isfile(fpath):
            raise StructureError(f"system directory {dirpath!r} lacks {name}.mtx")
        blocks[name] = read_matrix(fpath)
    return EnergySystem(Partition(n1, n2, n3, m), **blocks)


# ---------------------------------------------------------------------------
# trajectory CSV
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_text(column, alone: bool) -> np.ndarray:
    """`str` of every value, quoted as `csv.writer` quotes it: a value with
    a comma, quote or line break, and an empty value alone on its row."""
    cells = [str(v) for v in column]
    for k, cell in enumerate(cells):
        if any(ch in cell for ch in ',"\r\n') or (alone and not cell):
            cells[k] = '"' + cell.replace('"', '""') + '"'
    return np.array(cells, dtype=object)


def _write_csv_rows(path: str, header, columns) -> None:
    """One CSV row per index of the equal-length columns, formatted by one
    `%` string per row: `%.17g` for floating columns, `%s` for the rest.
    The header goes through `csv.writer`; the rows are streamed to the file
    `block_rows` at a time, so the byte format is that of `csv.writer` with
    `_fmt` for floats and `str` for the other values."""
    head = io.StringIO()
    csv.writer(head).writerow(header)
    numeric = [np.issubdtype(c.dtype, np.floating) for c in columns]
    row = ",".join("%.17g" if num else "%s" for num in numeric) + "\r\n"
    columns = [c if num else _csv_text(c, len(columns) == 1)
               for c, num in zip(columns, numeric)]
    n_rows = columns[0].shape[0] if columns else 0
    rows = block_rows(len(columns))

    def chunks():
        yield head.getvalue()
        for k in range(0, n_rows, rows):
            yield "".join(row % cells for cells in
                          zip(*[c[k : k + rows].tolist() for c in columns]))

    write_text_atomic(path, chunks())


def write_trajectory_csv(traj, path: str) -> None:
    """Header: t,H,D_cum,E_in,<state labels...>,<output labels...>."""
    header = ["t", "H", "D_cum", "E_in", *traj.state_labels, *traj.output_labels]
    columns = [traj.times, traj.hamiltonians, traj.dissipated_cum,
               traj.supplied_cum, *np.asarray(traj.states).T,
               *np.asarray(traj.outputs).T]
    # the state and output columns are views: neither matrix is copied
    _write_csv_rows(path, header,
                    [np.asarray(c, dtype=np.float64) for c in columns])


def write_columns_csv(path: str, header, columns) -> None:
    """Equal-length columns under the given header labels."""
    columns = [np.asarray(c) for c in columns]
    if len(header) != len(columns):
        raise StructureError("header/column count mismatch")
    if len({c.shape[0] for c in columns}) > 1:
        raise StructureError("columns differ in length")
    _write_csv_rows(path, header, columns)


def read_trajectory_csv(path: str):
    """Returns (column labels, data array of shape (rows, columns))."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise StructureError(f"empty trajectory file {path!r}") from None
        rows = [[float(v) for v in row] for row in reader if row]
    return header, np.asarray(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def write_manifest(path: str, entries: dict) -> None:
    """`key = value` lines; values are serialized with repr-fidelity."""
    write_text_atomic(path, format_run_summary(entries))


def read_manifest(path: str) -> dict:
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise StructureError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return entries


def format_run_summary(entries: dict) -> str:
    buf = io.StringIO()
    for key, value in entries.items():
        if isinstance(value, float):
            value = _fmt(value)
        buf.write(f"{key} = {value}\n")
    return buf.getvalue()
