"""On-disk formats: Matrix Market system directories, trajectory CSV,
plain-text manifests.

A system directory holds E.mtx, J.mtx, R.mtx, B.mtx, M1.mtx, M2.mtx, S.mtx in
Matrix Market coordinate format (1-based, `real general`) plus a one-line
header file `partition` with the four dimensions.  Trajectories are plain CSV
with 17 significant digits so a round trip is bit-exact.
"""

from __future__ import annotations

import csv
import io
import os

import numpy as np
import scipy.io
import scipy.sparse as sp

from fieldcircuit.structure import EnergySystem, Partition, StructureError, to_csr

_MATRIX_FILES = ("E", "J", "R", "B", "M1", "M2", "S")


def replace_atomic(tmp_path: str, path: str) -> None:
    os.replace(tmp_path, path)


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    replace_atomic(tmp, path)


def write_matrix(path: str, mat) -> None:
    """Matrix Market coordinate format, general symmetry, 1-based indices."""
    coo = sp.coo_matrix(to_csr(mat))
    buf = io.BytesIO()
    scipy.io.mmwrite(buf, coo, symmetry="general", precision=17)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(buf.getvalue())
    replace_atomic(tmp, path)


def read_matrix(path: str):
    mat = scipy.io.mmread(path)
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


def _write_csv_rows(path: str, header, columns) -> None:
    """One CSV row per index of the equal-length columns; floating columns
    use `_fmt`, others `str`."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    numeric = [np.issubdtype(c.dtype, np.floating) for c in columns]
    for k in range(columns[0].shape[0]):
        writer.writerow(_fmt(c[k]) if num else str(c[k])
                        for c, num in zip(columns, numeric))
    write_text_atomic(path, buf.getvalue())


def write_trajectory_csv(traj, path: str) -> None:
    """Header: t,H,D_cum,E_in,<state labels...>,<output labels...>."""
    header = ["t", "H", "D_cum", "E_in", *traj.state_labels, *traj.output_labels]
    columns = [traj.times, traj.hamiltonians, traj.dissipated_cum,
               traj.supplied_cum, *np.asarray(traj.states).T,
               *np.asarray(traj.outputs).T]
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
