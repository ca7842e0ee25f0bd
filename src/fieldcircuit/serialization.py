"""On-disk formats: Matrix Market system directories, trajectory CSV,
plain-text manifests.

A system directory holds E.mtx, J.mtx, R.mtx, B.mtx, M1.mtx, M2.mtx, S.mtx in
Matrix Market coordinate format (1-based, `real general`) plus a one-line
header file `partition` with the four dimensions.  Trajectories are plain CSV
with 17 significant digits so a round trip is bit-exact.  CSV files are
streamed to disk in blocks of rows (`structure.block_rows`), so memory does
not grow with the file; a large one is formatted in slices of rows, one
forked process per usable CPU, into the same bytes.  Every file is written
to a sibling temp file that is renamed into place, and removed if writing
fails.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import os
import signal

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


def write_text_atomic(path: str, text, parts=()) -> None:
    """Write a string, or an iterable of string chunks, atomically, then
    append the bytes of each file that the iterable `parts` names."""
    with _atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines((text,) if isinstance(text, str) else text)
        fh.flush()
        for part in parts:
            _append_file(fh.fileno(), part)


def _append_file(fd: int, part: str) -> None:
    with open(part, "rb") as src:
        size, sent = os.fstat(src.fileno()).st_size, 0
        while sent < size:
            sent += os.sendfile(fd, src.fileno(), sent, size - sent)


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
    try:
        return EnergySystem(Partition(n1, n2, n3, m), **blocks)
    except StructureError as exc:
        where = f", file '{exc.block}.mtx'" if exc.block in blocks else ""
        raise StructureError(f"system directory {dirpath!r}{where}: {exc}",
                             exc.block) from exc


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


# Fewest values that a slice of a split CSV holds.  On a 2-core Xeon host,
# forking a process of about 130 MB resident (`sweep-small`) takes 2 ms;
# the fork, the reap and the append of a part file of 65 536 values take
# 7–8 ms in all, and formatting those values takes 40–65 ms, so a smaller
# slice would not repay its process.
_MIN_SLICE_VALUES = 65536


def _row_slices(n_rows: int, n_columns: int) -> list:
    """Row bounds of the slices a CSV is formatted in: one slice per CPU
    this process may run on, each of at least `_MIN_SLICE_VALUES` values,
    and a single slice where the platform cannot fork or name those CPUs."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return [0, n_rows]
    min_rows = -(-_MIN_SLICE_VALUES // max(n_columns, 1))
    count = max(1, min(len(os.sched_getaffinity(0)), n_rows // min_rows))
    return [n_rows * k // count for k in range(count + 1)]


def _csv_blocks(row: str, columns, lo: int, hi: int):
    """The text of rows lo..hi, `block_rows` rows per chunk, each row
    formatted by the `%` string `row`."""
    step = block_rows(len(columns))
    for k in range(lo, hi, step):
        stop = min(k + step, hi)
        yield "".join(row % cells for cells in
                      zip(*[c[k:stop].tolist() for c in columns]))


def _write_part(part: str, row: str, columns, lo: int, hi: int) -> None:
    """In a forked process: write rows lo..hi to `part` and leave by
    `os._exit`, with status 0 once the file is closed and 1 on any error, so
    nothing of the parent (exit handlers, buffered streams) runs twice."""
    status = 1
    try:
        with open(part, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(_csv_blocks(row, columns, lo, hi))
        status = 0
    except BaseException as exc:
        os.write(2, f"{part}: {exc!r}\n".encode())
    finally:
        os._exit(status)


@contextlib.contextmanager
def _forked_slices(path: str, row: str, columns, bounds):
    """Fork one process for each slice of rows after the first; each writes
    its rows to the part file `<path>.tmp.part<k>`.  Yields an iterator that
    waits for the processes in row order and gives each part file, and
    raises OSError naming the file and the rows of a process that failed.
    On exit every process still running is killed and reaped and every part
    file is removed.

    A forked process reads the columns through memory it shares with the
    parent until either writes it, so nothing is copied or pickled; it
    only formats and writes, and calls nothing whose locks another thread
    of the parent could hold."""
    slices, running = [], set()
    try:
        for k in range(1, len(bounds) - 1):
            part = f"{path}.tmp.part{k}"
            pid = os.fork()
            if pid == 0:
                _write_part(part, row, columns, *bounds[k:k + 2])
            running.add(pid)
            slices.append((pid, part, *bounds[k:k + 2]))

        def finished():
            for pid, part, lo, hi in slices:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                running.discard(pid)
                if code:
                    raise OSError(f"{path}: writing rows {lo} to {hi - 1} "
                                  f"failed in a forked process (exit {code})")
                yield part

        yield finished()
    finally:
        for pid in running:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for _, part, _, _ in slices:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)


def _write_csv_rows(path: str, header, columns) -> None:
    """One CSV row per index of the equal-length columns, formatted by one
    `%` string per row: `%.17g` for floating columns, `%s` for the rest.
    The header goes through `csv.writer`; the rows are streamed to the file
    `block_rows` at a time, so the byte format is that of `csv.writer` with
    `_fmt` for floats and `str` for the other values.  The rows after the
    first slice of `_row_slices` are formatted by forked processes and
    appended in order."""
    head = io.StringIO()
    csv.writer(head).writerow(header)
    numeric = [np.issubdtype(c.dtype, np.floating) for c in columns]
    row = ",".join("%.17g" if num else "%s" for num in numeric) + "\r\n"
    columns = [c if num else _csv_text(c, len(columns) == 1)
               for c, num in zip(columns, numeric)]
    bounds = _row_slices(columns[0].shape[0] if columns else 0, len(columns))
    with _forked_slices(path, row, columns, bounds) as parts:
        write_text_atomic(path, itertools.chain(
            [head.getvalue()], _csv_blocks(row, columns, *bounds[:2])), parts)


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
