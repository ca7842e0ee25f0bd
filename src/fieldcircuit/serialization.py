"""On-disk formats: Matrix Market system directories, trajectory CSV,
plain-text manifests.

A system directory holds E.mtx, J.mtx, R.mtx, B.mtx, M1.mtx, M2.mtx, S.mtx in
Matrix Market coordinate format (1-based, `real general`) plus a one-line
header file `partition` with the four dimensions.  Trajectories are plain CSV
with 17 significant digits so a round trip is bit-exact.  The `%.17g` text
of floating columns comes from a numpy kernel (`_g17_cells`) that writes
the bytes `format(v, ".17g")` writes, a block of about 16k values at a
time; the few values it cannot round with certainty go through `format`.
Tables of floating columns are streamed to disk in those blocks, so memory
does not grow with the file; a large one is formatted in slices of rows,
one forked process per usable CPU, into the same bytes.  A table with any
other column is written by `csv.writer` in one process.  Every file is
written to a sibling temp file that is renamed into place, and removed if
writing fails.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import os
import signal
from typing import NamedTuple

import numpy as np
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


# scipy.io is imported by the two functions that write and read Matrix
# Market, not with this module: the import raises the resident memory of a
# process by about 1.5 MB, which a run that saves and loads no system does
# not need


def write_matrix(path: str, mat) -> None:
    """Matrix Market coordinate format, general symmetry, 1-based indices."""
    import scipy.io

    coo = sp.coo_matrix(to_csr(mat))
    with _atomic_open(path, "wb") as fh:
        scipy.io.mmwrite(fh, coo, symmetry="general", precision=17)


def read_matrix(path: str):
    """CSR array of a MatrixMarket file; StructureError if it is malformed."""
    import scipy.io

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


# ---------------------------------------------------------------------------
# %.17g of float64 values, vectorized
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
# the powers 10^p that values in [1e-200, 1e200] need, with a decade to spare
_P_MIN, _P_MAX = -186, 218


def _powers() -> tuple:
    """10^p for p in _P_MIN.._P_MAX as hi + lo, both correctly rounded
    from the exact value, and hi split into halves of 26 bits.  10^p is the
    ratio of Python integers a/b and hi = c/d (d a power of two), so
    10^p − hi = (a·d − c·b)/(b·d); int/int division is correctly rounded."""
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        a, b = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        h = a / b
        c, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((a * d - c * b) / (b * d))
    hi, lo = np.array(hi), np.array(lo)
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, lo, hh, hi - hh


# a cell word: byte k of the text is bits 8k..8k+7, on any host
_WORD = np.dtype("<u8")


def _words(texts, size: int) -> np.ndarray:
    """Byte strings as rows of cell words, zero-padded to `size` bytes."""
    return np.array(texts, f"S{size}").view(_WORD).reshape(len(texts), -1)


def _quads() -> tuple:
    """For each q < 10^4: its four digits as the text of a word, and how
    many of them are left once trailing zeros are dropped (for q > 0)."""
    q = np.arange(10000)
    text = sum((q // 10 ** (3 - k) % 10 + ord("0")).astype(np.uint64)
               << np.uint64(8 * k) for k in range(4))
    return text, 4 - sum(q % 10 ** k == 0 for k in (1, 2, 3))


def _layouts() -> tuple:
    """Masks of the 24-byte digit field, one row per layout keep·18 + ip:
    the field holds three zero bytes and the 17 digits, of which `keep`
    are written, with the point after the first `ip` if any is left after
    it.  LEFT keeps the digits before the point, RIGHT those after it once
    the field is shifted up by a byte, POINT holds the point."""
    left, right, point = [], [], []
    for keep in range(18):
        for ip in range(18):
            left.append(b"\xff" * (3 + min(keep, ip)))
            right.append(b"\0" * (ip + 4) + b"\xff" * max(keep - ip, 0))
            point.append(b"\0" * (ip + 3) + b"." if keep > ip else b"")
    return tuple(_words(m, 24).T.copy() for m in (left, right, point))


_EXP_MIN = -330
_SHIFT = {s: np.uint64(s) for s in (8, 24, 32, 56)}


class _Tables(NamedTuple):
    """The tables of `_g17_cells`."""

    pow_hi: np.ndarray
    pow_lo: np.ndarray
    pow_hh: np.ndarray
    pow_hl: np.ndarray
    quad: np.ndarray
    quad_digits: np.ndarray
    left: np.ndarray
    right: np.ndarray
    point: np.ndarray
    # a zero byte for the sign, then the "0.000" … "0." of exponents
    # −4 … −1; none for the others
    prefix: np.ndarray
    exponent: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """The `_Tables`, built when the first value is formatted: their
    construction raises the resident memory of a process by about 1 MB,
    which a run that writes no CSV does not need.  Every caller shares
    them, so they are read-only."""
    tables = _Tables(
        *_powers(), *_quads(), *_layouts(),
        _words([b"\0" + b"0." + b"0" * k for k in (3, 2, 1, 0)] + [b""],
               8)[:, 0],
        _words([b""] + [b"e%+03d" % e for e in range(_EXP_MIN, 310)],
               8)[:, 0])
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(ax: np.ndarray, e: np.ndarray) -> tuple:
    """ax·10^(16−e) as a double-double (yh, yl): Dekker's exact product of
    ax and the hi part of the power, plus ax times its lo part."""
    tab = _tables()
    k = 16 - _P_MIN - e
    bh, bl = np.take(tab.pow_hh, k), np.take(tab.pow_hl, k)
    c = _SPLIT * ax
    ah = c - (c - ax)
    al = ax - ah
    p = ax * np.take(tab.pow_hi, k)
    t = ((((ah * bh - p) + ah * bl + al * bh) + al * bl)
         + ax * np.take(tab.pow_lo, k))
    yh = p + t
    return yh, t - (yh - p)


def _off_decade(yh: np.ndarray, yl: np.ndarray) -> np.ndarray:
    """Where yh + yl lies outside [1e16, 1e17)."""
    return ((yh < 1e16) | ((yh == 1e16) & (yl < 0))
            | (yh > 1e17) | ((yh == 1e17) & (yl >= 0)))


def _g17_cells(x: np.ndarray) -> np.ndarray:
    """`format(v, ".17g")` of every value of the float64 vector x, as rows
    of five cell words: the text, in order, with zero bytes between its
    parts and after it.  Bytes 5..7 of the last word are zero.

    Exactness.  For 1e-200 ≤ |x| ≤ 1e200 the decimal exponent e is the one
    for which y = |x|·10^(16−e) lies in [1e16, 1e17), tested on yh + yl and
    moved by one where log10 missed it (a value still outside goes through
    the fallback).  yh + yl equals y to within about 2^-100·y < 1e-13:
    Dekker's product is exact, and the lo part of the power and the
    product of x with it each err by about 2^-106·y.  yh is an
    integer (≥ 1e16 > 2^53), so the 17 correctly rounded digits are
    D = yh + rint(yl) unless the fraction of yl lies within 1e-6 of ½, where
    an exact tie may have to be broken to even.  Such values, the
    non-finite ones and those outside [1e-200, 1e200] (the powers' table,
    and no underflow in the split product) go through `_g17_fallback`; a
    D of 10^17 carries into the exponent.  Zeros take D = 0, e = 0.  The
    text then follows `%g`: fixed notation for −4 ≤ e ≤ 16, with the
    integer digits kept and zeros after the point dropped, else d.ddde±XX
    with at least two exponent digits, trailing zeros and a bare point
    dropped in both."""
    tab = _tables()
    n = x.size
    ax = np.abs(x)
    zero = ax == 0
    fast = ((ax >= 1e-200) & (ax <= 1e200)) | zero
    ax = np.where(fast & ~zero, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    yh, yl = _scaled(ax, e)
    off = np.flatnonzero(_off_decade(yh, yl))
    if off.size:
        e[off] += np.where(yh[off] > 1e16, 1, -1)
        yh[off], yl[off] = _scaled(ax[off], e[off])
        fast[off[_off_decade(yh[off], yl[off])]] = False
    fast &= np.abs(yl - np.floor(yl) - 0.5) > 1e-6
    digits = yh.astype(np.int64) + np.rint(yl).astype(np.int64)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    e += carry
    digits[zero] = 0
    e[zero] = 0
    # the digits in groups: one, then four of four
    lead = digits // 10 ** 16
    rest = digits - lead * 10 ** 16
    high = rest // 10 ** 8
    low = (rest - high * 10 ** 8).astype(np.uint32)
    high = high.astype(np.uint32)
    q0, q2 = high // np.uint32(10000), low // np.uint32(10000)
    quads = (q0, high - q0 * np.uint32(10000), q2, low - q2 * np.uint32(10000))
    significant = np.ones(n, np.int64)
    for k, q in enumerate(quads):
        significant = np.where(q != 0, 1 + 4 * k + np.take(tab.quad_digits, q),
                               significant)
    field = [((lead.astype(np.uint64) + np.uint64(48)) << _SHIFT[24])
             | (np.take(tab.quad, quads[0]) << _SHIFT[32]),
             np.take(tab.quad, quads[1]) | (np.take(tab.quad, quads[2]) << _SHIFT[32]),
             np.take(tab.quad, quads[3])]
    sci = (e < -4) | (e > 16)
    fixed = ~sci & (e >= 0)
    ip = np.where(sci, 1, np.where(fixed, np.minimum(e + 1, 17), 17))
    keep = np.where(fixed, np.maximum(significant, ip), significant)
    layout = keep * 18 + ip
    out = np.empty((n, 5), _WORD)
    carried = np.zeros(n, np.uint64)
    for j, w in enumerate(field):
        shifted = (w << _SHIFT[8]) | carried
        carried = w >> _SHIFT[56]
        out[:, 1 + j] = ((w & np.take(tab.left[j], layout))
                         | (shifted & np.take(tab.right[j], layout))
                         | np.take(tab.point[j], layout))
    out[:, 0] = (np.take(tab.prefix, np.where(sci | fixed, 4, e + 4))
                 | (np.signbit(x).astype(np.uint64) * np.uint64(ord("-"))))
    out[:, 4] = np.take(tab.exponent, np.where(sci, e - _EXP_MIN + 1, 0))
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = _g17_fallback(x[slow])
    return out


def _g17_fallback(values) -> np.ndarray:
    """`_g17_cells` of values one at a time through `format`."""
    return _words([format(float(v), ".17g").encode() for v in values], 40)


def _end_words(ends) -> np.ndarray:
    """Each separator as the last word of a `_g17_cells` row."""
    return _words([b"\0" * 5 + end for end in ends], 8)[:, 0]


def _g17_text(block: np.ndarray, ends: np.ndarray) -> str:
    """The values of the 2-D block row by row, each as `%.17g` followed by
    the separator `ends` holds for its column (`_end_words`)."""
    cells = _g17_cells(np.ascontiguousarray(block, np.float64).ravel())
    cells.reshape(*block.shape, 5)[..., 4] |= ends
    return cells.tobytes().translate(None, b"\0").decode("ascii")


# Fewest values that a slice of a split CSV holds.  On a 2-core x86_64
# host, in a process of about 150 MB resident, `_g17_text` formats and
# writes 65 536 values in 17–20 ms, while the fork, the reap and the append
# of a part file cost 20–26 ms.  Over 31 interleaved pairs, a file of
# 131 072 values took 1.29 times as long in two slices as in one (two
# faster in 8 of 31), one of 262 144 values 0.71 times (29 of 31); so a
# slice holds at least 131 072 values.
_MIN_SLICE_VALUES = 131072


def _row_slices(n_rows: int, n_columns: int) -> list:
    """Row bounds of the slices a CSV is formatted in: one slice per CPU
    this process may run on, each of at least `_MIN_SLICE_VALUES` values,
    and a single slice where the platform cannot fork or name those CPUs."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return [0, n_rows]
    min_rows = -(-_MIN_SLICE_VALUES // max(n_columns, 1))
    count = max(1, min(len(os.sched_getaffinity(0)), n_rows // min_rows))
    return [n_rows * k // count for k in range(count + 1)]


def _csv_blocks(columns, lo: int, hi: int):
    """The text of rows lo..hi of the floating columns, 1-D or 2-D groups
    of adjacent columns, an eighth of `block_rows` rows per chunk, each
    chunk one block through `_g17_text`."""
    width = sum(c.shape[1] if c.ndim == 2 else 1 for c in columns)
    step = max(1, block_rows(width) // 8)
    ends = _end_words([b","] * (width - 1) + [b"\r\n"])
    for k in range(lo, hi, step):
        stop = min(k + step, hi)
        yield _g17_text(np.concatenate(
            [c[k:stop] if c.ndim == 2 else c[k:stop, None] for c in columns],
            axis=1, dtype=np.float64), ends)


def _write_part(part: str, columns, lo: int, hi: int) -> None:
    """In a forked process: write rows lo..hi to `part` and leave by
    `os._exit`, with status 0 once the file is closed and 1 on any error, so
    nothing of the parent (exit handlers, buffered streams) runs twice."""
    status = 1
    try:
        with open(part, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(_csv_blocks(columns, lo, hi))
        status = 0
    except BaseException as exc:
        os.write(2, f"{part}: {exc!r}\n".encode())
    finally:
        os._exit(status)


@contextlib.contextmanager
def _forked_slices(path: str, columns, bounds):
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
                _write_part(part, columns, *bounds[k:k + 2])
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
    """One CSV row per index of the equal-length columns, in the bytes of
    `csv.writer` with `_fmt` for floating values and `str` for the rest.
    A 2-D column is a group of adjacent floating columns.  A table with a
    column that is not floating is written by `csv.writer` in one go.  The
    rows of a floating table are streamed to the file in chunks of
    `_csv_blocks`; those after the first slice of `_row_slices` are
    formatted by forked processes and appended in order."""
    head = io.StringIO()
    writer = csv.writer(head)
    writer.writerow(header)
    numeric = [np.issubdtype(c.dtype, np.floating) for c in columns]
    if not all(numeric):
        writer.writerows(zip(*[map(_fmt if num else str, c)
                               for c, num in zip(columns, numeric)]))
        write_text_atomic(path, head.getvalue())
        return
    bounds = _row_slices(columns[0].shape[0] if columns else 0, len(header))
    with _forked_slices(path, columns, bounds) as parts:
        write_text_atomic(path, itertools.chain(
            [head.getvalue()], _csv_blocks(columns, *bounds[:2])), parts)


def write_trajectory_csv(traj, path: str) -> None:
    """Header: t,H,D_cum,E_in,<state labels...>,<output labels...>."""
    header = ["t", "H", "D_cum", "E_in", *traj.state_labels, *traj.output_labels]
    # the states and outputs go as 2-D groups: neither matrix is copied
    columns = [traj.times, traj.hamiltonians, traj.dissipated_cum,
               traj.supplied_cum, traj.states, traj.outputs]
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
