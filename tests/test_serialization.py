import importlib.util
import io
import math
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.io
import scipy.sparse as sp

from fieldcircuit import serialization
from fieldcircuit.integrators import Trajectory, simulate
from fieldcircuit.serialization import (read_manifest, read_matrix,
                                        read_trajectory_csv, load_system,
                                        save_system, write_columns_csv,
                                        write_manifest, write_matrix,
                                        write_text_atomic,
                                        write_trajectory_csv)
from fieldcircuit.structure import (StructureError, block_rows, to_dense,
                                    validate)
from fieldcircuit.waveforms import zero_input
from tests.conftest import (force_csv_slices, needs_fork,
                            random_energy_system)
from tests.oracles import reference_csv

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# values whose %.17g text is easy to get wrong; 3.0 is written `3`
SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                           1e-300, 1.7976931348623157e308, 3.0])


def _kernel_edges() -> np.ndarray:
    """Values that test the decade, the rounding and the fallback of the
    vectorized `%.17g` kernel (`serialization._g17_cells`)."""
    powers = np.array([float(f"1e{k}") for k in range(-210, 211)])
    near = [powers]
    for direction in (np.inf, -np.inf):
        step = powers
        for _ in range(2):  # one and two ulps away
            step = np.nextafter(step, direction)
            near.append(step)
    # dyadic N / 2^m whose exact expansion has 18 digits ending in 5:
    # exact ties at 17 digits, which round half to even
    ties = []
    for m in range(2, 26):
        least = -(-10 ** 17 // 5 ** m) | 1
        most = min(2 ** 53 - 1, 10 ** 18 // 5 ** m - 1) | 1
        ties += [n / 2 ** m for n in (least, least + 2, least + 8, most)
                 if len(str(n * 5 ** m)) == 18]
    assert len(ties) > 40
    values = np.concatenate(near + [
        [1e-06, 0.1, 2.0 ** 53 - 2, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2,
         9.9999999999999999e22, 1e16, 1e17, 2.2250738585072014e-308, 1e-5,
         1e-4, 1e-200, 1e200, np.nextafter(1e-200, 0),
         np.nextafter(1e200, np.inf)],
        ties])
    return np.concatenate([values, -values])


EDGE_VALUES = np.concatenate([SPECIAL_VALUES, _kernel_edges()])


def test_matrix_round_trip_dense(tmp_path, rng):
    mat = rng.standard_normal((4, 3))
    path = str(tmp_path / "a.mtx")
    write_matrix(path, mat)
    np.testing.assert_array_equal(to_dense(read_matrix(path)), mat)


def test_matrix_round_trip_sparse(tmp_path, rng):
    mat = sp.random(40, 40, density=0.05, random_state=7, format="csr")
    path = str(tmp_path / "s.mtx")
    write_matrix(path, mat)
    back = read_matrix(path)
    np.testing.assert_array_equal(to_dense(back), to_dense(mat))


def test_matrix_round_trip_empty_dimension(tmp_path):
    path = str(tmp_path / "e.mtx")
    write_matrix(path, np.zeros((0, 3)))
    assert to_dense(read_matrix(path)).shape == (0, 3)


def test_system_directory_round_trip(tmp_path, rng):
    sys_r = random_energy_system(rng, n1=2, n2=3, n3=2, m=2)
    d = str(tmp_path / "sys")
    save_system(sys_r, d)
    back = load_system(d)
    assert validate(back).ok
    assert back.partition == sys_r.partition
    for name in ("E", "J", "R", "B", "M1", "M2", "S"):
        np.testing.assert_array_equal(to_dense(getattr(back, name)),
                                      to_dense(getattr(sys_r, name)))


def test_load_system_missing_block(tmp_path, rng):
    sys_r = random_energy_system(rng)
    d = str(tmp_path / "sys")
    save_system(sys_r, d)
    os.remove(os.path.join(d, "J.mtx"))
    with pytest.raises(StructureError, match="J.mtx"):
        load_system(d)


def test_load_system_missing_partition(tmp_path):
    d = str(tmp_path / "empty")
    os.makedirs(d)
    with pytest.raises(StructureError, match="partition"):
        load_system(d)


def test_load_system_malformed_header(tmp_path, rng):
    sys_r = random_energy_system(rng)
    d = str(tmp_path / "sys")
    save_system(sys_r, d)
    with open(os.path.join(d, "partition"), "w", encoding="utf-8") as fh:
        fh.write("partition 1 2\n")
    with pytest.raises(StructureError, match="n1 n2 n3 m"):
        load_system(d)


def test_trajectory_csv_round_trip(tmp_path, rng):
    sys_r = random_energy_system(rng, m=0)
    z0 = rng.standard_normal(sys_r.partition.n)
    traj = simulate(sys_r, z0, zero_input(0), 0.05, 0.2, "midpoint")
    path = str(tmp_path / "traj.csv")
    write_trajectory_csv(traj, path)
    header, data = read_trajectory_csv(path)
    assert header[:4] == ["t", "H", "D_cum", "E_in"]
    assert data.shape[0] == len(traj.times)
    np.testing.assert_array_equal(data[:, 0], traj.times)
    np.testing.assert_array_equal(data[:, 1], traj.hamiltonians)
    np.testing.assert_array_equal(data[:, 4:4 + sys_r.partition.n],
                                  traj.states)


def test_trajectory_csv_equals_columns_csv(tmp_path, rng):
    sys_r = random_energy_system(rng, m=2)
    z0 = rng.standard_normal(sys_r.partition.n)
    traj = simulate(sys_r, z0, zero_input(2), 0.05, 0.2, "midpoint")
    traj_path = tmp_path / "traj.csv"
    cols_path = tmp_path / "cols.csv"
    write_trajectory_csv(traj, str(traj_path))
    write_columns_csv(
        str(cols_path),
        ["t", "H", "D_cum", "E_in", *traj.state_labels, *traj.output_labels],
        [traj.times, traj.hamiltonians, traj.dissipated_cum,
         traj.supplied_cum, *traj.states.T, *traj.outputs.T])
    assert traj.outputs.shape[1] == 2
    assert traj_path.read_bytes() == cols_path.read_bytes()


def test_columns_csv_mixed_types(tmp_path):
    path = str(tmp_path / "c.csv")
    write_columns_csv(path, ["method", "tau"],
                      [np.array(["euler", "trap"]), np.array([0.1, 0.2])])
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "method,tau"
    assert lines[1].startswith("euler,0.1")


def test_columns_csv_validates(tmp_path):
    path = str(tmp_path / "bad.csv")
    with pytest.raises(StructureError, match="mismatch"):
        write_columns_csv(path, ["a"], [np.zeros(2), np.zeros(2)])
    with pytest.raises(StructureError, match="length"):
        write_columns_csv(path, ["a", "b"], [np.zeros(2), np.zeros(3)])


def test_manifest_round_trip(tmp_path):
    path = str(tmp_path / "run.manifest")
    entries = {"method": "trapezoidal", "tau": 1e-7, "steps": 500}
    write_manifest(path, entries)
    back = read_manifest(path)
    assert back["method"] == "trapezoidal"
    assert float(back["tau"]) == 1e-7
    assert int(back["steps"]) == 500


def test_manifest_rejects_bare_line(tmp_path):
    path = str(tmp_path / "bad.manifest")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# comment ok\nno equals sign here\n")
    with pytest.raises(StructureError, match=":2:"):
        read_manifest(path)


def test_no_tmp_files_left_behind(tmp_path, rng):
    sys_r = random_energy_system(rng)
    save_system(sys_r, str(tmp_path / "sys"))
    write_manifest(str(tmp_path / "m"), {"k": 1})
    leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
    assert leftovers == []


def test_read_trajectory_rejects_empty(tmp_path):
    path = str(tmp_path / "empty.csv")
    open(path, "w").close()
    with pytest.raises(StructureError, match="empty"):
        read_trajectory_csv(path)


def _trajectory(rng, rows, n_states, n_outputs, labels=None):
    """A trajectory of random values with the edge values spread over every
    column, and its header and columns as `write_columns_csv` takes them."""
    width = 4 + n_states + n_outputs
    data = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(
        -300, 300, (rows, width))
    for j in range(width):
        k = min(rows, SPECIAL_VALUES.size)
        data[:k, j] = np.roll(SPECIAL_VALUES, j)[:k]
    states, outputs = data[:, 4 : 4 + n_states], data[:, 4 + n_states :]
    state_labels = labels or tuple(f"x{i}" for i in range(n_states))
    traj = Trajectory(data[:, 0], states, outputs, data[:, 1], data[:, 2],
                      data[:, 3], state_labels,
                      tuple(f"y{i}" for i in range(n_outputs)))
    header = ["t", "H", "D_cum", "E_in", *traj.state_labels,
              *traj.output_labels]
    return traj, header, list(data.T)


@pytest.mark.parametrize("rows, n_states, n_outputs, blocks", [
    (12, 3, 2, 1),       # every edge value in every column
    (263, 995, 1, 3),    # width 1000: blocks of 131, 131 and 1 rows
    (0, 2, 1, 0),        # header only
])
def test_trajectory_csv_bytes_match_reference(tmp_path, rng, rows, n_states,
                                              n_outputs, blocks):
    traj, header, columns = _trajectory(rng, rows, n_states, n_outputs)
    assert -(-rows // block_rows(len(columns))) == blocks
    expected = reference_csv(header, columns)
    traj_path, cols_path = tmp_path / "traj.csv", tmp_path / "cols.csv"
    write_trajectory_csv(traj, str(traj_path))
    write_columns_csv(str(cols_path), header, columns)
    assert traj_path.read_bytes() == expected
    assert cols_path.read_bytes() == expected
    if rows:
        assert b",3," in expected or b",3\r\n" in expected


def test_trajectory_csv_quotes_labels_like_csv_writer(tmp_path, rng):
    traj, header, columns = _trajectory(rng, 3, 2, 0, labels=("a,b", 'q"t'))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    assert path.read_bytes() == reference_csv(header, columns)
    assert path.read_bytes().startswith(b't,H,D_cum,E_in,"a,b","q""t"\r\n')


@pytest.mark.parametrize("header, columns", [
    (["x"], [EDGE_VALUES]),
    (["x"], [np.zeros(0)]),
    (["s"], [np.array(["", "a,b", 'q"t', "", "p\nq", "r\rs"])]),
    (["a,b", 'q"t', "flag", "n", "v"],
     [np.array(["a,b", 'q"t', "", "plain", " x "] * 2),
      np.array(['"', ",", "c", "", "d", "e", "f", "g", "h", "i"]),
      np.array([True, False] * 5),
      np.arange(-5, 5),
      np.r_[SPECIAL_VALUES, 0.5]]),
], ids=["single-float", "zero-rows", "single-text", "mixed"])
def test_columns_csv_bytes_match_reference(tmp_path, header, columns):
    path = tmp_path / "c.csv"
    write_columns_csv(str(path), header, columns)
    assert path.read_bytes() == reference_csv(header, columns)


def _kernel_text(values) -> str:
    return serialization._g17_text(np.asarray(values)[:, None],
                                   serialization._end_words([b"\n"]))


def _format_text(values) -> str:
    return "".join(format(float(v), ".17g") + "\n" for v in values)


# any float64 by its bits: every exponent, NaNs of any payload, ±inf,
# subnormals and ±0 alike
ANY_FLOAT64 = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: float(np.uint64(bits).view(np.float64)))


@settings(derandomize=True, deadline=None)
@given(st.lists(ANY_FLOAT64 | st.floats(), max_size=200))
def test_kernel_bytes_equal_format_for_any_float64(values):
    assert _kernel_text(np.array(values, np.float64)) == _format_text(values)


def test_kernel_bytes_equal_format_on_edge_values():
    assert _kernel_text(EDGE_VALUES) == _format_text(EDGE_VALUES)


def _tie_distance(value: float) -> float:
    """How far the exact x·10^(16−e), 10^16 ≤ it < 10^17, lies from the
    nearest half-integer: 0 for an exact tie at 17 digits."""
    q, e = abs(Fraction(value)), 0
    while q * Fraction(10) ** (16 - e) >= 10 ** 17:
        e += 1
    while q * Fraction(10) ** (16 - e) < 10 ** 16:
        e -= 1
    y = q * Fraction(10) ** (16 - e)
    return float(abs(y - math.floor(y) - Fraction(1, 2)))


def test_kernel_sends_only_ties_extremes_and_non_finite_values_one_by_one(
        monkeypatch, rng):
    fallback, sent = serialization._g17_fallback, []

    def counting(values):
        sent.extend(values.tolist())
        return fallback(values)

    monkeypatch.setattr(serialization, "_g17_fallback", counting)
    common = rng.standard_normal(5000) * 10.0 ** rng.integers(-199, 199, 5000)
    zeros = np.zeros(100) * np.resize([1.0, -1.0], 100)
    assert _kernel_text(np.r_[common, zeros]) == _format_text(
        np.r_[common, zeros])
    # zeros and −0 stay on the vector path; a common value is sent only
    # when it is within 1e-6 of a tie (doubles near 1e14 with few fraction
    # bits are exact ties often)
    assert len(sent) < 50 and all(_tie_distance(v) <= 1e-6 for v in sent)
    sent.clear()
    ties = [2.0 ** -25, 1e15 + 0.25]  # 18-digit expansions ending in 5
    others = [np.nan, np.inf, -np.inf, 5e-324, 1e-201, 1e201]
    assert _kernel_text(ties + others) == _format_text(ties + others)
    assert _kernel_text(ties) == "2.9802322387695312e-08\n1000000000000000.2\n"
    assert sent[:2] == ties and len(sent) == 2 + len(others) + 2


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
def test_columns_csv_of_other_float_widths_match_reference(tmp_path, rng,
                                                           dtype):
    # a longdouble is written as `%.17g` of its float64 rounding
    reach = min(30, int(np.log10(np.finfo(dtype).max)) - 1)
    scale = 10.0 ** rng.integers(-reach, reach, 300)
    wide = (rng.standard_normal(300) * scale).astype(dtype)
    if dtype is np.longdouble:
        wide = wide / dtype(3)
    with np.errstate(over="ignore"):  # 1.8e308 is inf in a narrow type
        special = np.r_[SPECIAL_VALUES, np.ones(291)].astype(dtype)
    columns = [wide, special, rng.standard_normal(300)]
    path = tmp_path / "w.csv"
    write_columns_csv(str(path), ["a", "b", "c"], columns)
    assert path.read_bytes() == reference_csv(["a", "b", "c"], columns)


def test_traced_trajectory_write_counts_values_and_bytes(tmp_path, rng):
    spec = importlib.util.spec_from_file_location("_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traj, _, columns = _trajectory(rng, 263, 995, 1)
    path = tmp_path / "traj.csv"
    with tracing.Tracer() as tracer:
        serialization.write_trajectory_csv(traj, str(path))
    writes = [s for s in tracer.spans if s[0] == "serialization.write"]
    files = [s for s in tracer.spans if s[0] == "serialization.write_file"]
    assert len(writes) == 1 and writes[0][4] == 263 * (4 + 995 + 1)
    assert len(files) == 1 and files[0][4] == path.stat().st_size
    assert files[0][3] == tracer.spans.index(writes[0])


def test_failed_text_write_keeps_old_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old\r\n")

    def chunks():
        yield "new,"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        write_text_atomic(str(path), chunks())
    assert path.read_bytes() == b"old\r\n"
    assert not (tmp_path / "out.csv.tmp").exists()


def test_failed_matrix_write_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "a.mtx"
    write_matrix(str(path), np.eye(2))
    old = path.read_bytes()

    def failing_mmwrite(target, *args, **kwargs):
        target.write(b"%%MatrixMarket matrix coordinate")
        raise OSError("mmwrite failed")

    monkeypatch.setattr(scipy.io, "mmwrite", failing_mmwrite)
    with pytest.raises(OSError, match="mmwrite failed"):
        write_matrix(str(path), np.ones((3, 3)))
    assert path.read_bytes() == old
    assert not (tmp_path / "a.mtx.tmp").exists()


def test_matrix_file_bytes_match_mmwrite(tmp_path):
    mat = sp.random(30, 20, density=0.1, random_state=3, format="csr")
    buf = io.BytesIO()
    scipy.io.mmwrite(buf, sp.coo_matrix(mat), symmetry="general",
                     precision=17)
    path = tmp_path / "m.mtx"
    write_matrix(str(path), mat)
    assert path.read_bytes() == buf.getvalue()


@pytest.mark.parametrize("text", [
    "garbage\n", "",
    "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n"])
def test_malformed_matrix_file_is_a_structure_error(tmp_path, text):
    path = tmp_path / "M.mtx"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(StructureError) as err:
        serialization.read_matrix(str(path))
    assert str(path) in str(err.value)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split_case(rng, name):
    """(header, columns) of the split-writer parity cases."""
    if name == "uneven-rows":  # 11 rows: slices of 5 + 6 and 3 + 4 + 4
        return _trajectory(rng, 11, 3, 2)[1:]
    if name == "zero-rows":
        return _trajectory(rng, 0, 2, 1)[1:]
    if name == "one-row":
        return _trajectory(rng, 1, 2, 1)[1:]
    if name == "one-column":
        return ["x"], [EDGE_VALUES]
    if name == "one-text-column":  # an empty value alone on its row
        return ["s"], [np.array(["", "a,b", 'q"t', "", "p\nq", "r\rs"])]
    return (["a,b", 'q"t', "flag", "n", "v"],  # quoted text among numbers
            [np.array(["a,b", 'q"t', "", "plain", " x "] * 2),
             np.array(['"', ",", "c", "", "d", "e", "f", "g", "h", "i"]),
             np.array([True, False] * 5), np.arange(-5, 5),
             np.r_[SPECIAL_VALUES, 0.5]])


@needs_fork
@pytest.mark.parametrize("slices", [1, 2, 3])
@pytest.mark.parametrize("name", ["uneven-rows", "zero-rows", "one-row",
                                  "one-column", "one-text-column",
                                  "mixed-text"])
def test_split_csv_bytes_match_one_slice(tmp_path, monkeypatch, rng, slices,
                                         name):
    header, columns = _split_case(rng, name)
    one = tmp_path / "one" / "c.csv"
    split = tmp_path / "split" / "c.csv"
    one.parent.mkdir()
    split.parent.mkdir()
    force_csv_slices(monkeypatch, 1)
    write_columns_csv(str(one), header, columns)
    forks = force_csv_slices(monkeypatch, slices)
    write_columns_csv(str(split), header, columns)
    # only a table of floating columns is split; any other is written by
    # csv.writer in this process
    floating = all(np.issubdtype(c.dtype, np.floating) for c in columns)
    rows = columns[0].shape[0]
    assert len(forks) == (max(min(slices, rows), 1) - 1 if floating else 0)
    assert split.read_bytes() == one.read_bytes()
    assert split.read_bytes() == reference_csv(header, columns)
    assert os.listdir(split.parent) == ["c.csv"]
    _no_child_left()


@needs_fork
@pytest.mark.parametrize("slices", [2, 3])
def test_split_trajectory_csv_bytes_match_reference(tmp_path, monkeypatch,
                                                    rng, slices):
    traj, header, columns = _trajectory(rng, 263, 995, 1)
    forks = force_csv_slices(monkeypatch, slices)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    assert len(forks) == slices - 1
    assert path.read_bytes() == reference_csv(header, columns)
    assert os.listdir(tmp_path) == ["traj.csv"]
    _no_child_left()


@needs_fork
def test_row_slices_hold_the_fewest_values(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    least = serialization._MIN_SLICE_VALUES
    # below two slices' worth of values a file is written in one slice
    assert serialization._row_slices(2 * least - 1, 1) == [0, 2 * least - 1]
    assert serialization._row_slices(1, 2 * least) == [0, 1]
    assert serialization._row_slices(0, 0) == [0, 0]
    # a slice never holds fewer values, and there is one per CPU at most
    assert serialization._row_slices(2 * least, 1) == [0, least, 2 * least]
    assert len(serialization._row_slices(100 * least, 1)) == 5
    min_rows = -(-least // 7)
    for rows, slices in ((3 * min_rows - 1, 2), (3 * min_rows, 3)):
        bounds = serialization._row_slices(rows, 7)
        assert len(bounds) == slices + 1
        assert min(np.diff(bounds)) * 7 >= least


def _write_old_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old\r\n")
    return path


@needs_fork
def test_failed_slice_process_keeps_old_file(tmp_path, monkeypatch, rng,
                                             capfd):
    force_csv_slices(monkeypatch, 3)
    parent, blocks = os.getpid(), serialization._csv_blocks

    def failing_in_child(columns, lo, hi):
        if os.getpid() != parent:
            raise RuntimeError("formatting failed")
        return blocks(columns, lo, hi)

    monkeypatch.setattr(serialization, "_csv_blocks", failing_in_child)
    path = _write_old_file(tmp_path)
    header, columns = _split_case(rng, "uneven-rows")
    with pytest.raises(OSError, match=r"out\.csv: writing rows 3 to 6 "):
        write_columns_csv(str(path), header, columns)
    assert "formatting failed" in capfd.readouterr().err
    assert path.read_bytes() == b"old\r\n"
    assert os.listdir(tmp_path) == ["out.csv"]
    _no_child_left()


@needs_fork
def test_parent_error_after_fork_kills_slice_processes(tmp_path, monkeypatch,
                                                       rng):
    force_csv_slices(monkeypatch, 3)
    parent, blocks = os.getpid(), serialization._csv_blocks

    def failing_in_parent(columns, lo, hi):
        if os.getpid() != parent:
            time.sleep(60)  # still running when the parent fails
        yield from blocks(columns, lo, hi)
        if os.getpid() == parent:
            raise RuntimeError("parent failed")

    monkeypatch.setattr(serialization, "_csv_blocks", failing_in_parent)
    path = _write_old_file(tmp_path)
    header, columns = _split_case(rng, "uneven-rows")
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="parent failed"):
        write_columns_csv(str(path), header, columns)
    assert time.monotonic() - start < 30.0  # killed, not waited for
    assert path.read_bytes() == b"old\r\n"
    assert os.listdir(tmp_path) == ["out.csv"]
    _no_child_left()
