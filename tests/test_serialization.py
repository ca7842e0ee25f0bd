import os

import numpy as np
import pytest
import scipy.sparse as sp

from fieldcircuit.integrators import simulate
from fieldcircuit.serialization import (read_manifest, read_matrix,
                                        read_trajectory_csv, load_system,
                                        save_system, write_columns_csv,
                                        write_manifest, write_matrix,
                                        write_trajectory_csv)
from fieldcircuit.structure import StructureError, to_dense, validate
from fieldcircuit.waveforms import zero_input
from tests.conftest import random_energy_system


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
