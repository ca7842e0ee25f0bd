import hashlib
import os

import numpy as np
import pytest

from fieldcircuit import serialization
from fieldcircuit.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE,
                              EXIT_STRUCTURE, cli_main)
from fieldcircuit.conductors import StrandedModel, save_model
from fieldcircuit.mna import build_incidence, mna_system, parse_netlist
from fieldcircuit.serialization import (read_manifest, read_matrix,
                                        read_trajectory_csv, save_system,
                                        write_matrix)
from fieldcircuit.structure import hamiltonian
from tests.conftest import random_energy_system


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.md5(fh.read()).hexdigest()


@pytest.fixture()
def rc_netlist(tmp_path):
    p = tmp_path / "rc.cir"
    p.write_text("V1 1 0 DC 1\nR1 1 2 2\nC1 2 0 3\n.tran 0.05 6\n",
                 encoding="utf-8")
    return str(p)


def test_simulate_rc_and_determinism(tmp_path, rc_netlist):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli_main(["simulate", rc_netlist, "--out", out1]) == EXIT_OK
    man = read_manifest(os.path.join(out1, "run.manifest"))
    assert man["experiment"] == "simulate"
    assert man["method"] == "trapezoidal"    # default when .tran has no method
    assert float(man["H_final_J"]) > 0.0
    # replaying the manifest's own parameters is bit-identical
    assert cli_main(["simulate", man["netlist"], "--method", man["method"],
                     "--tau", man["tau_s"], "--tend", man["t_end_s"],
                     "--out", out2]) == EXIT_OK
    assert _digest(os.path.join(out1, "trajectory.csv")) == \
        _digest(os.path.join(out2, "trajectory.csv"))
    # the H column is the Hamiltonian of the stored states, nothing rederived
    header, data = read_trajectory_csv(os.path.join(out1, "trajectory.csv"))
    nl = parse_netlist(open(man["netlist"], encoding="utf-8").read())
    sys_m = mna_system(build_incidence(nl))
    n = sys_m.partition.n
    assert header[4:4 + n] == list(sys_m.state_labels)
    for row in data:
        assert hamiltonian(sys_m, row[4:4 + n]) == row[1]


def test_simulate_with_field_model(tmp_path, rng):
    g = rng.standard_normal((2, 2))
    model = StrandedModel(np.zeros((2, 2)), g @ g.T + 0.1 * np.eye(2),
                          rng.standard_normal((2, 1)), np.array([[0.1]]))
    save_model(model, str(tmp_path / "coil"))
    p = tmp_path / "osc.cir"
    p.write_text("FW1 0 1 stranded coil\nC1 1 0 1u\n"
                 ".tran 1e-6 1e-4\n.method midpoint\n", encoding="utf-8")
    out = str(tmp_path / "run")
    assert cli_main(["simulate", str(p), "--out", out]) == EXIT_OK
    man = read_manifest(os.path.join(out, "run.manifest"))
    assert man["models"] == "coil"
    assert man["method"] == "midpoint"


def test_simulate_models_dir_override(tmp_path, rng):
    g = rng.standard_normal((2, 2))
    model = StrandedModel(np.zeros((2, 2)), g @ g.T + 0.1 * np.eye(2),
                          rng.standard_normal((2, 1)), np.zeros((1, 1)))
    lib = tmp_path / "library"
    save_model(model, str(lib / "w1"))
    p = tmp_path / "c.cir"
    p.write_text("FW1 0 1 stranded w1\nC1 1 0 1u\n.tran 1e-6 5e-5\n",
                 encoding="utf-8")
    out = str(tmp_path / "run")
    assert cli_main(["simulate", str(p), "--models", str(lib),
                     "--out", out]) == EXIT_OK
    # without the override the model directory is missing next to the netlist
    assert cli_main(["simulate", str(p), "--out", out]) == EXIT_STRUCTURE


def test_simulate_missing_file(tmp_path):
    assert cli_main(["simulate", str(tmp_path / "nope.cir")]) == EXIT_PARSE


def test_simulate_bad_netlist(tmp_path):
    p = tmp_path / "bad.cir"
    p.write_text("R1 1 1 5\n", encoding="utf-8")
    assert cli_main(["simulate", str(p)]) == EXIT_PARSE


def test_simulate_needs_time_grid(tmp_path):
    p = tmp_path / "no_tran.cir"
    p.write_text("R1 1 0 5\nC1 1 0 1u\n", encoding="utf-8")
    assert cli_main(["simulate", str(p)]) == EXIT_PARSE
    assert cli_main(["simulate", str(p), "--tau", "1e-6",
                     "--tend", "1e-4", "--out",
                     str(tmp_path / "ok")]) == EXIT_OK


def test_validate_good_and_corrupted(tmp_path, rng, capsys):
    sys_r = random_energy_system(rng)
    d = str(tmp_path / "sys")
    save_system(sys_r, d)
    assert cli_main(["validate", d]) == EXIT_OK

    j = read_matrix(os.path.join(d, "J.mtx"))
    from fieldcircuit.structure import to_dense
    jd = to_dense(j)
    jd[0, 1] += 1.0                      # break skew symmetry
    write_matrix(os.path.join(d, "J.mtx"), jd)
    assert cli_main(["validate", d]) == EXIT_STRUCTURE
    out = capsys.readouterr().out
    assert "skew" in out


def test_validate_missing_directory(tmp_path):
    assert cli_main(["validate", str(tmp_path / "void")]) == EXIT_PARSE


def test_export_matrices(tmp_path):
    geo = tmp_path / "g.geo"
    geo.write_text("rect air 0 10 -10 10\n"
                   "rect coil 4 6 -4 4\n"
                   "material coil 1 0\n"
                   "winding coil 10\n", encoding="utf-8")
    out = str(tmp_path / "mats")
    assert cli_main(["export-matrices", str(geo), out,
                     "--mesh-h", "2e-3"]) == EXIT_OK
    for name in ("K_nu.mtx", "M_sigma.mtx", "X_coil.mtx", "mesh.txt",
                 "export.manifest"):
        assert os.path.isfile(os.path.join(out, name))
    man = read_manifest(os.path.join(out, "export.manifest"))
    k = read_matrix(os.path.join(out, "K_nu.mtx"))
    assert int(man["free_dofs"]) == k.shape[0]
    x = read_matrix(os.path.join(out, "X_coil.mtx"))
    assert x.shape == (k.shape[0], 1)


def test_mesh_and_partition_are_written_atomically(tmp_path, rng,
                                                   monkeypatch):
    # every file goes through a temp file and a rename, so an interrupted
    # export or save never leaves a truncated mesh.txt or partition header
    renamed = []
    replace = serialization.replace_atomic

    def recording_replace(tmp, path):
        renamed.append(os.path.basename(path))
        replace(tmp, path)

    monkeypatch.setattr(serialization, "replace_atomic", recording_replace)
    geo = tmp_path / "g.geo"
    geo.write_text("rect air 0 10 -10 10\n"
                   "rect coil 4 6 -4 4\n"
                   "winding coil 10\n", encoding="utf-8")
    assert cli_main(["export-matrices", str(geo), str(tmp_path / "mats"),
                     "--mesh-h", "2e-3"]) == EXIT_OK
    assert "mesh.txt" in renamed
    renamed.clear()
    save_system(random_energy_system(rng), str(tmp_path / "sys"))
    assert sorted(renamed) == sorted(
        ["partition", "E.mtx", "J.mtx", "R.mtx", "B.mtx", "M1.mtx",
         "M2.mtx", "S.mtx"])
    assert not [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]


def test_export_matrices_then_simulate(tmp_path):
    # the documented workflow: geometry -> export-matrices -> simulate --models
    geo = tmp_path / "g.geo"
    geo.write_text("rect air 0 10 -10 10\n"
                   "rect coil 4 6 -4 4\n"
                   "material coil 1 0\n"
                   "winding coil 10\n", encoding="utf-8")
    models = str(tmp_path / "mats")
    assert cli_main(["export-matrices", str(geo), models,
                     "--mesh-h", "2e-3"]) == EXIT_OK
    assert os.path.isfile(os.path.join(models, "coil", "manifest"))
    # the run starts from the zero state, so a source supplies the energy
    p = tmp_path / "osc.cir"
    p.write_text("FW1 0 1 stranded coil\nC1 1 0 1u\nI1 0 1 SIN 0 1m 20k\n"
                 ".tran 1e-6 1e-4\n", encoding="utf-8")
    out = str(tmp_path / "run")
    assert cli_main(["simulate", str(p), "--models", models,
                     "--out", out]) == EXIT_OK
    man = read_manifest(os.path.join(out, "run.manifest"))
    _, data = read_trajectory_csv(os.path.join(out, "trajectory.csv"))
    h0 = data[0, 1]
    h_end, e_in, d_cum = (float(man[k]) for k in
                          ("H_final_J", "E_in_final_J", "D_cum_final_J"))
    assert e_in > 0.0
    assert abs(h_end + d_cum - e_in - h0) <= 1e-8 * max(h0, e_in)


def test_export_matrices_bad_geometry(tmp_path):
    geo = tmp_path / "bad.geo"
    geo.write_text("rect air 0 10 -10\n", encoding="utf-8")
    assert cli_main(["export-matrices", str(geo),
                     str(tmp_path / "o")]) == EXIT_PARSE


def test_oscillator_command(tmp_path, capsys):
    out = str(tmp_path / "osc")
    code = cli_main(["oscillator", "--mesh-h", "2.5e-3", "--tend", "2e-5",
                     "--out", out])
    assert code == EXIT_OK
    assert os.path.isfile(os.path.join(out, "trajectory.csv"))
    stdout = capsys.readouterr().out
    assert "f_measured_Hz" in stdout


def test_index2_command(tmp_path):
    out = str(tmp_path / "idx")
    code = cli_main(["index2", "--mesh-h", "2.5e-3", "--tend", "2e-5",
                     "--out", out])
    assert code == EXIT_OK
    man = read_manifest(os.path.join(out, "run.manifest"))
    assert man["experiment"] == "index2"


def test_convergence_command(tmp_path, capsys):
    out = str(tmp_path / "conv")
    code = cli_main(["convergence", "--mesh-h", "2.5e-3",
                     "--methods", "implicit_euler,trapezoidal",
                     "--taus", "8e-7,4e-7", "--out", out])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "implicit_euler: slope" in stdout
    assert os.path.isfile(os.path.join(out, "convergence.csv"))


def test_convergence_bad_taus(tmp_path):
    assert cli_main(["convergence", "--taus", "fast,slow",
                     "--out", str(tmp_path / "x")]) == EXIT_PARSE
