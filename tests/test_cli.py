import hashlib
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from fieldcircuit import experiments, serialization
from fieldcircuit.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE,
                              EXIT_STRUCTURE, _build_parser, cli_main)
from fieldcircuit.conductors import (SolidModel, StrandedModel, save_model,
                                     synth_foil)
from fieldcircuit.mna import build_incidence, mna_system, parse_netlist
from fieldcircuit.serialization import (read_manifest, read_matrix,
                                        read_trajectory_csv, save_system,
                                        write_matrix)
from fieldcircuit.structure import hamiltonian
from tests.conftest import (force_csv_slices, needs_fork,
                            random_energy_system)


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


# the corpus netlists with field ports, and the exit each must give
FIELD_PORT_NETLISTS = {"foil_port": EXIT_OK, "mixed_ports": EXIT_OK,
                       "solid_port": EXIT_OK, "stranded_port": EXIT_OK,
                       "transformer_columns": EXIT_OK,
                       "foil_second_terminal": EXIT_STRUCTURE}
VALID_NETLISTS = Path(__file__).resolve().parent / "netlists" / "valid"


@pytest.fixture(scope="module")
def port_models(tmp_path_factory):
    """One 4-dof model directory per model name of the field-port netlists."""
    rng = np.random.default_rng(7)

    def spd(n):
        g = rng.standard_normal((n, n))
        return g @ g.T + 0.1 * np.eye(n)

    k_nu, m_sig = spd(4), spd(4)
    # conductive on two of the four dofs, as an FE conductivity mass is
    m_part = np.zeros((4, 4))
    m_part[:2, :2] = spd(2)
    chi = rng.standard_normal((4, 1))
    stranded = StrandedModel(np.zeros((4, 4)), k_nu,
                             rng.standard_normal((4, 1)), np.array([[0.1]]))
    two_windings = StrandedModel(np.zeros((4, 4)), k_nu,
                                 rng.standard_normal((4, 2)), np.zeros((2, 2)))
    solid = SolidModel(m_sig, k_nu, chi, chi.T @ m_sig @ chi)
    foils = [synth_foil(m_part, 1, seed, k_nu=k_nu) for seed in range(3)]
    models = tmp_path_factory.mktemp("models")
    for name, model in (("coil", stranded), ("ws", stranded),
                        ("xfmr", two_windings), ("bar", solid),
                        ("sol", solid), ("winding", foils[0]),
                        ("hv", foils[1]), ("fl", foils[2])):
        save_model(model, str(models / name))
    return models


@pytest.mark.parametrize("name", sorted(FIELD_PORT_NETLISTS))
def test_simulate_field_port_corpus(tmp_path, port_models, name):
    out = str(tmp_path / "run")
    code = cli_main(["simulate", str(VALID_NETLISTS / f"{name}.cir"),
                     "--models", str(port_models), "--out", out])
    assert code == FIELD_PORT_NETLISTS[name]
    if code == EXIT_OK:
        man = read_manifest(os.path.join(out, "run.manifest"))
        for key in ("H_final_J", "E_in_final_J", "D_cum_final_J"):
            assert np.isfinite(float(man[key])), key


@needs_fork
def test_simulate_split_trajectory_is_byte_identical(tmp_path, port_models,
                                                     monkeypatch):
    argv = ["simulate", str(VALID_NETLISTS / "mixed_ports.cir"),
            "--models", str(port_models), "--out"]
    written = {}
    for slices in (1, 3):
        forks = force_csv_slices(monkeypatch, slices)
        out = tmp_path / f"run{slices}"
        assert cli_main([*argv, str(out)]) == EXIT_OK
        assert len(forks) == slices - 1
        assert sorted(os.listdir(out)) == ["run.manifest", "trajectory.csv"]
        written[slices] = (out / "trajectory.csv").read_bytes()
    assert written[3] == written[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_simulate_failed_slice_process_exits_2(tmp_path, port_models,
                                               monkeypatch, capsys):
    force_csv_slices(monkeypatch, 2)
    parent, blocks = os.getpid(), serialization._csv_blocks

    def failing_in_child(row, columns, lo, hi):
        if os.getpid() != parent:
            raise RuntimeError("formatting failed")
        return blocks(row, columns, lo, hi)

    monkeypatch.setattr(serialization, "_csv_blocks", failing_in_child)
    out = tmp_path / "run"
    assert cli_main(["simulate", str(VALID_NETLISTS / "mixed_ports.cir"),
                     "--models", str(port_models),
                     "--out", str(out)]) == EXIT_PARSE
    assert "trajectory.csv: writing rows" in capsys.readouterr().err
    assert os.listdir(out) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [7, 8, 9, 10, 11])
def test_rank_deficient_foil_conductivity_is_refused(tmp_path, capsys, seed):
    # g gᵀ with g of shape 4 x 2 is PSD of rank 2 with a full diagonal, so
    # the pivot block of the initialization is singular; the LU of seeds 8,
    # 10 and 11 finds no exact zero pivot, and the pivot ratio must catch it
    rng = np.random.default_rng(seed)

    def spd(n):
        g = rng.standard_normal((n, n))
        return g @ g.T + 0.1 * np.eye(n)

    k_nu, _ = spd(4), spd(4)
    g = rng.standard_normal((4, 2))
    models = tmp_path / "models"
    for name in ("winding", "hv", "fl"):
        save_model(synth_foil(g @ g.T, 1, 0, k_nu=k_nu), str(models / name))
    code = cli_main(["simulate", str(VALID_NETLISTS / "foil_port.cir"),
                     "--models", str(models), "--out", str(tmp_path / "run")])
    assert code == EXIT_NUMERICAL
    assert "singular gradient-state pivot block" in capsys.readouterr().err


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


def test_validate_malformed_matrix(tmp_path, rng, capsys):
    d = tmp_path / "sys"
    save_system(random_energy_system(rng), str(d))
    (d / "R.mtx").write_text("garbage\n", encoding="utf-8")
    assert cli_main(["validate", str(d)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(d / "R.mtx") in err and "Traceback" not in err


def test_simulate_malformed_model_matrix(tmp_path, rng, capsys):
    g = rng.standard_normal((2, 2))
    model = StrandedModel(np.zeros((2, 2)), g @ g.T + 0.1 * np.eye(2),
                          rng.standard_normal((2, 1)), np.zeros((1, 1)))
    lib = tmp_path / "library"
    save_model(model, str(lib / "w1"))
    (lib / "w1" / "K_nu.mtx").write_text("garbage\n", encoding="utf-8")
    p = tmp_path / "c.cir"
    p.write_text("FW1 0 1 stranded w1\nC1 1 0 1u\n.tran 1e-6 5e-5\n",
                 encoding="utf-8")
    assert cli_main(["simulate", str(p), "--models", str(lib),
                     "--out", str(tmp_path / "run")]) == EXIT_STRUCTURE
    assert str(lib / "w1" / "K_nu.mtx") in capsys.readouterr().err


def _write_with_entry(path, mat, bad):
    """Write mat to a MatrixMarket file with its (0, 0) entry set to bad."""
    dense = mat.toarray().astype(np.result_type(float, type(bad)))
    dense[0, 0] = bad
    scipy.io.mmwrite(str(path), sp.coo_matrix(dense))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0 + 2.0j])
def test_validate_refuses_complex_and_non_finite_matrix(tmp_path, rng,
                                                        capsys, bad):
    d = tmp_path / "sys"
    system = random_energy_system(rng)
    save_system(system, str(d))
    _write_with_entry(d / "R.mtx", system.R, bad)
    assert cli_main(["validate", str(d)]) == EXIT_PARSE
    captured = capsys.readouterr()
    what = "complex" if isinstance(bad, complex) else "non-finite"
    assert f"block R: {what}" in captured.err
    assert "Traceback" not in captured.err and "min eig" not in captured.out


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0 + 2.0j])
def test_simulate_refuses_complex_and_non_finite_model_matrix(tmp_path, rng,
                                                              capsys, bad):
    g = rng.standard_normal((2, 2))
    model = StrandedModel(np.zeros((2, 2)), g @ g.T + 0.1 * np.eye(2),
                          rng.standard_normal((2, 1)), np.zeros((1, 1)))
    lib = tmp_path / "library"
    save_model(model, str(lib / "w1"))
    _write_with_entry(lib / "w1" / "K_nu.mtx", model.K_nu, bad)
    p = tmp_path / "c.cir"
    p.write_text("FW1 0 1 stranded w1\nC1 1 0 1u\n.tran 1e-6 5e-5\n",
                 encoding="utf-8")
    assert cli_main(["simulate", str(p), "--models", str(lib),
                     "--out", str(tmp_path / "run")]) == EXIT_STRUCTURE
    what = "complex" if isinstance(bad, complex) else "non-finite"
    assert f"block K_nu: {what}" in capsys.readouterr().err


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


def test_index2_summary_names_the_simulated_source(tmp_path, capsys):
    out = str(tmp_path / "idx")
    code = cli_main(["index2", "--mesh-h", "2.5e-3", "--tend", "2e-6",
                     "--amplitude", "2", "--freq", "10e3", "--out", out])
    assert code == EXIT_OK
    source = "SIN 0 2.0 10000.0 (parallel voltage source)"
    assert read_manifest(os.path.join(out, "run.manifest"))["source"] == source
    assert source in capsys.readouterr().out


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


def test_convergence_unknown_method(tmp_path, capsys, monkeypatch):
    # the tags are checked before any mesh is built
    def fail(*args, **kwargs):
        raise AssertionError("run_convergence called with an unknown tag")

    monkeypatch.setattr(experiments, "run_convergence", fail)
    assert cli_main(["convergence", "--methods", "trapezoidal,nosuch",
                     "--out", str(tmp_path / "x")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown method 'nosuch'" in err


@pytest.mark.parametrize("argv,option", [
    (["simulate", "c.cir", "--tau", "nan"], "--tau"),
    (["simulate", "c.cir", "--tend", "inf"], "--tend"),
    (["simulate", "c.cir", "--tau=-1e-6"], "--tau"),
    (["oscillator", "--mesh-h", "nan"], "--mesh-h"),
    (["oscillator", "--tau", "nan"], "--tau"),
    (["oscillator", "--turns", "0"], "--turns"),
    (["oscillator", "--v0=-inf"], "--v0"),
    (["index2", "--tend", "nan"], "--tend"),
    (["index2", "--amplitude", "nan"], "--amplitude"),
    (["convergence", "--tend", "inf"], "--tend"),
    (["export-matrices", "g.geo", "out", "--mesh-h", "-1"], "--mesh-h"),
])
def test_out_of_range_float_options_are_refused(argv, option, capsys):
    # refused while parsing, so nothing is read, meshed or stepped
    with pytest.raises(SystemExit) as info:
        cli_main(argv)
    assert info.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"argument {option}: expected a finite" in err
    assert "Traceback" not in err


def test_finite_options_keep_their_values():
    args = _build_parser().parse_args(["oscillator", "--v0", "-2",
                                       "--i0", "0", "--tau", "1e-7"])
    assert (args.v0, args.i0, args.tau) == (-2.0, 0.0, 1e-7)


def _no_convergence_run(*args, **kwargs):
    raise AssertionError("run_convergence called with refused arguments")


@pytest.mark.parametrize("taus", ["8e-7,nan", "8e-7,inf", "8e-7,0"])
def test_convergence_non_finite_taus(tmp_path, capsys, monkeypatch, taus):
    monkeypatch.setattr(experiments, "run_convergence", _no_convergence_run)
    assert cli_main(["convergence", "--taus", taus,
                     "--out", str(tmp_path / "x")]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: cannot parse --taus")


@pytest.mark.parametrize("methods", ["", ",", " , ,"])
def test_convergence_empty_method_list(tmp_path, capsys, monkeypatch,
                                       methods):
    # refused before any mesh is built
    monkeypatch.setattr(experiments, "run_convergence", _no_convergence_run)
    assert cli_main(["convergence", "--methods", methods,
                     "--out", str(tmp_path / "x")]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("taus", ["", " , ", "8e-7"])
def test_convergence_fewer_than_two_taus(tmp_path, capsys, monkeypatch,
                                         taus):
    # refused before any mesh is built
    monkeypatch.setattr(experiments, "run_convergence", _no_convergence_run)
    assert cli_main(["convergence", "--taus", taus,
                     "--out", str(tmp_path / "x")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: --taus") and "at least two" in err
