import hashlib
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from fieldcircuit import cli, experiments, serialization
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


def test_simulate_rc_and_determinism(tmp_path, rc_netlist, sparse_stepper):
    # the sparse path audits H from the full states, so the H column is
    # hamiltonian() of the written states bit for bit
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

    def failing_in_child(columns, lo, hi):
        if os.getpid() != parent:
            raise RuntimeError("formatting failed")
        return blocks(columns, lo, hi)

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


@pytest.mark.parametrize("grid", [[], ["--tau", "3e-6"]],
                         ids=[".tran", "--tau"])
def test_time_grid_is_checked_before_setup(tmp_path, capsys, monkeypatch,
                                           grid):
    # 1e-5 / 3e-6 is no whole number of steps; the model of FW1 does not
    # exist, so loading it would fail with another message
    p = tmp_path / "grid.cir"
    p.write_text("FW1 0 1 stranded missing\nC1 1 0 1u\n"
                 f".tran {'1e-6' if grid else '3e-6'} 1e-5\n",
                 encoding="utf-8")
    called = []
    monkeypatch.setattr(cli, "consistent_init",
                        lambda *args, **kwargs: called.append(args))
    assert cli_main(["simulate", str(p), *grid,
                     "--out", str(tmp_path / "run")]) == EXIT_STRUCTURE
    assert capsys.readouterr().err == (
        "structure error: tau = 3e-06 does not divide the interval of "
        "length 1e-05\n")
    assert called == []


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
    assert "'R.mtx'" in captured.err and str(d) in captured.err
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
    err = capsys.readouterr().err
    assert f"block K_nu: {what}" in err
    # the directory and the file of the broken block are named
    assert "w1" in err and "K_nu.mtx" in err


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


def test_export_matrices_then_validate(tmp_path, capsys):
    # validate reads the model directory export-matrices writes per
    # winding: its energy system passes, and a broken block exits 2
    geo = tmp_path / "g.geo"
    geo.write_text("rect air 0 10 -10 10\n"
                   "rect coil 4 6 -4 4\n"
                   "material coil 1 0\n"
                   "winding coil 10\n", encoding="utf-8")
    out = tmp_path / "mats"
    assert cli_main(["export-matrices", str(geo), str(out),
                     "--mesh-h", "2e-3"]) == EXIT_OK
    capsys.readouterr()
    assert cli_main(["validate", str(out / "coil")]) == EXIT_OK
    assert capsys.readouterr().out.endswith("ok = True\n")
    # the export directory holds models, not a system
    assert cli_main(["validate", str(out)]) == EXIT_PARSE
    assert "lacks a partition file" in capsys.readouterr().err
    (out / "coil" / "K_nu.mtx").write_text("garbage\n", encoding="utf-8")
    assert cli_main(["validate", str(out / "coil")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(out / "coil" / "K_nu.mtx") in err and "Traceback" not in err


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


def _convergence_refused(tmp_path, capsys, monkeypatch, *argv) -> str:
    """stderr of a `convergence` command that argparse refuses with exit
    code 2, before any mesh is built."""
    def fail(*args, **kwargs):
        raise AssertionError("run_convergence called with refused arguments")

    monkeypatch.setattr(experiments, "run_convergence", fail)
    with pytest.raises(SystemExit) as info:
        cli_main(["convergence", *argv, "--out", str(tmp_path / "x")])
    assert info.value.code == EXIT_PARSE
    return capsys.readouterr().err


def test_convergence_bad_taus(tmp_path, capsys, monkeypatch):
    err = _convergence_refused(tmp_path, capsys, monkeypatch,
                               "--taus", "fast,slow")
    assert "argument --taus: cannot parse 'fast,slow'" in err


def test_convergence_unknown_method(tmp_path, capsys, monkeypatch):
    err = _convergence_refused(tmp_path, capsys, monkeypatch,
                               "--methods", "trapezoidal,nosuch")
    assert "argument --methods: unknown method 'nosuch'" in err


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


class _NoReport:
    """What a recorded experiment returns: no summary and no files."""
    files = ()

    def summary_entries(self):
        return {}


def _record_runs(monkeypatch, name):
    """Replace `experiments.<name>` by a recorder of (config, keywords)."""
    calls = []

    def run(cfg, out_dir, **kwargs):
        calls.append((cfg, kwargs))
        return _NoReport()

    monkeypatch.setattr(experiments, name, run)
    return calls


def test_back_to_back_calls_share_no_state(monkeypatch, tmp_path, capsys):
    # one parser serves every call; what one call is given, of any
    # subcommand, the next call does not see
    assert _build_parser() is _build_parser()
    osc = _record_runs(monkeypatch, "run_oscillator")
    idx = _record_runs(monkeypatch, "run_index2")
    rc = tmp_path / "rc.cir"
    rc.write_text("V1 1 0 DC 1\nR1 1 2 2\nC1 2 0 3\n.tran 0.05 1\n",
                  encoding="utf-8")
    for argv in (["oscillator", "--tau", "3e-7", "--mesh-h", "2e-3",
                  "--conductive-core"],
                 ["simulate", str(rc), "--tau", "0.1", "--method", "bdf2",
                  "--out", str(tmp_path / "given")],
                 ["index2", "--amplitude", "2"],
                 ["simulate", str(rc), "--out", str(tmp_path / "default")],
                 ["oscillator"], ["index2"]):
        assert cli_main(argv) == EXIT_OK
    assert osc == [(experiments.OscillatorConfig(
        tau=3e-7, mesh_h=2e-3, core_conductive=True), {}),
        (experiments.OscillatorConfig(), {})]
    assert idx == [(experiments.OscillatorConfig(), {"amplitude": 2.0}),
                   (experiments.OscillatorConfig(), {})]
    given = read_manifest(str(tmp_path / "given" / "run.manifest"))
    default = read_manifest(str(tmp_path / "default" / "run.manifest"))
    assert (given["method"], float(given["tau_s"])) == ("bdf2", 0.1)
    assert (default["method"], float(default["tau_s"])) == ("trapezoidal",
                                                            0.05)


def test_finite_options_keep_their_values(monkeypatch):
    osc = _record_runs(monkeypatch, "run_oscillator")
    idx = _record_runs(monkeypatch, "run_index2")
    assert cli_main(["oscillator", "--v0", "-2", "--i0", "0", "--tau", "1e-7",
                     "--kind", "solid", "--conductive-core", "--tend", "2e-5",
                     "--mesh-h", "2e-3"]) == EXIT_OK
    assert osc == [(experiments.OscillatorConfig(
        conductor_kind="solid", core_conductive=True, v0=-2.0, i0=0.0,
        tau=1e-7, t_end=2e-5, mesh_h=2e-3), {})]
    assert cli_main(["index2", "--freq", "1e4", "--amplitude", "-2",
                     "--tend", "2e-5", "--mesh-h", "2e-3"]) == EXIT_OK
    assert idx == [(experiments.OscillatorConfig(t_end=2e-5, mesh_h=2e-3),
                    {"amplitude": -2.0, "freq_hz": 1e4})]


def test_experiment_defaults_are_the_experiments_own(monkeypatch):
    # an option not given is not passed on, so OscillatorConfig and
    # run_index2 are the one source of every default
    parser = _build_parser()
    for command in ("oscillator", "index2"):
        assert vars(parser.parse_args([command])) == {"command": command,
                                                      "out": None}
    osc = _record_runs(monkeypatch, "run_oscillator")
    idx = _record_runs(monkeypatch, "run_index2")
    assert cli_main(["oscillator"]) == cli_main(["index2"]) == EXIT_OK
    assert osc == idx == [(experiments.OscillatorConfig(), {})]
    conv = parser.parse_args(["convergence"])
    assert conv.mesh_h == experiments.OscillatorConfig().mesh_h
    assert conv.tend == experiments.CONVERGENCE_T_END


@pytest.mark.parametrize("argv,tau,length", [
    (["oscillator", "--tau", "3e-6", "--tend", "1e-5"], "3e-06", "1e-05"),
    (["index2", "--tau", "3e-6", "--tend", "1e-5"], "3e-06", "1e-05"),
    # 8e-7 divides the default 1.2e-5, and is checked first
    (["convergence", "--taus", "8e-7,7e-7"], "7e-07", "1.2e-05"),
], ids=["oscillator", "index2", "convergence"])
def test_experiment_time_grid_is_checked_before_setup(tmp_path, capsys,
                                                      monkeypatch, argv, tau,
                                                      length):
    def fail(*args, **kwargs):
        raise AssertionError("build_oscillator called before the time "
                             "grid was checked")

    monkeypatch.setattr(experiments, "build_oscillator", fail)
    assert cli_main([*argv, "--out", str(tmp_path / "run")]) == EXIT_STRUCTURE
    assert capsys.readouterr().err == (
        f"structure error: tau = {tau} does not divide the interval of "
        f"length {length}\n")


def test_solid_initial_current_is_refused_before_setup(tmp_path, capsys,
                                                       monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("build_oscillator called with a refused "
                             "configuration")

    monkeypatch.setattr(experiments, "build_oscillator", fail)
    assert cli_main(["oscillator", "--kind", "solid", "--i0", "1",
                     "--out", str(tmp_path / "run")]) == EXIT_STRUCTURE
    assert capsys.readouterr().err == (
        "structure error: nonzero initial winding current is only supported "
        "for the stranded oscillator\n")


README =Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_commands_parse():
    # every `fieldcircuit` line of the shell blocks of the CLI section
    # parses, and together they use every subcommand
    section = README.read_text(encoding="utf-8").split("\n## CLI\n")[1]
    blocks = re.findall(r"```sh\n(.*?)```", section.split("\n## ")[0],
                        flags=re.S)
    commands = [shlex.split(line)[1:] for block in blocks
                for line in block.splitlines()
                if line.startswith("fieldcircuit ")]
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: fieldcircuit "
                        f"{shlex.join(argv)}")


@pytest.mark.parametrize("taus", ["8e-7,nan", "8e-7,inf", "8e-7,0"])
def test_convergence_non_finite_taus(tmp_path, capsys, monkeypatch, taus):
    err = _convergence_refused(tmp_path, capsys, monkeypatch, "--taus", taus)
    assert "argument --taus: expected a finite positive number" in err


@pytest.mark.parametrize("methods", ["", ",", " , ,"])
def test_convergence_empty_method_list(tmp_path, capsys, monkeypatch,
                                       methods):
    err = _convergence_refused(tmp_path, capsys, monkeypatch,
                               "--methods", methods)
    assert "argument --methods: names no method" in err


@pytest.mark.parametrize("taus", ["", " , ", "8e-7"])
def test_convergence_fewer_than_two_taus(tmp_path, capsys, monkeypatch,
                                         taus):
    err = _convergence_refused(tmp_path, capsys, monkeypatch, "--taus", taus)
    assert "argument --taus: " in err and "at least two" in err
