"""The scripts the README documents, each run as `__main__` with an output
prefix argument: exit status, the printed summary lines and the files they
write.  They run in the test process; a subprocess would spend most of its
time importing numpy and scipy again."""

import re
import runpy
import sys
from pathlib import Path

import pytest

from fieldcircuit.experiments import EXPECTED_ORDERS, ORDER_BANDS
from fieldcircuit.serialization import read_manifest, read_trajectory_csv

ROOT = Path(__file__).resolve().parents[1]
OUTPUTS = ("trajectory.csv", "run.manifest", "plot.gp")
NUMBER = r"([0-9.e+-]+)"


def run_script(name, out, monkeypatch, capsys):
    script = str(ROOT / "scripts" / name)
    monkeypatch.setattr(sys, "argv", [script, str(out)])
    try:
        runpy.run_path(script, run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    return capsys.readouterr().out.splitlines()


def assert_oscillator_outputs(out_dir):
    for name in OUTPUTS:
        assert (out_dir / name).is_file()
    header, data = read_trajectory_csv(str(out_dir / "trajectory.csv"))
    assert header == ["t", "H", "D_cum", "E_in", "phi", "i"]
    assert data.shape[0] > 1
    assert read_manifest(str(out_dir / "run.manifest"))


def test_run_oscillator(tmp_path, monkeypatch, capsys):
    lines = run_script("run_oscillator.py", tmp_path / "osc", monkeypatch,
                       capsys)
    pattern = re.compile(rf"(\w+): max \|H-H0\|/H0 = {NUMBER}, "
                         rf"f = {NUMBER} Hz$")
    drift = {}
    for line in lines:
        method, value, _ = pattern.match(line).groups()
        drift[method] = float(value)
        assert_oscillator_outputs(tmp_path / f"osc-{method}")
    assert list(drift) == ["trapezoidal", "implicit_euler"]
    # trapezoidal holds the lossless energy, implicit Euler bleeds it
    assert drift["trapezoidal"] <= 1e-12 < 1e-3 <= drift["implicit_euler"]


def test_run_index2(tmp_path, monkeypatch, capsys):
    lines = run_script("run_index2.py", tmp_path / "idx", monkeypatch,
                       capsys)
    pattern = re.compile(rf"(\w+): \|H - \(E_in - D_cum\)\| at t_end = "
                         rf"{NUMBER} J \({NUMBER} of scale\)$")
    defect = {}
    for line in lines:
        method, _, rel = pattern.match(line).groups()
        defect[method] = float(rel)
        assert_oscillator_outputs(tmp_path / f"idx-{method}")
    assert list(defect) == ["trapezoidal", "implicit_euler"]
    assert defect["trapezoidal"] <= 1e-12 < 1e-3 <= defect["implicit_euler"]


def test_run_convergence(tmp_path, monkeypatch, capsys):
    out = tmp_path / "conv"
    lines = run_script("run_convergence.py", out, monkeypatch, capsys)
    pattern = re.compile(rf"(\w+) +slope {NUMBER} \(expected (\d+)\)$")
    slopes = {}
    for line in lines[:-1]:
        method, slope, expected = pattern.match(line).groups()
        slopes[method] = float(slope)
        assert float(expected) == EXPECTED_ORDERS[method]
        assert slopes[method] == pytest.approx(EXPECTED_ORDERS[method],
                                               abs=ORDER_BANDS[method])
    assert set(slopes) == set(EXPECTED_ORDERS)
    assert lines[-1] == f"rows written to {out / 'convergence.csv'}"
    for name in ("convergence.csv", "run.manifest", "plot.gp"):
        assert (out / name).is_file()
    rows = (out / "convergence.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "method,tau,eps_z,eps_H,saturated"
    assert {row.split(",")[0] for row in rows[1:]} == set(slopes)
    manifest = read_manifest(str(out / "run.manifest"))
    for method, slope in slopes.items():
        assert float(manifest[f"slope_{method}"]) == pytest.approx(
            slope, abs=5e-4)
