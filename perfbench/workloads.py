"""The three workloads: what one unit of work is and how its outputs are
checked.

A unit is the smallest piece a run repeats: one pipeline case for
`init-stranded` and `irk-solid`, one pass over every case for
`sweep-small`. Every case goes through the program's public entry points and
checks what the program wrote, read back through `serialization`.

Each case either passes, is refused (the program stopped with an error
where success was expected), or is wrong (it finished, but an output
failed its check, or it accepted what it should have rejected). Refused and
wrong cases both count as failed; only wrong ones make the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fieldcircuit import (cli, conductors, experiments, fem, integrators,
                          serialization, structure)

HERE = Path(__file__).resolve().parent
NETLISTS = HERE / "netlists"


@dataclass(frozen=True)
class CaseResult:
    name: str
    outcome: str  # "ok", "refused" or "wrong"
    detail: str = ""


@dataclass
class UnitResult:
    # (start, end) intervals on the clock of tracing.SimulateClock
    wall: list
    setup: list
    solve: list
    cases: list


def _verdict(name: str, check) -> CaseResult:
    """Check what the program wrote; missing or malformed output is wrong."""
    try:
        problems = check()
    except Exception as exc:  # output missing or malformed
        problems = [f"unreadable output: {exc!r}"]
    if problems:
        return CaseResult(name, "wrong", "; ".join(problems))
    return CaseResult(name, "ok")


def _case(name: str, run, check) -> CaseResult:
    """Run the program, then check its output; an error the program raises
    refuses the case."""
    try:
        run()
    except Exception as exc:  # any error the program raises is a refusal
        return CaseResult(name, "refused", repr(exc))
    return _verdict(name, check)


# ---------------------------------------------------------------------------
# init-stranded: consistent initialization of a large lossless model
# ---------------------------------------------------------------------------

class InitStranded:
    """Lossless stranded oscillator at h = 0.4 mm (4952 states), 1500
    trapezoidal steps of 0.1 µs; most of its time is consistent
    initialization. The frequency check needs at least half a period
    (about 48 µs); 1500 steps give `solve_s` enough work to be steady."""

    CONFIG = experiments.OscillatorConfig(mesh_h=0.4e-3, t_end=150e-6)

    def __init__(self, seed: int, workdir: Path):
        self.out = workdir / "init-stranded"

    def run_unit(self, clock) -> UnitResult:
        clock.begin_unit()
        clock.begin_case()
        case = _case(
            "oscillator-0.4mm",
            lambda: experiments.run_oscillator(self.CONFIG,
                                               out_dir=str(self.out)),
            self._check)
        return UnitResult(*clock.end_unit(), [case])

    def _check(self) -> list:
        header, data = serialization.read_trajectory_csv(
            str(self.out / "trajectory.csv"))
        manifest = serialization.read_manifest(str(self.out / "run.manifest"))
        problems = []
        steps = round(self.CONFIG.t_end / self.CONFIG.tau)
        if data.shape != (steps + 1, len(header)):
            problems.append(f"trajectory has shape {data.shape}")
            return problems
        h = data[:, header.index("H")]
        drift = float(np.max(np.abs(h - h[0])) / abs(h[0]))
        if not drift <= 1e-10:
            problems.append(f"relative energy drift {drift:.3e} > 1e-10")
        omega_pred = float(manifest["omega_predicted_rad_s"])
        omega = experiments.measure_omega(data[:, 0], data[:, header.index("i")])
        if not abs(omega - omega_pred) <= 1e-3 * omega_pred:
            problems.append(f"omega {omega:.6e} vs lumped {omega_pred:.6e}")
        return problems


# ---------------------------------------------------------------------------
# irk-solid: stage solves of three methods on a dissipative model
# ---------------------------------------------------------------------------

class IrkSolid:
    """Solid conductor with a conductive core at h = 0.5 mm (3084 states),
    built once per unit, then 500 steps each of three methods."""

    CONFIG = experiments.OscillatorConfig(conductor_kind="solid",
                                          core_conductive=True, mesh_h=0.5e-3)
    METHODS = ("trapezoidal", "gauss4", "radau5")

    def __init__(self, seed: int, workdir: Path):
        self.out = workdir / "irk-solid"
        self.out.mkdir(parents=True, exist_ok=True)

    def run_unit(self, clock) -> UnitResult:
        cfg = self.CONFIG
        clock.begin_unit()
        clock.begin_case()
        try:
            parts = experiments.build_oscillator(cfg)
        except Exception as exc:  # any error the program raises is a refusal
            cases = [CaseResult(m, "refused", repr(exc)) for m in self.METHODS]
        else:
            cases = [_case(m, lambda m=m: self._simulate(parts, m),
                           lambda m=m: self._check(m))
                     for m in self.METHODS]
        return UnitResult(*clock.end_unit(), cases)

    def _simulate(self, parts, method: str) -> None:
        cfg = self.CONFIG
        traj = integrators.simulate(parts.system, parts.z0, parts.u, cfg.tau,
                                    cfg.t_end, method)
        serialization.write_columns_csv(
            str(self.out / f"energy-{method}.csv"),
            ["t", "H", "D_cum", "E_in"],
            [traj.times, traj.hamiltonians, traj.dissipated_cum,
             traj.supplied_cum])

    def _check(self, method: str) -> list:
        _, data = serialization.read_trajectory_csv(
            str(self.out / f"energy-{method}.csv"))
        h, d_cum, e_in = data[:, 1], data[:, 2], data[:, 3]
        steps = round(self.CONFIG.t_end / self.CONFIG.tau)
        problems = []
        if h.shape != (steps + 1,):
            return [f"energy trace has {h.shape[0]} rows"]
        rise = float(np.max(np.diff(h)))
        if rise > 0.0:
            problems.append(f"H rises by {rise:.3e} in one step")
        if method == "trapezoidal":
            defect = float(np.max(np.abs(h + d_cum - e_in - h[0])) / abs(h[0]))
            if not defect <= 1e-8:
                problems.append(f"relative balance defect {defect:.3e} > 1e-8")
        return problems


# ---------------------------------------------------------------------------
# sweep-small: many small CLI calls
# ---------------------------------------------------------------------------

# foil_second_terminal binds column 1 of a foil model, which exposes a
# single port: a structural error (exit 3) by design. Every other valid
# netlist, dc_block included, is expected to simulate.
EXPECTED_EXIT = {"foil_second_terminal": cli.EXIT_STRUCTURE}

# time grid for valid netlists without a .tran card
DEFAULT_GRID = ("--tau", "1e-5", "--tend", "1e-2")

_TRAN_RE = re.compile(r"^\s*\.tran\b", re.MULTILINE)


@dataclass(frozen=True)
class CliCase:
    name: str
    argv: tuple
    expect: int
    out: Path
    check: object  # callable(case, stdout, stderr) -> list of problems


def write_field_models(models: Path, seed: int) -> None:
    """Model directories named by the valid netlists' field ports, from the
    1 mm oscillator meshes; the foils are drawn by `synth_foil` from `seed`."""
    turns = 10.0
    geo = fem.parse_geometry(
        experiments.oscillator_geometry("stranded", False, turns))
    mesh = geo.mesh(1.0e-3)
    stranded = conductors.stranded_from_mesh(mesh, geo.materials, "coil",
                                             turns=turns)
    free = mesh.free_nodes()
    core_col = fem.reduce_vector(
        fem.assemble_stranded_column(mesh, "core", turns), free)
    two_windings = conductors.StrandedModel(
        stranded.M_sigma, stranded.K_nu,
        np.hstack([structure.to_dense(stranded.X_str), core_col[:, None]]),
        np.zeros((2, 2)))

    geo_s = fem.parse_geometry(
        experiments.oscillator_geometry("solid", True, turns))
    solid = conductors.solid_from_mesh(geo_s.mesh(1.0e-3), geo_s.materials,
                                       "coil")
    foils = [conductors.synth_foil(solid.M_sigma, 1, seed * 3 + k,
                                   k_nu=solid.K_nu) for k in range(3)]
    for name, model in (("coil", stranded), ("ws", stranded),
                        ("xfmr", two_windings), ("bar", solid),
                        ("sol", solid), ("winding", foils[0]),
                        ("hv", foils[1]), ("fl", foils[2])):
        conductors.save_model(model, str(models / name))


class SweepSmall:
    """Every corpus netlist through `fieldcircuit simulate`, then the
    convergence, oscillator and index2 commands with default arguments."""

    def __init__(self, seed: int, workdir: Path):
        self.root = workdir / "sweep-small"
        models = self.root / "models"
        write_field_models(models, seed)
        self.cases = []
        for path in sorted((NETLISTS / "valid").glob("*.cir")):
            out = self.root / "out" / path.stem
            argv = ["simulate", str(path), "--models", str(models),
                    "--out", str(out)]
            if not _TRAN_RE.search(path.read_text(encoding="utf-8")):
                argv += DEFAULT_GRID
            self.cases.append(CliCase(
                path.stem, tuple(argv),
                EXPECTED_EXIT.get(path.stem, cli.EXIT_OK), out,
                _check_simulate))
        for path in sorted((NETLISTS / "invalid").glob("*.cir")):
            out = self.root / "out" / path.stem
            self.cases.append(CliCase(
                path.stem, ("simulate", str(path), "--out", str(out)),
                cli.EXIT_PARSE, out, _check_diagnostics))
        for command, check in (("convergence", _check_convergence),
                               ("oscillator", _check_oscillator),
                               ("index2", _check_index2)):
            out = self.root / "out" / command
            self.cases.append(CliCase(command, (command, "--out", str(out)),
                                      cli.EXIT_OK, out, check))

    def run_unit(self, clock) -> UnitResult:
        clock.begin_unit()
        results = []
        for case in self.cases:
            clock.begin_case()
            results.append(self._run_case(case))
        return UnitResult(*clock.end_unit(), results)

    @staticmethod
    def _run_case(case: CliCase) -> CaseResult:
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.cli_main(list(case.argv))
        except Exception as exc:  # any error the program raises is a refusal
            return CaseResult(case.name, "refused", repr(exc))
        if code != case.expect:
            # an error exit where success was expected is a refusal; any
            # other mismatch is a wrong verdict on the input
            outcome = "refused" if case.expect == cli.EXIT_OK else "wrong"
            return CaseResult(case.name, outcome,
                              f"exit {code}, expected {case.expect}: "
                              f"{stderr.getvalue().strip()[:200]}")
        return _verdict(case.name, lambda: case.check(
            case, stdout.getvalue(), stderr.getvalue()))


def _check_simulate(case: CliCase, stdout: str, stderr: str) -> list:
    if case.expect != cli.EXIT_OK:
        return []
    manifest = serialization.read_manifest(str(case.out / "run.manifest"))
    with open(case.out / "trajectory.csv", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        first = [float(v) for v in fh.readline().split(",")]
    problems = []
    if len(header) < 4 + int(manifest["states"]):
        problems.append(f"trajectory has {len(header)} columns")
    energies = [first[header.index("H")]] + [
        float(manifest[k]) for k in ("H_final_J", "E_in_final_J",
                                     "D_cum_final_J")]
    if not all(math.isfinite(v) for v in energies):
        problems.append("non-finite energy in the outputs")
    return problems


def _check_diagnostics(case: CliCase, stdout: str, stderr: str) -> list:
    """Each `#! expect-error <line> <text>` annotation must match a
    reported `<file>:<line>:` diagnostic containing the text."""
    path = case.argv[1]
    lines = stderr.splitlines()
    problems = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        if not raw.startswith("#! expect-error "):
            continue
        line_no, _, text = raw[len("#! expect-error "):].partition(" ")
        prefix = f"{path}:{line_no}:"
        if not any(ln.startswith(prefix) and text in ln for ln in lines):
            problems.append(f"no diagnostic {prefix} {text!r}")
    if not problems and not lines:
        problems.append("no diagnostics")
    return problems


def _check_convergence(case: CliCase, stdout: str, stderr: str) -> list:
    manifest = serialization.read_manifest(str(case.out / "run.manifest"))
    problems = []
    for method in experiments.CONVERGENCE_METHODS:
        slope = float(manifest[f"slope_{method}"])
        expected = experiments.EXPECTED_ORDERS[method]
        if not abs(slope - expected) <= experiments.ORDER_BANDS[method]:
            problems.append(f"{method} slope {slope:+.3f}, expected "
                            f"{expected:g} ± {experiments.ORDER_BANDS[method]}")
    return problems


def _check_oscillator(case: CliCase, stdout: str, stderr: str) -> list:
    manifest = serialization.read_manifest(str(case.out / "run.manifest"))
    drift = float(manifest["max_rel_energy_drift"])
    omega = float(manifest["omega_measured_rad_s"])
    omega_pred = float(manifest["omega_predicted_rad_s"])
    problems = []
    if not drift <= 1e-10:
        problems.append(f"relative energy drift {drift:.3e} > 1e-10")
    if not abs(omega - omega_pred) <= 1e-3 * omega_pred:
        problems.append(f"omega {omega:.6e} vs lumped {omega_pred:.6e}")
    return problems


def _check_index2(case: CliCase, stdout: str, stderr: str) -> list:
    manifest = serialization.read_manifest(str(case.out / "run.manifest"))
    defect = float(manifest["defect_at_end_rel"])
    if not defect <= 1e-8:
        return [f"relative balance defect at end {defect:.3e} > 1e-8"]
    return []


WORKLOADS = {
    "init-stranded": InitStranded,
    "irk-solid": IrkSolid,
    "sweep-small": SweepSmall,
}
