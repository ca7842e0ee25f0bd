"""Reference experiments: LC oscillator with a field-model inductor, the
index-2 variant with a parallel voltage source, and the step-size
convergence study.

Everything here goes through the public construction path (geometry text ->
mesh -> conductor model -> netlist -> coupled system) so the experiments
double as end-to-end fixtures for the acceptance suite.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from fieldcircuit import conductors, coupling, fem, mna, serialization
from fieldcircuit._audit import error_measures
from fieldcircuit._stepping import method_from_tag
from fieldcircuit.integrators import (Trajectory, consistent_init, simulate,
                                      step_count)
from fieldcircuit.structure import StructureError, to_dense

SIGMA_CORE_CONDUCTIVE = 100.0       # S/m
SIGMA_SOLID = 58.0e6                # S/m, solid winding material
CORE_MU_R = 100.0

# rectangles in mm: whole domain, iron core on the axis, winding beside it
_GEOMETRY_TEMPLATE = """\
rect air   0 20 -20 20
rect core  0  5 -10 10
rect coil  7 10  -8  8
material air  1   0
material core {mu_core} {sigma_core}
material coil 1   {sigma_coil}
winding coil {turns}
"""


def oscillator_geometry(conductor_kind: str, core_conductive: bool,
                        turns: float) -> str:
    sigma_coil = SIGMA_SOLID if conductor_kind == "solid" else 0.0
    return _GEOMETRY_TEMPLATE.format(
        mu_core=CORE_MU_R,
        sigma_core=SIGMA_CORE_CONDUCTIVE if core_conductive else 0.0,
        sigma_coil=sigma_coil,
        turns=turns)


@dataclass(frozen=True)
class OscillatorConfig:
    conductor_kind: str = "stranded"
    core_conductive: bool = False
    capacitance: float = 100e-6
    v0: float = 1.0
    i0: float = 0.0
    tau: float = 0.1e-6
    t_end: float = 50e-6
    method: str = "trapezoidal"
    mesh_h: float = 1.0e-3
    turns: float = 10.0

    def __post_init__(self):
        if self.conductor_kind not in ("stranded", "solid"):
            raise StructureError(
                f"conductor_kind must be stranded or solid, "
                f"got {self.conductor_kind!r}")
        for name in ("capacitance", "tau", "t_end", "mesh_h", "turns"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise StructureError(f"{name} must be positive and finite")
        if self.i0 != 0.0 and self.conductor_kind != "stranded":
            raise StructureError(
                "nonzero initial winding current is only supported for the "
                "stranded oscillator")
        method_from_tag(self.method)


def analytic_reference(lumped_l: float, capacitance: float, v0: float,
                       i0: float, t) -> tuple:
    """Closed-form LC response: node potential, winding current, energy.

    phi(t) = v0 cos(wt) + (i0/(Cw)) sin(wt),
    i(t)   = i0 cos(wt) - (v0/(Lw)) sin(wt),  w = 1/sqrt(LC).
    """
    if lumped_l <= 0 or capacitance <= 0:
        raise StructureError("analytic_reference requires positive L and C")
    w = 1.0 / math.sqrt(lumped_l * capacitance)
    wt = w * np.asarray(t, dtype=np.float64)
    phi = v0 * np.cos(wt) + (i0 / (capacitance * w)) * np.sin(wt)
    cur = i0 * np.cos(wt) - (v0 / (lumped_l * w)) * np.sin(wt)
    h0 = 0.5 * capacitance * v0 ** 2 + 0.5 * lumped_l * i0 ** 2
    return phi, cur, h0


@dataclass(frozen=True)
class OscillatorParts:
    """Everything needed to run and interrogate one oscillator setup."""
    config: OscillatorConfig
    mesh: fem.Mesh
    model: object
    netlist: mna.Netlist
    incidence: mna.IncidenceSet
    circuit: object
    conductor_systems: tuple
    binding: coupling.PortBinding
    system: object
    layout: coupling.CouplingLayout
    u: object
    z0: np.ndarray
    lumped_l: float
    phi_index: int
    current_index: int

    @property
    def written_columns(self) -> np.ndarray:
        """The state columns the experiments read and write: the node
        potential φ, then the winding current i."""
        return np.array([self.phi_index, self.current_index])


def _oscillator_netlist_text(cfg: OscillatorConfig, extra_cards=()) -> str:
    # winding branch oriented ground -> node so the positive branch current
    # matches the closed-form reference orientation
    kind_prefix = {"stranded": "FW1 0 1 stranded coil",
                   "solid": "FS1 0 1 solid coil"}
    lines = [f"C1 1 0 {mna.format_value(cfg.capacitance)}",
             kind_prefix[cfg.conductor_kind]]
    lines.extend(extra_cards)
    lines.append(f".tran {mna.format_value(cfg.tau)} "
                 f"{mna.format_value(cfg.t_end)}")
    lines.append(f".method {cfg.method}")
    return "\n".join(lines) + "\n"


def build_oscillator(cfg: OscillatorConfig, extra_cards=()) -> OscillatorParts:
    geo = fem.parse_geometry(
        oscillator_geometry(cfg.conductor_kind, cfg.core_conductive, cfg.turns),
        origin="<oscillator>")
    mesh = geo.mesh(cfg.mesh_h)
    if cfg.conductor_kind == "stranded":
        model = conductors.stranded_from_mesh(mesh, geo.materials, "coil",
                                              turns=cfg.turns)
        x_col = model.X_str
    else:
        model = conductors.solid_from_mesh(mesh, geo.materials, "coil")
        x_col = model.M_sigma @ to_dense(model.X_sol)
    lumped_l, static_field = fem.lumped_inductance(model.K_nu, x_col)

    nl = mna.parse_netlist(_oscillator_netlist_text(cfg, extra_cards),
                           origin="<oscillator>")
    inc = mna.build_incidence(nl)
    circuit = mna.mna_system(inc)
    models, systems, binding = coupling.bind_circuit(inc, {"coil": model})
    system = coupling.couple(circuit, systems, binding)
    layout = coupling.CouplingLayout.build(circuit, systems)
    u = coupling.coupled_input_stack(binding, nl, inc)

    p = system.partition
    labels = system.state_labels
    phi_index = labels.index("phi_1")
    if cfg.conductor_kind == "stranded":
        current_index = labels.index("i_str0")
    else:
        current_index = labels.index("jV_FS1")

    diff_vals = np.zeros(p.n)
    diff_vals[phi_index] = cfg.v0
    if cfg.i0 != 0.0:
        # static field of the winding at current i0 seeds the a-dofs (the
        # stranded kind only: `OscillatorConfig` refuses i0 on the solid)
        diff_vals[layout.field_slices[0]] = cfg.i0 * static_field
    z0 = consistent_init(system, diff_vals, u)
    return OscillatorParts(cfg, mesh, model, nl, inc, circuit, tuple(systems),
                           binding, system, layout, u, z0, lumped_l,
                           phi_index, current_index)


def measure_omega(times: np.ndarray, signal: np.ndarray) -> float:
    """Angular frequency from the zero crossings of an oscillating trace.

    Crossing instants are interpolated linearly and fitted against their
    index: consecutive crossings of a sinusoid are pi/omega apart.
    """
    times = np.asarray(times, dtype=np.float64)
    signal = np.asarray(signal, dtype=np.float64)
    crossings = []
    for k in range(signal.size - 1):
        s0, s1 = signal[k], signal[k + 1]
        if s0 == 0.0:
            if not crossings or crossings[-1] != times[k]:
                crossings.append(times[k])
        elif s0 * s1 < 0.0:
            frac = s0 / (s0 - s1)
            crossings.append(times[k] + frac * (times[k + 1] - times[k]))
    if signal[-1] == 0.0:
        crossings.append(times[-1])
    if len(crossings) < 2:
        raise StructureError(
            f"need at least two zero crossings to measure a frequency, "
            f"found {len(crossings)}")
    c = np.asarray(crossings)
    k = np.arange(c.size, dtype=np.float64)
    slope = float(np.sum((k - k.mean()) * (c - c.mean()))
                  / np.sum((k - k.mean()) ** 2))
    return math.pi / slope


@dataclass(frozen=True)
class OscillatorReport:
    parts: OscillatorParts
    trajectory: Trajectory
    lossless: bool
    max_rel_energy_drift: float
    max_rel_balance_defect: float
    omega_measured: float
    omega_predicted: float
    files: tuple = ()

    def summary_entries(self) -> dict:
        cfg = self.parts.config
        return {
            "experiment": "oscillator",
            "conductor_kind": cfg.conductor_kind,
            "core_conductive": cfg.core_conductive,
            "capacitance_F": cfg.capacitance,
            "v0_V": cfg.v0,
            "i0_A": cfg.i0,
            "tau_s": cfg.tau,
            "t_end_s": cfg.t_end,
            "method": cfg.method,
            "mesh_h_m": cfg.mesh_h,
            "turns": cfg.turns,
            "free_dofs": self.parts.model.K_nu.shape[0],
            "lumped_inductance_H": self.parts.lumped_l,
            "lossless": self.lossless,
            "max_rel_energy_drift": self.max_rel_energy_drift,
            "max_rel_balance_defect": self.max_rel_balance_defect,
            "omega_measured_rad_s": self.omega_measured,
            "omega_predicted_rad_s": self.omega_predicted,
            "f_measured_Hz": self.omega_measured / (2 * math.pi),
            "f_predicted_Hz": self.omega_predicted / (2 * math.pi),
            "stepping_path": self.trajectory.stepping_path,
            "differential_coordinates":
                self.trajectory.differential_coordinates,
        }


_OSC_PLOT = """\
set datafile separator ','
set key autotitle columnhead
set xlabel 't / s'
set ylabel 'energy / J'
plot 'trajectory.csv' using 1:2 with lines title 'H', \\
     'trajectory.csv' using 1:($2+$3) with lines title 'H + D_cum'
pause -1
"""


def run_oscillator(cfg: OscillatorConfig, out_dir: str = None,
                   parts: OscillatorParts = None) -> OscillatorReport:
    step_count(cfg.tau, cfg.t_end)  # the time grid is checked before set-up
    if parts is None:
        parts = build_oscillator(cfg)
    traj = simulate(parts.system, parts.z0, parts.u, cfg.tau, cfg.t_end,
                    cfg.method, keep=parts.written_columns)
    h = traj.hamiltonians
    h0 = h[0]
    drift = float(np.max(np.abs(h - h0)) / abs(h0)) if h0 else float("nan")
    balance = float(np.max(np.abs(h + traj.dissipated_cum
                                  - traj.supplied_cum - h0)) / abs(h0)) \
        if h0 else float("nan")
    lossless = not cfg.core_conductive and cfg.conductor_kind == "stranded"
    omega_pred = 1.0 / math.sqrt(parts.lumped_l * cfg.capacitance)
    current = traj.states[:, 1]  # the kept columns are φ, i
    try:
        omega_meas = measure_omega(traj.times, current)
    except StructureError:
        omega_meas = float("nan")

    report = OscillatorReport(parts, traj, lossless, drift, balance,
                              omega_meas, omega_pred)
    if out_dir is not None:
        report = replace(report,
                         files=_write_oscillator_outputs(report, out_dir))
    return report


def _write_oscillator_outputs(report, out_dir: str) -> tuple:
    """trajectory.csv, run.manifest and plot.gp of an oscillator or index-2
    report, whose trajectory keeps φ and i (`written_columns`); returns
    their paths."""
    os.makedirs(out_dir, exist_ok=True)
    traj = report.trajectory
    csv_path = os.path.join(out_dir, "trajectory.csv")
    serialization.write_columns_csv(
        csv_path, ["t", "H", "D_cum", "E_in", "phi", "i"],
        [traj.times, traj.hamiltonians, traj.dissipated_cum,
         traj.supplied_cum, *traj.states.T])
    man_path = os.path.join(out_dir, "run.manifest")
    serialization.write_manifest(man_path, report.summary_entries())
    gp_path = os.path.join(out_dir, "plot.gp")
    serialization.write_text_atomic(gp_path, _OSC_PLOT)
    return (csv_path, man_path, gp_path)


# ---------------------------------------------------------------------------
# index-2 variant: voltage source in parallel with the capacitor branch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Index2Report:
    parts: OscillatorParts
    trajectory: Trajectory
    defect_at_end: float
    max_defect: float
    scale: float
    source: str
    files: tuple = ()

    def summary_entries(self) -> dict:
        cfg = self.parts.config
        return {
            "experiment": "index2",
            "source": f"{self.source} (parallel voltage source)",
            "tau_s": cfg.tau,
            "t_end_s": cfg.t_end,
            "method": cfg.method,
            "mesh_h_m": cfg.mesh_h,
            "free_dofs": self.parts.model.K_nu.shape[0],
            "defect_at_end_J": self.defect_at_end,
            "max_defect_J": self.max_defect,
            "energy_scale_J": self.scale,
            "defect_at_end_rel": self.defect_at_end / self.scale,
            "stepping_path": self.trajectory.stepping_path,
            "differential_coordinates":
                self.trajectory.differential_coordinates,
        }


def run_index2(cfg: OscillatorConfig = OscillatorConfig(),
               out_dir: str = None, amplitude: float = 1.0,
               freq_hz: float = 50e3) -> Index2Report:
    """Sinusoidal voltage source forcing the capacitor node: index-2 DAE.

    Tracks the defect |H - (E_in - D_cum)|; starts from rest (v0 = 0).
    """
    step_count(cfg.tau, cfg.t_end)  # the time grid is checked before set-up
    if cfg.conductor_kind != "stranded" or cfg.core_conductive:
        raise StructureError(
            "the index-2 experiment uses the stranded oscillator with a "
            "nonconducting core")
    cfg = replace(cfg, v0=0.0, i0=0.0)
    source = (f"SIN 0 {mna.format_value(amplitude)} "
              f"{mna.format_value(freq_hz)}")
    parts = build_oscillator(cfg, extra_cards=(f"V1 1 0 {source}",))
    traj = simulate(parts.system, parts.z0, parts.u, cfg.tau, cfg.t_end,
                    cfg.method, keep=parts.written_columns)
    h = traj.hamiltonians
    defect = np.abs(h - h[0] - (traj.supplied_cum - traj.dissipated_cum))
    scale = float(max(np.max(np.abs(h)), np.max(np.abs(traj.supplied_cum)),
                      1e-300))
    report = Index2Report(parts, traj, float(defect[-1]), float(defect.max()),
                          scale, source)
    if out_dir is not None:
        report = replace(report,
                         files=_write_oscillator_outputs(report, out_dir))
    return report


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

CONVERGENCE_TAUS = (0.8e-6, 0.4e-6, 0.2e-6, 0.1e-6, 0.05e-6)
CONVERGENCE_METHODS = ("implicit_euler", "trapezoidal", "bdf2", "gauss4",
                       "radau5")
# short window keeps the first-order method out of error saturation
CONVERGENCE_T_END = 12e-6

EXPECTED_ORDERS = {"implicit_euler": 1.0, "trapezoidal": 2.0, "bdf2": 2.0,
                   "gauss4": 4.0, "radau5": 5.0}
ORDER_BANDS = {"implicit_euler": 0.25, "trapezoidal": 0.25, "bdf2": 0.25,
               "gauss4": 0.7, "radau5": 0.7}

SATURATION_FACTOR = 1e3   # points with eps_z below this multiple of
                          # machine epsilon times the state scale are
                          # dropped from the slope fit


@dataclass(frozen=True)
class ConvergenceRow:
    method: str
    tau: float
    eps_z: float
    eps_h: float
    saturated: bool


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple
    slopes: dict
    state_scale: float
    t_end: float
    files: tuple = ()

    def rows_for(self, method: str):
        return [r for r in self.rows if r.method == method]


def fit_order(taus, eps, saturated=None) -> float:
    """Least-squares slope of log eps against log tau."""
    taus = np.asarray(taus, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    keep = np.ones(taus.size, dtype=bool) if saturated is None \
        else ~np.asarray(saturated, dtype=bool)
    if keep.sum() < 2:
        raise StructureError("fewer than two pre-saturation points; "
                             "cannot fit a convergence order")
    lt, le = np.log(taus[keep]), np.log(eps[keep])
    return float(np.sum((lt - lt.mean()) * (le - le.mean()))
                 / np.sum((lt - lt.mean()) ** 2))


_CONV_PLOT = """\
set datafile separator ','
set key autotitle columnhead
set logscale xy
set xlabel 'tau / s'
set ylabel 'eps_z'
plot for [m in "{methods}"] 'convergence.csv' \\
    using (strcol(1) eq m ? $2 : NaN):3 with linespoints title m
pause -1
"""


def run_convergence(methods=CONVERGENCE_METHODS, taus=CONVERGENCE_TAUS,
                    cfg: OscillatorConfig = OscillatorConfig(),
                    t_end: float = CONVERGENCE_T_END,
                    out_dir: str = None) -> ConvergenceTable:
    """eps_z / eps_H of the lossless oscillator against the closed form.

    eps_z is measured on the circuit-level states (node potential and
    winding current); the analytic reference uses the mesh-consistent
    lumped inductance, so discretization error in space cancels.
    """
    for tau in taus:  # every time grid is checked before set-up
        step_count(tau, t_end)
    if cfg.conductor_kind != "stranded" or cfg.core_conductive:
        raise StructureError("the convergence study runs on the lossless "
                             "stranded oscillator")
    parts = build_oscillator(replace(cfg, t_end=t_end))
    l_val, c_val = parts.lumped_l, cfg.capacitance

    def reference(t):
        phi, cur, _ = analytic_reference(l_val, c_val, cfg.v0, cfg.i0, t)
        return np.array([phi, cur])

    grid = np.linspace(0.0, t_end, 1001)
    scale = float(max(np.max(np.abs(reference(t))) for t in grid))
    floor = SATURATION_FACTOR * np.finfo(float).eps * scale

    rows = []
    slopes = {}
    for method in methods:
        per_tau = []
        for tau in taus:
            traj = simulate(parts.system, parts.z0, parts.u, tau, t_end,
                            method, keep=parts.written_columns)
            eps_z, eps_h = error_measures(traj, reference)
            per_tau.append(ConvergenceRow(method, tau, eps_z, eps_h,
                                          eps_z < floor))
        rows.extend(per_tau)
        slopes[method] = fit_order([r.tau for r in per_tau],
                                   [r.eps_z for r in per_tau],
                                   [r.saturated for r in per_tau])
    table = ConvergenceTable(tuple(rows), slopes, scale, t_end)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, "convergence.csv")
        serialization.write_columns_csv(
            csv_path, ["method", "tau", "eps_z", "eps_H", "saturated"],
            [np.array([r.method for r in rows]),
             np.array([r.tau for r in rows]),
             np.array([r.eps_z for r in rows]),
             np.array([r.eps_h for r in rows]),
             np.array([int(r.saturated) for r in rows])])
        entries = {"experiment": "convergence", "t_end_s": t_end,
                   "state_scale": scale,
                   "lumped_inductance_H": parts.lumped_l,
                   "free_dofs": parts.model.K_nu.shape[0]}
        for method, slope in slopes.items():
            entries[f"slope_{method}"] = slope
        man_path = os.path.join(out_dir, "run.manifest")
        serialization.write_manifest(man_path, entries)
        gp_path = os.path.join(out_dir, "plot.gp")
        serialization.write_text_atomic(
            gp_path, _CONV_PLOT.format(methods=" ".join(methods)))
        table = ConvergenceTable(tuple(rows), slopes, scale, t_end,
                                 (csv_path, man_path, gp_path))
    return table
