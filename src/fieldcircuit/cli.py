"""Command line front end.

Exit codes: 0 success, 2 parse errors (netlist/geometry/manifest), 3
structural errors (failed validation, inconsistent models), 4 numerical
failures (singular solves, non-finite results).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from fieldcircuit import conductors, coupling, experiments, fem, mna, serialization
from fieldcircuit._stepping import METHOD_TAGS, method_from_tag
from fieldcircuit.integrators import consistent_init, simulate, step_count
from fieldcircuit.mna import NetlistError
from fieldcircuit.structure import NumericalError, StructureError, validate

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_STRUCTURE = 3
EXIT_NUMERICAL = 4


def _number(positive: bool):
    """argparse type of a finite float option, positive with `positive`."""
    def number(text: str) -> float:
        value = float(text)
        if not math.isfinite(value) or (positive and value <= 0.0):
            raise argparse.ArgumentTypeError(
                f"expected a finite{' positive' if positive else ''} number, "
                f"got {text!r}")
        return value
    return number


_FINITE, _POSITIVE = _number(False), _number(True)


def _methods(text: str) -> tuple:
    """argparse type of a comma-separated list of method tags."""
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    if not methods:
        raise argparse.ArgumentTypeError("names no method")
    try:
        return tuple(method_from_tag(m).tag for m in methods)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _taus(text: str) -> tuple:
    """argparse type of a comma-separated list of at least two step sizes,
    each finite and positive."""
    try:
        taus = tuple(_POSITIVE(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}: {exc}") \
            from None
    if len(taus) < 2:
        raise argparse.ArgumentTypeError(
            f"names {len(taus)} step size(s); a convergence order needs at "
            f"least two")
    return taus


def _add_common(parser):
    parser.add_argument("--out", default=None, help="output directory")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of `cli_main`, built once per process: `parse_args` does
    not change it, and the handlers look up what they run at call time."""
    top = argparse.ArgumentParser(
        prog="fieldcircuit",
        description="structure-preserving field-circuit simulation")
    sub = top.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a netlist transient")
    p_sim.add_argument("netlist")
    p_sim.add_argument("--models", default=None,
                       help="directory holding field-model folders "
                            "(default: next to the netlist)")
    p_sim.add_argument("--method", default=None, choices=sorted(METHOD_TAGS))
    p_sim.add_argument("--tau", type=_POSITIVE, default=None)
    p_sim.add_argument("--tend", type=_POSITIVE, default=None)
    _add_common(p_sim)

    p_osc = sub.add_parser("oscillator", help="LC oscillator experiment",
                           argument_default=argparse.SUPPRESS)
    p_osc.add_argument("--kind", dest="conductor_kind",
                       choices=("stranded", "solid"))
    p_osc.add_argument("--conductive-core", dest="core_conductive",
                       action="store_true")
    p_osc.add_argument("--method", choices=sorted(METHOD_TAGS))
    p_osc.add_argument("--tau", type=_POSITIVE)
    p_osc.add_argument("--tend", dest="t_end", type=_POSITIVE)
    p_osc.add_argument("--mesh-h", dest="mesh_h", type=_POSITIVE)
    p_osc.add_argument("--turns", type=_POSITIVE)
    p_osc.add_argument("--v0", type=_FINITE)
    p_osc.add_argument("--i0", type=_FINITE)
    _add_common(p_osc)

    p_idx = sub.add_parser("index2", help="oscillator with parallel "
                                          "voltage source (index-2 DAE)",
                           argument_default=argparse.SUPPRESS)
    p_idx.add_argument("--method", choices=sorted(METHOD_TAGS))
    p_idx.add_argument("--tau", type=_POSITIVE)
    p_idx.add_argument("--tend", dest="t_end", type=_POSITIVE)
    p_idx.add_argument("--mesh-h", dest="mesh_h", type=_POSITIVE)
    p_idx.add_argument("--amplitude", type=_FINITE)
    p_idx.add_argument("--freq", dest="freq_hz", type=_FINITE)
    _add_common(p_idx)

    p_cnv = sub.add_parser("convergence", help="step-size study on the "
                                               "lossless oscillator")
    p_cnv.add_argument("--methods", type=_methods,
                       default=experiments.CONVERGENCE_METHODS,
                       help="comma-separated method tags")
    p_cnv.add_argument("--taus", type=_taus,
                       default=experiments.CONVERGENCE_TAUS,
                       help="comma-separated step sizes in seconds")
    p_cnv.add_argument("--tend", type=_POSITIVE,
                       default=experiments.CONVERGENCE_T_END)
    p_cnv.add_argument("--mesh-h", type=_POSITIVE,
                       default=experiments.OscillatorConfig.mesh_h)
    _add_common(p_cnv)

    p_val = sub.add_parser("validate", help="check a system or model directory")
    p_val.add_argument("system_dir")

    p_exp = sub.add_parser("export-matrices",
                           help="assemble a geometry and write Matrix "
                                "Market files plus one stranded model "
                                "directory per winding")
    p_exp.add_argument("geometry")
    p_exp.add_argument("out_dir")
    p_exp.add_argument("--mesh-h", type=_POSITIVE, default=1.0e-3)
    return top


def _print_files(files):
    for f in files:
        print(f"wrote {f}")


def _cmd_simulate(args) -> int:
    try:
        nl = mna.read_netlist(args.netlist)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    base = args.models if args.models is not None \
        else os.path.dirname(os.path.abspath(args.netlist))
    inc = mna.build_incidence(nl)

    # the time grid is checked before any model is loaded
    method = args.method or nl.method or "trapezoidal"
    tau = args.tau if args.tau is not None else nl.tau
    t_end = args.tend if args.tend is not None else nl.t_end
    if tau is None or t_end is None:
        print("error: no .tran directive and no --tau/--tend given",
              file=sys.stderr)
        return EXIT_PARSE
    step_count(tau, t_end)

    circuit = mna.mna_system(inc)
    models = {}
    for port in inc.field_ports:
        if port.model_ref not in models:
            models[port.model_ref] = conductors.load_model(
                os.path.join(base, port.model_ref))
    _, systems, binding = coupling.bind_circuit(inc, models)
    system = coupling.couple(circuit, systems, binding)
    u = coupling.coupled_input_stack(binding, nl, inc)

    z0 = consistent_init(system, np.zeros(system.partition.n), u)
    traj = simulate(system, z0, u, tau, t_end, method)

    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "trajectory.csv")
    serialization.write_trajectory_csv(traj, csv_path)
    man_path = os.path.join(out_dir, "run.manifest")
    serialization.write_manifest(man_path, {
        "experiment": "simulate",
        "netlist": os.path.abspath(args.netlist),
        "method": method,
        "tau_s": float(tau),
        "t_end_s": float(t_end),
        "states": system.partition.n,
        "models": ",".join(sorted(models)) if models else "none",
        "H_final_J": float(traj.hamiltonians[-1]),
        "E_in_final_J": float(traj.supplied_cum[-1]),
        "D_cum_final_J": float(traj.dissipated_cum[-1]),
        "stepping_path": traj.stepping_path,
        "differential_coordinates": traj.differential_coordinates,
    })
    _print_files([csv_path, man_path])
    return EXIT_OK


def _given(args) -> dict:
    """The experiment options given on the command line, by the name of
    the `OscillatorConfig` field or `run_index2` argument each sets."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "out")}


def _cmd_oscillator(args) -> int:
    cfg = experiments.OscillatorConfig(**_given(args))
    report = experiments.run_oscillator(cfg, out_dir=args.out or "osc-out")
    print(serialization.format_run_summary(report.summary_entries()), end="")
    _print_files(report.files)
    return EXIT_OK


def _cmd_index2(args) -> int:
    given = _given(args)
    source = {k: given.pop(k) for k in ("amplitude", "freq_hz") if k in given}
    report = experiments.run_index2(experiments.OscillatorConfig(**given),
                                    args.out or "index2-out", **source)
    print(serialization.format_run_summary(report.summary_entries()), end="")
    _print_files(report.files)
    return EXIT_OK


def _cmd_convergence(args) -> int:
    cfg = experiments.OscillatorConfig(mesh_h=args.mesh_h)
    table = experiments.run_convergence(args.methods, args.taus, cfg,
                                        t_end=args.tend,
                                        out_dir=args.out or "convergence-out")
    for method in args.methods:
        print(f"{method}: slope {table.slopes[method]:+.3f}")
        for row in table.rows_for(method):
            mark = "  (saturated)" if row.saturated else ""
            print(f"  tau={row.tau:.3g}  eps_z={row.eps_z:.6e}  "
                  f"eps_H={row.eps_h:.6e}{mark}")
    _print_files(table.files)
    return EXIT_OK


def _cmd_validate(args) -> int:
    # a system directory, or a model directory (one with a manifest)
    path = args.system_dir
    try:
        system = (conductors.system_for(conductors.load_model(path))
                  if os.path.isfile(os.path.join(path, "manifest"))
                  else serialization.load_system(path))
    except StructureError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    report = validate(system)
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_STRUCTURE


def _cmd_export_matrices(args) -> int:
    try:
        geo = fem.read_geometry(args.geometry)
    except StructureError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    mesh = geo.mesh(args.mesh_h)
    free, k_red, m_red = fem.reduced_field_matrices(mesh, geo.materials)
    os.makedirs(args.out_dir, exist_ok=True)
    files = []
    for name, mat in (("K_nu", k_red), ("M_sigma", m_red)):
        path = os.path.join(args.out_dir, f"{name}.mtx")
        serialization.write_matrix(path, mat)
        files.append(path)
    for tag, turns in sorted(geo.windings.items()):
        col = fem.assemble_stranded_column(mesh, tag, turns)
        col_red = fem.reduce_vector(col, free)
        path = os.path.join(args.out_dir, f"X_{tag}.mtx")
        serialization.write_matrix(path, col_red.reshape(-1, 1))
        files.append(path)
        # a lossless stranded model per winding, loadable by simulate --models
        model_dir = os.path.join(args.out_dir, tag)
        conductors.save_model(conductors.StrandedModel(
            m_red, k_red, col_red[:, None], np.zeros((1, 1))), model_dir)
        files.append(model_dir)
    mesh_path = os.path.join(args.out_dir, "mesh.txt")
    fem.write_mesh(mesh, mesh_path)
    files.append(mesh_path)
    man_path = os.path.join(args.out_dir, "export.manifest")
    serialization.write_manifest(man_path, {
        "experiment": "export-matrices",
        "geometry": os.path.abspath(args.geometry),
        "mesh_h_m": args.mesh_h,
        "nodes": mesh.nodes.shape[0],
        "triangles": mesh.triangles.shape[0],
        "free_dofs": k_red.shape[0],
        "windings": ",".join(sorted(geo.windings)) or "none",
    })
    files.append(man_path)
    _print_files(files)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "oscillator": _cmd_oscillator,
    "index2": _cmd_index2,
    "convergence": _cmd_convergence,
    "validate": _cmd_validate,
    "export-matrices": _cmd_export_matrices,
}


def cli_main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except NetlistError as exc:
        print(f"parse error:\n{exc}", file=sys.stderr)
        return EXIT_PARSE
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except StructureError as exc:
        print(f"structure error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
