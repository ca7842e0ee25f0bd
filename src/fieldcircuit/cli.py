"""Command line front end.

Exit codes: 0 success, 2 parse errors (netlist/geometry/manifest), 3
structural errors (failed validation, inconsistent models), 4 numerical
failures (singular solves, non-finite results).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from fieldcircuit import conductors, coupling, experiments, fem, mna, serialization
from fieldcircuit.integrators import METHOD_TAGS, consistent_init, simulate
from fieldcircuit.mna import NetlistError
from fieldcircuit.structure import NumericalError, StructureError, validate

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_STRUCTURE = 3
EXIT_NUMERICAL = 4


def _add_common(parser):
    parser.add_argument("--out", default=None, help="output directory")


def _build_parser() -> argparse.ArgumentParser:
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
    p_sim.add_argument("--tau", type=float, default=None)
    p_sim.add_argument("--tend", type=float, default=None)
    _add_common(p_sim)

    p_osc = sub.add_parser("oscillator", help="LC oscillator experiment")
    p_osc.add_argument("--kind", default="stranded",
                       choices=("stranded", "solid"))
    p_osc.add_argument("--conductive-core", action="store_true")
    p_osc.add_argument("--method", default="trapezoidal",
                       choices=sorted(METHOD_TAGS))
    p_osc.add_argument("--tau", type=float, default=0.1e-6)
    p_osc.add_argument("--tend", type=float, default=50e-6)
    p_osc.add_argument("--mesh-h", type=float, default=1.0e-3)
    p_osc.add_argument("--turns", type=float, default=10.0)
    p_osc.add_argument("--v0", type=float, default=1.0)
    p_osc.add_argument("--i0", type=float, default=0.0)
    _add_common(p_osc)

    p_idx = sub.add_parser("index2", help="oscillator with parallel "
                                          "voltage source (index-2 DAE)")
    p_idx.add_argument("--method", default="trapezoidal",
                       choices=sorted(METHOD_TAGS))
    p_idx.add_argument("--tau", type=float, default=0.1e-6)
    p_idx.add_argument("--tend", type=float, default=50e-6)
    p_idx.add_argument("--mesh-h", type=float, default=1.0e-3)
    p_idx.add_argument("--amplitude", type=float, default=1.0)
    p_idx.add_argument("--freq", type=float, default=50e3)
    _add_common(p_idx)

    p_cnv = sub.add_parser("convergence", help="step-size study on the "
                                               "lossless oscillator")
    p_cnv.add_argument("--methods",
                       default=",".join(experiments.CONVERGENCE_METHODS),
                       help="comma-separated method tags")
    p_cnv.add_argument("--taus",
                       default=",".join(repr(t) for t in
                                        experiments.CONVERGENCE_TAUS),
                       help="comma-separated step sizes in seconds")
    p_cnv.add_argument("--tend", type=float,
                       default=experiments.CONVERGENCE_T_END)
    p_cnv.add_argument("--mesh-h", type=float, default=1.0e-3)
    _add_common(p_cnv)

    p_val = sub.add_parser("validate", help="check a saved system directory")
    p_val.add_argument("system_dir")

    p_exp = sub.add_parser("export-matrices",
                           help="assemble a geometry and write Matrix "
                                "Market files plus one stranded model "
                                "directory per winding")
    p_exp.add_argument("geometry")
    p_exp.add_argument("out_dir")
    p_exp.add_argument("--mesh-h", type=float, default=1.0e-3)
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
    circuit = mna.mna_system(inc)

    models = {}
    for port in inc.field_ports:
        if port.model_ref not in models:
            models[port.model_ref] = conductors.load_model(
                os.path.join(base, port.model_ref))
    _, systems, binding = coupling.bind_circuit(inc, models)
    system = coupling.couple(circuit, systems, binding)
    u = coupling.coupled_input_stack(binding, nl, inc)

    method = args.method or nl.method or "trapezoidal"
    tau = args.tau if args.tau is not None else nl.tau
    t_end = args.tend if args.tend is not None else nl.t_end
    if tau is None or t_end is None:
        print("error: no .tran directive and no --tau/--tend given",
              file=sys.stderr)
        return EXIT_PARSE

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
    })
    _print_files([csv_path, man_path])
    return EXIT_OK


def _cmd_oscillator(args) -> int:
    cfg = experiments.OscillatorConfig(
        conductor_kind=args.kind, core_conductive=args.conductive_core,
        tau=args.tau, t_end=args.tend, method=args.method,
        mesh_h=args.mesh_h, turns=args.turns, v0=args.v0, i0=args.i0)
    report = experiments.run_oscillator(cfg, out_dir=args.out or "osc-out")
    print(serialization.format_run_summary(report.summary_entries()), end="")
    _print_files(report.files)
    return EXIT_OK


def _cmd_index2(args) -> int:
    cfg = experiments.OscillatorConfig(
        tau=args.tau, t_end=args.tend, method=args.method,
        mesh_h=args.mesh_h)
    report = experiments.run_index2(cfg, out_dir=args.out or "index2-out",
                                    amplitude=args.amplitude,
                                    freq_hz=args.freq)
    print(serialization.format_run_summary(report.summary_entries()), end="")
    _print_files(report.files)
    return EXIT_OK


def _cmd_convergence(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    try:
        taus = tuple(float(t) for t in args.taus.split(",") if t.strip())
    except ValueError:
        print(f"error: cannot parse --taus {args.taus!r}", file=sys.stderr)
        return EXIT_PARSE
    cfg = experiments.OscillatorConfig(mesh_h=args.mesh_h)
    table = experiments.run_convergence(methods, taus, cfg, t_end=args.tend,
                                        out_dir=args.out or "convergence-out")
    for method in methods:
        print(f"{method}: slope {table.slopes[method]:+.3f}")
        for row in table.rows_for(method):
            mark = "  (saturated)" if row.saturated else ""
            print(f"  tau={row.tau:.3g}  eps_z={row.eps_z:.6e}  "
                  f"eps_H={row.eps_h:.6e}{mark}")
    _print_files(table.files)
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        system = serialization.load_system(args.system_dir)
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
    free = mesh.free_nodes()
    k_nu = fem.assemble_stiffness(mesh, geo.materials)
    m_sigma = fem.assemble_conductivity(mesh, geo.materials)
    k_red = fem.reduce_matrix(k_nu, free)
    m_red = fem.reduce_matrix(m_sigma, free)
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
