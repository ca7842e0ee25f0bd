"""Spans at the module boundaries of fieldcircuit, recorded by patching.

The tracer replaces public functions of the program's modules, and the
scipy/numpy kernels the program calls, with wrappers that record one span
per call: name, start, end, parent span and an optional measured quantity
(bytes, nonzeros, steps). A function imported by name into another module is
replaced there too, so `integrators.to_dense` is traced like
`structure.to_dense`. Spans stay in memory; `layer_metrics` turns them into
the per-layer numbers and `write_spans` writes them out after measuring.

`SimulateClock` is the only instrument of an untraced run inside the
program: it marks the start of units and cases and the entry and exit of
`integrators.simulate`, and nothing else. (The speed probe of speed.py runs
beside it, from a timer, and its time is left out.)
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from fieldcircuit import (cli, conductors, coupling, fem, integrators,
                          interconnect, mna, serialization, structure)

# Methods whose simulate time, steps and step cost are reported one by one.
REPORTED_METHODS = ("trapezoidal", "gauss4", "radau5")


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _dense_bytes(args, kwargs, result):
    return result.nbytes


def _splu_nnz(args, kwargs, result):
    return int(result.nnz)


def _dense_lu_nnz(args, kwargs, result):
    n = args[0].shape[0]
    return n * n


def _trajectory_values(args, kwargs, result):
    traj = args[0]
    cols = 4 + traj.states.shape[1] + traj.outputs.shape[1]
    return len(traj.times) * cols


def _columns_values(args, kwargs, result):
    return len(args[2]) * len(args[2][0]) if len(args[2]) else 0


def _manifest_values(args, kwargs, result):
    return len(args[1])


def _method_and_steps(args, kwargs, result):
    method = kwargs["method"] if "method" in kwargs else args[5]
    return integrators.method_from_tag(method).tag, len(result.times) - 1


# (module, attribute, span name, measurement taken on return)
_PROGRAM = (
    (fem, "build_rect_mesh", "fem.mesh", None),
    (fem, "assemble_stiffness", "fem.assemble", None),
    (fem, "assemble_conductivity", "fem.assemble", None),
    (fem, "assemble_stranded_column", "fem.assemble", None),
    (fem, "assemble_solid_column", "fem.assemble", None),
    (fem, "reduce_matrix", "fem.reduce", None),
    (fem, "reduce_vector", "fem.reduce", None),
    (fem, "lumped_inductance", "fem.lumped_inductance", None),
    (fem, "pseudo_solve", "fem.pseudo_solve", None),
    (conductors, "stranded_from_mesh", "conductors.model", None),
    (conductors, "solid_from_mesh", "conductors.model", None),
    (conductors, "system_for", "conductors.model", None),
    (conductors, "load_model", "conductors.load_model", None),
    (mna, "parse_netlist", "mna.parse", None),
    (mna, "read_netlist", "mna.parse", None),
    (mna, "build_incidence", "mna.system", None),
    (mna, "mna_system", "mna.system", None),
    (mna, "input_stack", "mna.system", None),
    (coupling, "bind_circuit", "coupling.couple", None),
    (coupling, "couple", "coupling.couple", None),
    (coupling, "coupled_input_stack", "coupling.couple", None),
    (interconnect, "interconnect", "interconnect.interconnect", None),
    (structure, "to_dense", "structure.to_dense", _dense_bytes),
    (structure, "hamiltonian", "structure.hamiltonian", None),
    (integrators, "to_linear_dae", "integrators.to_linear_dae", None),
    (integrators, "consistent_init", "integrators.consistent_init", None),
    (integrators, "simulate", "integrators.simulate", _method_and_steps),
    (serialization, "write_trajectory_csv", "serialization.write",
     _trajectory_values),
    (serialization, "write_columns_csv", "serialization.write",
     _columns_values),
    (serialization, "write_manifest", "serialization.write",
     _manifest_values),
    (serialization, "write_matrix", "serialization.write_file", _file_bytes),
    (serialization, "write_text_atomic", "serialization.write_file",
     _file_bytes),
    (serialization, "read_matrix", "serialization.read", None),
    (serialization, "read_manifest", "serialization.read", None),
    (serialization, "read_trajectory_csv", "serialization.read", None),
    (cli, "cli_main", "cli.main", None),
)

_KERNELS = (
    (scipy.sparse.linalg, "splu", "linalg.factor", _splu_nnz),
    (scipy.linalg, "lu_factor", "linalg.factor", _dense_lu_nnz),
    (scipy.linalg, "lu_solve", "linalg.solve", None),
    (scipy.linalg, "null_space", "linalg.null_space", None),
    (np.linalg, "lstsq", "linalg.lstsq", None),
)


def _replace(module, original, wrapper, undo) -> None:
    """Bind `wrapper` wherever `module` or a loaded fieldcircuit module holds
    `original`, noting each binding in `undo`."""
    owners = {module, *(m for name, m in sys.modules.items()
                        if name.split(".")[0] == "fieldcircuit")}
    for owner in owners:
        for key, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, key, wrapper)
                undo.append((owner, key, original))


def _restore(undo) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)
    undo.clear()


class _TracedFactor:
    """splu result whose `solve` is traced; every other attribute is the
    factorization's own."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records spans while installed; `spans` holds (name, start, end,
    parent index, measured quantity) tuples in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, measure=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            quantity = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    quantity = measure(args, kwargs, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, quantity)

        return traced

    def _wrap_splu(self, fn, name, measure):
        factor = self._wrap(fn, name, measure)

        def splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            return _TracedFactor(lu, self._wrap(lu.solve, "linalg.solve"))

        return splu

    def __enter__(self):
        for module, attr, name, measure in _PROGRAM + _KERNELS:
            original = getattr(module, attr)
            wrap = self._wrap_splu if attr == "splu" else self._wrap
            wrapper = wrap(original, name, measure)
            _replace(module, original, wrapper, self._undo)
        return self

    def __exit__(self, *exc):
        _restore(self._undo)


class SimulateClock:
    """Times units, cases and the entry and exit of `integrators.simulate`
    with the clock `now` (see speed.ProbeSampler.now). Each unit's wall
    time, set-up and time inside simulate are lists of (start, end)
    intervals on that clock."""

    def __init__(self, now=time.perf_counter):
        self._now = now
        self._undo = []
        self.setup = []
        self.inside = []
        self._unit_start = self._case_start = 0.0
        self._entered = True

    def _close_case(self, now: float) -> None:
        """A case that never reached a time step counts as set-up to its
        end."""
        if not self._entered:
            self.setup.append((self._case_start, now))
            self._entered = True

    def begin_unit(self) -> None:
        self.setup = []
        self.inside = []
        self._unit_start = self._now()
        self._entered = True

    def begin_case(self) -> None:
        now = self._now()
        self._close_case(now)
        self._case_start = now
        self._entered = False

    def end_unit(self):
        """(unit interval list, set-up intervals, simulate intervals)."""
        now = self._now()
        self._close_case(now)
        return [(self._unit_start, now)], self.setup, self.inside

    def __enter__(self):
        original = integrators.simulate

        def simulate(*args, **kwargs):
            entry = self._now()
            if not self._entered:
                self.setup.append((self._case_start, entry))
                self._entered = True
            try:
                return original(*args, **kwargs)
            finally:
                self.inside.append((entry, self._now()))

        _replace(integrators, original, simulate, self._undo)
        return self

    def __exit__(self, *exc):
        _restore(self._undo)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric name -> span names whose self time it sums
_SELF_TIME = {
    "fem.mesh_s": ("fem.mesh",),
    "fem.assemble_s": ("fem.assemble",),
    "fem.reduce_s": ("fem.reduce",),
    "fem.lumped_inductance_s": ("fem.lumped_inductance",),
    "fem.pseudo_solve_s": ("fem.pseudo_solve",),
    "conductors.model_s": ("conductors.model",),
    "conductors.load_model_s": ("conductors.load_model",),
    "mna.parse_s": ("mna.parse",),
    "mna.system_s": ("mna.system",),
    "coupling.couple_s": ("coupling.couple",),
    "interconnect.interconnect_s": ("interconnect.interconnect",),
    "structure.hamiltonian_s": ("structure.hamiltonian",),
    "integrators.to_linear_dae_s": ("integrators.to_linear_dae",),
    "integrators.consistent_init_s": ("integrators.consistent_init",),
    "linalg.factor_s": ("linalg.factor",),
    "linalg.solve_s": ("linalg.solve",),
    "linalg.null_space_s": ("linalg.null_space",),
    "linalg.lstsq_s": ("linalg.lstsq",),
    "serialization.write_s": ("serialization.write",
                              "serialization.write_file"),
    "serialization.read_s": ("serialization.read",),
    "cli.main_s": ("cli.main",),
}

_CALLS = {
    "structure.to_dense_calls": "structure.to_dense",
    "structure.hamiltonian_calls": "structure.hamiltonian",
    "integrators.to_linear_dae_calls": "integrators.to_linear_dae",
    "linalg.factor_calls": "linalg.factor",
}

_QUANTITIES = {
    "structure.to_dense_bytes": "structure.to_dense",
    "linalg.factor_nnz_lu": "linalg.factor",
    "serialization.values_written": "serialization.write",
    "serialization.bytes_written": "serialization.write_file",
}

UNITS = {
    **{name: "s" for name in _SELF_TIME},
    **{name: "count" for name in _CALLS},
    "structure.to_dense_bytes": "bytes",
    "linalg.factor_nnz_lu": "count",
    "serialization.values_written": "count",
    "serialization.bytes_written": "bytes",
    "linalg.solves_per_step": "1/step",
    **{f"integrators.simulate_s.{m}": "s" for m in REPORTED_METHODS},
    **{f"integrators.steps.{m}": "count" for m in REPORTED_METHODS},
    **{f"integrators.step_ms.{m}": "ms" for m in REPORTED_METHODS},
}


def layer_metrics(spans, first: int = 0) -> dict:
    """Per-layer numbers of the spans from index `first` on.

    A layer's time is the self time of its spans: duration minus the part
    covered by child spans. `step_ms.<method>` is the inclusive simulate time
    minus the factorizations inside it, per step. `solves_per_step` counts
    stage solves inside simulate, refinement rounds included, per step of
    every method. `trace.top_level_s`, the time inside spans without a
    parent, is returned for the coverage figure.
    """
    chunk = spans[first:]
    child_time = [0.0] * len(chunk)
    # nearest enclosing simulate span; parents precede their children
    in_simulate = [-1] * len(chunk)
    for i, (name, t0, t1, parent, _) in enumerate(chunk):
        if parent >= first:
            child_time[parent - first] += t1 - t0
            in_simulate[i] = in_simulate[parent - first]
        if name == "integrators.simulate":
            in_simulate[i] = i

    self_time = defaultdict(float)
    calls = defaultdict(int)
    quantity = defaultdict(int)
    sim_time = defaultdict(float)
    sim_steps = defaultdict(int)
    sim_factor = defaultdict(float)
    solves_in_simulate = 0
    top_level = 0.0
    for i, (name, t0, t1, parent, q) in enumerate(chunk):
        self_time[name] += (t1 - t0) - child_time[i]
        calls[name] += 1
        if parent < first:
            top_level += t1 - t0
        if name == "integrators.simulate":
            if q is not None:
                sim_time[q[0]] += t1 - t0
                sim_steps[q[0]] += q[1]
            continue
        if q is not None:
            quantity[name] += q
        owner = in_simulate[i]
        if owner >= 0 and chunk[owner][4] is not None:
            if name == "linalg.factor":
                sim_factor[chunk[owner][4][0]] += t1 - t0
            elif name == "linalg.solve":
                solves_in_simulate += 1

    out = {metric: sum(self_time[n] for n in names)
           for metric, names in _SELF_TIME.items()}
    out.update({metric: calls[name] for metric, name in _CALLS.items()})
    out.update({metric: quantity[name]
                for metric, name in _QUANTITIES.items()})
    total_steps = sum(sim_steps.values())
    out["linalg.solves_per_step"] = (solves_in_simulate / total_steps
                                     if total_steps else 0.0)
    for m in REPORTED_METHODS:
        out[f"integrators.simulate_s.{m}"] = sim_time[m]
        out[f"integrators.steps.{m}"] = sim_steps[m]
        out[f"integrators.step_ms.{m}"] = (
            1e3 * (sim_time[m] - sim_factor[m]) / sim_steps[m]
            if sim_steps[m] else 0.0)
    out["trace.top_level_s"] = top_level
    return out


def write_spans(spans, unit_starts, path: str) -> None:
    """One JSON array per line: unit, name, start, end, parent, quantity.
    `unit_starts` holds the index of each traced unit's first span."""
    bounds = list(unit_starts[1:]) + [len(spans)]
    with open(path, "w", encoding="utf-8") as fh:
        for unit, (first, stop) in enumerate(zip(unit_starts, bounds)):
            for span in spans[first:stop]:
                fh.write(json.dumps([unit, *span], separators=(",", ":")))
                fh.write("\n")
