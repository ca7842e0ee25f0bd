"""Benchmark of the fieldcircuit pipeline.

    python3 perfbench/run.py --workload init-stranded --seed 1 --seconds 30 --trace 0

Runs the named workload in a closed loop (one client, units one after
another) for at least `--seconds`, checks every case, and prints each metric by
name with its unit. Untraced runs read their times at a reference host
speed, measured by the speed probe of speed.py. The last line of standard
output is one JSON object: `correct`, `attempted` and `failed` count cases,
`metrics` holds the end-to-end metrics (`--trace 0`) or the per-layer
metrics (`--trace 1`).
`--workload all` runs every workload, each in a fresh process.

Run from the root of a source checkout; the program is imported from
`src/`. See perfbench/README.md for the workloads and metrics.
"""

import os

# Pinned before numpy loads its BLAS; 1 thread gives the steadiest figures.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("init-stranded", "irk-solid", "sweep-small")

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "time_to_solution_s": "s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else 0.0


def _length(intervals, clock) -> float:
    """Total length of (start, end) intervals, read on `clock`."""
    return sum(clock(b) - clock(a) for a, b in intervals)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_runtime() -> dict:
    """Thread count and build string of each OpenBLAS loaded by numpy and
    scipy, asked from the libraries themselves."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib_path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(lib_path)
            for suffix in ("64_", ""):
                get_threads = getattr(
                    lib, f"scipy_openblas_get_num_threads{suffix}", None)
                get_config = getattr(
                    lib, f"scipy_openblas_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    found[pkg.__name__] = {
                        "threads": get_threads(),
                        "config": get_config().decode()}
                    break
    return found


def provenance() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "blas_threads_pinned": BLAS_THREADS,
        "openblas": _blas_runtime(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _run_units(bench, seconds: float, trace: bool):
    """Run units until `seconds` have passed; with `trace`, alternate
    untraced and traced units, at least one of each. Untraced runs sample
    the speed probe; traced runs do not."""
    import speed
    import tracing

    if trace:
        sampler = contextlib.nullcontext()
        clock = tracing.SimulateClock()
    else:
        sampler = speed.ProbeSampler(speed.SpeedProbe())
        clock = tracing.SimulateClock(sampler.now)
    tracer = tracing.Tracer()
    plain, traced, layers, starts = [], [], [], []
    deadline = time.perf_counter() + seconds
    with sampler:
        while True:
            with clock:
                if trace and len(plain) > len(traced):
                    starts.append(len(tracer.spans))
                    with tracer:
                        traced.append(bench.run_unit(clock))
                    layers.append(
                        tracing.layer_metrics(tracer.spans, starts[-1]))
                else:
                    plain.append(bench.run_unit(clock))
            if (traced or not trace) and time.perf_counter() >= deadline:
                break
    return plain, traced, layers, (tracer.spans, starts), sampler


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """One run of `workload`: returns the result object and report lines."""
    import tracing
    import workloads

    work = ROOT / ".bench_work"
    workdir = work / f"{workload}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        bench = workloads.WORKLOADS[workload](seed, workdir)
        plain, traced, layers, spans, sampler = _run_units(bench, seconds,
                                                           trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cases = [c for u in plain + traced for c in u.cases]
    result = {
        "correct": not any(c.outcome == "wrong" for c in cases),
        "attempted": len(cases),
        "failed": sum(c.outcome != "ok" for c in cases),
    }
    lines = [f"workload {workload}: {result['attempted']} cases attempted, "
             f"{result['failed']} failed, correct = {result['correct']}"]
    lines += [f"  failed case {c.name}: {c.outcome}: {c.detail}"
              for c in {c.name: c for c in cases if c.outcome != "ok"}.values()]

    intervals = {
        "setup_s": [u.setup for u in plain],
        "solve_s": [u.solve for u in plain],
        "time_to_solution_s": [u.wall for u in plain],
    }
    walls = {name: [_length(ivs, lambda t: t) for ivs in v]
             for name, v in intervals.items()}
    if trace:
        spans_path = work / f"spans-{workload}-seed{seed}.jsonl"
        tracing.write_spans(*spans, str(spans_path))
        lines.append(f"  {len(spans[0])} spans of {len(traced)} traced units "
                     f"written to {spans_path.relative_to(ROOT)}")
        values = {name: _median([m[name] for m in layers])
                  for name in tracing.UNITS}
        plain_wall = _median(walls["time_to_solution_s"])
        traced_wall = [_length(u.wall, lambda t: t) for u in traced]
        uncovered = _median([w - m["trace.top_level_s"]
                             for w, m in zip(traced_wall, layers)])
        values["trace.overhead_s"] = _median(traced_wall) - plain_wall
        values["trace.coverage"] = 1.0 - uncovered / plain_wall
        units = {**tracing.UNITS, "trace.overhead_s": "s",
                 "trace.coverage": "share"}
    else:
        probes = sampler.durations
        lines.append(f"  speed probe: mean {1e3 * statistics.fmean(probes):.4g}"
                     f" ms, range {1e3 * min(probes):.4g} to "
                     f"{1e3 * max(probes):.4g} ms, n = {len(probes)}")
        scaled = sampler.scaled_clock()
        samples = {name: [_length(ivs, scaled) for ivs in v]
                   for name, v in intervals.items()}
        values = {name: _median(v) for name, v in samples.items()}
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        units = END_TO_END_UNITS
    result["metrics"] = {name: {"value": values[name], "unit": units[name]}
                         for name in units}
    for name, m in result["metrics"].items():
        line = f"  {name} = {m['value']:.6g} {m['unit']}"
        if not trace and name in samples:
            v, w = samples[name], walls[name]
            line += (f"  (median of n = {len(v)} units, range {min(v):.4g} "
                     f"to {max(v):.4g}; wall {_median(w):.4g} s, range "
                     f"{min(w):.4g} to {max(w):.4g})")
        lines.append(line)
    return result, lines


def _run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=False)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        part = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for name, metric in part["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    src = ROOT / "src"
    if not (src / "fieldcircuit" / "__init__.py").is_file():
        sys.exit(f"error: no fieldcircuit sources under {src}; run from the "
                 f"root of a source checkout")
    sys.path.insert(0, str(src))

    print("provenance " + json.dumps(provenance()))
    result, lines = measure(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
