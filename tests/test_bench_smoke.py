"""The benchmark harness runs one unit of a workload end to end, checks it
and reports the end-to-end metrics that BENCHMARK.json declares: an
`irk-solid` unit (trapezoidal, Gauss-4 and Radau IIA on the solid
oscillator), an `init-stranded` unit (the fine stranded oscillator
through `run_oscillator`, which keeps two state columns) and a
`sweep-small` unit (every corpus netlist through `simulate`, then the
`convergence`, `oscillator` and `index2` commands, each checked by the
bench)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["irk-solid", "init-stranded",
                                      "sweep-small"])
def test_bench_smoke(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"]
                                      for m in declared["end_to_end"]}
