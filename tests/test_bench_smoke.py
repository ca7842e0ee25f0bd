"""The benchmark harness runs one `irk-solid` unit end to end (trapezoidal,
Gauss-4 and Radau IIA on the solid oscillator), checks it and reports the
end-to-end metrics that BENCHMARK.json declares."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_irk_solid_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "irk-solid",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"]
                                      for m in declared["end_to_end"]}
