"""Self-check of the benchmark's tracing.

Runs every workload's traced run twice with the same seed, each in its own
process, and requires that:

- both runs report ``correct``: every report passed the gate and was
  byte-identical in the traced and untraced passes;
- every count metric (map, field, integral and right-hand-side evaluations,
  call counts, the flow success share) is exactly the same in both runs.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py [--seed N]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads
from run import COUNT_UNITS

HERE = Path(__file__).resolve().parent


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-check")
    parser.add_argument("--seed", type=int, default=7)
    seed = parser.parse_args().seed
    problems = []
    for workload in workloads.WORKLOADS:
        first, second = traced_run(workload, seed), traced_run(workload, seed)
        for i, result in enumerate((first, second)):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: run {i + 1} is not correct")
        counts = {name: (m["value"], second["metrics"][name]["value"])
                  for name, m in first["metrics"].items()
                  if m["unit"] in COUNT_UNITS}
        for name, (a, b) in counts.items():
            if a != b:
                problems.append(f"{workload}: {name} is {a} then {b}")
        print(f"{workload}: {len(counts)} counts checked, "
              f"integrate_flow_calls={counts['numerics.integrate_flow_calls'][0]}"
              f", flow_rhs_evals={counts['numerics.flow_rhs_evals'][0]}")
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
