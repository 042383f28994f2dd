"""Run every workload of BENCHMARK.json once, each in a fresh interpreter,
and print the end-to-end metrics side by side.

    python3 perfbench/summary.py

Each run uses seed 1, BENCHMARK.json's run_seconds and tracing off, and is
checked against oracle.json.  Exits 1 if any run fails its checks or exits
with an error.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    table = []
    for workload in (w["name"] for w in spec["workloads"]):
        run = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if run.returncode != 0:
            print(f"{workload}: exit code {run.returncode}\n{run.stderr}", file=sys.stderr)
            bad += 1
            continue
        result = json.loads(run.stdout.strip().splitlines()[-1])
        bad += not result["correct"]
        table.append((workload, result))

    print(f"{'metric':34s}" + "".join(f"{w:>14s}" for w, _ in table))
    for metric in spec["end_to_end"]:
        cells = "".join(f"{r['metrics'][metric['name']]['value']:14.6g}" for _, r in table)
        print(f"{metric['name'] + ' (' + metric['unit'] + ')':34s}{cells}")
    print(f"{'fail_ratio (failed/attempted)':34s}"
          + "".join(f"{str(r['failed']) + '/' + str(r['attempted']):>14s}" for _, r in table))
    print(f"{'correct':34s}" + "".join(f"{str(r['correct']):>14s}" for _, r in table))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
