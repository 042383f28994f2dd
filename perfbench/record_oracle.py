"""Record the checked outputs of every case into oracle.json.

    python3 perfbench/record_oracle.py

The oracle pins what the package printed when the benchmark was defined:
rates, file lengths and air bytes of simulator runs, certificate sizes and
bounds, and a sha256 of each curve CSV.  Re-record only when an output is
meant to change, and say why in the change that does it.
"""

import json
import shutil
import sys
from pathlib import Path

import run

cases, _ = run.import_harness()
run.OUT.mkdir(exist_ok=True)
workdir = run.OUT / "record-oracle"
workdir.mkdir(exist_ok=True)
oracle = {}
try:
    for workload in cases.WORKLOADS:
        inputs = cases.build_inputs(workload, 0)
        cases.prepare_files(inputs, workdir, "a")
        oracle[workload] = {}
        for inp in inputs:
            seen = cases.observe(inp, cases.execute(inp))
            entry = {key: seen[key] for key in cases.ORACLE_KEYS[inp.case.kind]}
            problems = cases.check(inp, seen, entry)
            if problems:
                sys.exit(f"error: {workload}/{inp.case.name}: {'; '.join(problems)}")
            oracle[workload][inp.case.name] = entry
            print(workload, inp.case.name, oracle[workload][inp.case.name], file=sys.stderr)
finally:
    shutil.rmtree(workdir, ignore_errors=True)
(run.HERE / "oracle.json").write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
