"""Quick self-check of the benchmark harness on the "tiny" workload.

    python3 perfbench/selfcheck.py

Checks, in about ten seconds:
- the oracle has an entry for every case of every workload;
- both modes print exactly the metrics BENCHMARK.json names, with its units;
- per-layer counts repeat across two runs with different seeds;
- the span tree is whole: self times plus the unattributed remainder add up
  to the traced wall time (true by construction when spans nest properly),
  and the unattributed share lies between 0 and 1;
- a deliberately wrong oracle value is counted as a failure in both modes;
- in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  with a non-zero code and prints no result.
Exits 1 if any check fails.
"""

import copy
import json
import shutil
import subprocess
import sys

import run

cases, tracing = run.import_harness()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
ORACLE = json.loads((run.HERE / "oracle.json").read_text())
failed = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        failed.append(name)


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(workload: str, seed: int, trace: int) -> dict:
    out = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace))
    if out.returncode != 0:
        raise RuntimeError(out.stderr)
    return json.loads(out.stdout.strip().splitlines()[-1])


for workload, workload_cases in cases.WORKLOADS.items():
    names = {case.name for case in workload_cases}
    report(f"oracle covers {workload}", set(ORACLE.get(workload, {})) == names)

wanted = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
          1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
results = {(seed, trace): result_of("tiny", seed, trace) for seed in (1, 2) for trace in (0, 1)}
for (seed, trace), res in results.items():
    label = f"seed {seed} trace {trace}"
    report(f"result keys, {label}", sorted(res) == ["attempted", "correct", "failed", "metrics"])
    report(f"correct, {label}", res["correct"] and res["failed"] == 0 and res["attempted"] >= 1)
    units = {name: metric["unit"] for name, metric in res["metrics"].items()}
    report(f"metric names and units, {label}", units == wanted[trace],
           f"got {sorted(units)}")
    report(f"metric values are numbers, {label}",
           all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()))

counts = [{name: m["value"] for name, m in results[(seed, 1)]["metrics"].items()
           if m["unit"] in ("count", "bytes")} for seed in (1, 2)]
report("per-layer counts repeat across runs and seeds", counts[0] == counts[1])
for seed in (1, 2):
    traced = results[(seed, 1)]["metrics"]
    closure = traced["trace.closure_error"]["value"]
    share = traced["trace.unattributed_share"]["value"]
    report(f"span tree is whole, seed {seed}",
           closure <= run.CLOSURE_LIMIT and 0 <= share <= 1,
           f"closure {closure:.3%}, unattributed share {share:.3f}")

wrong = copy.deepcopy(ORACLE["tiny"])
wrong["unknown_k4"]["measured_rate"] = "1/2"
wrong["skewed_k4"]["kappa"] = "0"
wrong["skewed_k4_ms1"]["csv_sha256"] = "0" * 64
for trace in (False, True):
    record = run.measure("tiny", 1, 0.1, trace, oracle=wrong)
    runs_per_case = record["attempted"] // record["cases"]
    report(f"wrong oracle values count as failures, trace {int(trace)}",
           record["failed"] == 3 * runs_per_case and not record["correct"],
           f"{record['failed']} failed of {record['attempted']}")

bare = run.OUT / "selfcheck-bare"
shutil.rmtree(bare, ignore_errors=True)
shutil.copytree(run.HERE, bare / run.HERE.name,
                ignore=shutil.ignore_patterns("__pycache__"))
shutil.copy(run.ROOT / "BENCHMARK.json", bare)
out = bench("--workload", "tiny", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
shutil.rmtree(bare, ignore_errors=True)
report("a checkout without src/ exits non-zero and prints no result",
       out.returncode != 0 and "{" not in out.stdout, out.stdout + out.stderr)

print(f"{len(failed)} check(s) failed" if failed else "all checks passed")
sys.exit(1 if failed else 0)
