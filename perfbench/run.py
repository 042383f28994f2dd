"""dualcache benchmark runner: one workload, one seed, one process.

    python3 perfbench/run.py --workload sim_pieces --seed 1 --seconds 25 --trace 0

Run from any directory; the package is imported from the ``src/`` beside
this directory, and a checkout without it exits with code 1 before
measuring.

The loop is closed and single-threaded: cases run back to back, a pass is
every case of the workload once, and passes repeat until --seconds is used
up (at least two).  Every execution is checked against ``oracle.json``.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
interpreters that import dualcache and build the inputs), wall_s (one
pass, as the sum over cases of each case's median) and peak_rss_mb.
Both times are in reference seconds: each measured time is scaled by the
host's speed at that moment, which a fixed pure-Python calibration loop
samples next to and during each timing (see HostSpeed).
--trace 1 makes two untraced passes and two traced passes (two seeds),
whatever --seconds says, and prints the per-layer metrics of tracing.py.

The last line of standard output is one JSON object; the full run record,
with one row per case, goes to .perfbench_out/<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 9
MIN_PASSES = 2
CLOSURE_LIMIT = 0.05

CAL_LOOPS = 20_000      # iterations of the calibration loop
CAL_REF_S = 0.002       # its duration at the reference host speed
CAL_EDGE = 5            # calibration samples right before and right after a timing
CAL_EVERY_S = 0.05      # sampling period while a case runs


def import_harness():
    """Put the checkout's src/ first on the path and import the harness."""
    if not (SRC / "dualcache" / "__init__.py").is_file():
        sys.exit(f"error: no dualcache package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import dualcache

    if Path(dualcache.__file__).resolve().parent != SRC / "dualcache":
        sys.exit(f"error: dualcache was imported from {dualcache.__file__}, not {SRC}")
    import cases
    import tracing

    return cases, tracing


def git_commit():
    """The checkout's commit, or None when it is not a git repository."""
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Samples the calibration loop around a timing and, with SIGALRM, every
    CAL_EVERY_S inside it.

    The shared 2-vCPU host this benchmark was tuned on runs the same
    pure-Python code up to 1.75 times slower from one minute to the next.
    Dividing a time by the calibration samples taken while it ran turns it
    into reference seconds, which track the code rather than the host.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        self.samples.append(calibrate())

    def start(self, sample_inside: bool = True) -> None:
        self.samples = [calibrate() for _ in range(CAL_EDGE)]
        if sample_inside:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def stop(self) -> tuple[float, float]:
        """(seconds the samples inside the timing took, reference scale)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        inside = sum(self.samples[CAL_EDGE:])
        self.samples += [calibrate() for _ in range(CAL_EDGE)]
        return inside, CAL_REF_S / statistics.mean(self.samples)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until its inputs are ready,
    in reference seconds and as measured."""
    speed = HostSpeed()
    scaled, measured = [], []
    for _ in range(SETUP_PROBES):
        # The probe runs in a child, so the host is only sampled around it.
        speed.start(sample_inside=False)
        start = time.monotonic()
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds = float(probe.stdout.split()[-1]) - start
        _, scale = speed.stop()
        scaled.append(seconds * scale)
        measured.append(seconds)
    return scaled, measured


class Runner:
    """Runs passes over one workload's inputs and checks every output."""

    def __init__(self, cases, oracle: dict) -> None:
        self.cases = cases
        self.oracle = oracle
        self.tracer = None      # a tracing.Tracer while traced passes run
        self.speed = None       # a HostSpeed while untraced passes are scaled
        self.measured: list[float] = []     # unscaled seconds of every case run
        self.attempted = 0
        self.failures: list[str] = []
        self.last_seen: dict = {}

    def run_case(self, inp) -> float:
        tracer = self.tracer
        self.attempted += 1
        gc.collect()    # start every case from the same heap, whatever ran before
        if self.speed is not None:
            self.speed.start()
        start = time.perf_counter()
        try:
            try:
                if tracer is None:
                    output = self.cases.execute(inp)
                else:
                    root = tracer.begin_case(inp.case.name)
                    try:
                        output = self.cases.execute(inp)
                    finally:
                        tracer.end_case(root)
            finally:
                seconds = time.perf_counter() - start
                inside, scale = self.speed.stop() if self.speed is not None else (0.0, 1.0)
            seen = self.cases.observe(inp, output)
            problems = self.cases.check(inp, seen, self.oracle.get(inp.case.name))
        except Exception:
            seen, problems = {}, [traceback.format_exc()]
        seconds -= inside
        self.measured.append(seconds)
        seconds *= scale
        if problems:
            self.failures.append(f"{inp.case.name}: " + "; ".join(problems))
        self.last_seen[inp.case.name] = seen
        return seconds

    def run_pass(self, inputs) -> list[float]:
        return [self.run_case(inp) for inp in inputs]


def untraced(cases, workload, seed, seconds, oracle, workdir):
    setup, setup_measured = measure_setup(workload, seed)
    inputs = cases.build_inputs(workload, seed)
    cases.prepare_files(inputs, workdir, "a")
    runner = Runner(cases, oracle)
    runner.speed = HostSpeed()
    passes = []
    start = time.perf_counter()
    last = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        begun = time.perf_counter()
        passes.append(runner.run_pass(inputs))
        last = time.perf_counter() - begun
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(statistics.median(times) for times in zip(*passes)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    measured = [runner.measured[i::len(inputs)] for i in range(len(inputs))]
    extra = {"setup_samples": setup, "setup_measured_samples": setup_measured,
             "wall_measured_s": sum(statistics.median(times) for times in measured)}
    return runner, inputs, passes, metrics, extra, True


def traced(cases, tracing_mod, workload, seed, oracle, workdir):
    tracer = tracing_mod.Tracer()
    uninstall = tracing_mod.install(tracer)
    tracer.active = True
    inputs = cases.build_inputs(workload, seed)
    tracer.active = False
    uninstall()
    setup_spans, _ = tracer.take()
    other = cases.build_inputs(workload, seed + 1)
    cases.prepare_files(inputs, workdir, "a")
    cases.prepare_files(other, workdir, "b")

    runner = Runner(cases, oracle)
    passes = [runner.run_pass(inputs) for _ in range(MIN_PASSES)]
    untraced_wall = sum(statistics.median(times) for times in zip(*passes))
    runner.tracer = tracer
    uninstall = tracing_mod.install(tracer)
    try:
        phases = []
        for pass_inputs in (inputs, other):
            wall = sum(runner.run_pass(pass_inputs))
            spans, counts = tracer.take()
            counts["cli.rows"] = sum(runner.last_seen[i.case.name].get("rows", 0)
                                     for i in pass_inputs if i.case.kind == "curve")
            phases.append((wall, spans, tracing_mod.self_times(spans), counts))
    finally:
        uninstall()
    runner.tracer = None

    def mean(values):
        return sum(values) / len(values)

    metrics = {name: (mean([st.get(name, 0.0) for _, _, st, _ in phases]), "s")
               for name in tracing_mod.TIMES}
    metrics["model.setup_load_s"] = (
        tracing_mod.self_times(setup_spans).get("model.load_s", 0.0), "s")
    first = phases[0][3]
    for name in tracing_mod.COUNTS:
        unit = "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = (first.get(name, 0), unit)
    run_s = metrics["simulator.run_self_s"][0]
    metrics["simulator.decode_MBps"] = (
        first.get("simulator.decoded_bytes", 0) / run_s / 1e6 if run_s else 0.0, "MB/s")

    # Every case's root span brackets execute(), so this identity holds by
    # construction; it catches a broken span tree, not uncovered time.  How
    # much time the named layers leave uncovered is trace.unattributed_share.
    closure = [abs(sum(st.values()) - wall) / wall for wall, _, st, _ in phases]
    repeat = all(counts == first for _, _, _, counts in phases)
    traced_wall = mean([wall for wall, _, _, _ in phases])
    unattributed = mean([st.get(tracing_mod.ROOT, 0.0) for _, _, st, _ in phases])
    metrics.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.unattributed_share": (unattributed / traced_wall, "ratio"),
        "trace.closure_error": (max(closure), "ratio"),
        "trace.overhead_ratio": (traced_wall / untraced_wall, "ratio"),
        "trace.spans": (len(phases[0][1]), "count"),
        "trace.counts_repeat": (int(repeat), "count"),
    })
    extra = {"spans": {"setup": setup_spans,
                       "pass_seed": phases[0][1], "pass_other_seed": phases[1][1]}}
    healthy = repeat and max(closure) <= CLOSURE_LIMIT
    if not repeat:
        print("error: per-layer counts differ between the two traced passes", file=sys.stderr)
    if max(closure) > CLOSURE_LIMIT:
        print(f"error: self times miss the traced wall time by {max(closure):.1%}",
              file=sys.stderr)
    return runner, inputs, passes, metrics, extra, healthy


def measure(workload: str, seed: int, seconds: float, trace: bool, oracle=None) -> dict:
    """One benchmark run; returns the run record (metrics, rows, failures)."""
    cases, tracing = import_harness()
    if workload not in cases.WORKLOADS:
        sys.exit(f"error: unknown workload {workload!r}; known: {', '.join(cases.WORKLOADS)}")
    if oracle is None:
        oracle = json.loads((HERE / "oracle.json").read_text())[workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{seed}-{int(trace)}-{os.getpid()}"
    workdir.mkdir()
    try:
        if trace:
            runner, inputs, passes, metrics, extra, healthy = traced(
                cases, tracing, workload, seed, oracle, workdir)
        else:
            runner, inputs, passes, metrics, extra, healthy = untraced(
                cases, workload, seed, seconds, oracle, workdir)
        rows = []
        for index, inp in enumerate(inputs):
            times = [p[index] for p in passes]
            seen = runner.last_seen.get(inp.case.name, {})
            rows.append({"case": inp.case.name, "kind": inp.case.kind,
                         "params": inp.case.params(),
                         **(cases.row_counts(inp, seen) if seen else
                            {"pieces": None, "transmissions": None}),
                         "seconds": statistics.median(times), "seconds_per_pass": times})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "commit": git_commit(),
        "passes": len(passes), "cases": len(inputs),
        "attempted": runner.attempted, "failed": len(runner.failures),
        "correct": healthy and not runner.failures,
        "failures": runner.failures,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "rows": rows, **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    attempted, failed = record["attempted"], record["failed"]
    print(f"workload {record['workload']}  seed {record['seed']}  cases {record['cases']}  "
          f"passes {record['passes']}  trace {record['trace']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    if "wall_measured_s" in record:
        print(f"  {'(wall_s as measured, unscaled)':34s} {record['wall_measured_s']:.6g} s")
    print(f"  {'fail_ratio':34s} {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    for failure in record["failures"][:5]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
