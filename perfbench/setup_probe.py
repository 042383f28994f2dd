"""Set-up probe for run.py: a fresh interpreter imports dualcache and the
harness, builds one workload's inputs, and prints time.monotonic() once
they are ready.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import cases  # noqa: E402  (needs src/ on the path)

cases.build_inputs(sys.argv[1], int(sys.argv[2]))
print(time.monotonic())
