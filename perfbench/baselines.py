"""One-shot reference timings of whole library calls, for the README.

    python3 perfbench/baselines.py

These are single `perf_counter` measurements (run_scenario: median of 50
calls), not benchmark metrics; they re-measure the baselines that
ROADMAP.md quotes.  Also prints the line count of src/steershare.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(SRC), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    demo = timed(lambda: subprocess.run(
        [sys.executable, "-m", "steershare.cli", "demo"], cwd=ROOT, env=env,
        capture_output=True, check=True, timeout=600))
    print(f"steershare demo (wall, fresh interpreter): {demo:.3f} s")

    sys.path.insert(0, str(SRC))
    from steershare import scenario

    print(f"scan_region(3, 400, 'compare'): "
          f"{timed(lambda: scenario.scan_region(3, 400, 'compare')):.3f} s")
    print(f"max_simultaneous_pairs(200): "
          f"{timed(lambda: scenario.max_simultaneous_pairs(200)):.3f} s")
    cfg = scenario.make_config("nonlocal", [0.4, 0.8, 0.95])
    runs = [timed(lambda: scenario.run_scenario(cfg)) for _ in range(50)]
    print(f"run_scenario, nonlocal, 3 pairs: {statistics.median(runs) * 1e3:.3f} ms "
          f"(median of {len(runs)})")
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "steershare").glob("*.py"))
    print(f"src/steershare line count: {lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
