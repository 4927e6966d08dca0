"""Run one steershare benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan-grid --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`.  With `--trace 0` the run measures the end-to-end metrics for
`--seconds` seconds; with `--trace 1` it runs a fixed number of rounds
twice, untraced and traced, and reports the per-layer metrics.  Every
output is checked against `reference.py`.  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; the setup probes inherit them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
TRACES = ROOT / ".bench_traces"

SETUP_PROBES = 14  # fresh interpreters timing the import, besides this one
# Each probe scales its import time by calibrations timed right after it in
# the same interpreter, so both see the same core at the same moment.
PROBE = ("import sys, time\n"
         "sys.path[:0] = sys.argv[1:3]\n"
         "t = time.perf_counter()\n"
         "import steershare, steershare.cli\n"
         "elapsed = time.perf_counter() - t\n"
         "import calibration\n"
         "print(calibration.reference_seconds(elapsed))\n")


def import_program() -> float:
    """Import steershare from this checkout; return the seconds it took."""
    if not (SRC / "steershare" / "__init__.py").is_file():
        sys.exit(f"error: no steershare sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import steershare
    import steershare.cli  # noqa: F401
    elapsed = time.perf_counter() - t
    if SRC not in Path(steershare.__file__).resolve().parents:
        sys.exit(f"error: imported steershare from {steershare.__file__}")
    return elapsed


def setup_seconds(first: float) -> list[float]:
    """Import time at reference speed (see calibration.py): `first`, this
    process's, and that of more fresh interpreters."""
    samples = [first]
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", PROBE, str(SRC), str(HERE)],
                             cwd=ROOT, capture_output=True, text=True, timeout=60,
                             check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


class Tally:
    """Attempted and failed operations; the first failures are kept."""

    def __init__(self):
        self.attempted = self.failed = self.items = self.out_bytes = 0
        self.call_s: list[float] = []
        self.messages: list[str] = []

    def record(self, op, res, seconds: float, error: str | None) -> None:
        self.attempted += 1
        self.items += op.items
        self.call_s.append(seconds)
        if error is None and res is not None:
            self.out_bytes += res.out_bytes
            error = op.check(res)
        if error is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{type(op).__name__}: {error}")


def execute(op, tally: Tally):
    """Prepare, time and check one operation; return its result."""
    op.prepare()
    res = error = None
    t = time.perf_counter()
    try:
        res = op.call()
    except Exception as exc:  # a raising call is a failed operation
        error = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t
    tally.record(op, res, elapsed, error)
    return res


def self_test(workload) -> list[str]:
    """Corrupt one output value beyond its tolerance, for each kind of
    operation in a round; each must count as failed."""
    first = {}
    for op in workload.round():
        first.setdefault(type(op).__name__, op)
    report = []
    for kind, op in first.items():
        genuine, corrupted = Tally(), Tally()
        res = execute(op, genuine)
        if genuine.failed:
            report.append(f"{kind} inconclusive, genuine output failed: "
                          f"{genuine.messages[0]}")
            continue
        corrupted.record(op, op.corrupt(res), 0.0, None)
        if corrupted.failed != 1:
            sys.exit(f"error: checker self-test: corrupted {kind} output was accepted")
        report.append(f"caught corrupted {corrupted.messages[0]}")
    return report


def tail(call_s: list[float]) -> str:
    """The call count and the highest percentile with ten calls beyond it."""
    n = len(call_s)
    if n < 40:
        return f"{n} calls, too few for a tail percentile"
    k = n - 11
    return (f"{n} calls, p{100 * (k + 1) // n} {sorted(call_s)[k] * 1e3:.6g} ms "
            f"({n - k - 1} calls beyond)")


def run_calibrated(ops, tally: Tally, cal: list[float]) -> None:
    """Execute `ops`, timing the calibration work before each one."""
    import calibration

    for op in ops:
        cal.append(calibration.seconds())
        execute(op, tally)


def timed_run(workload, seconds: float, before: list[float]) -> tuple[Tally, dict]:
    """Whole rounds for `seconds`; `before` holds the calibration times
    taken before the program's first call, for comparison."""
    import calibration

    tally, cal = Tally(), []
    rounds = 0
    deadline = time.perf_counter() + seconds
    while True:  # whole rounds only, so the mix is the same in every run
        run_calibrated(workload.round(), tally, cal)
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    adjusted = [t * f for t, f in zip(tally.call_s, calibration.speed_factors(cal))]
    wall, busy = sum(tally.call_s), sum(adjusted)
    metrics = {
        "items_per_s": {"value": tally.items / busy, "unit": "items/s"},
        "call_p50_ms": {"value": statistics.median(adjusted) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    print(f"rounds: {rounds}; items: {tally.items}; calibration median "
          f"{statistics.median(cal) * 1e3:.4f} ms beside the calls, "
          f"{statistics.median(before) * 1e3:.4f} ms before the first call "
          f"(reference {calibration.CAL_REF_S * 1e3:.1f} ms)")
    print(f"wall time: {tally.items / wall:.6g} items/s, "
          f"p50 {statistics.median(tally.call_s) * 1e3:.6g} ms, {tail(tally.call_s)}")
    print(f"at reference speed: {tally.items / busy:.6g} items/s, "
          f"p50 {statistics.median(adjusted) * 1e3:.6g} ms, {tail(adjusted)}")
    return tally, metrics


def traced_run(workload, seed: int) -> tuple[Tally, dict]:
    """A fixed list of calls run untraced, then traced with the same inputs;
    times are at reference speed, like the timed run's."""
    import calibration
    from tracing import METRICS, Tracer

    ops = [op for _ in range(workload.trace_rounds) for op in workload.round()]
    tally, cal = Tally(), []
    run_calibrated(ops, tally, cal)
    untraced_bytes = tally.out_bytes
    tracer = Tracer()
    tracer.install()
    try:
        for k, op in enumerate(ops):
            tracer.current_request = k
            run_calibrated([op], tally, cal)
    finally:
        tracer.uninstall()
    tracer.out_bytes = tally.out_bytes - untraced_bytes
    speed = calibration.speed_factors(cal)
    adjusted = [t * f for t, f in zip(tally.call_s, speed)]
    untraced, traced = sum(adjusted[:len(ops)]), sum(adjusted[len(ops):])
    path = TRACES / f"{workload.name}-seed{seed}.npz"
    tracer.write(path)
    print(f"{len(ops)} calls at reference speed: untraced {untraced:.4f} s, traced "
          f"{traced:.4f} s; {len(tracer.start)} spans written to {path}")
    metrics = tracer.metrics(traced - untraced, speed[len(ops):])
    return tally, {name: {"value": value, "unit": METRICS[name]}
                   for name, value in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan-grid", "run-histories", "point-queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    first_import = import_program()
    import calibration  # numpy loads after the timed import
    from workloads import WORKLOADS

    before = [calibration.seconds() for _ in range(5)]  # before the first call

    tmp = TMP / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](random.Random(args.seed), tmp)
        print(f"workload: {args.workload}; seed: {args.seed}; trace: {args.trace}")
        if not args.trace:  # before the self-test makes the first call
            first = first_import * calibration.CAL_REF_S / statistics.median(before)
            samples = setup_seconds(first)
            print("setup samples (s): " + ", ".join(f"{s:.4f}" for s in samples))
        for line in self_test(workload):
            print(f"checker self-test: {line}")
        if args.trace:
            tally, metrics = traced_run(workload, args.seed)
        else:
            tally, metrics = timed_run(workload, args.seconds, before)
            metrics = {"setup_s": {"value": statistics.median(samples), "unit": "s"},
                       **metrics}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when another run still uses it
            TMP.rmdir()

    print(f"attempted: {tally.attempted}; failed: {tally.failed}")
    for msg in tally.messages:
        print(f"failure: {msg}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
