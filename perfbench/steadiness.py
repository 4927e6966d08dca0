"""Run the whole benchmark twice and compare the two sets of runs.

    python3 perfbench/steadiness.py --runs 10

Each set runs every workload of BENCHMARK.json `--runs` times for
`run_seconds`, with distinct seeds (set A seeds 1..runs, set B the next
`runs` seeds), each run in a fresh interpreter.  For every end-to-end
metric and workload it prints each set's median, each set's spread
(quartile distance over the median) and how much worse set B's median is
than set A's, all against the metric's bound.  Exits 1 when a spread
(other than `setup_s`) exceeds its bound, when the two medians differ by
more than the bound in either direction, or when the failed share
differs between sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = {"A": range(1, args.runs + 1),
             "B": range(args.runs + 1, 2 * args.runs + 1)}
    results = {}
    for label, seed_range in seeds.items():
        for w in workloads:
            for seed in seed_range:
                r = run_once(spec, w, seed, seconds)
                results.setdefault((label, w), []).append(r)
                values = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                print(f"set {label} {w} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} {values}", flush=True)

    ok = True
    print(f"\n{'workload':<14} {'metric':<12} {'median A':>12} {'median B':>12} "
          f"{'spread A':>9} {'spread B':>9} {'B worse':>8} {'bound':>6}")
    for w in workloads:
        a, b = results[("A", w)], results[("B", w)]
        share = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                 for s in (a, b)]
        if share[0] != share[1] or not all(r["correct"] for r in a + b):
            ok = False
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a]
            vb = [r["metrics"][m["name"]]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(va), spread(vb)
            bad = abs(mb - ma) / ma > m["bound"] or (
                m["name"] != "setup_s" and max(sa, sb) > m["bound"])
            ok &= not bad
            print(f"{w:<14} {m['name']:<12} {ma:>12.6g} {mb:>12.6g} {sa:>9.2%} "
                  f"{sb:>9.2%} {worse:>8.2%} {m['bound']:>6.0%}"
                  + ("  EXCEEDS BOUND" if bad else ""))
        print(f"{w:<14} failed share A {share[0]:.6g}, B {share[1]:.6g}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
