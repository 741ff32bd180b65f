#!/usr/bin/env python3
"""Run two sets of benchmark runs of the same code and say whether they agree.

    python3 perfbench/compare.py --sets 2 --runs 10    # the defaults

Run from the root of a checkout.  Every workload in BENCHMARK.json is run;
set k (from 0) uses seeds ``1 + k*runs + i``, so the default sets are seeds
1-10 and 11-20.  Runs of the workloads are interleaved so that host drift
reaches every workload alike.  For each workload and end-to-end metric it
prints, per set, the median and the quartile spread (Q3 - Q1 over the median,
from ``statistics.quantiles(n=4)``), and whether

* every spread, that of ``setup_s`` included, is within the metric's bound,
* every later set's median differs from the first set's by at most the bound,
  in either direction,
* the share of failed operations is the same in every set.

The bounds come from BENCHMARK.json.  All figures go to
``perfbench/out/compare.json``; the exit code is 0 only when everything agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

FIRST_SEED = 1


def one_run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr[-500:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for k in range(args.sets):
        for i in range(args.runs):
            seed = FIRST_SEED + k * args.runs + i
            for w in workloads:
                r = one_run(bench["command"], w, seed, bench["run_seconds"])
                results[w][k].append(r)
                print(f"set {k + 1} run {i + 1} {w} seed {seed}: "
                      + " ".join(f"{n}={m['value']:.4g}" for n, m in r["metrics"].items()),
                      file=sys.stderr, flush=True)

    ok = True
    report = {}
    for w in workloads:
        sets = results[w]
        shares = [Fraction(sum(r["failed"] for r in s), sum(r["attempted"] for r in s)) for s in sets]
        same_share = len(set(shares)) == 1
        ok &= same_share and all(r["correct"] for s in sets for r in s)
        print(f"\n{w}: failed share {' / '.join(str(x) for x in shares)}"
              f" ({'same' if same_share else 'DIFFERENT'})")
        report[w] = {"failed_share": [str(x) for x in shares], "metrics": {}}
        for name, spec in bounds.items():
            values = [[r["metrics"][name]["value"] for r in s] for s in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            drift = [(m - medians[0]) / medians[0] for m in medians[1:]]
            spread_ok = all(s <= spec["bound"] for s in spreads)
            drift_ok = all(abs(x) <= spec["bound"] for x in drift)
            ok &= spread_ok and drift_ok
            print(f"  {name:12s} bound {spec['bound']:.2f}  "
                  + "  ".join(f"set{k + 1} median {m:.5g} spread {s:.3f}"
                              for k, (m, s) in enumerate(zip(medians, spreads)))
                  + "".join(f"  set{k + 2} moved {x:+.3f}" for k, x in enumerate(drift))
                  + ("" if spread_ok and drift_ok else "  DISAGREE"))
            report[w]["metrics"][name] = {"values": values, "medians": medians,
                                          "spreads": spreads, "moved": drift,
                                          "agree": spread_ok and drift_ok}
    out = Path("perfbench") / "out" / "compare.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"\n{'all sets agree' if ok else 'the sets DISAGREE'}; figures in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
