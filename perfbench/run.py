#!/usr/bin/env python3
"""Benchmark of the `arl` tower calculus: one workload per run, one JSON line out.

Run from the root of a checkout (the directory that holds ``src/arl``):

    python3 perfbench/run.py --workload verify-torsion --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(see README.md).  Every user-level run of the program -- one suite run, one
CLI command -- executes in a child forked from a parent that has imported
`arl` and run nothing, so no run sees a cache warmed by another one.  The
parent is the only caller and waits for each child: a closed loop with one
client, pinned to one core.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import towergen
from tracer import LAYERS, Tracer, summarize

OUT_DIR = Path("perfbench") / "out"
SUITE_SEED = 0          # the fixed seed of the verify suites (ROADMAP baseline)
FUNCTOR_SUITES = ("upsilon", "phi", "faithful", "comparison")
FUNCTOR_CASES = 25      # cases per suite run: 100 cases a round
TOWER_FILES = 8         # seeded tower files per cli-towerfile round, and one
                        # pinned random-coupling file: 100 commands
SETUP_LAUNCHES = 5      # interpreter start-ups before and again after the timed
                        # phase; one more follows each round
HARD_LIMIT_S = 140      # stop starting rounds after this long, whatever --seconds says


# -- child processes -----------------------------------------------------------------

def run_child(fn, args, trace: Tracer | None, spans_path: Path | None):
    """Run fn(*args) in a forked child; returns (payload, wall seconds)."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: leaves only through os._exit
        code = 1
        try:
            os.close(r)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            try:
                if trace is not None:
                    trace.reset()
                payload = {"value": fn(*args)}
                if trace is not None:
                    payload["trace"] = trace.snapshot()
                    with open(spans_path, "ab") as fh:
                        trace.write_spans(fh)
                code = 0
            except BaseException as exc:  # reported to the parent, which fails the run
                payload = {"error": f"{type(exc).__name__}: {exc}"}
            payload["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            with os.fdopen(w, "wb") as fh:
                fh.write(json.dumps(payload).encode())
        finally:
            os._exit(code)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as fh:
            data = fh.read()
        _, status = os.waitpid(pid, 0)
    except BaseException:  # interrupted: stop and reap the child before leaving
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    payload = json.loads(data) if data else {"error": f"child died, status {status}"}
    if "error" in payload:
        raise RuntimeError(f"child failed: {payload['error']}")
    return payload, wall


def suite_run(suite: str, cases: int) -> dict:
    """One `arl verify` run of the first `cases` cases of `suite`, in index
    order as `run_suite` takes them (child side)."""
    from arl.suites import SuiteReport, default_params, run_case, shrink_case
    params = default_params(suite)
    lat, results = [], []
    for index in range(cases):
        t0 = time.perf_counter()
        res = run_case(suite, SUITE_SEED, index, params)
        if res.outcome == "fail":
            res = shrink_case(suite, SUITE_SEED, index, params)
        lat.append(time.perf_counter() - t0)
        results.append(res)
    report = SuiteReport(suite, SUITE_SEED, len(results), tuple(results))
    return {"lat": lat,
            "outcomes": [r.outcome for r in results],
            "certs": [r.certificate for r in results],
            "report": "\n".join(report.body_lines())}


def replay(report_text: str) -> dict:
    """`arl verify --replay` on a report (child side)."""
    from arl.suites import parse_report, replay_report
    fresh = replay_report(parse_report(report_text))
    return {"cases": len(fresh.results), "all_pass": fresh.all_pass()}


def cli_command(argv: list[str]) -> dict:
    """One `arl` command (child side)."""
    from arl.cli import main
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = main(argv)
    return {"lat": time.perf_counter() - t0, "code": code, "out": buf.getvalue()}


# -- workloads -----------------------------------------------------------------------

class Workload:
    """A round is a list of jobs, each one child; `absorb` checks a job's result
    and returns (latencies, failed)."""

    tail_pct: float
    min_rounds: int

    def __init__(self, seed: int):
        self.errors: list[str] = []

    def jobs(self) -> list[tuple]:
        raise NotImplementedError

    def absorb(self, job: tuple, value: dict) -> tuple[list[float], int]:
        raise NotImplementedError

    def final_check(self):
        pass


class VerifyTorsion(Workload):
    """The exhaustive torsionfree grid, one suite run per round."""

    tail_pct = 99.0
    min_rounds = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.grid = checks.torsion_grid_pairs()
        self.first_certs = None

    def jobs(self):
        return [(suite_run, ("torsionfree", sum(self.grid.values())))]

    def absorb(self, job, value):
        failed = sum(o != "pass" for o in value["outcomes"])
        seen = Counter()
        for outcome, cert in zip(value["outcomes"], value["certs"]):
            if outcome != "pass":
                continue
            bad = checks.check_torsion_case(cert)
            if bad:
                self.errors.append(bad)
            seen[checks.torsion_key(cert)] += 1
        if failed == 0 and seen != self.grid:
            self.errors.append("the cases do not cover the 2 x 30 x 30 grid exactly once")
        if self.first_certs is None:
            self.first_certs = value["certs"]
        elif value["certs"] != self.first_certs:
            self.errors.append("certificates differ between rounds")
        return value["lat"], failed


class VerifyFunctor(Workload):
    """The upsilon, phi, faithful and comparison suites; one child per suite run."""

    tail_pct = 90.0
    min_rounds = 7

    def __init__(self, seed: int):
        super().__init__(seed)
        self.reports: dict[str, str] = {}

    def jobs(self):
        return [(suite_run, (suite, FUNCTOR_CASES)) for suite in FUNCTOR_SUITES]

    def absorb(self, job, value):
        suite = job[1][0]
        failed = sum(o != "pass" for o in value["outcomes"])
        if suite not in self.reports:
            self.reports[suite] = value["report"]
        elif value["report"] != self.reports[suite]:
            self.errors.append(f"{suite}: report differs between rounds")
        return value["lat"], failed

    def final_check(self):
        """Outside the timed phase: a replay reproduces every certificate."""
        for suite, text in self.reports.items():
            value = run_child(replay, (text,), None, None)[0]["value"]
            if value["cases"] != FUNCTOR_CASES or not value["all_pass"]:
                self.errors.append(f"{suite}: replay did not reproduce every certificate")


class CliTowerfile(Workload):
    """normalize, limit, upsilon and psi on seeded tower files and the pinned
    random-coupling file; one child per command."""

    tail_pct = 90.0
    min_rounds = 7

    def __init__(self, seed: int):
        super().__init__(seed)
        folder = OUT_DIR / f"towers-{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        self.commands = []
        files = [towergen.make_file(seed, index) for index in range(TOWER_FILES)]
        files.append(towergen.make_coupled_file())
        for index, (data, expect) in enumerate(files):
            path = folder / f"file{index}.arl.json"
            path.write_text(json.dumps(data, indent=1))
            for tower, exp in expect.items():
                base = ["-f", str(path), "-t", tower]
                self.commands += [
                    (["normalize"] + base, exp),
                    (["limit"] + base, exp),
                    (["upsilon"] + base + ["--h", exp["upsilon_h"]], exp),
                    (["psi"] + base + ["--h", exp["psi_h"]], exp),
                ]

    def jobs(self):
        return [(cli_command, (argv,), exp) for argv, exp in self.commands]

    def absorb(self, job, value):
        argv, exp = job[1][0], job[2]
        if value["code"] != 0:
            return [value["lat"]], 1
        bad = checks.check_command(argv[0], value["out"], exp)
        if bad:
            self.errors.append(f"{' '.join(argv)}: {bad}")
        return [value["lat"]], 0


WORKLOADS = {"verify-torsion": VerifyTorsion, "verify-functor": VerifyFunctor,
             "cli-towerfile": CliTowerfile}


# -- measurement -----------------------------------------------------------------------

def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def start_ups(count: int, env: dict) -> list[float]:
    """Seconds to launch a fresh interpreter and import the `arl` entry point."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import arl.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


class Run:
    def __init__(self, workload: Workload, trace: Tracer | None, spans_path: Path | None):
        self.w = workload
        self.trace = trace
        self.spans_path = spans_path
        self.round_lat: list[list[float]] = []   # latencies of each round
        self.attempted = 0
        self.failed = 0
        self.rss_kb = 0
        self.snaps: list[dict] = []

    def round(self) -> float:
        wall = 0.0
        self.round_lat.append([])
        for job in self.w.jobs():
            payload, seconds = run_child(job[0], job[1], self.trace, self.spans_path)
            wall += seconds
            lat, failed = self.w.absorb(job, payload["value"])
            self.round_lat[-1] += lat
            self.attempted += len(lat)
            self.failed += failed
            self.rss_kb = max(self.rss_kb, payload["maxrss_kb"])
            if "trace" in payload:
                self.snaps.append(payload["trace"])
        return wall

    def rounds(self, seconds: float, min_rounds: int, began: float,
               between=lambda: None) -> list[float]:
        """Whole rounds for `seconds`, at least `min_rounds`; `between` runs
        after each round, outside the rounds' wall times."""
        walls = []
        deadline = time.perf_counter() + seconds
        while len(walls) < min_rounds or time.perf_counter() < deadline:
            if walls and time.perf_counter() - began > HARD_LIMIT_S:
                break
            walls.append(self.round())
            between()
        return walls


def load_arl(src: Path) -> dict:
    sys.path.insert(0, str(src))
    package = importlib.import_module("arl")
    if Path(package.__file__).resolve().parent != (src / "arl").resolve():
        raise ImportError(f"arl was imported from {package.__file__}, not from {src}")
    modules = {layer: importlib.import_module(f"arl.{layer}") for layer in LAYERS}
    modules["package"] = package
    return modules


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    began = time.perf_counter()
    # Turn SIGTERM into SystemExit, so that the running child is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = Path.cwd() / "src"
    if not (src / "arl" / "__init__.py").is_file():
        print(f"error: no arl sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    modules = load_arl(src)
    env = dict(os.environ, PYTHONPATH=str(src))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[ns.workload](ns.seed)

    if modules["intmat"]._snf_cached.cache_info().currsize:
        raise RuntimeError("the parent process warmed the SNF cache")

    if ns.trace:
        # One untraced round for the overhead, then traced rounds.
        run = Run(workload, None, None)
        reference = run.round()
        run.spans_path = OUT_DIR / f"trace-{ns.workload}.spans"
        run.spans_path.write_bytes(b"")
        run.trace = Tracer(modules)
        run.trace.install()
        walls = run.rounds(ns.seconds, 1, began)
        metrics = summarize(run.snaps, len(walls))
        metrics["trace.round_s"] = statistics.fmean(walls)
        metrics["trace.overhead_s"] = statistics.fmean(walls) - reference
        units = {k: ("s" if k.endswith("_s") else "B" if k.endswith("bytes") else "count")
                 for k in metrics}
        workload.final_check()
    else:
        start_ups(1, env)  # compiles the bytecode once
        setup = start_ups(SETUP_LAUNCHES, env)
        run = Run(workload, None, None)
        walls = run.rounds(ns.seconds, workload.min_rounds, began,
                           between=lambda: setup.extend(start_ups(1, env)))
        setup += start_ups(SETUP_LAUNCHES, env)
        workload.final_check()
        # The figures come from the slowest third of the rounds, ranked by their
        # median latency, which a short stall does not move: see README.md.
        by_median = sorted(range(len(walls)), key=lambda i: -statistics.median(run.round_lat[i]))
        slow = by_median[:math.ceil(len(walls) / 3)]
        lat = sorted(x for i in slow for x in run.round_lat[i])
        # An operation's tail latency is its best in those rounds, so that a
        # stall in one round does not make the tail.
        best = sorted(min(x) for x in zip(*(run.round_lat[i] for i in slow)))
        # Likewise the set-up time is the median of the slowest third of the
        # start-ups, which are spread over the run as the rounds are.
        slow_setup = sorted(setup, reverse=True)[:math.ceil(len(setup) / 3)]
        metrics = {
            "ops_per_s": len(lat) / sum(walls[i] for i in slow),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": percentile(best, workload.tail_pct) * 1e3,
            "setup_s": statistics.median(slow_setup),
            "peak_rss_mb": run.rss_kb / 1024,
        }
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}

    correct = not workload.errors
    for err in workload.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"{ns.workload} seed={ns.seed} rounds={len(walls)} ops={run.attempted} "
          f"failed={run.failed} took={time.perf_counter() - began:.1f}s", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
