#!/usr/bin/env python3
"""Run the benchmark over ten seeds and report each metric's spread.

    python3 perfbench/prove.py

For every workload in BENCHMARK.json it runs `run.py` for `run_seconds`
once per seed 1-10 (--trace 0), then takes each end-to-end metric's median
and its spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. A spread
at or above a third of the metric's bound is flagged, and makes the exit
code 1. It then makes two traced runs on seed 1 and checks that every
count repeats exactly.

It writes those figures, the traced counts and the machine (nproc,
Python, numpy, git sha) to perfbench/BASELINE.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACE_RUNS = 2

# Counts that later changes cite; they must repeat exactly between runs.
CITED_COUNTS = (
    "backends.predict.calls",
    "backends.predict.distinct_ratio",
    "backends.predict.distinct_text_ratio",
    "corpus.filter_window.calls",
    "manifest.files_hashed",
    "agreement.pairs_scored",
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    count_names = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes", "ratio")]

    report: dict = {}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        entry: dict = {"seeds": [SEEDS[0], SEEDS[-1]], "end_to_end": {}}
        for seed in SEEDS:
            runs.append(run_once(workload, seed, seconds, 0))
            values = {k: round(v["value"], 6) for k, v in runs[-1]["metrics"].items()}
            print(f"{workload} seed {seed}: {values}", flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3 = spread(values)
            share = (q3 - q1) / median
            flag = "" if share < bound / 3 else "  <-- spread >= bound/3"
            steady = steady and not flag
            print(f"  {workload} {name}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {share:.4f} (bound {bound}){flag}", flush=True)
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": share, "values": values,
            }
        traced = [run_once(workload, SEEDS[0], seconds, 1) for _ in range(TRACE_RUNS)]
        counts = [{k: t["metrics"][k]["value"] for k in count_names} for t in traced]
        repeat = all(c == counts[0] for c in counts)
        steady = steady and repeat
        cited = {k: counts[0][k] for k in CITED_COUNTS}
        print(f"  {workload} all {len(count_names)} traced counts (seed {SEEDS[0]}) "
              f"{'repeat' if repeat else 'DIFFER'}; cited: {cited}", flush=True)
        entry["traced_counts"] = {"seed": SEEDS[0], "repeat": repeat, **cited}
        entry["per_layer"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        report[workload] = entry

    import numpy

    doc = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_sha": git_sha(),
        },
        "run_seconds": seconds,
        "workloads": report,
    }
    (HERE / "BASELINE.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
