#!/usr/bin/env python3
"""The rumorvet benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program under test is `src/rumorvet` of
that checkout, imported from source (it needs no build).

1. Inputs are generated from --seed into a scratch directory under
   `.perfbench_work/` (not timed; removed at the end).
2. Set-up runs in fresh child processes, SETUP_REPEATS times, each on an
   empty output directory: `import rumorvet`
   plus, for the classify workloads, training and saving the models they
   classify with. setup_s is the median; the models must come out
   byte-identical every time. Half the passes run before step 3 and half
   after it.
3. One fresh child process repeats the workload's CLI command sequence for
   --seconds. Each iteration starts with only the set-up models in the
   output directory, and its outputs are checked. With --trace 0 it runs
   untraced and yields the end-to-end metrics; with --trace 1 it alternates
   untraced and traced iterations and yields the per-layer metrics. Spans
   of the first traced iteration go to `.perfbench_out/`.

Every end-to-end time is scaled to a reference host speed: a fixed probe
(hostspeed.py) is timed just before and after each timed span, and the
span's time is multiplied by REFERENCE_PROBE_S over the probes' mean. On a
shared VM whose speed drifts by up to 2.5x this is what keeps runs of the
same code comparable. The unscaled medians and the probe's median are
printed too.

Human-readable lines come first; the last stdout line is the JSON result.
The exit code is 0 only when every CLI command exited 0 and every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "predictions_per_s": "predictions/s",
    "train_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _child(args: list[str], log, timeout: float) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # A fixed hash seed gives every child the same dict and set layouts,
    # which removes one source of run-to-run variation.
    env["PYTHONHASHSEED"] = "0"
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=log, check=True, timeout=timeout,
    )


def summarize(values: list[float]) -> str:
    """Median plus the highest listed percentile with >= 10 samples above it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    for q in (99.9, 99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            text += f", p{q:g} {percentile(values, q):.6g}"
            break
    return text + f" (n={n})"


def end_to_end(setups: list[dict], run: dict) -> tuple[dict, list[str]]:
    """The end-to-end metrics and their printed lines."""
    from hostspeed import REFERENCE_PROBE_S

    its = [it for it in run["iterations"] if not it["warmup"]]
    walls = [it["wall_s"] for it in its]
    scoring = [
        it["predictions"] / sum(c["s"] for c in it["commands"] if c["name"] in ("classify", "ablate"))
        for it in its
    ]
    if any(c["name"] == "train" for c in its[0]["commands"]):
        trains = [sum(c["s"] for c in it["commands"] if c["name"] == "train") for it in its]
    else:
        trains = [s["train_s"] for s in setups]
    samples = {
        "wall_s": walls,
        "predictions_per_s": scoring,
        "train_s": trains,
        "setup_s": [s["setup_s"] for s in setups],
        "peak_rss_mb": [run["peak_rss_mb"]],
    }
    metrics = {
        key: {"value": statistics.median(values), "unit": END_TO_END_UNITS[key]}
        for key, values in samples.items()
    }
    lines = [
        f"{key}: {summarize(values)} {END_TO_END_UNITS[key]}" for key, values in samples.items()
    ]
    raw_walls = [it["raw_wall_s"] for it in its]
    probes = [c["probe_s"] for it in its for c in it["commands"]]
    lines += [
        f"unscaled wall_s: {summarize(raw_walls)} s",
        f"unscaled setup_s: {summarize([s['raw_setup_s'] for s in setups])} s",
        f"host probe: {summarize(probes)} s (reference {REFERENCE_PROBE_S} s)",
    ]
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "rumorvet" / "__init__.py").is_file():
        print(f"perfbench: no rumorvet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from inputs import build_corpus, write_inputs
    from tracing import LAYER_METRICS, percentile
    from workloads import SETUP_REPEATS, WORKLOADS, output_digests

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} ({', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    import numpy

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"why: {workload.why}")
    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}")

    work = ROOT / ".perfbench_work" / f"{workload.name}-s{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.trace:
        out_dir.mkdir(exist_ok=True)
    try:
        write_inputs(build_corpus(workload.inputs, args.seed), work / "in",
                     train_as_dir=workload.grid, test_as_dir=workload.test_as_dir)
        with open(work / "cli.log", "w") as log:
            setups, digests = [], []

            def setup_pass() -> None:
                _child(["setup", workload.name, str(work), str(work / "setup.json"),
                        "--trace", str(args.trace)], log, CHILD_TIMEOUT_S)
                setups.append(json.loads((work / "setup.json").read_text()))
                digests.append(output_digests(work))

            # Half the set-up passes run before the timed child (which needs
            # their models) and half after it, so setup_s samples the host
            # over the whole run rather than over its first seconds.
            repeats = 1 if args.trace else SETUP_REPEATS
            for _ in range((repeats + 1) // 2):
                setup_pass()
            _child(["run", workload.name, str(work), str(work / "run.json"),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--spans", str(out_dir / f"spans-{workload.name}-s{args.seed}.jsonl")],
                   log, CHILD_TIMEOUT_S)
            for _ in range(repeats // 2):
                setup_pass()
        run = json.loads((work / "run.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    # A command fails when it exits non-zero or when a check on its output
    # fails; each counts once.
    codes = [c for s in setups for c in s["codes"]]
    failures = [f"set-up command exited {c}" for c in codes if c != 0]
    attempted, failed = len(codes), len(failures)
    if any(d != digests[0] for d in digests):
        failures.append("set-up models differ between repeats")
        failed += 1
    for it in run["iterations"]:
        attempted += len(it["commands"])
        bad = [f"{c['name']} exited {c['code']}" for c in it["commands"] if c["code"] != 0]
        failed += len(bad) or (1 if it["failures"] else 0)
        failures += bad + it["failures"]
    if run.get("counts_repeat") is False:
        failures.append("traced counts differ between iterations")
        failed += 1
    f1 = min(it["macro_f1"] for it in run["iterations"])

    if failed:
        metrics = {}  # timings of a failing run are not comparable
    elif args.trace:
        traced = [it["wall_s"] for it in run["iterations"] if it["traced"]]
        untraced = [it["wall_s"] for it in run["iterations"]
                    if not it["traced"] and not it["warmup"]]
        layers = dict(run["layers"])
        layers.update(setups[0].get("layers", {}))
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        mismatch = sorted(layers.keys() ^ LAYER_METRICS.keys())
        if mismatch:
            failures.append(f"per-layer metrics differ from the declared set: {mismatch}")
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u} for k, (u, _) in LAYER_METRICS.items()}
        for k, m in metrics.items():
            print(f"{k}: {m['value']:.6g} {m['unit']}")
        print(f"pipeline.classify samples: {run.get('classify_samples', 0)}")
    else:
        metrics, lines = end_to_end(setups, run)
        print(*lines, sep="\n")
    print(f"error_rate: {failed / attempted:.6g} ratio ({failed} of {attempted} commands)")
    print(f"double_macro_f1: {f1:.6g} (1.0 on the planted data)")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
