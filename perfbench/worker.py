"""Child process of run.py: one set-up pass, or the timed loop of a workload.

    python3 perfbench/worker.py setup WORKLOAD WORKDIR RESULT_JSON --trace 0|1
    python3 perfbench/worker.py run WORKLOAD WORKDIR RESULT_JSON --trace 0|1 \
        --seconds S --spans SPANS_JSONL

`setup` empties WORKDIR/out, then times `import rumorvet` and the
workload's set-up train commands. `run` first runs the workload's command
sequence once as a warm-up, untimed and with no probe, and takes the
process's peak RSS right after it. It then repeats the sequence until S
seconds have passed. Every iteration starts on outputs cleared back to the
set-up models, and every iteration's outputs are checked.
Every timed span is followed by a host-speed probe (hostspeed.py), and its
time is scaled by the probes on either side of it; `raw_s` keeps the
unscaled time.
With --trace 1, iterations alternate untraced and traced, so the tracing
overhead is the difference of the two medians. The result goes to
RESULT_JSON; the CLI's own printing goes to this process's stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import LAYER_METRICS, Tracer, median_stats, percentile, write_spans  # noqa: E402

# `workloads` imports rumorvet and `hostspeed` imports numpy, so both are
# imported only after set-up has timed the first `import rumorvet` of this
# process.


def _call(cli, argv: list[str], tracer: Tracer | None) -> int:
    """One CLI command; an escaped exception counts as a failure."""
    try:
        if tracer is not None:
            return tracer.span(f"cli.{argv[0]}", cli.main, argv)
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return -1


def setup(workload, w: Path, trace: bool, import_s: float) -> dict:
    import rumorvet.cli as cli
    from hostspeed import probe, scaled

    shutil.rmtree(w / "out", ignore_errors=True)
    # Nothing ran before the import, so only the probe after it scales it.
    before = probe()
    import_scaled = scaled(import_s, before, before)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    codes, train_s, train_raw_s = [], 0.0, 0.0
    for argv in workload.setup_commands(w):
        t0 = perf_counter()
        codes.append(_call(cli, argv, tracer))
        raw = perf_counter() - t0
        after = probe()
        train_s += scaled(raw, before, after)
        train_raw_s += raw
        before = after
    result = {
        "import_s": import_scaled,
        "train_s": train_s,
        "setup_s": import_scaled + train_s,
        "raw_setup_s": import_s + train_raw_s,
        "codes": codes,
    }
    if tracer is not None:
        tracer.uninstall()
        stats = tracer.layer_stats()
        result["layers"] = {
            "setup.fit.s": stats["backends.fit.s"],
            "setup.fit.examples": stats["backends.fit.examples"],
            "setup.save_model.s": stats["backends.save_model.s"],
        }
    return result


def run(workload, w: Path, seconds: float, trace: bool, spans_path: Path) -> dict:
    import rumorvet.cli as cli
    from hostspeed import probe, scaled
    from workloads import output_digests

    tracer = Tracer() if trace else None
    iterations = []
    first_digests = None
    kept_spans = None  # the first traced iteration's spans, written at the end
    start = perf_counter()
    peak_rss_mb = 0.0
    # Iteration 0 is the warm-up; after it come at least one timed iteration
    # and, when tracing, at least one traced one.
    while len(iterations) < 2 or perf_counter() - start < seconds or (trace and len(iterations) < 3):
        warmup = not iterations
        traced = trace and len(iterations) % 2 == 1
        workload.clear_outputs(w)
        if traced:
            tracer.reset()
            tracer.install()
        commands = []
        before = None if warmup else probe()
        try:
            argvs = workload.timed_commands(w)
            for i, argv in enumerate(argvs):
                c0 = perf_counter()
                code = _call(cli, argv, tracer if traced else None)
                commands.append({"name": argv[0], "raw_s": perf_counter() - c0, "code": code})
                # Consecutive commands of one kind (the two ingests, the two
                # trains) share one pair of probes: fewer probes leave time
                # for more iterations.
                if not warmup and (i + 1 == len(argvs) or argvs[i + 1][0] != argv[0] or code != 0):
                    after = probe()
                    for c in commands:
                        if "s" not in c:
                            c["s"] = scaled(c["raw_s"], before, after)
                            c["probe_s"] = (before + after) / 2
                    before = after
                if code != 0:
                    break
        finally:
            if traced:
                tracer.uninstall()
        if warmup:
            # Before the first probe or output check, so it is the program's own peak.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures, n_predictions, f1 = workload.check(w) if commands[-1]["code"] == 0 else ([], 0, 0.0)
        digests = output_digests(w)
        if first_digests is None:
            first_digests = digests
        elif digests != first_digests:
            changed = sorted(k for k in digests.keys() | first_digests.keys()
                             if digests.get(k) != first_digests.get(k))
            failures.append(f"outputs differ from the first iteration: {changed}")
        it = {
            "wall_s": None if warmup else sum(c["s"] for c in commands),
            "raw_wall_s": sum(c["raw_s"] for c in commands),
            "warmup": warmup,
            "traced": traced,
            "commands": commands,
            "failures": failures,
            "predictions": n_predictions,
            "macro_f1": f1,
        }
        if traced:
            it["layers"] = tracer.layer_stats()
            it["classify_us"] = tracer.classify_latencies_us()
            if kept_spans is None:
                kept_spans = (len(iterations), tracer.spans)
        iterations.append(it)
        if warmup:
            start = perf_counter()
        if any(c["code"] != 0 for c in commands):
            break
    if kept_spans is not None:
        write_spans(spans_path, *kept_spans)
    result = {
        "iterations": [{k: v for k, v in it.items() if k not in ("layers", "classify_us")}
                       for it in iterations],
        "peak_rss_mb": peak_rss_mb,
    }
    traced_its = [it for it in iterations if it["traced"]]
    if traced_its:
        layers = median_stats([it["layers"] for it in traced_its])
        counts = [
            {k: v for k, v in it["layers"].items() if LAYER_METRICS[k][0] in ("count", "bytes", "ratio")}
            for it in traced_its
        ]
        result["counts_repeat"] = all(c == counts[0] for c in counts)
        latencies = [us for it in traced_its for us in it["classify_us"]]
        layers["pipeline.classify.p50_us"] = percentile(latencies, 50) if latencies else 0.0
        layers["pipeline.classify.p99_us"] = percentile(latencies, 99) if latencies else 0.0
        result["layers"] = layers
        result["classify_samples"] = len(latencies)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    phases = parser.add_subparsers(dest="phase", required=True)
    for phase in ("setup", "run"):
        sub = phases.add_parser(phase)
        sub.add_argument("workload")
        sub.add_argument("workdir", type=Path)
        sub.add_argument("result", type=Path)
        sub.add_argument("--trace", type=int, choices=(0, 1), required=True)
        if phase == "run":
            sub.add_argument("--seconds", type=float, required=True)
            sub.add_argument("--spans", type=Path, required=True,
                             help="where --trace 1 writes the first traced iteration's spans")
    args = parser.parse_args()
    start = perf_counter()
    import rumorvet  # noqa: F401
    import rumorvet.cli  # noqa: F401

    import_s = perf_counter() - start
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.phase == "setup":
        result = setup(workload, args.workdir, bool(args.trace), import_s)
    else:
        result = run(workload, args.workdir, args.seconds, bool(args.trace), args.spans)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
