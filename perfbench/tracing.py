"""In-memory span tracing around calls into each rumorvet layer.

Spans are recorded from the benchmark's side: `Tracer.install()` replaces
each traced function with a timing wrapper in every `rumorvet` namespace
that holds it by name (the CLI and the pipeline import their callees with
`from ... import`), and patches `ReferenceBackend` methods on the class.
`uninstall()` puts the originals back, so untraced iterations run the
program exactly as shipped.

A span is (id, name, start, end, parent id); every span of one iteration
shares that iteration's run id. Counts are taken after a span closes, so
the bookkeeping is not inside any measured interval.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Optional

LAYERS = (
    "cli",
    "corpus",
    "backends",
    "certainty",
    "lie",
    "agreement",
    "pipeline",
    "evaluation",
    "predictions",
    "manifest",
)


# Every per-layer metric a traced run reports: name -> (unit, better).
LAYER_METRICS = {
    "backends.predict.s": ("s", "lower"),
    "backends.predict.calls": ("count", "lower"),
    "backends.predict.distinct_ratio": ("ratio", "higher"),
    "backends.predict.distinct_text_ratio": ("ratio", "higher"),
    "backends.fit.s": ("s", "lower"),
    "backends.fit.examples": ("count", "lower"),
    "backends.save_model.s": ("s", "lower"),
    "backends.load_model.s": ("s", "lower"),
    "backends.model_bytes": ("bytes", "lower"),
    "setup.fit.s": ("s", "lower"),
    "setup.fit.examples": ("count", "lower"),
    "setup.save_model.s": ("s", "lower"),
    "corpus.load_split.s": ("s", "lower"),
    "corpus.posts_per_s": ("posts/s", "higher"),
    "corpus.jsonl_load.s": ("s", "lower"),
    "corpus.jsonl_save.s": ("s", "lower"),
    "corpus.filter_window.calls": ("count", "lower"),
    "certainty.classify.calls": ("count", "lower"),
    "certainty.train_phase1.s": ("s", "lower"),
    "lie.classify.calls": ("count", "lower"),
    "lie.classify.s": ("s", "lower"),
    "agreement.pairs_scored": ("count", "lower"),
    "agreement.score_pairs.s": ("s", "lower"),
    "agreement.aggregate.s": ("s", "lower"),
    "agreement.abstained.no_primary_replies": ("count", "lower"),
    "agreement.abstained.degenerate_evidence": ("count", "lower"),
    "pipeline.run_batch.self_s": ("s", "lower"),
    "pipeline.classify.p50_us": ("us", "lower"),
    "pipeline.classify.p99_us": ("us", "lower"),
    "evaluation.restrict_to_windowed.s": ("s", "lower"),
    "evaluation.build_report.s": ("s", "lower"),
    "evaluation.render.s": ("s", "lower"),
    "evaluation.rows": ("count", "higher"),
    "predictions.save_jsonl.s": ("s", "lower"),
    "predictions.written": ("count", "higher"),
    "manifest.checksum.s": ("s", "lower"),
    "manifest.files_hashed": ("count", "lower"),
    "manifest.bytes_hashed": ("bytes", "lower"),
    "cli.ingest.s": ("s", "lower"),
    "cli.train.s": ("s", "lower"),
    "cli.classify.s": ("s", "lower"),
    "cli.ablate.s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, Optional[int]]] = []
        self.counts: Counter = Counter()
        self.distinct_inputs: set = set()
        # Every model passed to predict since the last reset, held so that
        # no id() in distinct_inputs can be reused by a later model.
        self.models: dict[int, object] = {}
        self.texts: set = set()
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span; used for the wrappers and for the CLI calls."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def _wrapper(self, name: str, fn: Callable, after: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.distinct_inputs = set()
        self.models = {}
        self.texts = set()

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        from rumorvet.backends import ReferenceBackend

        for owner_name, attr, name, after in _TARGETS:
            if owner_name == "ReferenceBackend":
                original = getattr(ReferenceBackend, attr)
                self._patch(ReferenceBackend, attr, self._wrapper(name, original, after))
                continue
            original = getattr(sys.modules[owner_name], attr)
            wrapper = self._wrapper(name, original, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "rumorvet" or mod_name.startswith("rumorvet."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    # -- results -------------------------------------------------------------

    def layer_stats(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time: dict[int, float] = defaultdict(float)
        for sid, name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child_time[parent] += end - start
        self_time: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for sid, name, start, end, parent in self.spans:
            self_time[f"{name.split('.')[0]}.self_s"] += end - start - child_time[sid]
        run_batch_self = sum(
            end - start - child_time[sid]
            for sid, name, start, end, _ in self.spans
            if name == "pipeline.run_batch"
        )
        c = self.counts
        out = {
            "backends.predict.s": total["backends.predict"],
            "backends.predict.calls": calls["backends.predict"],
            "backends.predict.distinct_ratio": (
                len(self.distinct_inputs) / calls["backends.predict"] if calls["backends.predict"] else 0.0
            ),
            "backends.predict.distinct_text_ratio": (
                len(self.texts) / c["predict_texts"] if c["predict_texts"] else 0.0
            ),
            "backends.fit.s": total["backends.fit"],
            "backends.fit.examples": c["fit_examples"],
            "backends.save_model.s": total["backends.save_model"],
            "backends.load_model.s": total["backends.load_model"],
            "backends.model_bytes": c["model_bytes"],
            "corpus.load_split.s": total["corpus.load_split"],
            "corpus.posts_per_s": (
                c["posts"] / total["corpus.load_split"] if total["corpus.load_split"] else 0.0
            ),
            "corpus.jsonl_load.s": total["corpus.jsonl_load"],
            "corpus.jsonl_save.s": total["corpus.jsonl_save"],
            "corpus.filter_window.calls": calls["corpus.filter_window"],
            "certainty.classify.calls": calls["certainty.classify"],
            "certainty.train_phase1.s": total["certainty.train_phase1"],
            "lie.classify.calls": calls["lie.classify"],
            "lie.classify.s": total["lie.classify"],
            "agreement.pairs_scored": c["pairs_scored"],
            "agreement.score_pairs.s": total["agreement.score_pairs"],
            "agreement.aggregate.s": total["agreement.aggregate"],
            "agreement.abstained.no_primary_replies": c["abstained.no_primary_replies"],
            "agreement.abstained.degenerate_evidence": c["abstained.degenerate_evidence"],
            "pipeline.run_batch.self_s": run_batch_self,
            "evaluation.restrict_to_windowed.s": total["evaluation.restrict_to_windowed"],
            "evaluation.build_report.s": total["evaluation.build_report"],
            "evaluation.render.s": total["evaluation.render"],
            "evaluation.rows": calls["evaluation.build_report"],
            "predictions.save_jsonl.s": total["predictions.save_jsonl"],
            "predictions.written": c["written"],
            "manifest.checksum.s": total["manifest.checksum"],
            "manifest.files_hashed": c["files_hashed"],
            "manifest.bytes_hashed": c["bytes_hashed"],
        }
        for command in ("ingest", "train", "classify", "ablate"):
            out[f"cli.{command}.s"] = total[f"cli.{command}"]
        out.update(self_time)
        return out

    def classify_latencies_us(self) -> list[float]:
        return [
            (end - start) * 1e6 for _, name, start, end, _ in self.spans if name == "pipeline.classify"
        ]


# -- what each traced call counts --------------------------------------------


def _predict(t: Tracer, args, result) -> None:
    model, x = args[0], args[1]
    t.models.setdefault(id(model), model)
    t.distinct_inputs.add((id(model), x))
    texts = x if isinstance(x, tuple) else (x,)
    t.texts.update(texts)
    t.counts["predict_texts"] += len(texts)


def _fit(t: Tracer, args, result) -> None:
    t.counts["fit_examples"] += len(args[1])


def _load_model(t: Tracer, args, result) -> None:
    t.counts["model_bytes"] += os.stat(args[0]).st_size


def _load_split(t: Tracer, args, result) -> None:
    t.counts["posts"] += sum(1 + len(c.replies) for c in result)


def _score_pairs(t: Tracer, args, result) -> None:
    t.counts["pairs_scored"] += len(result)


def _classify_agreement(t: Tracer, args, result) -> None:
    for warning in result.warnings:
        t.counts[f"abstained.{warning}"] += 1


def _save_predictions(t: Tracer, args, result) -> None:
    t.counts["written"] += len(args[0])


def _sha256_file(t: Tracer, args, result) -> None:
    t.counts["files_hashed"] += 1
    t.counts["bytes_hashed"] += os.stat(args[0]).st_size


# (owner module or "ReferenceBackend", attribute, span name, counter)
_TARGETS = (
    ("ReferenceBackend", "predict", "backends.predict", _predict),
    ("ReferenceBackend", "fit", "backends.fit", _fit),
    ("rumorvet.backends", "load_model", "backends.load_model", _load_model),
    ("rumorvet.backends", "save_model", "backends.save_model", None),
    ("rumorvet.corpus", "load_split", "corpus.load_split", _load_split),
    ("rumorvet.corpus", "load_conversations_jsonl", "corpus.jsonl_load", None),
    ("rumorvet.corpus", "save_conversations_jsonl", "corpus.jsonl_save", None),
    ("rumorvet.corpus", "filter_window", "corpus.filter_window", None),
    ("rumorvet.corpus", "primary_pairs", "corpus.primary_pairs", None),
    ("rumorvet.certainty", "classify_certainty", "certainty.classify", None),
    ("rumorvet.certainty", "train_phase1", "certainty.train_phase1", None),
    ("rumorvet.lie", "classify_lie", "lie.classify", None),
    ("rumorvet.agreement", "score_pairs", "agreement.score_pairs", _score_pairs),
    ("rumorvet.agreement", "aggregate", "agreement.aggregate", None),
    ("rumorvet.agreement", "classify_agreement", "agreement.classify", _classify_agreement),
    ("rumorvet.pipeline", "run_batch", "pipeline.run_batch", None),
    ("rumorvet.pipeline", "classify", "pipeline.classify", None),
    ("rumorvet.evaluation", "restrict_to_windowed", "evaluation.restrict_to_windowed", None),
    ("rumorvet.evaluation", "build_report", "evaluation.build_report", None),
    ("rumorvet.evaluation", "render_reports", "evaluation.render", None),
    ("rumorvet.evaluation", "reports_to_json", "evaluation.render", None),
    ("rumorvet.predictions", "save_predictions_jsonl", "predictions.save_jsonl", _save_predictions),
    ("rumorvet.manifest", "checksum", "manifest.checksum", None),
    ("rumorvet.manifest", "sha256_file", "manifest.sha256_file", _sha256_file),
)


def write_spans(path, run_id: int, spans) -> None:
    """One JSON line per span: [run id, span id, name, start, end, parent id]."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, name, start, end, parent in spans:
            fh.write(json.dumps([run_id, sid, name, start, end, parent]) + "\n")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median_stats(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(it[k] for it in per_iteration) for k in per_iteration[0]}
