"""Metrics and report grids over veracity predictions.

The four reported numbers are macro-F1, accuracy, and macro-averaged
precision and recall over the three veracity classes. Per-class scores
with a zero denominator contribute 0 (the usual macro convention; it
bites when unverified is never predicted, so the report header states
it). Precision and recall are macro-averaged by default, with a micro
option; the header flags that choice too since the reported grids do not
label theirs.

Windowed runs ("n-day" rows) evaluate the subset of threads that still
have at least one primary reply inside the window; the reported Avg #
column is the mean surviving-primary-reply count over that subset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .corpus import Conversation, filter_window
from .errors import EmptyMatrix, IdMismatch
from .pipeline import PipelineConfig
from .predictions import VeracityPrediction
from .probs import VERACITY_CLASSES

PredsLike = Union[Sequence[VeracityPrediction], Mapping[str, str]]

REPORT_NOTES = (
    "zero-denominator per-class precision/recall/F1 counted as 0",
    "precision/recall columns are macro-averaged unless marked micro",
)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square count matrix; rows are gold classes, columns predictions."""

    counts: tuple[tuple[int, ...], ...]
    classes: tuple[str, ...] = VERACITY_CLASSES

    def __post_init__(self):
        k = len(self.classes)
        if k < 2:
            raise ValueError("need at least 2 classes")
        if len(self.counts) != k or any(len(row) != k for row in self.counts):
            raise ValueError(f"counts must be {k}x{k}")
        for row in self.counts:
            for v in row:
                if not isinstance(v, int) or v < 0:
                    raise ValueError(f"counts must be non-negative integers, got {v!r}")

    @classmethod
    def zeros(cls, classes: tuple[str, ...] = VERACITY_CLASSES) -> "ConfusionMatrix":
        k = len(classes)
        return cls(tuple(tuple(0 for _ in range(k)) for _ in range(k)), classes)

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def trace(self) -> int:
        return sum(self.counts[i][i] for i in range(len(self.classes)))

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    def col_sums(self) -> tuple[int, ...]:
        k = len(self.classes)
        return tuple(sum(self.counts[i][j] for i in range(k)) for j in range(k))


def _pred_labels(preds: PredsLike) -> dict[str, str]:
    if isinstance(preds, Mapping):
        return dict(preds)
    return {p.thread_id: p.label for p in preds}


def confusion(
    preds: PredsLike,
    golds: Mapping[str, str],
    classes: tuple[str, ...] = VERACITY_CLASSES,
) -> ConfusionMatrix:
    """Count matrix over exactly the shared id set; mismatched ids fail."""
    predicted = _pred_labels(preds)
    missing = sorted(set(golds) - set(predicted))
    extra = sorted(set(predicted) - set(golds))
    if missing or extra:
        raise IdMismatch(
            f"prediction/gold id sets differ (missing={missing[:5]}, extra={extra[:5]})"
        )
    index = {c: i for i, c in enumerate(classes)}
    k = len(classes)
    counts = [[0] * k for _ in range(k)]
    for tid, gold in golds.items():
        if gold not in index:
            raise ValueError(f"gold label {gold!r} for {tid} not in {classes}")
        pred = predicted[tid]
        if pred not in index:
            raise ValueError(f"predicted label {pred!r} for {tid} not in {classes}")
        counts[index[gold]][index[pred]] += 1
    return ConfusionMatrix(tuple(tuple(row) for row in counts), classes)


@dataclass(frozen=True)
class MetricSummary:
    """The grid's four numbers plus the per-class breakdown behind them."""

    macro_f1: float
    accuracy: float
    precision: float
    recall: float
    per_class: Mapping[str, tuple[float, float, float]]
    average: str = "macro"

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.macro_f1, self.accuracy, self.precision, self.recall)


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def metrics(m: ConfusionMatrix, average: str = "macro") -> MetricSummary:
    """Precision/recall/F1 per class plus the averaged grid numbers.

    average="macro" is the unweighted class mean; "micro" pools counts,
    which for single-label classification collapses all three to accuracy.
    """
    if average not in ("macro", "micro"):
        raise ValueError(f"average must be macro or micro, got {average!r}")
    total = m.total()
    if total == 0:
        raise EmptyMatrix("confusion matrix has no observations")
    rows, cols = m.row_sums(), m.col_sums()
    per_class = {}
    for i, cls in enumerate(m.classes):
        p = _safe_div(m.counts[i][i], cols[i])
        r = _safe_div(m.counts[i][i], rows[i])
        f1 = _safe_div(2.0 * p * r, p + r)
        per_class[cls] = (p, r, f1)
    accuracy = m.trace() / total
    k = len(m.classes)
    macro_f1 = sum(v[2] for v in per_class.values()) / k
    if average == "macro":
        precision = sum(v[0] for v in per_class.values()) / k
        recall = sum(v[1] for v in per_class.values()) / k
    else:
        precision = recall = accuracy
    return MetricSummary(
        macro_f1=macro_f1,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        per_class=per_class,
        average=average,
    )


@dataclass(frozen=True)
class EvaluationReport:
    """One grid row: metrics for one (config, prediction set) pair. A row
    that kept no thread has no metrics (None)."""

    config: PipelineConfig
    matrix: ConfusionMatrix
    macro_f1: Optional[float]
    accuracy: Optional[float]
    precision: Optional[float]
    recall: Optional[float]
    avg_replies: Optional[float]
    n_threads: int
    average: str = "macro"

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "matrix": {
                "classes": list(self.matrix.classes),
                "counts": [list(row) for row in self.matrix.counts],
            },
            "macro_f1": self.macro_f1,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "avg_replies": self.avg_replies,
            "n_threads": self.n_threads,
            "average": self.average,
            "notes": list(REPORT_NOTES),
        }


def restrict_to_windowed(
    convs: Sequence[Conversation], window_days: Optional[int]
) -> list[Conversation]:
    """The evaluable subset for a window: windowed conversations that kept
    at least one primary reply. No window means no restriction."""
    if window_days is None:
        return list(convs)
    windowed = [filter_window(c, window_days) for c in convs]
    return [c for c in windowed if c.primary_replies()]


def _mean_nonzero(counts: Sequence[int]) -> Optional[float]:
    counts = [n for n in counts if n > 0]
    if not counts:
        return None
    return sum(counts) / len(counts)


def build_report(
    config: PipelineConfig,
    preds: PredsLike,
    golds: Mapping[str, str],
    average: str = "macro",
    reply_counts: Optional[Sequence[int]] = None,
) -> EvaluationReport:
    """Confusion plus metrics for one run. The Avg # column comes from the
    per-thread primary-reply counts of a scored grid row."""
    m = confusion(preds, golds)
    macro_f1, accuracy, precision, recall = metrics(m, average).astuple() if m.total() else (None,) * 4
    avg_replies = None if reply_counts is None else _mean_nonzero(reply_counts)
    return EvaluationReport(
        config=config,
        matrix=m,
        macro_f1=macro_f1,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        avg_replies=avg_replies,
        n_threads=m.total(),
        average=average,
    )


def _row_name(config: PipelineConfig) -> str:
    if config.reply_window_days is not None:
        return f"{config.mode}/{config.reply_window_days}d"
    return config.mode


def render_reports(reports: Sequence[EvaluationReport]) -> str:
    header = ["model", "macro_f1", "accuracy", "precision", "recall", "avg#", "#thr"]
    rows = [header]
    for r in reports:
        rows.append(
            [
                _row_name(r.config),
                *(_cell(v, ".4f") for v in (r.macro_f1, r.accuracy, r.precision, r.recall)),
                _cell(r.avg_replies, ".2f"),
                str(r.n_threads),
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [f"# {note}" for note in REPORT_NOTES]
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    return "\n".join(lines) + "\n"


def _cell(value: Optional[float], spec: str) -> str:
    return "-" if value is None else format(value, spec)


def reports_to_json(reports: Sequence[EvaluationReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"
