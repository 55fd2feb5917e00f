"""The final per-thread prediction record and its wire format.

A VeracityPrediction carries the label plus the full evidence trail
(channel, routing assignment, 2-class evidence vector, entropy, reply
count, warnings), enough to replay the decision rule offline. Predictions
serialize to line-delimited JSON with a fixed field set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

from .certainty import ChannelAssignment
from .corpus import read_jsonl
from .probs import ProbVector, decide

CHANNEL_LIE = "lie"
CHANNEL_AGREEMENT = "agreement"

WARN_NO_PRIMARY_REPLIES = "no_primary_replies"
WARN_DEGENERATE_EVIDENCE = "degenerate_evidence"


@dataclass(frozen=True)
class VeracityPrediction:
    thread_id: str
    label: str
    channel: str
    assignment: Optional[ChannelAssignment]
    evidence: ProbVector
    entropy: float
    n_replies_used: int
    warnings: tuple[str, ...] = ()

    def replays(self, labels: tuple[str, str], epsilon: float) -> bool:
        """True when the stored evidence reconstructs the stored label."""
        return decide(self.evidence, labels, epsilon) == self.label


def prediction_to_dict(pred: VeracityPrediction) -> dict:
    assignment = None
    if pred.assignment is not None:
        assignment = {
            "label": pred.assignment.label,
            "confidence": [pred.assignment.confidence[0], pred.assignment.confidence[1]],
        }
    return {
        "thread_id": pred.thread_id,
        "label": pred.label,
        "channel": pred.channel,
        "assignment": assignment,
        "evidence": [pred.evidence[0], pred.evidence[1]],
        "entropy": pred.entropy,
        "n_replies_used": pred.n_replies_used,
        "warnings": list(pred.warnings),
    }


def prediction_from_dict(obj: dict) -> VeracityPrediction:
    raw = obj.get("assignment")
    assignment = None
    if raw is not None:
        assignment = ChannelAssignment(
            thread_id=obj["thread_id"],
            label=raw["label"],
            confidence=ProbVector(tuple(raw["confidence"])),
        )
    return VeracityPrediction(
        thread_id=obj["thread_id"],
        label=obj["label"],
        channel=obj["channel"],
        assignment=assignment,
        evidence=ProbVector(tuple(obj["evidence"])),
        entropy=float(obj["entropy"]),
        n_replies_used=int(obj["n_replies_used"]),
        warnings=tuple(obj.get("warnings", ())),
    )


def save_predictions_jsonl(preds: Iterable[VeracityPrediction], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pred in preds:
            fh.write(json.dumps(prediction_to_dict(pred), sort_keys=True))
            fh.write("\n")


def load_predictions_jsonl(path) -> list[VeracityPrediction]:
    """Read a prediction file back, e.g. to check each record replays; a
    line that is not a prediction record raises MalformedStructure naming
    the line."""
    return read_jsonl(path, prediction_from_dict, "prediction")
