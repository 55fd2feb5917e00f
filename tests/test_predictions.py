"""Prediction records: replay rule and the JSONL wire format."""

import json
import re

import pytest

from rumorvet.certainty import CERTAIN, ChannelAssignment
from rumorvet.predictions import (
    CHANNEL_AGREEMENT,
    CHANNEL_LIE,
    VeracityPrediction,
    load_predictions_jsonl,
    prediction_from_dict,
    prediction_to_dict,
    save_predictions_jsonl,
)
from rumorvet.errors import MalformedStructure
from rumorvet.probs import FALSE, TRUE, UNVERIFIED, ProbVector


def _pred(**overrides):
    base = dict(
        thread_id="t1",
        label=TRUE,
        channel=CHANNEL_LIE,
        assignment=ChannelAssignment("t1", CERTAIN, ProbVector((0.8, 0.2))),
        evidence=ProbVector((0.9, 0.1)),
        entropy=0.469,
        n_replies_used=0,
        warnings=(),
    )
    base.update(overrides)
    return VeracityPrediction(**base)


class TestReplay:
    def test_stored_evidence_reconstructs_label(self):
        assert _pred().replays((TRUE, FALSE), 1e-3)

    def test_mismatched_evidence_fails_replay(self):
        assert not _pred(label=FALSE).replays((TRUE, FALSE), 1e-3)

    def test_abstention_replays(self):
        pred = _pred(label=UNVERIFIED, evidence=ProbVector((0.5, 0.5)), entropy=1.0)
        assert pred.replays((TRUE, FALSE), 1e-3)


class TestWireFormat:
    def test_round_trip_with_assignment(self):
        pred = _pred()
        assert prediction_from_dict(prediction_to_dict(pred)) == pred

    def test_round_trip_without_assignment(self):
        pred = _pred(assignment=None, channel=CHANNEL_AGREEMENT, n_replies_used=3)
        assert prediction_from_dict(prediction_to_dict(pred)) == pred

    def test_warnings_survive(self):
        pred = _pred(warnings=("no_primary_replies",))
        assert prediction_from_dict(prediction_to_dict(pred)).warnings == ("no_primary_replies",)

    def test_jsonl_round_trip(self, tmp_path):
        preds = [_pred(), _pred(thread_id="t2", assignment=None)]
        path = tmp_path / "preds.jsonl"
        save_predictions_jsonl(preds, path)
        assert load_predictions_jsonl(path) == preds

    @pytest.mark.parametrize(
        "change,says",
        [
            (lambda d: d.pop("label"), "KeyError('label')"),
            (lambda d: d.update(evidence=0.5), "TypeError"),
            (lambda d: d.update(evidence=[0.5, 0.6]), "ValueError"),
            (lambda d: d.update(n_replies_used="many"), "ValueError"),
            (lambda d: d.update(assignment=[]), "TypeError"),
        ],
        ids=["missing_key", "evidence_not_a_list", "evidence_not_a_distribution", "count_not_a_number", "assignment_a_list"],
    )
    def test_jsonl_bad_record_names_the_line(self, tmp_path, change, says):
        record = prediction_to_dict(_pred())
        change(record)
        path = tmp_path / "preds.jsonl"
        path.write_text(json.dumps(prediction_to_dict(_pred())) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(MalformedStructure, match=re.escape(f"preds.jsonl: line 2 is not a prediction record: {says}")):
            load_predictions_jsonl(path)

    def test_jsonl_bad_json_names_the_line(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text("\n" + "[" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(MalformedStructure, match="preds.jsonl: line 2 is invalid JSON"):
            load_predictions_jsonl(path)

    def test_fixed_field_set(self):
        assert sorted(prediction_to_dict(_pred())) == [
            "assignment",
            "channel",
            "entropy",
            "evidence",
            "label",
            "n_replies_used",
            "thread_id",
            "warnings",
        ]
