"""Confusion counting, metric conventions, grid rendering."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import sklearn.metrics as sklearn_metrics
except ImportError:
    sklearn_metrics = None

from rumorvet.errors import EmptyMatrix, IdMismatch
from rumorvet.evaluation import (
    REPORT_NOTES,
    ConfusionMatrix,
    build_report,
    confusion,
    metrics,
    render_reports,
    reports_to_json,
    restrict_to_windowed,
)
from rumorvet.pipeline import PipelineConfig
from rumorvet.predictions import CHANNEL_LIE, VeracityPrediction
from rumorvet.probs import FALSE, TRUE, UNVERIFIED, VERACITY_CLASSES, ProbVector

from ._support import make_conv, metrics_oracle

# Diagonal and row sums follow the published worked example: 19 of 31
# true, 20 of 40 false, 1 of 10 unverified, so accuracy is 40/81.
WORKED = ConfusionMatrix(((19, 6, 6), (10, 20, 10), (4, 5, 1)))

counts_matrices = st.lists(
    st.lists(st.integers(min_value=0, max_value=30), min_size=3, max_size=3),
    min_size=3,
    max_size=3,
).map(lambda rows: tuple(tuple(r) for r in rows))


class TestConfusionMatrix:
    def test_accessors(self):
        m = WORKED
        assert m.total() == 81
        assert m.trace() == 40
        assert m.row_sums() == (31, 40, 10)
        assert m.col_sums() == (33, 31, 17)

    def test_zeros(self):
        z = ConfusionMatrix.zeros()
        assert z.total() == 0 and z.classes == VERACITY_CLASSES

    @pytest.mark.parametrize(
        "counts",
        [
            ((1, 2), (3, 4), (5, 6)),
            ((1, 2, 3), (4, 5, 6), (7, 8, -1)),
            ((1.0, 2, 3), (4, 5, 6), (7, 8, 9)),
        ],
    )
    def test_rejects_bad_counts(self, counts):
        with pytest.raises(ValueError):
            ConfusionMatrix(counts)



def _pred(tid, label):
    return VeracityPrediction(
        thread_id=tid,
        label=label,
        channel=CHANNEL_LIE,
        assignment=None,
        evidence=ProbVector((0.9, 0.1)),
        entropy=0.5,
        n_replies_used=0,
    )


class TestConfusion:
    GOLDS = {"a": TRUE, "b": FALSE, "c": UNVERIFIED}

    def test_from_mapping(self):
        m = confusion({"a": TRUE, "b": TRUE, "c": UNVERIFIED}, self.GOLDS)
        assert m.counts[0][0] == 1
        assert m.counts[1][0] == 1
        assert m.counts[2][2] == 1

    def test_from_predictions(self):
        preds = [_pred("a", TRUE), _pred("b", FALSE), _pred("c", FALSE)]
        m = confusion(preds, self.GOLDS)
        assert m.trace() == 2
        assert m.counts[2][1] == 1

    def test_missing_ids(self):
        with pytest.raises(IdMismatch) as exc:
            confusion({"a": TRUE}, self.GOLDS)
        assert "'b'" in str(exc.value)

    def test_extra_ids(self):
        with pytest.raises(IdMismatch) as exc:
            confusion({**self.GOLDS, "zz": TRUE}, self.GOLDS)
        assert "'zz'" in str(exc.value)

    def test_unknown_gold_label(self):
        with pytest.raises(ValueError):
            confusion({"a": TRUE}, {"a": "half-true"})

    def test_unknown_pred_label(self):
        with pytest.raises(ValueError):
            confusion({"a": "half-true"}, {"a": TRUE})

    @given(
        st.dictionaries(
            st.text("ab", min_size=1, max_size=3),
            st.tuples(st.sampled_from(VERACITY_CLASSES), st.sampled_from(VERACITY_CLASSES)),
            min_size=0,
            max_size=12,
        )
    )
    def test_additive_over_disjoint_splits(self, table):
        ids = sorted(table)
        half = len(ids) // 2
        parts = []
        for chunk in (ids[:half], ids[half:]):
            golds = {i: table[i][0] for i in chunk}
            preds = {i: table[i][1] for i in chunk}
            parts.append(confusion(preds, golds))
        whole = confusion({i: t[1] for i, t in table.items()}, {i: t[0] for i, t in table.items()})
        summed = [[a + b for a, b in zip(r0, r1)] for r0, r1 in zip(parts[0].counts, parts[1].counts)]
        assert summed == [list(row) for row in whole.counts]


class TestMetrics:
    def test_worked_example_accuracy(self):
        s = metrics(WORKED)
        assert s.accuracy == pytest.approx(40 / 81, abs=1e-4)
        assert s.accuracy == pytest.approx(0.4938, abs=1e-4)

    def test_worked_example_against_oracle(self):
        s = metrics(WORKED)
        o = metrics_oracle(WORKED.counts)
        assert s.macro_f1 == pytest.approx(o["macro_f1"], abs=1e-12)
        assert s.precision == pytest.approx(o["macro_precision"], abs=1e-12)
        assert s.recall == pytest.approx(o["macro_recall"], abs=1e-12)

    def test_zero_support_class_scores_zero(self):
        m = ConfusionMatrix(((1, 1, 0), (1, 1, 0), (0, 0, 0)))
        s = metrics(m)
        assert s.accuracy == pytest.approx(0.5)
        assert s.per_class[UNVERIFIED] == (0.0, 0.0, 0.0)
        assert s.macro_f1 == pytest.approx(1 / 3)

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrix):
            metrics(ConfusionMatrix.zeros())

    def test_bad_average(self):
        with pytest.raises(ValueError):
            metrics(WORKED, average="weighted")

    def test_micro_collapses_to_accuracy(self):
        s = metrics(WORKED, average="micro")
        assert s.precision == s.recall == s.accuracy == pytest.approx(40 / 81)
        assert s.macro_f1 == metrics(WORKED).macro_f1

    @given(counts_matrices)
    def test_matches_oracle_everywhere(self, counts):
        m = ConfusionMatrix(counts)
        if m.total() == 0:
            return
        s = metrics(m)
        o = metrics_oracle(counts)
        assert s.macro_f1 == pytest.approx(o["macro_f1"], abs=1e-12)
        assert s.accuracy == pytest.approx(o["accuracy"], abs=1e-12)
        for i, cls in enumerate(m.classes):
            assert s.per_class[cls] == pytest.approx(o["per_class"][i], abs=1e-12)

    @given(counts_matrices)
    def test_macro_invariant_under_class_permutation(self, counts):
        m = ConfusionMatrix(counts)
        if m.total() == 0:
            return
        perm = (2, 0, 1)
        permuted = ConfusionMatrix(
            tuple(tuple(counts[i][j] for j in perm) for i in perm),
            classes=tuple(m.classes[i] for i in perm),
        )
        a, b = metrics(m), metrics(permuted)
        assert a.macro_f1 == pytest.approx(b.macro_f1, abs=1e-12)
        assert a.accuracy == pytest.approx(b.accuracy, abs=1e-12)

    @pytest.mark.skipif(sklearn_metrics is None, reason="scikit-learn not installed")
    @settings(deadline=None)
    @given(counts_matrices)
    def test_agrees_with_sklearn(self, counts):
        m = ConfusionMatrix(counts)
        if m.total() == 0:
            return
        y_true, y_pred = [], []
        for i in range(3):
            for j in range(3):
                y_true.extend([i] * counts[i][j])
                y_pred.extend([j] * counts[i][j])
        s = metrics(m)
        expected = sklearn_metrics.f1_score(
            y_true, y_pred, labels=[0, 1, 2], average="macro", zero_division=0
        )
        assert s.macro_f1 == pytest.approx(expected, abs=1e-12)


class TestWindowedSubset:
    CONVS = [
        make_conv("a", "x", [("r", 3600, True)]),
        make_conv("b", "x", [("r", 4 * 86400, True)]),
        make_conv("c", "x", [("r", 3600, False), ("r2", 7200, True)]),
        make_conv("d", "x"),
    ]

    def test_no_window_keeps_all(self):
        assert [c.thread.id for c in restrict_to_windowed(self.CONVS, None)] == ["a", "b", "c", "d"]

    def test_window_drops_threads_without_surviving_primaries(self):
        kept = restrict_to_windowed(self.CONVS, 1)
        assert [c.thread.id for c in kept] == ["a", "c"]

    def test_wider_window_recovers_threads(self):
        assert [c.thread.id for c in restrict_to_windowed(self.CONVS, 5)] == ["a", "b", "c"]


class TestReports:
    GOLDS = {"a": TRUE, "b": FALSE}
    PREDS = {"a": TRUE, "b": TRUE}

    def test_build_report_fields(self):
        cfg = PipelineConfig(mode="double")
        rep = build_report(cfg, self.PREDS, self.GOLDS, reply_counts=[1, 0])
        assert rep.n_threads == 2
        assert rep.accuracy == pytest.approx(0.5)
        assert rep.avg_replies == pytest.approx(1.0)
        d = rep.to_dict()
        assert d["notes"] == list(REPORT_NOTES)
        assert d["config"]["mode"] == "double"

    def test_render_contains_rows_and_notes(self):
        cfg_plain = PipelineConfig(mode="double")
        cfg_windowed = PipelineConfig(mode="double", reply_window_days=3)
        text = render_reports(
            [
                build_report(cfg_plain, self.PREDS, self.GOLDS),
                build_report(cfg_windowed, self.PREDS, self.GOLDS),
            ]
        )
        lines = text.splitlines()
        assert lines[0].startswith("# ") and lines[1].startswith("# ")
        assert any(line.startswith("double ") for line in lines)
        assert any(line.startswith("double/3d") for line in lines)

    def test_json_round_trip(self):
        cfg = PipelineConfig(mode="inverse")
        payload = json.loads(reports_to_json([build_report(cfg, self.PREDS, self.GOLDS)]))
        assert payload[0]["config"]["mode"] == "inverse"
        assert payload[0]["n_threads"] == 2
