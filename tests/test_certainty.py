"""Phase 1: certainty routing, balanced fine-tune assembly, corpus parsing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rumorvet.backends import INPUT_TEXT, ReferenceBackend, TrainingRecipe
from rumorvet.certainty import (
    CERTAIN,
    CERTAINTY_CLASSES,
    UNCERTAIN,
    ChannelAssignment,
    assign_all,
    build_phase1_training,
    classify_certainty,
    load_hedge_corpus,
    self_label,
    summarize_assignments,
    train_phase1,
)
from rumorvet.errors import CorpusFormatError, InsufficientClassExamples
from rumorvet.probs import ProbVector

from ._support import make_conv

RECIPE = TrainingRecipe(epochs=15, batch_size=4, learning_rate=5e-5, label_smoothing=0.2)

HEDGE_CORPUS = [
    ("definitely certainly absolutely true", CERTAIN),
    ("confirmed without any doubt", CERTAIN),
    ("certainly and definitely so", CERTAIN),
    ("maybe perhaps might be", UNCERTAIN),
    ("possibly allegedly unconfirmed", UNCERTAIN),
    ("perhaps reportedly who knows", UNCERTAIN),
]


def _hedge_backend(seed=0):
    backend = ReferenceBackend(CERTAINTY_CLASSES, INPUT_TEXT, seed=seed)
    backend.fit(HEDGE_CORPUS, RECIPE)
    return backend


class TestChannelAssignment:
    def test_label_matches_argmax(self):
        a = ChannelAssignment("t1", CERTAIN, ProbVector((0.8, 0.2)))
        assert a.label == CERTAIN

    def test_label_argmax_mismatch(self):
        with pytest.raises(ValueError):
            ChannelAssignment("t1", UNCERTAIN, ProbVector((0.8, 0.2)))

    def test_bad_label(self):
        with pytest.raises(ValueError):
            ChannelAssignment("t1", "sure", ProbVector((0.8, 0.2)))


class TestClassify:
    def test_routes_by_hedging(self):
        backend = _hedge_backend()
        certain = classify_certainty(make_conv(thread_text="definitely confirmed true").thread, backend)
        uncertain = classify_certainty(make_conv(thread_text="maybe allegedly perhaps").thread, backend)
        assert certain.label == CERTAIN
        assert uncertain.label == UNCERTAIN
        assert certain.thread_id == "t1"

    def test_assign_all_keys_and_partition(self):
        backend = _hedge_backend()
        convs = [
            make_conv("a", "definitely certainly confirmed"),
            make_conv("b", "maybe perhaps possibly"),
            make_conv("c", "certainly without doubt"),
        ]
        assignments = assign_all(backend, convs)
        assert set(assignments) == {"a", "b", "c"}
        counts = summarize_assignments(assignments)
        assert counts == {CERTAIN: 2, UNCERTAIN: 1}
        assert sum(counts.values()) == len(convs)

    def test_self_label_uses_backend_output(self):
        backend = _hedge_backend()
        labeled = self_label(backend, [make_conv("a", "definitely certainly confirmed")])
        assert labeled == [("definitely certainly confirmed", CERTAIN)]


class TestBuildPhase1Training:
    CORPUS = [(f"c{i}", CERTAIN) for i in range(5)] + [(f"u{i}", UNCERTAIN) for i in range(9)]

    def test_balanced_resample(self):
        pre, balanced = build_phase1_training(HEDGE_CORPUS, self.CORPUS, per_class=4, seed=0)
        assert pre == HEDGE_CORPUS
        labels = [lab for _, lab in balanced]
        assert labels.count(CERTAIN) == 4 and labels.count(UNCERTAIN) == 4
        assert len(set(balanced)) == len(balanced)

    def test_sample_is_seeded(self):
        _, a = build_phase1_training([], self.CORPUS, per_class=4, seed=1)
        _, b = build_phase1_training([], self.CORPUS, per_class=4, seed=1)
        _, c = build_phase1_training([], self.CORPUS, per_class=4, seed=2)
        assert a == b
        assert a != c

    def test_insufficient_examples(self):
        with pytest.raises(InsufficientClassExamples) as exc:
            build_phase1_training([], self.CORPUS, per_class=6, seed=0)
        assert "6" in str(exc.value)

    def test_zero_per_class_skips_finetune(self):
        pre, balanced = build_phase1_training(HEDGE_CORPUS, self.CORPUS, per_class=0, seed=0)
        assert balanced == []

    def test_negative_per_class(self):
        with pytest.raises(ValueError):
            build_phase1_training([], [], per_class=-1, seed=0)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            build_phase1_training([], [("x", "sure")], per_class=1, seed=0)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=99))
    def test_subset_of_input(self, per_class, seed):
        _, balanced = build_phase1_training([], self.CORPUS, per_class=per_class, seed=seed)
        assert set(balanced) <= set(self.CORPUS)
        assert len(balanced) == 2 * per_class


class TestTrainPhase1:
    def test_end_to_end_routing(self):
        convs = [
            make_conv("a", "definitely certainly confirmed"),
            make_conv("b", "maybe perhaps allegedly"),
            make_conv("c", "certainly confirmed doubt"),
            make_conv("d", "possibly reportedly maybe"),
        ]
        backend = ReferenceBackend(CERTAINTY_CLASSES, INPUT_TEXT, seed=0)
        train_phase1(backend, HEDGE_CORPUS, convs, RECIPE, RECIPE, per_class=2, seed=0)
        counts = summarize_assignments(assign_all(backend, convs))
        assert counts == {CERTAIN: 2, UNCERTAIN: 2}

    def test_records_both_fits(self):
        convs = [
            make_conv("a", "definitely certainly confirmed"),
            make_conv("b", "maybe perhaps allegedly"),
        ]
        backend = ReferenceBackend(CERTAINTY_CLASSES, INPUT_TEXT, seed=0)
        train_phase1(backend, HEDGE_CORPUS, convs, RECIPE, RECIPE, per_class=1, seed=0)
        assert len(backend.payload()["recipes"]) == 2


class TestLoadHedgeCorpus:
    def test_parses_and_skips_blanks(self, tmp_path):
        p = tmp_path / "hedge.tsv"
        p.write_text("surely so\tcertain\n\nmaybe not\tUncertain\n", encoding="utf-8")
        assert load_hedge_corpus(p) == [("surely so", CERTAIN), ("maybe not", UNCERTAIN)]

    def test_wrong_field_count_names_line(self, tmp_path):
        p = tmp_path / "hedge.tsv"
        p.write_text("good line\tcertain\nonly one field\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as exc:
            load_hedge_corpus(p)
        assert f"{p}:2" in str(exc.value)

    def test_bad_label_names_line(self, tmp_path):
        p = tmp_path / "hedge.tsv"
        p.write_text("text here\tsure\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as exc:
            load_hedge_corpus(p)
        assert ":1" in str(exc.value)
