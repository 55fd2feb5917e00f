"""Phase 2-1: lie-detection channel and its training-set assembly."""

import pytest

from rumorvet.backends import INPUT_TEXT, ReferenceBackend, TrainingRecipe, labeled_examples
from rumorvet.certainty import CERTAIN, UNCERTAIN, ChannelAssignment
from rumorvet.errors import CorpusFormatError
from rumorvet.lie import (
    DECEPTION_LABEL_MAP,
    LIE_CLASSES,
    build_phase21_training,
    classify_lie,
    load_deception_corpus,
)
from rumorvet.predictions import CHANNEL_LIE
from rumorvet.probs import FALSE, TRUE, UNVERIFIED, ProbVector

from ._support import make_conv

DECEPTION = [
    ("honest open direct account", "truthful"),
    ("sincere frank report", "truthful"),
    ("sneaky fabricated planted story", "deceptive"),
    ("planted fake fabricated tale", "deceptive"),
]

RECIPE = TrainingRecipe(epochs=15, batch_size=4, learning_rate=5e-5, label_smoothing=0.3)


def _lie_backend(seed=0):
    backend = ReferenceBackend(LIE_CLASSES, INPUT_TEXT, seed=seed)
    pretrain, _ = build_phase21_training(DECEPTION, [], phase1=None)
    backend.fit(labeled_examples(pretrain, LIE_CLASSES), RECIPE)
    return backend


class TestClassifyLie:
    def test_labels_follow_lexicon(self):
        backend = _lie_backend()
        honest = classify_lie(make_conv(thread_text="an honest sincere account").thread, backend, 1e-3)
        shady = classify_lie(make_conv(thread_text="a fabricated planted story").thread, backend, 1e-3)
        assert honest.label == TRUE
        assert shady.label == FALSE
        assert honest.channel == CHANNEL_LIE
        assert honest.n_replies_used == 0
        assert honest.assignment is None

    def test_full_entropy_abstains(self):
        class Uniform:
            def predict(self, text):
                return ProbVector((0.5, 0.5))

        pred = classify_lie(make_conv().thread, Uniform(), 1e-3)
        assert pred.label == UNVERIFIED
        assert pred.entropy == 1.0

    def test_thread_id_carried(self):
        pred = classify_lie(make_conv("t77", "honest sincere").thread, _lie_backend(), 1e-3)
        assert pred.thread_id == "t77"


def _assignments(**labels):
    return {
        tid: ChannelAssignment(tid, lab, ProbVector((0.9, 0.1) if lab == CERTAIN else (0.1, 0.9)))
        for tid, lab in labels.items()
    }


class TestBuildTraining:
    CONVS = [
        make_conv("a", "alpha text", gold=TRUE),
        make_conv("b", "beta text", gold=FALSE),
        make_conv("c", "gamma text", gold=UNVERIFIED),
        make_conv("d", "delta text", gold=TRUE),
    ]

    def test_pretrain_labels_mapped(self):
        pretrain, _ = build_phase21_training(DECEPTION, [], phase1=None)
        assert {lab for _, lab in pretrain} == {TRUE, FALSE}
        assert pretrain[0] == ("honest open direct account", TRUE)

    def test_unmappable_pretrain_label(self):
        with pytest.raises(ValueError):
            build_phase21_training([("x", "shifty")], [], phase1=None)

    def test_certain_filter(self):
        phase1 = _assignments(a=CERTAIN, b=UNCERTAIN, c=CERTAIN, d=CERTAIN)
        _, finetune = build_phase21_training([], self.CONVS, phase1)
        assert finetune == [("alpha text", TRUE), ("delta text", TRUE)]

    def test_unrouted_keeps_all_binary_gold(self):
        _, finetune = build_phase21_training([], self.CONVS, phase1=None)
        assert finetune == [("alpha text", TRUE), ("beta text", FALSE), ("delta text", TRUE)]

    def test_unverified_gold_always_excluded(self):
        phase1 = _assignments(a=CERTAIN, b=CERTAIN, c=CERTAIN, d=CERTAIN)
        _, finetune = build_phase21_training([], self.CONVS, phase1)
        assert all(lab in LIE_CLASSES for _, lab in finetune)
        assert len(finetune) == 3

    def test_missing_assignment_for_gold_thread(self):
        phase1 = _assignments(a=CERTAIN, b=UNCERTAIN)
        with pytest.raises(ValueError) as exc:
            build_phase21_training([], self.CONVS, phase1)
        assert "d" in str(exc.value)

    def test_unlabeled_threads_need_no_assignment(self):
        convs = [make_conv("a", "alpha", gold=TRUE), make_conv("z", "zeta", gold=None)]
        _, finetune = build_phase21_training([], convs, _assignments(a=CERTAIN))
        assert finetune == [("alpha", TRUE)]

    def test_empty_finetune_warns(self, caplog):
        phase1 = _assignments(a=UNCERTAIN, b=UNCERTAIN, c=UNCERTAIN, d=UNCERTAIN)
        with caplog.at_level("WARNING", logger="rumorvet.lie"):
            _, finetune = build_phase21_training([], self.CONVS, phase1)
        assert finetune == []
        assert any("fine-tune set is empty" in r.message for r in caplog.records)


class TestLoadDeceptionCorpus:
    def test_parses(self, tmp_path):
        p = tmp_path / "dec.tsv"
        p.write_text("an honest tale\ttruthful\na tall tale\tdeceptive\n", encoding="utf-8")
        assert load_deception_corpus(p) == [
            ("an honest tale", "truthful"),
            ("a tall tale", "deceptive"),
        ]

    def test_rejects_veracity_labels(self, tmp_path):
        # The deception corpus speaks the truthful/deceptive vocabulary;
        # true/false belongs to threads, not corpus rows.
        p = tmp_path / "dec.tsv"
        p.write_text("some text\ttrue\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            load_deception_corpus(p)

    def test_label_map_covers_corpus_vocabulary(self):
        assert set(DECEPTION_LABEL_MAP) == {"truthful", "deceptive"}
        assert set(DECEPTION_LABEL_MAP.values()) == set(LIE_CLASSES)
