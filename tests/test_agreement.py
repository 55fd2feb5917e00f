"""Phase 2-2: stance scoring, none-discard aggregation, crowd verdicts."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rumorvet.agreement import (
    GOLD_TO_STANCE,
    STANCE_AGREE,
    STANCE_CLASSES,
    STANCE_DISAGREE,
    STANCE_NONE,
    aggregate,
    build_phase22_training,
    classify_agreement,
    load_agreement_corpus,
    score_pairs,
)
from rumorvet.errors import CorpusFormatError, DataError, DegenerateEvidence, EmptyEvidence
from rumorvet.predictions import (
    CHANNEL_AGREEMENT,
    WARN_DEGENERATE_EVIDENCE,
    WARN_NO_PRIMARY_REPLIES,
)
from rumorvet.probs import FALSE, TRUE, UNVERIFIED, ProbVector

from ._support import TableBackend, aggregate_oracle, make_conv, rational_softmaxes


def _score(vals):
    return ProbVector(vals)


class TestStanceScore:
    def test_requires_three_components(self):
        with pytest.raises(ValueError):
            aggregate([_score((0.5, 0.3, 0.2)), _score((0.5, 0.5))])


class TestAggregate:
    def test_matches_hand_value(self):
        # (0.6, 0.2) + (0.1, 0.5) -> (0.7, 0.7) -> (0.5, 0.5)
        assert aggregate([_score((0.6, 0.2, 0.2)), _score((0.1, 0.5, 0.4))]) == ProbVector((0.5, 0.5))

    def test_none_mass_discarded(self):
        # Heavy none mass must not dilute the agree/disagree ratio.
        a = aggregate([_score((0.08, 0.02, 0.90))])
        b = aggregate([_score((0.80, 0.20, 0.00))])
        assert a.values == pytest.approx(b.values, abs=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyEvidence):
            aggregate([])

    def test_all_none_mass_degenerate(self):
        with pytest.raises(DegenerateEvidence):
            aggregate([_score((0.0, 0.0, 1.0)), _score((0.0, 0.0, 1.0))])

    @given(st.lists(rational_softmaxes(), min_size=1, max_size=6))
    def test_matches_exact_rational_oracle(self, softmaxes):
        scores = [_score(vals) for vals in softmaxes]
        expected = aggregate_oracle(softmaxes)
        if expected is None:
            with pytest.raises(DegenerateEvidence):
                aggregate(scores)
        else:
            got = aggregate(scores)
            assert got.values[0] == pytest.approx(expected[0], abs=1e-12)
            assert got.values[1] == pytest.approx(expected[1], abs=1e-12)

    @given(st.lists(rational_softmaxes(), min_size=1, max_size=6))
    def test_permutation_invariant(self, softmaxes):
        scores = [_score(vals) for vals in softmaxes]
        if aggregate_oracle(softmaxes) is None:
            return
        forward = aggregate(scores)
        backward = aggregate(list(reversed(scores)))
        assert forward.values == pytest.approx(backward.values, abs=1e-12)

    def test_duplication_invariant(self):
        # Summing then normalizing makes k copies of one score a no-op.
        one = aggregate([_score((0.5, 0.3, 0.2))])
        three = aggregate([_score((0.5, 0.3, 0.2)) for _ in range(3)])
        assert one.values == pytest.approx(three.values, abs=1e-12)


def _fixed_backend(table):
    """Replays a fixed softmax per reply text."""
    return TableBackend(lambda pair: table[pair[1]])


class TestClassifyAgreement:
    def _conv(self, *reply_texts):
        return make_conv("t9", "claim", [(t, 60 * (i + 1), True) for i, t in enumerate(reply_texts)])

    def test_agreeing_crowd_says_true(self):
        backend = _fixed_backend({"a": (0.7, 0.1, 0.2), "b": (0.6, 0.2, 0.2)})
        pred = classify_agreement(self._conv("a", "b"), backend, 1e-3)
        assert pred.label == TRUE
        assert pred.channel == CHANNEL_AGREEMENT
        assert pred.n_replies_used == 2
        assert pred.warnings == ()

    def test_disagreeing_crowd_says_false(self):
        backend = _fixed_backend({"a": (0.1, 0.7, 0.2)})
        assert classify_agreement(self._conv("a"), backend, 1e-3).label == FALSE

    def test_split_crowd_abstains(self):
        backend = _fixed_backend({"a": (0.4, 0.1, 0.5), "b": (0.1, 0.4, 0.5)})
        pred = classify_agreement(self._conv("a", "b"), backend, 1e-3)
        assert pred.label == UNVERIFIED
        assert pred.entropy == pytest.approx(1.0)

    def test_no_primary_replies_abstains_with_warning(self):
        conv = make_conv("t9", "claim", [("nested", 60, False)])
        pred = classify_agreement(conv, _fixed_backend({}), 1e-3)
        assert pred.label == UNVERIFIED
        assert pred.n_replies_used == 0
        assert pred.warnings == (WARN_NO_PRIMARY_REPLIES,)
        assert pred.evidence == ProbVector((0.5, 0.5))

    def test_degenerate_evidence_abstains_with_warning(self):
        backend = _fixed_backend({"a": (0.0, 0.0, 1.0)})
        pred = classify_agreement(self._conv("a"), backend, 1e-3)
        assert pred.label == UNVERIFIED
        assert pred.warnings == (WARN_DEGENERATE_EVIDENCE,)
        assert pred.n_replies_used == 1

    def test_score_pairs_reply_order(self):
        backend = _fixed_backend({"x": (0.5, 0.3, 0.2), "y": (0.2, 0.3, 0.5)})
        scores = score_pairs(self._conv("x", "y"), backend)
        assert scores == [ProbVector((0.5, 0.3, 0.2)), ProbVector((0.2, 0.3, 0.5))]


class TestBuildTraining:
    CORPUS = [(("claim a", "so true"), STANCE_AGREE), (("claim b", "no way"), STANCE_DISAGREE)]

    def test_pretrain_passthrough_and_finetune_mapping(self):
        convs = [
            make_conv("a", "first claim", [("r0", 60, True), ("r1", 120, True)], gold=TRUE),
            make_conv("b", "second claim", [("r2", 60, True)], gold=FALSE),
            make_conv("c", "third claim", [("r3", 60, True)], gold=UNVERIFIED),
        ]
        pretrain, finetune = build_phase22_training(self.CORPUS, convs)
        assert pretrain == self.CORPUS
        assert finetune == [
            (("first claim", "r0"), STANCE_AGREE),
            (("first claim", "r1"), STANCE_AGREE),
            (("second claim", "r2"), STANCE_DISAGREE),
            (("third claim", "r3"), STANCE_NONE),
        ]

    def test_only_primary_pairs(self):
        convs = [make_conv("a", "claim", [("keep", 60, True), ("drop", 120, False)], gold=TRUE)]
        _, finetune = build_phase22_training([], convs)
        assert finetune == [(("claim", "keep"), STANCE_AGREE)]

    def test_missing_gold_rejected(self):
        with pytest.raises(DataError, match="thread 'a' has no gold label"):
            build_phase22_training([], [make_conv("a", gold=None)])

    def test_unmapped_gold_rejected(self):
        with pytest.raises(ValueError):
            build_phase22_training([], [make_conv("a", gold=TRUE)], gold_to_stance={})

    def test_bad_pretrain_stance(self):
        with pytest.raises(ValueError):
            build_phase22_training([(("a", "b"), "meh")], [])

    def test_gold_to_stance_covers_veracity(self):
        assert set(GOLD_TO_STANCE) == {TRUE, FALSE, UNVERIFIED}
        assert set(GOLD_TO_STANCE.values()) == set(STANCE_CLASSES)


class TestLoadAgreementCorpus:
    def test_parses_two_text_columns(self, tmp_path):
        p = tmp_path / "agree.tsv"
        p.write_text("sent one\tsent two\tagreement\nx\ty\tdisagreement\n", encoding="utf-8")
        assert load_agreement_corpus(p) == [
            (("sent one", "sent two"), STANCE_AGREE),
            (("x", "y"), STANCE_DISAGREE),
        ]

    def test_none_not_a_corpus_label(self, tmp_path):
        p = tmp_path / "agree.tsv"
        p.write_text("a\tb\tnone\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            load_agreement_corpus(p)

    def test_field_count_error_names_line(self, tmp_path):
        p = tmp_path / "agree.tsv"
        p.write_text("only\ttwo\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as exc:
            load_agreement_corpus(p)
        assert ":1" in str(exc.value)
