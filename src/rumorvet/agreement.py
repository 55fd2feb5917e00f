"""Phase 2-2: veracity from aggregated reply agreement.

Each (thread, primary reply) pair is scored over three stances
(agreement, disagreement, none). The none mass carries no information
about veracity and is discarded: per thread we sum the agreement and
disagreement components across its pairs and renormalize the two sums to
a 2-vector. Argmax of that vector picks true or false; a vector at full
self-entropy means the crowd is exactly split and the thread is
unverified, as is a thread with no primary replies at all (no crowd
evidence is zero confidence by the task's definition).

Training mirrors the other channels: pretrain on an external
agreement-pair corpus (two stances only; the none head only sees signal
during fine-tuning), then fine-tune for one epoch on all primary
thread-reply pairs of the train split, each pair labeled by its thread's
gold veracity mapped onto a stance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .backends import ClassifierBackend, predict_all
from .certainty import _load_tsv
from .corpus import Conversation, ThreadReplyPair, primary_pairs
from .errors import DegenerateEvidence, EmptyEvidence
from .predictions import (
    CHANNEL_AGREEMENT,
    WARN_DEGENERATE_EVIDENCE,
    WARN_NO_PRIMARY_REPLIES,
    VeracityPrediction,
)
from .probs import FALSE, TRUE, UNVERIFIED, ProbVector, decide, self_entropy

STANCE_AGREE = "agreement"
STANCE_DISAGREE = "disagreement"
STANCE_NONE = "none"
STANCE_CLASSES = (STANCE_AGREE, STANCE_DISAGREE, STANCE_NONE)

# Fine-tune pairs inherit their thread's gold veracity: an agreeing crowd
# marks a true thread, a disagreeing crowd a false one, and zero-confidence
# threads give the none head its only training signal.
GOLD_TO_STANCE = {TRUE: STANCE_AGREE, FALSE: STANCE_DISAGREE, UNVERIFIED: STANCE_NONE}

LabeledPair = tuple[tuple[str, str], str]

_NO_EVIDENCE = ProbVector((0.5, 0.5))


@dataclass(frozen=True)
class StanceScore:
    """Softmax over (agreement, disagreement, none) for one pair."""

    pair: ThreadReplyPair
    softmax: ProbVector

    def __post_init__(self):
        if self.softmax.k != 3:
            raise ValueError("stance softmax must have 3 components")


@dataclass(frozen=True)
class AggregateScore:
    """Thread-level (agree, disagree) vector after the none-discard sum."""

    thread_id: str
    normalized: ProbVector
    n_replies: int


def score_pairs(conv: Conversation, backend: ClassifierBackend) -> list[StanceScore]:
    """One stance score per primary reply, in stable reply order, from one
    batched call."""
    pairs = primary_pairs(conv)
    softmaxes = predict_all(backend, [(p.thread_text, p.reply_text) for p in pairs])
    return [StanceScore(pair=p, softmax=s) for p, s in zip(pairs, softmaxes)]


def aggregate(scores: Sequence[StanceScore]) -> AggregateScore:
    """Sum agree/disagree mass over a thread's pairs and renormalize."""
    if not scores:
        raise EmptyEvidence("no stance scores to aggregate")
    thread_ids = {s.pair.thread_id for s in scores}
    if len(thread_ids) != 1:
        raise ValueError(f"scores span multiple threads: {sorted(thread_ids)}")
    agree = math.fsum(s.softmax[0] for s in scores)
    disagree = math.fsum(s.softmax[1] for s in scores)
    total = agree + disagree
    if total == 0.0:
        raise DegenerateEvidence("every pair put its whole mass on none")
    return AggregateScore(
        thread_id=thread_ids.pop(),
        normalized=ProbVector((agree / total, disagree / total)),
        n_replies=len(scores),
    )


def classify_agreement(
    conv: Conversation, backend: ClassifierBackend, epsilon: float
) -> VeracityPrediction:
    """Decide a thread's veracity from its aggregated reply stances."""
    return agreement_prediction(conv.thread.id, score_pairs(conv, backend), epsilon)


def agreement_prediction(
    thread_id: str, scores: Sequence[StanceScore], epsilon: float
) -> VeracityPrediction:
    """The agreement channel's verdict from a thread's stance scores,
    abstaining when there are none or they carry no agree/disagree mass."""
    if not scores:
        return _abstain(thread_id, 0, WARN_NO_PRIMARY_REPLIES)
    try:
        agg = aggregate(scores)
    except DegenerateEvidence:
        return _abstain(thread_id, len(scores), WARN_DEGENERATE_EVIDENCE)
    return VeracityPrediction(
        thread_id=thread_id,
        label=decide(agg.normalized, (TRUE, FALSE), epsilon),
        channel=CHANNEL_AGREEMENT,
        assignment=None,
        evidence=agg.normalized,
        entropy=self_entropy(agg.normalized),
        n_replies_used=agg.n_replies,
    )


def _abstain(thread_id: str, n_replies: int, warning: str) -> VeracityPrediction:
    return VeracityPrediction(
        thread_id=thread_id,
        label=UNVERIFIED,
        channel=CHANNEL_AGREEMENT,
        assignment=None,
        evidence=_NO_EVIDENCE,
        entropy=1.0,
        n_replies_used=n_replies,
        warnings=(warning,),
    )


def build_phase22_training(
    pretrain_corpus: Sequence[LabeledPair],
    train_split: Sequence[Conversation],
    gold_to_stance: Mapping[str, str] = GOLD_TO_STANCE,
) -> tuple[list[LabeledPair], list[LabeledPair]]:
    """Assemble the two Phase-2-2 training sets.

    The pretrain corpus passes through (agreement/disagreement pairs). The
    fine-tune set holds every primary thread-reply pair of the train
    split, labeled by the thread's gold veracity through gold_to_stance.
    """
    pretrain = list(pretrain_corpus)
    for (_, _), label in pretrain:
        if label not in STANCE_CLASSES:
            raise ValueError(f"bad stance label {label!r} in pretrain corpus")
    finetune: list[LabeledPair] = []
    for conv in train_split:
        if conv.gold_label is None:
            raise ValueError(f"thread {conv.thread.id} has no gold label")
        stance = gold_to_stance.get(conv.gold_label)
        if stance is None:
            raise ValueError(f"no stance mapping for gold label {conv.gold_label!r}")
        for pair in primary_pairs(conv):
            finetune.append(((pair.thread_text, pair.reply_text), stance))
    return pretrain, finetune


def load_agreement_corpus(path) -> list[LabeledPair]:
    """Read an agreement-pair corpus: 'sentence1<TAB>sentence2<TAB>label'
    lines, label in {agreement, disagreement}."""
    return _load_tsv(path, (STANCE_AGREE, STANCE_DISAGREE), n_text_cols=2)
