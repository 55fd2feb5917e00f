"""Phase 2-1: veracity from lexical lie detection.

Certain-routed threads are scored by a binary deception classifier over
the thread text alone. The softmax argmax picks true or false; threads
whose distribution carries (numerically) full self-entropy get the
unverified label instead, since full entropy is exactly the task's
definition of zero confidence.

Training: pretrain on an external deception corpus (truthful vs deceptive
texts), then fine-tune for a single epoch on the gold true/false threads
that Phase 1 routed to this channel. Gold-unverified threads carry zero
confidence by definition and are excluded from fine-tuning.
"""

from __future__ import annotations

import logging
from typing import Mapping, Optional, Sequence

from .backends import ClassifierBackend, predict_all
from .certainty import CERTAIN, ChannelAssignment, _load_tsv
from .corpus import Conversation, Post
from .predictions import CHANNEL_LIE, VeracityPrediction
from .probs import FALSE, TRUE, ProbVector, decide, self_entropy

logger = logging.getLogger(__name__)

LIE_CLASSES = (TRUE, FALSE)

# Deception corpora label writer intent; rumor veracity is about the claim.
# Mapping honest->true keeps the two-step recipe on one label axis.
DECEPTION_LABEL_MAP = {"truthful": TRUE, "deceptive": FALSE}

LabeledText = tuple[str, str]


def classify_lie(thread: Post, backend: ClassifierBackend, epsilon: float) -> VeracityPrediction:
    """Score one thread text as true / false / unverified."""
    return lie_prediction(thread.id, predict_all(backend, [thread.text_clean])[0], epsilon)


def lie_prediction(thread_id: str, p: ProbVector, epsilon: float) -> VeracityPrediction:
    """The lie channel's verdict from a thread's (true, false) softmax."""
    return VeracityPrediction(
        thread_id=thread_id,
        label=decide(p, LIE_CLASSES, epsilon),
        channel=CHANNEL_LIE,
        assignment=None,
        evidence=p,
        entropy=self_entropy(p),
        n_replies_used=0,
    )


def build_phase21_training(
    pretrain_corpus: Sequence[LabeledText],
    train_split: Sequence[Conversation],
    phase1: Optional[Mapping[str, ChannelAssignment]],
) -> tuple[list[LabeledText], list[LabeledText]]:
    """Assemble the two Phase-2-1 training sets.

    The pretrain set is the deception corpus with its labels mapped onto
    true/false. The fine-tune set keeps only threads whose gold label is
    true or false and which Phase 1 routed to the certain group; passing
    phase1=None (the single-channel retraining variant) keeps every
    binary-gold thread. phase1 maps thread ids to assignments, as
    certainty.assign_all() returns them.
    """
    pretrain = [(text, DECEPTION_LABEL_MAP.get(label, label)) for text, label in pretrain_corpus]
    for _, label in pretrain:
        if label not in LIE_CLASSES:
            raise ValueError(f"unmappable deception label {label!r}")
    finetune: list[LabeledText] = []
    for conv in train_split:
        if conv.gold_label not in LIE_CLASSES:
            continue
        if phase1 is not None:
            tid = conv.thread.id
            if tid not in phase1:
                raise ValueError(f"phase 1 assignment missing for thread {tid}")
            if phase1[tid].label != CERTAIN:
                continue
        finetune.append((conv.thread.text_clean, conv.gold_label))
    if not finetune:
        logger.warning("phase 2-1 fine-tune set is empty; keeping pretrained weights only")
    return pretrain, finetune


def load_deception_corpus(path) -> list[LabeledText]:
    """Read a deception corpus: one 'text<TAB>label' line per example,
    label in {truthful, deceptive}."""
    return _load_tsv(path, tuple(DECEPTION_LABEL_MAP), n_text_cols=1)
