"""Phase 1: route each thread by the linguistic certainty of its text.

A binary classifier splits threads into certain (informed, written with a
confident tone) and uncertain (uninformed, hedged). The split is hard:
there is no entropy gate here, every thread lands in exactly one group.

Training follows a two-step recipe: pretrain on an external hedge-cue
corpus, then self-label the target train threads with the pretrained
classifier and fine-tune on a small class-balanced resample of those
machine-assigned labels to absorb the domain shift.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .backends import ClassifierBackend, TrainingRecipe, predict_all, predict_rows
from .corpus import Conversation, Post
from .errors import CorpusFormatError, InsufficientClassExamples
from .probs import ProbVector

CERTAIN = "certain"
UNCERTAIN = "uncertain"
CERTAINTY_CLASSES = (CERTAIN, UNCERTAIN)

LabeledText = tuple[str, str]


@dataclass(frozen=True)
class ChannelAssignment:
    """Routing decision for one thread: certain or uncertain."""

    thread_id: str
    label: str
    confidence: ProbVector

    def __post_init__(self):
        if self.label not in CERTAINTY_CLASSES:
            raise ValueError(f"bad certainty label {self.label!r}")
        if CERTAINTY_CLASSES[self.confidence.argmax()] != self.label:
            raise ValueError("assignment label must equal argmax of its confidence")


def classify_certainty(thread: Post, backend: ClassifierBackend) -> ChannelAssignment:
    """Assign one thread to the certain or uncertain group."""
    return assign_threads(backend, [thread])[0]


def assign_threads(backend: ClassifierBackend, threads: Sequence[Post]) -> list[ChannelAssignment]:
    """Certainty assignment per thread, in order, from one batched call."""
    probs = map(ProbVector, predict_rows(backend, [t.text_clean for t in threads]).tolist())
    return [
        ChannelAssignment(thread_id=t.id, label=CERTAINTY_CLASSES[p.argmax()], confidence=p)
        for t, p in zip(threads, probs)
    ]


def self_label(backend: ClassifierBackend, convs: Iterable[Conversation]) -> list[LabeledText]:
    """Label train threads with the pretrained classifier's own output."""
    texts = [c.thread.text_clean for c in convs]
    return [(t, CERTAINTY_CLASSES[p.argmax()]) for t, p in zip(texts, predict_all(backend, texts))]


def build_phase1_training(
    pretrain_corpus: Sequence[LabeledText],
    finetune_corpus: Sequence[LabeledText],
    per_class: int,
    seed: int,
) -> tuple[list[LabeledText], list[LabeledText]]:
    """Assemble the two Phase-1 training sets.

    The pretrain corpus passes through unchanged. The fine-tune set holds
    exactly per_class examples of each certainty class, sampled without
    replacement under the given seed; class imbalance in the input corpus
    is what the resample is there to remove.
    """
    if per_class < 0:
        raise ValueError(f"per_class must be >= 0, got {per_class}")
    by_class: dict[str, list[LabeledText]] = {c: [] for c in CERTAINTY_CLASSES}
    for text, label in finetune_corpus:
        if label not in by_class:
            raise ValueError(f"unknown certainty label {label!r}")
        by_class[label].append((text, label))
    if per_class == 0:
        return list(pretrain_corpus), []
    short = {c: len(v) for c, v in by_class.items() if len(v) < per_class}
    if short:
        raise InsufficientClassExamples(
            f"need {per_class} per class, have only {short}"
        )
    rng = random.Random(seed)
    balanced: list[LabeledText] = []
    for cls in CERTAINTY_CLASSES:
        balanced.extend(rng.sample(by_class[cls], per_class))
    return list(pretrain_corpus), balanced


def train_phase1(
    backend: ClassifierBackend,
    pretrain_corpus: Sequence[LabeledText],
    train_split: Sequence[Conversation],
    pretrain_recipe: TrainingRecipe,
    finetune_recipe: TrainingRecipe,
    per_class: int,
    seed: int,
) -> ClassifierBackend:
    """Run the full Phase-1 recipe: pretrain, self-label, balanced fine-tune."""
    backend.fit(pretrain_corpus, pretrain_recipe)
    machine_labeled = self_label(backend, train_split)
    _, balanced = build_phase1_training(pretrain_corpus, machine_labeled, per_class, seed)
    if balanced:
        backend.fit(balanced, finetune_recipe)
    return backend


def assign_all(
    backend: ClassifierBackend, convs: Iterable[Conversation]
) -> dict[str, ChannelAssignment]:
    """Certainty assignment for every conversation, keyed by thread id."""
    return {a.thread_id: a for a in assign_threads(backend, [c.thread for c in convs])}


def load_hedge_corpus(path) -> list[LabeledText]:
    """Read a hedge-cue corpus: one 'sentence<TAB>label' line per example,
    label in {certain, uncertain}. Blank lines are skipped."""
    return _load_tsv(path, CERTAINTY_CLASSES, n_text_cols=1)


def _load_tsv(path, valid_labels: tuple[str, ...], n_text_cols: int):
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"not UTF-8 text ({exc})", path=path) from exc
    out = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != n_text_cols + 1:
            raise CorpusFormatError(
                f"{path}:{lineno}: expected {n_text_cols + 1} tab-separated fields, got {len(parts)}"
            )
        *texts, label = parts
        label = label.strip().lower()
        if label not in valid_labels:
            raise CorpusFormatError(
                f"{path}:{lineno}: label {label!r} not in {valid_labels}"
            )
        if n_text_cols == 1:
            out.append((texts[0], label))
        else:
            out.append((tuple(texts), label))
    if not out:
        raise CorpusFormatError("no example lines", path=path)
    return out


def summarize_assignments(assignments: Mapping[str, ChannelAssignment]) -> dict[str, int]:
    """Class counts over a set of assignments; the two always partition it."""
    counts = {c: 0 for c in CERTAINTY_CLASSES}
    for a in assignments.values():
        counts[a.label] += 1
    return counts
