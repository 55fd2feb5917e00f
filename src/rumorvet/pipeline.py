"""Routing orchestration: the double-channel pipeline and its ablations.

Four modes cover the experiment grid's model rows. In double mode the
Phase 1 certainty classifier splits threads into certain and uncertain
groups; certain threads go to the lie channel (thread text carries the
signal when its author writes with confidence) and uncertain threads go
to the agreement channel (the crowd's replies carry the signal when the
thread itself hedges). Inverse mode swaps the two channel assignments
while keeping the same trained detectors. The two single modes skip
Phase 1 entirely and push every thread through one channel; their
backends are retrained on all usable observations rather than one
routed subgroup, and that retraining variation lives here, not in the
channel modules.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .agreement import (
    LabeledPair,
    STANCE_CLASSES,
    agreement_prediction,
    build_phase22_training,
    score_conversations,
)
from .backends import (
    INPUT_PAIR,
    INPUT_TEXT,
    ClassifierBackend,
    TrainingRecipe,
    labeled_examples,
    predict_all,
)
from .certainty import (
    CERTAIN,
    CERTAINTY_CLASSES,
    UNCERTAIN,
    ChannelAssignment,
    assign_all,
    assign_threads,
    train_phase1,
)
from .corpus import Conversation, filter_window
from .errors import ConfigError, UntrainedBackend
from .lie import LIE_CLASSES, LabeledText, build_phase21_training, lie_prediction
from .predictions import CHANNEL_AGREEMENT, CHANNEL_LIE, VeracityPrediction
from .probs import DEFAULT_ENTROPY_EPSILON

MODE_DOUBLE = "double"
MODE_SINGLE_LIE = "single_lie"
MODE_SINGLE_AGREEMENT = "single_agreement"
MODE_INVERSE = "inverse"
MODES = (MODE_DOUBLE, MODE_SINGLE_LIE, MODE_SINGLE_AGREEMENT, MODE_INVERSE)

# Channel per (mode, certainty label). Single modes ignore certainty.
_ROUTE = {
    (MODE_DOUBLE, CERTAIN): CHANNEL_LIE,
    (MODE_DOUBLE, UNCERTAIN): CHANNEL_AGREEMENT,
    (MODE_INVERSE, CERTAIN): CHANNEL_AGREEMENT,
    (MODE_INVERSE, UNCERTAIN): CHANNEL_LIE,
}


@dataclass(frozen=True)
class PipelineConfig:
    """Inference-time knobs; training recipes live in TrainingPlan."""

    mode: str = MODE_DOUBLE
    entropy_epsilon: float = DEFAULT_ENTROPY_EPSILON
    reply_window_days: Optional[int] = None
    seed: int = 0
    phase1_model: Optional[Path] = None
    lie_model: Optional[Path] = None
    agreement_model: Optional[Path] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.entropy_epsilon >= 0.0:
            raise ConfigError(f"entropy_epsilon must be >= 0, got {self.entropy_epsilon!r}")
        if self.reply_window_days is not None:
            if not isinstance(self.reply_window_days, int) or self.reply_window_days <= 0:
                raise ConfigError(
                    f"reply_window_days must be a positive integer, got {self.reply_window_days!r}"
                )

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "entropy_epsilon": self.entropy_epsilon,
            "reply_window_days": self.reply_window_days,
            "seed": self.seed,
            "phase1_model": _path_str(self.phase1_model),
            "lie_model": _path_str(self.lie_model),
            "agreement_model": _path_str(self.agreement_model),
        }


def _path_str(p: Optional[Path]) -> Optional[str]:
    return None if p is None else str(p)


@dataclass(frozen=True)
class PipelineBackends:
    """Trained backends for whichever channels the mode needs."""

    phase1: Optional[ClassifierBackend] = None
    lie: Optional[ClassifierBackend] = None
    agreement: Optional[ClassifierBackend] = None


def required_backends(mode: str) -> tuple[str, ...]:
    """Backend slots a mode touches, in training order."""
    if mode in (MODE_DOUBLE, MODE_INVERSE):
        return ("phase1", "lie", "agreement")
    if mode == MODE_SINGLE_LIE:
        return ("lie",)
    if mode == MODE_SINGLE_AGREEMENT:
        return ("agreement",)
    raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")


def _require(backends: PipelineBackends, slot: str, mode: str) -> ClassifierBackend:
    backend = getattr(backends, slot)
    if backend is None:
        raise UntrainedBackend(f"mode {mode} needs a trained {slot} backend")
    return backend


def classify(
    conv: Conversation, config: PipelineConfig, backends: PipelineBackends
) -> VeracityPrediction:
    """Route one conversation and return its veracity prediction.

    The reply window (when set) prunes replies before agreement scoring;
    thread text is never windowed, so the certainty and lie channels see
    the conversation unchanged.
    """
    return run_batch([conv], config, backends)[0]


def _windowed(conv: Conversation, config: PipelineConfig) -> Conversation:
    if config.reply_window_days is None:
        return conv
    return filter_window(conv, config.reply_window_days)


def run_batch(
    convs: Sequence[Conversation], config: PipelineConfig, backends: PipelineBackends
) -> list[VeracityPrediction]:
    """One prediction per conversation, in input order; classify() on each.

    Each stage makes one batched backend call for the whole batch: Phase 1
    over every thread text, the lie channel over the lie-routed threads,
    the agreement channel over every primary pair of the (windowed)
    agreement-routed threads. A stage with nothing to score makes no call
    and needs no backend. Per-thread calls would pay the reference
    backend's array set-up once per input instead of once per stage.
    """
    convs = list(convs)
    mode, eps = config.mode, config.entropy_epsilon
    assignments = [None] * len(convs)
    if mode == MODE_SINGLE_LIE:
        channels = [CHANNEL_LIE] * len(convs)
    elif mode == MODE_SINGLE_AGREEMENT:
        channels = [CHANNEL_AGREEMENT] * len(convs)
    else:
        if convs:
            phase1 = _require(backends, "phase1", mode)
            assignments = assign_threads(phase1, [c.thread for c in convs])
        channels = [_ROUTE[(mode, a.label)] for a in assignments]
    preds: list[Optional[VeracityPrediction]] = [None] * len(convs)

    lie_idx = [i for i, ch in enumerate(channels) if ch == CHANNEL_LIE]
    if lie_idx:
        backend = _require(backends, "lie", mode)
        probs = predict_all(backend, [convs[i].thread.text_clean for i in lie_idx])
        for i, p in zip(lie_idx, probs):
            preds[i] = lie_prediction(convs[i].thread.id, p, eps)

    agreement_idx = [i for i, ch in enumerate(channels) if ch == CHANNEL_AGREEMENT]
    if agreement_idx:
        backend = _require(backends, "agreement", mode)
        windowed = [_windowed(convs[i], config) for i in agreement_idx]
        for i, scores in zip(agreement_idx, score_conversations(windowed, backend)):
            preds[i] = agreement_prediction(convs[i].thread.id, scores, eps)

    return [
        pred if a is None else dataclasses.replace(pred, assignment=a)
        for pred, a in zip(preds, assignments)
    ]


@dataclass(frozen=True)
class TrainingPlan:
    """Recipes and corpora knobs for all training stages of one run."""

    phase1_pretrain: TrainingRecipe = field(
        default_factory=lambda: TrainingRecipe(
            epochs=5, batch_size=32, learning_rate=5e-5, label_smoothing=0.2
        )
    )
    phase1_finetune: TrainingRecipe = field(
        default_factory=lambda: TrainingRecipe(
            epochs=5, batch_size=32, learning_rate=5e-5, label_smoothing=0.2
        )
    )
    lie_pretrain: TrainingRecipe = field(
        default_factory=lambda: TrainingRecipe(
            epochs=5, batch_size=32, learning_rate=5e-5, label_smoothing=0.3
        )
    )
    lie_finetune: TrainingRecipe = field(
        default_factory=lambda: TrainingRecipe(
            epochs=1, batch_size=32, learning_rate=5e-5, label_smoothing=0.3
        )
    )
    agreement_pretrain: TrainingRecipe = field(
        default_factory=lambda: TrainingRecipe(
            epochs=5, batch_size=32, learning_rate=5e-5, label_smoothing=0.3
        )
    )
    agreement_finetune: TrainingRecipe = field(
        default_factory=lambda: TrainingRecipe(
            epochs=1, batch_size=32, learning_rate=5e-5, label_smoothing=0.3
        )
    )
    phase1_per_class: int = 21


def train_pipeline(
    mode: str,
    train_split: Sequence[Conversation],
    hedge_corpus: Sequence[LabeledText],
    deception_corpus: Sequence[LabeledText],
    agreement_corpus: Sequence[LabeledPair],
    backend_factory,
    plan: Optional[TrainingPlan] = None,
    seed: int = 0,
) -> PipelineBackends:
    """Train every backend the mode requires and return them together.

    backend_factory(classes, input_kind, seed) must return a fresh
    untrained backend. Double and inverse modes share one training
    procedure: Phase 1's routing of the train split decides the lie
    channel's fine-tune set, and the agreement channel fine-tunes on
    every primary pair. The single modes retrain their one channel on
    all usable observations (every binary-gold thread for the lie
    channel; the agreement channel's fine-tune set is already unrouted).
    """
    plan = plan or TrainingPlan()
    slots = required_backends(mode)
    phase1 = None
    assignments: Optional[dict[str, ChannelAssignment]] = None
    if "phase1" in slots:
        phase1 = backend_factory(CERTAINTY_CLASSES, INPUT_TEXT, seed)
        train_phase1(
            phase1,
            hedge_corpus,
            train_split,
            plan.phase1_pretrain,
            plan.phase1_finetune,
            plan.phase1_per_class,
            seed,
        )
        assignments = assign_all(phase1, train_split)
    lie_backend = None
    if "lie" in slots:
        lie_backend = backend_factory(LIE_CLASSES, INPUT_TEXT, seed + 1)
        pretrain, finetune = build_phase21_training(deception_corpus, train_split, assignments)
        lie_backend.fit(labeled_examples(pretrain, LIE_CLASSES), plan.lie_pretrain)
        if finetune:
            lie_backend.fit(labeled_examples(finetune, LIE_CLASSES), plan.lie_finetune)
    agreement_backend = None
    if "agreement" in slots:
        agreement_backend = backend_factory(STANCE_CLASSES, INPUT_PAIR, seed + 2)
        pretrain, finetune = build_phase22_training(agreement_corpus, train_split)
        agreement_backend.fit(labeled_examples(pretrain, STANCE_CLASSES), plan.agreement_pretrain)
        if finetune:
            agreement_backend.fit(labeled_examples(finetune, STANCE_CLASSES), plan.agreement_finetune)
    return PipelineBackends(phase1=phase1, lie=lie_backend, agreement=agreement_backend)
