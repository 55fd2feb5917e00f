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

import math
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .agreement import STANCE_CLASSES, agreement_prediction, build_phase22_training
from .backends import INPUT_PAIR, INPUT_TEXT, ClassifierBackend, predict_all, predict_rows
from .certainty import (
    CERTAIN,
    CERTAINTY_CLASSES,
    UNCERTAIN,
    ChannelAssignment,
    assign_all,
    assign_threads,
    train_phase1,
)
from .corpus import SECONDS_PER_DAY, Conversation, primary_pairs
from .errors import ConfigError, UntrainedBackend
from .lie import LIE_CLASSES, build_phase21_training, lie_prediction
from .predictions import CHANNEL_AGREEMENT, CHANNEL_LIE, VeracityPrediction
from .probs import DEFAULT_ENTROPY_EPSILON

if TYPE_CHECKING:  # config imports this module
    from .config import RunConfig

MODE_DOUBLE = "double"
MODE_SINGLE_LIE = "single_lie"
MODE_SINGLE_AGREEMENT = "single_agreement"
MODE_INVERSE = "inverse"
MODES = (MODE_DOUBLE, MODE_SINGLE_LIE, MODE_SINGLE_AGREEMENT, MODE_INVERSE)

# Channel per (mode, certainty label); single modes have no label.
_ROUTE = {
    (MODE_DOUBLE, CERTAIN): CHANNEL_LIE,
    (MODE_DOUBLE, UNCERTAIN): CHANNEL_AGREEMENT,
    (MODE_INVERSE, CERTAIN): CHANNEL_AGREEMENT,
    (MODE_INVERSE, UNCERTAIN): CHANNEL_LIE,
    (MODE_SINGLE_LIE, None): CHANNEL_LIE,
    (MODE_SINGLE_AGREEMENT, None): CHANNEL_AGREEMENT,
}


@dataclass(frozen=True)
class PipelineConfig:
    """Inference-time knobs; training recipes live in RunConfig."""

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


# The named backends each mode scores with, keyed by the slot each fills.
# A name is one trained model; modes that share a name share the model.
MODE_BACKENDS = {
    MODE_DOUBLE: {"phase1": "phase1", "lie": "lie", "agreement": "agreement"},
    MODE_SINGLE_LIE: {"lie": "lie_unrouted"},
    MODE_SINGLE_AGREEMENT: {"agreement": "agreement"},
    MODE_INVERSE: {"phase1": "phase1", "lie": "lie", "agreement": "agreement"},
}


class BackendSpec(NamedTuple):
    """What a named backend is: the classes it scores, its input kind, the
    config key of its pretrain corpus, the offset of its training seed and
    the stage whose RunConfig recipes (<stage>_pretrain, <stage>_finetune)
    train it."""

    classes: tuple[str, ...]
    input_kind: str
    pretrain_corpus: str
    seed_offset: int
    stage: str


# Every backend name, in training order: the routed lie backend needs phase1.
BACKEND_SPECS = {
    "phase1": BackendSpec(CERTAINTY_CLASSES, INPUT_TEXT, "hedge_corpus", 0, "phase1"),
    "lie": BackendSpec(LIE_CLASSES, INPUT_TEXT, "deception_corpus", 1, "lie"),
    "lie_unrouted": BackendSpec(LIE_CLASSES, INPUT_TEXT, "deception_corpus", 1, "lie"),
    "agreement": BackendSpec(STANCE_CLASSES, INPUT_PAIR, "agreement_corpus", 2, "agreement"),
}
BACKEND_NAMES = tuple(BACKEND_SPECS)


def _mode_backends(mode: str) -> dict[str, str]:
    if mode not in MODE_BACKENDS:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    return MODE_BACKENDS[mode]


def backend_name(mode: str, slot: str) -> str:
    """The named backend that fills a slot in a mode; a slot the mode does
    not use names the routed (double-mode) backend."""
    return _mode_backends(mode).get(slot, slot)


def backend_names(modes: Sequence[str]) -> list[str]:
    """The distinct backends a set of modes uses, in training order."""
    used = {name for mode in modes for name in _mode_backends(mode).values()}
    return [name for name in BACKEND_NAMES if name in used]


def classify(
    conv: Conversation, config: PipelineConfig, backends: Mapping[str, Optional[ClassifierBackend]]
) -> VeracityPrediction:
    """Route one conversation and return its veracity prediction.

    backends is keyed by name, as for score_grid(). The reply window (when
    set) prunes replies before agreement scoring; thread text is never
    windowed, so the certainty and lie channels see the conversation
    unchanged.
    """
    return run_batch([conv], config, backends)[0]


def run_batch(
    convs: Sequence[Conversation],
    config: PipelineConfig,
    backends: Mapping[str, Optional[ClassifierBackend]],
) -> list[VeracityPrediction]:
    """One prediction per conversation, in input order; classify() on each.

    This is score_grid() for the one row (config.mode, config.reply_window_days)
    with every conversation kept: a thread left with no primary reply in
    the window still gets a prediction (its agreement channel abstains).
    """
    row = (config.mode, config.reply_window_days)
    return next(score_grid(convs, [row], backends, config.entropy_epsilon, keep_all=True)).predictions


@dataclass(frozen=True)
class GridRow:
    """One (mode, reply window) row scored over a corpus."""

    mode: str
    window_days: Optional[int]
    predictions: list[VeracityPrediction]
    # Primary replies inside the window, per predicted thread (the Avg # column).
    reply_counts: list[int]


def score_grid(
    convs: Sequence[Conversation],
    rows: Sequence[tuple[str, Optional[int]]],
    backends: Mapping[str, Optional[ClassifierBackend]],
    epsilon: float = DEFAULT_ENTROPY_EPSILON,
    keep_all: bool = False,
) -> Iterator[GridRow]:
    """Score (mode, window) rows over one corpus, calling each distinct
    backend at most once for all of them. Rows come one at a time, in
    order, so a caller can write each out before the next is built.

    backends maps names (see MODE_BACKENDS) to trained backends. A
    windowed row keeps only the threads with at least one primary reply
    posted within window_days * 86400 seconds of the thread (inclusive);
    keep_all keeps every thread. Phase 1 scores the threads some routed
    row keeps, each lie backend the threads some row routes to it, and the
    agreement backend the primary pairs of the threads some row routes to
    it, within the widest window of those rows. Each row is then a pure
    function of those scores: route, mask replies by age, aggregate,
    decide. A stage with nothing to score needs no backend.
    """
    convs = list(convs)
    limits = [math.inf if days is None else days * SECONDS_PER_DAY for _, days in rows]
    # Primary-reply ages in seconds; only windowed rows read them.
    windowed = any(days is not None for _, days in rows)
    ages = [
        [
            (r.post.created_at - c.thread.created_at).total_seconds() if windowed else 0.0
            for r in c.replies
            if r.is_primary
        ]
        for c in convs
    ]
    kept = [
        [i for i, a in enumerate(ages) if keep_all or limit == math.inf or any(x <= limit for x in a)]
        for limit in limits
    ]
    wanted: dict[str, dict[int, str]] = {}  # name -> {thread index: a mode scoring it}

    def score(name: str, inputs, call=predict_rows) -> dict[int, Sequence]:
        """One batched call of a named backend over the inputs of the threads
        that want it; each thread gets its slice of the result."""
        idx = sorted(wanted.get(name, ()))
        if not idx:
            return {}
        if backends.get(name) is None:
            raise UntrainedBackend(f"mode {wanted[name][idx[0]]} needs a trained {name} backend")
        per_thread = [inputs(i) for i in idx]
        results = call(backends[name], [x for xs in per_thread for x in xs])
        ends = accumulate(map(len, per_thread))
        return {i: results[end - len(xs) : end] for i, xs, end in zip(idx, per_thread, ends)}

    for (mode, _), idx in zip(rows, kept):
        if "phase1" in _mode_backends(mode):
            wanted.setdefault("phase1", {}).update(dict.fromkeys(idx, mode))
    routing = score("phase1", lambda i: [convs[i].thread], assign_threads)
    assignments = {i: a for i, [a] in routing.items()}

    routes = []  # per row: (thread index, assignment or None, channel)
    widest = -math.inf  # the widest window of the rows that use the agreement channel
    for (mode, _), limit, idx in zip(rows, limits, kept):
        names = _mode_backends(mode)
        route = []
        for i in idx:
            a = assignments[i] if "phase1" in names else None
            channel = _ROUTE[(mode, a and a.label)]
            route.append((i, a, channel))
            wanted.setdefault(names[channel], {})[i] = mode  # slots are named after channels
            if channel == CHANNEL_AGREEMENT:
                widest = max(widest, limit)
        routes.append(route)
    pairs = {
        i: [(p, age) for p, age in zip(primary_pairs(convs[i]), ages[i]) if age <= widest]
        for i in wanted.get("agreement", ())
    }

    # Lie evidence is written as is: one ProbVector per (backend, thread), shared by the rows.
    lie = {
        name: score(name, lambda i: [convs[i].thread.text_clean], predict_all)
        for name in ("lie", "lie_unrouted")
    }
    stances = score("agreement", lambda i: [p for p, _ in pairs[i]])

    for (mode, days), limit, route in zip(rows, limits, routes):
        names = _mode_backends(mode)
        preds, counts = [], []
        for i, a, channel in route:
            tid = convs[i].thread.id
            if channel == CHANNEL_LIE:
                preds.append(lie_prediction(tid, lie[names[channel]][i][0], epsilon, a))
            else:  # a windowed row masks the thread's stance rows by reply age
                in_window = slice(None) if days is None else [age <= limit for _, age in pairs[i]]
                preds.append(agreement_prediction(tid, stances[i][in_window], epsilon, a))
            counts.append(len(ages[i]) if days is None else sum(age <= limit for age in ages[i]))
        yield GridRow(mode, days, preds, counts)


def train_backend(
    name: str,
    train_split: Sequence[Conversation],
    corpus: Sequence,
    backend_factory,
    cfg: RunConfig,
    routing: Optional[Mapping[str, ChannelAssignment]] = None,
) -> ClassifierBackend:
    """Train one named backend: pretrain on its external corpus, then
    fine-tune on the train split.

    corpus is the name's pretrain corpus: hedge sentences for phase1,
    deception texts for lie and lie_unrouted, agreement pairs for
    agreement. backend_factory(classes, input_kind, seed) must return a
    fresh untrained backend; classes, input kind, the offset added to
    cfg.seed and the stage whose cfg recipes train it come from
    BACKEND_SPECS. phase1 self-labels the train split and fine-tunes on a
    balanced resample of cfg.phase1_per_class threads per class. lie
    fine-tunes on the binary-gold threads that routing, the trained phase1
    backend's assign_all() of train_split, sends to it, and lie_unrouted
    (the single-channel retrain) on every binary-gold thread. agreement
    fine-tunes on every primary pair, which is already unrouted, so every
    mode shares it.
    """
    if name not in BACKEND_SPECS:
        raise ConfigError(f"backend name must be one of {BACKEND_NAMES}, got {name!r}")
    if name == "lie" and routing is None:
        raise UntrainedBackend("the routed lie backend needs the phase1 routing of the train split")
    classes, input_kind, _, seed_offset, stage = BACKEND_SPECS[name]
    backend = backend_factory(classes, input_kind, cfg.seed + seed_offset)
    recipes = (cfg.recipe(f"{stage}_pretrain"), cfg.recipe(f"{stage}_finetune"))
    if name == "phase1":
        return train_phase1(backend, corpus, train_split, *recipes, cfg.phase1_per_class, cfg.seed)
    if name == "agreement":
        pretrain, finetune = build_phase22_training(corpus, train_split)
    else:
        pretrain, finetune = build_phase21_training(corpus, train_split, routing if name == "lie" else None)
    backend.fit(pretrain, recipes[0])
    if finetune:
        backend.fit(finetune, recipes[1])
    return backend


def train_backends(
    names: Sequence[str],
    train_split: Sequence[Conversation],
    corpus_for: Callable[[str], Sequence],
    backend_factory,
    cfg: RunConfig,
    load_phase1: Optional[Callable[[], ClassifierBackend]] = None,
) -> Iterator[tuple[str, ClassifierBackend, Optional[dict[str, ChannelAssignment]]]]:
    """train_backend() once per distinct name, in BACKEND_NAMES order,
    yielding (name, backend, routing) as each one is trained. A grid
    trains backend_names(MODES): four backends serve all four modes.

    corpus_for(name) reads the name's pretrain corpus and is called first
    for each name. routing is the train split as phase1 routes it (None
    until known): one assign_all() of the phase1 trained here, or else,
    when the routed lie backend needs it, of load_phase1(), which is
    called only after the lie corpus has been read.
    """
    routing = None
    for name in sorted(set(names), key=BACKEND_NAMES.index):
        corpus = corpus_for(name)
        if name == "lie" and routing is None and load_phase1 is not None:
            routing = assign_all(load_phase1(), train_split)
        backend = train_backend(name, train_split, corpus, backend_factory, cfg, routing)
        if name == "phase1":
            routing = assign_all(backend, train_split)
        yield name, backend, routing
