"""Shared test helpers: independent oracles and hypothesis strategies.

The oracles here deliberately re-derive expected values from scratch
(math.log2, fractions.Fraction, plain counting) so tests compare the
package against an implementation that shares none of its code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import zlib
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from hypothesis import strategies as st

from rumorvet.certainty import CERTAINTY_CLASSES, ChannelAssignment
from rumorvet.corpus import Conversation, Post, Reply, clean_text, filter_window
from rumorvet.errors import UnparseableTimestamp, UntrainedBackend
from rumorvet.pipeline import MODE_BACKENDS
from rumorvet.predictions import (
    CHANNEL_AGREEMENT,
    CHANNEL_LIE,
    WARN_DEGENERATE_EVIDENCE,
    WARN_NO_PRIMARY_REPLIES,
    VeracityPrediction,
)
from rumorvet.probs import FALSE, TRUE, UNVERIFIED, ProbVector, decide, self_entropy, smooth_labels

BASE_TIME = datetime(2019, 1, 7, 12, 0, tzinfo=timezone.utc)


# -- oracles -----------------------------------------------------------------


def entropy_oracle(p: Sequence[float]) -> float:
    """Base-2 Shannon entropy, zero terms dropped, no clamping."""
    return -sum(v * math.log2(v) for v in p if v > 0.0)


def aggregate_oracle(softmaxes: Sequence[tuple[Fraction, Fraction, Fraction]]):
    """Exact none-discard aggregation over rational stance vectors."""
    a = sum((s[0] for s in softmaxes), Fraction(0))
    b = sum((s[1] for s in softmaxes), Fraction(0))
    total = a + b
    if total == 0:
        return None
    return (a / total, b / total)


def metrics_oracle(counts: Sequence[Sequence[int]]):
    """Per-class P/R/F1 with the zero-denominator-is-zero rule, plus
    accuracy and the macro averages, by direct counting."""
    k = len(counts)
    total = sum(sum(row) for row in counts)
    per_class = []
    for i in range(k):
        col = sum(counts[r][i] for r in range(k))
        row = sum(counts[i])
        p = counts[i][i] / col if col else 0.0
        r = counts[i][i] / row if row else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        per_class.append((p, r, f1))
    acc = sum(counts[i][i] for i in range(k)) / total
    macro = tuple(sum(v[j] for v in per_class) / k for j in range(3))
    return {
        "accuracy": acc,
        "macro_precision": macro[0],
        "macro_recall": macro[1],
        "macro_f1": macro[2],
        "per_class": per_class,
    }


def sha256_tree_oracle(root) -> str:
    """The tree digest as first written: rglob, sort the Path objects, open
    every file that is_file() and hash it again."""
    root = Path(root)
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode("utf-8"))
            h.update(b"\0")
            h.update(hashlib.sha256(p.read_bytes()).hexdigest().encode("ascii"))
            h.update(b"\n")
    return h.hexdigest()


def parse_timestamp_oracle(value) -> datetime:
    """The timestamp parser as first written: epoch, then the Twitter
    format, then ISO 8601."""
    if isinstance(value, bool):
        raise UnparseableTimestamp(f"not a timestamp: {value!r}")
    if isinstance(value, (int, float)):
        try:
            dt = datetime.fromtimestamp(float(value), tz=timezone.utc)
        except (OverflowError, OSError, ValueError) as exc:
            raise UnparseableTimestamp(f"bad epoch value {value!r}") from exc
        return dt.replace(microsecond=0)
    if isinstance(value, str):
        text = value.strip()
        if not text:
            raise UnparseableTimestamp("empty timestamp")
        try:
            return parse_timestamp_oracle(float(text))
        except (ValueError, UnparseableTimestamp):
            pass
        try:
            dt = datetime.strptime(text, "%a %b %d %H:%M:%S %z %Y")
        except ValueError:
            try:
                dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
            except ValueError as exc:
                raise UnparseableTimestamp(f"unrecognized timestamp {value!r}") from exc
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.astimezone(timezone.utc).replace(microsecond=0)
    raise UnparseableTimestamp(f"not a timestamp: {value!r}")


class OracleBackend:
    """The per-example hashed bag-of-words classifier, kept as the oracle
    for ReferenceBackend's array code.

    Features are a dict of bucket -> count per input, logits add
    count * row in first-occurrence order, and each minibatch step sums
    its gradients example by example. Its payload() is in model format 1:
    payload_v1() of a ReferenceBackend in the same state must equal it,
    and save_v1() writes the file format 1 had.
    """

    backend_kind = "reference"
    _TOKEN_RE = re.compile(r"\w+")

    def __init__(self, classes, input_kind="text", n_buckets=1 << 16, seed=0, step_size=0.5):
        self.classes = tuple(classes)
        self.input_kind = input_kind
        self.n_buckets = int(n_buckets)
        self.seed = int(seed)
        self.step_size = float(step_size)
        self._weights = None
        self._bias = None
        self._recipes = []

    def _bucket(self, token):
        return zlib.crc32(token.encode("utf-8")) % self.n_buckets

    def _feature_counts(self, x):
        sides = [("", x)] if self.input_kind == "text" else [("a|", x[0]), ("b|", x[1])]
        counts = {}
        for prefix, text in sides:
            for token in self._TOKEN_RE.findall(text.lower()):
                b = self._bucket(prefix + token)
                counts[b] = counts.get(b, 0.0) + 1.0
        return counts

    def _logits(self, counts):
        z = self._bias.copy()
        for b, c in counts.items():
            row = self._weights.get(b)
            if row is not None:
                z += c * row
        return z

    def fit(self, examples, recipe):
        prepared = [
            (self._feature_counts(x), np.array(smooth_labels(t, recipe.label_smoothing).values))
            for x, t in examples
        ]
        if self._bias is None:
            rng = np.random.default_rng(self.seed)
            self._weights = {}
            self._bias = rng.normal(0.0, 1e-9, len(self.classes))
        for _ in range(recipe.epochs):
            for start in range(0, len(prepared), recipe.batch_size):
                self._step(prepared[start : start + recipe.batch_size])
        self._recipes.append({"n_examples": len(examples), "recipe": recipe.to_dict()})

    def _step(self, batch):
        scale = self.step_size / len(batch)
        k = len(self.classes)
        bias_grad = np.zeros(k)
        weight_grad = {}
        for counts, target in batch:
            err = _oracle_softmax(self._logits(counts)) - target
            bias_grad += err
            for b, c in counts.items():
                g = weight_grad.get(b)
                if g is None:
                    g = weight_grad[b] = np.zeros(k)
                g += c * err
        for b, g in weight_grad.items():
            row = self._weights.get(b)
            if row is None:
                row = self._weights[b] = np.zeros(k)
            row -= scale * g
        self._bias -= scale * bias_grad

    def predict(self, x):
        if self._bias is None or not self._recipes:
            raise UntrainedBackend("oracle backend has not been fitted")
        p = _oracle_softmax(self._logits(self._feature_counts(x)))
        return ProbVector(tuple(float(v) for v in p))

    def payload(self):
        return {
            "classes": list(self.classes),
            "input_kind": self.input_kind,
            "n_buckets": self.n_buckets,
            "seed": self.seed,
            "step_size": self.step_size,
            "bias": [float(v) for v in self._bias],
            "weights": {
                str(b): [float(v) for v in row] for b, row in sorted(self._weights.items())
            },
            "recipes": self._recipes,
        }

    @classmethod
    def from_payload(cls, payload):
        backend = cls(
            payload["classes"],
            payload["input_kind"],
            payload["n_buckets"],
            payload["seed"],
            payload["step_size"],
        )
        backend._bias = np.array([float(v) for v in payload["bias"]])
        backend._weights = {
            int(b): np.array([float(v) for v in row]) for b, row in payload["weights"].items()
        }
        backend._recipes = list(payload["recipes"])
        return backend


def _oracle_softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def payload_v1(backend) -> dict:
    """A ReferenceBackend's state in model format 1, as its payload() wrote
    it before format 2: every bucket any fit() touched, zero rows included,
    keyed by str(bucket) in bucket order, each row a list of floats."""
    if backend._bias is None or not backend._recipes:
        raise UntrainedBackend("cannot save an unfitted backend")
    touched = np.flatnonzero(backend._index)
    rows = backend._rows[backend._index[touched]].tolist()
    return {
        "classes": list(backend.classes),
        "input_kind": backend.input_kind,
        "n_buckets": backend.n_buckets,
        "seed": backend.seed,
        "step_size": backend.step_size,
        "bias": backend._bias.tolist(),
        "weights": dict(zip(map(str, touched.tolist()), rows)),
        "recipes": backend._recipes,
    }


def save_v1(backend, path) -> None:
    """save_model() as model format 1 wrote it. An OracleBackend's own
    payload() is already format 1; a ReferenceBackend goes through
    payload_v1()."""
    payload = backend.payload() if isinstance(backend, OracleBackend) else payload_v1(backend)
    doc = {"format_version": 1, "backend_kind": "reference", "payload": payload}
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def classify_oracle(conv: Conversation, config, backends) -> VeracityPrediction:
    """One thread through the double-channel rules, one predict() per input.
    backends is keyed by name; MODE_BACKENDS gives the name in each slot."""
    eps = config.entropy_epsilon
    slots = {slot: backends[name] for slot, name in MODE_BACKENDS[config.mode].items()}
    assignment = None
    if config.mode in ("single_lie", "single_agreement"):
        channel = CHANNEL_LIE if config.mode == "single_lie" else CHANNEL_AGREEMENT
    else:
        p = slots["phase1"].predict(conv.thread.text_clean)
        label = CERTAINTY_CLASSES[p.argmax()]
        assignment = ChannelAssignment(conv.thread.id, label, p)
        certain = label == "certain"
        channel = CHANNEL_LIE if certain == (config.mode == "double") else CHANNEL_AGREEMENT
    if channel == CHANNEL_LIE:
        p = slots["lie"].predict(conv.thread.text_clean)
        pred = VeracityPrediction(
            conv.thread.id, decide(p, (TRUE, FALSE), eps), CHANNEL_LIE, None, p, self_entropy(p), 0
        )
        return dataclasses.replace(pred, assignment=assignment)
    if config.reply_window_days is not None:
        conv = filter_window(conv, config.reply_window_days)
    stances = [
        slots["agreement"].predict((conv.thread.text_clean, r.post.text_clean))
        for r in conv.replies
        if r.is_primary
    ]
    agree = math.fsum(s[0] for s in stances)
    disagree = math.fsum(s[1] for s in stances)
    if not stances or agree + disagree == 0.0:
        warning = WARN_DEGENERATE_EVIDENCE if stances else WARN_NO_PRIMARY_REPLIES
        return VeracityPrediction(
            conv.thread.id,
            UNVERIFIED,
            CHANNEL_AGREEMENT,
            assignment,
            ProbVector((0.5, 0.5)),
            1.0,
            len(stances),
            (warning,),
        )
    evidence = ProbVector((agree / (agree + disagree), disagree / (agree + disagree)))
    return VeracityPrediction(
        conv.thread.id,
        decide(evidence, (TRUE, FALSE), eps),
        CHANNEL_AGREEMENT,
        assignment,
        evidence,
        self_entropy(evidence),
        len(stances),
    )


def spread_reply_ages(conv: Conversation, k: int) -> Conversation:
    """Reply ages over 0-7 days, so the 1/3/5-day windows keep different replies."""
    replies = []
    for j, r in enumerate(conv.replies):
        age = (k * 7919 + j * 104729) % (7 * 86400)
        post = dataclasses.replace(r.post, created_at=conv.thread.created_at + timedelta(seconds=age))
        replies.append(dataclasses.replace(r, post=post))
    replies.sort(key=lambda r: (r.post.created_at, r.post.id))
    return dataclasses.replace(conv, replies=tuple(replies))


class CountingBackend:
    """Records each batch call; a per-item predict() call fails the test.
    Every other attribute (fit, payload, classes, ...) is the inner
    backend's, so a wrapped backend can still be trained and saved."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def predict_batch(self, xs):
        self.batches.append(len(xs))
        return self.inner.predict_batch(xs)

    def predict(self, x):
        raise AssertionError("scored one input at a time")


# -- strategies --------------------------------------------------------------


def prob_vectors(k: int, max_weight: int = 1000):
    """Valid probability vectors built from integer weights."""

    def normalize(ws):
        total = sum(ws)
        return tuple(w / total for w in ws)

    return st.lists(
        st.integers(min_value=0, max_value=max_weight), min_size=k, max_size=k
    ).filter(lambda ws: sum(ws) > 0).map(normalize)


def rational_softmaxes(max_den: int = 40):
    """One rational 3-component stance vector (sums to exactly 1)."""

    def build(ws):
        total = sum(ws)
        return tuple(Fraction(w, total) for w in ws)

    return st.lists(st.integers(min_value=0, max_value=max_den), min_size=3, max_size=3).filter(
        lambda ws: sum(ws) > 0
    ).map(build)


_WORDS = (
    "storm", "bridge", "market", "signal", "harbor", "garden",
    "window", "letter", "silver", "meadow", "candle", "ribbon",
)

texts = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=8).map(" ".join)


def make_post(post_id: str, text: str = "a post", offset_s: int = 0) -> Post:
    return Post(
        id=post_id,
        text_raw=text,
        text_clean=clean_text(text),
        created_at=BASE_TIME + timedelta(seconds=offset_s),
        platform="twitter",
    )


def make_conv(
    thread_id: str = "t1",
    thread_text: str = "a thread",
    replies: Sequence[tuple[str, int, bool]] = (),
    gold: Optional[str] = None,
) -> Conversation:
    """replies: (text, offset_seconds, is_primary) per reply."""
    thread = make_post(thread_id, thread_text, 0)
    reply_objs = []
    for i, (text, offset, primary) in enumerate(replies):
        post = make_post(f"{thread_id}-r{i}", text, offset)
        parent = thread_id if primary else f"{thread_id}-r0"
        reply_objs.append(Reply(post=post, parent_id=parent, is_primary=primary))
    reply_objs.sort(key=lambda r: (r.post.created_at, r.post.id))
    return Conversation(thread=thread, replies=tuple(reply_objs), gold_label=gold)


@st.composite
def conversations(draw, max_replies: int = 6):
    """Random conversations with reply offsets spanning several days."""
    thread_id = draw(st.from_regex(r"t[0-9]{1,4}", fullmatch=True))
    n = draw(st.integers(min_value=0, max_value=max_replies))
    replies = []
    for _ in range(n):
        offset = draw(st.integers(min_value=0, max_value=8 * 86400))
        primary = draw(st.booleans()) if replies else True
        replies.append((draw(texts), offset, primary))
    gold = draw(st.sampled_from(["true", "false", "unverified", None]))
    return make_conv(thread_id, draw(texts), replies, gold)
