"""Pluggable sequence-classification backends.

Every channel talks to a ClassifierBackend: fit on (input, class name)
examples under a TrainingRecipe, then score many inputs at a time as the
rows of one predict_array. Inputs are single texts or (text, text) pairs
depending on the backend's input kind. Calling fit twice continues
training from the current state, which is how the pretrain-then-fine-tune
recipes are realized.

The reference backend is a hashed bag-of-words softmax classifier trained
by deterministic minibatch gradient descent, so the whole pipeline runs
and reproduces bit-for-bit without any pretrained model download. A
transformer-based backend implements the same interface (see
rumorvet.transformer) and is exercised only by opt-in runs.
"""

from __future__ import annotations

import abc
import base64
import json
import re
import zlib
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .corpus import read_json
from .errors import ModelError, ModelFormatError, UntrainedBackend
from .probs import _SUM_TOL, ProbVector

BackendInput = Union[str, tuple[str, str]]
LabeledInput = tuple[BackendInput, str]

INPUT_TEXT = "text"
INPUT_PAIR = "pair"

MODEL_FORMAT_VERSION = 2

_TOKEN_RE = re.compile(r"\w+")


@dataclass(frozen=True)
class TrainingRecipe:
    """Hyperparameters for one training step (pretrain or fine-tune)."""

    epochs: int
    batch_size: int
    learning_rate: float
    label_smoothing: float

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.learning_rate < float("inf"):  # also rejects NaN
            raise ValueError(f"learning_rate must be a finite number > 0, got {self.learning_rate}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "label_smoothing": self.label_smoothing,
        }


class ClassifierBackend(abc.ABC):
    """Behavior contract shared by all classification backends.

    fit() trains on (input, class name) examples and smooths the hard
    targets itself (recipe.label_smoothing); a label outside self.classes
    is a ValueError. predict_array() must be deterministic for a fixed
    trained state, safe for concurrent read-only use, and return input i's
    distribution over self.classes, in order, as row i of an (n, K)
    float64 array. Scoring reads arrays and builds ProbVectors only for
    what it writes (evidence, routing confidence) and for predict().
    """

    classes: tuple[str, ...]
    input_kind: str

    @abc.abstractmethod
    def fit(self, examples: Sequence[LabeledInput], recipe: TrainingRecipe) -> None:
        """Train (or continue training) on the given examples."""

    @abc.abstractmethod
    def predict_array(self, xs: Sequence[BackendInput]) -> np.ndarray:
        """Distributions over self.classes as the rows of a (len(xs), K) float64 array."""

    def predict(self, x: BackendInput) -> ProbVector:
        """Distribution over self.classes for one input."""
        return ProbVector(tuple(self.predict_array([x])[0].tolist()))


def smoothed_targets(labels: Sequence[str], classes: Sequence[str], rate: float) -> np.ndarray:
    """(n, K) training targets: each label's one-hot row over classes,
    blended toward uniform as (1 - rate) * t + rate / K. A label outside
    classes is a ValueError."""
    index = {c: i for i, c in enumerate(classes)}
    unknown = [label for label in labels if label not in index]
    if unknown:
        raise ValueError(f"label {unknown[0]!r} not in classes {tuple(classes)}")
    k = len(classes)
    return (1.0 - rate) * np.eye(k)[[index[label] for label in labels]] + rate / k


def predict_rows(backend: ClassifierBackend, xs: Sequence[BackendInput]) -> np.ndarray:
    """Input i's distribution as row i of an (n, K) array, from one
    predict_array() call; channels reach backends only through here. An
    empty list makes no call and gives a (0, 0) array. The batch is checked
    once with ProbVector's bounds; a bad row is a ValueError."""
    if not xs:
        return np.empty((0, 0))
    rows = np.asarray(backend.predict_array(xs), dtype=np.float64)
    ok = rows.ndim == 2 and len(rows) == len(xs) and np.all((rows >= -_SUM_TOL) & (rows <= 1.0 + _SUM_TOL))
    if not (ok and np.all(np.abs(rows.sum(axis=1) - 1.0) <= _SUM_TOL)):  # NaN fails both tests
        raise ValueError(f"{type(backend).__name__} returned rows that are not probability distributions")
    return rows


def predict_all(backend: ClassifierBackend, xs: Sequence[BackendInput]) -> list[ProbVector]:
    """predict_rows() as one ProbVector per input, for callers that keep each one."""
    return [ProbVector(tuple(row)) for row in predict_rows(backend, xs).tolist()]


# Inputs featurised and scored together. Bounds the working set of a large
# predict_array() or fit() to a few hundred inputs' features.
PREDICT_CHUNK = 256


class ReferenceBackend(ClassifierBackend):
    """Deterministic hashed bag-of-words softmax classifier.

    Tokens are lowercased \\w+ runs hashed with crc32 into a fixed bucket
    space; pair inputs get side prefixes so thread and reply vocabularies
    stay separate. Training is minibatch gradient descent on the smoothed
    cross-entropy, iterating examples in their given order. The recipe's
    epochs, batch size and label smoothing are honored; learning_rate is a
    transformer-scale knob that a linear model cannot use, so it is
    recorded for provenance only and the update uses a fixed internal step
    size.

    Storage: an int32 bucket -> row index (0 for a bucket no fit() has
    touched) over a growing float64 rows table whose row 0 stays zero.
    fit() and predict_array() work on whole minibatches and chunks with
    array code, yet add every term in the order the per-example
    definition does (bias first, then count * row per distinct bucket in
    first-occurrence order; gradients example by example), so models and
    predictions are bit-for-bit those of the per-example loops. Minibatches
    never change between epochs, so fit() featurises, merges and finds each
    batch's touched buckets once per call and holds them (int32) for the call.
    """

    backend_kind = "reference"

    def __init__(
        self,
        classes: Sequence[str],
        input_kind: str = INPUT_TEXT,
        n_buckets: int = 1 << 16,
        seed: int = 0,
        step_size: float = 0.5,
    ):
        if input_kind not in (INPUT_TEXT, INPUT_PAIR):
            raise ValueError(f"unknown input kind {input_kind!r}")
        if len(classes) not in (2, 3):
            raise ValueError("reference backend supports 2 or 3 classes")
        if not 1 <= n_buckets <= 1 << 31:  # bucket ids are saved as int32
            raise ValueError(f"n_buckets must be in [1, 2**31], got {n_buckets}")
        self.classes = tuple(classes)
        self.input_kind = input_kind
        self.n_buckets = int(n_buckets)
        self.seed = int(seed)
        self.step_size = float(step_size)
        self._index: np.ndarray | None = None
        self._rows: np.ndarray | None = None
        self._n_rows = 0
        self._bias: np.ndarray | None = None
        self._recipes: list[dict] = []

    # -- features ----------------------------------------------------------

    def _sides(self, x: BackendInput) -> tuple[tuple[str, str], ...]:
        if self.input_kind == INPUT_TEXT:
            if not isinstance(x, str):
                raise ValueError(f"text backend expects a string input, got {type(x).__name__}")
            return (("", x),)
        if not (isinstance(x, tuple) and len(x) == 2):
            raise ValueError("pair backend expects a (text, text) input")
        return (("a|", x[0]), ("b|", x[1]))

    def _hashed(self, xs: Sequence[BackendInput]) -> tuple[np.ndarray, np.ndarray]:
        """Every input's token buckets, concatenated in order, and the token
        count of each input. Each distinct side text is tokenised and hashed
        once; crc32(prefix + token) is computed as crc32(token, crc32(prefix))."""
        distinct: dict[tuple[str, str], int] = {}
        order = [distinct.setdefault(side, len(distinct)) for x in xs for side in self._sides(x)]
        tokens = [_TOKEN_RE.findall(text.lower()) for _, text in distinct]
        sizes = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
        seeds = [zlib.crc32(prefix.encode("utf-8")) for prefix, _ in distinct]
        hashes = np.fromiter(
            map(
                zlib.crc32,
                map(str.encode, chain.from_iterable(tokens)),
                chain.from_iterable(map(repeat, seeds, sizes.tolist())),
            ),
            dtype=np.int64,
            count=int(sizes.sum()),
        )
        # Gather each (input, side) segment of the distinct texts' hashes.
        order = np.array(order, dtype=np.int64)
        seg = sizes[order]
        shift = (np.cumsum(sizes) - sizes)[order] - (np.cumsum(seg) - seg)
        picked = hashes[np.repeat(shift, seg) + np.arange(int(seg.sum()))]
        return picked % self.n_buckets, seg.reshape(len(xs), -1).sum(axis=1)

    def _merge(self, buckets: np.ndarray, lengths: np.ndarray):
        """(example, bucket, count) per distinct bucket of each example, in
        first-occurrence order; duplicates merge across the two pair sides."""
        example = np.repeat(np.arange(len(lengths)), lengths)
        keys, first, inverse = np.unique(
            example * self.n_buckets + buckets, return_index=True, return_inverse=True
        )
        counts = np.bincount(inverse, minlength=len(keys))  # ints: exact in any float64 product
        order = np.argsort(first, kind="stable")
        keys = keys[order]
        return keys // self.n_buckets, keys % self.n_buckets, counts[order]

    # -- training ----------------------------------------------------------

    def _ensure_initialized(self) -> None:
        if self._bias is None:
            rng = np.random.default_rng(self.seed)
            self._index = np.zeros(self.n_buckets, dtype=np.int32)
            self._rows = np.zeros((1, len(self.classes)))
            self._n_rows = 1
            # Tiny seeded bias noise: deterministic tie-breaking without
            # populating the (sparse) weight table.
            self._bias = rng.normal(0.0, 1e-9, len(self.classes))

    def _logits(self, example, rows, counts, n: int) -> np.ndarray:
        """(n, K) logits. bincount adds each example's bias first, then its
        count * self._rows[row] terms in entry order, as the per-example sum did."""
        terms = counts[:, None] * self._rows[rows]
        slots = np.concatenate([np.arange(n), example])
        z = np.empty((n, len(self.classes)))
        for j, bias in enumerate(self._bias):
            z[:, j] = np.bincount(
                slots, weights=np.concatenate([np.full(n, bias), terms[:, j]]), minlength=n
            )
        return z

    def fit(self, examples: Sequence[LabeledInput], recipe: TrainingRecipe) -> None:
        if not examples:
            raise ValueError("fit needs at least one example")
        targets = smoothed_targets([label for _, label in examples], self.classes, recipe.label_smoothing)
        batches = self._batches([x for x, _ in examples], targets, recipe.batch_size)
        self._ensure_initialized()
        for batch in batches * recipe.epochs:  # every epoch replays the same batches
            self._step(*batch)
        self._recipes.append({"n_examples": len(examples), "recipe": recipe.to_dict()})

    def _batches(self, inputs: list, targets: np.ndarray, size: int) -> list[tuple[np.ndarray, ...]]:
        """(example, touched, slot, counts, targets) per minibatch: each merged
        entry's example, bucket (touched[slot]) and count, then the targets."""
        chunks = range(0, len(inputs), PREDICT_CHUNK)
        hashed = [self._hashed(inputs[i : i + PREDICT_CHUNK]) for i in chunks]
        buckets = np.concatenate([b for b, _ in hashed])
        lengths = np.concatenate([n for _, n in hashed])
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        out = []
        for start in range(0, len(inputs), size):
            stop = min(start + size, len(inputs))
            example, merged, counts = self._merge(buckets[offsets[start] : offsets[stop]], lengths[start:stop])
            touched, slot = np.unique(merged, return_inverse=True)
            out.append((*(a.astype(np.int32) for a in (example, touched, slot, counts)), targets[start:stop]))
        return out

    def _step(self, example, touched, slot, counts, targets) -> None:
        n = len(targets)
        scale = self.step_size / n
        # Resolved every step, since earlier steps add rows. A new row is zero, like row 0.
        rows = self._row_ids(touched)
        err = _softmax_rows(self._logits(example, rows[slot], counts, n)) - targets
        # Sequential sums, example by example, like the per-example loop.
        bias_grad = np.cumsum(err, axis=0)[-1]
        terms = counts[:, None] * err[example]
        grad = np.empty((len(touched), len(self.classes)))
        for j in range(len(self.classes)):
            grad[:, j] = np.bincount(slot, weights=terms[:, j], minlength=len(touched))
        self._rows[rows] -= scale * grad
        self._bias -= scale * bias_grad

    def _row_ids(self, buckets: np.ndarray) -> np.ndarray:
        """Rows of the given distinct buckets, giving untouched ones new zero rows."""
        rows = self._index[buckets]
        new = np.flatnonzero(rows == 0)
        if len(new):
            first, self._n_rows = self._n_rows, self._n_rows + len(new)
            if self._n_rows > len(self._rows):
                grown = np.zeros((max(2 * len(self._rows), self._n_rows), len(self.classes)))
                grown[:first] = self._rows[:first]
                self._rows = grown
            ids = np.arange(first, self._n_rows, dtype=np.int32)
            self._index[buckets[new]] = ids
            rows[new] = ids
        return rows

    # -- inference ---------------------------------------------------------

    def predict_array(self, xs: Sequence[BackendInput]) -> np.ndarray:
        if self._bias is None or not self._recipes:
            raise UntrainedBackend("reference backend has not been fitted")
        out = np.empty((len(xs), len(self.classes)))
        for start in range(0, len(xs), PREDICT_CHUNK):
            chunk = xs[start : start + PREDICT_CHUNK]
            example, buckets, counts = self._merge(*self._hashed(chunk))
            p = _softmax_rows(self._logits(example, self._index[buckets], counts, len(chunk)))
            out[start : start + len(chunk)] = p
        return out

    # -- persistence -------------------------------------------------------

    def payload(self) -> dict:
        """Model-format-2 state. Lists every bucket any fit() touched, zero
        rows included: "buckets" is base64 of their increasing <i4 ids and
        "rows" base64 of their <f8 rows, row-major."""
        if self._bias is None or not self._recipes:
            raise UntrainedBackend("cannot save an unfitted backend")
        touched = np.flatnonzero(self._index)
        rows = self._rows[self._index[touched]]
        return {
            "classes": list(self.classes),
            "input_kind": self.input_kind,
            "n_buckets": self.n_buckets,
            "seed": self.seed,
            "step_size": self.step_size,
            "bias": self._bias.tolist(),
            "weights": {
                "buckets": base64.b64encode(touched.astype("<i4")).decode("ascii"),
                "rows": base64.b64encode(rows.astype("<f8")).decode("ascii"),
            },
            "recipes": self._recipes,
        }

    @classmethod
    def from_payload(cls, payload: dict, format_version: int = MODEL_FORMAT_VERSION) -> "ReferenceBackend":
        """The backend a format-1 or format-2 payload() describes. Wrong JSON
        types and inconsistent weights are ModelFormatErrors; load_model()
        also turns missing keys, bad base64 and the constructor's errors into them."""
        for key, kinds in _PAYLOAD_TYPES.items():
            if not isinstance(payload[key], kinds) or isinstance(payload[key], bool):
                raise ModelFormatError(f"payload {key!r} has the wrong JSON type")
        backend = cls(
            classes=tuple(payload["classes"]),
            input_kind=payload["input_kind"],
            n_buckets=payload["n_buckets"],
            seed=payload["seed"],
            step_size=payload["step_size"],
        )
        k = len(backend.classes)
        weights = payload["weights"]
        if format_version == 1:  # {"<bucket>": [row], ...} in any key order
            buckets = np.array([int(b) for b in weights], dtype=np.int64)
            rows = _floats([[0.0] * k, *weights.values()], (len(buckets) + 1, k), "weight rows")
            order = np.argsort(buckets, kind="stable")
            buckets, rows = buckets[order], rows[1:][order]
        else:
            ids, raw = (base64.b64decode(weights[key], validate=True) for key in ("buckets", "rows"))
            if len(ids) % 4 or len(raw) != 8 * k * (len(ids) // 4):
                raise ModelFormatError(f"weights must hold 4 bytes per bucket and 8 x {k} per row")
            buckets = np.frombuffer(ids, dtype="<i4").astype(np.int64)
            rows = _floats(np.frombuffer(raw, dtype="<f8").reshape(-1, k), (len(buckets), k), "weight rows")
        if np.any(np.diff(buckets) <= 0):
            raise ModelFormatError("weight buckets must be distinct and in increasing order")
        if len(buckets) and not (0 <= buckets[0] and buckets[-1] < backend.n_buckets):
            raise ModelFormatError(f"weight bucket outside [0, {backend.n_buckets})")
        backend._bias = _floats(payload["bias"], (k,), "bias")
        backend._index = np.zeros(backend.n_buckets, dtype=np.int32)
        backend._index[buckets] = np.arange(1, len(buckets) + 1)
        backend._rows = np.concatenate([np.zeros((1, k)), rows])
        backend._n_rows = len(backend._rows)
        backend._recipes = list(payload["recipes"])
        return backend


# The JSON type of each reference payload field; a bool is never a number.
_PAYLOAD_TYPES = {"classes": list, "input_kind": str, "n_buckets": int, "seed": int,
                  "step_size": (int, float), "bias": list, "weights": dict, "recipes": list}


def _floats(values, shape: tuple, what: str) -> np.ndarray:
    """Numbers as a float64 array of the given shape, all finite."""
    try:
        a = np.array(values)
    except ValueError:  # ragged rows
        a = np.array(None)
    if a.dtype.kind not in "fi" or a.shape != shape or not np.isfinite(a).all():
        raise ModelFormatError(f"{what} must be finite numbers of shape {shape}")
    return a.astype(np.float64, copy=False)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def save_model(backend, path) -> None:
    """Persist a backend to a single self-describing model file."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "backend_kind": backend.backend_kind,
        "payload": backend.payload(),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_model(path) -> ClassifierBackend:
    """Load a backend from a model file save_model wrote, in format 1 or 2.
    Whatever is wrong with the file is a ModelFormatError naming it."""
    doc = read_json(path, error=ModelFormatError)
    if not isinstance(doc, dict):
        raise ModelFormatError(f"a model file is a JSON object, got {type(doc).__name__}", path=path)
    version, kind = doc.get("format_version"), doc.get("backend_kind")
    if type(version) is not int or version not in (1, MODEL_FORMAT_VERSION):
        raise ModelFormatError(f"unsupported model format version {version!r}", path=path)
    try:
        if kind == ReferenceBackend.backend_kind:
            return ReferenceBackend.from_payload(doc["payload"], version)
        if kind == "transformer":
            from .transformer import TransformerBackend

            return TransformerBackend.from_payload(doc["payload"])
    except ModelError as exc:
        raise ModelFormatError(str(exc), path=path) from exc
    except (ImportError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"cannot load {kind} model: {type(exc).__name__}: {exc}", path=path) from exc
    raise ModelFormatError(f"unknown backend kind {kind!r}", path=path)
