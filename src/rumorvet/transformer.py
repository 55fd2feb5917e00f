"""Transformer-based backend over the same classifier contract.

This is the published-scale counterpart of the reference backend:
a pretrained encoder with a classification head, fine-tuned with Adam at
the recipe's learning rate on smoothed cross-entropy. It needs the
optional torch/transformers extra, downloads pretrained weights on first
use, and is not bit-reproducible across library versions or hardware, so
the test suite only exercises it when explicitly opted in.
"""

from __future__ import annotations

import base64
import io
from typing import Optional, Sequence

from .backends import (
    INPUT_PAIR,
    INPUT_TEXT,
    BackendInput,
    ClassifierBackend,
    TrainingRecipe,
)
from .errors import ModelError, UntrainedBackend
from .probs import ProbVector, smooth_labels

DEFAULT_MODEL_NAME = "bert-base-uncased"


def _import_torch():
    try:
        import torch
    except ImportError as exc:
        raise ModelError(
            "the transformer backend needs the optional extra: pip install 'rumorvet[transformer]'"
        ) from exc
    return torch


def _import_transformers():
    try:
        import transformers
    except ImportError as exc:
        raise ModelError(
            "the transformer backend needs the optional extra: pip install 'rumorvet[transformer]'"
        ) from exc
    return transformers


class TransformerBackend(ClassifierBackend):
    """Encoder + linear head fine-tuned on smoothed cross-entropy."""

    backend_kind = "transformer"

    def __init__(
        self,
        classes: Sequence[str],
        input_kind: str = INPUT_TEXT,
        model_name: str = DEFAULT_MODEL_NAME,
        max_length: int = 128,
        seed: int = 0,
        device: Optional[str] = None,
    ):
        if input_kind not in (INPUT_TEXT, INPUT_PAIR):
            raise ValueError(f"unknown input kind {input_kind!r}")
        if len(classes) not in (2, 3):
            raise ValueError("transformer backend supports 2 or 3 classes")
        self.classes = tuple(classes)
        self.input_kind = input_kind
        self.model_name = model_name
        self.max_length = int(max_length)
        self.seed = int(seed)
        self._device = device
        self._model = None
        self._tokenizer = None
        self._fitted = False

    # -- model lifecycle ---------------------------------------------------

    def _ensure_model(self):
        if self._model is not None:
            return
        torch = _import_torch()
        transformers = _import_transformers()
        torch.manual_seed(self.seed)
        self._tokenizer = transformers.AutoTokenizer.from_pretrained(self.model_name)
        self._model = transformers.AutoModelForSequenceClassification.from_pretrained(
            self.model_name, num_labels=len(self.classes)
        )
        if self._device:
            self._model.to(self._device)

    def _encode(self, xs: Sequence[BackendInput]):
        if self.input_kind == INPUT_TEXT:
            firsts, seconds = list(xs), None
        else:
            firsts = [x[0] for x in xs]
            seconds = [x[1] for x in xs]
        batch = self._tokenizer(
            firsts,
            seconds,
            truncation=True,
            max_length=self.max_length,
            padding=True,
            return_tensors="pt",
        )
        if self._device:
            batch = {k: v.to(self._device) for k, v in batch.items()}
        return batch

    # -- training ----------------------------------------------------------

    def fit(
        self, examples: Sequence[tuple[BackendInput, ProbVector]], recipe: TrainingRecipe
    ) -> None:
        if not examples:
            raise ValueError("fit needs at least one example")
        torch = _import_torch()
        self._ensure_model()
        k = len(self.classes)
        targets = []
        for _, target in examples:
            if target.k != k:
                raise ValueError(f"target has {target.k} components, backend has {k} classes")
            targets.append(smooth_labels(target, recipe.label_smoothing).values)
        inputs = [x for x, _ in examples]
        optimizer = torch.optim.Adam(self._model.parameters(), lr=recipe.learning_rate)
        self._model.train()
        for _ in range(recipe.epochs):
            for start in range(0, len(inputs), recipe.batch_size):
                xs = inputs[start : start + recipe.batch_size]
                ts = torch.tensor(
                    targets[start : start + recipe.batch_size], dtype=torch.float32
                )
                if self._device:
                    ts = ts.to(self._device)
                logits = self._model(**self._encode(xs)).logits
                loss = -(ts * torch.log_softmax(logits, dim=-1)).sum(dim=-1).mean()
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
        self._fitted = True

    # -- inference ---------------------------------------------------------

    def predict(self, x: BackendInput) -> ProbVector:
        if not self._fitted:
            raise UntrainedBackend("transformer backend has not been fitted")
        torch = _import_torch()
        self._model.eval()
        with torch.no_grad():
            logits = self._model(**self._encode([x])).logits[0]
            probs = torch.softmax(logits, dim=-1).cpu().tolist()
        return ProbVector(tuple(float(v) for v in probs))

    # -- persistence -------------------------------------------------------

    def payload(self) -> dict:
        if not self._fitted:
            raise UntrainedBackend("cannot save an unfitted backend")
        torch = _import_torch()
        buf = io.BytesIO()
        torch.save(self._model.state_dict(), buf)
        return {
            "classes": list(self.classes),
            "input_kind": self.input_kind,
            "model_name": self.model_name,
            "max_length": self.max_length,
            "seed": self.seed,
            "state_b64": base64.b64encode(buf.getvalue()).decode("ascii"),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TransformerBackend":
        torch = _import_torch()
        backend = cls(
            classes=tuple(payload["classes"]),
            input_kind=payload["input_kind"],
            model_name=payload["model_name"],
            max_length=payload["max_length"],
            seed=payload["seed"],
        )
        backend._ensure_model()
        state = torch.load(
            io.BytesIO(base64.b64decode(payload["state_b64"])), map_location="cpu"
        )
        backend._model.load_state_dict(state)
        backend._fitted = True
        return backend
