"""Transformer backend contract checks.

Everything here runs without the heavy dependencies. Fitting downloads
pretrained weights and is exercised only when RUMORVET_TEST_TRANSFORMER
is set, since it needs network access and several minutes of CPU.
"""

import os

import pytest

from rumorvet import transformer
from rumorvet.backends import INPUT_PAIR, ClassifierBackend, TrainingRecipe
from rumorvet.errors import UntrainedBackend
from rumorvet.transformer import TransformerBackend

OPT_IN = os.environ.get("RUMORVET_TEST_TRANSFORMER") == "1"


class TestConstruction:
    def test_implements_the_contract(self):
        assert ClassifierBackend.__abstractmethods__ == {"fit", "predict_array"}
        assert not TransformerBackend.__abstractmethods__
        assert isinstance(TransformerBackend(("a", "b")), ClassifierBackend)

    def test_valid_without_torch(self):
        backend = TransformerBackend(("true", "false"), max_length=64, seed=3)
        assert backend.classes == ("true", "false")
        assert backend.max_length == 64

    def test_pair_kind(self):
        backend = TransformerBackend(("a", "b", "c"), input_kind=INPUT_PAIR)
        assert backend.input_kind == INPUT_PAIR

    def test_bad_input_kind(self):
        with pytest.raises(ValueError):
            TransformerBackend(("a", "b"), input_kind="tokens")

    @pytest.mark.parametrize("classes", [("a",), ("a", "b", "c", "d")])
    def test_class_count(self, classes):
        with pytest.raises(ValueError):
            TransformerBackend(classes)


class TestUntrainedGuards:
    def test_predict_before_fit(self):
        with pytest.raises(UntrainedBackend):
            TransformerBackend(("a", "b")).predict("text")
        with pytest.raises(UntrainedBackend):
            TransformerBackend(("a", "b")).predict_array(["text", "more"])

    def test_payload_before_fit(self):
        with pytest.raises(UntrainedBackend):
            TransformerBackend(("a", "b")).payload()

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            TransformerBackend(("a", "b")).fit([], TrainingRecipe(1, 1, 1e-5, 0.0))

    def test_fit_checks_labels_before_importing_torch(self, monkeypatch):
        def no_torch():
            raise AssertionError("torch imported before the labels were checked")

        monkeypatch.setattr(transformer, "_import_torch", no_torch)
        backend = TransformerBackend(("a", "b"))
        with pytest.raises(ValueError, match="'c' not in classes"):
            backend.fit([("x", "a"), ("y", "c")], TrainingRecipe(1, 1, 1e-5, 0.0))


@pytest.mark.skipif(not OPT_IN, reason="set RUMORVET_TEST_TRANSFORMER=1 to run")
class TestFit:
    def test_fit_predict_round_trip(self):
        backend = TransformerBackend(("yes", "no"), max_length=32, seed=0)
        examples = [("a very good thing", "yes"), ("a very bad thing", "no")] * 4
        recipe = TrainingRecipe(epochs=1, batch_size=4, learning_rate=5e-5, label_smoothing=0.1)
        backend.fit(examples, recipe)
        p = backend.predict("a good thing")
        assert p.k == 2
        assert backend.predict_array(["a good thing"]).tolist() == [list(p.values)]
