"""Reference classifier backend: training, persistence, validation."""

import json

import pytest
from hypothesis import given

from rumorvet.backends import (
    INPUT_PAIR,
    INPUT_TEXT,
    ReferenceBackend,
    TrainingRecipe,
    load_model,
    save_model,
)
from rumorvet.errors import ModelFormatError, UntrainedBackend

from ._support import texts

RECIPE = TrainingRecipe(epochs=20, batch_size=4, learning_rate=5e-5, label_smoothing=0.0)

TEXT_PAIRS = [
    ("the claim is confirmed and verified", "yes"),
    ("officials confirmed the report", "yes"),
    ("this is verified news", "yes"),
    ("total fabrication and hoax", "no"),
    ("a hoax spread by bots", "no"),
    ("fabrication nothing more", "no"),
]


def _trained(seed=0, smoothing=0.0, epochs=20):
    backend = ReferenceBackend(("yes", "no"), INPUT_TEXT, seed=seed)
    recipe = TrainingRecipe(epochs=epochs, batch_size=4, learning_rate=5e-5, label_smoothing=smoothing)
    backend.fit(TEXT_PAIRS, recipe)
    return backend


class TestTrainingRecipe:
    def test_valid(self):
        r = TrainingRecipe(epochs=5, batch_size=32, learning_rate=5e-5, label_smoothing=0.2)
        assert r.to_dict()["epochs"] == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -1e-5},
            {"label_smoothing": -0.1},
            {"label_smoothing": 1.0},
        ],
    )
    def test_rejects(self, kwargs):
        base = dict(epochs=1, batch_size=1, learning_rate=1e-4, label_smoothing=0.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            TrainingRecipe(**base)


class TestConstruction:
    def test_bad_input_kind(self):
        with pytest.raises(ValueError):
            ReferenceBackend(("a", "b"), "tokens")

    @pytest.mark.parametrize("classes", [("a",), ("a", "b", "c", "d")])
    def test_class_count(self, classes):
        with pytest.raises(ValueError):
            ReferenceBackend(classes)


class TestLearning:
    def test_separates_classes(self):
        backend = _trained()
        assert backend.classes[backend.predict("the report is confirmed").argmax()] == "yes"
        assert backend.classes[backend.predict("what a hoax").argmax()] == "no"

    def test_smoothing_tempers_confidence(self):
        sharp = _trained(smoothing=0.0, epochs=40).predict("confirmed and verified")
        soft = _trained(smoothing=0.6, epochs=40).predict("confirmed and verified")
        assert max(sharp.values) > max(soft.values)

    def test_pair_sides_distinct(self):
        backend = ReferenceBackend(("yes", "no"), INPUT_PAIR, seed=0)
        pairs = [
            (("claim text", "i agree completely"), "yes"),
            (("claim text", "i deny this"), "no"),
        ] * 3
        backend.fit(pairs, RECIPE)
        forward = backend.predict(("claim text", "i agree completely"))
        swapped = backend.predict(("i agree completely", "claim text"))
        assert forward.values[0] > swapped.values[0]

    def test_fit_empty(self):
        with pytest.raises(ValueError):
            ReferenceBackend(("a", "b")).fit([], RECIPE)

    def test_label_outside_classes(self):
        backend = ReferenceBackend(("a", "b"))
        with pytest.raises(ValueError, match="'t' not in classes"):
            backend.fit([("x", "a"), ("y", "t")], RECIPE)
        with pytest.raises(UntrainedBackend):  # rejected before any training
            backend.payload()

    def test_text_backend_rejects_pair(self):
        with pytest.raises(ValueError):
            _trained().predict(("a", "b"))

    def test_pair_backend_rejects_text(self):
        backend = ReferenceBackend(("a", "b"), INPUT_PAIR)
        backend.fit([(("x", "y"), "a")], RECIPE)
        for bad in ("just text", ("one",), ("a", "b", "c")):
            with pytest.raises(ValueError):
                backend.predict(bad)

    def test_continued_training_appends_recipe(self):
        backend = _trained()
        backend.fit(TEXT_PAIRS[:2], RECIPE)
        assert len(backend.payload()["recipes"]) == 2

    @given(texts)
    def test_predictions_are_distributions(self, text):
        p = _trained().predict(text)
        assert p.k == 2 and abs(sum(p.values) - 1.0) < 1e-9


class TestDeterminism:
    def test_same_seed_same_model(self):
        a, b = _trained(seed=3), _trained(seed=3)
        assert a.payload() == b.payload()
        assert a.predict("anything at all") == b.predict("anything at all")

    def test_seed_changes_init(self):
        assert _trained(seed=0).payload() != _trained(seed=1).payload()


class TestPersistence:
    def test_untrained_guards(self):
        backend = ReferenceBackend(("a", "b"))
        with pytest.raises(UntrainedBackend):
            backend.predict("x")
        with pytest.raises(UntrainedBackend):
            backend.payload()

    def test_round_trip(self, tmp_path):
        backend = _trained()
        path = tmp_path / "m.json"
        save_model(backend, path)
        loaded = load_model(path)
        assert loaded.predict("confirmed report") == backend.predict("confirmed report")
        assert loaded.classes == backend.classes

    def test_resave_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(_trained(), p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{nope", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(p)

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"format_version": 99, "backend_kind": "reference"}))
        with pytest.raises(ModelFormatError) as exc:
            load_model(p)
        assert "version" in str(exc.value)

    def test_unknown_kind(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"format_version": 1, "backend_kind": "quantum", "payload": {}}))
        with pytest.raises(ModelFormatError):
            load_model(p)
