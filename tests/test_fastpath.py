"""ReferenceBackend's array code against the per-example oracle, bit for bit."""

import base64
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rumorvet import backends as backends_module
from rumorvet.backends import (
    INPUT_PAIR,
    INPUT_TEXT,
    ReferenceBackend,
    TrainingRecipe,
    load_model,
    predict_rows,
    save_model,
)
from rumorvet.agreement import STANCE_CLASSES, build_phase22_training
from rumorvet.errors import ModelFormatError
from rumorvet.lie import LIE_CLASSES, build_phase21_training
from rumorvet.config import RunConfig
from rumorvet.synthetic import SyntheticSpec, make_corpus

from ._support import OracleBackend, one_hot, one_hot_examples, payload_v1, save_v1, smooth_labels

_WORDS = ("storm", "Storm", "bridge", "market", "a1", "x", "hoax", "verified", "no", "yes")

side_texts = st.lists(st.sampled_from(_WORDS + ("!!", "...")), max_size=7).map(" ".join)
recipes = st.builds(
    TrainingRecipe,
    epochs=st.integers(1, 3),
    batch_size=st.integers(1, 7),
    learning_rate=st.just(5e-5),
    label_smoothing=st.sampled_from([0.0, 0.2, 0.3]),
)


def _inputs(kind):
    return side_texts if kind == INPUT_TEXT else st.tuples(side_texts, side_texts)


@st.composite
def fit_cases(draw):
    kind = draw(st.sampled_from([INPUT_TEXT, INPUT_PAIR]))
    classes = draw(st.sampled_from([("yes", "no"), ("agree", "disagree", "none")]))
    n_buckets = draw(st.sampled_from([8, 1 << 16]))
    seed = draw(st.integers(0, 3))
    labeled = st.tuples(_inputs(kind), st.sampled_from(classes))
    fits = st.tuples(st.lists(labeled, min_size=1, max_size=25), recipes)
    runs = draw(st.lists(fits, min_size=1, max_size=2))
    probes = draw(st.lists(_inputs(kind), max_size=12))
    return kind, classes, n_buckets, seed, runs, probes


def _pair(kind, classes, n_buckets, seed):
    fast = ReferenceBackend(classes, input_kind=kind, n_buckets=n_buckets, seed=seed)
    oracle = OracleBackend(classes, input_kind=kind, n_buckets=n_buckets, seed=seed)
    return fast, oracle


def _assert_same_predictions(fast, oracle, probes):
    """predict() and the rows of predict_array() and predict_rows() all
    equal the oracle's predict(), bit for bit."""
    expected = [oracle.predict(x) for x in probes]
    assert [fast.predict(x) for x in probes] == expected
    rows = fast.predict_array(probes)
    assert rows.dtype == np.float64 and rows.shape == (len(probes), len(fast.classes))
    assert [tuple(r) for r in rows.tolist()] == [p.values for p in expected]
    assert [tuple(r) for r in predict_rows(fast, probes).tolist()] == [p.values for p in expected]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fit_cases())
def test_fit_and_predict_match_oracle(tmp_path_factory, case):
    kind, classes, n_buckets, seed, runs, probes = case
    fast, oracle = _pair(kind, classes, n_buckets, seed)
    for examples, recipe in runs:
        fast.fit(examples, recipe)
        oracle.fit(one_hot_examples(examples, classes), recipe)
    out = tmp_path_factory.mktemp("fit")
    save_v1(fast, out / "fast.json")
    save_v1(oracle, out / "oracle.json")
    assert (out / "fast.json").read_bytes() == (out / "oracle.json").read_bytes()
    _assert_same_predictions(fast, oracle, probes + [x for x, _ in runs[0][0]])


def test_tiny_bucket_space_collides_across_pair_sides(tmp_path):
    """With 8 buckets the a| and b| sides share buckets; merging keeps the
    first occurrence across both sides, as the per-example dict did."""
    fast, oracle = _pair(INPUT_PAIR, ("agree", "disagree", "none"), 8, 0)
    examples = [
        (("storm bridge storm", "bridge market hoax"), "agree"),
        (("verified yes", "no no hoax storm"), "disagree"),
        (("", "market"), "none"),
        (("x a1 x", ""), "agree"),
    ] * 3
    recipe = TrainingRecipe(epochs=3, batch_size=5, learning_rate=5e-5, label_smoothing=0.3)
    fast.fit(examples, recipe)
    oracle.fit(one_hot_examples(examples, oracle.classes), recipe)

    def distinct_tokens(x):
        return len(set(x[0].lower().split())) + len(set(x[1].lower().split()))

    assert any(len(oracle._feature_counts(x)) < distinct_tokens(x) for x, _ in examples)
    assert payload_v1(fast) == oracle.payload()
    _assert_same_predictions(fast, oracle, [x for x, _ in examples] + [("", "")])


def test_batches_past_the_chunk_boundary():
    chunk = backends_module.PREDICT_CHUNK
    fast, oracle = _pair(INPUT_PAIR, ("agree", "disagree", "none"), 1 << 16, 1)
    classes = ("agree", "disagree", "none")
    examples = [
        ((f"thread {i // 7} storm", f"reply {i} {_WORDS[i % len(_WORDS)]}"), classes[i % 3])
        for i in range(chunk + 41)
    ]
    recipe = TrainingRecipe(epochs=2, batch_size=32, learning_rate=5e-5, label_smoothing=0.3)
    fast.fit(examples, recipe)
    oracle.fit(one_hot_examples(examples, oracle.classes), recipe)
    assert payload_v1(fast) == oracle.payload()
    probes = [x for x, _ in examples] * 2 + [("unseen words", "")]
    _assert_same_predictions(fast, oracle, probes)


def test_oracle_written_model_loads_and_scores(tmp_path):
    oracle = OracleBackend(("yes", "no"), INPUT_TEXT, seed=2)
    examples = [("confirmed verified report", "yes"), ("hoax hoax fabricated", "no"), ("", "yes")]
    examples *= 4
    oracle.fit(one_hot_examples(examples, oracle.classes), TrainingRecipe(4, 3, 5e-5, 0.2))
    path = tmp_path / "model.json"
    save_v1(oracle, path)
    loaded = load_model(path)
    _assert_same_predictions(loaded, oracle, ["confirmed hoax", "", "verified verified", "zzz"])
    save_v1(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_continued_training_after_load_matches_oracle(tmp_path):
    fast, oracle = _pair(INPUT_TEXT, ("yes", "no"), 1 << 16, 0)
    first = [("confirmed verified", "yes"), ("hoax story", "no")] * 5
    second = [("new words entirely", "no"), ("confirmed again", "yes"), ("", "no")]
    recipe = TrainingRecipe(epochs=2, batch_size=4, learning_rate=5e-5, label_smoothing=0.1)
    oracle.fit(one_hot_examples(first, oracle.classes), recipe)
    save_v1(oracle, tmp_path / "m.json")
    fast = load_model(tmp_path / "m.json")
    fast.fit(second, recipe)
    oracle.fit(one_hot_examples(second, oracle.classes), recipe)
    assert payload_v1(fast) == oracle.payload()
    _assert_same_predictions(fast, oracle, ["new confirmed", "hoax words", ""])


def test_touched_buckets_are_saved_even_when_zero():
    """A bucket whose row stays exactly zero is still listed, as before."""
    fast, oracle = _pair(INPUT_TEXT, ("yes", "no"), 1 << 16, 0)
    examples = [("same", "yes"), ("same", "no")]
    recipe = TrainingRecipe(epochs=1, batch_size=2, learning_rate=5e-5, label_smoothing=0.0)
    fast.fit(examples, recipe)
    oracle.fit(one_hot_examples(examples, oracle.classes), recipe)
    assert payload_v1(fast)["weights"] == oracle.payload()["weights"]
    assert len(payload_v1(fast)["weights"]) == 1


@pytest.mark.parametrize("bad", [{"7": [0.0]}, {"99999": [0.0, 0.0]}])
def test_malformed_weights_rejected(bad):
    fast, _ = _pair(INPUT_TEXT, ("yes", "no"), 1 << 16, 0)
    fast.fit([("a", "yes")], TrainingRecipe(1, 1, 5e-5, 0.0))
    payload = payload_v1(fast)
    payload["weights"] = bad
    with pytest.raises(ModelFormatError):
        ReferenceBackend.from_payload(payload, 1)


def _v2_weights(buckets, rows_bytes):
    ids = np.array(buckets, dtype="<i4").tobytes()
    return {"buckets": base64.b64encode(ids).decode(), "rows": base64.b64encode(rows_bytes).decode()}


@pytest.mark.parametrize(
    "bad",
    [
        {"buckets": base64.b64encode(b"\0\0\0").decode(), "rows": ""},  # 3 bytes of ids
        _v2_weights([7], b"\0" * 8),  # one row of a 2-class model is 16 bytes
        _v2_weights([7], b"\0" * 24),
        _v2_weights([99999], b"\0" * 16),  # n_buckets is 65536
        _v2_weights([-1], b"\0" * 16),
        _v2_weights([5, 3], b"\0" * 32),  # not increasing
        _v2_weights([3, 3], b"\0" * 32),
        _v2_weights([3], np.array([np.nan, 0.0]).tobytes()),
    ],
)
def test_malformed_v2_weights_rejected(bad):
    fast, _ = _pair(INPUT_TEXT, ("yes", "no"), 1 << 16, 0)
    fast.fit([("a", "yes")], TrainingRecipe(1, 1, 5e-5, 0.0))
    payload = fast.payload()
    payload["weights"] = bad
    with pytest.raises(ModelFormatError):
        ReferenceBackend.from_payload(payload)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fit_cases())
def test_format_1_and_2_files_predict_alike(tmp_path_factory, case):
    """A model saved as format 1, loaded and re-saved as format 2 predicts
    bit-identically at every step, and re-saving format 2 is byte-stable."""
    kind, classes, n_buckets, seed, runs, probes = case
    fast, _ = _pair(kind, classes, n_buckets, seed)
    for examples, recipe in runs:
        fast.fit(examples, recipe)
    out = tmp_path_factory.mktemp("formats")
    save_v1(fast, out / "v1.json")
    from_v1 = load_model(out / "v1.json")
    save_model(from_v1, out / "v2.json")
    from_v2 = load_model(out / "v2.json")
    probes = probes + [x for x, _ in runs[0][0]]
    expected = fast.predict_array(probes).tobytes()
    assert from_v1.predict_array(probes).tobytes() == expected
    assert from_v2.predict_array(probes).tobytes() == expected
    save_model(from_v2, out / "again.json")
    assert (out / "again.json").read_bytes() == (out / "v2.json").read_bytes()
    save_model(fast, out / "fast.json")
    assert (out / "fast.json").read_bytes() == (out / "v2.json").read_bytes()
    assert payload_v1(from_v2) == payload_v1(fast)


def test_empty_batch():
    fast, _ = _pair(INPUT_TEXT, ("yes", "no"), 1 << 16, 0)
    fast.fit([("a", "yes")], TrainingRecipe(1, 1, 5e-5, 0.0))
    assert fast.predict_array([]).shape == (0, 2)


@pytest.mark.parametrize("channel", ["lie", "agreement"])
def test_published_recipe_scale_matches_oracle(channel):
    """The paper's recipes (5 pretrain epochs, batch 32, smoothing 0.3) over
    many minibatches with a ragged last one, then a fine-tune that
    continues training: the batches fit() holds for a call replay exactly."""
    corpus = make_corpus(SyntheticSpec(pretrain_per_class=90, seed=3))
    if channel == "lie":
        classes, kind = LIE_CLASSES, INPUT_TEXT
        sets = build_phase21_training(corpus.deception, corpus.train, None)
    else:
        classes, kind = STANCE_CLASSES, INPUT_PAIR
        sets = build_phase22_training(corpus.agreement, corpus.train)
    recipes = (RunConfig().recipe(f"{channel}_pretrain"), RunConfig().recipe(f"{channel}_finetune"))
    assert recipes[0].epochs == 5 and recipes[0].batch_size == 32
    for examples, recipe in zip(sets, recipes):
        assert len(examples) > 3 * recipe.batch_size and len(examples) % recipe.batch_size
    fast, oracle = _pair(kind, classes, 1 << 16, 1)
    for examples, recipe in zip(sets, recipes):
        fast.fit(examples, recipe)
        oracle.fit(one_hot_examples(examples, classes), recipe)
        assert payload_v1(fast) == oracle.payload()
    _assert_same_predictions(fast, oracle, [x for x, _ in sets[1]])


# -- training targets -----------------------------------------------------------


class _TargetSpy(ReferenceBackend):
    """Records the targets of every minibatch step."""

    def _step(self, *batch):
        self.seen.append(batch[-1])
        super()._step(*batch)


_CLASS_SETS = st.sampled_from([("yes", "no"), ("agree", "disagree", "none")])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fit_smooths_targets_like_smooth_labels(data):
    classes = data.draw(_CLASS_SETS)
    labels = data.draw(st.lists(st.sampled_from(classes), min_size=1, max_size=9))
    rate = data.draw(st.floats(0.0, 1.0, exclude_max=True))
    batch = data.draw(st.integers(1, 4))
    backend = _TargetSpy(classes)
    backend.seen = []
    backend.fit([(f"x{i}", label) for i, label in enumerate(labels)], TrainingRecipe(1, batch, 5e-5, rate))
    expected = np.array([smooth_labels(one_hot(label, classes), rate).values for label in labels])
    assert np.concatenate(backend.seen).tobytes() == expected.tobytes()


@given(
    classes=_CLASS_SETS,
    labels=st.lists(st.sampled_from(("yes", "no", "agree", "disagree", "none", "maybe", "")), min_size=1, max_size=8),
)
def test_fit_rejects_labels_like_one_hot(classes, labels):
    """A label outside classes is one_hot()'s ValueError, raised before any step."""
    backend = _TargetSpy(classes)
    backend.seen = []
    examples = [(f"x{i}", label) for i, label in enumerate(labels)]
    try:
        [one_hot(label, classes) for label in labels]
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            backend.fit(examples, TrainingRecipe(1, 2, 5e-5, 0.1))
        assert str(raised.value) == str(exc) and backend.seen == []
    else:
        backend.fit(examples, TrainingRecipe(1, 2, 5e-5, 0.1))
        assert len(backend.seen) == math.ceil(len(labels) / 2)
