"""Model files: the format-2 layout, format-1 files, and every malformed
file ending in ModelFormatError, which the CLI turns into exit 3."""

import base64
import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rumorvet.backends import MODEL_FORMAT_VERSION, load_model, save_model
from rumorvet.cli import main
from rumorvet.corpus import save_conversations_jsonl
from rumorvet.errors import ModelFormatError

from ._support import payload_v1, save_v1

MODELS = ("phase1", "lie", "agreement")


@pytest.fixture(scope="module")
def model_ws(tmp_path_factory, named_backends, syn_corpus):
    """The double mode's models as format-2 and format-1 documents, and a
    small test corpus to classify with them."""
    root = tmp_path_factory.mktemp("modelfmt")
    docs = {1: {}, 2: {}}
    for name in MODELS:
        save_model(named_backends[name], root / f"{name}.v2.json")
        save_v1(named_backends[name], root / f"{name}.v1.json")
        for version in docs:
            docs[version][name] = json.loads((root / f"{name}.v{version}.json").read_text())
    save_conversations_jsonl(list(syn_corpus.test)[:6], root / "test.jsonl")
    return {"root": root, "docs": docs, "jsonl": root / "test.jsonl"}


def _write(doc, path):
    """A model document as save_model lays it out (json.dumps may write NaN)."""
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _model_dir(model_ws, tmp_path, version=2, bad=None):
    """The three models in format `version`, one of them replaced by `bad`
    (a (name, document) pair)."""
    for name in MODELS:
        _write(model_ws["docs"][version][name], tmp_path / f"{name}.json")
    if bad is not None:
        _write(bad[1], tmp_path / f"{bad[0]}.json")
    return tmp_path


def _classify(model_ws, model_dir, out):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        rc = main(
            ["classify", str(model_ws["jsonl"]), "--model-dir", str(model_dir), "--out", str(out)]
        )
    return rc, stderr.getvalue()


def _assert_exit_3(model_ws, model_dir):
    out = model_dir / "predictions.jsonl"
    rc, err = _classify(model_ws, model_dir, out)
    assert rc == 3
    assert err.startswith("rumorvet: model error: ") and err.count("\n") == 1, err
    assert not out.exists()


# -- the format-2 layout -------------------------------------------------------


def test_saved_weights_are_base64_arrays(named_backends, tmp_path):
    backend = named_backends["agreement"]
    save_model(backend, tmp_path / "m.json")
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["format_version"] == MODEL_FORMAT_VERSION == 2
    weights = doc["payload"]["weights"]
    assert sorted(weights) == ["buckets", "rows"]
    buckets = np.frombuffer(base64.b64decode(weights["buckets"], validate=True), dtype="<i4")
    rows = np.frombuffer(base64.b64decode(weights["rows"], validate=True), dtype="<f8")
    assert np.all(np.diff(buckets) > 0)
    old = payload_v1(backend)["weights"]
    assert buckets.tolist() == sorted(map(int, old))
    assert rows.reshape(len(buckets), 3).tolist() == [old[str(b)] for b in buckets.tolist()]


def test_format_1_file_classifies_like_format_2(model_ws, tmp_path):
    """Format-1 files as format 1 wrote them (recipes with an optimizer
    field) give the same prediction bytes, and keep their recipes."""
    v1 = copy.deepcopy(model_ws["docs"][1])
    for doc in v1.values():
        for entry in doc["payload"]["recipes"]:
            entry["recipe"]["optimizer"] = "adam"
    out = {}
    for version, docs in ((1, v1), (2, model_ws["docs"][2])):
        model_dir = tmp_path / f"v{version}"
        model_dir.mkdir()
        for name, doc in docs.items():
            _write(doc, model_dir / f"{name}.json")
        out[version] = model_dir / "predictions.jsonl"
        assert _classify(model_ws, model_dir, out[version])[0] == 0
    assert out[1].read_bytes() == out[2].read_bytes()
    loaded = load_model(tmp_path / "v1" / "lie.json")
    assert loaded.payload()["recipes"] == v1["lie"]["payload"]["recipes"]
    assert loaded.payload()["recipes"][0]["recipe"]["optimizer"] == "adam"


# -- malformed files, one per case that used to raise past the CLI -------------


def _list_document(doc):
    return [doc]


def _drop_payload(doc):
    del doc["payload"]
    return doc


def _drop_weights(doc):
    del doc["payload"]["weights"]
    return doc


def _string_bias(doc):
    doc["payload"]["bias"] = "x"
    return doc


def _four_classes(doc):
    doc["payload"]["classes"] = ["agree", "disagree", "none", "other"]
    return doc


def _short_bias(doc):
    doc["payload"]["bias"] = [0.0]
    return doc


@pytest.mark.parametrize(
    "mutate", [_list_document, _drop_payload, _drop_weights, _string_bias, _four_classes, _short_bias]
)
def test_malformed_agreement_model_exits_3(model_ws, tmp_path, mutate):
    doc = mutate(copy.deepcopy(model_ws["docs"][2]["agreement"]))
    _assert_exit_3(model_ws, _model_dir(model_ws, tmp_path, bad=("agreement", doc)))


def test_non_integer_format_1_bucket_exits_3(model_ws, tmp_path):
    doc = copy.deepcopy(model_ws["docs"][1]["agreement"])
    doc["payload"]["weights"]["b12"] = [0.0, 0.0, 0.0]
    _assert_exit_3(model_ws, _model_dir(model_ws, tmp_path, version=1, bad=("agreement", doc)))


def test_non_utf8_model_exits_3(model_ws, tmp_path):
    model_dir = _model_dir(model_ws, tmp_path, version=1)
    path = model_dir / "phase1.json"
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    _assert_exit_3(model_ws, model_dir)


def test_unloadable_transformer_model_exits_3(model_ws, tmp_path):
    """Without torch this fails on the import, with it on the empty payload."""
    doc = {"format_version": 1, "backend_kind": "transformer", "payload": {}}
    _assert_exit_3(model_ws, _model_dir(model_ws, tmp_path, version=1, bad=("lie", doc)))


# -- fuzz ----------------------------------------------------------------------

_WRONG = {"null": None, "bool": True, "int": 7, "float": 2.5, "str": "x", "list": [], "dict": {}}
# JSON types that would still load for these fields; every other type must not.
_STILL_VALID = {
    "n_buckets": {"int"},
    "seed": {"int"},
    "step_size": {"int", "float"},
    "weights": {"dict"},
    "recipes": {"list"},
}
_PAYLOAD_KEYS = (
    "classes", "input_kind", "n_buckets", "seed", "step_size", "bias", "weights", "recipes"
)
_NOT_NUMBERS = ("x", None, [], {})
_NON_FINITE = (math.nan, math.inf, -math.inf)


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text)


@st.composite
def malformed_models(draw, docs):
    """(version, model name, document): a saved model with one change
    that no loader may accept."""
    version = draw(st.sampled_from([1, 2]))
    name = draw(st.sampled_from(MODELS))
    doc = copy.deepcopy(docs[version][name])
    payload, weights = doc["payload"], doc["payload"]["weights"]
    k = len(payload["classes"])
    kinds = ["drop", "wrong_type", "bias_element", "bias_length", "classes", "out_of_range"]
    kinds += ["duplicate", "n_buckets"]
    if version == 2:
        kinds += ["truncate", "non_base64", "ids_length", "rows_length", "unsorted", "rows_nan"]
    else:
        kinds += ["row_element", "row_length"]
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        where = draw(st.sampled_from(["top", "payload"] + (["weights"] if version == 2 else [])))
        target = {"top": doc, "payload": payload, "weights": weights}[where]
        del target[draw(st.sampled_from(sorted(target)))]
    elif kind == "wrong_type":
        where = draw(st.sampled_from(["top", "payload"] + (["weights"] if version == 2 else [])))
        if where == "top":
            key = draw(st.sampled_from(["format_version", "backend_kind", "payload"]))
            doc[key] = draw(st.sampled_from(list(_WRONG.values())))
        elif where == "payload":
            key = draw(st.sampled_from(_PAYLOAD_KEYS))
            ok = _STILL_VALID.get(key, set())
            payload[key] = draw(st.sampled_from([v for t, v in _WRONG.items() if t not in ok]))
        else:
            key = draw(st.sampled_from(["buckets", "rows"]))
            weights[key] = draw(st.sampled_from([v for t, v in _WRONG.items() if t != "str"]))
    elif kind == "bias_element":
        i = draw(st.integers(0, k - 1))
        payload["bias"][i] = draw(st.sampled_from(_NOT_NUMBERS + _NON_FINITE))
    elif kind == "bias_length":
        if draw(st.booleans()):
            payload["bias"].append(0.0)
        else:
            payload["bias"].pop()
    elif kind == "classes":
        size = draw(st.sampled_from([0, 1, 4, 5]))
        payload["classes"] = [f"c{i}" for i in range(size)]
    elif kind == "n_buckets":
        top = max(_buckets(version, weights))
        payload["n_buckets"] = draw(
            st.one_of(st.integers(-3, top), st.integers((1 << 31) + 1, 1 << 40))
        )
    elif kind in ("out_of_range", "duplicate"):
        buckets = _buckets(version, weights)
        n = payload["n_buckets"]
        if kind == "out_of_range":
            bad = draw(st.one_of(st.integers(n, n + 1000), st.integers(-1000, -1)))
        else:
            bad = draw(st.sampled_from(buckets))
        if version == 1:
            # "07" and "7" are one bucket to int(), so the key is new to the dict.
            weights[("0" if kind == "duplicate" else "") + str(bad)] = [0.0] * k
        else:
            buckets = sorted(buckets + [bad])
            weights["buckets"] = _b64(np.array(buckets, dtype="<i4").tobytes())
            weights["rows"] = _b64(np.zeros((len(buckets), k), dtype="<f8").tobytes())
    elif kind == "truncate":
        key = draw(st.sampled_from(["buckets", "rows"]))
        cut = draw(st.integers(1, len(weights[key])))
        weights[key] = weights[key][:-cut]
    elif kind == "non_base64":
        key = draw(st.sampled_from(["buckets", "rows"]))
        at = draw(st.integers(0, len(weights[key])))
        char = draw(st.sampled_from(["!", "*", "-", "_", " ", "\n", "é", "."]))
        weights[key] = weights[key][:at] + char + weights[key][at:]
    elif kind == "ids_length":
        extra = draw(st.integers(1, 3))
        weights["buckets"] = _b64(_unb64(weights["buckets"]) + b"\0" * extra)
    elif kind == "rows_length":
        raw = _unb64(weights["rows"])
        delta = draw(st.sampled_from([-8 * k, -1, 1, 8, 8 * k]))
        weights["rows"] = _b64(raw[:delta] if delta < 0 else raw + b"\0" * delta)
    elif kind == "unsorted":
        buckets = _buckets(version, weights)
        i = draw(st.integers(0, len(buckets) - 2))
        buckets[i], buckets[i + 1] = buckets[i + 1], buckets[i]
        weights["buckets"] = _b64(np.array(buckets, dtype="<i4").tobytes())
    elif kind == "rows_nan":
        rows = np.frombuffer(_unb64(weights["rows"]), dtype="<f8").copy()
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from(_NON_FINITE))
        weights["rows"] = _b64(rows.tobytes())
    elif kind == "row_element":
        key = draw(st.sampled_from(sorted(weights)))
        weights[key][draw(st.integers(0, k - 1))] = draw(st.sampled_from(_NOT_NUMBERS + _NON_FINITE))
    elif kind == "row_length":
        key = draw(st.sampled_from(sorted(weights)))
        if draw(st.booleans()):
            weights[key].append(0.0)
        else:
            weights[key].pop()
    return version, name, doc


def _buckets(version, weights) -> list[int]:
    if version == 1:
        return sorted(map(int, weights))
    return np.frombuffer(_unb64(weights["buckets"]), dtype="<i4").tolist()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_model_is_model_format_error_and_exit_3(model_ws, tmp_path_factory, data):
    version, name, doc = data.draw(malformed_models(model_ws["docs"]))
    model_dir = _model_dir(model_ws, tmp_path_factory.mktemp("fuzz"), version, (name, doc))
    with pytest.raises(ModelFormatError):
        load_model(model_dir / f"{name}.json")
    _assert_exit_3(model_ws, model_dir)


def test_unmutated_documents_load_and_classify(model_ws, tmp_path):
    """The unchanged documents the fuzz starts from load and classify."""
    for version in (1, 2):
        model_dir = tmp_path / f"v{version}"
        model_dir.mkdir()
        _model_dir(model_ws, model_dir, version)
        for name in MODELS:
            load_model(model_dir / f"{name}.json")
        assert _classify(model_ws, model_dir, model_dir / "p.jsonl")[0] == 0
