"""End-to-end command-line runs against a materialized benchmark."""

import base64
import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rumorvet.agreement import load_agreement_corpus
from rumorvet.backends import ReferenceBackend, save_model
from rumorvet.certainty import assign_all, load_hedge_corpus
from rumorvet import pipeline
from rumorvet.cli import main
from rumorvet.config import _STAGES, load_config
from rumorvet.corpus import conversation_to_dict, load_conversations_jsonl, load_key_file, load_split
from rumorvet.lie import load_deception_corpus
from rumorvet.pipeline import BACKEND_NAMES, train_backend
from rumorvet.predictions import load_predictions_jsonl
from rumorvet.probs import VERACITY_CLASSES
from rumorvet.synthetic import SyntheticSpec, materialize

from ._support import CountingBackend, sha256_tree_oracle

SPEC = SyntheticSpec(
    n_train_per_cell=5, n_test_per_cell=2, replies_per_thread=3, pretrain_per_class=12
)


_POST_STRINGS = ("id", "text_raw", "text_clean", "platform")
_SCALARS = st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
_DICTS = st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Materialized data, a config file, and fully trained models."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    materialize(SPEC, data)
    cfg = root / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"train_dir = {data / 'train'}",
                f"train_key = {data / 'keys' / 'train-key.json'}",
                f"hedge_corpus = {data / 'corpora' / 'hedge.tsv'}",
                f"deception_corpus = {data / 'corpora' / 'deception.tsv'}",
                f"agreement_corpus = {data / 'corpora' / 'agreement.tsv'}",
                f"model_dir = {root / 'models'}",
                "phase1_per_class = 8",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    assert main(["train", "--config", str(cfg), "--phase", "all"]) == 0
    assert main(["train", "--config", str(cfg), "--phase", "2-1", "--mode", "single_lie"]) == 0
    return {
        "root": root,
        "cfg": str(cfg),
        "test_dir": str(data / "test"),
        "test_key": str(data / "keys" / "test-key.json"),
        "models": root / "models",
    }


class TestTrain(object):
    def test_model_files_and_manifests(self, ws):
        for name in ("phase1", "lie", "lie_unrouted", "agreement"):
            assert (ws["models"] / f"{name}.json").is_file()
            assert (ws["models"] / f"{name}.manifest.json").is_file()

    def test_manifest_names_inputs(self, ws):
        doc = json.loads((ws["models"] / "lie.manifest.json").read_text())
        assert doc["command"] == "train:lie"
        assert "deception_corpus" in doc["inputs"]
        assert "phase1_model" in doc["inputs"]
        assert doc["outputs"]["model"].startswith("file:")

    def test_unrouted_manifest_has_no_phase1_input(self, ws):
        doc = json.loads((ws["models"] / "lie_unrouted.manifest.json").read_text())
        assert "phase1_model" not in doc["inputs"]

    def test_model_files_equal_train_backend(self, ws, tmp_path):
        cfg = load_config(ws["cfg"])
        train = load_split(cfg.train_dir, labels=load_key_file(cfg.train_key))
        corpora = {
            "phase1": load_hedge_corpus(cfg.hedge_corpus),
            "lie": load_deception_corpus(cfg.deception_corpus),
            "lie_unrouted": load_deception_corpus(cfg.deception_corpus),
            "agreement": load_agreement_corpus(cfg.agreement_corpus),
        }

        def factory(classes, input_kind, seed):
            return ReferenceBackend(classes, input_kind=input_kind, seed=seed)

        trained = {}
        for name in BACKEND_NAMES:
            routing = assign_all(trained["phase1"], train) if name == "lie" else None
            trained[name] = train_backend(name, train, corpora[name], factory, cfg, routing)
            save_model(trained[name], tmp_path / f"{name}.json")
            assert (tmp_path / f"{name}.json").read_bytes() == (ws["models"] / f"{name}.json").read_bytes()

    def test_train_all_routes_the_train_split_once(self, ws, tmp_path, monkeypatch, capsys):
        """The printed routing summary and the lie fine-tune set share one
        predict_array call on the freshly trained router."""
        routers = []

        def counting_train(name, *args):
            backend = train_backend(name, *args)
            if name == "phase1":
                backend = CountingBackend(backend)
                routers.append(backend)
            return backend

        monkeypatch.setattr(pipeline, "train_backend", counting_train)
        models = tmp_path / "models"
        argv = ["train", "--config", ws["cfg"], "--phase", "all", "--model-dir", str(models)]
        assert main(argv) == 0
        assert [len(r.batches) for r in routers] == [1]
        assert "train split routed" in capsys.readouterr().out
        for name in ("phase1", "lie", "agreement"):
            assert (models / f"{name}.json").read_bytes() == (ws["models"] / f"{name}.json").read_bytes()

    def test_retrain_is_byte_identical(self, ws, tmp_path):
        before = (ws["models"] / "agreement.json").read_bytes()
        assert main(["train", "--config", ws["cfg"], "--phase", "2-2"]) == 0
        assert (ws["models"] / "agreement.json").read_bytes() == before


class TestIngest:
    def test_round_trip(self, ws, tmp_path, capsys):
        out = tmp_path / "test.jsonl"
        assert main(["ingest", ws["test_dir"], str(out), "--key", ws["test_key"]]) == 0
        line = capsys.readouterr().out
        assert "10 threads" in line
        loaded = load_conversations_jsonl(out)
        expected = load_split(ws["test_dir"], labels=load_key_file(ws["test_key"]))
        assert loaded == expected

    def test_missing_input_dir(self, tmp_path, capsys):
        rc = main(["ingest", str(tmp_path / "absent"), str(tmp_path / "o.jsonl")])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    def test_corrupt_structure_file(self, ws, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(ws["test_dir"], broken)
        victim = next(broken.glob("*/structure.json"))
        victim.write_text("{oops", encoding="utf-8")
        rc = main(["ingest", str(broken), str(tmp_path / "o.jsonl")])
        assert rc == 2
        assert "structure.json" in capsys.readouterr().err


class TestClassify:
    def test_predictions_schema(self, ws, tmp_path, capsys):
        out = tmp_path / "preds.jsonl"
        rc = main(
            ["classify", ws["test_dir"], "--config", ws["cfg"], "--out", str(out)]
        )
        assert rc == 0
        assert "10 predictions" in capsys.readouterr().out
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 10
        for row in rows:
            assert row["label"] in VERACITY_CLASSES
            assert row["channel"] in ("lie", "agreement")
            assert len(row["evidence"]) == 2
            assert row["assignment"]["label"] in ("certain", "uncertain")
        assert out.with_suffix(".manifest.json").is_file()

    def test_single_mode_has_null_assignment(self, ws, tmp_path):
        out = tmp_path / "preds.jsonl"
        rc = main(
            [
                "classify",
                ws["test_dir"],
                "--config",
                ws["cfg"],
                "--mode",
                "single_agreement",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(row["assignment"] is None for row in rows)
        assert all(row["channel"] == "agreement" for row in rows)

    def test_window_restricts_threads(self, ws, tmp_path, capsys):
        out = tmp_path / "preds.jsonl"
        rc = main(
            [
                "classify",
                ws["test_dir"],
                "--config",
                ws["cfg"],
                "--window-days",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        # Only the two crowd cells have replies at all: 4 of 10 threads.
        assert "4 predictions" in stdout
        assert "(6 threads outside the window)" in stdout

    def test_missing_model_exits_3(self, ws, tmp_path, capsys):
        rc = main(
            [
                "classify",
                ws["test_dir"],
                "--config",
                ws["cfg"],
                "--model-dir",
                str(tmp_path / "nothing"),
                "--out",
                str(tmp_path / "p.jsonl"),
            ]
        )
        assert rc == 3
        assert "model error" in capsys.readouterr().err

    def test_reads_each_corpus_file_once(self, ws, tmp_path, monkeypatch):
        data = tmp_path / "data"
        shutil.copytree(ws["test_dir"], data)
        (data / "README").write_text("not a post\n", encoding="utf-8")
        opened = []

        def counting(real):
            def counting_open(file, *args, **kwargs):
                opened.append(str(file))
                return real(file, *args, **kwargs)

            return counting_open

        real_open = open
        monkeypatch.setattr("builtins.open", counting(real_open))
        monkeypatch.setattr("io.open", counting(real_open))
        monkeypatch.setattr("os.open", counting(os.open))
        out = tmp_path / "preds.jsonl"
        assert main(["classify", str(data), "--config", ws["cfg"], "--out", str(out)]) == 0
        monkeypatch.undo()
        corpus_opens = [p for p in opened if p.startswith(str(data))]
        files = [str(p) for p in data.rglob("*") if p.is_file()]
        assert sorted(corpus_opens) == sorted(files)
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["inputs"] == {"corpus": "tree:" + sha256_tree_oracle(data)}

    def test_loaded_predictions_replay(self, ws, tmp_path):
        out = tmp_path / "preds.jsonl"
        assert (
            main(["classify", ws["test_dir"], "--config", ws["cfg"], "--out", str(out)]) == 0
        )
        for pred in load_predictions_jsonl(out):
            assert pred.replays(("true", "false"), 1e-3)


class TestEvaluate:
    def test_grid_outputs(self, ws, tmp_path, capsys):
        out = tmp_path / "reports"
        rc = main(
            [
                "evaluate",
                ws["test_dir"],
                "--config",
                ws["cfg"],
                "--key",
                ws["test_key"],
                "--modes",
                "all",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("# ")
        assert "double" in stdout and "inverse" in stdout
        for slug in ("double", "single_lie", "single_agreement", "inverse"):
            assert (out / f"predictions-{slug}.jsonl").is_file()
        assert (out / "report.txt").is_file()
        assert (out / "report.json").is_file()
        assert (out / "manifest.json").is_file()
        payload = json.loads((out / "report.json").read_text())
        assert [r["config"]["mode"] for r in payload] == list(
            ("double", "single_lie", "single_agreement", "inverse")
        )

    def test_double_beats_singles_on_benchmark(self, ws, tmp_path):
        out = tmp_path / "reports"
        assert (
            main(
                [
                    "evaluate",
                    ws["test_dir"],
                    "--config",
                    ws["cfg"],
                    "--key",
                    ws["test_key"],
                    "--modes",
                    "all",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        scores = {
            r["config"]["mode"]: r["macro_f1"]
            for r in json.loads((out / "report.json").read_text())
        }
        assert scores["double"] > scores["single_lie"]
        assert scores["double"] > scores["single_agreement"]
        assert scores["double"] > scores["inverse"]

    def test_window_grid_rows(self, ws, tmp_path):
        out = tmp_path / "reports"
        rc = main(
            [
                "evaluate",
                ws["test_dir"],
                "--config",
                ws["cfg"],
                "--key",
                ws["test_key"],
                "--window-days",
                "none,1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())
        assert [r["config"]["reply_window_days"] for r in payload] == [None, 1]
        assert payload[0]["n_threads"] == 10
        assert payload[1]["n_threads"] == 4
        assert payload[1]["avg_replies"] == pytest.approx(3.0)
        assert (out / "predictions-double-1d.jsonl").is_file()

    def test_micro_average_flag(self, ws, tmp_path):
        out = tmp_path / "reports"
        rc = main(
            [
                "evaluate",
                ws["test_dir"],
                "--config",
                ws["cfg"],
                "--key",
                ws["test_key"],
                "--micro",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        row = json.loads((out / "report.json").read_text())[0]
        assert row["average"] == "micro"
        assert row["precision"] == pytest.approx(row["accuracy"])

    def test_no_gold_labels_notice(self, ws, tmp_path, capsys):
        plain = tmp_path / "plain.jsonl"
        assert main(["ingest", ws["test_dir"], str(plain)]) == 0
        capsys.readouterr()
        out = tmp_path / "reports"
        rc = main(["evaluate", str(plain), "--config", ws["cfg"], "--out", str(out)])
        assert rc == 0
        assert "no gold labels; wrote predictions only" in capsys.readouterr().out
        assert not (out / "report.txt").exists()
        assert (out / "predictions-double.jsonl").is_file()
        assert (out / "manifest.json").is_file()

    def test_ablate_matches_evaluate_all(self, ws, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert (
            main(
                [
                    "ablate",
                    ws["test_dir"],
                    "--config",
                    ws["cfg"],
                    "--key",
                    ws["test_key"],
                    "--out",
                    str(out_a),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "evaluate",
                    ws["test_dir"],
                    "--config",
                    ws["cfg"],
                    "--key",
                    ws["test_key"],
                    "--modes",
                    "all",
                    "--out",
                    str(out_b),
                ]
            )
            == 0
        )
        assert (out_a / "report.txt").read_bytes() == (out_b / "report.txt").read_bytes()

    def test_reruns_byte_identical(self, ws, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "evaluate",
                        ws["test_dir"],
                        "--config",
                        ws["cfg"],
                        "--key",
                        ws["test_key"],
                        "--modes",
                        "all",
                        "--window-days",
                        "none,1",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append(out)
        a, b = outs
        compared = 0
        for path_a in sorted(a.iterdir()):
            if path_a.name == "manifest.json":
                continue
            assert path_a.read_bytes() == (b / path_a.name).read_bytes()
            compared += 1
        assert compared >= 10


class TestExitCodes:
    def test_unknown_mode_flag(self, ws, capsys):
        rc = main(["classify", ws["test_dir"], "--config", ws["cfg"], "--mode", "triple"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("momentum = 0.9\n", encoding="utf-8")
        rc = main(["classify", ws["test_dir"], "--config", str(bad)])
        assert rc == 1
        assert "momentum" in capsys.readouterr().err

    def test_bad_window_token(self, ws, capsys):
        rc = main(
            ["classify", ws["test_dir"], "--config", ws["cfg"], "--window-days", "soon"]
        )
        assert rc == 1
        assert "soon" in capsys.readouterr().err

    def test_train_without_train_dir(self, tmp_path, capsys):
        rc = main(["train", "--phase", "1", "--model-dir", str(tmp_path)])
        assert rc == 1
        assert "train_dir" in capsys.readouterr().err

    def test_missing_corpus_file_is_data_error(self, ws, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        base = (ws["root"] / "run.cfg").read_text()
        cfg.write_text(base.replace("hedge.tsv", "missing-hedge.tsv"), encoding="utf-8")
        rc = main(["train", "--config", str(cfg), "--phase", "1"])
        assert rc == 2
        assert "hedge_corpus" in capsys.readouterr().err

    def test_malformed_key_file_is_data_error(self, ws, tmp_path, capsys):
        key = tmp_path / "key.json"
        key.write_text("{not json", encoding="utf-8")
        argv = ["evaluate", ws["test_dir"], "--config", ws["cfg"], "--key", str(key)]
        assert main([*argv, "--out", str(tmp_path / "reports")]) == 2
        err = capsys.readouterr().err
        assert "key.json" in err and "Traceback" not in err

    def test_missing_key_file_is_data_error(self, ws, tmp_path, capsys):
        argv = ["evaluate", ws["test_dir"], "--config", ws["cfg"], "--key", str(tmp_path / "absent.json")]
        assert main([*argv, "--out", str(tmp_path / "reports")]) == 2
        assert "absent.json" in capsys.readouterr().err

    def test_key_under_unknown_task_is_data_error(self, ws, tmp_path, capsys):
        """Labels nested under a task key the loader does not know load as an
        empty map, which labels none of the input's threads."""
        labels = load_key_file(ws["test_key"])
        key = tmp_path / "odd-key.json"
        key.write_text(json.dumps({"subtaskaenglish": labels}), encoding="utf-8")
        argv = ["evaluate", ws["test_dir"], "--config", ws["cfg"], "--key", str(key)]
        assert main([*argv, "--out", str(tmp_path / "reports")]) == 2
        err = capsys.readouterr().err
        assert "odd-key.json" in err and "labels none" in err
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("form", ["flat_object_label", "nested_stray_label"])
    @pytest.mark.parametrize("command", ["ingest", "evaluate"])
    def test_key_file_entries_are_not_dropped(self, ws, tmp_path, form, command):
        """A label that is an object, and a label beside the task key, were
        skipped without a word while other threads kept theirs."""
        t1, t2 = sorted(load_key_file(ws["test_key"]))[:2]
        doc = ({t1: "true", t2: {"label": "false"}} if form == "flat_object_label"
               else {"subtaskbenglish": {t1: "true"}, t2: "maybe"})
        key = tmp_path / "key.json"
        key.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        argv = (["ingest", ws["test_dir"], str(out), "--key", str(key)] if command == "ingest" else
                ["evaluate", ws["test_dir"], "--config", ws["cfg"], "--key", str(key), "--out", str(out)])
        rc, err = _run(argv)
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert "key.json" in err and repr(t2) in err
        assert not out.exists()

    def test_ingest_key_naming_no_thread_is_data_error(self, ws, tmp_path, capsys):
        key = tmp_path / "other-key.json"
        key.write_text(json.dumps({"subtaskbenglish": {"not-a-thread": "true"}}), encoding="utf-8")
        out = tmp_path / "convs.jsonl"
        assert main(["ingest", ws["test_dir"], str(out), "--key", str(key)]) == 2
        assert "other-key.json" in capsys.readouterr().err
        assert not out.exists()

    def test_classify_takes_no_key(self, ws, tmp_path, capsys):
        """Predictions do not read gold labels; evaluate is the command that does."""
        argv = ["classify", ws["test_dir"], "--config", ws["cfg"], "--key", ws["test_key"]]
        assert main([*argv, "--out", str(tmp_path / "p.jsonl")]) == 1
        assert "--key" in capsys.readouterr().err
        assert not (tmp_path / "p.jsonl").exists()

    def test_malformed_jsonl_record_is_data_error(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"thread": 1}\n', encoding="utf-8")
        rc = main(["classify", str(bad), "--config", ws["cfg"], "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_mistyped_jsonl_field_is_data_error(self, ws, data):
        """A field the dump writes as a string, or replies as a list, holding
        another JSON type is a data error naming the line."""
        records = [conversation_to_dict(c) for c in load_split(ws["test_dir"])]
        lineno = data.draw(st.integers(1, len(records)))
        record = records[lineno - 1]
        slots = [(record["thread"], key) for key in _POST_STRINGS]
        slots += [(record, "gold_label"), (record, "replies")]
        for reply in record["replies"][:1]:
            slots += [(reply["post"], key) for key in _POST_STRINGS] + [(reply, "parent_id")]
        target, key = data.draw(st.sampled_from(slots))
        if key == "replies":
            wrong = st.none() | _SCALARS | st.text(max_size=3) | _DICTS
        else:
            wrong = _SCALARS | st.lists(st.integers(), max_size=2) | _DICTS
            wrong |= st.nothing() if key == "gold_label" else st.none()
        target[key] = data.draw(wrong)
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "bad.jsonl"
            bad.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main(["classify", str(bad), "--config", ws["cfg"], "--out", str(Path(tmp) / "p.jsonl")])
        assert rc == 2, err.getvalue()
        assert f"line {lineno} " in err.getvalue() and len(err.getvalue().splitlines()) == 1

    def test_string_is_primary_is_data_error(self, ws, tmp_path, capsys):
        """"false" is not a bool; loaded with bool() it made a reply primary."""
        records = [conversation_to_dict(c) for c in load_split(ws["test_dir"])]
        lineno = next(i for i, r in enumerate(records, start=1) if r["replies"])
        records[lineno - 1]["replies"][0].update(parent_id="x", is_primary="false")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        rc = main(["classify", str(bad), "--config", ws["cfg"], "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"line {lineno} is not a conversation record" in err and "is_primary" in err
        assert len(err.splitlines()) == 1

    def test_empty_corpus_is_data_error(self, ws, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["classify", str(empty), "--config", ws["cfg"], "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2
        assert "no conversations" in capsys.readouterr().err
        assert not (tmp_path / "p.jsonl").exists()

    def test_classify_rejects_several_windows(self, ws, tmp_path, capsys):
        out = tmp_path / "p.jsonl"
        rc = main(
            ["classify", ws["test_dir"], "--config", ws["cfg"], "--window-days", "1,3", "--out", str(out)]
        )
        assert rc == 1
        assert "--window-days" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["classify", "evaluate", "ablate"])
    @pytest.mark.parametrize(
        "flag", ["--backend", "--train-dir", "--train-key", "--hedge-corpus", "--deception-corpus", "--agreement-corpus"]
    )
    def test_training_flags_only_on_train(self, ws, tmp_path, capsys, command, flag):
        value = "transformer" if flag == "--backend" else str(tmp_path)
        rc = main([command, ws["test_dir"], "--config", ws["cfg"], flag, value, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_utf8_jsonl_is_data_error(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe{}\n")
        rc = main(["classify", str(bad), "--config", ws["cfg"], "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.jsonl" in err and "UTF-8" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("victim", ["replies/*.json", "source-tweet/*.json", "structure.json"])
    def test_non_utf8_post_json_is_data_error(self, ws, tmp_path, capsys, victim):
        broken = tmp_path / "broken"
        shutil.copytree(ws["test_dir"], broken)
        path = next(broken.glob(f"*/{victim}"))
        path.write_bytes(b"\xff\xfe{}")
        rc = main(["ingest", str(broken), str(tmp_path / "o.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert path.name in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("victim", ["replies", "source-tweet"])
    def test_json_named_directory_is_data_error(self, ws, tmp_path, capsys, victim):
        broken = tmp_path / "broken"
        shutil.copytree(ws["test_dir"], broken)
        # Replaces a post file, so the source-tweet/ count stays one.
        post = next(broken.glob(f"*/{victim}/*.json"))
        post.unlink()
        post.mkdir()
        rc = main(["classify", str(broken), "--config", ws["cfg"], "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert post.name in err and "directory" in err and len(err.splitlines()) == 1

    def test_unreadable_post_file_is_data_error(self, ws, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(ws["test_dir"], broken)
        post = next(broken.glob("*/replies/*.json"))
        post.unlink()
        post.symlink_to(tmp_path / "missing.json")  # listed, but opening it fails
        rc = main(["classify", str(broken), "--config", ws["cfg"], "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert post.name in err and "cannot read" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "change,says",
        [
            (lambda obj: obj.update(text=12), "text must be a string, not int"),
            (lambda obj: obj.pop("created_at"), "has no timestamp field"),
            (lambda obj: obj.update(created_at="yesterday"), "unrecognized timestamp 'yesterday'"),
        ],
        ids=["text_int", "no_timestamp", "bad_timestamp"],
    )
    def test_post_data_error_names_the_file(self, ws, tmp_path, capsys, change, says):
        broken = tmp_path / "broken"
        shutil.copytree(ws["test_dir"], broken)
        post = next(broken.glob("*/replies/*.json"))
        obj = json.loads(post.read_text(encoding="utf-8"))
        change(obj)
        post.write_text(json.dumps(obj), encoding="utf-8")
        rc = main(["ingest", str(broken), str(tmp_path / "o.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"rumorvet: data error: {post}: ") and says in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("corpus,phase", [("hedge", "1"), ("deception", "2-1"), ("agreement", "2-2")])
    def test_non_utf8_corpus_is_data_error(self, ws, tmp_path, capsys, corpus, phase):
        bad = tmp_path / f"{corpus}.tsv"
        bad.write_bytes(b"\xff\xfetext\tlabel\n")
        argv = ["train", "--config", ws["cfg"], "--phase", phase, f"--{corpus}-corpus", str(bad)]
        rc = main([*argv, "--model-dir", str(tmp_path / "models")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{corpus}.tsv" in err and "UTF-8" in err and len(err.splitlines()) == 1

    def test_non_utf8_config_is_usage_error(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfeseed = 1\n")
        rc = main(["classify", ws["test_dir"], "--config", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bad.cfg" in err and "UTF-8" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "flags", [["--window-days", "1,1"], ["--window-days", "none,inf"], ["--modes", "double,double"]]
    )
    def test_repeated_grid_value_is_usage_error(self, ws, tmp_path, capsys, flags):
        out = tmp_path / "reports"
        rc = main(["evaluate", ws["test_dir"], "--config", ws["cfg"], "--out", str(out), *flags])
        assert rc == 1
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source,victim", [("agreement", "phase1"), ("phase1", "lie")])
    def test_model_in_wrong_slot_exits_3(self, ws, tmp_path, capsys, source, victim):
        models = tmp_path / "models"
        shutil.copytree(ws["models"], models)
        shutil.copy(models / f"{source}.json", models / f"{victim}.json")
        rc = main(["classify", ws["test_dir"], "--model-dir", str(models), "--out", str(tmp_path / "p.jsonl")])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{victim}.json" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize(
        "flags,line,named",
        [
            (["--seed", "-1"], None, "seed"),
            ([], "phase1_per_class = -1", "phase1_per_class"),
            ([], "lie_finetune_epochs = 0", "lie_finetune recipe: epochs"),
            ([], "agreement_pretrain_label_smoothing = 1.5", "agreement_pretrain recipe: label_smoothing"),
            ([], "phase1_pretrain_batch_size = 0", "phase1_pretrain recipe: batch_size"),
        ],
    )
    def test_bad_numeric_config_is_usage_error(self, ws, tmp_path, capsys, flags, line, named):
        rc = main(["train", "--config", str(_config_with(ws, tmp_path, line)), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert named in err and len(err.splitlines()) == 1
        assert not (tmp_path / "models").exists()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bad_recipe_value_is_usage_error(self, ws, data):
        stage = data.draw(st.sampled_from(_STAGES))
        field = data.draw(st.sampled_from(["epochs", "batch_size", "learning_rate", "label_smoothing"]))
        bad = {
            "epochs": st.integers(max_value=0) | st.just(2.5),
            "batch_size": st.integers(max_value=0) | st.just("many"),
            "learning_rate": st.floats(max_value=0.0)
            | st.sampled_from(["fast", math.nan, math.inf, "inf"]),
            "label_smoothing": st.floats(max_value=0.0, exclude_max=True)
            | st.floats(min_value=1.0)
            | st.just(math.nan),
        }[field]
        value = data.draw(bad)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = _config_with(ws, Path(tmp), f"{stage}_{field} = {value}")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(["train", "--config", str(cfg), "--phase", "1"])
            assert not (Path(tmp) / "models").exists()
        assert rc == 1
        assert stage in err.getvalue() and len(err.getvalue().splitlines()) == 1

    def test_transformer_without_extra_exits_3(self, ws, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "torch", None)  # import torch now fails
        cfg = _config_with(ws, tmp_path, None)
        rc = main(["train", "--config", str(cfg), "--phase", "1", "--backend", "transformer"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "optional extra" in err and len(err.splitlines()) == 1


def _config_with(ws, tmp_path: Path, line) -> Path:
    """The workspace config with its model dir under tmp_path, and line
    (key = value) in place of that key's line."""
    lines = (ws["root"] / "run.cfg").read_text(encoding="utf-8").splitlines()
    lines = [l for l in lines if not l.startswith("model_dir")]
    if line is not None:
        key = line.split("=")[0].strip()
        lines = [l for l in lines if l.split("=")[0].strip() != key] + [line]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join([*lines, f"model_dir = {tmp_path / 'models'}"]) + "\n", encoding="utf-8")
    return cfg


class TestGoldLabelsAndOutputPaths:
    """A gold label outside the veracity classes is a data error (exit 2),
    and an output path that cannot be written a usage error (exit 1); both
    end in one line on stderr, not a traceback."""

    @staticmethod
    def _one_line(capsys, *needles):
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err
        for needle in needles:
            assert needle in err, err

    def test_key_file_label_outside_classes(self, ws, tmp_path, capsys):
        doc = json.loads(Path(ws["test_key"]).read_text(encoding="utf-8"))
        thread_id = sorted(doc["subtaskbenglish"])[0]
        doc["subtaskbenglish"][thread_id] = "maybe"
        key = tmp_path / "maybe-key.json"
        key.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["evaluate", ws["test_dir"], "--config", ws["cfg"], "--key", str(key)]
        assert main([*argv, "--out", str(tmp_path / "reports")]) == 2
        self._one_line(capsys, "maybe-key.json", thread_id, "'maybe'")

    def test_jsonl_gold_label_outside_classes(self, ws, tmp_path, capsys):
        convs = load_split(ws["test_dir"], labels=load_key_file(ws["test_key"]))
        records = [conversation_to_dict(c) for c in convs]
        records[1]["gold_label"] = "maybe"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["evaluate", str(bad), "--config", ws["cfg"], "--out", str(tmp_path / "reports")]) == 2
        self._one_line(capsys, "line 2 is not a conversation record", "'maybe'")

    def test_classify_out_is_a_directory(self, ws, tmp_path, capsys):
        assert main(["classify", ws["test_dir"], "--config", ws["cfg"], "--out", str(tmp_path)]) == 1
        self._one_line(capsys, "cannot write", str(tmp_path))

    def test_ingest_output_is_a_directory(self, ws, tmp_path, capsys):
        assert main(["ingest", ws["test_dir"], str(tmp_path)]) == 1
        self._one_line(capsys, "cannot write", str(tmp_path))

    @pytest.mark.parametrize("command", ["evaluate", "ablate"])
    def test_grid_out_is_a_file(self, ws, tmp_path, capsys, command):
        taken = tmp_path / "reports"
        taken.write_text("not a directory\n", encoding="utf-8")
        argv = [command, ws["test_dir"], "--config", ws["cfg"], "--key", ws["test_key"]]
        assert main([*argv, "--out", str(taken)]) == 1
        self._one_line(capsys, "cannot write", str(taken))
        assert taken.read_text(encoding="utf-8") == "not a directory\n"

    def test_train_model_dir_is_a_file(self, ws, tmp_path, capsys):
        taken = tmp_path / "models"
        taken.write_text("not a directory\n", encoding="utf-8")
        assert main(["train", "--config", ws["cfg"], "--phase", "1", "--model-dir", str(taken)]) == 1
        self._one_line(capsys, "cannot write", str(taken))


def _run(argv) -> tuple[int, str]:
    """main(argv) with stdout and stderr captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


class TestMissingInputs:
    """Training inputs that are absent or empty, and a thread id given twice,
    are data errors (exit 2) with one line on stderr."""

    @pytest.mark.parametrize(
        "corpus,flags",
        [("hedge", ["--phase", "1"]), ("deception", ["--phase", "2-1", "--mode", "single_lie"]),
         ("agreement", ["--phase", "2-2"])],
    )
    def test_empty_pretrain_corpus(self, ws, tmp_path, corpus, flags):
        empty = tmp_path / f"empty-{corpus}.tsv"
        empty.write_text("\n  \n", encoding="utf-8")
        argv = ["train", "--config", ws["cfg"], f"--{corpus}-corpus", str(empty), *flags]
        rc, err = _run([*argv, "--model-dir", str(tmp_path / "models")])
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert f"empty-{corpus}.tsv" in err and "no example lines" in err
        assert not (tmp_path / "models").exists()

    def test_agreement_training_without_train_key(self, ws, tmp_path):
        cfg = _config_with(ws, tmp_path, "train_key = none")
        rc, err = _run(["train", "--config", str(cfg), "--phase", "2-2"])
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert "has no gold label" in err and "--train-key" in err
        assert not (tmp_path / "models").exists()

    def test_repeated_jsonl_thread(self, ws, tmp_path):
        records = [conversation_to_dict(c) for c in load_split(ws["test_dir"])]
        lines = [json.dumps(r) + "\n" for r in records]
        dup = tmp_path / "dup.jsonl"
        dup.write_text("".join(lines + lines[3:4]), encoding="utf-8")
        out = tmp_path / "reports"
        rc, err = _run(["evaluate", str(dup), "--config", ws["cfg"], "--key", ws["test_key"], "--out", str(out)])
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert repr(records[3]["thread"]["id"]) in err and "more than once" in err and "dup.jsonl" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "classify"])
    def test_repeated_tree_thread(self, ws, tmp_path, command):
        tree = tmp_path / "tree"
        shutil.copytree(ws["test_dir"], tree)
        first = sorted(p for p in tree.iterdir() if p.is_dir())[0]
        shutil.copytree(first, tree / "copy-of-first")
        out = tmp_path / "out.jsonl"
        argv = ["ingest", str(tree), str(out)] if command == "ingest" else [
            "classify", str(tree), "--config", ws["cfg"], "--out", str(out)]
        rc, err = _run(argv)
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert repr(load_split(first)[0].thread.id) in err and "more than once" in err
        assert not out.exists()


# -- JSON nested past the decoder's limit --------------------------------------

_DEEP = "[" * 100_000


def _chain(root: str, depth: int) -> str:
    """A structure.json whose root has a chain of depth nested replies
    (written by hand: json.dumps cannot nest that deep either)."""
    return json.dumps({root: "CHAIN"}).replace('"CHAIN"', "".join(f'{{"r{i}": ' for i in range(depth)) + "{}" + "}" * depth)


class TestDeepJson:
    """Each JSON input the CLI reads, nested deeper than the decoder follows,
    is that input's error with one line on stderr, never a RecursionError."""

    @staticmethod
    def _tree(ws, tmp_path, victim):
        tree = tmp_path / "tree"
        shutil.copytree(ws["test_dir"], tree)
        reply = next(tree.glob("*/replies/*.json"))
        if victim == "post":
            reply.write_text(_DEEP, encoding="utf-8")
            return tree, reply
        thread = reply.parent.parent
        path = thread / "structure.json"
        path.write_text(_chain(next(thread.glob("source-tweet/*.json")).stem, 995), encoding="utf-8")
        return tree, path

    @pytest.mark.parametrize(
        "victim,command", [("post", "ingest"), ("post", "classify"), ("structure", "ingest")]
    )
    def test_conversation_tree(self, ws, tmp_path, victim, command):
        tree, path = self._tree(ws, tmp_path, victim)
        out = tmp_path / "out.jsonl"
        argv = ["ingest", str(tree), str(out)] if command == "ingest" else [
            "classify", str(tree), "--config", ws["cfg"], "--out", str(out)]
        rc, err = _run(argv)
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert path.name in err and "invalid JSON" in err and "recursion" in err
        assert not out.exists()

    def test_jsonl_line(self, ws, tmp_path):
        lines = [json.dumps(conversation_to_dict(c)) for c in load_split(ws["test_dir"])]
        corpus = tmp_path / "convs.jsonl"
        corpus.write_text("\n".join([*lines[:2], _DEEP, *lines[2:]]) + "\n", encoding="utf-8")
        rc, err = _run(["classify", str(corpus), "--config", ws["cfg"], "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert "convs.jsonl: line 3 is invalid JSON" in err

    def test_key_file(self, ws, tmp_path):
        key = tmp_path / "key.json"
        key.write_text(_DEEP, encoding="utf-8")
        out = tmp_path / "reports"
        rc, err = _run(["evaluate", ws["test_dir"], "--config", ws["cfg"], "--key", str(key), "--out", str(out)])
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert "key.json: invalid JSON" in err
        assert not out.exists()

    def test_model_file(self, ws, tmp_path):
        models = tmp_path / "models"
        shutil.copytree(ws["models"], models)
        (models / "phase1.json").write_text(_DEEP, encoding="utf-8")
        out = tmp_path / "p.jsonl"
        rc, err = _run(["classify", ws["test_dir"], "--config", ws["cfg"], "--model-dir", str(models), "--out", str(out)])
        assert rc == 3 and len(err.splitlines()) == 1, err
        assert "model error" in err and "phase1.json: invalid JSON" in err
        assert not out.exists()


# -- the loaders, fuzzed through the CLI ---------------------------------------

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)
_LABEL_WORDS = ("true", "false", "unverified", "certain", "uncertain", "truthful", "deceptive",
                "agreement", "disagreement", "none", "TRUE", " certain ", "")
_TSV_LINES = st.lists(
    st.one_of(
        st.tuples(_TEXT, st.sampled_from(_LABEL_WORDS)).map("\t".join),
        st.tuples(_TEXT, _TEXT, st.sampled_from(_LABEL_WORDS)).map("\t".join),
        _TEXT,
    ),
    max_size=8,
)


def _assert_exit_contract(rc: int, err: str) -> None:
    assert rc in (0, 1, 2, 3), err
    if rc:
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err


def _paths(node, path=()):
    """The key path of every value below node, in pre-order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _edit(doc, op: str, i: int, value) -> None:
    """Apply one edit in place to the i-th value below doc (modulo their
    number): set it to value, drop it, wrap it in a list, or change a
    list's or string's length (a base64 string by whole decoded bytes)."""
    paths = list(_paths(doc))
    if not paths:
        return
    *head, last = paths[i % len(paths)]
    parent = doc
    for key in head:
        parent = parent[key]
    node = parent[last]
    if op == "set":
        parent[last] = value
    elif op == "drop":
        del parent[last]
    elif op == "wrap":
        parent[last] = [node]
    elif op == "grow" and isinstance(node, (list, str)):
        parent[last] = node + node[:1]
    elif op == "shrink" and isinstance(node, (list, str)):
        parent[last] = node[:-1]
    elif op == "bytes" and isinstance(node, str):
        with contextlib.suppress(ValueError):
            parent[last] = base64.b64encode(base64.b64decode(node, validate=True)[: -(i % 9 + 1)]).decode()


_EDITS = st.lists(
    st.tuples(st.sampled_from(["set", "drop", "wrap", "grow", "shrink", "bytes"]), st.integers(0, 999), _JSON),
    max_size=3,
)
_BASE_EPOCH = 1420632000  # 2015-01-07 12:00:00 UTC


@st.composite
def _tree_files(draw):
    """One conversation directory as {path relative to it: JSON value}: all
    Twitter posts (stamps as Twitter strings, ISO or epochs) or all Reddit
    ones (some inside a Listing envelope), replies nested under the thread
    or an earlier reply."""
    tid = draw(st.sampled_from(["552783238415265792", "t1", "a.b"]))
    reddit = draw(st.booleans())

    def post(pid, i):
        epoch = _BASE_EPOCH + 600 * i + draw(st.integers(0, 599))
        text = draw(_TEXT | st.sampled_from(["fake #news http://x.co", "so true", "not sure"]))
        if reddit:
            obj = {"id": pid, "created_utc": epoch, ("title" if i == 0 else "body"): text}
            if draw(st.booleans()):
                obj = {"kind": "Listing", "data": {"children": [{"kind": "t3", "data": obj}]}}
            return obj
        when = datetime.fromtimestamp(epoch, tz=timezone.utc)
        stamp = draw(st.sampled_from([when.strftime("%a %b %d %H:%M:%S %z %Y"), when.isoformat(), epoch]))
        return {"id_str": pid, "text": text, "created_at": stamp}

    files = {f"source-tweet/{tid}.json": post(tid, 0)}
    nodes = {tid: {}}
    for i in range(draw(st.integers(0, 4))):
        rid = f"{tid}-r{i}"
        files[f"replies/{rid}.json"] = post(rid, i + 1)
        nodes[draw(st.sampled_from(sorted(nodes)))][rid] = nodes[rid] = {}
    files["structure.json"] = {tid: nodes[tid]}
    return files


# A fixed tree with one reply; its files sort as replies/, source-tweet/, structure.json.
_ONE_REPLY = {
    "replies/t1-r0.json": {"id_str": "t1-r0", "text": "so true", "created_at": _BASE_EPOCH + 60},
    "source-tweet/t1.json": {"id_str": "t1", "text": "fake #news", "created_at": _BASE_EPOCH},
    "structure.json": {"t1": {"t1-r0": {}}},
}


class TestLoaderFuzz:
    """Key files, conversations-JSONL lines and the three TSV corpora, as
    hypothesis writes them, end in exit 0-3 and never raise."""

    @settings(max_examples=25, deadline=None)
    @given(
        raw=st.none() | _TEXT | _JSON.map(json.dumps),
        drop=st.sets(st.integers(0, 99), max_size=30),
        relabel=st.dictionaries(st.integers(0, 99), st.sampled_from(_LABEL_WORDS) | _JSON, max_size=3),
    )
    @example(raw="{}", drop=set(), relabel={})  # no train thread has gold
    @example(raw='{"a\\nb": "maybe"}', drop=set(), relabel={})  # a line break in a thread id
    @example(raw=_DEEP, drop=set(), relabel={})  # nested past the decoder's limit
    def test_key_file(self, ws, raw, drop, relabel):
        """raw is the whole key file; without it, the train key with the
        entries at the drop indices removed and those in relabel changed."""
        if raw is None:
            labels = load_key_file(load_config(ws["cfg"]).train_key)
            ids = sorted(labels)
            for i, value in relabel.items():
                if i < len(ids):
                    labels[ids[i]] = value
            raw = json.dumps({"subtaskbenglish": {t: v for i, (t, v) in enumerate(sorted(labels.items())) if i not in drop}})
        with tempfile.TemporaryDirectory() as tmp:
            key = Path(tmp) / "key.json"
            key.write_text(raw, encoding="utf-8")
            argv = ["train", "--config", ws["cfg"], "--phase", "2-2", "--train-key", str(key)]
            _assert_exit_contract(*_run([*argv, "--model-dir", str(Path(tmp) / "models")]))

    @settings(max_examples=25, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(st.sampled_from(["repeat", "replace", "field", "thread_field"]), st.integers(0, 99), _TEXT, _JSON),
            max_size=3,
        ),
        extra=st.lists(_TEXT, max_size=2),
    )
    @example(edits=[("repeat", 3, "", None)], extra=[])  # one line given twice
    @example(edits=[], extra=[_DEEP])  # a line nested past the decoder's limit
    def test_conversations_jsonl(self, ws, edits, extra):
        """The test split's records with fields set to any JSON, then lines
        repeated or replaced by any JSON, and lines of any text appended. A
        run that succeeds predicts each thread once."""
        records = [conversation_to_dict(c) for c in load_split(ws["test_dir"], labels=load_key_file(ws["test_key"]))]
        for op, i, name, value in edits:
            if op.endswith("field"):
                record = records[i % len(records)]
                (record["thread"] if op == "thread_field" else record)[name] = value
        lines = [json.dumps(r) for r in records]
        for op, i, _, value in edits:
            if op == "repeat":
                lines.append(lines[i % len(lines)])
            elif op == "replace":
                lines[i % len(lines)] = json.dumps(value)
        with tempfile.TemporaryDirectory() as tmp:
            corpus, out = Path(tmp) / "convs.jsonl", Path(tmp) / "reports"
            corpus.write_text("\n".join(lines + extra) + "\n", encoding="utf-8")
            rc, err = _run(["evaluate", str(corpus), "--config", ws["cfg"], "--out", str(out)])
            _assert_exit_contract(rc, err)
            if rc == 0:
                [ids] = [[p.thread_id for p in load_predictions_jsonl(f)] for f in out.glob("predictions-*.jsonl")]
                assert len(ids) == len(set(ids)) == len(load_conversations_jsonl(corpus))

    @settings(max_examples=40, deadline=None)
    @given(corpus=st.sampled_from(["hedge", "deception", "agreement"]), lines=_TSV_LINES, keep=st.integers(0, 40))
    @example(corpus="hedge", lines=[], keep=0)  # an empty pretrain corpus
    def test_tsv_corpus(self, ws, corpus, lines, keep):
        """The first keep lines of the real corpus followed by generated lines."""
        real = (load_config(ws["cfg"]).train_dir.parent / "corpora" / f"{corpus}.tsv").read_text(encoding="utf-8")
        flags = {"hedge": ["--phase", "1"], "deception": ["--phase", "2-1", "--mode", "single_lie"],
                 "agreement": ["--phase", "2-2"]}[corpus]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{corpus}.tsv"
            path.write_text("\n".join(real.splitlines()[:keep] + lines) + "\n", encoding="utf-8")
            argv = ["train", "--config", ws["cfg"], f"--{corpus}-corpus", str(path), *flags]
            _assert_exit_contract(*_run([*argv, "--model-dir", str(Path(tmp) / "models")]))

    @settings(max_examples=30, deadline=None)
    @given(files=_tree_files(), edits=_EDITS, raw=st.none() | st.tuples(st.integers(0, 99), _TEXT))
    @example(files=_ONE_REPLY, edits=[], raw=(0, _DEEP))  # a reply post nested past the decoder's limit
    @example(files=_ONE_REPLY, edits=[], raw=(1, _DEEP))  # the source post
    @example(files=_ONE_REPLY, edits=[], raw=(2, _chain("t1", 995)))  # a 995-reply chain
    def test_conversation_tree(self, ws, files, edits, raw):
        """A generated tree with edits to its JSON values and optionally one
        file's text replaced by raw. ingest and classify <dir> read it alike;
        when it loads, classify gives the same bytes from the ingested JSONL."""
        for op, i, value in edits:
            _edit(files, op, i, value)
        texts = {rel: json.dumps(value) for rel, value in files.items()}
        if raw is not None and texts:
            texts[sorted(texts)[raw[0] % len(texts)]] = raw[1]
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp) / "tree"
            for rel, text in texts.items():
                (tree / "thread" / rel).parent.mkdir(parents=True, exist_ok=True)
                (tree / "thread" / rel).write_text(text, encoding="utf-8")
            ingested, from_dir, from_jsonl = (Path(tmp) / name for name in ("c.jsonl", "d.jsonl", "j.jsonl"))
            rc, err = _run(["ingest", str(tree), str(ingested)])
            _assert_exit_contract(rc, err)
            classify = ["classify", "--config", ws["cfg"], "--out"]
            assert _run([*classify, str(from_dir), str(tree)]) == (rc, err)
            if rc == 0:
                assert _run([*classify, str(from_jsonl), str(ingested)]) == (0, "")
                assert from_jsonl.read_bytes() == from_dir.read_bytes()

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["phase1", "lie", "agreement"]), edits=_EDITS, raw=st.none() | _TEXT)
    @example(name="phase1", edits=[], raw=_DEEP)  # nested past the decoder's limit
    def test_model_file(self, ws, name, edits, raw):
        """One of classify's model files with edits to its JSON values (types,
        base64 payloads, list lengths, nesting), or replaced by raw text."""
        doc = json.loads((ws["models"] / f"{name}.json").read_text(encoding="utf-8"))
        for op, i, value in edits:
            _edit(doc, op, i, value)
        with tempfile.TemporaryDirectory() as tmp:
            models = Path(tmp) / "models"
            shutil.copytree(ws["models"], models)
            (models / f"{name}.json").write_text(json.dumps(doc) if raw is None else raw, encoding="utf-8")
            argv = ["classify", ws["test_dir"], "--config", ws["cfg"], "--model-dir", str(models)]
            rc, err = _run([*argv, "--out", str(Path(tmp) / "p.jsonl")])
            _assert_exit_contract(rc, err)
            assert rc in (0, 3), err
