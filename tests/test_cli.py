"""End-to-end command-line runs against a materialized benchmark."""

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorvet.agreement import load_agreement_corpus
from rumorvet.backends import ReferenceBackend, save_model
from rumorvet.certainty import assign_all, load_hedge_corpus
from rumorvet import cli, pipeline
from rumorvet.cli import main
from rumorvet.config import _STAGES, load_config
from rumorvet.corpus import load_conversations_jsonl, load_key_file, load_split
from rumorvet.lie import load_deception_corpus
from rumorvet.pipeline import BACKEND_NAMES, train_backend
from rumorvet.predictions import load_predictions_jsonl
from rumorvet.probs import VERACITY_CLASSES
from rumorvet.synthetic import SyntheticSpec, materialize

from ._support import CountingBackend, sha256_tree_oracle

SPEC = SyntheticSpec(
    n_train_per_cell=5, n_test_per_cell=2, replies_per_thread=3, pretrain_per_class=12
)


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
            trained[name] = train_backend(
                name, train, corpora[name], factory, cfg.training_plan(), cfg.seed, routing
            )
            save_model(trained[name], tmp_path / f"{name}.json")
            assert (tmp_path / f"{name}.json").read_bytes() == (ws["models"] / f"{name}.json").read_bytes()

    def test_train_all_routes_the_train_split_once(self, ws, tmp_path, monkeypatch, capsys):
        """The printed routing summary and the lie fine-tune set share one
        predict_batch call on the freshly trained router."""
        routers = []

        def counting_train(name, *args):
            backend = pipeline.train_backend(name, *args)
            if name == "phase1":
                backend = CountingBackend(backend)
                routers.append(backend)
            return backend

        monkeypatch.setattr(cli, "train_backend", counting_train)
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
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        monkeypatch.setattr("io.open", counting_open)
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
        rc = main(["classify", ws["test_dir"], "--config", ws["cfg"], "--key", str(key)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "key.json" in err and "Traceback" not in err

    def test_missing_key_file_is_data_error(self, ws, tmp_path, capsys):
        rc = main(
            ["classify", ws["test_dir"], "--config", ws["cfg"], "--key", str(tmp_path / "absent.json")]
        )
        assert rc == 2
        assert "absent.json" in capsys.readouterr().err

    def test_malformed_jsonl_record_is_data_error(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"thread": 1}\n', encoding="utf-8")
        rc = main(["classify", str(bad), "--config", ws["cfg"], "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

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
            "learning_rate": st.floats(max_value=0.0) | st.just("fast"),
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
