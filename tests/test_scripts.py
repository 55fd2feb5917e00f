"""Smoke runs of the scripts under scripts/, in-process and at desk scale.

Each script's main() runs with a patched sys.argv, so a script that
imports a name the package no longer has fails here.
"""

import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(monkeypatch, script: str, *argv: str) -> int:
    main = runpy.run_path(str(SCRIPTS / script))["main"]
    monkeypatch.setattr(sys, "argv", [script, *argv])
    return main()


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("scripts") / "data"
    with pytest.MonkeyPatch.context() as mp:
        args = ["--train-per-cell", "5", "--test-per-cell", "2", "--replies-per-thread", "3"]
        assert _run(mp, "build_synthetic_data.py", str(root), *args, "--pretrain-per-class", "12") == 0
    return root


def test_build_synthetic_data(data):
    for path in ("train", "test", "keys/train-key.json", "keys/test-key.json", "corpora/hedge.tsv"):
        assert (data / path).exists()
    assert len(json.loads((data / "keys" / "test-key.json").read_text())["subtaskbenglish"]) == 10


def test_run_semeval_grid(data, tmp_path, monkeypatch):
    cfg = tmp_path / "extra.cfg"
    cfg.write_text("phase1_per_class = 5\n", encoding="utf-8")
    work = tmp_path / "run"
    argv = [
        "--train-dir", str(data / "train"),
        "--test-dir", str(data / "test"),
        "--train-key", str(data / "keys" / "train-key.json"),
        "--test-key", str(data / "keys" / "test-key.json"),
        "--hedge-corpus", str(data / "corpora" / "hedge.tsv"),
        "--deception-corpus", str(data / "corpora" / "deception.tsv"),
        "--agreement-corpus", str(data / "corpora" / "agreement.tsv"),
        "--work-dir", str(work),
        "--config", str(cfg),
    ]
    assert _run(monkeypatch, "run_semeval_grid.py", *argv) == 0
    for grid in ("mode-grid", "window-grid"):
        assert (work / grid / "report.txt").is_file()
        assert (work / grid / "report.json").is_file()


def test_run_synthetic_grid(monkeypatch, capsys):
    argv = ["--train-per-cell", "6", "--test-per-cell", "3", "--phase1-per-class", "3"]
    assert _run(monkeypatch, "run_synthetic_grid.py", *argv) == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines() if line}
    assert rows["double"][0] == "1.0000"
    assert set(rows) >= {"double", "single_lie", "single_agreement", "inverse"}
