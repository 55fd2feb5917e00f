"""The scored mode x window grid against the per-row oracle path.

The oracle is the path every grid row used to take: restrict the corpus
to the window's evaluable threads, then score each thread on its own
through classify_oracle. The grid must reproduce it row for row, while
calling each distinct backend once for the whole grid.
"""

import json
from pathlib import Path

import pytest

from rumorvet import cli
from rumorvet.backends import load_model, save_model
from rumorvet.corpus import gold_labels, save_conversations_jsonl
from rumorvet.evaluation import build_report, restrict_to_windowed
from rumorvet.pipeline import MODE_BACKENDS, MODES, PipelineConfig, backend_names
from rumorvet.predictions import load_predictions_jsonl

from .conftest import reference_factory
from ._support import CountingBackend, OracleBackend, classify_oracle, payload_v1, spread_reply_ages, train_synthetic

WINDOWS = (None, 1, 3, 5)


@pytest.fixture(scope="module")
def grid_ws(tmp_path_factory, named_backends, syn_corpus):
    """Model files for every grid backend and a test JSONL with spread reply ages."""
    root = tmp_path_factory.mktemp("grid")
    (root / "models").mkdir()
    for name, backend in named_backends.items():
        save_model(backend, root / "models" / f"{name}.json")
    # Every window keeps a different, non-empty thread set.
    convs = [spread_reply_ages(c, 17 * k) for k, c in enumerate(syn_corpus.test)]
    save_conversations_jsonl(convs, root / "test.jsonl")
    return root, convs


def _evaluate_grid(root: Path, out: Path) -> int:
    return cli.main(
        [
            "evaluate", str(root / "test.jsonl"),
            "--modes", "all",
            "--window-days", ",".join("none" if w is None else str(w) for w in WINDOWS),
            "--model-dir", str(root / "models"),
            "--out", str(out),
        ]
    )


def _oracles(backends: dict) -> dict:
    return {name: OracleBackend.from_payload(payload_v1(b)) for name, b in backends.items()}


def _without_config(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "config"}


def test_grid_rows_equal_restrict_then_per_thread_oracle(grid_ws, trained, tmp_path):
    root, convs = grid_ws
    out = tmp_path / "reports"
    assert _evaluate_grid(root, out) == 0
    reports = json.loads((out / "report.json").read_text())
    assert len(reports) == len(MODES) * len(WINDOWS)
    golds = gold_labels(convs)
    abstained = assigned = 0
    for mode in MODES:
        oracles = _oracles(trained[mode])
        for window in WINDOWS:
            config = PipelineConfig(mode=mode, reply_window_days=window)
            kept = restrict_to_windowed(convs, window)
            expected = [classify_oracle(c, config, oracles) for c in kept]
            slug = mode if window is None else f"{mode}-{window}d"
            assert load_predictions_jsonl(out / f"predictions-{slug}.jsonl") == expected
            kept_golds = {c.thread.id: golds[c.thread.id] for c in kept}
            counts = [len(c.primary_replies()) for c in kept]
            want = build_report(config, expected, kept_golds, reply_counts=counts).to_dict()
            got = reports.pop(0)
            assert _without_config(got) == _without_config(want)
            assert (got["config"]["mode"], got["config"]["reply_window_days"]) == (mode, window)
            abstained += sum(1 for p in expected if p.warnings)
            assigned += sum(1 for p in expected if p.assignment is not None)
    # The unwindowed rows keep the reply-less unverified threads, which abstain.
    assert abstained > 0 and assigned > 0


def test_grid_calls_each_distinct_backend_once(grid_ws, tmp_path, monkeypatch):
    root, _ = grid_ws
    loaded = {}

    def counting_load(path):
        loaded[Path(path).stem] = backend = CountingBackend(load_model(path))
        return backend

    monkeypatch.setattr(cli, "load_model", counting_load)
    assert _evaluate_grid(root, tmp_path / "reports") == 0
    assert sorted(loaded) == ["agreement", "lie", "lie_unrouted", "phase1"]
    assert {name: len(b.batches) for name, b in loaded.items()} == dict.fromkeys(loaded, 1)


def test_grid_training_builds_four_backends(syn_corpus, named_backends):
    built = []

    def counting_factory(classes, input_kind, seed):
        built.append((classes, input_kind, seed))
        return reference_factory(classes, input_kind, seed)

    grid = train_synthetic(backend_names(MODES), syn_corpus, counting_factory)
    assert len(built) == 4
    assert sorted(grid) == ["agreement", "lie", "lie_unrouted", "phase1"]
    for name, backend in grid.items():
        assert backend.payload() == named_backends[name].payload()
    # Each mode trained on its own gets the same models the grid shares.
    for mode in MODES:
        alone = train_synthetic(backend_names([mode]), syn_corpus, reference_factory)
        assert {name: b.payload() for name, b in alone.items()} == {
            name: grid[name].payload() for name in MODE_BACKENDS[mode].values()
        }


def test_empty_window_row_is_reported_not_fatal(grid_ws, syn_corpus, tmp_path):
    """With these reply ages no thread keeps a primary reply within 1 day."""
    root, _ = grid_ws
    convs = [spread_reply_ages(c, k) for k, c in enumerate(syn_corpus.test)]
    save_conversations_jsonl(convs, tmp_path / "test.jsonl")
    out = tmp_path / "reports"
    argv = ["evaluate", str(tmp_path / "test.jsonl"), "--modes", "all", "--window-days", "none,1,3,5"]
    assert cli.main([*argv, "--model-dir", str(root / "models"), "--out", str(out)]) == 0
    reports = json.loads((out / "report.json").read_text())
    assert len(reports) == len(MODES) * len(WINDOWS)
    table = (out / "report.txt").read_text().splitlines()
    for mode in MODES:
        assert (out / f"predictions-{mode}-1d.jsonl").read_text() == ""
        [row] = [r for r in reports if (r["config"]["mode"], r["config"]["reply_window_days"]) == (mode, 1)]
        assert row["n_threads"] == 0 and row["matrix"]["counts"] == [[0] * 3] * 3
        assert [row[k] for k in ("macro_f1", "accuracy", "precision", "recall", "avg_replies")] == [None] * 5
        assert [f"{mode}/1d", "-", "-", "-", "-", "-", "0"] in [line.split() for line in table]
    # The other windows still keep threads and are scored.
    assert all(r["n_threads"] > 0 and r["macro_f1"] is not None for r in reports if r["config"]["reply_window_days"] != 1)
