"""The benchmark's workloads: inputs, command sequences and output checks.

Each workload runs `rumorvet.cli.main` with the argv a user would type.
`why` says what the workload is for. The comment above each workload says
what the open ROADMAP items should do to it, written down before any of
them lands.

Work-directory layout (all under one per-run directory):
  in/   generated inputs: train/ and test/ trees or train.jsonl/test.jsonl,
        keys/{train,test}-key.json, corpora/{hedge,deception,agreement}.tsv
  out/  everything the CLI writes: ingested/, models/, reports/,
        predictions.jsonl
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

from inputs import InputSpec

WINDOWS = ("none", "1", "3", "5")
# Set-up passes per benchmark run; setup_s and, on the classify workloads,
# train_s are their medians.
SETUP_REPEATS = 5
MODES = ("double", "single_lie", "single_agreement", "inverse")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: InputSpec
    # True: ingest the train and test trees, train and ablate in the timed
    # loop. False: train from train.jsonl in set-up, then classify.
    grid: bool
    test_as_dir: bool

    def clear_outputs(self, w: Path) -> None:
        """Remove the previous pass's outputs, keeping only the set-up models.

        Every timed iteration starts from this state, so each one does, and
        is checked on, the whole command sequence.
        """
        out_dir = w / "out"
        if not out_dir.is_dir():
            return
        for p in out_dir.iterdir():
            if p.is_dir() and (self.grid or p.name != "models"):
                shutil.rmtree(p)
            elif not p.is_dir():
                p.unlink()

    def setup_commands(self, w: Path) -> list[list[str]]:
        """Train commands run in set-up (models the timed part classifies with)."""
        if self.grid:
            return []
        return [_train(w, w / "in" / "train.jsonl", "--phase", "all")]

    def timed_commands(self, w: Path) -> list[list[str]]:
        if self.grid:
            ingested = w / "out" / "ingested"
            return [
                _ingest(w, "train"),
                _ingest(w, "test"),
                _train(w, ingested / "train.jsonl", "--phase", "all"),
                _train(w, ingested / "train.jsonl", "--phase", "2-1", "--mode", "single_lie"),
                [
                    "ablate", str(ingested / "test.jsonl"),
                    "--window-days", ",".join(WINDOWS),
                    "--model-dir", str(w / "out" / "models"),
                    "--out", str(w / "out" / "reports"),
                ],
            ]
        source = w / "in" / ("test" if self.test_as_dir else "test.jsonl")
        return [
            [
                "classify", str(source),
                "--mode", "double",
                "--model-dir", str(w / "out" / "models"),
                "--out", str(w / "out" / "predictions.jsonl"),
            ]
        ]

    def check(self, w: Path) -> tuple[list[str], int, float]:
        """(failed checks, predictions written, macro-F1 of the scored row)."""
        gold = json.loads((w / "in" / "keys" / "test-key.json").read_text())["subtaskbenglish"]
        if not self.grid:
            labels = _labels(w / "out" / "predictions.jsonl")
            f1 = macro_f1(labels, gold)
            failures = [] if labels.keys() == gold.keys() else ["classify: thread set != gold"]
            if f1 != 1.0:
                failures.append(f"classify: macro-F1 {f1} != 1.0")
            return failures, len(labels), f1
        reports = w / "out" / "reports"
        failures = []
        rows = {}  # row -> threads kept; only the double row's labels are scored
        double = {}
        for mode in MODES:
            for window in WINDOWS:
                slug = mode if window == "none" else f"{mode}-{window}d"
                path = reports / f"predictions-{slug}.jsonl"
                if not path.is_file():
                    failures.append(f"missing {path.name}")
                elif slug == "double":
                    double = _labels(path)
                    rows[slug] = len(double)
                else:
                    rows[slug] = len(_labels(path))
        if not (reports / "report.txt").is_file():
            failures.append("missing report.txt")
        f1 = macro_f1(double, gold)
        if f1 != 1.0:
            failures.append(f"double row: macro-F1 {f1} != 1.0")
        if not rows.get("double-1d", 0) < rows.get("double-5d", 0):
            failures.append("double/1d keeps no fewer threads than double/5d")
        return failures, sum(rows.values()), f1


def _common(w: Path) -> list[str]:
    corpora = w / "in" / "corpora"
    return [
        "--model-dir", str(w / "out" / "models"),
        "--hedge-corpus", str(corpora / "hedge.tsv"),
        "--deception-corpus", str(corpora / "deception.tsv"),
        "--agreement-corpus", str(corpora / "agreement.tsv"),
    ]


def _train(w: Path, train_dir: Path, *extra: str) -> list[str]:
    return ["train", *extra, "--train-dir", str(train_dir), *_common(w)]


def _ingest(w: Path, split: str) -> list[str]:
    return [
        "ingest", str(w / "in" / split), str(w / "out" / "ingested" / f"{split}.jsonl"),
        "--key", str(w / "in" / "keys" / f"{split}-key.json"),
    ]


def _labels(path: Path) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                out[obj["thread_id"]] = obj["label"]
    return out


def macro_f1(pred: dict[str, str], gold: dict[str, str]) -> float:
    """Macro-F1 over the gold classes, on the threads both sides name."""
    ids = pred.keys() & gold.keys()
    if not ids:
        return 0.0
    scores = []
    for cls in sorted(set(gold.values())):
        tp = sum(1 for i in ids if pred[i] == cls and gold[i] == cls)
        fp = sum(1 for i in ids if pred[i] == cls and gold[i] != cls)
        fn = sum(1 for i in ids if pred[i] != cls and gold[i] == cls)
        scores.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
    return sum(scores) / len(scores)


def _sha256(path: Path) -> str:
    # Streamed, so hashing large outputs adds little to the process's peak RSS.
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def output_digests(w: Path) -> dict[str, str]:
    """sha256 of every output file except manifests, which carry timestamps."""
    out_dir = w / "out"
    return {
        p.relative_to(out_dir).as_posix(): _sha256(p)
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and not p.name.endswith("manifest.json")
    }


WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP item 2 (vectorised backend): wall_s, train_s and predictions_per_s
        # improve. Item 3 (one evidence table per grid): predictions_per_s and wall_s
        # improve a lot; backends.predict.calls and corpus.filter_window.calls drop;
        # train_s stays about the same unless each distinct backend is trained once.
        # Item 5 (run stats): a small wall_s cost.
        Workload(
            name="paper_grid",
            why="the paper's grid end to end: ingest, train every backend, ablate 4 modes x "
            "windows none,1,3,5 on 500 test threads; fit and 16-row scoring dominate",
            inputs=InputSpec(
                train_per_cell=100,
                test_per_cell=100,
                replies_per_thread=10,
                pretrain_per_class=500,
            ),
            grid=True,
            test_as_dir=True,
        ),
        # Item 2: predictions_per_s and wall_s improve most here (feature memoisation
        # and batched predict); backends.predict.distinct_text_ratio shows the repeated
        # thread texts. Item 3: about no change (one grid row; fit runs in set-up).
        # setup_s and train_s move only with fit and save_model.
        Workload(
            name="classify_crowd",
            why="one double-mode classify from JSONL with ~30 primary replies per crowd thread and "
            "MB-sized models; predict on pairs dominates, thread texts repeat across pairs",
            inputs=InputSpec(
                train_per_cell=50,
                test_per_cell=100,
                replies_per_thread=30,
                pretrain_per_class=500,
                noise_vocab=30000,
            ),
            grid=False,
            test_as_dir=False,
        ),
        # Items 2 and 3: wall_s about unchanged (predict is ~11%). A loader or checksum
        # change (e.g. hashing bytes already read) moves wall_s here, with
        # corpus.load_split.s and manifest.checksum.s. Item 5: a small wall_s cost.
        Workload(
            name="classify_tree",
            why="one double-mode classify straight from ~5.7k JSON files (500 threads, nested "
            "non-primary replies); directory loading and manifest checksums dominate",
            inputs=InputSpec(
                train_per_cell=50,
                test_per_cell=100,
                replies_per_thread=4,
                pretrain_per_class=1000,
                nested_per_primary=5,
            ),
            grid=False,
            test_as_dir=True,
        ),
    )
}
