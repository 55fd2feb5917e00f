#!/usr/bin/env python3
"""Reproduce the real-data experiment grids from user-supplied corpora.

Runs ingest, trains every backend variant, and renders the mode grid
plus the 1/3/5-day reply-window grid. All corpora are user-supplied
paths (licenses differ, so nothing is auto-downloaded): the task data in
its original layout plus the three external pretraining corpora in the
documented TSV formats. With the default reference backend this
finishes in minutes and is bit-reproducible; pass --backend transformer
for the published-scale setup (needs the optional extra, downloads
pretrained weights, and is not bit-reproducible).
"""

import argparse
import sys
from pathlib import Path

from rumorvet.cli import main as cli_main


def run(argv: list[str]) -> None:
    code = cli_main(argv)
    if code != 0:
        print(f"step failed with exit code {code}: {' '.join(argv)}", file=sys.stderr)
        raise SystemExit(code)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-dir", required=True, help="train split, original layout")
    parser.add_argument("--test-dir", required=True, help="test split, original layout")
    parser.add_argument("--train-key", required=True, help="train gold-label key file")
    parser.add_argument("--test-key", required=True, help="test gold-label key file")
    parser.add_argument("--hedge-corpus", required=True)
    parser.add_argument("--deception-corpus", required=True)
    parser.add_argument("--agreement-corpus", required=True)
    parser.add_argument("--backend", default="reference", choices=["reference", "transformer"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work-dir", default="semeval-run")
    parser.add_argument("--windows", default="1,3,5,none")
    parser.add_argument("--config", default=None, help="extra key=value config (resample size, recipes)")
    args = parser.parse_args()

    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    train_jsonl = work / "train.jsonl"
    test_jsonl = work / "test.jsonl"

    run(["ingest", args.train_dir, str(train_jsonl), "--key", args.train_key])
    run(["ingest", args.test_dir, str(test_jsonl), "--key", args.test_key])

    # Scoring reads the backend kind from the model files, so the training
    # inputs and --backend go to train only.
    common = ["--seed", str(args.seed), "--model-dir", str(work / "models")]
    if args.config:
        common = ["--config", args.config, *common]
    training = [
        "--backend", args.backend,
        "--train-dir", str(train_jsonl),
        "--hedge-corpus", args.hedge_corpus,
        "--deception-corpus", args.deception_corpus,
        "--agreement-corpus", args.agreement_corpus,
    ]
    run(["train", "--phase", "all", *common, *training])
    run(["train", "--phase", "2-1", "--mode", "single_lie", *common, *training])

    run(
        [
            "ablate",
            str(test_jsonl),
            "--key", args.test_key,
            "--out", str(work / "mode-grid"),
            *common,
        ]
    )
    run(
        [
            "evaluate",
            str(test_jsonl),
            "--key", args.test_key,
            "--window-days", args.windows,
            "--out", str(work / "window-grid"),
            *common,
        ]
    )
    print(f"reports under {work}/mode-grid and {work}/window-grid")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
