#!/usr/bin/env python3
"""Train and score every mode on the in-memory synthetic benchmark.

The planted lexicons make the analytically correct labels known, so this
grid is the desk-scale stand-in for the published experiment table: the
double-channel mode should approach a perfect score and strictly beat
both single-channel ablations, with the inverse routing worst.
"""

import argparse

from rumorvet.backends import ReferenceBackend
from rumorvet.config import RunConfig
from rumorvet.evaluation import build_report, render_reports
from rumorvet.pipeline import BACKEND_SPECS, MODES, PipelineConfig, backend_names, score_grid, train_backends
from rumorvet.synthetic import SyntheticSpec, make_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-per-cell", type=int, default=30)
    parser.add_argument("--test-per-cell", type=int, default=12)
    parser.add_argument(
        "--phase1-per-class",
        type=int,
        default=21,
        help="balanced resample size for the certainty router; lower it for very small grids",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = SyntheticSpec(
        n_train_per_cell=args.train_per_cell,
        n_test_per_cell=args.test_per_cell,
        seed=args.seed,
    )
    corpus = make_corpus(spec)
    golds = corpus.gold("test")

    def factory(classes, input_kind, seed):
        return ReferenceBackend(classes, input_kind=input_kind, seed=seed)

    corpora = {"hedge_corpus": corpus.hedge, "deception_corpus": corpus.deception, "agreement_corpus": corpus.agreement}

    def corpus_for(name):
        return list(corpora[BACKEND_SPECS[name].pretrain_corpus])

    cfg = RunConfig(seed=args.seed, phase1_per_class=args.phase1_per_class)
    trained = train_backends(backend_names(MODES), list(corpus.train), corpus_for, factory, cfg)
    backends = {name: backend for name, backend, _ in trained}
    rows = score_grid(list(corpus.test), [(mode, None) for mode in MODES], backends)
    reports = [
        build_report(
            PipelineConfig(mode=row.mode, seed=args.seed),
            row.predictions,
            golds,
            reply_counts=row.reply_counts,
        )
        for row in rows
    ]
    print(render_reports(reports), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
