"""Acceptance gate: one test per release criterion.

Each criterion is a single test function, so a verbose pytest run prints
exactly one pass/fail line per criterion. Criterion 6 needs the external
benchmark corpus and skips (with instructions) when its environment
variables are unset; everything else is self-contained.
"""

import itertools
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from rumorvet.agreement import aggregate, build_phase22_training
from rumorvet.backends import ReferenceBackend
from rumorvet.corpus import filter_window, load_key_file, load_split
from rumorvet.errors import DegenerateEvidence
from rumorvet.evaluation import ConfusionMatrix, build_report, metrics
from rumorvet.pipeline import (
    MODE_DOUBLE,
    MODE_INVERSE,
    MODE_SINGLE_AGREEMENT,
    MODE_SINGLE_LIE,
    PipelineConfig,
    backend_names,
    classify,
    run_batch,
    score_grid,
    train_backends,
)
from rumorvet.predictions import CHANNEL_AGREEMENT, CHANNEL_LIE
from rumorvet.probs import ProbVector, self_entropy
from rumorvet.synthetic import SyntheticSpec, make_corpus, materialize

from ._support import aggregate_oracle, make_conv

ENV_VARS = {
    "train_dir": "RUMORVET_SEMEVAL_TRAIN_DIR",
    "train_key": "RUMORVET_SEMEVAL_TRAIN_KEY",
    "test_dir": "RUMORVET_SEMEVAL_TEST_DIR",
    "test_key": "RUMORVET_SEMEVAL_TEST_KEY",
}


def _reference_factory(classes, input_kind, seed):
    return ReferenceBackend(classes, input_kind=input_kind, seed=seed)


def test_criterion_1_metric_oracle():
    """Any matrix with diagonal (19, 20, 1) and row sums (31, 40, 10)
    scores accuracy 0.4938 within 1e-4, in under a second."""
    start = time.perf_counter()
    diag = (19, 20, 1)
    row_sums = (31, 40, 10)
    rng = random.Random(0)
    cases = []
    for a in (0, 5, 12):
        for b in (0, 7, 20):
            for c in (0, 4, 9):
                cases.append((a, b, c))
    for _ in range(50):
        cases.append(tuple(rng.randint(0, s) for s in (12, 20, 9)))
    for spread_true, spread_false, spread_unv in cases:
        counts = (
            (diag[0], spread_true, row_sums[0] - diag[0] - spread_true),
            (spread_false, diag[1], row_sums[1] - diag[1] - spread_false),
            (spread_unv, row_sums[2] - diag[2] - spread_unv, diag[2]),
        )
        m = ConfusionMatrix(counts)
        assert m.trace() == 40 and m.row_sums() == row_sums
        assert metrics(m).accuracy == pytest.approx(0.4938, abs=1e-4)
    assert time.perf_counter() - start < 1.0


def test_criterion_2_entropy_formula():
    """H(0.5,0.5)=1, H(1,0)=0, H(0.9,0.1)=0.46900 within 1e-4, under 1s."""
    start = time.perf_counter()
    assert self_entropy(ProbVector((0.5, 0.5))) == pytest.approx(1.0, abs=1e-12)
    assert self_entropy(ProbVector((1.0, 0.0))) == pytest.approx(0.0, abs=1e-12)
    assert self_entropy(ProbVector((0.9, 0.1))) == pytest.approx(0.46900, abs=1e-4)
    assert time.perf_counter() - start < 1.0


def _stance(vals):
    return ProbVector(tuple(float(v) for v in vals))


def _check_against_oracle(softmaxes):
    scores = [_stance(v) for v in softmaxes]
    expected = aggregate_oracle(softmaxes)
    if expected is None:
        with pytest.raises(DegenerateEvidence):
            aggregate(scores)
        return
    got = aggregate(scores)
    assert abs(got[0] - float(expected[0])) <= 1e-12
    assert abs(got[1] - float(expected[1])) <= 1e-12


def test_criterion_3_aggregation_oracle():
    """Exhaustive small-denominator rational fixtures up to 3 replies match
    the brute-force oracle to 1e-12; permutation and duplication invariance
    hold over 1,000 randomized cases. Under 10s."""
    start = time.perf_counter()
    vectors = []
    for den in range(1, 5):
        for a in range(den + 1):
            for b in range(den + 1 - a):
                c = den - a - b
                vectors.append(
                    (Fraction(a, den), Fraction(b, den), Fraction(c, den))
                )
    vectors = sorted(set(vectors))
    for v in vectors:
        _check_against_oracle([v])
    for pair in itertools.product(vectors, repeat=2):
        _check_against_oracle(list(pair))
    for triple in itertools.islice(itertools.product(vectors, repeat=3), 20000):
        _check_against_oracle(list(triple))

    rng = random.Random(3)
    checked = 0
    while checked < 1000:
        n = rng.randint(1, 6)
        softmaxes = []
        for _ in range(n):
            ws = [rng.randint(0, 30) for _ in range(3)]
            if sum(ws) == 0:
                ws[rng.randrange(3)] = 1
            total = sum(ws)
            softmaxes.append(tuple(Fraction(w, total) for w in ws))
        if aggregate_oracle(softmaxes) is None:
            continue
        scores = [_stance(v) for v in softmaxes]
        base = aggregate(scores)
        shuffled = scores[:]
        rng.shuffle(shuffled)
        perm = aggregate(shuffled)
        dup = aggregate(scores * rng.randint(2, 4))
        assert abs(base[0] - perm[0]) <= 1e-12 and abs(base[1] - perm[1]) <= 1e-12
        assert abs(base[0] - dup[0]) <= 1e-12 and abs(base[1] - dup[1]) <= 1e-12
        checked += 1
    assert time.perf_counter() - start < 10.0


class _TablePhase1:
    def __init__(self, table):
        self.table = table

    def predict(self, text):
        return ProbVector((0.9, 0.1) if self.table[text] == "certain" else (0.1, 0.9))


class _Fixed:
    def __init__(self, values):
        self.values = values

    def predict(self, x):
        return ProbVector(self.values)


class _Exploding:
    def predict(self, text):
        raise AssertionError("phase 1 must not be consulted in single modes")


def test_criterion_4_routing_properties():
    """Double and inverse produce exactly swapped channel maps under 500
    random routing tables; single modes never consult Phase 1. Under 10s."""
    start = time.perf_counter()
    rng = random.Random(7)
    lie = _Fixed((0.8, 0.2))
    agreement_stub = _Fixed((0.7, 0.1, 0.2))
    for _ in range(500):
        n = rng.randint(1, 8)
        convs = [
            make_conv(f"t{i}", f"thread text {i}", [("a reply", 60, True)]) for i in range(n)
        ]
        table = {c.thread.text_clean: rng.choice(("certain", "uncertain")) for c in convs}
        backends = {"phase1": _TablePhase1(table), "lie": lie, "agreement": agreement_stub}
        double = {
            c.thread.id: classify(c, PipelineConfig(mode=MODE_DOUBLE), backends) for c in convs
        }
        inverse = {
            c.thread.id: classify(c, PipelineConfig(mode=MODE_INVERSE), backends) for c in convs
        }
        swap = {CHANNEL_LIE: CHANNEL_AGREEMENT, CHANNEL_AGREEMENT: CHANNEL_LIE}
        for c in convs:
            d, v = double[c.thread.id], inverse[c.thread.id]
            assert v.channel == swap[d.channel]
            assert d.assignment.label == table[c.thread.text_clean]
            assert v.assignment.label == d.assignment.label
            expected = CHANNEL_LIE if table[c.thread.text_clean] == "certain" else CHANNEL_AGREEMENT
            assert d.channel == expected

        singles = {"phase1": _Exploding(), "lie_unrouted": lie, "agreement": agreement_stub}
        probe = convs[0]
        assert classify(probe, PipelineConfig(mode=MODE_SINGLE_LIE), singles).channel == CHANNEL_LIE
        assert (
            classify(probe, PipelineConfig(mode=MODE_SINGLE_AGREEMENT), singles).channel
            == CHANNEL_AGREEMENT
        )
    assert time.perf_counter() - start < 10.0


def test_criterion_5_window_monotonicity():
    """Surviving-reply sets nest across 1 <= 3 <= 5 day windows for
    randomized conversations; a reply at exactly n*86400s is retained."""
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(0, 12)
        replies = [
            (f"reply {i}", rng.randint(0, 8 * 86400), rng.random() < 0.7) for i in range(n)
        ]
        conv = make_conv("t1", "some thread", replies)
        ids = lambda c: {r.post.id for r in c.replies}
        w1, w3, w5 = (ids(filter_window(conv, d)) for d in (1, 3, 5))
        assert w1 <= w3 <= w5 <= ids(conv)
    for days in (1, 3, 5):
        conv = make_conv("t1", "x", [("on the line", days * 86400, True)])
        assert len(filter_window(conv, days).replies) == 1
        conv = make_conv("t1", "x", [("just past", days * 86400 + 1, True)])
        assert len(filter_window(conv, days).replies) == 0


def test_criterion_6_dataset_dependent_checks():
    """With the benchmark corpus configured: 365 train threads, 2,372
    fine-tune pairs, 81 test predictions, and the 1-day window keeps 78
    threads at 11.96 +/- 0.5 mean primary replies."""
    missing = [v for v in ENV_VARS.values() if not os.environ.get(v)]
    if missing:
        pytest.skip(
            "benchmark corpus not configured; set "
            + ", ".join(sorted(ENV_VARS.values()))
            + " to run"
        )
    paths = {k: Path(os.environ[v]) for k, v in ENV_VARS.items()}
    train = load_split(paths["train_dir"], labels=load_key_file(paths["train_key"]))
    test = load_split(paths["test_dir"], labels=load_key_file(paths["test_key"]))

    assert len(train) == 365
    _, finetune_pairs = build_phase22_training([], train)
    assert len(finetune_pairs) == 2372

    backends = {"phase1": _Fixed((0.6, 0.4)), "lie": _Fixed((0.8, 0.2)), "agreement": _Fixed((0.5, 0.3, 0.2))}
    preds = run_batch(test, PipelineConfig(mode=MODE_DOUBLE), backends)
    assert len(preds) == 81

    [windowed] = score_grid(test, [(MODE_DOUBLE, 1)], backends)
    assert len(windowed.predictions) == 78
    assert sum(windowed.reply_counts) / len(windowed.reply_counts) == pytest.approx(11.96, abs=0.5)


def test_criterion_7_synthetic_benchmark():
    """On the planted-lexicon benchmark the double-channel pipeline reaches
    macro-F1 >= 0.95 and strictly beats both single-channel ablations.
    Under 2 minutes."""
    start = time.perf_counter()
    corpus = make_corpus(SyntheticSpec())
    golds = corpus.gold("test")
    scores = {}
    for mode in (MODE_DOUBLE, MODE_SINGLE_LIE, MODE_SINGLE_AGREEMENT):
        backends = train_backends(
            backend_names([mode]),
            list(corpus.train),
            list(corpus.hedge),
            list(corpus.deception),
            list(corpus.agreement),
            _reference_factory,
            seed=0,
        )
        config = PipelineConfig(mode=mode)
        preds = run_batch(list(corpus.test), config, backends)
        scores[mode] = build_report(config, preds, golds).macro_f1
    assert scores[MODE_DOUBLE] >= 0.95
    assert scores[MODE_DOUBLE] > scores[MODE_SINGLE_LIE]
    assert scores[MODE_DOUBLE] > scores[MODE_SINGLE_AGREEMENT]
    assert time.perf_counter() - start < 120.0


def test_criterion_8_determinism(tmp_path, monkeypatch):
    """Two identically seeded full runs (train, classify, evaluate) write
    byte-identical prediction files and reports."""
    from rumorvet.cli import main

    spec = SyntheticSpec(
        n_train_per_cell=5, n_test_per_cell=2, replies_per_thread=3, pretrain_per_class=12
    )
    data = tmp_path / "data"
    materialize(spec, data)
    # One shared config with a cwd-relative model dir, so the two runs are
    # bit-for-bit the same command in different working directories.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"train_dir = {data / 'train'}",
                f"train_key = {data / 'keys' / 'train-key.json'}",
                f"hedge_corpus = {data / 'corpora' / 'hedge.tsv'}",
                f"deception_corpus = {data / 'corpora' / 'deception.tsv'}",
                f"agreement_corpus = {data / 'corpora' / 'agreement.tsv'}",
                "model_dir = models",
                "phase1_per_class = 8",
                "seed = 0",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    outputs = []
    for run in ("one", "two"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert main(["train", "--config", str(cfg), "--phase", "all"]) == 0
        assert (
            main(
                [
                    "evaluate",
                    str(data / "test"),
                    "--config",
                    str(cfg),
                    "--key",
                    str(data / "keys" / "test-key.json"),
                    "--out",
                    "reports",
                ]
            )
            == 0
        )
        outputs.append(run_dir)

    first, second = outputs
    compared = 0
    for path in sorted((first / "models").iterdir()):
        if path.suffix == ".json" and "manifest" not in path.name:
            assert path.read_bytes() == (second / "models" / path.name).read_bytes()
            compared += 1
    for path in sorted((first / "reports").iterdir()):
        if path.name == "manifest.json":
            continue
        assert path.read_bytes() == (second / "reports" / path.name).read_bytes()
        compared += 1
    assert compared >= 5
