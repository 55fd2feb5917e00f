"""Routing orchestration: mode table, windows, batch runs, training slots."""

import pytest

from rumorvet.certainty import CERTAIN, UNCERTAIN
from rumorvet.errors import ConfigError, UntrainedBackend
from rumorvet.pipeline import (
    BACKEND_SPECS,
    MODE_DOUBLE,
    MODE_INVERSE,
    MODE_SINGLE_AGREEMENT,
    MODE_SINGLE_LIE,
    MODES,
    PipelineConfig,
    backend_names,
    classify,
    run_batch,
)
from rumorvet.predictions import CHANNEL_AGREEMENT, CHANNEL_LIE
from rumorvet.probs import FALSE, TRUE, UNVERIFIED

from ._support import TableBackend, make_conv, train_synthetic

VERACITY = (TRUE, FALSE, UNVERIFIED)


def _exploding():
    def explode(x):
        raise AssertionError("this backend must never be consulted")

    return TableBackend(explode)


def _stubs():
    """phase1 keys on the word 'sure'; both lie backends say true; agreement says true."""
    phase1 = TableBackend(lambda t: (0.9, 0.1) if "sure" in t else (0.1, 0.9))
    lie = TableBackend(lambda t: (0.8, 0.2))
    agreement = TableBackend(lambda pair: (0.7, 0.1, 0.2))
    return {"phase1": phase1, "lie": lie, "lie_unrouted": lie, "agreement": agreement}


CERTAIN_CONV = make_conv("tc", "sure thing", [("r", 60, True)])
UNCERTAIN_CONV = make_conv("tu", "who knows", [("r", 60, True)])


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.mode == MODE_DOUBLE
        assert cfg.reply_window_days is None

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            PipelineConfig(mode="triple")

    def test_bad_epsilon(self):
        with pytest.raises(ConfigError):
            PipelineConfig(entropy_epsilon=-0.1)

    @pytest.mark.parametrize("days", [0, -1, 1.5])
    def test_bad_window(self, days):
        with pytest.raises(ConfigError):
            PipelineConfig(reply_window_days=days)

    def test_to_dict_stringifies_paths(self, tmp_path):
        cfg = PipelineConfig(lie_model=tmp_path / "m.json")
        d = cfg.to_dict()
        assert d["lie_model"] == str(tmp_path / "m.json")
        assert d["phase1_model"] is None


class TestRequiredBackends:
    def test_table(self):
        assert backend_names([MODE_DOUBLE]) == ["phase1", "lie", "agreement"]
        assert backend_names([MODE_INVERSE]) == ["phase1", "lie", "agreement"]
        assert backend_names([MODE_SINGLE_LIE]) == ["lie_unrouted"]
        assert backend_names([MODE_SINGLE_AGREEMENT]) == ["agreement"]
        assert backend_names(MODES) == ["phase1", "lie", "lie_unrouted", "agreement"]

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            backend_names(["triple"])


class TestRouting:
    def test_double_certain_goes_to_lie(self):
        pred = classify(CERTAIN_CONV, PipelineConfig(mode=MODE_DOUBLE), _stubs())
        assert pred.channel == CHANNEL_LIE
        assert pred.assignment is not None and pred.assignment.label == CERTAIN
        assert pred.label == TRUE

    def test_double_uncertain_goes_to_agreement(self):
        pred = classify(UNCERTAIN_CONV, PipelineConfig(mode=MODE_DOUBLE), _stubs())
        assert pred.channel == CHANNEL_AGREEMENT
        assert pred.assignment.label == UNCERTAIN
        assert pred.n_replies_used == 1

    def test_inverse_swaps_both_routes(self):
        cfg = PipelineConfig(mode=MODE_INVERSE)
        assert classify(CERTAIN_CONV, cfg, _stubs()).channel == CHANNEL_AGREEMENT
        assert classify(UNCERTAIN_CONV, cfg, _stubs()).channel == CHANNEL_LIE

    def test_inverse_keeps_assignment_labels(self):
        pred = classify(CERTAIN_CONV, PipelineConfig(mode=MODE_INVERSE), _stubs())
        assert pred.assignment.label == CERTAIN

    def test_single_lie_skips_phase1(self):
        backends = {"phase1": _exploding(), "lie_unrouted": TableBackend(lambda t: (0.8, 0.2))}
        pred = classify(UNCERTAIN_CONV, PipelineConfig(mode=MODE_SINGLE_LIE), backends)
        assert pred.channel == CHANNEL_LIE
        assert pred.assignment is None

    def test_single_agreement_skips_phase1(self):
        backends = {"phase1": _exploding(), "agreement": TableBackend(lambda p: (0.7, 0.1, 0.2))}
        pred = classify(CERTAIN_CONV, PipelineConfig(mode=MODE_SINGLE_AGREEMENT), backends)
        assert pred.channel == CHANNEL_AGREEMENT
        assert pred.assignment is None

    @pytest.mark.parametrize(
        "mode,missing",
        [
            (MODE_DOUBLE, "phase1"),
            (MODE_SINGLE_LIE, "lie"),
            (MODE_SINGLE_AGREEMENT, "agreement"),
        ],
    )
    def test_missing_backend_slot(self, mode, missing):
        with pytest.raises(UntrainedBackend) as exc:
            classify(CERTAIN_CONV, PipelineConfig(mode=mode), {})
        assert missing in str(exc.value)

    def test_missing_routed_channel_backend(self):
        backends = {"phase1": TableBackend(lambda t: (0.9, 0.1))}
        with pytest.raises(UntrainedBackend) as exc:
            classify(CERTAIN_CONV, PipelineConfig(mode=MODE_DOUBLE), backends)
        assert "lie" in str(exc.value)


class TestWindows:
    CONV = make_conv("tw", "who knows", [("early", 3600, True), ("late", 2 * 86400, True)])

    def test_window_prunes_agreement_evidence(self):
        cfg = PipelineConfig(mode=MODE_SINGLE_AGREEMENT, reply_window_days=1)
        pred = classify(self.CONV, cfg, _stubs())
        assert pred.n_replies_used == 1

    def test_no_window_keeps_all(self):
        cfg = PipelineConfig(mode=MODE_SINGLE_AGREEMENT)
        assert classify(self.CONV, cfg, _stubs()).n_replies_used == 2

    def test_window_never_touches_thread_text(self):
        backends = _stubs()
        cfg = PipelineConfig(mode=MODE_DOUBLE, reply_window_days=1)
        classify(make_conv("tc", "sure thing", [("r", 9 * 86400, True)]), cfg, backends)
        assert backends["phase1"].calls == ["sure thing"]
        assert backends["lie"].calls == ["sure thing"]
        assert backends["agreement"].calls == []

    def test_windowed_out_crowd_abstains(self):
        cfg = PipelineConfig(mode=MODE_SINGLE_AGREEMENT, reply_window_days=1)
        pred = classify(make_conv("tw", "x", [("r", 9 * 86400, True)]), cfg, _stubs())
        assert pred.label == UNVERIFIED
        assert pred.n_replies_used == 0


class TestRunBatch:
    def test_order_and_ids(self):
        convs = [make_conv(f"t{i}", "sure thing") for i in (3, 1, 2)]
        preds = run_batch(convs, PipelineConfig(mode=MODE_SINGLE_LIE), _stubs())
        assert [p.thread_id for p in preds] == ["t3", "t1", "t2"]

    def test_empty(self):
        assert run_batch([], PipelineConfig(), _stubs()) == []


class TestTrainPipeline:
    def test_slots_match_mode(self, trained):
        for mode in MODES:
            assert list(trained[mode]) == backend_names([mode])
            for name, backend in trained[mode].items():
                assert (backend.classes, backend.input_kind) == BACKEND_SPECS[name][:2]

    def test_benchmark_ordering(self, syn_corpus, trained):
        from rumorvet.evaluation import build_report

        golds = syn_corpus.gold("test")
        scores = {}
        for mode in MODES:
            cfg = PipelineConfig(mode=mode)
            preds = run_batch(list(syn_corpus.test), cfg, trained[mode])
            scores[mode] = build_report(cfg, preds, golds).macro_f1
        assert scores[MODE_DOUBLE] == pytest.approx(1.0)
        assert scores[MODE_DOUBLE] > scores[MODE_SINGLE_AGREEMENT] > scores[MODE_INVERSE]
        assert scores[MODE_DOUBLE] > scores[MODE_SINGLE_LIE] > scores[MODE_INVERSE]

    def test_all_labels_valid(self, syn_corpus, trained):
        for mode in MODES:
            preds = run_batch(list(syn_corpus.test), PipelineConfig(mode=mode), trained[mode])
            assert all(p.label in VERACITY for p in preds)

    def test_retraining_is_deterministic(self, syn_corpus, trained):
        from .conftest import reference_factory

        again = train_synthetic(backend_names([MODE_SINGLE_LIE]), syn_corpus, reference_factory)
        assert again["lie_unrouted"].payload() == trained[MODE_SINGLE_LIE]["lie_unrouted"].payload()

    def test_single_lie_differs_from_routed_lie(self, trained):
        # The unrouted retrain sees more fine-tune threads, so the weights
        # must not coincide with the double-mode detector's.
        assert trained[MODE_SINGLE_LIE]["lie_unrouted"].payload() != trained[MODE_DOUBLE]["lie"].payload()
