"""Stage-wise batched scoring against the per-thread oracle path."""

import pytest

from rumorvet.certainty import assign_all, self_label
from rumorvet.pipeline import MODES, PipelineBackends, PipelineConfig, run_batch

from ._support import CountingBackend, OracleBackend, classify_oracle, payload_v1, spread_reply_ages

WINDOWS = (None, 1, 3, 5)


@pytest.fixture(scope="module")
def test_convs(syn_corpus):
    return [spread_reply_ages(c, k) for k, c in enumerate(syn_corpus.test)]


def _oracles(backends):
    return PipelineBackends(
        **{
            slot: None if b is None else OracleBackend.from_payload(payload_v1(b))
            for slot, b in vars(backends).items()
        }
    )


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("mode", MODES)
def test_run_batch_equals_per_thread_oracle(trained, test_convs, mode, window):
    config = PipelineConfig(mode=mode, reply_window_days=window)
    oracles = _oracles(trained[mode])
    expected = [classify_oracle(c, config, oracles) for c in test_convs]
    assert run_batch(test_convs, config, trained[mode]) == expected
    if mode == "single_agreement" and window == 1:
        assert any(p.warnings for p in expected)


@pytest.mark.parametrize("copies", [1, 25])
@pytest.mark.parametrize("mode", MODES)
def test_one_backend_call_per_stage(trained, test_convs, mode, copies):
    convs = test_convs * copies
    counting = PipelineBackends(
        **{slot: b and CountingBackend(b) for slot, b in vars(trained[mode]).items()}
    )
    preds = run_batch(convs, PipelineConfig(mode=mode, reply_window_days=3), counting)
    assert len(preds) == len(convs)
    channels = {p.channel for p in preds}
    if counting.phase1 is not None:
        assert counting.phase1.batches == [len(convs)]
    assert len(counting.lie.batches if counting.lie else []) == ("lie" in channels)
    if "agreement" in channels:
        n_pairs = sum(p.n_replies_used for p in preds if p.channel == "agreement")
        assert counting.agreement.batches == ([n_pairs] if n_pairs else [])


def test_router_helpers_batch(trained, test_convs):
    phase1 = CountingBackend(trained["double"].phase1)
    assignments = assign_all(phase1, test_convs)
    labels = self_label(phase1, test_convs)
    assert phase1.batches == [len(test_convs)] * 2
    assert [label for _, label in labels] == [assignments[c.thread.id].label for c in test_convs]
