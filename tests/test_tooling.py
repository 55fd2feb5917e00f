"""The benchmark's tracer still finds every function it wraps."""

import sys
from pathlib import Path

import rumorvet.cli  # noqa: F401  (the tracer patches every loaded rumorvet module)
from rumorvet import evaluation, pipeline
from rumorvet.agreement import STANCE_CLASSES
from rumorvet.backends import INPUT_PAIR, ReferenceBackend, TrainingRecipe
from rumorvet.pipeline import MODE_SINGLE_AGREEMENT, score_grid

from ._support import make_conv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    return tracing


def _tracer_class(monkeypatch):
    return _tracing(monkeypatch).Tracer


def test_tracer_installs_and_uninstalls(monkeypatch):
    Tracer = _tracer_class(monkeypatch)
    originals = (pipeline.run_batch, evaluation.restrict_to_windowed, ReferenceBackend.fit)
    tracer = Tracer()
    tracer.install()
    try:
        assert pipeline.run_batch is not originals[0]
        assert evaluation.restrict_to_windowed is not originals[1]
    finally:
        tracer.uninstall()
    assert (pipeline.run_batch, evaluation.restrict_to_windowed, ReferenceBackend.fit) == originals


def test_traced_fit_counts_its_examples(monkeypatch):
    """The tracer counts fit()'s second argument; a signature change that
    moved the examples would zero the per-layer training metrics."""
    tracer = _tracer_class(monkeypatch)()
    examples = [("storm bridge", "yes"), ("hoax", "no"), ("storm", "yes")]
    tracer.install()
    try:
        ReferenceBackend(("yes", "no")).fit(examples, TrainingRecipe(2, 2, 5e-5, 0.3))
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()
    assert stats["backends.fit.examples"] == len(examples)
    assert stats["backends.fit.s"] > 0


def test_install_finds_every_target(monkeypatch):
    """Every function the tracer wraps still exists and is replaced, so a
    deleted or renamed helper fails here instead of crashing --trace 1."""
    tracing = _tracing(monkeypatch)

    def owner(name):
        return ReferenceBackend if name == "ReferenceBackend" else sys.modules[name]

    originals = {(name, attr): getattr(owner(name), attr) for name, attr, _, _ in tracing._TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        untraced = [f"{name}.{attr}" for (name, attr), fn in originals.items()
                    if getattr(owner(name), attr) is fn]
    finally:
        tracer.uninstall()
    assert untraced == []


def test_traced_score_grid_times_aggregation(monkeypatch):
    """score_grid aggregates an agreement-routed thread's stances through the
    traced agreement.aggregate; an array path that inlined it would zero
    the benchmark's agreement.aggregate.s."""
    tracer = _tracer_class(monkeypatch)()
    backend = ReferenceBackend(STANCE_CLASSES, input_kind=INPUT_PAIR)
    pairs = [("so true", "agreement"), ("fake news", "disagreement"), ("ok", "none")]
    pairs = [(("claim", reply), stance) for reply, stance in pairs]
    backend.fit(pairs, TrainingRecipe(2, 2, 5e-5, 0.3))
    conv = make_conv("t1", "claim", [("so true", 60, True), ("fake news", 120, True), ("aside", 180, False)])
    tracer.install()
    try:
        [row] = score_grid([conv], [(MODE_SINGLE_AGREEMENT, None)], {"agreement": backend})
    finally:
        tracer.uninstall()
    assert [p.n_replies_used for p in row.predictions] == [2]
    assert tracer.layer_stats()["agreement.aggregate.s"] > 0
