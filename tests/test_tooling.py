"""The benchmark's tracer still finds every function it wraps."""

import sys
from pathlib import Path

import rumorvet.cli  # noqa: F401  (the tracer patches every loaded rumorvet module)
from rumorvet import evaluation, pipeline
from rumorvet.backends import ReferenceBackend, TrainingRecipe, labeled_examples

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_class(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    from tracing import Tracer

    return Tracer


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
    examples = labeled_examples([("storm bridge", "yes"), ("hoax", "no"), ("storm", "yes")], ("yes", "no"))
    tracer.install()
    try:
        ReferenceBackend(("yes", "no")).fit(examples, TrainingRecipe(2, 2, 5e-5, 0.3))
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()
    assert stats["backends.fit.examples"] == len(examples)
    assert stats["backends.fit.s"] > 0
