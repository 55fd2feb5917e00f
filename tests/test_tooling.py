"""The benchmark's tracer still finds every function it wraps."""

import sys
from pathlib import Path

import rumorvet.cli  # noqa: F401  (the tracer patches every loaded rumorvet module)
from rumorvet import evaluation, pipeline
from rumorvet.backends import ReferenceBackend

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    from tracing import Tracer

    originals = (pipeline.run_batch, evaluation.restrict_to_windowed, ReferenceBackend.fit)
    tracer = Tracer()
    tracer.install()
    try:
        assert pipeline.run_batch is not originals[0]
        assert evaluation.restrict_to_windowed is not originals[1]
    finally:
        tracer.uninstall()
    assert (pipeline.run_batch, evaluation.restrict_to_windowed, ReferenceBackend.fit) == originals
