"""The benchmark's harness still runs against this checkout: its tracer
finds every function it wraps, and every workload's commands succeed. The
package keeps one JSON parse site."""

import ast
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import rumorvet
import rumorvet.cli  # noqa: F401  (the tracer patches every loaded rumorvet module)
from rumorvet import cli, evaluation, pipeline
from rumorvet.agreement import STANCE_CLASSES
from rumorvet.backends import INPUT_PAIR, ReferenceBackend, TrainingRecipe
from rumorvet.pipeline import MODE_SINGLE_AGREEMENT, score_grid

from ._support import make_conv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _JsonParseSites(ast.NodeVisitor):
    """(file, enclosing function) of each json.load/json.loads reference and
    each `from json import`, which could bring them in under other names."""

    def __init__(self, name: str):
        self.name, self.function, self.sites = name, None, []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id == "json" and node.attr in ("load", "loads"):
            self.sites.append((self.name, self.function))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "json":
            self.sites.append((self.name, f"from json import, line {node.lineno}"))


def test_json_is_parsed_only_in_parse_json():
    """corpus.parse_json decides how every JSON input is decoded and how a
    failure is reported; a second parse site would fork that decision."""
    sites = []
    for path in sorted(Path(rumorvet.__file__).parent.glob("*.py")):
        finder = _JsonParseSites(path.name)
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites += finder.sites
    assert sites == [("corpus.py", "parse_json")]


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


@pytest.fixture()
def perfbench(monkeypatch):
    """perfbench's inputs and workloads modules, imported fresh and dropped
    from sys.modules afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("inputs", "workloads")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield tuple(importlib.import_module(name) for name in names)
    for name in names:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["paper_grid", "classify_crowd", "classify_tree"])
def test_workload_commands_pass_their_checks(perfbench, tmp_path, capsys, name):
    """Each workload's set-up and timed commands, on shrunken inputs, exit 0
    and pass the workload's own output checks: a change to what the harness
    calls fails here rather than in a benchmark run."""
    inputs, workloads = perfbench
    w = workloads.WORKLOADS[name]
    spec = dataclasses.replace(
        w.inputs,
        train_per_cell=25,
        test_per_cell=5,
        pretrain_per_class=80,
        noise_vocab=min(w.inputs.noise_vocab, 300),
    )
    inputs.write_inputs(inputs.build_corpus(spec, 1), tmp_path / "in", train_as_dir=w.grid, test_as_dir=w.test_as_dir)
    for argv in w.setup_commands(tmp_path) + w.timed_commands(tmp_path):
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
    failures, n_predictions, _ = w.check(tmp_path)
    assert failures == [] and n_predictions > 0


def _run_module(monkeypatch):
    """perfbench/run.py, loaded under a name no other test uses."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run_under_test", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summarize_without_a_percentile(monkeypatch):
    """Under 40 samples no listed percentile has 10 samples above it."""
    assert _run_module(monkeypatch).summarize([float(i) for i in range(39)]) == "median 19 (n=39)"


@pytest.mark.xfail(
    strict=True,
    raises=NameError,
    reason="perfbench/run.py imports percentile inside main() only (ROADMAP item 1)",
)
def test_summarize_with_a_percentile(monkeypatch):
    """40 samples reach p75, which calls percentile."""
    assert "p75" in _run_module(monkeypatch).summarize([float(i) for i in range(40)])
