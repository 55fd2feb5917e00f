"""Shared fixtures: the small synthetic benchmark and trained backends."""

from __future__ import annotations

import pytest

from rumorvet.backends import ReferenceBackend
from rumorvet.pipeline import MODE_BACKENDS, MODES, TrainingPlan, backend_names, train_backends
from rumorvet.synthetic import SyntheticSpec, make_corpus


def reference_factory(classes, input_kind, seed):
    return ReferenceBackend(classes, input_kind=input_kind, seed=seed)


SMALL_SPEC = SyntheticSpec(
    n_train_per_cell=12, n_test_per_cell=6, replies_per_thread=3, pretrain_per_class=30
)


@pytest.fixture(scope="session")
def syn_corpus():
    return make_corpus(SMALL_SPEC)


@pytest.fixture(scope="session")
def named_backends(syn_corpus):
    """Every grid backend, keyed by name, each trained once (read-only)."""
    return train_backends(
        backend_names(MODES),
        list(syn_corpus.train),
        list(syn_corpus.hedge),
        list(syn_corpus.deception),
        list(syn_corpus.agreement),
        reference_factory,
        plan=TrainingPlan(),
        seed=0,
    )


@pytest.fixture(scope="session")
def trained(named_backends):
    """Each mode's trained backends, keyed by name, shared across the suite (read-only)."""
    return {mode: {name: named_backends[name] for name in MODE_BACKENDS[mode].values()} for mode in MODES}


@pytest.fixture()
def tiny_backend():
    """A fitted 2-class text backend over a separable toy vocabulary."""
    from rumorvet.backends import TrainingRecipe, labeled_examples

    backend = ReferenceBackend(("yes", "no"), seed=0)
    examples = [("good fine great", "yes"), ("bad awful poor", "no")] * 4
    recipe = TrainingRecipe(epochs=5, batch_size=2, learning_rate=5e-5, label_smoothing=0.1)
    backend.fit(labeled_examples(examples, ("yes", "no")), recipe)
    return backend
