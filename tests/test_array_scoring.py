"""The array scoring path against the ProbVector path it replaced.

Backends hand score_grid (n, K) arrays through predict_rows, aggregation
sums their columns, and a windowed row masks a thread's rows by reply
age. Each is checked here against the list form: ProbVector lists, the
exact rational oracle and the per-reply list filter.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorvet.agreement import aggregate, agreement_prediction
from rumorvet.backends import predict_all, predict_rows
from rumorvet.corpus import SECONDS_PER_DAY, primary_pairs
from rumorvet.errors import DegenerateEvidence
from rumorvet.pipeline import MODE_SINGLE_AGREEMENT, score_grid
from rumorvet.probs import ProbVector

from ._support import TableBackend, aggregate_oracle, conversations, rational_softmaxes


def _floats(softmaxes):
    return [tuple(float(v) for v in s) for s in softmaxes]


@given(st.lists(rational_softmaxes(), min_size=1, max_size=40))
def test_array_aggregate_equals_probvector_path_and_oracle(softmaxes):
    rows = np.array(_floats(softmaxes))
    vectors = [ProbVector(v) for v in _floats(softmaxes)]
    expected = aggregate_oracle(softmaxes)
    if expected is None:
        for form in (rows, vectors):
            with pytest.raises(DegenerateEvidence):
                aggregate(form)
        return
    got = aggregate(rows)
    assert got == aggregate(vectors)  # bit for bit
    assert got == aggregate(rows[::-1].copy())  # math.fsum: any order, same bits
    assert abs(got[0] - float(expected[0])) <= 1e-12 and abs(got[1] - float(expected[1])) <= 1e-12


def test_aggregate_rejects_arrays_without_three_columns():
    with pytest.raises(ValueError):
        aggregate(np.array([[0.5, 0.5]]))


def _stance(pair):
    """A fixed softmax per reply text."""
    w = [1 + (sum(map(ord, pair[1])) >> k) % 5 for k in (0, 2, 4)]
    return tuple(v / sum(w) for v in w)


@settings(max_examples=60, deadline=None)
@given(st.lists(conversations(), min_size=1, max_size=6), st.integers(1, 8))
def test_windowed_mask_equals_list_filter(convs, days):
    """A windowed grid row masks each thread's stance rows by reply age; the
    list filter over per-reply ProbVectors it replaced gives the same
    predictions, and the unwindowed row uses every row."""
    backend = TableBackend(_stance)
    rows = [(MODE_SINGLE_AGREEMENT, None), (MODE_SINGLE_AGREEMENT, days)]
    full, windowed = score_grid(convs, rows, {"agreement": backend}, keep_all=True)
    for conv, whole, masked in zip(convs, full.predictions, windowed.predictions):
        ages = [(r.post.created_at - conv.thread.created_at).total_seconds() for r in conv.primary_replies()]
        scores = [backend.predict(pair) for pair in primary_pairs(conv)]
        kept = [s for s, age in zip(scores, ages) if age <= days * SECONDS_PER_DAY]
        assert whole == agreement_prediction(conv.thread.id, scores, 1e-3)
        assert masked == agreement_prediction(conv.thread.id, kept, 1e-3)


class _Fixed:
    """A duck-typed backend whose predict_array returns the given rows."""

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=np.float64)

    def predict_array(self, xs):
        return self.rows[: len(xs)]


@pytest.mark.parametrize(
    "row",
    [
        (math.nan, 0.5, 0.5),
        (-2e-9, 0.5, 0.5 + 2e-9),  # a component below -1e-9, sum exact
        (0.5, 0.5 + 2e-9, 0.0),  # sum off 1 by more than 1e-9
        (math.inf, 0.0, 0.0),
    ],
)
def test_predict_rows_rejects_a_bad_row(row):
    with pytest.raises(ValueError, match="not probability distributions"):
        predict_rows(_Fixed([(0.2, 0.3, 0.5), row]), ["a", "b"])


def test_predict_rows_accepts_probvector_bounds():
    rows = [(-0.5e-9, 0.5, 0.5 + 0.5e-9), (1.0 + 0.5e-9, 0.0, -0.5e-9)]
    got = predict_rows(_Fixed(rows), ["a", "b"])
    assert got.tolist() == [list(r) for r in rows]
    assert [p.values for p in predict_all(_Fixed(rows), ["a", "b"])] == rows  # ProbVector agrees


def test_predict_rows_rejects_a_wrong_row_count():
    with pytest.raises(ValueError):
        predict_rows(_Fixed([(0.5, 0.5)]), ["a", "b"])


def test_predict_rows_on_empty():
    backend = TableBackend(_stance)
    assert predict_rows(backend, []).size == 0 and backend.calls == []  # no call, no classes needed


def test_default_predict_is_the_predict_array_row():
    backend = TableBackend(_stance)
    pairs = [("t", "yes"), ("t", "no")]
    rows = backend.predict_array(pairs)
    assert [backend.predict(x).values for x in pairs] == [tuple(r) for r in rows.tolist()]
    assert [p.values for p in predict_all(backend, pairs)] == [tuple(r) for r in rows.tolist()]
