"""Probability vectors, entropy, the decision rule, and the one-hot and
smoothing helpers the per-example oracle trains on."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rumorvet.probs import (
    DEFAULT_ENTROPY_EPSILON,
    FALSE,
    TRUE,
    UNVERIFIED,
    ProbVector,
    decide,
    self_entropy,
)

from ._support import entropy_oracle, one_hot, prob_vectors, smooth_labels


class TestProbVector:
    def test_valid_2_and_3(self):
        assert ProbVector((0.4, 0.6)).k == 2
        assert ProbVector((0.2, 0.3, 0.5)).k == 3

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            ProbVector((1.0,))
        with pytest.raises(ValueError):
            ProbVector((0.25, 0.25, 0.25, 0.25))

    def test_bad_sum(self):
        with pytest.raises(ValueError):
            ProbVector((0.5, 0.6))

    def test_component_out_of_range(self):
        with pytest.raises(ValueError):
            ProbVector((1.2, -0.2))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ProbVector((float("nan"), 1.0))

    def test_argmax_first_on_tie(self):
        assert ProbVector((0.5, 0.5)).argmax() == 0
        assert ProbVector((0.25, 0.5, 0.25)).argmax() == 1

    def test_iter_and_getitem(self):
        p = ProbVector((0.1, 0.9))
        assert list(p) == [0.1, 0.9]
        assert p[1] == 0.9

    @given(prob_vectors(2))
    def test_random_simplex_2_accepted(self, values):
        ProbVector(values)

    @given(prob_vectors(3))
    def test_random_simplex_3_accepted(self, values):
        ProbVector(values)


class TestOneHot:
    def test_positions(self):
        assert one_hot("b", ("a", "b", "c")).values == (0.0, 1.0, 0.0)
        assert one_hot("a", ("a", "b")).values == (1.0, 0.0)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            one_hot("x", ("a", "b"))


class TestSelfEntropy:
    def test_uniform_is_one(self):
        assert self_entropy(ProbVector((0.5, 0.5))) == 1.0

    def test_degenerate_is_zero(self):
        assert self_entropy(ProbVector((1.0, 0.0))) == 0.0
        assert self_entropy(ProbVector((0.0, 1.0))) == 0.0

    def test_reference_point(self):
        # 0.9/0.1 evaluates to 0.46900 under a direct base-2 oracle.
        assert self_entropy(ProbVector((0.9, 0.1))) == pytest.approx(0.46900, abs=1e-4)

    def test_three_class_rejected(self):
        with pytest.raises(ValueError):
            self_entropy(ProbVector((0.2, 0.3, 0.5)))

    @given(prob_vectors(2))
    def test_matches_oracle(self, values):
        p = ProbVector(values)
        assert self_entropy(p) == pytest.approx(entropy_oracle(p.values), abs=1e-12)

    @given(prob_vectors(2))
    def test_bounded_and_symmetric(self, values):
        p = ProbVector(values)
        q = ProbVector(values[::-1])
        h = self_entropy(p)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(self_entropy(q), abs=1e-12)


class TestSmoothLabels:
    def test_blend(self):
        smoothed = smooth_labels(one_hot("a", ("a", "b")), 0.2)
        assert smoothed.values == pytest.approx((0.9, 0.1))

    def test_three_class_blend(self):
        smoothed = smooth_labels(one_hot("c", ("a", "b", "c")), 0.3)
        assert smoothed.values == pytest.approx((0.1, 0.1, 0.8))

    def test_zero_rate_is_identity(self):
        p = ProbVector((0.7, 0.3))
        assert smooth_labels(p, 0.0).values == p.values

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            smooth_labels(ProbVector((1.0, 0.0)), 1.0)
        with pytest.raises(ValueError):
            smooth_labels(ProbVector((1.0, 0.0)), -0.1)

    @given(prob_vectors(3), st.floats(min_value=0.0, max_value=0.99))
    def test_stays_on_simplex_and_preserves_argmax(self, values, rate):
        p = ProbVector(values)
        s = smooth_labels(p, rate)
        assert math.fsum(s.values) == pytest.approx(1.0, abs=1e-9)
        if rate < 0.999 and len({*p.values}) == p.k:
            assert s.argmax() == p.argmax()


class TestDecide:
    def test_clear_winner(self):
        assert decide(ProbVector((0.9, 0.1)), (TRUE, FALSE)) == TRUE
        assert decide(ProbVector((0.1, 0.9)), (TRUE, FALSE)) == FALSE

    def test_exact_uniform_is_unverified(self):
        assert decide(ProbVector((0.5, 0.5)), (TRUE, FALSE)) == UNVERIFIED

    def test_near_uniform_is_unverified(self):
        # Within the default gate: H(0.5005, 0.4995) is far above 1 - 1e-3.
        assert decide(ProbVector((0.5005, 0.4995)), (TRUE, FALSE)) == UNVERIFIED

    def test_zero_epsilon_requires_exact_half(self):
        assert decide(ProbVector((0.5, 0.5)), (TRUE, FALSE), epsilon=0.0) == UNVERIFIED
        assert decide(ProbVector((0.5005, 0.4995)), (TRUE, FALSE), epsilon=0.0) == TRUE

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            decide(ProbVector((0.5, 0.5)), (TRUE, FALSE), epsilon=-1e-6)

    def test_gate_threshold_matches_epsilon(self):
        # H(p) crosses 1 - eps near p = 0.5 + sqrt(eps ln2 / 2).
        eps = DEFAULT_ENTROPY_EPSILON
        delta = math.sqrt(eps * math.log(2) / 2.0)
        inside = ProbVector((0.5 + 0.5 * delta, 0.5 - 0.5 * delta))
        outside = ProbVector((0.5 + 3.0 * delta, 0.5 - 3.0 * delta))
        assert decide(inside, (TRUE, FALSE)) == UNVERIFIED
        assert decide(outside, (TRUE, FALSE)) == TRUE

    @given(prob_vectors(2), st.floats(min_value=0.0, max_value=0.5))
    def test_label_consistent_with_entropy(self, values, epsilon):
        p = ProbVector(values)
        label = decide(p, (TRUE, FALSE), epsilon)
        if self_entropy(p) >= 1.0 - epsilon:
            assert label == UNVERIFIED
        else:
            assert label == (TRUE, FALSE)[p.argmax()]
