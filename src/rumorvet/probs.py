"""Probability-vector algebra shared by every classifier in the pipeline.

All channel outputs are small K-class distributions (K = 2 or 3). The
decision rule that turns a 2-class distribution into a veracity label,
including the entropy-based unverified gate, lives here so that every
prediction can be replayed from its stored evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TRUE = "true"
FALSE = "false"
UNVERIFIED = "unverified"
VERACITY_CLASSES = (TRUE, FALSE, UNVERIFIED)

_SUM_TOL = 1e-9

# Default slack for the "self-entropy equals 1" test: exact equality is
# unreachable in floating point, so the gate fires at H >= 1 - epsilon.
DEFAULT_ENTROPY_EPSILON = 1e-3


@dataclass(frozen=True)
class ProbVector:
    """A K-class probability distribution, K in {2, 3}.

    Invariants: every component lies in [0, 1] and the components sum to 1
    within 1e-9. Violations raise ValueError at construction.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) not in (2, 3):
            raise ValueError(f"ProbVector needs 2 or 3 components, got {len(values)}")
        for v in values:
            if not (-_SUM_TOL <= v <= 1.0 + _SUM_TOL) or math.isnan(v):
                raise ValueError(f"component {v!r} outside [0, 1]")
        total = math.fsum(values)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"components sum to {total!r}, not 1")

    @property
    def k(self) -> int:
        return len(self.values)

    def argmax(self) -> int:
        """Index of the largest component (first one on an exact tie)."""
        best = 0
        for i in range(1, len(self.values)):
            if self.values[i] > self.values[best]:
                best = i
        return best

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def __iter__(self):
        return iter(self.values)


def self_entropy(p: ProbVector) -> float:
    """Base-2 normalized Shannon entropy of a 2-class distribution.

    Returns -(1/ln 2) * sum(v * ln v) with the 0*ln 0 = 0 convention,
    clamped to [0, 1] against rounding. 1 means total uncertainty.
    """
    if p.k != 2:
        raise ValueError(f"self_entropy is defined for 2-class vectors, got K={p.k}")
    acc = 0.0
    for v in p.values:
        if v > 0.0:
            acc += v * math.log(v)
    h = -acc / math.log(2.0)
    return min(1.0, max(0.0, h))


def decide(p: ProbVector, labels: tuple[str, str], epsilon: float = DEFAULT_ENTROPY_EPSILON) -> str:
    """Turn a 2-class distribution into a final label.

    Returns UNVERIFIED when self_entropy(p) >= 1 - epsilon (the
    zero-confidence gate), otherwise the label at argmax(p).
    """
    if p.k != 2 or len(labels) != 2:
        raise ValueError("decide expects a 2-class vector and two labels")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if self_entropy(p) >= 1.0 - epsilon:
        return UNVERIFIED
    return labels[p.argmax()]
