"""The host-speed probe that every reported time is scaled by.

On a shared VM the vCPU runs the same code at very different speeds from
one moment to the next: up to 2.5 times slower, in phases that last from
seconds to many minutes. The guest sees no steal time (CPU time equals wall
time), so the slowdown is the core itself being shared. Raw wall times of
the same program on the same inputs then spread far wider than any useful
regression bound.

`probe()` times a fixed piece of work of the same kind as rumorvet's:
regex tokenising, crc32 hashing and dict counting over a 30k-word
vocabulary, a small numpy score and update step per text, and a JSON round
trip of the resulting model. It never calls rumorvet, so no change to the
program can move it, and it runs with the garbage collector off, so the
program's live heap cannot slow it. The benchmark probes just before and
just after every timed span and reports `scaled(raw, before, after)`: the
span's time on a host where the probe takes REFERENCE_PROBE_S seconds.
README.md ("Host-speed scaling") gives the measured effect.
"""

from __future__ import annotations

import gc
import json
import random
import re
import zlib
from time import perf_counter

import numpy as np

# The probe's time on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4) when the
# host runs it at full speed. Scaled times are seconds at that speed.
REFERENCE_PROBE_S = 0.25

_TOKEN_RE = re.compile(r"[a-z0-9']+")


def _texts() -> list[str]:
    rng = random.Random(12345)
    letters = "abcdefghijklmnopqrstuvwxyz"
    vocab = ["".join(rng.choice(letters) for _ in range(rng.randint(3, 9))) for _ in range(30000)]
    return [" ".join(rng.choice(vocab) for _ in range(20)) for _ in range(2000)]


_TEXTS = _texts()
_TARGET = np.array([0.9, 0.05, 0.05])


def _work() -> int:
    """Score and update a sparse 3-class model on every text, as predict and fit do."""
    weights: dict[int, np.ndarray] = {}
    for text in _TEXTS:
        counts: dict[int, float] = {}
        for token in _TOKEN_RE.findall(text.lower()):
            b = zlib.crc32(("a|" + token).encode("utf-8")) % 65536
            counts[b] = counts.get(b, 0.0) + 1.0
        z = np.zeros(3)
        for b, c in counts.items():
            row = weights.get(b)
            if row is None:
                row = weights[b] = np.full(3, (b % 7) / 7.0)
            z += c * row
        e = np.exp(z - z.max())
        err = e / e.sum() - _TARGET
        for b, c in counts.items():
            weights[b] -= 0.01 * c * err
    doc = json.loads(json.dumps({str(b): [float(v) for v in r] for b, r in weights.items()}))
    return len(doc)


# What _work() returns; a probe that computes anything else is refused.
_EXPECTED = 18516


def probe() -> float:
    """Seconds the fixed work takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        result = _work()
        elapsed = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if result != _EXPECTED:
        raise RuntimeError(f"host-speed probe computed {result}, expected {_EXPECTED}")
    return elapsed


def scaled(raw_s: float, before: float, after: float) -> float:
    """raw_s as it would read on a host where the probe takes REFERENCE_PROBE_S."""
    return raw_s * REFERENCE_PROBE_S * 2.0 / (before + after)
