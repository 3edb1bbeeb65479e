"""Small statistics helpers: tail percentiles that say what they report."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """One reported tail statistic and the evidence behind it."""

    label: str  # "p99", "p97.9", ... or "max" when no percentile qualifies
    value: float
    count: int  # samples in the distribution
    beyond: int  # samples strictly above the reported rank

    def as_dict(self) -> dict:
        return {"label": self.label, "count": self.count, "beyond": self.beyond}


def tail(samples: Sequence[float], q: float = 0.99) -> Tail:
    """The nearest-rank ``q`` percentile if ``MIN_BEYOND`` samples lie beyond it.

    With fewer samples no such percentile exists, and the maximum is
    reported instead (labelled ``"max"``): it bounds every percentile from
    above.  The label and the counts say which one was reported.
    """
    xs = sorted(float(x) for x in samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    if n - rank >= MIN_BEYOND:
        return Tail(f"p{100 * q:g}", xs[rank - 1], n, n - rank)
    return Tail("max", xs[-1], n, 0)


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))

