"""One float sum for every value that reaches an output or a decision.

From Python 3.12 on, the builtin ``sum`` compensates float rounding
(Neumaier), which moves the last digits of sums of the same values. Adding
the values one by one from the left, as ``sum`` did through 3.11, keeps
results, summaries and traces byte-identical on every version.
"""

from __future__ import annotations

from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """The values added one by one from the left, starting from 0."""
    total = 0
    for value in values:
        total += value
    return total
