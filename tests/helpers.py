"""Helpers shared by several test modules."""

import numpy as np


def time_to_threshold(metrics, compartment, level, direction="below"):
    """First time the named aggregate of ``metrics`` crosses ``level``
    (falls below it, or rises above it for ``direction="above"``); None if
    it never does."""
    series = metrics.aggregates[compartment]
    crossed = series > level if direction == "above" else series < level
    hits = np.nonzero(crossed)[0]
    return float(metrics.times[hits[0]]) if hits.size else None
