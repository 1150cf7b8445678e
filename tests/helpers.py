"""Helpers shared by several test modules."""

import numpy as np


def time_to_threshold(metrics, times, compartment, level, direction="below"):
    """First of ``times`` (the grid's time levels) at which the named
    aggregate of ``metrics`` crosses ``level`` (falls below it, or rises
    above it for ``direction="above"``); None if it never does."""
    series = metrics.aggregates[compartment]
    crossed = series > level if direction == "above" else series < level
    hits = np.nonzero(crossed)[0]
    return float(times[hits[0]]) if hits.size else None


def stacked(pairs):
    """The pairs' fields stacked into the (nt + 1, B, nx) arrays u and v that
    pde._forward_batch reads: (u, v)."""
    return (np.stack([pair.u for pair in pairs], axis=1),
            np.stack([pair.v for pair in pairs], axis=1))


def collect_batch(initial, pairs, params, grid):
    """The levels of pde._forward_batch of ``pairs`` (see stacked) collected into one
    array, shape (nt + 1, 6, B, nx), member b along axis 2."""
    from sqeiar.pde import _forward_batch

    out = np.empty((grid.nt + 1, 6, len(pairs), grid.nx))

    def keep(lo, levels):
        out[lo:lo + len(levels)] = levels

    _forward_batch(initial, *stacked(pairs), params, grid, keep)
    return out
