"""Percentiles and open-loop latency accounting."""

from __future__ import annotations

import math

#: A percentile is reported as supported only when at least this many
#: samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the ``p``-th percentile
    (ties aside): those ranked after the interpolation point."""
    position = (n - 1) * p / 100.0
    return n - 1 - math.floor(position) if n else 0


def supported(n: int, p: float) -> bool:
    """Whether the ``p``-th percentile of ``n`` samples has at least
    :data:`MIN_BEYOND` samples beyond it."""
    return samples_beyond(n, p) >= MIN_BEYOND


def open_loop_latencies(requests) -> tuple[list[float], list[float]]:
    """``(latencies, lags)`` of completed open-loop requests.

    Each request is a mapping with ``due`` (when the schedule said to
    send), ``sent`` and ``done`` (when its last event arrived), all on one
    clock. Latency counts from ``due``, not ``sent``: a generator that
    falls behind charges the wait to the requests it delayed. A request
    without ``done`` (refused or failed) has no latency; the caller counts
    it as failed.
    """
    latencies, lags = [], []
    for request in requests:
        lags.append(max(0.0, request["sent"] - request["due"]))
        if request.get("done") is not None:
            latencies.append(request["done"] - request["due"])
    return latencies, lags
