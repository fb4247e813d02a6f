"""Load-balance statistics used by the metrics layer.

:func:`jains_fairness` condenses a per-node load vector into one number,
reported alongside the wait-time standard deviation the paper plots in
Figure 2.  Wait-time means and percentiles are plain numpy reductions in
:class:`repro.metrics.collector.MetricsCollector`.
"""

from __future__ import annotations

import math

import numpy as np


def jains_fairness(loads) -> float:
    """Jain's fairness index of a load vector; 1.0 = perfectly balanced.

    Used as a load-balance metric alongside wait-time stdev.  Defined as
    ``(sum x)^2 / (n * sum x^2)``; ranges from 1/n (all load on one node)
    to 1 (uniform).
    """
    arr = np.asarray(list(loads), dtype=float)
    if arr.size == 0:
        return math.nan
    denom = arr.size * float((arr * arr).sum())
    if denom == 0.0:
        return 1.0  # all-zero load is trivially balanced
    total = float(arr.sum())
    return total * total / denom
