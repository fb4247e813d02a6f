"""Load timelines: watch imbalance develop over virtual time.

The paper's Figure 2 reports end-of-run wait statistics; the *mechanism*
behind them — queues piling up on a few unlucky nodes — is a time-series
phenomenon.  :class:`LoadTimeline` samples the live nodes' queue lengths
periodically and keeps per-sample aggregates (mean/std/max/Jain index),
so an experiment can show, e.g., basic CAN's fairness index collapsing on
the pathological workload while pushing-CAN's stays near 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.process import PeriodicTask
from repro.util.stats import jains_fairness

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.system import DesktopGrid


@dataclass(frozen=True)
class LoadSample:
    time: float
    live_nodes: int
    mean_queue: float
    std_queue: float
    max_queue: int
    fairness: float


class LoadTimeline:
    """Periodic sampler of the grid's queue-length distribution."""

    def __init__(self, grid: "DesktopGrid", interval: float = 10.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.grid = grid
        self.interval = interval
        self.samples: list[LoadSample] = []
        self._task = PeriodicTask(grid.sim, interval, self._sample,
                                  stagger=False)

    def stop(self) -> None:
        self._task.stop()

    def _sample(self) -> None:
        # Columnar read: one masked numpy expression instead of an O(N)
        # per-node attribute scan (identical values — the registry mirrors
        # queue_len at every change).
        queues = self.grid.registry.live_queue_lens().astype(float)
        if queues.size == 0:
            return
        self.samples.append(LoadSample(
            time=self.grid.sim.now,
            live_nodes=int(queues.size),
            mean_queue=float(queues.mean()),
            std_queue=float(queues.std()),
            max_queue=int(queues.max()),
            fairness=jains_fairness(queues),
        ))

    # -- views ---------------------------------------------------------------

    def series(self, field: str) -> list[tuple[float, float]]:
        """(time, value) pairs for one sample field."""
        return [(s.time, float(getattr(s, field))) for s in self.samples]

    def peak(self, field: str) -> float:
        if not self.samples:
            return float("nan")
        return max(float(getattr(s, field)) for s in self.samples)

    def trough(self, field: str) -> float:
        if not self.samples:
            return float("nan")
        return min(float(getattr(s, field)) for s in self.samples)

    def sparkline(self, field: str, width: int = 60) -> str:
        """Unicode mini-chart of one field over time."""
        values = [v for _, v in self.series(field)]
        return ascii_sparkline(values, width=width)


def ascii_sparkline(values, width: int = 60) -> str:
    """Downsample ``values`` to ``width`` buckets of unicode block levels."""
    blocks = " ▁▂▃▄▅▆▇█"
    vals = np.asarray(list(values), dtype=float)
    if vals.size == 0:
        return ""
    if vals.size > width:
        # Bucket-mean downsampling.
        edges = np.linspace(0, vals.size, width + 1).astype(int)
        vals = np.array([vals[a:b].mean() if b > a else vals[min(a, vals.size - 1)]
                         for a, b in zip(edges, edges[1:])])
    lo, hi = float(vals.min()), float(vals.max())
    if hi - lo < 1e-12:
        return blocks[1] * vals.size
    levels = np.clip(((vals - lo) / (hi - lo) * (len(blocks) - 2)).round() + 1,
                     1, len(blocks) - 1).astype(int)
    return "".join(blocks[level] for level in levels)


def utilization_report(grid: "DesktopGrid", horizon: float | None = None
                       ) -> dict[str, float]:
    """Per-node busy-time utilization summary over ``horizon`` (defaults to
    the grid's current virtual time)."""
    horizon = horizon if horizon is not None else grid.sim.now
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    busy = grid.registry.busy_times()
    util = busy / horizon
    return {
        "mean_utilization": float(util.mean()),
        "max_utilization": float(util.max()),
        "idle_nodes": int((busy == 0).sum()),
        "busy_fairness": jains_fairness(busy) if busy.sum() > 0 else float("nan"),
        "total_cpu_seconds": float(busy.sum()),
    }
