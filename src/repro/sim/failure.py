"""Failure and churn injection.

The paper's robustness story is about surviving node failures (owner/run
recovery, no single point of failure).  These injectors drive that story in
experiments:

* :class:`CrashRecoveryProcess` — ongoing churn: each node alternates
  exponential up-times and down-times, crashing and rejoining forever.
* :class:`GroupFailureInjector` — *correlated* failures: whole groups
  (racks, AS clusters, switch domains) go down together inside a small
  jitter window and come back after a shared outage, so failure mass
  arrives in bursts instead of the independent-churn trickle the paper
  evaluates.

"Crashing" is delegated to a callback (the grid layer decides what a crash
means — losing queue contents, dropping in-flight messages, leaving the
overlay), so the injectors stay substrate-agnostic: the same
:class:`GroupFailureInjector` models a rack power loss (``crash_fn``)
or a switch partition (``partition_fn``/``heal_fn``) purely by the
callbacks it is given.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.sim.kernel import Simulator


class CrashRecoveryProcess:
    """Continuous churn: alternating exponential up/down periods per node.

    Parameters
    ----------
    mean_uptime / mean_downtime:
        Means of the exponential up/down period distributions (seconds).
    node_ids:
        Nodes subjected to churn.  Each gets an independent first-crash time
        drawn from the uptime distribution.
    """

    def __init__(self, sim: Simulator, rng: np.random.Generator,
                 node_ids: Sequence[int],
                 crash_fn: Callable[[int], None],
                 recover_fn: Callable[[int], None],
                 mean_uptime: float, mean_downtime: float,
                 start: bool = True):
        if mean_uptime <= 0 or mean_downtime <= 0:
            raise ValueError("mean up/down times must be positive")
        self.sim = sim
        self.rng = rng
        self.node_ids = list(node_ids)
        self.crash_fn = crash_fn
        self.recover_fn = recover_fn
        self.mean_uptime = mean_uptime
        self.mean_downtime = mean_downtime
        self.crashes = 0
        self.recoveries = 0
        self.stopped = False
        if start:
            self.start()

    def start(self) -> None:
        self.stopped = False
        for node_id in self.node_ids:
            self.sim.schedule(float(self.rng.exponential(self.mean_uptime)),
                              self._crash, node_id)

    def stop(self) -> None:
        """Stop injecting *new* events (pending ones are abandoned lazily)."""
        self.stopped = True

    def _crash(self, node_id: int) -> None:
        if self.stopped:
            return
        self.crashes += 1
        self.crash_fn(node_id)
        self.sim.schedule(float(self.rng.exponential(self.mean_downtime)),
                          self._recover, node_id)

    def _recover(self, node_id: int) -> None:
        if self.stopped:
            return
        self.recoveries += 1
        self.recover_fn(node_id)
        self.sim.schedule(float(self.rng.exponential(self.mean_uptime)),
                          self._crash, node_id)


class GroupFailureInjector:
    """Correlated failures: a whole group fails (nearly) at once.

    At exponential intervals (mean ``mean_interval``) one group is chosen
    uniformly and every member is taken down at an independent small
    jitter offset (uniform in ``[0, jitter)`` — a rack does not lose all
    its machines in the same microsecond), then brought back ``outage``
    seconds after the strike, again with per-member jitter.

    Determinism: all draws come from the one ``rng`` in a fixed order
    (interval, group index, per-member down jitters, per-member up
    jitters), so a given (rng stream, group layout) replays exactly.

    Parameters
    ----------
    groups:
        Non-empty sequence of node-id groups (each itself non-empty).
    take_down_fn / bring_up_fn:
        What "failing" means — ``(crash_node, recover_node)`` for a rack
        power event, ``(partition_node, heal_node)`` for a switch loss.
    max_strikes:
        Stop injecting after this many group strikes (None = forever).
    """

    def __init__(self, sim: Simulator, rng: np.random.Generator,
                 groups: Sequence[Sequence[int]],
                 take_down_fn: Callable[[int], None],
                 bring_up_fn: Callable[[int], None],
                 mean_interval: float, outage: float,
                 jitter: float = 0.5,
                 max_strikes: int | None = None,
                 start: bool = True):
        if not groups or any(not g for g in groups):
            raise ValueError("groups must be non-empty groups of node ids")
        if mean_interval <= 0 or outage <= 0:
            raise ValueError("mean_interval and outage must be positive")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.sim = sim
        self.rng = rng
        self.groups = [list(g) for g in groups]
        self.take_down_fn = take_down_fn
        self.bring_up_fn = bring_up_fn
        self.mean_interval = mean_interval
        self.outage = outage
        self.jitter = jitter
        self.max_strikes = max_strikes
        self.strikes = 0
        self.members_taken_down = 0
        self.stopped = False
        if start:
            self.start()

    def start(self) -> None:
        self.stopped = False
        self.sim.schedule(float(self.rng.exponential(self.mean_interval)),
                          self._strike)

    def stop(self) -> None:
        """Stop injecting *new* strikes (pending events fire harmlessly)."""
        self.stopped = True

    def _strike(self) -> None:
        if self.stopped:
            return
        if self.max_strikes is not None and self.strikes >= self.max_strikes:
            return
        self.strikes += 1
        group = self.groups[int(self.rng.integers(0, len(self.groups)))]
        down = self.rng.uniform(0.0, self.jitter, size=len(group)) \
            if self.jitter > 0 else np.zeros(len(group))
        up = self.rng.uniform(0.0, self.jitter, size=len(group)) \
            if self.jitter > 0 else np.zeros(len(group))
        for i, node_id in enumerate(group):
            self.sim.schedule(float(down[i]), self._take_down, node_id)
            self.sim.schedule(self.outage + float(up[i]),
                              self._bring_up, node_id)
        self.sim.schedule(float(self.rng.exponential(self.mean_interval)),
                          self._strike)

    def _take_down(self, node_id: int) -> None:
        if self.stopped:
            return
        self.members_taken_down += 1
        self.take_down_fn(node_id)

    def _bring_up(self, node_id: int) -> None:
        if self.stopped:
            return
        self.bring_up_fn(node_id)
