"""Columnar node-state registry: array-backed liveness and load.

At 10k-100k nodes, every "scan all nodes" consumer — telemetry load
samples, timeline snapshots, the centralized matchmaker's candidate mask,
utilization reports — pays O(N) Python attribute chasing per sweep.  This
registry keeps the swept state (``alive``, ``queue_len``,
``jobs_executed``, ``busy_time``) in dense numpy columns keyed by node
index (``DesktopGrid.node_list`` order), so those consumers read one
array expression instead.

The per-node objects remain the protocol's working state; the columns are
mirrors updated at the few choke points where the state changes:

* ``alive`` — :meth:`GridNode.crash`/``recover``/``partition``/``heal``
  (the same four methods that invalidate ``DesktopGrid._live_cache``);
* ``queue_len`` — :meth:`DesktopGrid.on_queue_change` (the hook every
  queue mutation already funnels through);
* ``jobs_executed`` / ``busy_time`` — :meth:`GridNode._finish_running`
  via :meth:`note_executed` (the single write point).

``tests/grid/test_registry.py`` asserts column == per-node scan after
churny runs, so a new mutation path that forgets its mirror shows up as a
test failure, not silent drift.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.node import GridNode


class NodeRegistry:
    """Dense columnar view of per-node liveness/load state."""

    __slots__ = ("nodes", "index", "alive", "queue_len", "jobs_executed",
                 "busy_time")

    def __init__(self, nodes: "list[GridNode]"):
        n = len(nodes)
        self.nodes = list(nodes)
        #: node_id -> dense index (``node_list`` order).
        self.index = {node.node_id: i for i, node in enumerate(nodes)}
        self.alive = np.ones(n, dtype=bool)
        self.queue_len = np.zeros(n, dtype=np.int64)
        self.jobs_executed = np.zeros(n, dtype=np.int64)
        self.busy_time = np.zeros(n, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.nodes)

    # -- write hooks (called from the choke points listed above) ----------

    def set_alive(self, idx: int, alive: bool) -> None:
        self.alive[idx] = alive

    def note_queue(self, idx: int, queue_len: int) -> None:
        self.queue_len[idx] = queue_len

    def note_executed(self, idx: int, served: float) -> None:
        self.jobs_executed[idx] += 1
        self.busy_time[idx] += served

    # -- thin read accessors ----------------------------------------------

    def live_count(self) -> int:
        return int(self.alive.sum())

    def live_queue_lens(self) -> np.ndarray:
        """Queue lengths of live nodes (dense order, filtered)."""
        return self.queue_len[self.alive]

    def loads(self, node_ids: Iterable[int]) -> dict[int, int]:
        """``{node_id: queue_len}`` for the given ids (oracle probing)."""
        index = self.index
        column = self.queue_len
        return {nid: int(column[index[nid]]) for nid in node_ids}

    def execution_counts(self) -> list[int]:
        """Jobs executed per node, dense order, as Python ints."""
        return self.jobs_executed.tolist()

    def busy_times(self) -> np.ndarray:
        """Per-node CPU seconds served (dense order, copy-safe view)."""
        return self.busy_time

    def check_consistency(self) -> list[str]:
        """Compare every column against a per-node scan (test hook).

        Returns a list of human-readable mismatch descriptions — empty
        means the mirrors are exact.
        """
        problems: list[str] = []
        for i, node in enumerate(self.nodes):
            if bool(self.alive[i]) != node.alive:
                problems.append(f"alive[{i}] ({node.name}): "
                                f"{bool(self.alive[i])} != {node.alive}")
            if int(self.queue_len[i]) != node.queue_len:
                problems.append(f"queue_len[{i}] ({node.name}): "
                                f"{int(self.queue_len[i])} != {node.queue_len}")
            if int(self.jobs_executed[i]) != node.jobs_executed:
                problems.append(
                    f"jobs_executed[{i}] ({node.name}): "
                    f"{int(self.jobs_executed[i])} != {node.jobs_executed}")
            if float(self.busy_time[i]) != node.busy_time:
                problems.append(f"busy_time[{i}] ({node.name}): "
                                f"{float(self.busy_time[i])} != {node.busy_time}")
        return problems
