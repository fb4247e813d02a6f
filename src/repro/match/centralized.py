"""Omniscient centralized matchmaker — the paper's load-balance target.

"To see how well the workload could be balanced, we also show results for
a centralized scheme that uses knowledge of the status of all nodes and
jobs.  Such a scheme would be very expensive to implement in a
decentralized P2P system, but serves as a target for achieving the best
possible load balance from an online matchmaking algorithm." (§3.3)

It assigns each job to the least-loaded live node satisfying the job's
constraints, with uniform random tie-breaking, at zero overlay cost.  The
whole decision is one vectorised numpy pass over the capability matrix.
"""

from __future__ import annotations

import numpy as np

from repro.grid.resources import CapabilityMatrix
from repro.match.base import Matchmaker
from repro.match.select import CandidateSet


class CentralizedMatchmaker(Matchmaker):
    """Omniscient matchmaking.

    Two modes:

    * ``server_mode=False`` (default, the Figure 2 target): an idealized
      oracle with no single point of failure — the injection node stands
      in as owner-of-record at zero cost.  Use for load-balance studies.
    * ``server_mode=True`` (the churn-experiment comparator): one
      designated node is *the* server — it owns every job (its database
      survives outages via :meth:`DesktopGrid.partition_node`), it never
      runs jobs, and while it is unreachable no job can be matched or
      recovered, the client-server weakness §1 describes.
    """

    name = "centralized"

    def __init__(self, server_mode: bool = False) -> None:
        super().__init__()
        self.server_mode = server_mode
        self._caps: CapabilityMatrix | None = None
        self._eligible: np.ndarray | None = None
        self.server = None

    def bind(self, grid) -> None:
        self.grid = grid
        nodes = grid.node_list
        self._caps = CapabilityMatrix.from_capabilities(
            grid.cfg.spec, [n.capability for n in nodes])
        self._rng = grid.streams["match"]
        # Liveness and load come straight from the grid's columnar
        # NodeRegistry (same dense order as node_list) — the matchmaker
        # no longer shadows them, so the crash/recover/queue-change hooks
        # below are gone.  Only the static eligibility mask is local.
        self._eligible = np.ones(len(nodes), dtype=bool)
        if self.server_mode:
            self.server = nodes[0]
            self._eligible[0] = False  # the server never runs jobs

    # -- owner mapping -------------------------------------------------------

    def find_owner(self, job, start=None):
        """Server mode: the server owns every job (or nothing can proceed
        while it is down).  Oracle mode: the injection node stands in as
        the owner-of-record at zero routing cost."""
        grid = self._require_grid()
        if self.server_mode:
            if self.server is not None and self.server.alive:
                return self.server, 1  # one round trip to the server
            return None, 0             # server unavailable: nothing proceeds
        if start is not None and start.alive:
            return start, 0
        return grid._random_live_node(), 0

    # -- run-node selection ----------------------------------------------------

    def search(self, owner, job) -> CandidateSet:
        """Every live satisfying node, in index order, at zero overlay
        cost.  ``charge_probes=False``: the central index already knows
        every load, so oracle-mode accounting reports zero probes (the
        paper's point is precisely that this knowledge is free only for a
        centralized scheme — under ``probe_mode="rpc"`` the probes become
        real messages and the cost becomes visible)."""
        grid = self._require_grid()
        if self.server_mode and (self.server is None or not self.server.alive):
            return CandidateSet(charge_probes=False)
        mask = self._caps.satisfying_mask(job.profile.requirements) \
            & grid.registry.alive & self._eligible
        tel = grid.telemetry
        if tel.enabled:
            # The oracle "examines" every live satisfying node; recording it
            # makes the decentralized schemes' probe counts comparable.
            tel.metrics.histogram("match.centralized.candidates").observe(
                int(mask.sum()))
        idx = np.flatnonzero(mask)
        if grid.cfg.probe_mode == "oracle":
            # Columnar fast path: hand phase 2 the dense registry indices
            # of the alive∧capable mask and skip materializing the GUID
            # list — oracle selection reads the load column in bulk and
            # resolves only the ids it dispatches to.  (The rpc probe
            # path needs per-candidate GUIDs, so it keeps the list.)
            return CandidateSet(reg_idx=idx, charge_probes=False)
        node_list = grid.node_list
        return CandidateSet(
            candidates=[node_list[int(i)].node_id for i in idx],
            charge_probes=False)

