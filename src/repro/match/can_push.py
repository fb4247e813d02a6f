"""Load-aware pushing CAN matchmaker (paper §3.3, "ongoing work").

"The basic concept is that when a new job is inserted into the system and
routed to the owner node, the job is pushed into an underloaded region in
the CAN space.  To determine whether to initiate pushing of a job, a fixed
amount of current system load information is propagated along each
dimension in the space.  If the overall system is lightly loaded, the job
can be pushed into the upper regions of the space (farther from the
origin) and utilize the more capable nodes in the system."

Reconstruction (the paper gives the concept, not the algorithm):

* Every refresh interval, each node recomputes a per-dimension
  **up-region load estimate**: the smoothed minimum, over neighbors that
  abut it from above along that dimension, of the neighbor's queue length
  blended with the neighbor's own estimate.  Estimates therefore diffuse
  one hop per refresh, exactly like the soft-state load exchange basic
  CAN matchmaking already assumes, and carry a *fixed amount* of
  information per dimension.
* At matchmaking time, if the best local candidate's queue exceeds the
  lightest upward region estimate by more than ``push_margin``, the job
  is pushed one zone up along that lightest dimension; this repeats (up
  to ``max_pushes``) until the local candidates are competitive.
  Pushing farther from the origin can only *gain* capability, so a
  satisfiable job never becomes unsatisfiable by pushing.
"""

from __future__ import annotations

import math

from repro.dht.can import CANNode
from repro.match.can_match import CANMatchmaker
from repro.match.select import CandidateSet
from repro.sim.process import PeriodicTask


class PushingCANMatchmaker(CANMatchmaker):
    name = "can-push"

    def __init__(self, use_virtual_dimension: bool = True,
                 climb_limit: int = 64,
                 push_margin: float = 0.0,
                 max_pushes: int = 32,
                 load_refresh_interval: float = 5.0,
                 blend: float = 0.5):
        super().__init__(use_virtual_dimension=use_virtual_dimension,
                         climb_limit=climb_limit)
        if not 0.0 <= blend <= 1.0:
            raise ValueError("blend must be in [0, 1]")
        self.push_margin = push_margin
        self.max_pushes = max_pushes
        self.load_refresh_interval = load_refresh_interval
        self.blend = blend
        #: node_id -> per-resource-dimension up-region load estimate.
        self._up_load: dict[int, list[float]] = {}
        self._refresh_task: PeriodicTask | None = None

    # ------------------------------------------------------------------
    # construction / load diffusion
    # ------------------------------------------------------------------

    def bind(self, grid) -> None:
        super().bind(grid)
        self.refresh_load_info()
        self._refresh_task = PeriodicTask(
            grid.sim, self.load_refresh_interval, self.refresh_load_info,
            # Sole consumer of the "protocol" stream (node timers are keyed).
            rng=grid.streams["protocol"], jitter=0.1,
        )

    def refresh_load_info(self) -> None:
        """One soft-state diffusion round: every node recomputes its
        up-region estimates from its above-neighbors' last-round state."""
        tel = self.grid.telemetry if self.grid is not None else None
        if tel is not None and tel.enabled:
            tel.metrics.counter("match.can-push.load_refresh_rounds").inc()
        grid = self._require_grid()
        rdims = grid.cfg.spec.dims
        prev = self._up_load
        new: dict[int, list[float]] = {}
        for node in self.can.live_nodes():
            ests = []
            for d in range(rdims):
                best = math.inf
                for nb in self._above_neighbors(node, d):
                    nb_queue = float(grid.nodes[nb.node_id].queue_len)
                    nb_prev = prev.get(nb.node_id, [math.inf] * rdims)[d]
                    if math.isinf(nb_prev):
                        est = nb_queue
                    else:
                        est = (1 - self.blend) * nb_queue + self.blend * nb_prev
                    if est < best:
                        best = est
                ests.append(best)
            new[node.node_id] = ests
        self._up_load = new

    @staticmethod
    def _above_neighbors(node: CANNode, dim: int) -> list[CANNode]:
        """Live neighbors abutting ``node`` from above along ``dim``."""
        out = []
        hi = node.zone.hi[dim]
        for nb in node.neighbors:
            if nb.alive and any(z.lo[dim] == hi for z in nb.zones):
                out.append(nb)
        return out

    # ------------------------------------------------------------------
    # run-node selection with pushing
    # ------------------------------------------------------------------

    def search(self, owner, job) -> CandidateSet:
        grid = self._require_grid()
        req = job.profile.requirements
        can_owner = self.can.nodes.get(owner.node_id)
        if can_owner is None or not can_owner.alive:
            return CandidateSet()
        anchor, hops = self._climb_to_satisfying(can_owner, req)
        if anchor is None:
            return CandidateSet(hops=hops)

        # The push decision consumes the *diffused* soft-state load
        # estimates (refreshed every load_refresh_interval), so it stays a
        # phase-1 search heuristic even under rpc probing: the candidate
        # loads read here stand in for the gossiped state basic CAN
        # matchmaking already assumes, not for a fresh probe.
        pushes = 0
        while pushes < self.max_pushes:
            candidates = self._candidates(anchor, req)
            local_best = min(
                (grid.nodes[c.node_id].queue_len for c in candidates),
                default=math.inf,
            )
            dim, up_est = self._lightest_up_region(anchor)
            if dim is None or up_est + self.push_margin >= local_best:
                break
            nxt = self._push_step(anchor, dim)
            if nxt is None:
                break
            anchor = nxt
            pushes += 1
        return self._candidate_set(anchor, req, extra_hops=hops,
                                   pushes=pushes)

    def _lightest_up_region(self, node: CANNode) -> tuple[int | None, float]:
        ests = self._up_load.get(node.node_id)
        if not ests:
            return None, math.inf
        dim = min(range(len(ests)), key=lambda d: ests[d])
        return (dim, ests[dim]) if not math.isinf(ests[dim]) else (None, math.inf)

    def _push_step(self, node: CANNode, dim: int) -> CANNode | None:
        """Move one zone up along ``dim``, toward the lightest onward load."""
        grid = self._require_grid()
        above = self._above_neighbors(node, dim)
        if not above:
            return None

        def onward(nb: CANNode) -> float:
            """Neighbor's own queue blended with its best onward estimate."""
            queue = float(grid.nodes[nb.node_id].queue_len)
            ests = self._up_load.get(nb.node_id)
            best_est = min(ests) if ests else math.inf
            if math.isinf(best_est):
                return queue
            return queue + self.blend * best_est

        return min(above, key=lambda nb: (onward(nb), nb.node_id))
