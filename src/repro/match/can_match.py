"""CAN-based matchmaking (paper §3.2).

Each resource type is a CAN dimension plus one **virtual dimension** with
uniformly random coordinates.  A node's representative point is its
normalized capability vector (plus virtual coordinate); a job's point is
its normalized requirement vector (plus a fresh virtual coordinate), so
unconstrained axes map to 0 and identical nodes/jobs land in *distinct*
zones — the virtual dimension is what makes zone splitting well-defined
for clustered populations.

Matchmaking = routing: the job routes to the zone containing its point;
the zone owner (after climbing to a satisfying node if the owner itself
falls short of a requirement) gathers candidates from the owners of
neighboring zones that are at least as capable in every dimension and
more capable in at least one, and picks the (approximately) least-loaded
candidate.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.dht.can import CANNode, CANOverlay
from repro.grid.resources import dominates, satisfies
from repro.match.base import Matchmaker
from repro.match.select import CandidateSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.node import GridNode


class CANMatchmaker(Matchmaker):
    name = "can"

    def __init__(self, use_virtual_dimension: bool = True,
                 climb_limit: int = 64, candidate_rule: str = "satisfying",
                 job_virtual_spread: bool = True):
        """``candidate_rule`` selects which neighbors join the candidate set:

        * ``"dominating"`` — the paper's wording: neighbors at least as
          capable in all dimensions and more capable in at least one.
        * ``"satisfying"`` — any neighbor that satisfies the job.  With the
          virtual dimension in play, a node's neighbors along the virtual
          axis have *equal* capability and are the natural load-sharing
          peers inside a cluster of identical machines; this rule admits
          them.  (Strict dominance predates the virtual-dimension fix in
          §3.2 — identical nodes were then never neighbors.)
        """
        super().__init__()
        if candidate_rule not in ("dominating", "satisfying"):
            raise ValueError(f"bad candidate_rule {candidate_rule!r}")
        self.use_virtual_dimension = use_virtual_dimension
        self.climb_limit = climb_limit
        self.candidate_rule = candidate_rule
        #: When False, jobs get a *fixed* virtual coordinate instead of a
        #: random one — identical jobs then share one owner zone.  Ablation
        #: knob isolating the job-spreading half of the §3.2 fix.
        self.job_virtual_spread = job_virtual_spread
        self.can: CANOverlay | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def bind(self, grid) -> None:
        self.grid = grid
        self._rng = grid.streams["match"]
        spec = grid.cfg.spec
        dims = spec.dims + (1 if self.use_virtual_dimension else 0)
        self.can = CANOverlay(grid.streams["can"], dims)
        self._bind_overlay_telemetry(self.can)
        coord_rng = grid.streams["can-coords"]
        order = list(grid.node_list)
        coord_rng.shuffle(order)  # join order shouldn't track creation order
        for node in order:
            self.can.join(CANNode(node.node_id, self._node_point(node, coord_rng)))

    def _node_point(self, node: "GridNode", rng) -> tuple[float, ...]:
        coords = self._require_grid().cfg.spec.normalize(node.capability)
        if self.use_virtual_dimension:
            coords = coords + (float(rng.uniform()),)
        return coords

    def _job_point(self, job) -> tuple[float, ...]:
        """The job's CAN coordinates.  Cached on the job so owner-failure
        recovery re-routes to the same region; the virtual coordinate is
        drawn once per job."""
        point = job.extra.get("can_point")
        if point is None:
            coords = self._require_grid().cfg.spec.normalize(job.profile.requirements)
            if self.use_virtual_dimension:
                virtual = float(self._rng.uniform()) if self.job_virtual_spread else 0.5
                coords = coords + (virtual,)
            job.extra["can_point"] = point = coords
        return point

    # ------------------------------------------------------------------
    # owner mapping (zone ownership of the job's point)
    # ------------------------------------------------------------------

    def find_owner(self, job, start=None):
        grid = self._require_grid()
        can_start = None
        if start is not None:
            can_start = self.can.nodes.get(start.node_id)
        result = self.can.route(self._job_point(job), start=can_start)
        if not result.success:
            return None, result.hops
        return grid.nodes[result.owner.node_id], result.hops

    # ------------------------------------------------------------------
    # run-node selection
    # ------------------------------------------------------------------

    def search(self, owner: "GridNode", job) -> CandidateSet:
        req = job.profile.requirements
        can_owner = self.can.nodes.get(owner.node_id)
        if can_owner is None or not can_owner.alive:
            return CandidateSet()
        anchor, climb_hops = self._climb_to_satisfying(can_owner, req)
        if anchor is None:
            return CandidateSet(hops=climb_hops)
        return self._candidate_set(anchor, req, extra_hops=climb_hops)

    def _candidate_set(self, anchor: CANNode, req,
                       extra_hops: int = 0, pushes: int = 0) -> CandidateSet:
        return CandidateSet(
            candidates=[c.node_id for c in self._candidates(anchor, req)],
            hops=extra_hops, pushes=pushes)

    def _candidates(self, anchor: CANNode, req) -> list[CANNode]:
        """The anchor (if satisfying) plus its satisfying neighbors that
        dominate it in capability space (§3.2)."""
        grid = self._require_grid()
        anchor_cap = grid.nodes[anchor.node_id].capability
        out = []
        if satisfies(anchor_cap, req):
            out.append(anchor)
        for nb in anchor.neighbors:
            if not nb.alive:
                continue
            cap = grid.nodes[nb.node_id].capability
            if not satisfies(cap, req):
                continue
            if self.candidate_rule == "satisfying" or \
                    dominates(cap, anchor_cap, strict=True):
                out.append(nb)
        return out

    def _climb_to_satisfying(self, start: CANNode, req
                             ) -> tuple[CANNode | None, int]:
        """Capability climb: zone ownership only guarantees the owner's
        capabilities are *near* the job's requirements, not above them, so
        the owner may have to hand the job to a more capable neighbor.

        Best-first search on remaining deficiency (the distributed analogue
        is the owner forwarding the job toward 'higher' zones): pure greedy
        can stall on local minima of the capability landscape, while
        expanding the least-deficient *frontier* node escapes them.  Each
        expansion is one overlay message."""
        grid = self._require_grid()

        def deficiency_of(n: CANNode) -> float:
            return self._deficiency(grid.nodes[n.node_id].capability, req)

        d0 = deficiency_of(start)
        if d0 == 0.0:
            return start, 0
        frontier = [(d0, start.node_id, start)]
        seen = {start.node_id}
        hops = 0
        while frontier and hops < self.climb_limit:
            d, _, cur = heapq.heappop(frontier)
            if d == 0.0:
                return cur, hops
            hops += 1
            for nb in cur.neighbors:
                if nb.alive and nb.node_id not in seen:
                    seen.add(nb.node_id)
                    heapq.heappush(frontier, (deficiency_of(nb), nb.node_id, nb))
        while frontier:
            d, _, cur = heapq.heappop(frontier)
            if d == 0.0:
                return cur, hops
        return None, hops  # hop budget exhausted; caller retries with backoff

    @staticmethod
    def _deficiency(capability, req) -> float:
        return sum(max(0.0, r - c) for c, r in zip(capability, req))

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------

    def on_crash(self, node) -> None:
        self.can.crash(node.node_id)

    def on_join(self, node) -> None:
        grid = self._require_grid()
        old = self.can.nodes.pop(node.node_id, None)
        if old is not None and old.alive:  # pragma: no cover - defensive
            raise RuntimeError("joining a node that is already live")
        self.can.join(CANNode(node.node_id,
                              self._node_point(node, grid.streams["can-coords"])))
