"""TTL-scoped random-walk resource discovery — related-work baseline (§4).

"TTL-based mechanisms are relatively simple but effective ways to find a
resource ... without incurring too much overhead in the search.  However,
such mechanisms may fail to find a resource capable of running a given
job, even though such a resource exists somewhere in the network."

The walk runs over the Chord overlay's finger graph (any connected overlay
graph works; using the same substrate keeps the comparison fair).  The
first visited node that satisfies the constraints with a queue no longer
than ``accept_queue`` is taken; when the TTL expires, the best satisfying
node seen (least loaded) is used; if *no* visited node satisfies the
constraints the match fails — the failure mode the paper criticizes.
"""

from __future__ import annotations

from repro.dht.chord import ChordOverlay
from repro.grid.resources import satisfies
from repro.match.base import Matchmaker
from repro.match.select import CandidateSet


class TTLWalkMatchmaker(Matchmaker):
    name = "ttl-walk"

    def __init__(self, ttl: int | None = None, accept_queue: int = 1):
        """``ttl=None`` auto-sizes to ``2 * log2(N)`` at bind time."""
        super().__init__()
        self._requested_ttl = ttl
        self.accept_queue = accept_queue
        self.ttl = ttl or 0
        self.chord: ChordOverlay | None = None

    def bind(self, grid) -> None:
        self.grid = grid
        self._rng = grid.streams["match"]
        self.chord = ChordOverlay(grid.streams["chord"])
        self._bind_overlay_telemetry(self.chord)
        self.chord.build([n.node_id for n in grid.node_list])
        if self._requested_ttl is None:
            self.ttl = max(4, 2 * max(1, (len(grid.node_list) - 1).bit_length()))
        else:
            self.ttl = self._requested_ttl

    def find_owner(self, job, start=None):
        grid = self._require_grid()
        chord_start = self.chord.nodes.get(start.node_id) if start is not None else None
        result = self.chord.route(job.guid, start=chord_start)
        if not result.success:
            return None, result.hops
        return grid.nodes[result.owner.node_id], result.hops

    def search(self, owner, job) -> CandidateSet:
        """Walk until a lightly-loaded satisfying node is found or the TTL
        expires.  The early-accept check reads loads *during* the walk —
        that is the walk's own termination rule (each visited node knows
        its own queue), so it stays in phase 1; the visit-ordered
        satisfying nodes become the candidate set and the shared phase-2
        pipeline picks the least loaded with deterministic first-visited
        tie-breaking (``tie_break="first"``), preserving the historical
        walk semantics.  ``charge_probes=False``: visiting a node already
        paid the message that learned its load."""
        grid = self._require_grid()
        req = job.profile.requirements
        cur = self.chord.nodes.get(owner.node_id)
        if cur is None or not cur.alive:
            return CandidateSet(charge_probes=False, tie_break="first")
        visited: set[int] = set()
        candidates: list[int] = []
        hops = 0
        for step in range(self.ttl + 1):
            if cur.node_id not in visited:
                visited.add(cur.node_id)
                gnode = grid.nodes[cur.node_id]
                if gnode.alive and satisfies(gnode.capability, req):
                    candidates.append(cur.node_id)
                    if gnode.queue_len <= self.accept_queue:
                        # Acceptably idle: stop the walk here.  Every
                        # earlier candidate has a strictly longer queue
                        # (it failed this check), so this node is the
                        # strict least-loaded of the set and phase 2
                        # selects it; the earlier ones stay as fallbacks.
                        return CandidateSet(candidates=candidates,
                                            hops=hops, charge_probes=False,
                                            tie_break="first")
            if step == self.ttl:
                break
            nxt = self._walk_step(cur, visited)
            if nxt is None:
                break
            cur = nxt
            hops += 1
        # May be empty despite feasible nodes — the failure mode §4 notes.
        return CandidateSet(candidates=candidates, hops=hops,
                            charge_probes=False, tie_break="first")

    def _walk_step(self, cur, visited):
        """Uniform random live finger, preferring unvisited ones."""
        fingers = {f.node_id: f for f in cur.fingers
                   if f is not None and f.alive and f.node_id != cur.node_id}
        for s in cur.successors:
            if s.alive and s.node_id != cur.node_id:
                fingers.setdefault(s.node_id, s)
        if not fingers:
            return None
        unvisited = sorted(nid for nid in fingers if nid not in visited)
        pool = unvisited if unvisited else sorted(fingers)
        return fingers[pool[int(self._rng.integers(0, len(pool)))]]

    def on_crash(self, node) -> None:
        self.chord.crash(node.node_id)
        self.chord.repair()

    def on_join(self, node) -> None:
        if node.node_id in self.chord.nodes:
            self.chord.recover(node.node_id)
        self.chord.repair()
