"""The Rendezvous Node Tree matchmaker (paper §3.1).

An aggregation tree embedded in a Chord ring:

* **Parent rule** — a node's parent is the Chord successor of its GUID
  with the lowest set bit cleared (re-clearing while the lookup returns
  the node itself).  That walk has a closed form: every truncation that
  keeps the highest bit where the node differs from its live
  predecessor ``pred`` lies in ``(pred, node]`` and resolves to the node
  itself, so the walk stops exactly at ``node >> k << k`` with
  ``k = (node ^ pred).bit_length()`` (:func:`parent_point`).  Each node
  computes its parent from purely local information plus one DHT
  lookup, the construction is fully decentralized, and with uniformly
  distributed GUIDs the expected height is O(log N); the root is
  ``successor(0)``, the smallest live id.  (Parent ids strictly decrease
  toward 0, so the structure is always a tree.)
* **Hierarchical aggregation** — every node reports its subtree's
  per-resource *maximum available capability* to its parent, so any node
  knows, per child subtree, the best capability reachable below it.
* **Matchmaking** — the job is first mapped to a random owner (uniform
  GUID hash), which performs a *limited random walk* to decorrelate hot
  spots; the search then proceeds through the walk endpoint's subtree,
  climbing to ancestors only when the subtree has no satisfactory
  candidate, pruned by the aggregated maxima, and continues until at
  least ``k`` capable nodes are found (*extended search*).  The
  least-loaded of the ``k`` candidates (by direct probe) runs the job.
"""

from __future__ import annotations

import bisect
import heapq
from typing import TYPE_CHECKING

import numpy as np

from repro.dht.chord import ChordOverlay
from repro.grid.resources import satisfies
from repro.match.base import Matchmaker
from repro.match.select import CandidateSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.node import GridNode


def parent_point(node_id: int, pred_id: int | None) -> int | None:
    """The ring point whose successor is ``node_id``'s parent, given its
    live predecessor; ``None`` for the root (alone, or the smallest id)."""
    if pred_id is None or pred_id >= node_id:
        return None
    k = (node_id ^ pred_id).bit_length()
    return node_id >> k << k


class _TreeNode:
    """Per-node RN-Tree state (parent, children, aggregated maxima)."""

    __slots__ = ("node_id", "parent_id", "children", "subtree_max")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.parent_id: int | None = None
        self.children: list[int] = []
        self.subtree_max: tuple[float, ...] = ()


class RendezvousTreeMatchmaker(Matchmaker):
    name = "rn-tree"

    def __init__(self, k: int = 4, random_walk_len: int = 3):
        super().__init__()
        if k < 1:
            raise ValueError("k must be >= 1")
        if random_walk_len < 0:
            raise ValueError("random_walk_len must be >= 0")
        self.k = k
        self.random_walk_len = random_walk_len
        self.chord: ChordOverlay | None = None
        self.tree: dict[int, _TreeNode] = {}
        #: Parent-probe index for incremental maintenance: each non-root
        #: member's :func:`parent_point`, as a sorted ``(point, node_id)``
        #: list plus a per-node reverse map.  A churn event at id W only
        #: changes ``successor(t)`` for ``t`` in the arc ``(pred(W), W]``,
        #: so only nodes whose point lies in that arc, and on a join
        #: W's successor (whose own arc shrinks), can re-parent — everyone
        #: else's tree edge is provably unchanged.
        self._probe_list: list[tuple[int, int]] = []
        self._probe_points: dict[int, int] = {}
        #: node_id -> sorted live finger ids, for the random-walk step.
        #: Fingers only change on churn (crash_repair / recover / join),
        #: so the per-search set-build + sort is paid once per node per
        #: churn epoch instead of per walk step.  Values are identical to
        #: the uncached computation, so rng draws are bit-identical.
        self._walk_choices: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def bind(self, grid) -> None:
        self.grid = grid
        self._rng = grid.streams["match"]
        self.chord = ChordOverlay(grid.streams["chord"])
        self._bind_overlay_telemetry(self.chord)
        self.chord.build([n.node_id for n in grid.node_list])
        self._rebuild_tree()

    def _rebuild_tree(self) -> None:
        self.tree = tree = {}
        self._probe_list = []
        self._probe_points = {}
        self._walk_choices.clear()
        live = [node.node_id for node in self.chord.live_nodes()]
        # Ascending ids: a parent (a smaller id) is already in the tree,
        # and children are appended in ascending order.
        pred_id = live[-1] if live else None
        for nid in live:
            tnode = tree[nid] = _TreeNode(nid)
            point = parent_point(nid, pred_id)
            pred_id = nid
            if point is None:
                continue
            tnode.parent_id = self.chord.successor_of(point).node_id
            tree[tnode.parent_id].children.append(nid)
            self._probe_points[nid] = point
            self._probe_list.append((point, nid))
        self._probe_list.sort()
        self._recompute_aggregates()

    def _recompute_aggregates(self) -> None:
        """Bottom-up max aggregation.  Parent ids are strictly smaller than
        child ids, so descending-id order is a valid topological order."""
        grid = self._require_grid()
        for nid in sorted(self.tree, reverse=True):
            tnode = self.tree[nid]
            best = list(grid.nodes[nid].capability)
            for child_id in tnode.children:
                for d, v in enumerate(self.tree[child_id].subtree_max):
                    if v > best[d]:
                        best[d] = v
            tnode.subtree_max = tuple(best)
            if tnode.parent_id is not None and tnode.parent_id not in self.tree:
                raise AssertionError("dangling parent pointer")

    # ------------------------------------------------------------------
    # incremental maintenance (dirty-path aggregation, probe index)
    # ------------------------------------------------------------------

    def _move_probe(self, node_id: int, point: int | None) -> None:
        """Re-file ``node_id``'s parent point (``None``: drop it)."""
        pl = self._probe_list
        old = self._probe_points.pop(node_id, None)
        if old is not None:
            del pl[bisect.bisect_left(pl, (old, node_id))]
        if point is not None:
            self._probe_points[node_id] = point
            bisect.insort(pl, (point, node_id))

    def _probers_in_arc(self, a: int, b: int) -> set[int]:
        """Node ids whose parent point lies in the ring interval ``(a, b]``."""
        pl = self._probe_list
        lo = bisect.bisect_left(pl, (a + 1,))
        hi = bisect.bisect_left(pl, (b + 1,))
        span = pl[lo:hi] if a < b else pl[lo:] + pl[:hi]  # wrapped arc
        return {nid for _, nid in span}

    def _reassign_parent(self, node_id: int, dirty: set[int]) -> None:
        """Recompute one node's parent edge, updating the probe index and
        children lists; both old and new parents join the dirty set."""
        tnode = self.tree[node_id]
        point = parent_point(node_id, self.chord.predecessor_id(node_id))
        if point != self._probe_points.get(node_id):
            self._move_probe(node_id, point)
        new_parent = None if point is None \
            else self.chord.successor_of(point).node_id
        if new_parent == tnode.parent_id:
            return
        old_parent = tnode.parent_id
        if old_parent is not None and old_parent in self.tree:
            self.tree[old_parent].children.remove(node_id)
            dirty.add(old_parent)
        tnode.parent_id = new_parent
        if new_parent is not None:
            bisect.insort(self.tree[new_parent].children, node_id)
            dirty.add(new_parent)

    def _propagate(self, dirty: set[int]) -> None:
        """Recompute subtree maxima upward from the dirty nodes, stopping
        wherever the aggregate comes out unchanged.  Parent ids are
        strictly smaller than child ids, so popping a max-heap visits
        children before their parents (a valid topological order)."""
        grid = self._require_grid()
        heap = [-nid for nid in dirty if nid in self.tree]
        heapq.heapify(heap)
        seen = set(heap)
        while heap:
            nid = -heapq.heappop(heap)
            tnode = self.tree[nid]
            best = list(grid.nodes[nid].capability)
            for child_id in tnode.children:
                for d, v in enumerate(self.tree[child_id].subtree_max):
                    if v > best[d]:
                        best[d] = v
            new = tuple(best)
            if new == tnode.subtree_max:
                continue
            tnode.subtree_max = new
            pid = tnode.parent_id
            if pid is not None and -pid not in seen:
                seen.add(-pid)
                heapq.heappush(heap, -pid)

    def _tree_remove(self, dead_id: int) -> None:
        """Splice a crashed node out (chord membership already updated)."""
        dead = self.tree.pop(dead_id, None)
        if dead is None:
            return
        self._move_probe(dead_id, None)
        dirty: set[int] = set()
        if dead.parent_id is not None and dead.parent_id in self.tree:
            self.tree[dead.parent_id].children.remove(dead_id)
            dirty.add(dead.parent_id)
        pred = self.chord.predecessor_id(dead_id)
        for nid in self._probers_in_arc(pred, dead_id):
            self._reassign_parent(nid, dirty)
        self._propagate(dirty)

    def _tree_insert(self, new_id: int) -> None:
        """Splice a joined node in (chord membership already updated).

        Besides the nodes whose point the joiner now owns, its successor
        is re-evaluated: its own arc shrank, so its walk may now stop at
        the joiner."""
        if new_id in self.tree:
            return
        self.tree[new_id] = _TreeNode(new_id)
        dirty: set[int] = {new_id}
        movers = self._probers_in_arc(self.chord.predecessor_id(new_id),
                                      new_id)
        movers.add(self.chord.successor_of(new_id + 1).node_id)
        movers.add(new_id)
        for nid in movers:
            self._reassign_parent(nid, dirty)
        self._propagate(dirty)

    # ------------------------------------------------------------------
    # owner mapping (uniform GUID hash over the Chord ring)
    # ------------------------------------------------------------------

    def find_owner(self, job, start=None):
        grid = self._require_grid()
        chord_start = None
        if start is not None:
            chord_start = self.chord.nodes.get(start.node_id)
        result = self.chord.route(job.guid, start=chord_start)
        if not result.success:
            return None, result.hops
        return grid.nodes[result.owner.node_id], result.hops

    # ------------------------------------------------------------------
    # run-node search
    # ------------------------------------------------------------------

    def search(self, owner: "GridNode", job) -> CandidateSet:
        req = job.profile.requirements
        hops = 0

        # Limited random walk from the owner for dynamic load spreading.
        cur_id = owner.node_id
        for _ in range(self.random_walk_len):
            nxt = self._random_neighbor(cur_id)
            if nxt is None:
                break
            cur_id = nxt
            hops += 1

        candidates, search_hops = self._extended_search(cur_id, req, self.k)
        hops += search_hops
        grid = self._require_grid()
        if candidates:
            # Attach the candidates' dense registry indices (search order;
            # the tree search visits each node at most once, so they are
            # unique) — oracle selection then ranks over the registry's
            # load column in bulk instead of building a per-candidate
            # loads dict.
            index = grid.registry.index
            reg_idx = np.fromiter((index[c] for c in candidates),
                                  dtype=np.int64, count=len(candidates))
            return CandidateSet(candidates=candidates, hops=hops,
                                reg_idx=reg_idx)
        return CandidateSet(candidates=candidates, hops=hops)

    def _random_neighbor(self, node_id: int) -> int | None:
        """A uniformly random live finger of ``node_id`` (walk step)."""
        choices = self._walk_choices.get(node_id)
        if choices is None:
            node = self.chord.nodes.get(node_id)
            if node is None or not node.alive:
                return None
            choices = self._walk_choices[node_id] = tuple(sorted(
                {f.node_id for f in node.fingers
                 if f is not None and f.alive and f.node_id != node_id}))
        if not choices:
            return None
        return choices[int(self._rng.integers(0, len(choices)))]

    def _extended_search(self, start_id: int, req, k: int) -> tuple[list[int], int]:
        """Search the start's subtree, then ancestors' other subtrees, for
        up to ``k`` nodes satisfying ``req``.  Each tree-edge traversal
        costs one hop; pruning uses the aggregated subtree maxima."""
        grid = self._require_grid()
        if start_id not in self.tree:
            return [], 0
        candidates: list[int] = []
        hops = 0

        tree = self.tree
        nodes = grid.nodes

        def dfs(root_id: int, charge_entry: bool) -> None:
            nonlocal hops
            stack = [(root_id, charge_entry)]
            pop = stack.pop
            push = stack.append
            found = candidates.append
            # ``satisfies`` is inlined below (for/else = all dims meet the
            # requirement): this loop dominates extended-search time and
            # the call overhead per visited node/child was measurable.
            while stack and len(candidates) < k:
                nid, charge = pop()
                if charge:
                    hops += 1
                tnode = tree[nid]
                gnode = nodes[nid]
                if gnode.alive:
                    for c, r in zip(gnode.capability, req):
                        if c < r:
                            break
                    else:
                        found(nid)
                for child_id in tnode.children:
                    if len(candidates) >= k and candidates:
                        break
                    for c, r in zip(tree[child_id].subtree_max, req):
                        if c < r:
                            break
                    else:
                        push((child_id, True))

        # Phase 1: the subtree rooted at the search start (we are already
        # there, so visiting the root itself is free).
        dfs(start_id, charge_entry=False)

        # Phase 2: climb to ancestors, searching their *other* subtrees.
        came_from = start_id
        cur = self.tree[start_id].parent_id
        while cur is not None and len(candidates) < k:
            hops += 1  # move up one tree edge
            tnode = self.tree[cur]
            gnode = grid.nodes[cur]
            if gnode.alive and satisfies(gnode.capability, req) \
                    and cur not in candidates:
                candidates.append(cur)
            for child_id in tnode.children:
                if len(candidates) >= k:
                    break
                if child_id == came_from:
                    continue
                if satisfies(self.tree[child_id].subtree_max, req):
                    dfs(child_id, charge_entry=True)
            came_from = cur
            cur = tnode.parent_id
        return candidates, hops

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------

    def on_crash(self, node) -> None:
        self._walk_choices.clear()
        self.chord.crash_repair(node.node_id)
        if self.chord.size <= 2:
            self._rebuild_tree()
            return
        self._tree_remove(node.node_id)

    def on_join(self, node) -> None:
        self._walk_choices.clear()
        if node.node_id in self.chord.nodes:
            self.chord.recover(node.node_id)
        else:  # pragma: no cover - populations are fixed in current drivers
            from repro.dht.chord.node import ChordNode
            self.chord.oracle_join(ChordNode(node.node_id))
        if self.chord.size <= 3:
            self._rebuild_tree()
            return
        self._tree_insert(node.node_id)
