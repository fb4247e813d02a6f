"""The Chord overlay: membership, iterative lookup, stabilization, storage.

Two construction modes are provided, matching how the paper's simulator is
used:

* **Oracle construction** (:meth:`ChordOverlay.build`) — one bulk step:
  pointers are computed directly from the sorted live-id list.  Used to
  set up large static populations for the load-balance experiments in
  O(N log N).
* **Protocol join** (:meth:`ChordOverlay.join`) — a joining node looks up
  its own id to find its successor, then periodic :meth:`stabilize_node` /
  :meth:`fix_fingers_node` rounds (driven by :class:`PeriodicTask` in churn
  experiments) converge the ring, exactly as in the Chord paper.

Crashes lose all of a node's state; the successor-list redundancy plus
stabilization repair the ring, and the replicated KV layer keeps data
reachable while at least one replica survives.
"""

from __future__ import annotations

import bisect
import operator
from typing import Any, Iterable

import numpy as np

from repro.dht.base import DHTOverlay, RouteResult
from repro.dht.chord.node import ChordNode
from repro.util.ids import GUID_BITS, ring_between


class ChordOverlay(DHTOverlay):
    """A simulated Chord ring.

    Parameters
    ----------
    rng:
        Source of randomness for picking default lookup start nodes.
    bits:
        Identifier-space width (affects finger-table size).
    successor_list_len:
        Redundancy of successor lists (Chord's ``r``); the ring partitions
        only if ``r`` consecutive nodes die between repairs.
    """

    def __init__(self, rng: np.random.Generator, bits: int = GUID_BITS,
                 successor_list_len: int = 8):
        super().__init__()
        if successor_list_len < 1:
            raise ValueError("successor_list_len must be >= 1")
        self.rng = rng
        self.bits = bits
        self.r = successor_list_len
        self.nodes: dict[int, ChordNode] = {}
        self._live_ids: list[int] = []  # sorted; oracle view for construction
        # Columnar routing state: every admitted node gets a dense slot,
        # and row ``d`` of the segmented finger matrix holds the dense slots
        # of node d's fingers (-1 empty).  Slots are never reused (a
        # recovered node is a new slot; stale fingers keep resolving to the
        # dead object, exactly as the former object references did).  The
        # matrix is a list of fixed-size row blocks rather than one 2-D
        # array so growth under churn appends a ~1 MB segment instead of
        # reallocating-and-copying the whole table (which would double its
        # residency transiently and spike the benches' traced peak).
        self._id_mask = (1 << bits) - 1
        self._pow2 = np.left_shift(np.uint64(1),
                                   np.arange(bits, dtype=np.uint64))
        self._finger_segs: list[np.ndarray] = []
        self._by_dense: list[ChordNode] = []

    # ------------------------------------------------------------------
    # dense-slot management
    # ------------------------------------------------------------------

    #: Rows per finger-matrix segment (4096 x 64 x int32 = 1 MB).
    _SEG_SHIFT = 12
    _SEG_ROWS = 1 << _SEG_SHIFT
    _SEG_MASK = _SEG_ROWS - 1

    def _finger_row(self, dense: int) -> np.ndarray:
        """The finger row of dense slot ``dense`` (a live view)."""
        return self._finger_segs[dense >> self._SEG_SHIFT][
            dense & self._SEG_MASK]

    def _admit(self, nodes: list[ChordNode]) -> None:
        """Give each of ``nodes`` not yet in this overlay the next dense
        slot, in list order, in one pass (re-admissions keep theirs)."""
        fresh = [node for node in nodes if node._ov is not self]
        by_dense = self._by_dense
        need = len(by_dense) + len(fresh)
        while len(self._finger_segs) * self._SEG_ROWS < need:
            self._finger_segs.append(
                np.full((self._SEG_ROWS, self.bits), -1, dtype=np.int32))
        for d, node in enumerate(fresh, len(by_dense)):
            local = node._local_fingers
            node._ov = self
            node._dense = d
            if local is not None:
                node._local_fingers = None
                node.fingers = local  # keep entries set before admission
        by_dense += fresh

    def _closest_finger(self, dense: int, nid: int, key: int):
        """Finger half of ``closest_preceding_live``: the highest-level
        live finger strictly inside ``(nid, key)``, or None (the caller
        falls back to the successor list).

        One top-down scan.  Ring offsets clockwise from ``nid`` turn the
        interval test into ``0 < off < off_key`` (``off_key == 0`` means
        ``key == nid``: the whole ring is "between").  On a converged ring
        the top finger sits half a ring away, so a random key is answered
        in a couple of iterations, and the many low levels that share the
        successor cost one test between them because a slot equal to its
        upper neighbour has just been rejected.  Nothing here assumes
        offsets shrink with level: lazy and stale rows are scanned to the
        bottom like any other.
        """
        by_dense = self._by_dense
        mask = self._id_mask
        off_key = (key - nid) & mask
        prev = -1
        for idx in self._finger_row(dense)[::-1].tolist():
            if idx != prev and idx >= 0:
                prev = idx
                node = by_dense[idx]
                off = (node.node_id - nid) & mask
                if off and (off < off_key or not off_key) and node.alive:
                    return node
        return None

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def _check_new_ids(self, ids: list[int]) -> None:
        """Refuse ``ids`` unless each is not a member yet (a dead member's
        id is taken too), appears once and lies on the ring.  The one
        admission check of :meth:`build`, :meth:`join` and
        :meth:`oracle_join` (so :meth:`recover` too); it changes nothing."""
        nodes = self.nodes
        if not nodes.keys().isdisjoint(ids):
            clash = next(nid for nid in ids if nid in nodes)
            raise ValueError(f"duplicate node id {clash:#x}")
        if ids and (min(ids) < 0 or max(ids) > self._id_mask):
            bad = next(nid for nid in ids if not 0 <= nid <= self._id_mask)
            raise ValueError(f"node id {bad:#x} is outside the "
                             f"{self.bits}-bit ring")
        if len(set(ids)) < len(ids):
            seen: set[int] = set()
            clash = next(nid for nid in ids if nid in seen or seen.add(nid))
            raise ValueError(f"duplicate node id {clash:#x}")

    def build(self, node_ids: Iterable[int]) -> list[ChordNode]:
        """Oracle-construct a ring containing ``node_ids`` (must be fresh).

        One bulk step.  Every id is checked first (not a member yet, not
        repeated, on the ring), so a refused batch leaves the overlay as
        it was.  The nodes are then made without a finger list, and
        :meth:`_rebuild_pointers` gives them dense slots in ring order and
        writes every live node's links and finger row.
        """
        ids = node_ids if isinstance(node_ids, list) else list(node_ids)
        self._check_new_ids(ids)
        created = [ChordNode(nid, bits=self.bits) for nid in ids]
        self.nodes.update(zip(ids, created))
        self._live_ids = sorted(self._live_ids + ids)
        self._rebuild_pointers()
        return created

    def join(self, node: ChordNode, bootstrap: ChordNode | None = None) -> None:
        """Protocol join: locate the successor via lookup, splice in.

        The new node's fingers are seeded lazily (pointed at the successor);
        ``fix_fingers_node`` rounds sharpen them.  Other nodes learn about
        the joiner through stabilization, per the Chord paper.
        """
        self._check_new_ids([node.node_id])
        self.nodes[node.node_id] = node
        self._admit([node])
        node.alive = True
        if not self._live_ids:  # first node: ring of one
            node.successors = [node]
            node.predecessor = node
            node.fingers = [node] * self.bits
            self._insert_live_id(node.node_id)
            return
        start = bootstrap if bootstrap is not None and bootstrap.alive \
            else self._random_live()
        result = self._route(node.node_id, start, record=False)
        if not result.success:
            raise RuntimeError("join lookup failed: overlay unreachable")
        succ = result.owner
        node.successors = ([succ] + succ.successors)[: self.r]
        node.predecessor = None  # learned via notify during stabilization
        node.fingers = [succ] * self.bits
        self._insert_live_id(node.node_id)
        # Immediately notify the successor (first stabilization half-round)
        # so the ring is never observably inconsistent for ownership tests.
        self._notify(succ, node)

    def oracle_join(self, node: ChordNode) -> None:
        """Admit a node and splice the oracle pointers exactly.

        Leaves every live node's pointers as a full :meth:`repair` would
        (provided they were oracle-exact beforehand): the newcomer gets
        fresh pointers, its successor's predecessor moves, its ``r`` live
        predecessors' successor lists absorb it, and finger entries whose
        target falls in the newly claimed arc are re-pointed at it.  Cost
        O((r + B) log N) instead of repair's O(N·B).
        """
        self._check_new_ids([node.node_id])
        self.nodes[node.node_id] = node
        self._admit([node])
        node.alive = True
        self._insert_live_id(node.node_id)
        if len(self._live_ids) <= self.r + 1:
            # Tiny ring: every successor list spans the whole ring, so
            # the incremental splice degenerates to a full repair anyway.
            self.repair()
            return
        self._oracle_pointers(node)
        node.successors[0].predecessor = node
        self._refresh_successor_lists(node.node_id)
        self._retarget_fingers(node.predecessor.node_id, node.node_id, node)

    def crash_repair(self, node_id: int) -> None:
        """Crash ``node_id`` and splice the oracle pointers incrementally.

        Equivalent to :meth:`crash` followed by :meth:`repair` *when the
        ring's pointers were oracle-exact beforehand* (as after ``build``,
        ``oracle_join``, ``repair``, or a previous ``crash_repair``):
        removing one id only invalidates pointers that referenced it, and
        those are reachable by ring arithmetic — the dead node's successor
        (predecessor pointer), its ``r`` live predecessors (successor
        lists), and per finger level the nodes whose finger target falls
        in the vacated arc.  Cost O((r + B) log N) instead of O(N·B).
        """
        node = self.nodes[node_id]
        if not node.alive:
            return
        self.crash(node_id)
        if len(self._live_ids) <= self.r + 1:
            self.repair()
            return
        succ = self.successor_of(node_id)
        pred = self.nodes[self.predecessor_id(node_id)]
        if succ.predecessor is not None \
                and succ.predecessor.node_id == node_id:
            succ.predecessor = pred
        self._refresh_successor_lists(node_id)
        self._retarget_fingers(pred.node_id, node_id, succ)

    def predecessor_id(self, key: int) -> int | None:
        """The live id strictly preceding ``key`` on the ring (oracle)."""
        ids = self._live_ids
        if len(ids) <= 1:
            return None
        return ids[bisect.bisect_left(ids, key) - 1]

    def _live_window(self, start: int, count: int) -> list[ChordNode]:
        """Live nodes at sorted positions ``start .. start+count-1``
        (mod n) — the ring read clockwise from one position."""
        ids = self._live_ids
        nodes = self.nodes
        n = len(ids)
        start %= n
        if start + count <= n:
            return [nodes[nid] for nid in ids[start:start + count]]
        return [nodes[ids[(start + k) % n]] for k in range(count)]

    def _refresh_successor_lists(self, around_id: int) -> None:
        """Recompute the successor lists of the ``r`` live predecessors of
        ``around_id`` — the only lists a membership change there can touch
        once ``n > r + 1`` (callers repair smaller rings in full).  One
        bisect finds the spot; predecessor ``k`` and its ``r`` successors
        are then slices of the ``2r`` nodes around it."""
        r = self.r
        idx = bisect.bisect_left(self._live_ids, around_id)
        win = self._live_window(idx - r, 2 * r)
        for k in range(r):
            win[k].successors = win[k + 1:k + 1 + r]

    def _retarget_fingers(self, lo: int, hi: int, target: ChordNode) -> None:
        """Point finger entries whose start falls in ``(lo, hi]`` at
        ``target``: level ``i`` of node ``x`` targets ``x + 2^i``, so the
        affected nodes sit in the arc shifted down by ``2^i``.

        ``lo`` is live and nothing live lies strictly inside ``(lo, hi)``.
        With ``p = pred(lo)``, ``a = lo - p`` and ``b = hi - lo`` (mod
        ring; ``a + b`` does not wrap as ``p`` is not inside ``(lo,
        hi]``), the shifted arc measured from ``p`` is ``(a - 2^i, a + b -
        2^i]``.  While ``2^i <= min(a, b)`` it starts at or after ``p``,
        reaches ``lo`` and ends before ``hi``, so it holds exactly ``lo``:
        those levels are one slice of ``lo``'s row.  Only the higher
        levels need a bisect each.
        """
        mask = self._id_mask
        ids = self._live_ids
        nodes = self.nodes
        segs = self._finger_segs
        shift, smask = self._SEG_SHIFT, self._SEG_MASK
        td = target._dense
        br = bisect.bisect_right
        pred_lo = ids[bisect.bisect_left(ids, lo) - 1]
        first = min((hi - lo) & mask, (lo - pred_lo) & mask).bit_length()
        self._finger_row(nodes[lo]._dense)[:first] = td
        for i in range(first, self.bits):
            span = 1 << i
            a = (lo - span) & mask
            b = (hi - span) & mask
            j, k = br(ids, a), br(ids, b)
            for nid in ids[j:k] if a < b else ids[j:] + ids[:k]:
                d = nodes[nid]._dense
                segs[d >> shift][d & smask, i] = td

    def crash(self, node_id: int) -> None:
        node = self.nodes[node_id]
        if not node.alive:
            return
        node.alive = False
        node.store.clear()
        self._remove_live_id(node_id)

    def recover(self, node_id: int, *, oracle: bool = True) -> ChordNode:
        """Bring a crashed node back with fresh (empty) state and rejoin.

        The id is admitted like a new one; if that refuses it, the crashed
        member stays as it was."""
        dead = self.nodes[node_id]
        if dead.alive:
            raise ValueError(f"node {node_id:#x} is not crashed")
        del self.nodes[node_id]
        node = ChordNode(node_id, bits=self.bits)
        try:
            if oracle:
                self.oracle_join(node)
            else:
                self.join(node)
        except ValueError:
            self.nodes[node_id] = dead
            raise
        return node

    def leave(self, node_id: int) -> None:
        """Graceful departure: hand keys to the successor, then go down."""
        node = self.nodes[node_id]
        if not node.alive:
            return
        succ = node.first_live_successor()
        if succ is not None and succ is not node:
            succ.store.update(node.store)
        node.store.clear()
        node.alive = False
        self._remove_live_id(node_id)

    def live_nodes(self) -> list[ChordNode]:
        return [self.nodes[nid] for nid in self._live_ids]

    @property
    def size(self) -> int:
        return len(self._live_ids)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def route(self, key: int, start: ChordNode | None = None) -> RouteResult:
        result = self._route(key, start, record=True)
        return result

    def _route(self, key: int, start: ChordNode | None, record: bool) -> RouteResult:
        mask = self._id_mask
        key &= mask
        if start is None or not start.alive:
            start = self._random_live()
        if start is None:
            result = RouteResult(False, None, 0)
            if record:
                self.note_route(result)
            return result
        # Generous bound: a healthy ring needs O(log N); a freshly-joined
        # node whose fingers all point at its successor may walk the ring
        # linearly, so allow that, but never loop forever on a partition.
        max_hops = max(64, 2 * len(self._live_ids) + 16)
        cur = start
        hops = 0
        path = [cur.node_id]
        success = False
        owner: ChordNode | None = None
        while hops <= max_hops:
            for succ in cur.successors:
                if succ.alive:
                    break
            else:
                break  # cut off: every known successor is dead
            # key in (cur, succ], as clockwise offsets from cur; a zero
            # successor offset is the whole ring.
            nid = cur.node_id
            off_succ = (succ.node_id - nid) & mask
            if succ is cur or not off_succ \
                    or 0 < (key - nid) & mask <= off_succ:
                owner = succ
                success = True
                if succ is not cur:
                    hops += 1
                    path.append(succ.node_id)
                break
            nxt = cur.closest_preceding_live(key)
            if nxt is cur:
                nxt = succ
            cur = nxt
            hops += 1
            path.append(cur.node_id)
        result = RouteResult(success, owner, hops, path)
        if record:
            self.note_route(result)
        return result

    def successor_of(self, key: int) -> ChordNode | None:
        """Oracle ownership: the live node whose id is the first >= key."""
        if not self._live_ids:
            return None
        key &= self._id_mask
        idx = bisect.bisect_left(self._live_ids, key)
        if idx == len(self._live_ids):
            idx = 0
        return self.nodes[self._live_ids[idx]]

    def replica_set(self, owner: ChordNode, key: int, replicas: int) -> list[ChordNode]:
        """Owner plus its next live successors (Chord's replica placement)."""
        out = [owner]
        cur = owner
        guard = 0
        while len(out) < replicas and guard < 4 * replicas + 8:
            guard += 1
            nxt = cur.first_live_successor()
            if nxt is None or nxt in out:
                break
            out.append(nxt)
            cur = nxt
        return out

    # ------------------------------------------------------------------
    # maintenance (the Chord stabilization protocol)
    # ------------------------------------------------------------------

    def stabilize_node(self, node: ChordNode) -> None:
        """One stabilization round for ``node`` (Chord Fig. 7).

        Uses only ``node``'s own references and state readable from its
        (live) successor — the same information flow as the message
        protocol.
        """
        if not node.alive:
            return
        succ = node.first_live_successor()
        if succ is None:
            # Last resort: try to re-enter through any live finger.
            for finger in node.fingers:
                if finger is not None and finger.alive and finger is not node:
                    succ = finger
                    break
        if succ is None:
            return  # isolated; only external repair can help
        if succ is node:
            # Ring-of-one (or believed so): a joiner announces itself via
            # notify, so our own predecessor is the adoption candidate.
            x = node.predecessor
            if x is not None and x.alive and x is not node:
                succ = x
        else:
            x = succ.predecessor
            if x is not None and x.alive and x is not node and \
                    ring_between(x.node_id, node.node_id, succ.node_id):
                succ = x
        if succ is node:
            node.successors = [node]
        else:
            merged = [succ]
            for s in succ.successors:
                if s is not node and s not in merged:
                    merged.append(s)
            node.successors = merged[: self.r]
        self._notify(succ, node)

    def _notify(self, succ: ChordNode, candidate: ChordNode) -> None:
        if succ is candidate:
            return
        pred = succ.predecessor
        if pred is None or not pred.alive or pred is succ or \
                ring_between(candidate.node_id, pred.node_id, succ.node_id):
            succ.predecessor = candidate

    def fix_fingers_node(self, node: ChordNode, count: int = 1) -> None:
        """Refresh ``count`` finger entries via lookups from ``node``."""
        if not node.alive:
            return
        i = node.fix_next
        for _ in range(count):
            target = node.finger_start(i)
            result = self._route(target, node, record=False)
            if result.success:
                node.fingers[i] = result.owner
            i = (i + 1) % self.bits
        node.fix_next = i

    def maintenance_round(self) -> None:
        """Stabilize + one finger fix on every live node (test/driver helper)."""
        for node in self.live_nodes():
            self.stabilize_node(node)
        for node in self.live_nodes():
            self.fix_fingers_node(node, count=4)

    def repair(self) -> None:
        """Oracle repair: rebuild every live node's pointers exactly.

        Experiments that are not studying maintenance traffic call this
        after churn events instead of simulating thousands of stabilization
        messages (same fixed point, per the Chord convergence theorem).
        """
        self._rebuild_pointers()

    def _rebuild_pointers(self) -> None:
        """Oracle links (one sliding window over the sorted live ring) +
        finger rows (:meth:`_bulk_oracle_fingers`) for every live node:
        the shared path of :meth:`build` and :meth:`repair`."""
        live = self.live_nodes()
        if not live:
            return
        # Members made by build() or spliced straight into ``nodes`` (tests
        # exercise repair() as the ground truth that way) get their slots
        # here, in ring order.
        self._admit(live)
        self._bulk_oracle_fingers(live)
        # r successors, or every other node on a smaller ring; a ring of
        # one lists itself.
        cnt = min(self.r, len(live) - 1) or 1
        prev = live[-1]
        live += live[:cnt]  # wrap, so every successor list is one slice
        for j in range(len(live) - cnt):
            node = live[j]
            node.successors = live[j + 1:j + 1 + cnt]
            node.predecessor = prev
            prev = node

    # ------------------------------------------------------------------
    # storage helpers
    # ------------------------------------------------------------------

    def put(self, key: int, value: Any, replicas: int = 1) -> RouteResult:
        return super().put(key & self._id_mask, value, replicas)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _random_live(self) -> ChordNode | None:
        if not self._live_ids:
            return None
        nid = self._live_ids[int(self.rng.integers(0, len(self._live_ids)))]
        return self.nodes[nid]

    def _insert_live_id(self, nid: int) -> None:
        idx = bisect.bisect_left(self._live_ids, nid)
        if idx < len(self._live_ids) and self._live_ids[idx] == nid:
            raise ValueError(f"id {nid:#x} already live")
        self._live_ids.insert(idx, nid)

    def _remove_live_id(self, nid: int) -> None:
        idx = bisect.bisect_left(self._live_ids, nid)
        if idx < len(self._live_ids) and self._live_ids[idx] == nid:
            self._live_ids.pop(idx)

    def _bulk_oracle_fingers(self, live: list[ChordNode]) -> None:
        """Exact finger rows for the live nodes ``live`` (in ring order).

        Every target in ``(id, successor]`` resolves to the successor, so
        the levels with ``2^i <= gap`` (the arc to the successor) are the
        successor's slot, the identity :meth:`_oracle_pointers` uses.  Only
        the levels above the gap need a ``searchsorted`` (``bisect_left``)
        over the sorted live ids: on a ring of 100 000 random 64-bit ids
        that is ~17 levels a node, not 64.  The rows are filled 4096 ring
        positions at a time, so the transient arrays stay ~2 MB whatever
        the ring size (the benches read the process's peak resident set,
        and construction must not raise it).
        """
        n = len(live)
        bits = self.bits
        mask = np.uint64(self._id_mask)
        pow2 = self._pow2
        ids = np.fromiter(self._live_ids, dtype=np.uint64, count=n)
        dense = np.fromiter(map(operator.attrgetter("_dense"), live),
                            dtype=np.int32, count=n)
        nxt = np.arange(1, n + 1)
        nxt[-1] = 0  # the last id's successor wraps to the first
        succ = dense[nxt]
        # uint64 arithmetic wraps mod 2**64; the mask folds sub-64-bit
        # rings (2**64 is a multiple of 2**bits).  A ring of one has gap
        # 0, so all its levels are searched (and all find the node).
        gap = (ids[nxt] - ids) & mask
        segs = self._finger_segs
        shift, smask = self._SEG_SHIFT, self._SEG_MASK
        for s in range(0, n, self._SEG_ROWS):
            e = min(s + self._SEG_ROWS, n)
            rows = np.repeat(succ[s:e, None], bits, axis=1)
            # Level-major, so each level's targets rise with ring position
            # and consecutive searches land close together.
            c, r = (pow2[:, None] > gap[None, s:e]).nonzero()
            r += s
            pos = ids.searchsorted((ids[r] + pow2[c]) & mask)
            pos[pos == n] = 0  # wrapped past the last id: first id owns it
            rows[r - s, c] = dense[pos]
            dst = dense[s:e]
            seg_of = dst >> shift
            for g in np.unique(seg_of):
                sel = seg_of == g
                segs[int(g)][dst[sel] & smask] = rows[sel]

    def _oracle_pointers(self, node: ChordNode) -> None:
        """Exact pointers for one live, attached node on a ring of
        ``n > r + 1``: predecessor and successor list from the window
        around its position, fingers written as dense slots straight
        into its row."""
        ids = self._live_ids
        n = len(ids)
        nodes = self.nodes
        mask = self._id_mask
        nid = node.node_id
        win = self._live_window(bisect.bisect_left(ids, nid) - 1, self.r + 2)
        node.predecessor = win[0]
        node.successors = win[2:]
        # Every target in (nid, successor] resolves to the successor:
        # the levels with 2^i <= that gap are one slice.
        succ = win[2]
        first = ((succ.node_id - nid) & mask).bit_length()
        row = self._finger_row(node._dense)
        row[:first] = succ._dense
        bl = bisect.bisect_left
        row[first:] = [
            nodes[ids[bl(ids, (nid + (1 << i)) & mask) % n]]._dense
            for i in range(first, self.bits)]
