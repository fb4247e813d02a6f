"""Message-level Chord: every join, stabilization round, and lookup is a
real RPC exchange over the simulated network.

The structural :class:`repro.dht.chord.ChordOverlay` answers "where does
this key live" cheaply for the matchmaking experiments; this module
answers the §3.3 systems questions — *how much maintenance traffic does
the ring cost, and how stale can it get before lookups fail* — with no
oracle anywhere: nodes know only ids they learned from messages, liveness
is discovered through timeouts, and churn repairs itself through Chord's
stabilize/notify/fix-fingers protocol (Stoica et al., Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.sim.kernel import Simulator
from repro.sim.network import Message, Network
from repro.sim.process import PeriodicTask
from repro.sim.rpc import RpcLayer
from repro.util.ids import GUID_BITS, ring_add, ring_between, ring_between_right_inclusive


class ProtocolChordNode:
    """One message-level Chord participant.

    Routing state holds *ids only* (addresses) — everything a node knows
    arrived in a message.  The node also acts as the RPC server for the
    Chord methods (``find_next``, ``get_state``, ``notify``, ``ping``).
    """

    def __init__(self, node_id: int, net: "ChordProtocolNetwork"):
        self.node_id = node_id
        self.net = net
        self.alive = True
        self.bits = net.bits
        self.successors: list[int] = []
        self.predecessor: int | None = None
        self.fingers: list[int | None] = [None] * net.bits
        self._next_finger = 0
        self._fallback_rotation = 0

    # -- endpoint ----------------------------------------------------------

    def handle_message(self, msg: Message) -> None:
        if not self.net.rpc.handle_message(self.node_id, msg):
            raise ValueError(f"unexpected message kind {msg.kind!r}")

    # -- RPC server --------------------------------------------------------

    def serve(self, method: str, payload, respond: Callable) -> None:
        if method == "find_next":
            key, excluded = payload
            respond(self._find_next(key, excluded))
        elif method == "get_state":
            respond((self.predecessor, list(self.successors)))
        elif method == "notify":
            self._notify(payload)
            respond(True)
        elif method == "ping":
            respond(True)
        else:  # pragma: no cover - defensive
            respond(None)

    def _find_next(self, key: int, excluded: tuple[int, ...]):
        """One iterative-lookup step: either the key's owner (our first
        acceptable successor) or the closest preceding node we know."""
        succ = next((s for s in self.successors if s not in excluded), None)
        if succ is None:
            return ("dead-end", None)
        if succ == self.node_id or \
                ring_between_right_inclusive(key, self.node_id, succ):
            return ("owner", succ)
        best = None
        for finger in reversed(self.fingers):
            if finger is not None and finger not in excluded and \
                    ring_between(finger, self.node_id, key):
                best = finger
                break
        if best is None:
            for s in self.successors:
                if s not in excluded and ring_between(s, self.node_id, key):
                    best = s
        if best is None:
            return ("owner", succ)  # nothing closer known: hand to successor
        return ("forward", best)

    def _notify(self, candidate: int) -> None:
        if candidate == self.node_id:
            return
        if self.predecessor is None or \
                ring_between(candidate, self.predecessor, self.node_id):
            self.predecessor = candidate

    # -- maintenance (client side, real RPCs) --------------------------------

    def stabilize(self) -> None:
        """One stabilization round (Chord Fig. 7, over real messages)."""
        if not self.alive:
            return
        succ = self.successors[0] if self.successors else None
        if succ is None or succ == self.node_id:
            # Ring-of-one: adopt whoever notified us.
            if self.predecessor is not None and self.predecessor != self.node_id:
                self.successors = [self.predecessor]
                self.net.rpc.call(self.node_id, self.predecessor, "notify",
                                  self.node_id, lambda _: None, lambda: None)
            return

        def on_reply(state) -> None:
            if not self.alive:
                return
            pred, succ_list = state
            new_succ = succ
            if pred is not None and pred != self.node_id and \
                    ring_between(pred, self.node_id, succ):
                new_succ = pred
            merged = [new_succ]
            if new_succ == succ:
                for s in succ_list:
                    if s != self.node_id and s not in merged:
                        merged.append(s)
            elif succ not in merged:
                merged.append(succ)
            self.successors = merged[: self.net.succ_list_len]
            self.net.rpc.call(self.node_id, new_succ, "notify", self.node_id,
                              lambda _: None, lambda: None)

        def on_timeout() -> None:
            if not self.alive:
                return
            # Successor presumed dead: fail over to the next list entry.
            if self.successors and self.successors[0] == succ:
                self.successors.pop(0)
            if not self.successors:
                # Cut off: rotate through *every* other contact we know
                # (predecessor, fingers), one per round.  Always trying the
                # same stale finger would wedge the node in a one-member
                # island forever; rotation reaches a live contact if we
                # know any.
                candidates: list[int] = []
                if self.predecessor is not None and \
                        self.predecessor != self.node_id:
                    candidates.append(self.predecessor)
                for f in self.fingers:
                    if f is not None and f != self.node_id \
                            and f not in candidates and f != succ:
                        candidates.append(f)
                if candidates:
                    pick = candidates[self._fallback_rotation % len(candidates)]
                    self._fallback_rotation += 1
                    self.successors = [pick]
                else:
                    self.successors = [self.node_id]

        self.net.rpc.call(self.node_id, succ, "get_state", None,
                          on_reply, on_timeout)

    def fix_one_finger(self) -> None:
        if not self.alive:
            return
        i = self._next_finger
        self._next_finger = (self._next_finger + 1) % self.bits
        target = ring_add(self.node_id, 1 << i, bits=self.bits)

        def on_done(owner: int | None, hops: int) -> None:
            if owner is not None and self.alive:
                self.fingers[i] = owner

        self.net.lookup(target, self.node_id, on_done, record=False)

    def check_predecessor(self) -> None:
        if not self.alive or self.predecessor is None:
            return
        pred = self.predecessor

        def on_timeout() -> None:
            if self.predecessor == pred:
                self.predecessor = None

        self.net.rpc.call(self.node_id, pred, "ping", None,
                          lambda _: None, on_timeout)


@dataclass
class ProtocolLookupStats:
    started: int = 0
    succeeded: int = 0
    failed: int = 0
    total_queries: int = 0
    results: list[tuple[int, int | None, int]] = field(default_factory=list)

    @property
    def mean_queries(self) -> float:
        return self.total_queries / self.started if self.started else float("nan")


class ChordProtocolNetwork:
    """Factory/driver for a message-level Chord deployment."""

    def __init__(self, sim: Simulator, network: Network,
                 rng: np.random.Generator,
                 bits: int = GUID_BITS, succ_list_len: int = 8,
                 rpc_timeout: float = 0.5,
                 stabilize_interval: float = 5.0,
                 finger_fixes_per_round: int = 2):
        self.sim = sim
        self.network = network
        self.rng = rng
        self.rpc = RpcLayer(sim, network, default_timeout=rpc_timeout)
        self.bits = bits
        self.succ_list_len = succ_list_len
        self.stabilize_interval = stabilize_interval
        self.finger_fixes_per_round = finger_fixes_per_round
        self.nodes: dict[int, ProtocolChordNode] = {}
        self._tasks: dict[int, PeriodicTask] = {}
        self.lookup_stats = ProtocolLookupStats()

    # -- membership -------------------------------------------------------

    def create(self, node_id: int) -> ProtocolChordNode:
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id {node_id:#x}")
        node = ProtocolChordNode(node_id, self)
        self.nodes[node_id] = node
        self.network.register(node)
        self.rpc.serve(node_id, node.serve)
        return node

    def bootstrap(self, node_id: int) -> ProtocolChordNode:
        """The first node: a ring of one."""
        node = self.create(node_id)
        node.successors = [node_id]
        node.predecessor = node_id
        self._start_maintenance(node)
        return node

    def join(self, node_id: int, bootstrap_id: int,
             on_done: Callable[[bool], None] | None = None,
             retries: int | None = None, retry_backoff: float = 5.0,
             contacts: Callable[[], int | None] | None = None
             ) -> ProtocolChordNode:
        """Protocol join: look up our own id through a bootstrap contact.

        A failed join attempt (bootstrap dead or lookup dead-ended mid-
        churn) retries after ``retry_backoff`` seconds, via ``contacts()``
        when provided (e.g. "any currently live node") else the original
        bootstrap.  ``retries=None`` (default) retries until the node
        itself crashes — a real deployment's joining node keeps knocking.
        """
        node = self.create(node_id)

        def attempt(tries_left: int | None, contact: int) -> None:
            def joined(owner: int | None, hops: int) -> None:
                if not node.alive:
                    if on_done:
                        on_done(False)
                    return
                if owner is None or owner == node_id:
                    if tries_left is None:
                        self.sim.schedule(retry_backoff, retry, None)
                    elif tries_left > 0:
                        self.sim.schedule(retry_backoff, retry, tries_left - 1)
                    elif on_done:
                        on_done(False)
                    return
                node.successors = [owner]
                self.rpc.call(node_id, owner, "notify", node_id,
                              lambda _: None, lambda: None)
                self._start_maintenance(node)
                if on_done:
                    on_done(True)

            self.lookup(node.node_id, contact, joined, record=False,
                        exclude=(node_id,))

        def retry(tries_left: int | None) -> None:
            contact = contacts() if contacts is not None else bootstrap_id
            if contact is None or contact == node_id:
                contact = bootstrap_id
            attempt(tries_left, contact)

        attempt(retries, bootstrap_id)
        return node

    def crash(self, node_id: int) -> None:
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            return
        node.alive = False
        self.rpc.unserve(node_id)
        task = self._tasks.pop(node_id, None)
        if task is not None:
            task.stop()

    def recover(self, node_id: int, bootstrap_id: int,
                contacts: Callable[[], int | None] | None = None
                ) -> ProtocolChordNode:
        """Rejoin after a crash with fresh state (same identity)."""
        old = self.nodes.pop(node_id, None)
        if old is not None and old.alive:
            raise ValueError(f"node {node_id:#x} is not crashed")
        self.network.unregister(node_id)
        return self.join(node_id, bootstrap_id, contacts=contacts)

    def live_ids(self) -> list[int]:
        return sorted(nid for nid, n in self.nodes.items() if n.alive)

    def _start_maintenance(self, node: ProtocolChordNode) -> None:
        def round_() -> None:
            node.stabilize()
            node.check_predecessor()
            for _ in range(self.finger_fixes_per_round):
                node.fix_one_finger()

        self._tasks[node.node_id] = PeriodicTask(
            self.sim, self.stabilize_interval, round_,
            rng=self.rng, jitter=0.2)

    # -- lookups ------------------------------------------------------------

    def lookup(self, key: int, start_id: int,
               on_done: Callable[[int | None, int], None],
               record: bool = True, max_queries: int | None = None,
               exclude: tuple[int, ...] = ()) -> None:
        """Iterative lookup driven by the initiating node.

        Each hop is one ``find_next`` RPC; a timed-out hop is excluded and
        the *previous* responsive node is asked again, exactly like a real
        iterative resolver retrying around a dead peer.  ``exclude`` seeds
        the exclusion set (a rejoining node excludes *itself* so stale ring
        state naming it as owner cannot satisfy its own join lookup).
        """
        key &= (1 << self.bits) - 1
        limit = max_queries if max_queries is not None \
            else max(32, 4 * max(2, len(self.nodes)).bit_length() + 16)
        state = {"queries": 0, "excluded": set(exclude), "done": False}
        if record:
            self.lookup_stats.started += 1

        def finish(owner: int | None) -> None:
            if state["done"]:
                return
            state["done"] = True
            if record:
                self.lookup_stats.total_queries += state["queries"]
                if owner is not None:
                    self.lookup_stats.succeeded += 1
                else:
                    self.lookup_stats.failed += 1
                self.lookup_stats.results.append(
                    (key, owner, state["queries"]))
            on_done(owner, state["queries"])

        def ask(target: int, retry_from: int | None) -> None:
            if state["queries"] >= limit:
                finish(None)
                return
            state["queries"] += 1

            def on_reply(result) -> None:
                kind, value = result
                if kind == "owner":
                    # Verify the owner answers (it may be freshly dead).
                    if value == target:
                        finish(value)
                        return
                    self.rpc.call(start_id, value, "ping", None,
                                  lambda _: finish(value),
                                  lambda: retry_excluding(value, target))
                elif kind == "forward":
                    ask(value, retry_from=target)
                else:  # dead-end
                    finish(None)

            def on_timeout() -> None:
                retry_excluding(target, retry_from)

            self.rpc.call(start_id, target, "find_next",
                          (key, tuple(state["excluded"])),
                          on_reply, on_timeout)

        def retry_excluding(dead: int, retry_from: int | None) -> None:
            state["excluded"].add(dead)
            fallback = retry_from if retry_from is not None and \
                retry_from not in state["excluded"] else start_id
            if fallback in state["excluded"]:
                finish(None)
                return
            ask(fallback, retry_from=None)

        ask(start_id, retry_from=None)

    # -- verification helpers (tests only) -------------------------------------

    def ring_consistent(self) -> bool:
        """True iff following live successor pointers from the minimum id
        visits every live node exactly once (a converged ring)."""
        live = self.live_ids()
        if not live:
            return True
        visited = []
        cur = live[0]
        for _ in range(len(live) + 1):
            visited.append(cur)
            node = self.nodes[cur]
            nxt = next((s for s in node.successors
                        if s in self.nodes and self.nodes[s].alive), None)
            if nxt is None:
                return len(live) == 1
            cur = nxt
            if cur == live[0]:
                break
        return sorted(visited) == live

    def oracle_owner(self, key: int) -> int | None:
        live = self.live_ids()
        if not live:
            return None
        key &= (1 << self.bits) - 1
        import bisect

        idx = bisect.bisect_left(live, key)
        return live[idx % len(live)]
