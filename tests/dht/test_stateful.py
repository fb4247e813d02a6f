"""Stateful property tests: random join/crash/lookup interleavings.

Hypothesis drives arbitrary membership histories against each overlay and
checks, after every step, that routing agrees with the oracle and the
structural invariants hold.  These catch ordering bugs (e.g. takeover
after cascading failures) that fixed scenarios miss.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.dht.can import CANNode, CANOverlay
from repro.dht.chord import ChordNode, ChordOverlay
from repro.dht.pastry import PastryNode, PastryOverlay
from repro.util.ids import guid_for


class ChordMachine(RuleBasedStateMachine):
    """Chord under arbitrary oracle-membership churn: full repairs and
    incremental splices interleaved."""

    bits = 64

    @initialize()
    def setup(self) -> None:
        # r = 3 and eight founders: most steps run on rings above the
        # n <= r + 1 full-repair threshold, some cross it.
        self.overlay = ChordOverlay(np.random.default_rng(0), bits=self.bits,
                                    successor_list_len=3)
        self.counter = 0
        self.member_ids = {self._mint() for _ in range(8)}
        self.overlay.build(sorted(self.member_ids))
        self.crashed_ids: set[int] = set()

    def _mint(self) -> int:
        self.counter += 1
        return guid_for(f"chord-state-{self.counter}", bits=self.bits)

    def _pick(self, ids: set[int], pick: int) -> int:
        return sorted(ids)[pick % len(ids)]

    def _crashed(self, *victims: int) -> None:
        self.member_ids.difference_update(victims)
        self.crashed_ids.update(victims)

    @rule()
    def join_node(self) -> None:
        nid = self._mint()
        if nid in self.overlay.nodes:
            return  # a 16-bit collision; dead ids return via recover_node
        self.overlay.oracle_join(ChordNode(nid, bits=self.bits))
        self.member_ids.add(nid)

    @precondition(lambda self: self.crashed_ids)
    @rule(pick=st.integers(0, 10**9))
    def recover_node(self, pick: int) -> None:
        """Re-admit a previously crashed id (the ``oracle_join`` splice
        with stale fingers still pointing at the old object)."""
        nid = self._pick(self.crashed_ids, pick)
        node = self.overlay.recover(nid)
        assert self.overlay.nodes[nid] is node and node.alive
        self.crashed_ids.discard(nid)
        self.member_ids.add(nid)

    @precondition(lambda self: len(self.member_ids) > 1)
    @rule(pick=st.integers(0, 10**9))
    def crash_node(self, pick: int) -> None:
        victim = self._pick(self.member_ids, pick)
        self.overlay.crash(victim)
        self.overlay.repair()
        self._crashed(victim)

    @precondition(lambda self: len(self.member_ids) > 1)
    @rule(pick=st.integers(0, 10**9))
    def crash_repair_node(self, pick: int) -> None:
        victim = self._pick(self.member_ids, pick)
        self.overlay.crash_repair(victim)
        self._crashed(victim)

    @precondition(lambda self: len(self.member_ids) > 2)
    @rule(pick=st.integers(0, 10**9))
    def crash_repair_node_and_successor(self, pick: int) -> None:
        """Adjacent nodes die back to back: the second splice starts
        from the pointers the first one wrote."""
        victim = self._pick(self.member_ids, pick)
        second = self.overlay.nodes[victim].successors[0].node_id
        self.overlay.crash_repair(victim)
        self.overlay.crash_repair(second)
        self._crashed(victim, second)

    @rule(key_seed=st.integers(0, 10**9))
    def lookup(self, key_seed: int) -> None:
        key = guid_for(f"chord-key-{key_seed}", bits=self.bits)
        res = self.overlay.route(key)
        assert res.success
        assert res.owner is self.overlay.successor_of(key)

    @invariant()
    def live_set_matches(self) -> None:
        assert {n.node_id for n in self.overlay.live_nodes()} == self.member_ids

    @invariant()
    def pointers_are_a_repair_fixed_point(self) -> None:
        def snapshot():
            return {n.node_id: ([s.node_id for s in n.successors],
                                n.predecessor.node_id,
                                [f.node_id for f in n.fingers])
                    for n in self.overlay.live_nodes()}
        spliced = snapshot()
        self.overlay.repair()
        assert snapshot() == spliced


class ChordMachine16(ChordMachine):
    """The same churn on a 16-bit ring (arcs wrap, ids collide)."""

    bits = 16


class CANMachine(RuleBasedStateMachine):
    """CAN under arbitrary join/crash/leave churn with immediate takeover."""

    @initialize()
    def setup(self) -> None:
        self.overlay = CANOverlay(np.random.default_rng(0), dims=3)
        self.rng = np.random.default_rng(42)
        self.counter = 0
        first = CANNode(guid_for("can-state-0"), tuple(self.rng.uniform(0, 1, 3)))
        self.overlay.join(first)
        self.member_ids = {first.node_id}

    @rule()
    def join_node(self) -> None:
        self.counter += 1
        name = f"can-state-{self.counter}"
        nid = guid_for(name)
        if nid in self.overlay.nodes:
            return
        self.overlay.join(CANNode(nid, tuple(self.rng.uniform(0, 1, 3))))
        self.member_ids.add(nid)

    @precondition(lambda self: len(self.member_ids) > 1)
    @rule(pick=st.integers(0, 10**9))
    def crash_node(self, pick: int) -> None:
        victim = sorted(self.member_ids)[pick % len(self.member_ids)]
        self.overlay.crash(victim)
        self.member_ids.discard(victim)

    @precondition(lambda self: len(self.member_ids) > 1)
    @rule(pick=st.integers(0, 10**9))
    def leave_node(self, pick: int) -> None:
        victim = sorted(self.member_ids)[pick % len(self.member_ids)]
        self.overlay.leave(victim)
        self.member_ids.discard(victim)

    @precondition(lambda self: len(self.member_ids) > 2)
    @rule(pick=st.integers(0, 10**9), nb_pick=st.integers(0, 10**9))
    def crash_node_and_a_neighbor(self, pick: int, nb_pick: int) -> None:
        """Adjacent nodes die back to back: the second takeover inherits
        from the first one's heir."""
        victim = sorted(self.member_ids)[pick % len(self.member_ids)]
        neighbors = sorted(nb.node_id for nb in self.overlay.nodes[victim].neighbors)
        second = neighbors[nb_pick % len(neighbors)]
        self.overlay.crash(victim)
        self.overlay.check_invariants()
        self.overlay.crash(second)
        self.member_ids -= {victim, second}

    @rule(seed=st.integers(0, 10**9))
    def route(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        point = tuple(rng.uniform(0, 1, 3))
        res = self.overlay.route(point)
        assert res.success
        assert res.owner is self.overlay.zone_owner(point)

    @invariant()
    def tessellation_holds(self) -> None:
        self.overlay.check_invariants()


class PastryMachine(RuleBasedStateMachine):
    """Pastry under join/crash churn with oracle repair."""

    @initialize()
    def setup(self) -> None:
        self.overlay = PastryOverlay(np.random.default_rng(0))
        self.counter = 0
        first = guid_for("pastry-state-0")
        self.overlay.build([first])
        self.member_ids = {first}

    @rule()
    def join_node(self) -> None:
        self.counter += 1
        nid = guid_for(f"pastry-state-{self.counter}")
        if nid in self.overlay.nodes:
            return
        self.overlay.join(PastryNode(nid))
        self.member_ids.add(nid)

    @precondition(lambda self: len(self.member_ids) > 1)
    @rule(pick=st.integers(0, 10**9))
    def crash_node(self, pick: int) -> None:
        victim = sorted(self.member_ids)[pick % len(self.member_ids)]
        self.overlay.crash(victim)
        self.overlay.repair()
        self.member_ids.discard(victim)

    @rule(key_seed=st.integers(0, 10**9))
    def lookup(self, key_seed: int) -> None:
        key = guid_for(f"pastry-key-{key_seed}")
        res = self.overlay.route(key)
        assert res.success
        assert res.owner is self.overlay.owner_oracle(key)


common_settings = settings(max_examples=12, stateful_step_count=30,
                           deadline=None)

TestChordStateful = ChordMachine.TestCase
TestChordStateful.settings = common_settings
TestChord16Stateful = ChordMachine16.TestCase
TestChord16Stateful.settings = common_settings
TestCANStateful = CANMachine.TestCase
TestCANStateful.settings = common_settings
TestPastryStateful = PastryMachine.TestCase
TestPastryStateful.settings = common_settings
