"""Chord: construction, lookup correctness, stabilization, storage, churn."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dht.base import RouteResult
from repro.dht.chord import ChordNode, ChordOverlay
from repro.util.ids import guid_for


def build_overlay(n, seed=0, **kwargs):
    ov = ChordOverlay(np.random.default_rng(seed), **kwargs)
    ids = sorted({guid_for(f"chord-{seed}-{i}") for i in range(n)})
    ov.build(ids)
    return ov


class TestOracleConstruction:
    def test_ring_of_one(self):
        ov = build_overlay(1)
        node = ov.live_nodes()[0]
        assert node.successors == [node]
        assert node.predecessor is node
        res = ov.route(guid_for("anything"))
        assert res.success and res.owner is node and res.hops == 0

    def test_successor_pointers_sorted(self):
        ov = build_overlay(50)
        live = ov.live_nodes()
        ids = [n.node_id for n in live]
        for i, node in enumerate(live):
            assert node.successors[0].node_id == ids[(i + 1) % len(ids)]
            assert node.predecessor.node_id == ids[(i - 1) % len(ids)]

    def test_fingers_point_at_true_successors(self):
        ov = build_overlay(30)
        for node in ov.live_nodes():
            for i, finger in enumerate(node.fingers):
                target = node.finger_start(i)
                assert finger is ov.successor_of(target)

    def test_duplicate_ids_rejected(self):
        ov = ChordOverlay(np.random.default_rng(0))
        with pytest.raises(ValueError):
            ov.build([5, 5])
        # A refused batch changes nothing, even when its duplicate comes
        # after fresh ids, and a later build admits only its own ids.
        with pytest.raises(ValueError):
            ov.build([5, 9, 5])
        assert (ov.nodes, ov._by_dense, ov.size) == ({}, [], 0)
        (node,) = ov.build([100])
        assert list(ov.nodes) == [100] and ov._by_dense == [node]
        assert ov.size == 1
        with pytest.raises(ValueError):
            ov.build([7, 100])  # clashes with a member
        ov.crash(100)
        with pytest.raises(ValueError):
            ov.build([100])  # a dead member's id is taken too
        assert (list(ov.nodes), ov._by_dense, ov.size) == ([100], [node], 0)

    @pytest.mark.parametrize("dead", [False, True])
    @pytest.mark.parametrize("entry", ["join", "oracle_join"])
    def test_member_id_rejected_by_single_joins(self, entry, dead):
        """A joiner whose id a member (live or crashed) holds is refused
        and leaves the overlay as it was."""
        ov = ChordOverlay(np.random.default_rng(0), bits=8)
        ov.build([10, 90, 170])
        if dead:
            ov.crash(90)
        before = (dict(ov.nodes), list(ov._by_dense), list(ov._live_ids),
                  ov.size)
        with pytest.raises(ValueError, match="duplicate node id 0x5a"):
            getattr(ov, entry)(ChordNode(90, bits=8))
        assert (ov.nodes, ov._by_dense, ov._live_ids, ov.size) == before
        assert ov.nodes[90].alive is not dead

    @pytest.mark.parametrize("entry", ["build", "join", "oracle_join",
                                       "recover", "protocol_recover"])
    @pytest.mark.parametrize("bad", [-1, 1 << 8])
    def test_ids_off_the_ring_rejected(self, bad, entry):
        """Every admission path refuses an id off the ring and leaves the
        overlay as it was."""
        ov = ChordOverlay(np.random.default_rng(0), bits=8)
        if entry == "build":
            with pytest.raises(ValueError, match="outside the 8-bit ring"):
                ov.build([3, bad, 200])
            assert (ov.nodes, ov._by_dense, ov.size) == ({}, [], 0)
        ov.build([0, 255])  # both ends of the ring are ids
        assert ov.size == 2
        if entry in ("recover", "protocol_recover"):
            # A crashed member holding the id, as an unchecked join once
            # admitted: recover must not bring it back.
            ghost = ChordNode(bad, bits=8)
            ghost.alive = False
            ov.nodes[bad] = ghost

        def state():
            return (dict(ov.nodes), list(ov._by_dense), list(ov._live_ids),
                    ov.size)

        before = state()
        with pytest.raises(ValueError, match="outside the 8-bit ring"):
            if entry == "build":
                ov.build([bad])
            elif entry == "recover":
                ov.recover(bad)
            elif entry == "protocol_recover":
                ov.recover(bad, oracle=False)
            else:
                getattr(ov, entry)(ChordNode(bad, bits=8))
        assert state() == before


class TestNodeViews:
    def test_finger_indexing_matches_iteration(self):
        ov = build_overlay(30)
        for node in ov.live_nodes():
            row = node.fingers
            by_index = [row[i] for i in range(len(row))]
            assert by_index == list(row)
            assert list(reversed(row)) == by_index[::-1]


class TestRouteAccounting:
    def test_route_result_truthiness_is_success(self):
        ov = build_overlay(5)
        res = ov.route(guid_for("k"))
        assert res and res.success
        assert not RouteResult(success=False, owner=None, hops=2)

    def test_overlay_records_every_route(self):
        ov = build_overlay(50)
        stats = ov.lookup_stats
        before = (stats.lookups, stats.total_hops)
        hops = [ov.route(guid_for(f"acct-{i}")).hops for i in range(20)]
        assert (stats.lookups, stats.total_hops) == \
            (before[0] + 20, before[1] + sum(hops))

class TestLookup:
    def test_owner_matches_oracle(self):
        ov = build_overlay(100)
        for i in range(300):
            key = guid_for(f"key-{i}")
            res = ov.route(key)
            assert res.success
            assert res.owner is ov.successor_of(key)

    def test_hops_logarithmic(self):
        ov = build_overlay(256)
        hops = []
        for i in range(300):
            res = ov.route(guid_for(f"k{i}"))
            hops.append(res.hops)
        # Chord: expected (1/2) log2 N ~= 4; generous bound.
        assert np.mean(hops) < 2 * np.log2(256)
        assert max(hops) <= 4 * np.log2(256)

    def test_lookup_from_specific_start(self):
        ov = build_overlay(64)
        start = ov.live_nodes()[5]
        key = guid_for("from-start")
        res = ov.route(key, start=start)
        assert res.success and res.path[0] == start.node_id
        assert res.owner is ov.successor_of(key)

    def test_lookup_key_owned_by_start(self):
        ov = build_overlay(64)
        node = ov.live_nodes()[3]
        res = ov.route(node.node_id, start=node)
        assert res.success and res.owner is node

    def test_stats_recorded(self):
        ov = build_overlay(32)
        for i in range(10):
            ov.route(guid_for(f"s{i}"))
        assert ov.lookup_stats.lookups == 10
        assert ov.lookup_stats.total_hops > 0

    def test_empty_overlay_lookup_fails(self):
        ov = ChordOverlay(np.random.default_rng(0))
        res = ov.route(123)
        assert not res.success


class TestProtocolJoinAndStabilize:
    def test_sequential_joins_converge(self):
        ov = ChordOverlay(np.random.default_rng(1))
        ov.join(ChordNode(guid_for("seed")))
        for i in range(30):
            ov.join(ChordNode(guid_for(f"join-{i}")))
            ov.maintenance_round()
            ov.maintenance_round()
        for i in range(100):
            key = guid_for(f"jk{i}")
            res = ov.route(key)
            assert res.success and res.owner is ov.successor_of(key)

    def test_join_collision_rejected(self):
        ov = ChordOverlay(np.random.default_rng(1))
        ov.join(ChordNode(guid_for("a")))
        with pytest.raises(ValueError):
            ov.join(ChordNode(guid_for("a")))

    def test_stabilization_fixes_crashed_successor(self):
        ov = build_overlay(20)
        live = ov.live_nodes()
        victim = live[3]
        pred = live[2]
        ov.crash(victim.node_id)
        # Before repair the predecessor's successor list starts with a
        # corpse; stabilization must splice it out.
        assert not pred.successors[0].alive
        for _ in range(3):
            ov.maintenance_round()
        assert pred.first_live_successor() is ov.successor_of(
            (pred.node_id + 1) % (1 << pred.bits))

    def test_oracle_join_after_build(self):
        ov = build_overlay(20)
        newcomer = ChordNode(guid_for("late-arrival"))
        ov.oracle_join(newcomer)
        assert newcomer.alive
        res = ov.route(newcomer.node_id)
        assert res.owner is newcomer


class TestStorage:
    def test_put_get_roundtrip(self):
        ov = build_overlay(40)
        key = guid_for("data")
        ov.put(key, {"payload": 1}, replicas=3)
        res, value = ov.get(key, replicas=3)
        assert res.success and value == {"payload": 1}

    def test_replicas_placed_on_successors(self):
        ov = build_overlay(40)
        key = guid_for("replicated")
        ov.put(key, "v", replicas=3)
        owner = ov.successor_of(key)
        holders = [n for n in ov.live_nodes() if key in n.store]
        assert len(holders) == 3
        assert owner in holders

    def test_value_survives_owner_crash(self):
        ov = build_overlay(40)
        key = guid_for("precious")
        ov.put(key, "keep-me", replicas=3)
        ov.crash(ov.successor_of(key).node_id)
        ov.repair()
        _, value = ov.get(key, replicas=3)
        assert value == "keep-me"

    def test_value_lost_when_all_replicas_crash(self):
        ov = build_overlay(40)
        key = guid_for("fragile")
        ov.put(key, "v", replicas=1)
        ov.crash(ov.successor_of(key).node_id)
        ov.repair()
        _, value = ov.get(key, replicas=1)
        assert value is None

    def test_graceful_leave_hands_off_keys(self):
        ov = build_overlay(40)
        key = guid_for("handoff")
        ov.put(key, "moved", replicas=1)
        owner = ov.successor_of(key)
        ov.leave(owner.node_id)
        _, value = ov.get(key, replicas=1)
        assert value == "moved"


class TestChurn:
    @settings(max_examples=20, deadline=None)
    @given(crash_seed=st.integers(0, 10_000))
    def test_lookups_correct_after_random_crashes(self, crash_seed):
        ov = build_overlay(60, seed=crash_seed % 7)
        rng = np.random.default_rng(crash_seed)
        live = ov.live_nodes()
        victims = rng.choice(len(live), size=len(live) // 3, replace=False)
        for idx in victims:
            ov.crash(live[idx].node_id)
        ov.repair()
        for i in range(30):
            key = guid_for(f"churn-{crash_seed}-{i}")
            res = ov.route(key)
            assert res.success
            assert res.owner is ov.successor_of(key)

    def test_crash_then_recover(self):
        ov = build_overlay(20)
        victim = ov.live_nodes()[4]
        nid = victim.node_id
        ov.crash(nid)
        assert ov.size == 19
        node = ov.recover(nid)
        assert ov.size == 20
        assert node.alive and node.store == {}
        res = ov.route(nid)
        assert res.owner is node

    @pytest.mark.parametrize("oracle", [True, False])
    def test_recover_of_live_node_is_rejected_without_side_effects(self, oracle):
        ov = build_overlay(20)
        victim = ov.live_nodes()[4]
        nid = victim.node_id
        with pytest.raises(ValueError, match="not crashed"):
            ov.recover(nid, oracle=oracle)
        # Nothing moved: same object behind the id, same live ring.
        assert ov.nodes[nid] is victim and victim.alive
        assert ov.size == 20
        assert victim in ov.live_nodes()
        for i in range(30):
            key = guid_for(f"rejected-recover-{i}")
            res = ov.route(key)
            assert res.success and res.owner is ov.successor_of(key)
        assert ov.route(nid).owner is victim
        with pytest.raises(KeyError):
            ov.recover(guid_for("never-a-member"))
        assert ov.size == 20

    def test_survives_with_successor_list_redundancy(self):
        # Kill a *run* of consecutive nodes shorter than the successor
        # list; routing must still succeed without oracle repair.
        ov = build_overlay(40, successor_list_len=8)
        live = ov.live_nodes()
        for node in live[5:10]:  # 5 consecutive < r=8
            ov.crash(node.node_id)
        for i in range(50):
            key = guid_for(f"redundancy-{i}")
            res = ov.route(key)
            assert res.success
            assert res.owner is ov.successor_of(key)
