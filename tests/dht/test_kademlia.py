"""Kademlia: buckets, iterative lookup, storage, crash behaviour."""

import numpy as np
import pytest

from repro.dht.kademlia import KademliaNode, KademliaOverlay
from repro.util.ids import guid_for


def build_overlay(n, seed=0, **kwargs):
    ov = KademliaOverlay(np.random.default_rng(seed), **kwargs)
    ids = sorted({guid_for(f"kad-{seed}-{i}") for i in range(n)})
    ov.build(ids)
    return ov


class TestBuckets:
    def test_bucket_index_is_xor_msb(self):
        node = KademliaNode(0b1000, bits=8)
        assert node.bucket_index(0b1001) == 0
        assert node.bucket_index(0b1100) == 2
        assert node.bucket_index(0b0000) == 3

    def test_no_bucket_for_self(self):
        node = KademliaNode(5)
        with pytest.raises(ValueError):
            node.bucket_index(5)

    def test_observe_dedupes_and_moves_to_tail(self):
        a = KademliaNode(0, bits=8, k=4)
        b = KademliaNode(2, bits=8, k=4)  # xor 2 -> bucket 1
        c = KademliaNode(3, bits=8, k=4)  # xor 3 -> bucket 1
        a.observe(b)
        a.observe(c)
        a.observe(b)  # seen again -> tail
        bucket = a.buckets[1]
        assert bucket == [c, b]

    def test_full_bucket_drops_newcomer_when_all_live(self):
        a = KademliaNode(0, bits=8, k=2)
        peers = [KademliaNode(i, bits=8, k=2) for i in (4, 5, 6, 7)]
        for p in peers:
            a.observe(p)
        assert len(a.buckets[2]) == 2
        assert peers[0] in a.buckets[2] and peers[1] in a.buckets[2]

    def test_full_bucket_evicts_dead_lru(self):
        a = KademliaNode(0, bits=8, k=2)
        p1, p2, p3 = (KademliaNode(i, bits=8, k=2) for i in (4, 5, 6))
        a.observe(p1)
        a.observe(p2)
        p1.alive = False
        a.observe(p3)
        assert p1 not in a.buckets[2]
        assert p3 in a.buckets[2]

    def test_observe_self_is_noop(self):
        a = KademliaNode(0, bits=8)
        a.observe(a)
        assert all(not b for b in a.buckets)


class TestLookup:
    def test_finds_globally_closest_node(self):
        ov = build_overlay(150)
        for i in range(200):
            key = guid_for(f"target-{i}")
            res = ov.route(key)
            assert res.success
            assert res.owner is ov.owner_oracle(key)

    def test_query_cost_logarithmic(self):
        ov = build_overlay(256)
        hops = []
        for i in range(200):
            hops.append(ov.route(guid_for(f"q{i}")).hops)
        # ~alpha * log2(N) queries; generous cap.
        assert np.mean(hops) < 6 * np.log2(256)

    def test_lookup_after_crashes(self):
        ov = build_overlay(100)
        for node in ov.live_nodes()[::3]:
            ov.crash(node.node_id)
        for i in range(100):
            key = guid_for(f"post-crash-{i}")
            res = ov.route(key)
            assert res.success
            assert res.owner is ov.owner_oracle(key)

    def test_empty_overlay(self):
        ov = KademliaOverlay(np.random.default_rng(0))
        assert not ov.route(42).success


    def test_size_tracks_crashes(self):
        ov = build_overlay(20)
        assert ov.size == 20 == len(ov.live_nodes())
        victim = ov.live_nodes()[3]
        ov.crash(victim.node_id)
        ov.crash(victim.node_id)  # idempotent
        assert ov.size == 19
        assert victim not in ov.live_nodes()

class TestStorage:
    def test_put_get(self):
        ov = build_overlay(80)
        key = guid_for("kv")
        ov.put(key, "value")
        _, v = ov.get(key, replicas=8)
        assert v == "value"

    def test_put_replicates_to_k_closest(self):
        ov = build_overlay(80, k=8)
        key = guid_for("replicated")
        ov.put(key, "v")
        holders = sorted((n for n in ov.live_nodes() if key in n.store),
                         key=lambda n: n.node_id ^ key)
        assert len(holders) == 8
        # The holders are exactly the globally closest nodes.
        closest = sorted(ov.live_nodes(), key=lambda n: n.node_id ^ key)[:8]
        assert holders == closest

    def test_value_survives_partial_crash(self):
        ov = build_overlay(80, k=8)
        key = guid_for("durable")
        ov.put(key, "v")
        # Kill half the replica set.
        closest = sorted(ov.live_nodes(), key=lambda n: n.node_id ^ key)[:4]
        for n in closest:
            ov.crash(n.node_id)
        _, v = ov.get(key, replicas=8)
        assert v == "v"


class TestJoin:
    def test_join_announces_to_network(self):
        ov = build_overlay(50)
        newcomer = KademliaNode(guid_for("late"), k=8)
        ov.join(newcomer)
        # The newcomer is findable.
        res = ov.route(newcomer.node_id)
        assert res.owner is newcomer

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            KademliaOverlay(np.random.default_rng(0), k=0)
