"""The RN-Tree parent rule's closed form against the bit-clearing walk.

The paper's rule clears the lowest set bit of a node's id until the Chord
successor of the result is some other node.  ``parent_point`` jumps
straight to where that walk stops: ``node >> k << k`` with
``k = (node ^ pred).bit_length()``, ``pred`` the live predecessor, and no
point at all for the root (alone, or the smallest id).  The walk itself is
kept here, only as the reference.
"""

import bisect
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from repro.dht.chord import ChordOverlay
from repro.match.rntree import RendezvousTreeMatchmaker, parent_point

from tests.conftest import make_small_grid


def walk_parent(successor, node_id: int) -> int | None:
    """The bit-clearing walk: clear the lowest set bit until the successor
    of the result is not ``node_id``; ``None`` when it reaches 0 first."""
    x = node_id
    while x:
        x &= x - 1
        succ = successor(x)
        if succ != node_id:
            return succ
    return None


def closed_parent(chord: ChordOverlay, node_id: int) -> int | None:
    point = parent_point(node_id, chord.predecessor_id(node_id))
    return None if point is None else chord.successor_of(point).node_id


def ring(ids, bits: int) -> ChordOverlay:
    chord = ChordOverlay(np.random.default_rng(0), bits=bits)
    chord.build(list(ids))
    return chord


def assert_closed_form_matches_walk(chord: ChordOverlay) -> None:
    def successor(x):
        return chord.successor_of(x).node_id

    for node in chord.live_nodes():
        assert closed_parent(chord, node.node_id) == \
            walk_parent(successor, node.node_id), hex(node.node_id)


class TestClosedForm:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_64_bit_rings(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 if seed == 0 else 500 if seed == 1 else int(rng.integers(2, 501))
        ids = {int(v) for v in rng.integers(0, 2**64, size=n, dtype=np.uint64)}
        assert_closed_form_matches_walk(ring(ids, 64))

    @pytest.mark.parametrize("ids", [
        (0, 5, 9, 200),          # id 0 live: the root, probed by everyone
        (4, 5, 6, 7),            # adjacent ids (gap 1)
        (127, 128),              # adjacent across the top bit
        (3, 200),                # a ring of two
        (0, 255),                # the ring's two ends
        (17,),                   # alone
        (1, 2, 4, 8, 16, 32, 64, 128),  # one bit each
        (254, 255),              # the top of the ring
    ])
    def test_8_bit_edge_rings(self, ids):
        assert_closed_form_matches_walk(ring(ids, 8))

    def test_smallest_id_is_the_root(self):
        chord = ring((40, 41, 90, 95), 8)
        assert closed_parent(chord, 40) is None
        assert walk_parent(lambda x: chord.successor_of(x).node_id, 40) is None
        assert [closed_parent(chord, n) for n in (41, 90, 95)] == [40, 40, 90]

    def test_every_4_bit_ring(self):
        # Exhaustive over the 2**16 - 1 non-empty rings of a 4-bit space,
        # with the successor read off the sorted ids.
        for mask in range(1, 1 << 16):
            ids = [i for i in range(16) if mask >> i & 1]

            def successor(x, ids=ids):
                return ids[bisect.bisect_left(ids, x) % len(ids)]

            for pos, nid in enumerate(ids):
                point = parent_point(nid, ids[pos - 1])
                closed = None if point is None else successor(point)
                assert closed == walk_parent(successor, nid), (ids, nid)

    def test_point_is_the_first_truncation_at_or_below_the_predecessor(self):
        # The one-line proof: every longer truncation of the id lies in
        # (pred, node], the node's own arc, so the walk passes it by.
        for node, pred in itertools.product(range(64), range(64)):
            point = parent_point(node, pred)
            if pred >= node:
                assert point is None
                continue
            truncations = [node >> j << j for j in range(node.bit_length() + 1)]
            assert point in truncations and point <= pred
            assert all(pred < t <= node for t in truncations if t > point)


class TestMatchmakerTree:
    def test_bound_tree_follows_the_walk(self):
        grid = make_small_grid("rn-tree", n_nodes=120)
        mm = grid.matchmaker

        def successor(x):
            return mm.chord.successor_of(x).node_id

        assert {nid: t.parent_id for nid, t in mm.tree.items()} == \
            {nid: walk_parent(successor, nid) for nid in mm.tree}

    def test_join_in_own_arc_re_parents_the_successor(self):
        # On an 8-bit ring {10, 128, 192, 250}, 192's walk ends at 128
        # (its predecessor), so its parent is 128.  With 128 down, 192's
        # whole walk down to 128 lies in its own arc (10, 192], so it
        # stops at 0 and 10 is the parent.  When 128 rejoins, 192's parent
        # point is still 0 (outside the joiner's arc (10, 128]); only the
        # successor re-evaluation sees that the walk now stops at 128.
        mm = RendezvousTreeMatchmaker()
        ids = (10, 128, 192, 250)
        mm.grid = SimpleNamespace(nodes={nid: SimpleNamespace(capability=(
            float(nid),)) for nid in ids})
        mm.chord = ring(ids, 8)
        mm._rebuild_tree()
        assert mm.tree[192].parent_id == 128

        mm.on_crash(SimpleNamespace(node_id=128))
        assert mm.tree[192].parent_id == 10
        assert mm._probe_points[192] == 0

        mm.on_join(SimpleNamespace(node_id=128))
        assert mm.chord.size == 4  # the incremental path, not a rebuild
        assert mm.tree[192].parent_id == 128
        assert mm.tree[128].children == [192]
        assert mm.tree[10].children == [128]
        assert mm.tree[10].subtree_max == (250.0,)
        assert mm._probe_list == [(0, 128), (128, 192), (192, 250)]
