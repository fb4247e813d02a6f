"""The Chord routing kernel vs the code it replaced.

``ChordOverlay._closest_finger`` is one top-down scan over the finger row
with the ring-interval test inlined as clockwise offsets, and ``_route``
inlines the successor walk and the ownership test the same way.  The
scalar reverse scan over ``ring_between`` they replaced (and the hop loop
over ``first_live_successor`` / ``ring_between_right_inclusive``) is kept
here as the oracle: routes must agree on ``(success, owner, hops, path)``
and on every RNG draw, on oracle-built rings of every size and id width,
on protocol-joined rings whose fingers are lazy or stale (rows whose
offsets do not grow with level), and on rows full of dead or empty slots.
"""

import bisect

import numpy as np
import pytest

from repro.dht.chord import ChordNode, ChordOverlay
from repro.util.ids import ring_between, ring_between_right_inclusive


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------

def reference_closest_preceding(node: ChordNode, key: int) -> ChordNode:
    """Reverse scan of the finger table, then the successor list."""
    for finger in reversed(node.fingers):
        if finger is not None and finger.alive and \
                ring_between(finger.node_id, node.node_id, key):
            return finger
    best = node
    for succ in node.successors:
        if succ.alive and ring_between(succ.node_id, node.node_id, key):
            best = succ
    return best


def reference_route(ov: ChordOverlay, key: int, start):
    """The hop loop over the helper functions, one call per test."""
    key &= (1 << ov.bits) - 1
    ids = ov._live_ids
    if start is None or not start.alive:
        start = ov.nodes[ids[int(ov.rng.integers(0, len(ids)))]] if ids else None
    if start is None:
        return False, None, 0, []
    max_hops = max(64, 2 * len(ids) + 16)
    cur, hops, path = start, 0, [start.node_id]
    success, owner = False, None
    while hops <= max_hops:
        succ = next((s for s in cur.successors if s.alive), None)
        if succ is None:
            break
        if succ is cur or ring_between_right_inclusive(
                key, cur.node_id, succ.node_id):
            owner, success = succ, True
            if succ is not cur:
                hops += 1
                path.append(succ.node_id)
            break
        nxt = reference_closest_preceding(cur, key)
        if nxt is cur:
            nxt = succ
        cur = nxt
        hops += 1
        path.append(cur.node_id)
    return success, owner, hops, path


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _ids(rng, n: int, bits: int) -> list[int]:
    """``n`` distinct ids below ``2**bits`` (a dense ring for small
    ``bits``: gaps of a few ids, arcs that wrap)."""
    if bits <= 16:
        return [int(x) for x in rng.choice(1 << bits, size=n, replace=False)]
    out: set[int] = set()
    while len(out) < n:
        out.add(_uniform(rng, bits))
    return sorted(out)


def _uniform(rng, bits: int) -> int:
    return int(rng.integers(0, (1 << bits) - 1, dtype=np.uint64,
                            endpoint=True))


def _sample(rng, seq, k: int) -> list:
    """``k`` distinct elements (by index: 64-bit ids do not survive a trip
    through a numpy array)."""
    return [seq[int(i)] for i in rng.choice(len(seq), size=k, replace=False)]


def _keys(ov: ChordOverlay, rng, n: int) -> list[int]:
    """Random keys, live ids, dead ids, and ids one step either side."""
    live = ov._live_ids
    dead = [nid for nid, node in ov.nodes.items() if not node.alive]
    top = 1 << ov.bits
    out = []
    for i in range(n):
        kind = i % 5
        if kind < 2 or (kind == 4 and not dead):
            out.append(_uniform(rng, ov.bits))
        elif kind == 2:
            out.append(live[int(rng.integers(0, len(live)))])
        elif kind == 3:
            nid = live[int(rng.integers(0, len(live)))]
            out.append((nid + int(rng.choice([-1, 1]))) % top)
        else:
            out.append(dead[int(rng.integers(0, len(dead)))])
    return out


def _assert_same_route(ov: ChordOverlay, key: int, start) -> None:
    state = ov.rng.bit_generator.state
    got = ov.route(key, start=start)
    after = ov.rng.bit_generator.state
    ov.rng.bit_generator.state = state
    want = reference_route(ov, key, start)
    assert ov.rng.bit_generator.state == after  # same draws
    assert (got.success, got.owner, got.hops, got.path) == want


def _compare_routes(ov: ChordOverlay, rng, n: int) -> int:
    """``n`` routes from live, dead and ``None`` starts, plus one
    ``key == start id`` route per five; returns the number compared."""
    live = ov.live_nodes()
    dead = [node for node in ov.nodes.values() if not node.alive]
    count = 0
    for i, key in enumerate(_keys(ov, rng, n)):
        if i % 7 == 0:
            start = None
        elif i % 7 == 1 and dead:
            start = dead[i % len(dead)]
        else:
            start = live[int(rng.integers(0, len(live)))]
        _assert_same_route(ov, key, start)
        count += 1
        if i % 5 == 0 and start is not None and start.alive:
            _assert_same_route(ov, start.node_id, start)  # key == nid
            count += 1
    return count


# ----------------------------------------------------------------------
# oracle-built rings
# ----------------------------------------------------------------------

ORACLE_RINGS = [(40, 8), (40, 16), (40, 64), (600, 16), (600, 64),
                (5000, 16), (5000, 64)]


class TestOracleRings:
    @pytest.mark.parametrize("n,bits", ORACLE_RINGS)
    def test_routes_match_reference(self, n, bits):
        rng = np.random.default_rng(n + bits)
        ov = ChordOverlay(np.random.default_rng(bits), bits=bits)
        ov.build(_ids(rng, n, bits))
        compared = _compare_routes(ov, rng, 120)
        # Crashed fingers: a tenth of the ring dies with no repair, so the
        # scan meets dead slots at every level; half of those come back
        # spliced (fresh dense slots, old ones stay dead in stale rows).
        victims = _sample(rng, ov._live_ids, n // 10)
        for victim in victims:
            ov.crash(victim)
        compared += _compare_routes(ov, rng, 120)
        ov.repair()
        for victim in victims[::2]:
            ov.recover(victim)
        for victim in _sample(rng, ov._live_ids, n // 20):
            ov.crash(victim)
        compared += _compare_routes(ov, rng, 120)
        assert compared >= 360  # x7 rings: > 2 500 routes

    @pytest.mark.parametrize("n,bits", [(40, 8), (600, 16), (5000, 64)])
    def test_closest_preceding_matches_reverse_scan(self, n, bits):
        rng = np.random.default_rng(7 * n + bits)
        ov = ChordOverlay(np.random.default_rng(0), bits=bits)
        ov.build(_ids(rng, n, bits))
        for victim in _sample(rng, ov._live_ids, n // 8):
            ov.crash(victim)
        live = ov.live_nodes()
        for key in _keys(ov, rng, 400):
            node = live[int(rng.integers(0, len(live)))]
            assert node.closest_preceding_live(key) is \
                reference_closest_preceding(node, key)
            assert node.closest_preceding_live(node.node_id) is \
                reference_closest_preceding(node, node.node_id)

    def test_empty_overlay_fails_without_a_draw(self):
        ov = ChordOverlay(np.random.default_rng(0))
        state = ov.rng.bit_generator.state
        res = ov.route(123)
        assert (res.success, res.owner, res.hops, res.path) == \
            reference_route(ov, 123, None)
        assert ov.rng.bit_generator.state == state


# ----------------------------------------------------------------------
# bulk construction vs per-node pointers
# ----------------------------------------------------------------------

def reference_pointers(ov: ChordOverlay, nid: int):
    """Finger ids, successor ids and predecessor id of live node ``nid``,
    one bisect per level: ``r`` successors, or every other node on a
    smaller ring (a ring of one lists itself)."""
    ids = ov._live_ids
    n = len(ids)
    top = 1 << ov.bits
    i = bisect.bisect_left(ids, nid)
    fingers = [ids[bisect.bisect_left(ids, (nid + (1 << b)) % top) % n]
               for b in range(ov.bits)]
    cnt = min(ov.r, n - 1) or 1
    return (fingers, [ids[(i + k) % n] for k in range(1, cnt + 1)],
            ids[i - 1])


def _pointer_ids(node: ChordNode):
    return ([None if f is None else f.node_id for f in node.fingers],
            [s.node_id for s in node.successors], node.predecessor.node_id)


def _assert_oracle_exact(ov: ChordOverlay) -> int:
    """Every live node's pointers equal the bisect reference and, on rings
    of more than ``r + 1`` nodes, survive :meth:`_oracle_pointers` (the
    per-node splice) rewriting them unchanged."""
    live = ov.live_nodes()
    for node in live:
        got = _pointer_ids(node)
        assert got == reference_pointers(ov, node.node_id)
        if len(live) > ov.r + 1:
            ov._oracle_pointers(node)
            assert _pointer_ids(node) == got
    return len(live)


def _shuffled(rng, ids: list[int]) -> list[int]:
    return [ids[int(i)] for i in rng.permutation(len(ids))]


class TestBulkBuild:
    @pytest.mark.parametrize("n,bits", ORACLE_RINGS)
    def test_random_rings(self, n, bits):
        rng = np.random.default_rng(3 * n + bits)
        ov = ChordOverlay(np.random.default_rng(0), bits=bits)
        ov.build(_shuffled(rng, _ids(rng, n, bits)))
        assert _assert_oracle_exact(ov) == n

    @pytest.mark.parametrize("bits,first,n", [(8, 0, 256),
                                              (16, (1 << 16) - 700, 1500)])
    def test_gap_one_rings(self, bits, first, n):
        """Consecutive ids: every gap is 1, and on 16 bits the run wraps
        past 0, so the finger arcs wrap too."""
        rng = np.random.default_rng(bits)
        ids = [(first + k) % (1 << bits) for k in range(n)]
        ov = ChordOverlay(np.random.default_rng(0), bits=bits)
        ov.build(_shuffled(rng, ids))
        assert _assert_oracle_exact(ov) == n

    @pytest.mark.parametrize("bits", [8, 64])
    @pytest.mark.parametrize("n", [1, 2, 9])  # 9 = r + 1
    def test_tiny_rings(self, bits, n):
        rng = np.random.default_rng(n + bits)
        ov = ChordOverlay(np.random.default_rng(0), bits=bits)
        created = ov.build(_shuffled(rng, _ids(rng, n, bits)))
        assert _assert_oracle_exact(ov) == n
        if n == 1:
            (node,) = created
            assert set(node.fingers) == {node}

    def test_second_batch_joins_a_churned_ring(self):
        """A build onto a ring with dead members: each batch takes the
        next dense slots in ring order, and every live pointer is exact."""
        rng = np.random.default_rng(8)
        ov = ChordOverlay(np.random.default_rng(8), bits=16)
        ids = _ids(rng, 900, 16)
        first = ov.build(ids[:600])
        for victim in _sample(rng, ov._live_ids, 60):
            ov.crash(victim)
        batch = ids[600:]
        second = ov.build(batch)
        assert [node.node_id for node in second] == batch
        def by_id(nodes):
            return sorted(nodes, key=lambda node: node.node_id)

        assert ov._by_dense == by_id(first) + by_id(second)
        assert _assert_oracle_exact(ov) == 840


# ----------------------------------------------------------------------
# protocol-joined rings: lazy and stale rows
# ----------------------------------------------------------------------

class TestProtocolJoinedRings:
    @pytest.mark.parametrize("bits", [16, 64])
    @pytest.mark.parametrize("rounds", [0, 1, 2, 3])
    def test_routes_match_on_lazy_and_stale_fingers(self, bits, rounds):
        rng = np.random.default_rng(10 * bits + rounds)
        ov = ChordOverlay(np.random.default_rng(rounds), bits=bits)
        for nid in _ids(rng, 48, bits):
            ov.join(ChordNode(nid, bits=bits))
        for _ in range(rounds):
            ov.maintenance_round()
        for victim in _sample(rng, ov._live_ids, 5):
            ov.crash(victim)
        if rounds:
            # A joiner's row is all-successor until fix_fingers reaches a
            # level, so partly fixed rows are not monotone in level.
            offsets = [[(f.node_id - node.node_id) % (1 << bits)
                        for f in node.fingers if f is not None]
                       for node in ov.live_nodes()]
            assert any(row != sorted(row) for row in offsets)
        assert _compare_routes(ov, rng, 100) >= 100

    def test_joiners_on_an_oracle_ring(self):
        rng = np.random.default_rng(5)
        ov = ChordOverlay(np.random.default_rng(5))
        ov.build(_ids(rng, 300, 64))
        for nid in _ids(rng, 40, 64):
            if nid not in ov.nodes:
                ov.join(ChordNode(nid))
        assert _compare_routes(ov, rng, 150) >= 150
        ov.maintenance_round()
        assert _compare_routes(ov, rng, 150) >= 150


# ----------------------------------------------------------------------
# crafted rows
# ----------------------------------------------------------------------

class TestCraftedRows:
    def test_top_twenty_fingers_dead(self):
        """Worst-case depth: the scan walks past twenty dead levels."""
        rng = np.random.default_rng(20)
        ov = ChordOverlay(np.random.default_rng(20))
        ov.build(_ids(rng, 5000, 64))
        node = ov.live_nodes()[1234]
        top = {f.node_id for f in list(node.fingers)[-20:]}
        assert len(top) > 8 and node.node_id not in top
        for nid in top:
            ov.crash(nid)
        assert not any(f.alive for f in list(node.fingers)[-20:])
        for key in _keys(ov, rng, 300):
            assert node.closest_preceding_live(key) is \
                reference_closest_preceding(node, key)
            _assert_same_route(ov, key, node)

    def test_empty_duplicate_and_self_slots(self):
        rng = np.random.default_rng(3)
        ov = ChordOverlay(np.random.default_rng(3), bits=16)
        ov.build(_ids(rng, 80, 16))
        live = ov.live_nodes()
        node = live[10]
        a, b, c = live[30], live[55], live[70]
        b.alive = False  # a plain slot: no overlay column to keep in step
        pattern = [a, None, a, b, b, None, node, c, c, a, None, None, b, c,
                   node, a]
        node.fingers = pattern
        assert list(node.fingers) == pattern
        for key in _keys(ov, rng, 200) + [node.node_id, a.node_id, c.node_id]:
            assert node.closest_preceding_live(key) is \
                reference_closest_preceding(node, key)
        node.fingers = [None] * 16
        node.successors = [b, c]
        for key in _keys(ov, rng, 50):
            assert node.closest_preceding_live(key) is \
                reference_closest_preceding(node, key)
            _assert_same_route(ov, key, node)
        # An empty slot below a rejected one is no slot at all — in
        # particular not dense slot -1, the newest node, even when that
        # node would qualify.
        newest = ov._by_dense[-1]
        node = newest.predecessor
        node.fingers = [None] * 14 + [b, None]
        node.successors = [node.predecessor]
        key = (newest.node_id + 1) % (1 << 16)
        assert ring_between(newest.node_id, node.node_id, key)
        assert reference_closest_preceding(node, key) is node
        assert node.closest_preceding_live(key) is node
