"""Incremental oracle splices must equal a full oracle repair.

``crash_repair`` and the strengthened ``oracle_join`` claim to leave
every live node's pointers exactly as ``repair()`` (a full O(N·B) sweep)
would.  These tests churn a ring through both code paths and compare
successor lists, predecessors, and all finger tables node-by-node.
"""

import bisect

import numpy as np
import pytest

from repro.dht.chord import ChordOverlay
from repro.dht.chord.node import ChordNode
from repro.util.ids import guid_for


def _pointers(overlay: ChordOverlay) -> dict:
    out = {}
    for node in overlay.live_nodes():
        out[node.node_id] = (
            [s.node_id for s in node.successors],
            None if node.predecessor is None else node.predecessor.node_id,
            [None if f is None else f.node_id for f in node.fingers],
        )
    return out


def _build_pair(n: int, seed: int) -> tuple[ChordOverlay, ChordOverlay, list[int]]:
    ids = sorted({guid_for(f"inc-{seed}-{i}") for i in range(n)})
    fast = ChordOverlay(np.random.default_rng(seed))
    slow = ChordOverlay(np.random.default_rng(seed))
    fast.build(ids)
    slow.build(ids)
    return fast, slow, ids


class TestCrashRepair:
    @pytest.mark.parametrize("n", [12, 60])
    def test_matches_crash_plus_repair(self, n):
        fast, slow, ids = _build_pair(n, seed=n)
        rng = np.random.default_rng(n)
        crashed: list[int] = []
        for step in range(3 * n):
            if len(fast._live_ids) > 3 and (not crashed or rng.random() < 0.5):
                victim = int(fast._live_ids[
                    int(rng.integers(0, len(fast._live_ids)))])
                fast.crash_repair(victim)
                slow.crash(victim)
                slow.repair()
                crashed.append(victim)
            else:
                back = crashed.pop(int(rng.integers(0, len(crashed))))
                fast.recover(back)  # oracle_join splice
                old = slow.nodes.pop(back)
                assert not old.alive
                fresh = ChordNode(back)
                slow.nodes[back] = fresh
                fresh.alive = True
                slow._insert_live_id(back)
                slow.repair()
            assert _pointers(fast) == _pointers(slow), f"diverged at {step}"

    def test_idempotent_on_dead_node(self):
        fast, _, ids = _build_pair(10, seed=4)
        fast.crash_repair(ids[0])
        before = _pointers(fast)
        fast.crash_repair(ids[0])  # already dead: no-op
        assert _pointers(fast) == before

    def test_splice_is_a_repair_fixed_point(self):
        # After any splice, running the full repair must change nothing.
        fast, _, ids = _build_pair(40, seed=7)
        rng = np.random.default_rng(11)
        for _ in range(15):
            victim = int(fast._live_ids[
                int(rng.integers(0, len(fast._live_ids)))])
            fast.crash_repair(victim)
        spliced = _pointers(fast)
        fast.repair()
        assert _pointers(fast) == spliced


class TestOracleJoinSplice:
    def test_join_matches_full_repair(self):
        fast, slow, _ = _build_pair(30, seed=2)
        for i in range(12):
            nid = guid_for(f"joiner-{i}")
            fast.oracle_join(ChordNode(nid))
            n2 = ChordNode(nid)
            slow.nodes[nid] = n2
            n2.alive = True
            slow._insert_live_id(nid)
            slow.repair()
            assert _pointers(fast) == _pointers(slow)

    def test_tiny_ring_growth(self):
        # n <= r+1 path: the splice degenerates to full repair.
        fast = ChordOverlay(np.random.default_rng(0), successor_list_len=4)
        slow = ChordOverlay(np.random.default_rng(0), successor_list_len=4)
        first = guid_for("tiny-0")
        fast.build([first])
        slow.build([first])
        for i in range(1, 8):
            nid = guid_for(f"tiny-{i}")
            fast.oracle_join(ChordNode(nid))
            n2 = ChordNode(nid)
            slow.nodes[nid] = n2
            n2.alive = True
            slow._insert_live_id(nid)
            slow.repair()
            assert _pointers(fast) == _pointers(slow)


# ----------------------------------------------------------------------
# ring shapes the constant-arc retarget and the windowed refresh lean on
# ----------------------------------------------------------------------

def _build_shaped_pair(n: int, bits: int, seed: int, r: int = 8):
    """Twin rings of ``n`` ids below ``2**bits`` — dense for small ``bits``
    (gaps of a few ids, so ``2^i`` exceeds them at low levels and the
    shifted arcs wrap)."""
    rng = np.random.default_rng(seed)
    if bits <= 16:
        ids = [int(x) for x in rng.choice(1 << bits, size=n, replace=False)]
    else:
        ids = sorted({guid_for(f"shape-{seed}-{i}") for i in range(n)})
    fast = ChordOverlay(np.random.default_rng(seed), bits=bits,
                        successor_list_len=r)
    slow = ChordOverlay(np.random.default_rng(seed), bits=bits,
                        successor_list_len=r)
    fast.build(ids)
    slow.build(ids)
    return fast, slow, rng


def _crash_both(fast: ChordOverlay, slow: ChordOverlay, nid: int) -> None:
    fast.crash_repair(nid)
    slow.crash(nid)
    slow.repair()


def _recover_both(fast: ChordOverlay, slow: ChordOverlay, nid: int) -> None:
    fast.recover(nid)  # oracle_join splice
    assert not slow.nodes.pop(nid).alive
    fresh = ChordNode(nid, bits=slow.bits)
    slow.nodes[nid] = fresh
    slow._insert_live_id(nid)
    slow.repair()


def _neighbor(ov: ChordOverlay, nid: int, step: int) -> int:
    """The live id ``step`` positions from (dead or live) ``nid``."""
    ids = ov._live_ids
    idx = bisect.bisect_left(ids, nid)
    if step > 0 and (idx == len(ids) or ids[idx] != nid):
        step -= 1  # idx already is the successor of a dead id
    return ids[(idx + step) % len(ids)]


class TestSpliceAcrossRingShapes:
    @pytest.mark.parametrize("n,bits", [(100, 8), (200, 8), (600, 16),
                                        (1500, 16), (600, 64), (1500, 64)])
    def test_churn_matches_full_repair(self, n, bits):
        fast, slow, rng = _build_shaped_pair(n, bits, seed=n + bits)
        crashed: list[int] = []
        for step in range(70):
            if not crashed or rng.random() < 0.55:
                victim = fast._live_ids[int(rng.integers(0, fast.size))]
                _crash_both(fast, slow, victim)
                crashed.append(victim)
            else:
                _recover_both(fast, slow,
                              crashed.pop(int(rng.integers(0, len(crashed)))))
            assert _pointers(fast) == _pointers(slow), f"diverged at {step}"

    @pytest.mark.parametrize("n,bits", [(120, 8), (600, 16), (600, 64)])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_adjacent_bursts_match_full_repair(self, n, bits, side):
        """A node dies, then its predecessor (``side=-1``) or successor:
        the second splice's ``lo``/``pred(lo)``/``hi`` are the first
        one's.  Then both return, nearest first or farthest first."""
        fast, slow, rng = _build_shaped_pair(n, bits, seed=3 * n + bits + side)
        for burst in range(12):
            first = fast._live_ids[int(rng.integers(0, fast.size))]
            _crash_both(fast, slow, first)
            assert _pointers(fast) == _pointers(slow)
            second = _neighbor(fast, first, side)
            _crash_both(fast, slow, second)
            assert _pointers(fast) == _pointers(slow)
            third = _neighbor(fast, second, side)  # a run of three
            _crash_both(fast, slow, third)
            assert _pointers(fast) == _pointers(slow)
            back = [first, second, third]
            if burst % 2:
                back.reverse()
            for nid in back[:2 + burst % 2]:  # sometimes leave one dead
                _recover_both(fast, slow, nid)
                assert _pointers(fast) == _pointers(slow), f"burst {burst}"

    @pytest.mark.parametrize("r", [1, 3, 8])
    @pytest.mark.parametrize("bits", [8, 64])
    def test_ring_hovering_at_the_full_repair_threshold(self, r, bits):
        """``n`` moves between ``r + 1`` (full repair) and ``r + 3``
        (splice; the 2r-node window laps the ring)."""
        fast, slow, rng = _build_shaped_pair(r + 3, bits, seed=r + bits, r=r)
        crashed: list[int] = []
        sizes = set()
        for step in range(60):
            grow = fast.size <= r + 1 or (crashed and fast.size < r + 3
                                          and rng.random() < 0.5)
            if grow:
                _recover_both(fast, slow,
                              crashed.pop(int(rng.integers(0, len(crashed)))))
            else:
                victim = fast._live_ids[int(rng.integers(0, fast.size))]
                _crash_both(fast, slow, victim)
                crashed.append(victim)
            sizes.add(fast.size)
            assert _pointers(fast) == _pointers(slow), f"diverged at {step}"
        assert sizes == {r + 1, r + 2, r + 3}
