"""Chord node state: successor list, predecessor, finger table.

Routing state refers to other :class:`ChordNode` objects directly (the
simulator's stand-in for cached network addresses); a reference to a dead
node is exactly a stale address — usable for comparison, but any attempt to
*route through* it is skipped, modelling a timeout.

Finger storage is columnar: once a node is admitted to a
:class:`~repro.dht.chord.overlay.ChordOverlay`, its finger table is one
int32 row of the overlay's dense ``(nodes, bits)`` matrix (entries are
dense node slots, ``-1`` empty) instead of a per-node list of object
references — ~256 B of array row instead of a ~570 B pointer list per
node at ``bits=64``.  ``node.fingers`` stays a list-like view
(:class:`FingerRow`) so maintenance code and tests read and write
entries exactly as before.  A node carries no finger list of its own:
one constructed standalone (before any overlay admits it) makes a plain
local list the first time its fingers are read or written, so the nodes
:meth:`~repro.dht.chord.overlay.ChordOverlay.build` creates by the
hundred thousand never allocate one.
"""

from __future__ import annotations

from repro.dht.base import DHTNode
from repro.util.ids import GUID_BITS, ring_add, ring_between


class FingerRow:
    """List-like view of one node's row of the overlay finger matrix.

    Resolves dense slots back to :class:`ChordNode` objects on access, so
    ``node.fingers[i]``, iteration, and ``reversed()`` behave exactly like
    the former per-node list.  The view holds ``(overlay, dense)`` rather
    than a row reference so it stays valid across matrix growth.
    """

    __slots__ = ("_ov", "_d")

    def __init__(self, ov, dense: int):
        self._ov = ov
        self._d = dense

    def __len__(self) -> int:
        return self._ov.bits

    def __getitem__(self, i: int) -> "ChordNode | None":
        idx = int(self._ov._finger_row(self._d)[i])
        return None if idx < 0 else self._ov._by_dense[idx]

    def __setitem__(self, i: int, node: "ChordNode | None") -> None:
        self._ov._finger_row(self._d)[i] = -1 if node is None else node._dense

    def __iter__(self):
        by_dense = self._ov._by_dense
        for idx in self._ov._finger_row(self._d).tolist():
            yield None if idx < 0 else by_dense[idx]

    def __reversed__(self):
        by_dense = self._ov._by_dense
        for idx in self._ov._finger_row(self._d)[::-1].tolist():
            yield None if idx < 0 else by_dense[idx]


class ChordNode(DHTNode):
    """One Chord participant.

    Attributes
    ----------
    successors:
        Successor list, nearest first.  Entry 0 is *the* successor; the rest
        provide failure tolerance (a node is cut off only if its whole list
        dies between repairs).
    predecessor:
        Known predecessor (may be stale/dead until stabilization runs).
    fingers:
        ``fingers[i]`` targets ``successor(id + 2**i)``; stale entries are
        tolerated by the lookup procedure.  Backed by the overlay finger
        matrix once admitted (see module docstring).
    fix_next:
        Next finger level :meth:`ChordOverlay.fix_fingers_node` will
        refresh (per-node protocol state, formerly an overlay-side dict).
    """

    __slots__ = ("bits", "successors", "predecessor", "fix_next",
                 "_ov", "_dense", "_local_fingers")

    def __init__(self, node_id: int, bits: int = GUID_BITS):
        super().__init__(node_id)
        self._ov = None
        self._dense = -1
        self.bits = bits
        self.successors: list[ChordNode] = []
        self.predecessor: ChordNode | None = None
        self.fix_next = 0
        self._local_fingers: list[ChordNode | None] | None = None

    # -- finger storage ----------------------------------------------------

    @property
    def fingers(self):
        ov = self._ov
        if ov is not None:
            return FingerRow(ov, self._dense)
        if self._local_fingers is None:
            self._local_fingers = [None] * self.bits
        return self._local_fingers

    @fingers.setter
    def fingers(self, values) -> None:
        ov = self._ov
        if ov is None:
            self._local_fingers = list(values)
            return
        slots = [-1 if f is None else f._dense for f in values]
        ov._finger_row(self._dense)[:len(slots)] = slots

    # -- routing-state queries -------------------------------------------

    def finger_start(self, i: int) -> int:
        """The id ``fingers[i]`` should be the successor of."""
        return ring_add(self.node_id, 1 << i, bits=self.bits)

    def first_live_successor(self) -> "ChordNode | None":
        """First live entry of the successor list, or None if all are dead."""
        for succ in self.successors:
            if succ.alive:
                return succ
        return None

    def closest_preceding_live(self, key: int) -> "ChordNode":
        """The live routing-table node closest to (but strictly before) ``key``.

        Scans fingers from farthest to nearest, then the successor list, and
        falls back to ``self`` when nothing qualifies (the caller then steps
        to the successor).  Skipping dead entries models lookup retry after
        a timeout on a stale address.  Overlay-attached nodes scan their
        row of the finger matrix; standalone nodes their local list.
        """
        ov = self._ov
        if ov is not None:
            hit = ov._closest_finger(self._dense, self.node_id, key)
            if hit is not None:
                return hit
        else:
            for finger in reversed(self._local_fingers or ()):
                if finger is not None and finger.alive and \
                        ring_between(finger.node_id, self.node_id, key):
                    return finger
        # Fingers may all be stale after churn; the successor list still
        # guarantees progress.
        best = self
        for succ in self.successors:
            if succ.alive and ring_between(succ.node_id, self.node_id, key):
                best = succ  # nearest-first list: later entries are farther
        return best

