"""CAN participant state: representative point, owned zones, neighbor set."""

from __future__ import annotations

from repro.dht.base import DHTNode
from repro.dht.can.space import Point, Zone, zone_distance


class NeighborSet:
    """An insertion-ordered set of :class:`CANNode`, keyed by node id.

    A plain ``set`` of node objects iterates in identity-hash order, which
    varies between interpreter runs and would make simulations
    irreproducible; dict insertion order is deterministic given the same
    event sequence.
    """

    __slots__ = ("_nodes",)

    def __init__(self, items=()):
        self._nodes: dict[int, "CANNode"] = {}
        for item in items:
            self.add(item)

    def add(self, node: "CANNode") -> None:
        self._nodes[node.node_id] = node

    def discard(self, node: "CANNode") -> None:
        self._nodes.pop(node.node_id, None)

    def __contains__(self, node: "CANNode") -> bool:
        return node.node_id in self._nodes

    def __iter__(self):
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NeighborSet({sorted(self._nodes)})"


class CANNode(DHTNode):
    """One CAN participant.

    Attributes
    ----------
    point:
        The node's representative coordinates.  For matchmaking this is its
        normalized resource-capability vector plus a random virtual
        coordinate (paper §3.2); the node's primary zone always contains it.
    zones:
        Owned zones.  ``zones[0]`` is the primary zone (contains ``point``);
        later entries were adopted through takeover when neighbors died.
    neighbors:
        Current neighbor set (zone abutment); maintained by the overlay on
        join/split/takeover, mirroring the CAN soft-state neighbor tables.
    """

    __slots__ = ("point", "zones", "neighbors")

    def __init__(self, node_id: int, point: Point):
        super().__init__(node_id)
        self.point = point
        self.zones: list[Zone] = []
        self.neighbors: NeighborSet = NeighborSet()

    @property
    def zone(self) -> Zone:
        """Primary zone (the one containing the node's own point)."""
        return self.zones[0]

    def owns_point(self, point: Point) -> bool:
        for z in self.zones:
            if z.contains(point):
                return True
        return False

    def total_volume(self) -> float:
        return sum(z.volume() for z in self.zones)

    def distance_to(self, point: Point) -> float:
        """Squared distance from ``point`` to the nearest owned zone."""
        best = float("inf")
        for z in self.zones:
            d = zone_distance(z, point)
            if d < best:
                best = d
        return best
