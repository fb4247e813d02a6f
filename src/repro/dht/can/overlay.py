"""The CAN overlay: join/split, greedy routing, takeover, neighbor upkeep.

Join follows the CAN paper with one matchmaking-specific refinement
(paper §3.2 of Kim et al.): a joining node routes to the zone containing
*its own representative point* and the zone splits **between the two
points** (on the dimension that best separates them, relative to zone
extent) rather than blindly halving.  Both nodes therefore keep their own
point inside their zone — the invariant the matchmaking layer depends on
("a zone's owner is a node whose capabilities lie in that zone").  The
virtual dimension guarantees the two points differ almost surely even for
identical machines.
"""

from __future__ import annotations

import numpy as np

from repro.dht.base import DHTOverlay, RouteResult
from repro.dht.can.node import CANNode, NeighborSet
from repro.dht.can.space import Point, Zone, unit_zone


_INF = float("inf")


class _BSPNode:
    """One node of the split-history BSP index.

    Zones are only ever created by splitting an existing zone, so the
    split history is a binary space partition whose leaves tessellate the
    key space exactly like the live zones do.  A leaf (``dim is None``)
    records the zone and its current owner; takeovers move zone objects
    between owners without changing geometry, so they only relabel the
    leaf.  Point→owner resolution is then an O(tree depth) descent
    instead of a linear scan over every zone.
    """

    __slots__ = ("dim", "at", "lower", "upper", "zone", "owner")

    def __init__(self, zone: Zone, owner: CANNode):
        self.dim: int | None = None
        self.at = 0.0
        self.lower: _BSPNode | None = None
        self.upper: _BSPNode | None = None
        self.zone: Zone | None = zone
        self.owner: CANNode | None = owner


class CANOverlay(DHTOverlay):
    """A simulated CAN over ``[0,1)^dims``."""

    def __init__(self, rng: np.random.Generator, dims: int):
        super().__init__()
        if dims < 1:
            raise ValueError("dims must be >= 1")
        self.rng = rng
        self.dims = dims
        self.nodes: dict[int, CANNode] = {}
        self._live: list[CANNode] = []
        self._bsp: _BSPNode | None = None

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def join(self, node: CANNode, bootstrap: CANNode | None = None) -> None:
        """Admit ``node``: route to its point's zone and split it."""
        self._check_dims(node.point)
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id:#x}")
        self.nodes[node.node_id] = node
        node.alive = True
        if not self._live:
            node.zones = [unit_zone(self.dims)]
            node.neighbors = NeighborSet()
            self._live.append(node)
            self._bsp = _BSPNode(node.zones[0], node)
            return
        if bootstrap is None or not bootstrap.alive:
            # The pre-index join routed from a random live node; keep that
            # RNG draw so every downstream stream stays bit-identical.
            self._random_live()
        leaf = self._bsp_leaf(node.point)
        if leaf is None or leaf.owner is None or not leaf.owner.alive:
            raise RuntimeError("CAN join routing failed")
        owner: CANNode = leaf.owner
        self._split_with(owner, node)
        self._live.append(node)

    def crash(self, node_id: int) -> None:
        """Abrupt failure.  The zone is immediately adopted by a neighbor
        (the structural equivalent of CAN's takeover timer protocol); if
        the node had no live neighbor the space would tear, which cannot
        happen while any other node is alive because zones tessellate."""
        node = self.nodes[node_id]
        if not node.alive:
            return
        node.alive = False
        node.store.clear()
        self._live.remove(node)
        self._takeover(node)
        node.zones = []
        node.neighbors = NeighborSet()

    def leave(self, node_id: int) -> None:
        """Graceful departure: hand zones and stored keys to a neighbor."""
        node = self.nodes[node_id]
        if not node.alive:
            return
        heir = self._smallest_live_neighbor(node)
        node.alive = False
        self._live.remove(node)
        if heir is not None:
            heir.store.update(node.store)
        node.store.clear()
        self._takeover(node)
        node.zones = []
        node.neighbors = NeighborSet()

    def live_nodes(self) -> list[CANNode]:
        return list(self._live)

    @property
    def size(self) -> int:
        return len(self._live)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def route(self, key, start: CANNode | None = None) -> RouteResult:
        """Route greedily to the owner of ``key`` (a Point)."""
        point: Point = key
        self._check_dims(point)
        if start is None or not start.alive:
            start = self._random_live()
        if start is None:
            result = RouteResult(False, None, 0)
            self.note_route(result)
            return result
        cur = start
        hops = 0
        path = [cur.node_id]
        success = True
        max_hops = 8 * (len(self._live) + 4)
        visited = {cur.node_id}
        arrived = cur.owns_point(point)
        cur_d = cur.distance_to(point)
        while not arrived:
            # One pass over the neighbors with the squared distance to each
            # closed zone box inlined.  Only a zone at distance 0 can
            # contain the point, so the half-open ownership test runs on
            # those alone, and the first owning neighbor wins outright over
            # any non-owner.  That resolves exact-boundary targets: with
            # discrete capability levels a point can lie on a shared
            # (closed) zone face, where several zones are at distance 0 but
            # only one owns it.
            best = plateau = None
            best_d = cur_d
            for nb in cur.neighbors:
                if not nb.alive:
                    continue
                d = _INF
                for z in nb.zones:
                    s = 0.0
                    for c, lo, hi in zip(point, z.lo, z.hi):
                        if c < lo:
                            gap = lo - c
                        elif c > hi:
                            gap = c - hi
                        else:
                            continue
                        s += gap * gap
                    if s == 0.0:
                        if z.contains(point):
                            arrived = True
                            break
                        d = 0.0
                    elif s < d:
                        d = s
                if arrived:
                    best = nb
                    break
                # Greedy: the zone across the exit face is strictly closer
                # except on distance plateaus (target collinear with a
                # face), where the first equal-distance unvisited neighbor
                # is the fallback.
                if d < best_d:
                    best, best_d = nb, d
                elif d == cur_d and plateau is None and nb.node_id not in visited:
                    plateau = nb
            if best is not None:
                cur, cur_d = best, best_d  # the next hop's own distance
            elif plateau is not None:
                cur = plateau  # same distance by definition
            else:
                success = False
                break
            visited.add(cur.node_id)
            hops += 1
            path.append(cur.node_id)
            if hops > max_hops and not arrived:
                success = False
                break
        result = RouteResult(success, cur if success else None, hops, path)
        self.note_route(result)
        return result

    def zone_owner(self, point: Point) -> CANNode | None:
        """Oracle ownership via the split-history index (O(tree depth))."""
        self._check_dims(point)
        if not self._live:
            return None
        leaf = self._bsp_leaf(point)
        if leaf is None or leaf.owner is None:
            return None
        owner = leaf.owner
        # The containment check rejects out-of-range points exactly like
        # the historical linear scan did (and the closed top face at the
        # 1.0 boundary is the zone's call, not the descent's).
        if owner.alive and owner.owns_point(point):
            return owner
        return None

    def _bsp_leaf(self, point: Point) -> _BSPNode | None:
        """Descend the split history to the leaf whose region holds
        ``point``.  Split planes use the half-open convention, so a
        coordinate equal to the plane belongs to the upper side; all
        planes are bit-exact split coordinates, so ``<`` is exact."""
        node = self._bsp
        while node is not None and node.dim is not None:
            node = node.lower if point[node.dim] < node.at else node.upper
        return node

    def replica_set(self, owner: CANNode, key, replicas: int) -> list[CANNode]:
        """Owner plus its nearest live neighbors (CAN neighbor replication)."""
        out = [owner]
        if replicas > 1:
            ranked = sorted(
                (nb for nb in owner.neighbors if nb.alive),
                key=lambda nb: (nb.distance_to(owner.point), nb.node_id),
            )
            out.extend(ranked[: replicas - 1])
        return out

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _check_dims(self, point: Point) -> None:
        if len(point) != self.dims:
            raise ValueError(f"point has {len(point)} dims, overlay has {self.dims}")

    def _random_live(self) -> CANNode | None:
        if not self._live:
            return None
        return self._live[int(self.rng.integers(0, len(self._live)))]

    def _split_with(self, owner: CANNode, joiner: CANNode) -> None:
        """Split the owner's zone containing the joiner's point between the
        two representative points."""
        zone_idx = next(i for i, z in enumerate(owner.zones) if z.contains(joiner.point))
        zone = owner.zones[zone_idx]
        dim, at = _separating_split(zone, owner.point, joiner.point, self.rng)
        lower, upper = zone.split(dim, at)
        # The joiner must end up owning the half with its own point in it;
        # the owner keeps the other half.  (When splitting the owner's
        # *primary* zone the separating split guarantees the kept half still
        # contains the owner's point; an adopted zone never contained it.)
        if lower.contains(joiner.point):
            joiner_zone, owner_zone = lower, upper
        else:
            joiner_zone, owner_zone = upper, lower
        if zone_idx == 0 and not owner_zone.contains(owner.point):
            raise ValueError(
                "cannot split between coincident representative points; "
                "add a virtual dimension to disambiguate identical nodes"
            )
        owner.zones[zone_idx] = owner_zone
        joiner.zones = [joiner_zone]
        # Record the split in the BSP index: the leaf holding the joiner's
        # point is exactly the zone just split; it becomes an inner node
        # over the two halves.
        leaf = self._bsp_leaf(joiner.point)
        if leaf is not None:
            leaf.lower = _BSPNode(
                lower, joiner if joiner_zone is lower else owner)
            leaf.upper = _BSPNode(
                upper, joiner if joiner_zone is upper else owner)
            leaf.dim, leaf.at = dim, at
            leaf.zone = leaf.owner = None
        # Rewire neighbor sets in one pass over the owner's former
        # neighbors: each links to the joiner if it abuts the joiner's
        # zone, and unlinks from the owner if it abuts none of the owner's
        # zones.  The two halves of a split always share the split face,
        # so the owner and the joiner link too: the joiner enters the
        # owner's set first and the owner enters the joiner's set last.
        # Set by set, that is the sequence of adds and discards of linking
        # every candidate first and unlinking second, so the sets keep
        # both the iteration order greedy routing breaks ties by and the
        # same dict layout.
        formers = list(owner.neighbors)
        owner.neighbors.add(joiner)
        joined = joiner.neighbors = NeighborSet()
        for cand in formers:
            if cand.alive and _abuts_any(cand.zones, joiner_zone):
                joined.add(cand)
                cand.neighbors.add(joiner)
            if not _are_neighbors(owner, cand):
                owner.neighbors.discard(cand)
                cand.neighbors.discard(owner)
        joined.add(owner)

    def _takeover(self, dead: CANNode) -> None:
        """Assign each of the dead node's zones to its smallest live
        neighbor that abuts that zone (CAN's takeover rule)."""
        bereaved = list(dead.neighbors)
        for former in bereaved:
            former.neighbors.discard(dead)
        full_scan = False
        for zone in dead.zones:
            heir = None
            heir_vol = _INF
            for nb in bereaved:
                if nb.alive and _abuts_any(nb.zones, zone):
                    vol = nb.total_volume()
                    if vol < heir_vol:
                        heir, heir_vol = nb, vol
            if heir is None:
                # Possible when several neighbors died together; scan for
                # any live abutting node (structural repair).
                for cand in self._live:
                    if _abuts_any(cand.zones, zone):
                        heir = cand
                        break
            if heir is None and self._live:
                # Cascading failures can leave a zone with no *abutting*
                # live node (only corner contact).  The zone must still be
                # owned — give it to the nearest live node; neighbor links
                # are recomputed below from the adopted zone's geometry.
                center = zone.center()
                heir = min(self._live,
                           key=lambda cand: (cand.distance_to(center),
                                             cand.node_id))
            if heir is None:
                continue  # overlay is empty
            heir.zones.append(zone)
            # Relabel the zone's leaf in the index (geometry unchanged).
            # ``lo`` is the one corner the half-open zone contains; the
            # center of a one-ulp-wide zone rounds onto its open ``hi``
            # face and would descend to the sibling.
            leaf = self._bsp_leaf(zone.lo)
            if leaf is not None:
                leaf.owner = heir
            # Zone adoption may create new abutments for the heir.  Every
            # node abutting a zone of ``dead`` was its neighbor (neighbor
            # sets mirror geometry, see check_invariants), so ``bereaved``
            # holds them all — unless a structural-repair heir from outside
            # it now owns one of those zones; from then on scan everyone.
            full_scan = full_scan or heir not in dead.neighbors
            for cand in (bereaved + self._live) if full_scan else bereaved:
                if cand is heir or not cand.alive:
                    continue
                if cand in heir.neighbors:
                    continue
                if _are_neighbors(heir, cand):
                    heir.neighbors.add(cand)
                    cand.neighbors.add(heir)

    def _smallest_live_neighbor(self, node: CANNode) -> CANNode | None:
        best, best_vol = None, float("inf")
        for nb in node.neighbors:
            if nb.alive:
                vol = nb.total_volume()
                if vol < best_vol:
                    best, best_vol = nb, vol
        return best

    def check_invariants(self) -> None:
        """Assert the tessellation and neighbor-symmetry invariants
        (test helper; O(N^2))."""
        if not self._live:
            return
        total = sum(n.total_volume() for n in self._live)
        if abs(total - 1.0) > 1e-9:
            raise AssertionError(f"zones do not tessellate: total volume {total}")
        for node in self._live:
            if not node.zones:
                raise AssertionError(f"live node {node} owns no zone")
            if not node.zone.contains(node.point):
                raise AssertionError(f"{node} primary zone lost its point")
            for nb in node.neighbors:
                if nb.alive and node not in nb.neighbors:
                    raise AssertionError(f"asymmetric neighbor link {node} -> {nb}")
        for node in self._live:
            for zone in node.zones:
                if self.zone_owner(zone.lo) is not node:
                    raise AssertionError(
                        f"BSP index disagrees with zone ownership for {node}")
        # Zone.abuts over all zone pairs at once, a dimension at a time:
        # exactly one touching dim, positive-measure overlap in the others.
        owners = np.array([n.node_id for n in self._live for _ in n.zones], dtype=object)
        los = np.array([z.lo for n in self._live for z in n.zones])
        his = np.array([z.hi for n in self._live for z in n.zones])
        abut, touching = True, 0
        for lo, hi in zip(los.T[:, :, None], his.T[:, :, None]):
            touch = (hi == lo.T) | (lo == hi.T)
            abut &= touch | ((lo < hi.T) & (lo.T < hi))
            touching += touch
        a, b = (abut & (touching == 1)).nonzero()
        geometric = {pair for pair in zip(owners[a], owners[b]) if pair[0] != pair[1]}
        linked = {(n.node_id, nb.node_id) for n in self._live for nb in n.neighbors}
        if geometric != linked:
            raise AssertionError("neighbor sets differ from zone abutment at "
                                 f"{sorted(geometric ^ linked)[:4]}")


def _abuts_any(zones: list[Zone], zone: Zone) -> bool:
    """True iff one of ``zones`` shares a face with ``zone``:
    :meth:`Zone.abuts` inlined, touching along exactly one dimension and
    overlapping with positive measure along every other."""
    b_lo, b_hi = zone.lo, zone.hi
    for z in zones:
        touching = False
        for a_lo, a_hi, lo, hi in zip(z.lo, z.hi, b_lo, b_hi):
            if a_hi == lo or hi == a_lo:
                if touching:
                    break
                touching = True
            elif not (a_lo < hi and lo < a_hi):
                break
        else:
            if touching:
                return True
    return False


def _are_neighbors(a: CANNode, b: CANNode) -> bool:
    for za in a.zones:
        if _abuts_any(b.zones, za):
            return True
    return False


def _separating_split(zone: Zone, p_old: Point, p_new: Point,
                      rng: np.random.Generator) -> tuple[int, float]:
    """Choose the split (dimension, coordinate) separating the two points.

    Picks the dimension with the largest separation relative to the zone's
    extent and splits halfway between the two coordinates.  Falls back to
    halving the longest dimension in the measure-zero case of coincident
    points (cannot happen once a virtual dimension is in play, but the
    overlay must not crash on adversarial inputs).
    """
    best_dim, best_sep = -1, 0.0
    for d in range(zone.dims):
        sep = abs(p_old[d] - p_new[d]) / zone.extent(d)
        if sep > best_sep:
            best_dim, best_sep = d, sep
    if best_dim >= 0:
        at = (p_old[best_dim] + p_new[best_dim]) / 2.0
        if zone.lo[best_dim] < at < zone.hi[best_dim]:
            return best_dim, at
    # Coincident (or split degenerate after rounding): halve the longest dim.
    longest = max(range(zone.dims), key=zone.extent)
    return longest, (zone.lo[longest] + zone.hi[longest]) / 2.0
