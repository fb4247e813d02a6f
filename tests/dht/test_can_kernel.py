"""The one-pass CAN routing kernel and neighbor-local takeover vs references.

``CANOverlay.route`` makes a single pass over the neighbor set per hop,
``_takeover`` rewires the heir from the dead node's neighbor table only,
and a join rewires the split owner's neighbors in one pass.  The code they
replaced — a two-pass hop rule, a rescan of every live node per adopted
zone, and a join that links and unlinks in two passes over a copied
candidate set — is kept here as the oracle: routes must agree on
``(success, owner, hops, path)`` and on every RNG draw, and neighbor sets
must keep the exact iteration order the full scan produced (routing ties
are broken by that order).
"""

import hashlib

import numpy as np
import pytest

from repro.dht.can import CANNode, CANOverlay
from repro.dht.can.node import NeighborSet
from repro.dht.can.overlay import _BSPNode, _separating_split
from repro.dht.can.space import zone_distance
from repro.util.ids import guid_for


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------

def reference_route(ov: CANOverlay, point, start):
    """The two-pass hop rule: an ownership pass over the neighbors, then a
    distance pass."""
    def owns(node):
        return any(z.contains(point) for z in node.zones)

    def dist(node):
        return min(zone_distance(z, point) for z in node.zones)

    live = ov.live_nodes()
    if start is None or not start.alive:
        start = live[int(ov.rng.integers(0, len(live)))] if live else None
    if start is None:
        return False, None, 0, []
    cur, hops, path, success = start, 0, [start.node_id], True
    max_hops = 8 * (len(live) + 4)
    visited = {cur.node_id}
    while not owns(cur):
        owner_nb = next((nb for nb in cur.neighbors if nb.alive and owns(nb)), None)
        if owner_nb is not None:
            cur = owner_nb
            hops += 1
            path.append(cur.node_id)
            break
        cur_d = dist(cur)
        best, best_d, plateau = None, cur_d, None
        for nb in cur.neighbors:
            if not nb.alive:
                continue
            d = dist(nb)
            if d < best_d:
                best, best_d = nb, d
            elif d == cur_d and plateau is None and nb.node_id not in visited:
                plateau = nb
        nxt = best if best is not None else plateau
        if nxt is None:
            success = False
            break
        cur = nxt
        visited.add(cur.node_id)
        hops += 1
        path.append(cur.node_id)
        if hops > max_hops:
            success = False
            break
    return success, (cur if success else None), hops, path


class FullScanOverlay(CANOverlay):
    """Takeover that looks for the heir's new abutments among the dead
    node's neighbors *and every live node*, per adopted zone."""

    def _takeover(self, dead: CANNode) -> None:
        def abuts(node, zone):
            return any(zone.abuts(z) for z in node.zones)

        for former in list(dead.neighbors):
            former.neighbors.discard(dead)
        for zone in dead.zones:
            heir, heir_vol = None, float("inf")
            for nb in dead.neighbors:
                if nb.alive and abuts(nb, zone) and nb.total_volume() < heir_vol:
                    heir, heir_vol = nb, nb.total_volume()
            if heir is None:
                heir = next((c for c in self._live if abuts(c, zone)), None)
            if heir is None and self._live:
                center = zone.center()
                heir = min(self._live,
                           key=lambda c: (c.distance_to(center), c.node_id))
            if heir is None:
                continue
            heir.zones.append(zone)
            self._bsp_leaf(zone.lo).owner = heir
            for cand in list(dead.neighbors) + self._live:
                if cand is heir or not cand.alive or cand in heir.neighbors:
                    continue
                if any(abuts(cand, z) for z in heir.zones):
                    heir.neighbors.add(cand)
                    cand.neighbors.add(heir)


class TwoPassSplitOverlay(CANOverlay):
    """Join rewiring in two passes over a copied candidate set: link every
    candidate that abuts the joiner first, then unlink every owner
    neighbor that no longer abuts the owner."""

    adopted_splits = 0  # joins that split a zone the owner took over

    def _split_with(self, owner: CANNode, joiner: CANNode) -> None:
        def adjacent(a, b):
            return any(za.abuts(zb) for za in a.zones for zb in b.zones)

        idx = next(i for i, z in enumerate(owner.zones)
                   if z.contains(joiner.point))
        self.adopted_splits += idx > 0
        zone = owner.zones[idx]
        dim, at = _separating_split(zone, owner.point, joiner.point, self.rng)
        lower, upper = zone.split(dim, at)
        mine = lower if lower.contains(joiner.point) else upper
        owner.zones[idx] = upper if mine is lower else lower
        joiner.zones = [mine]
        leaf = self._bsp_leaf(joiner.point)
        leaf.lower = _BSPNode(lower, joiner if mine is lower else owner)
        leaf.upper = _BSPNode(upper, joiner if mine is upper else owner)
        leaf.dim, leaf.at = dim, at
        leaf.zone = leaf.owner = None
        candidates = NeighborSet(owner.neighbors)
        candidates.add(owner)
        joiner.neighbors = NeighborSet()
        for cand in candidates:
            if cand is not joiner and cand.alive and adjacent(cand, joiner):
                joiner.neighbors.add(cand)
                cand.neighbors.add(joiner)
        for former in list(owner.neighbors):
            if not adjacent(owner, former):
                owner.neighbors.discard(former)
                former.neighbors.discard(owner)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _coords(rng, dims):
    """Discrete capability levels (1.0 included) plus a continuous virtual
    last coordinate — the matchmaking shape, rich in shared-face ties."""
    return tuple(rng.integers(0, 11, dims - 1) / 10.0) + (float(rng.uniform()),)


class Churner:
    """Drives identical random membership ops into one or more overlays."""

    def __init__(self, overlays, dims, seed, n):
        self.overlays = overlays
        self.dims = dims
        self.rng = np.random.default_rng(seed)
        self.tag = f"kernel-{dims}-{seed}"
        self.count = 0
        self.live: list[int] = []
        for _ in range(n):
            self.join()

    def join(self):
        nid = guid_for(f"{self.tag}-{self.count}")
        self.count += 1
        point = _coords(self.rng, self.dims)
        for ov in self.overlays:
            ov.join(CANNode(nid, point))
        self.live.append(nid)

    def remove(self, nid, how):
        for ov in self.overlays:
            getattr(ov, how)(nid)
        self.live.remove(nid)

    def pick(self):
        return self.live[int(self.rng.integers(0, len(self.live)))]

    def step(self):
        """One random crash / join / leave."""
        op = int(self.rng.integers(0, 3)) if len(self.live) > 8 else 1
        if op == 1:
            self.join()
        else:
            self.remove(self.pick(), "crash" if op == 0 else "leave")


def _targets(ov: CANOverlay, rng, n):
    """Uniform points, discrete-level points (closed 1.0 boundary
    included), and points on the faces and corners of live zones."""
    live = ov.live_nodes()
    out = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            out.append(tuple(rng.uniform(0, 1, ov.dims)))
        elif kind == 1:
            out.append(tuple(rng.integers(0, 11, ov.dims) / 10.0))
        else:
            node = live[int(rng.integers(0, len(live)))]
            zone = node.zones[int(rng.integers(0, len(node.zones)))]
            inside = rng.uniform(zone.lo, zone.hi)
            on_face = rng.integers(0, 3, ov.dims)  # 0: lo face, 1: hi face, 2: interior
            if kind == 3:
                on_face[:] = np.minimum(on_face, 1)  # a corner
            out.append(tuple(
                (zone.lo[d], zone.hi[d], float(inside[d]))[on_face[d]]
                for d in range(ov.dims)))
    return out


def _neighbor_tables(ov: CANOverlay):
    return {n.node_id: ([m.node_id for m in n.neighbors], list(n.zones))
            for n in ov.live_nodes()}


# ----------------------------------------------------------------------
# route equivalence
# ----------------------------------------------------------------------

class TestRouteEquivalence:
    @pytest.mark.parametrize("dims", [2, 4, 6])
    def test_matches_two_pass_rule_after_churn(self, dims):
        ov = CANOverlay(np.random.default_rng(dims), dims=dims)
        churn = Churner([ov], dims, seed=dims, n=160)
        for _ in range(120):
            churn.step()
        ov.check_invariants()
        assert any(len(n.zones) > 1 for n in ov.live_nodes())  # multi-zone heirs
        dead = [n for n in ov.nodes.values() if not n.alive]
        assert dead
        rng = np.random.default_rng(100 + dims)
        live = ov.live_nodes()
        n_routes = on_boundary = 0
        for i, point in enumerate(_targets(ov, rng, 700)):
            if i % 5 == 0:
                start = None
            elif i % 5 == 1:
                start = dead[i % len(dead)]
            else:
                start = live[int(rng.integers(0, len(live)))]
            state = ov.rng.bit_generator.state
            got = ov.route(point, start=start)
            after = ov.rng.bit_generator.state
            ov.rng.bit_generator.state = state
            want = reference_route(ov, point, start)
            assert ov.rng.bit_generator.state == after  # same draws
            assert (got.success, got.owner, got.hops, got.path) == want
            assert got.success and got.owner is ov.zone_owner(point)
            n_routes += 1
            on_boundary += 1.0 in point
        assert n_routes >= 700 and on_boundary >= 20  # x3 dims: > 2000 routes

    def test_empty_overlay_fails_without_a_draw(self):
        ov = CANOverlay(np.random.default_rng(0), dims=2)
        state = ov.rng.bit_generator.state
        res = ov.route((0.5, 0.5))
        assert (res.success, res.owner, res.hops, res.path) == \
            reference_route(ov, (0.5, 0.5), None)
        assert ov.rng.bit_generator.state == state


class TestWrongDimensionality:
    @pytest.mark.parametrize("point", [(0.5,), (0.5,) * 3, (0.5,) * 5, ()])
    def test_route_and_zone_owner_name_both_dimensionalities(self, point):
        ov = CANOverlay(np.random.default_rng(0), dims=4)
        Churner([ov], 4, seed=0, n=20)
        state = ov.rng.bit_generator.state
        for call in (ov.route, ov.zone_owner):
            with pytest.raises(ValueError, match=rf"{len(point)} dims.*has 4"):
                call(point)
        assert ov.lookup_stats.lookups == 0
        assert ov.rng.bit_generator.state == state


# ----------------------------------------------------------------------
# takeover locality
# ----------------------------------------------------------------------

class TestTakeoverLocality:
    def test_neighbor_tables_equal_full_scan_under_churn_and_bursts(self):
        dims = 4
        local = CANOverlay(np.random.default_rng(1), dims=dims)
        full = FullScanOverlay(np.random.default_rng(1), dims=dims)
        churn = Churner([local, full], dims, seed=9, n=256)
        ops = slivers = 0

        def check():
            nonlocal ops, slivers
            ops += 1
            local.check_invariants()
            assert _neighbor_tables(local) == _neighbor_tables(full)
            # Splits between level midpoints that differ by one ulp leave
            # zones whose rounded center lies on their open face.
            slivers += any(not z.contains(z.center())
                           for n in local.live_nodes() for z in n.zones[1:])

        check()
        for round_ in range(42):
            for _ in range(4):
                churn.step()
                check()
            # A burst: a node and several of its neighbors die back to
            # back, so heirs inherit from heirs.
            victim = local.nodes[churn.pick()]
            burst = [victim.node_id] + \
                [nb.node_id for nb in victim.neighbors][:1 + round_ % 4]
            for nid in burst:
                churn.remove(nid, "leave" if round_ % 5 == 0 else "crash")
                check()
            for _ in burst:
                churn.join()
        assert ops >= 300
        assert slivers  # takeover relabeled an ulp-wide zone in the index


def _line_overlay(cls):
    """1-d overlay a|b|c|d|e, zones in that order along the line."""
    ov = cls(np.random.default_rng(0), dims=1)
    a, b, c, d, e = nodes = [CANNode(i + 1, (x,)) for i, x in
                             enumerate((0.05, 0.15, 0.22, 0.6, 0.9))]
    for node in nodes:
        ov.join(node)
    return ov, nodes


class TestStructuralRepair:
    """The two takeover branches whose heir need not be a neighbor of the
    dead node; the locality shortcut must not apply past them."""

    @pytest.mark.parametrize("cls", [CANOverlay, FullScanOverlay])
    def test_walled_in_zone_goes_to_the_nearest_live_node(self, cls):
        ov, (a, b, c, d, e) = _line_overlay(cls)
        ov.crash(a.node_id)
        ov.crash(c.node_id)
        # b adopted both: its primary zone is walled in by its own zones.
        assert len(b.zones) == 3 and list(b.neighbors) == [d]
        assert not any(b.zone.abuts(z) for z in d.zones + e.zones)
        ov.crash(b.node_id)
        ov.check_invariants()
        assert len(d.zones) == 4 and list(d.neighbors) == [e]
        assert ov.route((0.0,), start=e).owner is d

    @pytest.mark.parametrize("cls", [CANOverlay, FullScanOverlay])
    def test_heir_unknown_to_a_stale_table_is_still_linked(self, cls):
        """``b``'s table has lost ``a``: ``a`` inherits ``b``'s primary zone
        through the live scan, and ``d`` — heir of the next zone, found in
        the table — must still discover its new abutment with ``a``."""
        ov, (a, b, c, d, e) = _line_overlay(cls)
        ov.crash(c.node_id)
        assert [n.node_id for n in b.neighbors] == [a.node_id, d.node_id]
        b.neighbors.discard(a)
        a.neighbors.discard(b)
        ov.crash(b.node_id)
        ov.check_invariants()
        assert list(a.neighbors) == [d] and list(d.neighbors) == [e, a]


class TestInvariantChecker:
    """The locality argument rests on ``check_invariants`` really pinning
    neighbor sets to zone geometry."""

    def _overlay(self):
        ov = CANOverlay(np.random.default_rng(0), dims=3)
        churn = Churner([ov], 3, seed=0, n=60)
        for _ in range(40):
            churn.step()
        ov.check_invariants()
        return ov

    def test_missing_link_is_caught(self):
        ov = self._overlay()
        a = ov.live_nodes()[0]
        b = next(iter(a.neighbors))
        a.neighbors.discard(b)
        b.neighbors.discard(a)
        with pytest.raises(AssertionError, match="neighbor sets differ"):
            ov.check_invariants()

    def test_spurious_link_is_caught(self):
        ov = self._overlay()
        a = ov.live_nodes()[0]
        b = next(n for n in ov.live_nodes() if n is not a and n not in a.neighbors)
        a.neighbors.add(b)
        b.neighbors.add(a)
        with pytest.raises(AssertionError, match="neighbor sets differ"):
            ov.check_invariants()

    def test_agrees_with_scalar_abuts(self):
        ov = self._overlay()
        live = ov.live_nodes()
        for a in live:
            want = [b.node_id for b in live if b is not a and any(
                za.abuts(zb) for za in a.zones for zb in b.zones)]
            assert sorted(n.node_id for n in a.neighbors) == sorted(want)

    def test_empty_overlay_is_trivially_fine(self):
        CANOverlay(np.random.default_rng(0), dims=3).check_invariants()


# ----------------------------------------------------------------------
# join rewiring
# ----------------------------------------------------------------------

class TestJoinRewiring:
    def test_neighbor_order_equals_two_pass_rewiring_under_churn(self):
        # Crashes and leaves hand zones to heirs, so later joins split
        # adopted zones of owners that hold several.
        dims = 4
        one = CANOverlay(np.random.default_rng(3), dims=dims)
        two = TwoPassSplitOverlay(np.random.default_rng(3), dims=dims)
        churn = Churner([one, two], dims, seed=5, n=200)
        assert _neighbor_tables(one) == _neighbor_tables(two)
        for _ in range(300):
            churn.step()
            assert _neighbor_tables(one) == _neighbor_tables(two)
        one.check_invariants()
        assert two.adopted_splits

    def test_512_joins_are_pinned(self):
        """Zones and neighbor order after 512 4-d joins, captured before
        the one-pass rewiring: greedy routing breaks ties by that order."""
        rng = np.random.default_rng(44)
        ov = CANOverlay(np.random.default_rng(45), dims=4)
        for i, point in enumerate(rng.random((512, 4))):
            ov.join(CANNode(guid_for(f"can-pin-{i}"),
                            tuple(float(c) for c in point)))
        digest = hashlib.sha256()
        for node in ov.live_nodes():
            digest.update(repr((node.node_id,
                                [(z.lo, z.hi) for z in node.zones],
                                [nb.node_id for nb in node.neighbors]))
                          .encode())
        assert digest.hexdigest() == (
            "07be262bd1007166ff491aa85d94175c83ba974f1aa3001dd8db017f43289522")


def test_neighbor_set_iterates_in_insertion_order():
    nodes = [CANNode(i, (0.5,)) for i in (5, 3, 9)]
    assert [n.node_id for n in NeighborSet(nodes)] == [5, 3, 9]
