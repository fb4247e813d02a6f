"""RN-Tree: tree construction invariants, aggregation, extended search."""

import pytest

from repro.grid.job import Job, JobProfile
from repro.grid.resources import satisfies

from tests.conftest import make_small_grid


def job_with(req, name="rnt-job"):
    return Job(profile=JobProfile(name=name, client_id=1, requirements=req,
                                  work=10.0))


@pytest.fixture
def grid():
    return make_small_grid("rn-tree", n_nodes=40)


class TestTreeStructure:
    def test_single_root(self, grid):
        tree = grid.matchmaker.tree
        roots = [t for t in tree.values() if t.parent_id is None]
        assert len(roots) == 1
        # The root is successor(0) == the minimum live id.
        assert roots[0].node_id == min(tree)

    def test_parent_ids_strictly_decrease(self, grid):
        # This is what makes the structure a tree (no cycles).
        for tnode in grid.matchmaker.tree.values():
            if tnode.parent_id is not None:
                assert tnode.parent_id < tnode.node_id

    def test_children_lists_consistent(self, grid):
        tree = grid.matchmaker.tree
        for tnode in tree.values():
            for child_id in tnode.children:
                assert tree[child_id].parent_id == tnode.node_id

    def test_all_nodes_reach_root(self, grid):
        tree = grid.matchmaker.tree
        root_id = min(tree)
        for nid in tree:
            cur, steps = nid, 0
            while tree[cur].parent_id is not None:
                cur = tree[cur].parent_id
                steps += 1
                assert steps <= len(tree)
            assert cur == root_id

    def test_tree_depth_logarithmic(self, grid):
        tree = grid.matchmaker.tree

        def depth(nid):
            d = 0
            while tree[nid].parent_id is not None:
                nid = tree[nid].parent_id
                d += 1
            return d

        max_depth = max(depth(nid) for nid in tree)
        # Expected O(log N); allow a wide constant.
        assert max_depth <= 4 * max(1, (len(tree)).bit_length())


class TestAggregation:
    def test_subtree_max_dominates_every_descendant(self, grid):
        tree = grid.matchmaker.tree

        def descendants(nid):
            out = [nid]
            for child in tree[nid].children:
                out.extend(descendants(child))
            return out

        for nid, tnode in tree.items():
            for desc in descendants(nid):
                cap = grid.nodes[desc].capability
                assert all(m >= c for m, c in zip(tnode.subtree_max, cap))

    def test_root_aggregate_is_global_max(self, grid):
        tree = grid.matchmaker.tree
        root = tree[min(tree)]
        for d in range(3):
            global_max = max(n.capability[d] for n in grid.node_list)
            assert root.subtree_max[d] == global_max

    def test_aggregates_recomputed_after_crash(self, grid):
        # Crash the node holding the global max cpu; the root aggregate
        # must drop accordingly.
        best = max(grid.node_list, key=lambda n: n.capability[0])
        peak = best.capability[0]
        holders = [n for n in grid.node_list if n.capability[0] == peak]
        for node in holders:
            grid.crash_node(node.node_id)
        tree = grid.matchmaker.tree
        root = tree[min(tree)]
        remaining_max = max(n.capability[0] for n in grid.live_nodes())
        assert root.subtree_max[0] == remaining_max


class TestSearch:
    def test_finds_k_candidates_when_available(self, grid):
        mm = grid.matchmaker
        req = (0.0, 0.0, 0.0)
        candidates, hops = mm._extended_search(
            grid.node_list[0].node_id, req, mm.k)
        assert len(candidates) == mm.k
        assert hops > 0

    def test_all_candidates_satisfy(self, grid):
        mm = grid.matchmaker
        req = (6.0, 0.0, 5.0)
        candidates, _ = mm._extended_search(
            grid.node_list[0].node_id, req, mm.k)
        for nid in candidates:
            assert satisfies(grid.nodes[nid].capability, req)

    def test_unsatisfiable_returns_empty(self, grid):
        mm = grid.matchmaker
        caps = [n.capability for n in grid.node_list]
        if any(c == (10.0, 10.0, 10.0) for c in caps):
            pytest.skip("population happens to contain a maximal node")
        candidates, _ = mm._extended_search(
            grid.node_list[0].node_id, (10.0, 10.0, 10.0), mm.k)
        assert candidates == []

    def test_find_run_node_returns_satisfying_least_loaded(self, grid):
        mm = grid.matchmaker
        req = (5.0, 0.0, 0.0)
        result = mm.find_run_node(grid.node_list[0], job_with(req))
        assert result.node is not None
        assert satisfies(result.node.capability, req)
        assert result.probes >= 1
        assert result.hops >= 0

    def test_search_cost_scales_with_constraints(self, grid):
        # Heavier constraints prune more subtrees but must visit more of
        # the tree to find k candidates.
        mm = grid.matchmaker
        _, hops_easy = mm._extended_search(
            grid.node_list[0].node_id, (0.0, 0.0, 0.0), mm.k)
        _, hops_hard = mm._extended_search(
            grid.node_list[0].node_id, (9.0, 9.0, 0.0), mm.k)
        assert hops_easy <= hops_hard + len(grid.node_list)  # sanity ceiling


class TestOwnerMapping:
    def test_owner_is_chord_successor(self, grid):
        job = job_with((0.0, 0.0, 0.0), name="owner-map")
        owner, hops = grid.matchmaker.find_owner(job)
        assert owner is grid.nodes[
            grid.matchmaker.chord.successor_of(job.guid).node_id]
        assert hops >= 0

    def test_owner_mapping_survives_crash(self, grid):
        job = job_with((0.0, 0.0, 0.0), name="owner-map-2")
        owner, _ = grid.matchmaker.find_owner(job)
        grid.crash_node(owner.node_id)
        new_owner, _ = grid.matchmaker.find_owner(job)
        assert new_owner is not None
        assert new_owner.node_id != owner.node_id


class TestChurnMaintenance:
    def test_tree_rebuilt_after_crash(self, grid):
        victim = grid.node_list[5]
        grid.crash_node(victim.node_id)
        tree = grid.matchmaker.tree
        assert victim.node_id not in tree
        roots = [t for t in tree.values() if t.parent_id is None]
        assert len(roots) == 1

    def test_recovered_node_rejoins_tree(self, grid):
        victim = grid.node_list[5]
        grid.crash_node(victim.node_id)
        grid.recover_node(victim.node_id)
        assert victim.node_id in grid.matchmaker.tree
