"""Incremental RN-Tree maintenance must equal a from-scratch rebuild.

``on_crash``/``on_join`` splice single nodes in and out of the tree using
the parent-probe index (one parent point per non-root member) and
dirty-path aggregation.  After *any* churn sequence, the (parents,
children, subtree maxima) triple must be bit-identical to throwing the
tree away and rebuilding it from the current Chord membership — that is
the whole correctness contract of the fast path.
"""

import numpy as np
import pytest

from repro.experiments.runner import build_population
from repro.grid.system import DesktopGrid, GridConfig
from repro.match import make_matchmaker
from repro.match.rntree import parent_point
from repro.workloads.spec import WorkloadConfig


def _make_grid(n_nodes: int, seed: int) -> DesktopGrid:
    wl = WorkloadConfig(n_nodes=n_nodes, n_jobs=5, node_mode="mixed",
                        job_mode="mixed", mean_work=50.0,
                        mean_interarrival=5.0)
    nodes, _ = build_population(wl, seed=seed)
    return DesktopGrid(GridConfig(seed=seed), make_matchmaker("rn-tree"),
                       nodes)


def _snapshot(mm) -> dict:
    return {nid: (t.parent_id, tuple(t.children), t.subtree_max)
            for nid, t in mm.tree.items()}


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_churn_matches_rebuild(self, seed):
        grid = _make_grid(90, seed)
        mm = grid.matchmaker
        rng = np.random.default_rng(seed + 100)
        ids = [n.node_id for n in grid.node_list]
        down: list[int] = []
        for step in range(120):
            if down and (rng.random() < 0.5 or len(down) > 60):
                grid.recover_node(down.pop(int(rng.integers(0, len(down)))))
            else:
                live = [i for i in ids if i not in down]
                victim = live[int(rng.integers(0, len(live)))]
                down.append(victim)
                grid.crash_node(victim)
            if step % 31 == 0:  # long incremental accumulation windows
                incremental = _snapshot(mm)
                mm._rebuild_tree()
                assert incremental == _snapshot(mm), f"diverged at {step}"
        incremental = _snapshot(mm)
        mm._rebuild_tree()
        assert incremental == _snapshot(mm)

    def test_probe_index_stays_consistent(self):
        grid = _make_grid(60, 3)
        mm = grid.matchmaker
        rng = np.random.default_rng(9)
        ids = [n.node_id for n in grid.node_list]
        down: list[int] = []
        for _ in range(60):
            if down and rng.random() < 0.5:
                grid.recover_node(down.pop())
            else:
                live = [i for i in ids if i not in down]
                victim = live[int(rng.integers(0, len(live)))]
                down.append(victim)
                grid.crash_node(victim)
            # After every event, the sorted probe list and the per-node
            # reverse map both hold exactly every live member's recomputed
            # parent point, and nothing for the root.
            chord = mm.chord
            points = {nid: parent_point(nid, chord.predecessor_id(nid))
                      for nid in mm.tree}
            expected = sorted((pt, nid) for nid, pt in points.items()
                              if pt is not None)
            assert mm._probe_list == expected
            assert mm._probe_points == {nid: pt for pt, nid in expected}
            assert set(mm.tree) == {n.node_id for n in chord.live_nodes()}
            assert list(points.values()).count(None) == 1

    def test_deep_churn_then_total_recovery(self):
        grid = _make_grid(40, 5)
        mm = grid.matchmaker
        ids = [n.node_id for n in grid.node_list]
        for nid in ids[:-3]:  # crash down to a tiny ring (rebuild fallback)
            grid.crash_node(nid)
        for nid in ids[:-3]:
            grid.recover_node(nid)
        incremental = _snapshot(mm)
        mm._rebuild_tree()
        assert incremental == _snapshot(mm)
        assert len(mm.tree) == len(ids)
