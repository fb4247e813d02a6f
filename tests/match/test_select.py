"""Phase-2 selection machinery: policies, probe rounds, oracle mode."""

import numpy as np
import pytest

from repro.grid.system import GridConfig
from repro.match.select import (
    CandidateSet,
    LeastLoadedPolicy,
    PowerOfDPolicy,
    ProbeRound,
    RandomPolicy,
    make_policy,
    oracle_select,
)

from tests.conftest import make_small_grid


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestCandidateSet:
    def test_defaults(self):
        cset = CandidateSet()
        assert not cset
        assert cset.hops == 0 and cset.pushes == 0
        assert cset.charge_probes and cset.tie_break == "random"

    def test_truthiness_tracks_candidates(self):
        assert CandidateSet(candidates=[1])
        assert not CandidateSet(hops=5)


class TestLeastLoadedPolicy:
    def test_probes_everyone(self, rng):
        assert LeastLoadedPolicy().probe_targets([3, 1, 2], rng) == [3, 1, 2]

    def test_ranks_by_load_then_search_order(self, rng):
        ranking = LeastLoadedPolicy().rank(
            [10, 20, 30], {10: 2, 20: 0, 30: 1}, (), rng)
        assert ranking == [20, 30, 10]

    def test_tie_break_first_is_search_order(self, rng):
        ranking = LeastLoadedPolicy().rank(
            [10, 20, 30], {10: 1, 20: 1, 30: 1}, (), rng, tie_break="first")
        assert ranking == [10, 20, 30]

    def test_tie_break_random_stays_within_winners(self, rng):
        picks = {LeastLoadedPolicy().rank(
            [10, 20, 30], {10: 0, 20: 0, 30: 9}, (), rng)[0]
            for _ in range(50)}
        assert picks == {10, 20}

    def test_failed_candidates_excluded(self, rng):
        ranking = LeastLoadedPolicy().rank(
            [10, 20, 30], {10: 0, 30: 1}, {20}, rng)
        assert 20 not in ranking
        assert ranking[0] == 10

    def test_unprobed_rank_last_as_fallbacks(self, rng):
        ranking = LeastLoadedPolicy().rank([10, 20, 30], {20: 5}, (), rng)
        assert ranking == [20, 10, 30]

    def test_all_failed_leaves_nothing(self, rng):
        assert LeastLoadedPolicy().rank([10, 20], {}, {10, 20}, rng) == []


class TestRandomPolicy:
    def test_never_probes(self, rng):
        assert RandomPolicy().probe_targets([1, 2, 3], rng) == []

    def test_rank_covers_all_candidates(self, rng):
        ranking = RandomPolicy().rank([10, 20, 30], {}, (), rng)
        assert sorted(ranking) == [10, 20, 30]

    def test_rank_excludes_failed(self, rng):
        ranking = RandomPolicy().rank([10, 20, 30], {}, {30}, rng)
        assert sorted(ranking) == [10, 20]

    def test_empty_pool(self, rng):
        assert RandomPolicy().rank([10], {}, {10}, rng) == []


class TestPowerOfDPolicy:
    def test_probes_exactly_d(self, rng):
        targets = PowerOfDPolicy(d=2).probe_targets(list(range(100, 120)), rng)
        assert len(targets) == 2
        assert all(t in range(100, 120) for t in targets)

    def test_small_pool_probes_all(self, rng):
        assert PowerOfDPolicy(d=3).probe_targets([1, 2], rng) == [1, 2]

    def test_ranks_probed_first_unprobed_fallback(self, rng):
        ranking = PowerOfDPolicy(d=2).rank(
            [10, 20, 30, 40], {20: 1, 30: 0}, (), rng)
        assert ranking[:2] == [30, 20]
        assert sorted(ranking[2:]) == [10, 40]

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            PowerOfDPolicy(d=0)


class TestMakePolicy:
    def test_registry_names(self):
        assert make_policy("least-loaded").name == "least-loaded"
        assert make_policy("random").name == "random"
        assert make_policy("power-of-d", probe_fanout=3).d == 3

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown selection policy"):
            make_policy("psychic")


class TestProbeRound:
    def test_completes_on_last_settlement(self):
        rnd = ProbeRound([1, 2, 3])
        assert rnd.reply(1, 4) is False
        assert rnd.timeout(2) is False
        assert rnd.reply(3, 0) is True
        assert rnd.loads == {1: 4, 3: 0}
        assert rnd.failed == {2}

    def test_single_target(self):
        rnd = ProbeRound([7])
        assert rnd.timeout(7) is True
        assert rnd.failed == {7} and rnd.loads == {}


class TestOracleSelect:
    def test_empty_candidate_set(self, rng, small_grid):
        ranking, probes = oracle_select(
            small_grid, CandidateSet(), LeastLoadedPolicy(), rng)
        assert ranking == [] and probes == 0

    def test_charge_probes_false_reports_zero(self, rng, small_grid):
        nid = small_grid.node_list[0].node_id
        cset = CandidateSet(candidates=[nid], charge_probes=False)
        ranking, probes = oracle_select(
            small_grid, cset, LeastLoadedPolicy(), rng)
        assert ranking == [nid] and probes == 0

    @pytest.mark.parametrize("dispatch_ack", [False, True])
    @pytest.mark.parametrize("tie_break", ["random", "first"])
    def test_probes_counted_when_charged(self, tie_break, dispatch_ack):
        """The registry-column path (``reg_idx`` attached) ranks exactly
        like :meth:`LeastLoadedPolicy.rank`: same winner, same fallback
        order, same tie-break draws, same probe charge."""
        grid = make_small_grid(cfg=GridConfig(seed=7,
                                              dispatch_ack=dispatch_ack))
        loads = [2, 0, 1, 0, 3, 0]
        grid.registry.queue_len[:len(loads)] = loads
        ids = [n.node_id for n in grid.node_list[:len(loads)]]
        plain = CandidateSet(candidates=ids, tie_break=tie_break)
        columnar = CandidateSet(candidates=ids, tie_break=tie_break,
                                reg_idx=np.arange(len(loads)))
        winners = set()
        for seed in range(16):
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            ranking, probes = oracle_select(
                grid, plain, LeastLoadedPolicy(), rng_a)
            fast, fast_probes = oracle_select(
                grid, columnar, LeastLoadedPolicy(), rng_b)
            assert probes == fast_probes == len(loads)
            assert sorted(ranking) == sorted(ids)
            # Without acked dispatch only the winner and the runner-up
            # are ever read, so the column path stops there.
            assert fast == (ranking if dispatch_ack else ranking[:2])
            assert rng_a.random() == rng_b.random()
            winners.add(ranking[0])
        zero_load = {ids[1], ids[3], ids[5]}
        assert winners == (zero_load if tie_break == "random" else {ids[1]})
