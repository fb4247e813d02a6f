"""Centralized matchmaker: least-loaded selection, server mode."""

import pytest

from repro.grid.job import Job, JobProfile
from repro.match import make_matchmaker
from repro.match.base import MatchResult

from tests.conftest import make_small_grid


def job_with(req, name="j", client=1):
    return Job(profile=JobProfile(name=name, client_id=client,
                                  requirements=req, work=10.0))


class TestSelection:
    def test_picks_satisfying_node(self):
        grid = make_small_grid("centralized", n_nodes=20)
        from repro.grid.resources import satisfies

        req = (8.0, 0.0, 0.0)
        result = grid.matchmaker.find_run_node(grid.node_list[0], job_with(req))
        assert result.node is not None
        assert satisfies(result.node.capability, req)

    def test_picks_least_loaded(self):
        grid = make_small_grid("centralized", n_nodes=5)
        # Load every node except one.
        idle = grid.node_list[2]
        for node in grid.node_list:
            if node is not idle:
                node.queue.append(job_with((0.0, 0.0, 0.0)))
                grid.on_queue_change(node)
        result = grid.matchmaker.find_run_node(
            grid.node_list[0], job_with((0.0, 0.0, 0.0)))
        assert result.node is idle

    def test_zero_overlay_cost(self):
        grid = make_small_grid("centralized")
        result = grid.matchmaker.find_run_node(
            grid.node_list[0], job_with((0.0, 0.0, 0.0)))
        assert result.hops == 0 and result.probes == 0

    def test_impossible_requirement_returns_none(self):
        grid = make_small_grid("centralized")
        result = grid.matchmaker.find_run_node(
            grid.node_list[0], job_with((10.0, 10.0, 10.0)))
        # Only satisfiable if some node has max capability everywhere.
        if result.node is not None:
            assert result.node.capability == (10.0, 10.0, 10.0)

    def test_crashed_nodes_excluded(self):
        grid = make_small_grid("centralized", n_nodes=4)
        for node in grid.node_list[1:]:
            grid.crash_node(node.node_id)
        result = grid.matchmaker.find_run_node(
            grid.node_list[0], job_with((0.0, 0.0, 0.0)))
        assert result.node is grid.node_list[0]

    def test_ties_break_randomly_but_deterministically(self):
        grid = make_small_grid("centralized", n_nodes=10)
        choices = {grid.matchmaker.find_run_node(
            grid.node_list[0], job_with((0.0, 0.0, 0.0))).node.node_id
            for _ in range(30)}
        assert len(choices) > 1  # spread across equally idle nodes


class TestServerMode:
    def test_server_owns_every_job(self):
        grid = make_small_grid("centralized", n_nodes=8, server_mode=True)
        server = grid.matchmaker.server
        owner, hops = grid.matchmaker.find_owner(job_with((0.0, 0.0, 0.0)))
        assert owner is server
        assert hops == 1

    def test_server_never_runs_jobs(self):
        grid = make_small_grid("centralized", n_nodes=8, server_mode=True)
        server = grid.matchmaker.server
        for _ in range(20):
            result = grid.matchmaker.find_run_node(
                server, job_with((0.0, 0.0, 0.0)))
            assert result.node is not server

    def test_outage_blocks_matchmaking(self):
        grid = make_small_grid("centralized", n_nodes=8, server_mode=True)
        server = grid.matchmaker.server
        grid.partition_node(server.node_id)
        owner, _ = grid.matchmaker.find_owner(job_with((0.0, 0.0, 0.0)))
        assert owner is None
        result = grid.matchmaker.find_run_node(server, job_with((0.0, 0.0, 0.0)))
        assert result.node is None
        grid.heal_node(server.node_id)
        owner, _ = grid.matchmaker.find_owner(job_with((0.0, 0.0, 0.0)))
        assert owner is server

    def test_server_stays_out_of_pool_after_heal(self):
        grid = make_small_grid("centralized", n_nodes=8, server_mode=True)
        server = grid.matchmaker.server
        grid.partition_node(server.node_id)
        grid.heal_node(server.node_id)
        for _ in range(20):
            result = grid.matchmaker.find_run_node(
                server, job_with((0.0, 0.0, 0.0)))
            assert result.node is not server


class TestMatchResult:
    def test_match_result_truthiness_is_having_a_node(self):
        grid = make_small_grid("centralized", n_nodes=8)
        assert not MatchResult(None, hops=3)
        assert MatchResult(grid.node_list[0])
        found = grid.matchmaker.find_run_node(grid.node_list[0],
                                              job_with((0.0, 0.0, 0.0)))
        assert found and found.node.alive


class TestUnbound:
    def test_unbound_matchmaker_raises(self):
        mm = make_matchmaker("centralized")
        with pytest.raises(RuntimeError):
            mm.find_run_node(None, job_with((0.0, 0.0, 0.0)))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_matchmaker("quantum")
