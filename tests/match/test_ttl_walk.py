"""TTL random walk: bounded cost, first-fit semantics, documented misses."""

from repro.grid.job import Job, JobProfile
from repro.grid.resources import satisfies

from tests.conftest import make_small_grid


def job_with(req, name="ttl-job"):
    return Job(profile=JobProfile(name=name, client_id=1, requirements=req,
                                  work=10.0))


class TestWalk:
    def test_ttl_autosizes_to_log(self):
        grid = make_small_grid("ttl-walk", n_nodes=32)
        assert grid.matchmaker.ttl == 2 * 5  # 2*log2(32)

    def test_explicit_ttl_respected(self):
        grid = make_small_grid("ttl-walk", n_nodes=32, ttl=3)
        assert grid.matchmaker.ttl == 3
        job = job_with((0.0, 0.0, 0.0))
        owner, _ = grid.matchmaker.find_owner(job)
        result = grid.matchmaker.find_run_node(owner, job)
        assert result.hops <= 3

    def test_unconstrained_job_found_immediately(self):
        grid = make_small_grid("ttl-walk", n_nodes=32)
        job = job_with((0.0, 0.0, 0.0))
        owner, _ = grid.matchmaker.find_owner(job)
        result = grid.matchmaker.find_run_node(owner, job)
        # An idle satisfying node is accepted on sight (first-fit).
        assert result.node is not None
        assert result.hops == 0  # owner itself was idle and satisfying

    def test_result_satisfies_requirements(self):
        grid = make_small_grid("ttl-walk", n_nodes=32)
        req = (4.0, 0.0, 0.0)
        job = job_with(req)
        owner, _ = grid.matchmaker.find_owner(job)
        result = grid.matchmaker.find_run_node(owner, job)
        if result.node is not None:
            assert satisfies(result.node.capability, req)

    def test_can_miss_feasible_resources(self):
        # The §4 criticism: a short walk over a large network misses rare
        # satisfying nodes even though they exist.
        grid = make_small_grid("ttl-walk", n_nodes=64, ttl=2, seed=3)
        # Find the rarest high capability present in the population.
        best_cpu = max(n.capability[0] for n in grid.node_list)
        rare_req = (best_cpu, 0.0, 0.0)
        holders = [n for n in grid.node_list
                   if satisfies(n.capability, rare_req)]
        assert holders  # feasible by construction
        misses = 0
        for i in range(30):
            job = job_with(rare_req, name=f"rare-{i}")
            owner, _ = grid.matchmaker.find_owner(job)
            if grid.matchmaker.find_run_node(owner, job).node is None:
                misses += 1
        assert misses > 0

    def test_prefers_idle_over_busy(self):
        grid = make_small_grid("ttl-walk", n_nodes=16, accept_queue=0)
        busy = grid.node_list[0]
        for i in range(5):
            busy.queue.append(job_with((0.0, 0.0, 0.0), name=f"b-{i}"))
        grid.on_queue_change(busy)  # sync load watchers (registry column)
        job = job_with((0.0, 0.0, 0.0), name="probe")
        result = grid.matchmaker.find_run_node(busy, job)
        assert result.node is not busy


class TestChurn:
    def test_crashed_node_is_never_visited(self):
        grid = make_small_grid("ttl-walk", n_nodes=32, ttl=8, seed=5)
        mm = grid.matchmaker
        victim = grid.node_list[4]
        grid.crash_node(victim.node_id)
        assert not mm.chord.nodes[victim.node_id].alive
        for i in range(40):
            job = job_with((0.0, 0.0, 0.0), name=f"walk-{i}")
            owner, _ = mm.find_owner(job)
            assert owner is not victim
            cset = mm.search(owner, job)
            assert victim.node_id not in cset.candidates

    def test_recovered_node_rejoins_the_ring(self):
        grid = make_small_grid("ttl-walk", n_nodes=32, seed=5)
        mm = grid.matchmaker
        victim = grid.node_list[4]
        grid.crash_node(victim.node_id)
        grid.recover_node(victim.node_id)
        assert mm.chord.nodes[victim.node_id].alive
        assert mm.chord.nodes[victim.node_id] in mm.chord.live_nodes()
        # The recovered node owns its own GUID again.
        assert mm.chord.successor_of(victim.node_id).node_id == \
            victim.node_id
