"""Message-level Chord: join convergence, lookups, churn self-repair.

Everything here runs with zero oracle intervention — nodes know only what
messages told them, and failures surface as RPC timeouts.
"""

import numpy as np
import pytest

from repro.dht.chord.protocol import ChordProtocolNetwork
from repro.sim.failure import CrashRecoveryProcess
from repro.sim.kernel import Simulator
from repro.sim.network import LatencyModel, Network
from repro.util.ids import guid_for


def make_network(seed=0, interval=2.0, latency_jitter=0.2):
    sim = Simulator()
    network = Network(sim, np.random.default_rng(seed),
                      LatencyModel(mean=0.02, jitter=latency_jitter))
    chord = ChordProtocolNetwork(sim, network, np.random.default_rng(seed + 1),
                                 stabilize_interval=interval)
    return sim, network, chord


def build_ring(chord, sim, n, tag="n", stagger=0.5, settle=60.0):
    boot = guid_for(f"{tag}-boot")
    chord.bootstrap(boot)
    ids = [boot]
    for i in range(n - 1):
        nid = guid_for(f"{tag}-{i}")
        ids.append(nid)
        sim.schedule(1.0 + i * stagger, chord.join, nid, boot)
    sim.run(until=1.0 + n * stagger + settle)
    return ids


def run_lookups(chord, sim, keys, horizon=30.0, starts=None):
    results = {}
    live = chord.live_ids()
    for i, key in enumerate(keys):
        start = (starts or live)[i % len(starts or live)]
        chord.lookup(key, start,
                     (lambda k: lambda owner, q: results.__setitem__(k, (owner, q)))(key))
    sim.run(until=sim.now + horizon)
    return results


class TestJoinConvergence:
    def test_sequential_joins_form_consistent_ring(self):
        sim, _, chord = make_network()
        build_ring(chord, sim, 24)
        assert len(chord.live_ids()) == 24
        assert chord.ring_consistent()

    def test_concurrent_joins_converge(self):
        sim, _, chord = make_network(seed=3)
        boot = guid_for("cj-boot")
        chord.bootstrap(boot)
        for i in range(16):  # all join within one second
            sim.schedule(1.0 + 0.05 * i, chord.join, guid_for(f"cj-{i}"), boot)
        sim.run(until=120.0)
        assert len(chord.live_ids()) == 17
        assert chord.ring_consistent()

    def test_duplicate_create_rejected(self):
        sim, _, chord = make_network()
        chord.bootstrap(guid_for("dup"))
        with pytest.raises(ValueError):
            chord.create(guid_for("dup"))


class TestLookups:
    def test_lookups_find_oracle_owner(self):
        sim, _, chord = make_network()
        build_ring(chord, sim, 24, tag="lk")
        keys = [guid_for(f"key-{i}") for i in range(60)]
        results = run_lookups(chord, sim, keys)
        for key in keys:
            owner, _ = results[key]
            assert owner == chord.oracle_owner(key)

    def test_query_cost_logarithmic(self):
        sim, _, chord = make_network()
        build_ring(chord, sim, 32, tag="qc")
        keys = [guid_for(f"qk-{i}") for i in range(60)]
        results = run_lookups(chord, sim, keys)
        queries = [q for _, q in results.values()]
        assert np.mean(queries) < 3 * np.log2(32)

    def test_lookup_self_key(self):
        sim, _, chord = make_network()
        ids = build_ring(chord, sim, 12, tag="sk")
        results = run_lookups(chord, sim, [ids[3]], starts=[ids[5]])
        owner, _ = results[ids[3]]
        assert owner == ids[3]

    def test_exclusion_skips_named_node(self):
        sim, _, chord = make_network()
        ids = build_ring(chord, sim, 12, tag="ex")
        target = sorted(chord.live_ids())[4]
        out = []
        chord.lookup(target, ids[0], lambda o, q: out.append(o),
                     exclude=(target,))
        sim.run(until=sim.now + 20.0)
        live = sorted(chord.live_ids())
        expected = live[(live.index(target) + 1) % len(live)]
        assert out == [expected]


    def test_lookup_stats_count_every_lookup(self):
        sim, _, chord = make_network()
        build_ring(chord, sim, 16, tag="sr")
        keys = [guid_for(f"sr-{i}") for i in range(20)]
        run_lookups(chord, sim, keys)
        stats = chord.lookup_stats
        assert stats.started >= 20
        assert stats.succeeded + stats.failed == len(stats.results)
        assert stats.succeeded >= 20 and stats.failed == 0
        assert stats.mean_queries >= 1.0

class TestChurnSelfRepair:
    def test_ring_heals_after_mass_failure(self):
        sim, _, chord = make_network(interval=2.0)
        build_ring(chord, sim, 24, tag="mf")
        victims = chord.live_ids()[::4]
        for nid in victims:
            chord.crash(nid)
        sim.run(until=sim.now + 60.0)  # stabilization only, no oracle
        assert chord.ring_consistent()
        keys = [guid_for(f"mk-{i}") for i in range(40)]
        results = run_lookups(chord, sim, keys)
        ok = sum(1 for key in keys
                 if results[key][0] == chord.oracle_owner(key))
        assert ok >= 38

    def test_rejoin_after_crash(self):
        sim, _, chord = make_network()
        ids = build_ring(chord, sim, 16, tag="rj")
        victim = ids[5]
        chord.crash(victim)
        sim.run(until=sim.now + 20.0)
        chord.recover(victim, ids[0])
        sim.run(until=sim.now + 60.0)
        assert victim in chord.live_ids()
        assert chord.ring_consistent()
        results = run_lookups(chord, sim, [victim], starts=[ids[1]])
        assert results[victim][0] == victim

    def test_continuous_churn_self_repairs(self):
        sim, _, chord = make_network(seed=9, interval=2.0)
        ids = build_ring(chord, sim, 24, tag="cc")
        rng = np.random.default_rng(4)

        def contact():
            live = chord.live_ids()
            return live[int(rng.integers(0, len(live)))] if live else None

        def recover(nid):
            c = contact()
            if c is not None:
                chord.recover(nid, c, contacts=contact)

        churn = CrashRecoveryProcess(sim, rng, ids[1:],
                                     crash_fn=chord.crash, recover_fn=recover,
                                     mean_uptime=120.0, mean_downtime=30.0)
        sim.run(until=sim.now + 400.0)
        churn.stop()
        sim.run(until=sim.now + 60.0)
        assert chord.ring_consistent()

    def test_crashed_node_stops_serving(self):
        sim, _, chord = make_network()
        ids = build_ring(chord, sim, 8, tag="cs")
        chord.crash(ids[3])
        out = []
        chord.rpc.call(ids[0], ids[3], "ping", None,
                       lambda _: out.append("reply"), lambda: out.append("TO"))
        sim.run(until=sim.now + 5.0)
        assert out == ["TO"]
