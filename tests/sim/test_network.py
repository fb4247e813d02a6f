"""Message delivery, latency, and dead-endpoint semantics."""

import numpy as np
import pytest

from repro.sim.network import LatencyModel, Network
from repro.sim.kernel import Simulator


class FakeEndpoint:
    def __init__(self, node_id, alive=True):
        self.node_id = node_id
        self.alive = alive
        self.inbox = []

    def handle_message(self, msg):
        self.inbox.append(msg)


class NotifiedEndpoint(FakeEndpoint):
    def __init__(self, node_id, alive=True):
        super().__init__(node_id, alive)
        self.undeliverable = []

    def handle_undeliverable(self, msg):
        self.undeliverable.append(msg)


@pytest.fixture
def net():
    sim = Simulator()
    rng = np.random.default_rng(0)
    return Network(sim, rng, LatencyModel(mean=0.01, jitter=0.0))


class TestDelivery:
    def test_basic_delivery(self, net):
        a, b = FakeEndpoint(1), FakeEndpoint(2)
        net.register(a)
        net.register(b)
        net.send("ping", 1, 2, payload="hello")
        net.sim.run()
        assert len(b.inbox) == 1
        msg = b.inbox[0]
        assert msg.kind == "ping" and msg.payload == "hello" and msg.src == 1

    def test_delivery_takes_latency(self, net):
        a, b = FakeEndpoint(1), FakeEndpoint(2)
        net.register(a)
        net.register(b)
        net.send("ping", 1, 2)
        net.sim.run()
        assert net.sim.now == pytest.approx(0.01)

    def test_send_to_dead_destination_dropped(self, net):
        a, b = FakeEndpoint(1), FakeEndpoint(2, alive=False)
        net.register(a)
        net.register(b)
        net.send("ping", 1, 2)
        net.sim.run()
        assert b.inbox == []
        assert net.stats.dropped_dead_dst == 1

    def test_destination_dies_in_flight(self, net):
        a, b = FakeEndpoint(1), FakeEndpoint(2)
        net.register(a)
        net.register(b)
        net.send("ping", 1, 2)
        b.alive = False  # dies before delivery event fires
        net.sim.run()
        assert b.inbox == []

    def test_send_from_dead_source_refused(self, net):
        a, b = FakeEndpoint(1, alive=False), FakeEndpoint(2)
        net.register(a)
        net.register(b)
        assert net.send("ping", 1, 2) is None
        assert net.stats.dropped_dead_src == 1

    def test_source_dies_after_send_still_delivers(self, net):
        a, b = FakeEndpoint(1), FakeEndpoint(2)
        net.register(a)
        net.register(b)
        net.send("ping", 1, 2)
        a.alive = False  # already on the wire
        net.sim.run()
        assert len(b.inbox) == 1

    def test_unknown_destination_dropped(self, net):
        a = FakeEndpoint(1)
        net.register(a)
        net.send("ping", 1, 99)
        net.sim.run()
        assert net.stats.dropped_dead_dst == 1

    def test_duplicate_registration_rejected(self, net):
        net.register(FakeEndpoint(1))
        with pytest.raises(ValueError):
            net.register(FakeEndpoint(1))

    def test_stats_by_kind(self, net):
        a, b = FakeEndpoint(1), FakeEndpoint(2)
        net.register(a)
        net.register(b)
        net.send("ping", 1, 2)
        net.send("ping", 2, 1)
        net.send("pong", 1, 2)
        net.sim.run()
        assert net.stats.by_kind == {"ping": 2, "pong": 1}
        assert net.stats.delivered == 3


class TestLatencyModel:
    def test_deterministic_when_no_jitter(self):
        m = LatencyModel(mean=0.05, jitter=0.0)
        rng = np.random.default_rng(0)
        assert m.sample(rng) == 0.05

    def test_jitter_mean_approximately_right(self):
        m = LatencyModel(mean=0.05, jitter=0.3)
        rng = np.random.default_rng(0)
        samples = [m.sample(rng) for _ in range(5000)]
        assert np.mean(samples) == pytest.approx(0.05, rel=0.05)

    def test_minimum_enforced(self):
        m = LatencyModel(mean=0.003, jitter=0.9, minimum=0.002)
        rng = np.random.default_rng(0)
        assert all(m.sample(rng) >= 0.002 for _ in range(1000))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LatencyModel(mean=0.0)
        with pytest.raises(ValueError):
            LatencyModel(jitter=-0.1)


class TestUndeliverableNotice:
    """A drop at a dead destination is reported to the live sender, at the
    drop instant; delivered traffic and dead senders hear nothing."""

    def test_sender_told_at_drop_time(self, net):
        a, b = NotifiedEndpoint(1), FakeEndpoint(2)
        net.register(a)
        net.register(b)
        net.send("ping", 1, 2, payload="x")
        b.alive = False
        net.sim.run()
        assert [(m.kind, m.dst, m.payload) for m in a.undeliverable] == [
            ("ping", 2, "x")]
        assert net.sim.now == pytest.approx(0.01)

    def test_delivered_message_not_reported(self, net):
        a, b = NotifiedEndpoint(1), FakeEndpoint(2)
        net.register(a)
        net.register(b)
        net.send("ping", 1, 2)
        net.sim.run()
        assert a.undeliverable == [] and len(b.inbox) == 1

    def test_dead_sender_not_told(self, net):
        a, b = NotifiedEndpoint(1), FakeEndpoint(2, alive=False)
        net.register(a)
        net.register(b)
        net.send("ping", 1, 2)
        a.alive = False  # sent, then the sender died too
        net.sim.run()
        assert a.undeliverable == []
        assert net.stats.dropped_dead_dst == 1

    def test_pooled_envelope_reported_before_reuse(self):
        net = Network(Simulator(), np.random.default_rng(0),
                      LatencyModel(mean=0.01, jitter=0.0),
                      pool_messages=True)
        a = FakeEndpoint(1)
        net.register(a)
        seen = []
        # Read the envelope inside the hook: it is scrubbed for reuse after.
        a.handle_undeliverable = lambda m: seen.append((m.kind, m.payload))
        net.send("ping", 1, 99, payload="p")
        net.sim.run()
        assert seen == [("ping", "p")]
