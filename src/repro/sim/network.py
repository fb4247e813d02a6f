"""Point-to-point message delivery over the simulated network.

The grid layer's direct connections (heartbeats, owner<->run-node control
messages, result return — §2 of the paper notes these bypass the overlay
"for efficiency ... for example by a socket connection") are modeled here:
a message to a live endpoint is delivered after a sampled latency; a
message to a dead endpoint is dropped and the live sender told, like a TCP
sender's connection error.  Failure *detection* therefore happens where it
does in the paper — in the protocol layer, via failed deliveries and
missed heartbeats — not by oracle.

DHT routing hops are accounted separately by the overlays (see
:mod:`repro.dht.base`); they use :meth:`Network.hop_latency` so both kinds
of traffic share one latency model.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

import numpy as np

from repro.sim.kernel import Simulator
from repro.util.rng import DEFAULT_CHUNK, ChunkedLognormal


class Endpoint(Protocol):
    """Anything addressable on the network."""

    node_id: int

    @property
    def alive(self) -> bool: ...

    def handle_message(self, msg: "Message") -> None: ...
    # Optional: ``handle_undeliverable(msg)``, told of a dead destination.


@dataclass(slots=True)
class Message:
    """An application message.

    ``kind`` is a short protocol tag (e.g. ``"heartbeat"``); ``payload`` is
    protocol-specific.  ``src`` is the sender's node id so receivers can
    reply without holding object references.  Slotted: one is allocated
    per send, so the per-instance ``__dict__`` was pure overhead.

    ``trace`` is the causal trace context ``(trace_id, parent_span_id)``
    riding along purely for telemetry: a receiver that emits records on
    behalf of this message stamps them with it, so remote-node records
    link into the originating job's span tree.  It is None whenever
    telemetry is off and is never consulted by delivery itself — carrying
    it cannot perturb the simulation.
    """

    kind: str
    src: int
    dst: int
    payload: Any = None
    send_time: float = 0.0
    trace: tuple[int, int | None] | None = None


class LatencyModel:
    """Per-hop network latency distribution.

    Defaults model a wide-area overlay: latency ~ mean 0.05 s with modest
    lognormal jitter, floored at ``minimum``.  A ``jitter`` of 0 makes the
    model deterministic (useful in unit tests).

    Sampling draws lognormal variates in pre-drawn blocks of
    ``DEFAULT_CHUNK`` (see :class:`repro.util.rng.ChunkedLognormal`) —
    bit-identical values to scalar draws from the same generator, at a
    fraction of the cost.
    The block buffer requires the model to be the generator's only
    consumer, which holds for every stream wired here (``"network"`` is
    sampled exclusively through :meth:`Network.hop_latency`).
    """

    def __init__(self, mean: float = 0.05, jitter: float = 0.3,
                 minimum: float = 0.002):
        if mean <= 0:
            raise ValueError("mean latency must be positive")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.mean = mean
        self.jitter = jitter
        self.minimum = minimum
        # Lognormal with the requested mean: E[lognormal(mu, s)] = exp(mu + s^2/2)
        self._mu = math.log(mean) - 0.5 * jitter * jitter
        self._floor = mean if mean > minimum else minimum
        #: id(rng) -> (rng, bound draw) so the public per-call API reuses
        #: one block sampler per generator (the rng is kept alive so its
        #: id cannot be recycled).
        self._draws: dict[int, tuple[np.random.Generator, Callable[[], float]]] = {}

    def sampler_for(self, rng: np.random.Generator) -> Callable[[], float]:
        """A zero-arg bound sampler over ``rng`` (the hot-path form)."""
        return self.samplers_for(rng)[0]

    def samplers_for(self, rng: np.random.Generator
                     ) -> tuple[Callable[[], float], Callable[[int], float]]:
        """``(draw, draw_sum)`` over one shared block buffer.

        ``draw()`` samples one hop; ``draw_sum(hops)`` sums ``hops``
        consecutive samples (floored per hop) in draw order —
        bit-identical to ``hops`` sequential ``draw()`` calls, minus the
        per-hop Python call overhead.  Both must stay the generator's
        only consumers, which holds because they share one sampler.
        """
        if self.jitter == 0.0:
            floor = self._floor
            return (lambda: floor), (lambda hops: hops * floor)
        sampler = ChunkedLognormal(rng, self._mu, self.jitter, DEFAULT_CHUNK)
        sample = sampler.sample
        sum_clipped = sampler.sum_clipped
        minimum = self.minimum

        def draw() -> float:
            v = sample()
            return v if v > minimum else minimum

        def draw_sum(hops: int) -> float:
            return sum_clipped(hops, minimum)

        return draw, draw_sum

    def sample(self, rng: np.random.Generator) -> float:
        if self.jitter == 0.0:
            return self._floor
        entry = self._draws.get(id(rng))
        if entry is None or entry[0] is not rng:
            # New generator: start a fresh block sampler for it.  (An
            # interleaved A/B/A pattern would restart A's buffer — no
            # caller does that; each model serves one generator.)
            draw = self.sampler_for(rng)
            self._draws[id(rng)] = (rng, draw)
        else:
            draw = entry[1]
        return draw()


@dataclass
class NetworkStats:
    sent: int = 0
    delivered: int = 0
    dropped_dead_dst: int = 0
    dropped_dead_src: int = 0
    #: Messages by protocol tag.  A defaultdict so the send path updates
    #: it with one indexed ``+= 1`` instead of a get-probe + store.
    by_kind: dict[str, int] = field(default_factory=lambda: defaultdict(int))


class Network:
    """Delivers messages between registered endpoints with latency.

    Endpoints register by node id.  Liveness is re-checked at delivery time:
    a message in flight to a node that dies before arrival is dropped, and a
    message from a node that died after sending is still delivered (it was
    already on the wire) — matching real datagram semantics.
    """

    def __init__(self, sim: Simulator, rng: np.random.Generator,
                 latency: LatencyModel | None = None, telemetry=None,
                 pool_messages: bool = False):
        self.sim = sim
        self.rng = rng
        self.latency = latency or LatencyModel()
        self._endpoints: dict[int, Endpoint] = {}
        self.stats = NetworkStats()
        #: Message freelist (None = pooling off).  When enabled, a
        #: delivered (or dropped) envelope is scrubbed and reused by a
        #: later send instead of allocating a fresh ``Message`` — at 10k
        #: nodes the heartbeat fast path otherwise allocates one
        #: slotted object per protocol message.  Opt-in because it
        #: requires every endpoint not to retain the message past its
        #: handler; the grid's endpoints honor that, arbitrary test
        #: doubles may not.
        self._pool: list[Message] | None = [] if pool_messages else None
        #: Optional :class:`repro.telemetry.core.Telemetry` sink (None = off);
        #: per-kind message counters plus (filtered-in) per-message events.
        self.telemetry = telemetry if telemetry is not None \
            and telemetry.enabled else None
        #: Bound block samplers over the latency model + this rng — the
        #: only readers of the stream (they share one block buffer), so
        #: block draws stay bit-identical.
        self._draw_latency, self._draw_latency_sum = \
            self.latency.samplers_for(rng)
        # Telemetry fast path: resolve counter objects and the bus filter
        # once instead of per message (f-string + registry probe per send
        # showed up in profiles).  ``_sent_counters`` fills lazily per kind.
        self._sent_counters: dict[str, Any] = {}
        if self.telemetry is not None:
            metrics = self.telemetry.metrics
            self._ctr_delivered = metrics.counter("net.delivered")
            self._ctr_dropped = metrics.counter("net.dropped")
            self._trace_msgs = self.telemetry.bus.wants("net.msg")
        else:
            self._ctr_delivered = self._ctr_dropped = None
            self._trace_msgs = False

    # -- membership ------------------------------------------------------

    def register(self, endpoint: Endpoint) -> None:
        if endpoint.node_id in self._endpoints:
            raise ValueError(f"endpoint {endpoint.node_id} already registered")
        self._endpoints[endpoint.node_id] = endpoint

    def unregister(self, node_id: int) -> None:
        self._endpoints.pop(node_id, None)

    def endpoint(self, node_id: int) -> Endpoint | None:
        return self._endpoints.get(node_id)

    # -- messaging -------------------------------------------------------

    def hop_latency(self) -> float:
        """Sample one hop's latency (shared with DHT routing accounting)."""
        return self._draw_latency()

    def hop_latency_sum(self, hops: int) -> float:
        """Sum of ``hops`` independent hop latencies, summed in draw order
        (bit-identical to ``sum(hop_latency() for _ in range(hops))``)."""
        return self._draw_latency_sum(hops)

    def send(self, kind: str, src: int, dst: int, payload: Any = None,
             trace: tuple[int, int | None] | None = None) -> Message | None:
        """Send a message; returns it, or None if the sender is already dead.

        Delivery (or drop) happens after one sampled latency.  A drop at a
        dead destination is reported then to a live sender that defines
        ``handle_undeliverable``: no reply message is needed to learn of a
        dead peer.  ``trace`` is the optional causal context carried for
        telemetry only (see :class:`Message`).
        """
        src_ep = self._endpoints.get(src)
        if src_ep is not None and not src_ep.alive:
            self.stats.dropped_dead_src += 1
            return None
        sim = self.sim
        pool = self._pool
        if pool:
            msg = pool.pop()
            msg.kind = kind
            msg.src = src
            msg.dst = dst
            msg.payload = payload
            msg.send_time = sim.now
            msg.trace = trace
        else:
            msg = Message(kind, src, dst, payload, sim.now, trace)
        stats = self.stats
        stats.sent += 1
        stats.by_kind[kind] += 1
        tel = self.telemetry
        if tel is not None:
            ctr = self._sent_counters.get(kind)
            if ctr is None:
                ctr = self._sent_counters[kind] = \
                    tel.metrics.counter(f"net.sent.{kind}")
            ctr.inc()
            if self._trace_msgs:
                if trace is None:
                    tel.bus.record(sim.now, "net.msg", kind=kind,
                                   src=src, dst=dst)
                else:
                    tel.bus.record(sim.now, "net.msg", kind=kind,
                                   src=src, dst=dst, trace=trace[0])
        # post(): deliveries are never cancelled, so the kernel's
        # handle-free fast path applies (no EventHandle allocation, no
        # post-fire slot clearing) — this is the hottest schedule site in
        # every message-driven run.
        sim.post(self._draw_latency(), self._deliver, msg)
        return msg

    def _deliver(self, msg: Message) -> None:
        dst_ep = self._endpoints.get(msg.dst)
        if dst_ep is None or not dst_ep.alive:
            self.stats.dropped_dead_dst += 1
            if self._ctr_dropped is not None:
                self._ctr_dropped.inc()
            src_ep = self._endpoints.get(msg.src)
            if src_ep is not None and src_ep.alive \
                    and hasattr(src_ep, "handle_undeliverable"):
                src_ep.handle_undeliverable(msg)
            self._recycle(msg)
            return
        self.stats.delivered += 1
        if self._ctr_delivered is not None:
            self._ctr_delivered.inc()
        dst_ep.handle_message(msg)
        if self._pool is not None:
            self._recycle(msg)

    #: Freelist cap — enough to absorb the largest in-flight burst worth
    #: reusing without pinning an unbounded high-water mark forever.
    _POOL_MAX = 4096

    def _recycle(self, msg: Message) -> None:
        """Scrub a finished envelope and return it to the freelist (a
        no-op when pooling is off).  Payload and trace are dropped here so
        a pooled envelope never pins job objects or span trees alive
        between uses.
        """
        pool = self._pool
        if pool is None or len(pool) >= self._POOL_MAX:
            return
        msg.payload = None
        msg.trace = None
        pool.append(msg)
