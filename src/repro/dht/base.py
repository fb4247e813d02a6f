"""Common DHT interfaces.

Routing model
-------------
Overlay routing is performed as a *structural traversal*: the overlay walks
its own routing state node by node, skipping dead peers exactly where a
real iterative lookup would time out and retry, and returns the owner plus
the hop count and path taken.  Virtual-time cost is then charged by the
caller as ``hops * Network.hop_latency()``.  This is the standard
simulator compromise (the paper's own simulator does the same): hop counts
and failure sensitivity — the quantities the evaluation reports — are
exact, while per-message event scheduling for every intermediate hop is
avoided, keeping million-event experiments tractable in Python.

Direct point-to-point traffic (heartbeats, control messages) does go
through :class:`repro.sim.network.Network` as real scheduled messages.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Iterable


class DHTNode:
    """Base class for a DHT participant.

    Concrete overlays subclass this with their routing state (fingers,
    zones, k-buckets).  ``node_id`` is the GUID; ``alive`` gates all
    participation.  ``store`` is the local partition of the DHT's key-value
    service.
    """

    __slots__ = ("node_id", "alive", "store")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.alive = True
        self.store: dict[int, Any] = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.alive else "DOWN"
        return f"{type(self).__name__}(id={self.node_id:#x}, {state})"


@dataclass
class RouteResult:
    """Outcome of routing a key through the overlay."""

    success: bool
    owner: DHTNode | None
    hops: int
    path: list[int] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.success


@dataclass
class LookupStats:
    """Aggregate routing statistics maintained by every overlay."""

    lookups: int = 0
    failed: int = 0
    total_hops: int = 0

    def record(self, result: RouteResult) -> None:
        self.lookups += 1
        self.total_hops += result.hops
        if not result.success:
            self.failed += 1


class DHTOverlay(abc.ABC):
    """Abstract overlay: membership, routing, and a replicated KV service."""

    def __init__(self) -> None:
        self.lookup_stats = LookupStats()
        #: Optional :class:`repro.telemetry.core.Telemetry` sink, attached
        #: by the matchmaker that owns this overlay when its grid has
        #: telemetry enabled.  None keeps routing accounting local.
        self.telemetry = None

    @property
    def proto_name(self) -> str:
        """Short protocol tag for metric names (``chord``, ``can``, ...)."""
        return type(self).__name__.removesuffix("Overlay").lower()

    def note_route(self, result: RouteResult, op: str = "lookup") -> None:
        """Account one routing operation (called by every ``route``)."""
        self.lookup_stats.record(result)
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.note_dht_lookup(self.proto_name, op, result)

    # -- membership ------------------------------------------------------

    @abc.abstractmethod
    def join(self, node: DHTNode) -> None:
        """Admit a node into the overlay (protocol or oracle construction)."""

    @abc.abstractmethod
    def crash(self, node_id: int) -> None:
        """Fail a node abruptly: it stops participating, state is lost."""

    @abc.abstractmethod
    def live_nodes(self) -> Iterable[DHTNode]:
        """All currently-live members."""

    # -- routing ---------------------------------------------------------

    @abc.abstractmethod
    def route(self, key: int, start: DHTNode | None = None) -> RouteResult:
        """Route ``key`` to its owner, starting from ``start`` (or a random
        live node).  Records into :attr:`lookup_stats`."""

    # -- replicated storage ------------------------------------------------

    def put(self, key: int, value: Any, replicas: int = 1) -> RouteResult:
        """Store ``value`` under ``key`` on the owner and ``replicas - 1``
        additional replica holders (overlay-specific placement)."""
        result = self.route(key)
        if result.success:
            for node in self.replica_set(result.owner, key, replicas):
                node.store[key] = value
        return result

    def get(self, key: int, replicas: int = 1) -> tuple[RouteResult, Any]:
        """Fetch the value for ``key``; falls back to replicas if the owner
        lost it (e.g. the owner is a recent joiner after a crash)."""
        result = self.route(key)
        if not result.success:
            return result, None
        for node in self.replica_set(result.owner, key, replicas):
            if key in node.store:
                return result, node.store[key]
        return result, None

    @abc.abstractmethod
    def replica_set(self, owner: DHTNode, key: int, replicas: int) -> list[DHTNode]:
        """The ``replicas`` live nodes responsible for ``key`` (owner first)."""
