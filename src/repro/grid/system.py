"""System wiring: the :class:`DesktopGrid` facade.

This is the public entry point a downstream user drives: build a grid from
a node population and a matchmaker, create clients, submit jobs, run the
simulation, read metrics.  See ``examples/quickstart.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.grid.client import Client
from repro.grid.job import Job, JobState
from repro.grid.node import GridNode
from repro.grid.registry import NodeRegistry
from repro.grid.resources import ResourceSpec, Vector
from repro.grid.sandbox import SandboxPolicy
from repro.match.base import Matchmaker, MatchResult
from repro.match.select import POLICIES, make_policy
from repro.metrics.collector import MetricsCollector
from repro.sim.kernel import Simulator
from repro.sim.network import LatencyModel, Network
from repro.sim.rpc import RpcLayer
from repro.telemetry.bus import NULL_BUS, TelemetryBus
from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.util.rng import RngStreams

#: Default virtual-time budget for "run until the workload drains".  One
#: constant shared by :meth:`DesktopGrid.run_until_done` and the experiment
#: drivers (``runner.drive`` / ``run_workload``) — these used to disagree
#: (1e7 vs 1e6), so the effective budget depended on the entry point.
DEFAULT_MAX_TIME = 1e6


@dataclass
class GridConfig:
    """All tunables of a desktop-grid deployment."""

    seed: int = 0
    spec: ResourceSpec = field(default_factory=ResourceSpec)

    # Network.
    mean_latency: float = 0.05
    latency_jitter: float = 0.3

    # Heartbeat / recovery protocol (§2).  Off by default: the load-balance
    # experiments (like the paper's) run failure-free and skip the traffic.
    heartbeats_enabled: bool = False
    heartbeat_interval: float = 5.0
    heartbeat_miss_limit: float = 3.0  # owner's run-node monitor only

    # Client resubmission (last-resort recovery, §2; needs heartbeats).
    client_resubmit_enabled: bool = False
    client_check_interval: float = 20.0
    client_timeout: float = 60.0
    client_max_attempts: int = 5

    # Matchmaking retry when no satisfying node is found.
    match_retries: int = 3
    match_retry_backoff: float = 10.0

    # Matchmaking phase 2: probe/select/dispatch (repro.match.select).
    # ``probe_mode="oracle"`` keeps the historical zero-time load reads
    # (latency charged after the fact; bit-identical to pre-pipeline
    # results); ``"rpc"`` sends real request/reply probes with timeouts,
    # so a candidate that died after the structural search surfaces as a
    # timeout instead of oracle knowledge.
    probe_mode: str = "oracle"
    # Candidate-selection policy: "least-loaded" (paper default),
    # "random", or "power-of-d" (probe only ``probe_fanout`` samples).
    selection_policy: str = "least-loaded"
    probe_fanout: int = 2
    # RPC timeout (seconds) shared by load probes, dispatch acks, and the
    # owner's run-node liveness checks.
    probe_timeout: float = 1.0
    # When set, "assign" is an acknowledged rpc: the run node confirms
    # receipt, and on ack-timeout the owner immediately falls back to the
    # next-ranked candidate instead of waiting for the monitor sweep.
    dispatch_ack: bool = False

    # Run-node queue discipline (§5 future work: fairness between users).
    # "fifo" is the paper's base design; "fair-share" picks the next job
    # from the locally least-served client (deficit-style fair sharing).
    queue_discipline: str = "fifo"

    sandbox: SandboxPolicy = field(default_factory=SandboxPolicy)

    # Mitigation knobs (scenario ablations — see repro.scenarios and
    # EXPERIMENTS.md § Scenarios).  All three default OFF and, when off,
    # draw no randomness and send no messages, so default-config runs
    # stay bit-identical to the committed equivalence goldens.
    #
    # Speculative re-execution: the owner's monitor sweep clones a job
    # back into matchmaking when it has been out for more than
    # ``speculative_threshold x`` its nominal work without finishing
    # (straggler defense; first copy to finish wins, the loser's result
    # is suppressed).
    speculative: bool = False
    speculative_threshold: float = 4.0
    # Replication on hot owners: an owner monitoring at least
    # ``replicate_threshold`` jobs dispatches each new job to its top two
    # ranked candidates instead of one.
    replicate: bool = False
    replicate_threshold: int = 4
    # Admission control: a client refuses (fails fast, no network
    # traffic) new submissions while ``admission_quota`` of its jobs are
    # still in flight.
    admission: bool = False
    admission_quota: int = 64

    def __post_init__(self) -> None:
        if self.queue_discipline not in ("fifo", "fair-share"):
            raise ValueError(f"bad queue_discipline {self.queue_discipline!r}")
        if self.probe_mode not in ("oracle", "rpc"):
            raise ValueError(f"bad probe_mode {self.probe_mode!r}")
        if self.selection_policy not in POLICIES:
            raise ValueError(
                f"bad selection_policy {self.selection_policy!r}; "
                f"choose from {sorted(POLICIES)}")
        if self.probe_fanout < 1:
            raise ValueError("probe_fanout must be >= 1")
        # Protocol parameters are checked whatever their enabling flag, so
        # a bad value fails here rather than mid-run (or silently).
        for name in ("heartbeat_interval", "client_check_interval",
                     "client_timeout", "probe_timeout"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value!r}")
        if not 0 < self.heartbeat_miss_limit < math.inf:
            raise ValueError("heartbeat_miss_limit must be positive and finite")
        if self.client_resubmit_enabled and not self.heartbeats_enabled:
            raise ValueError("client_resubmit_enabled needs heartbeats_enabled")
        if self.client_max_attempts < 1:
            raise ValueError("client_max_attempts must be >= 1")
        if self.match_retries < 0:
            raise ValueError("match_retries must be >= 0")
        if not 0 <= self.match_retry_backoff < math.inf:
            raise ValueError("match_retry_backoff must be >= 0 and finite")
        if self.speculative_threshold <= 0:
            raise ValueError("speculative_threshold must be positive")
        if self.replicate_threshold < 1:
            raise ValueError("replicate_threshold must be >= 1")
        if self.admission_quota < 1:
            raise ValueError("admission_quota must be >= 1")


class DesktopGrid:
    """A simulated P2P desktop grid: nodes + network + matchmaker + metrics.

    Parameters
    ----------
    cfg:
        Deployment configuration.
    matchmaker:
        An *unbound* matchmaker instance; the grid binds it, which builds
        the matchmaker's overlay(s) over the node population.
    capabilities:
        ``(name, capability_vector)`` pairs defining the node population.
    """

    def __init__(self, cfg: GridConfig, matchmaker: Matchmaker,
                 capabilities: Sequence[tuple[str, Vector]],
                 trace: "TelemetryBus | None" = None,
                 telemetry: "Telemetry | None" = None):
        self.cfg = cfg
        self.sim = Simulator()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        if trace is not None:
            self.trace = trace
        elif self.telemetry.enabled:
            # One buffer: legacy trace.record() calls and telemetry spans
            # land in the same bus, so a single JSONL export has both.
            self.trace = self.telemetry.bus
        else:
            self.trace = NULL_BUS
        self.streams = RngStreams(cfg.seed)
        self.network = Network(
            self.sim, self.streams["network"],
            LatencyModel(mean=cfg.mean_latency, jitter=cfg.latency_jitter),
            telemetry=self.telemetry,
            # Grid endpoints (GridNode, Client, RPC layer) never retain a
            # Message past its handler, so delivered envelopes are safe to
            # scrub and reuse (see Network._recycle).
            pool_messages=True,
        )
        self.metrics = MetricsCollector()
        self.jobs: dict[int, Job] = {}
        self.clients: dict[int, Client] = {}
        #: Matchmaking phase-2 policy (shared by every matchmaker).
        self.selection_policy = make_policy(cfg.selection_policy,
                                            probe_fanout=cfg.probe_fanout)
        #: Request/reply layer for load probes, dispatch acks, and
        #: liveness checks (grid-unused when probe_mode="oracle" and
        #: heartbeats are off — then it costs nothing).
        self.rpc = RpcLayer(self.sim, self.network,
                            default_timeout=cfg.probe_timeout,
                            telemetry=self.telemetry)

        self.nodes: dict[int, GridNode] = {}
        self.node_list: list[GridNode] = []
        #: Memoized live_nodes() result; invalidated on any liveness flip
        #: (GridNode.crash/recover/partition/heal all reset it).  Scanning
        #: N nodes per injection dominated failure-free profiles.
        self._live_cache: list[GridNode] | None = None
        for name, cap in capabilities:
            cfg.spec.validate_capability(cap)
            node = GridNode(name, cap, self)
            if node.node_id in self.nodes:
                raise ValueError(f"node name {name!r} collides on GUID")
            self.nodes[node.node_id] = node
            self.node_list.append(node)
            self.network.register(node)
            self.rpc.serve(node.node_id, node._handle_rpc)

        #: Columnar liveness/load mirror (see repro.grid.registry); nodes
        #: learn their dense index so the mirror updates are O(1) stores.
        self.registry = NodeRegistry(self.node_list)
        for i, node in enumerate(self.node_list):
            node._reg_idx = i

        self.matchmaker = matchmaker
        matchmaker.bind(self)
        self.telemetry.bind(self)

    # ------------------------------------------------------------------
    # clients and submission
    # ------------------------------------------------------------------

    def client(self, name: str) -> Client:
        client = Client(name, self)
        if client.node_id in self.clients:
            raise ValueError(f"client name {name!r} already exists")
        self.clients[client.node_id] = client
        self.network.register(client)
        return client

    def submit_at(self, time: float, client: Client, job: Job) -> None:
        """Schedule a job submission at virtual time ``time``."""
        self.sim.schedule_at(time, client.submit, job)

    def inject(self, job: Job, client: Client) -> None:
        """§2 step 1: the client inserts the job at an *injection node*
        (any node of the system), which routes it to its owner."""
        self.jobs[job.guid] = job
        injection = self._random_live_node()
        tel = self.telemetry
        if tel.enabled:
            job.extra["tel_insert"] = tel.bus.begin_span(
                self.sim.now, "job.insert",
                parent=job.extra.get("tel_job"), trace=job.guid,
                job=job.name)
        delay = self.network.hop_latency()  # client -> injection node
        self.sim.schedule(delay, self._route_to_owner, job, injection, 5)

    def _route_to_owner(self, job: Job, start: GridNode | None,
                        retries_left: int) -> None:
        if job.is_done or job.state is not JobState.SUBMITTED:
            return
        if start is not None and not start.alive:
            start = self._random_live_node()
        tel = self.telemetry
        if tel.enabled:
            # Ambient context: overlay-route records emitted inside
            # find_owner (dht.lookup) parent under the insert span.
            ispan = job.extra.get("tel_insert")
            tel.trace_ctx = (job.guid,
                             ispan.span_id if ispan is not None else None)
            owner, hops = self.matchmaker.find_owner(job, start=start)
            tel.trace_ctx = None
        else:
            owner, hops = self.matchmaker.find_owner(job, start=start)
        if tel.enabled:
            tel.metrics.histogram("owner.route_hops").observe(hops)
            if owner is None:
                tel.metrics.counter("owner.route_failures").inc()
        if owner is None:
            if retries_left > 0:
                self.sim.schedule(self.cfg.match_retry_backoff,
                                  self._route_to_owner, job, None,
                                  retries_left - 1)
                return
            # Retries exhausted (the overlay is unreachable, e.g. mass
            # failure): fail the job loudly instead of leaving it
            # SUBMITTED forever, which made run_until_done spin to
            # max_time.  The client is notified like any other failure.
            job.state = JobState.FAILED
            job.failure_reason = "owner routing failed"
            self.trace.record(self.sim.now, "route-failed", job=job.name)
            if tel.enabled:
                tel.metrics.counter("owner.route_exhausted").inc()
                tel.close_job_spans(job, "route-exhausted")
            # src -1 = the routing fabric itself; no single node speaks
            # for a failed overlay route, but the client must still hear.
            self.network.send("result", -1, job.profile.client_id, job)
            return
        self.sim.schedule(self.route_delay(hops), self._deliver_to_owner,
                          job, owner, hops, retries_left)

    def _deliver_to_owner(self, job: Job, owner: GridNode, hops: int,
                          retries_left: int) -> None:
        if job.is_done or job.state is not JobState.SUBMITTED:
            return
        if not owner.alive:
            # Owner died while the job was in flight; route again.
            self._route_to_owner(job, None, retries_left - 1)
            return
        owner.owner_receive(job, hops)

    # ------------------------------------------------------------------
    # latency accounting
    # ------------------------------------------------------------------

    def route_delay(self, hops: int) -> float:
        """Virtual-time cost of an overlay path of ``hops`` hops."""
        return self.network.hop_latency_sum(hops)

    def match_delay(self, result: MatchResult) -> float:
        """Virtual-time cost of a matchmaking search: search hops in
        series, candidate probes in parallel (one round trip), pushes in
        series, plus the final job transfer hop."""
        delay = self.route_delay(result.hops + result.pushes)
        if result.probes:
            delay += 2 * self.network.hop_latency()
        return delay + self.network.hop_latency()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def crash_node(self, node_id: int) -> None:
        node = self.nodes[node_id]
        if not node.alive:
            return
        node.crash()
        self.trace.record(self.sim.now, "crash", node=node.name)
        self.matchmaker.on_crash(node)

    def recover_node(self, node_id: int) -> None:
        node = self.nodes[node_id]
        if node.alive:
            return
        node.recover()
        self.trace.record(self.sim.now, "recover", node=node.name)
        self.matchmaker.on_join(node)

    def partition_node(self, node_id: int) -> None:
        """Make a node unreachable *without* losing its state (network
        partition / planned outage, vs :meth:`crash_node` which loses all
        volatile state).  Used to model a centralized server whose job
        database survives an outage (§1: "the server typically stores the
        state of jobs in a database")."""
        node = self.nodes[node_id]
        if not node.alive:
            return
        node.partition()
        self.trace.record(self.sim.now, "partition", node=node.name)
        self.matchmaker.on_crash(node)

    def heal_node(self, node_id: int) -> None:
        """Reconnect a partitioned node; its pre-outage state is intact."""
        node = self.nodes[node_id]
        if node.alive:
            return
        node.heal()
        self.trace.record(self.sim.now, "heal", node=node.name)
        self.matchmaker.on_join(node)

    def live_nodes(self) -> list[GridNode]:
        """Live grid nodes, in ``node_list`` order.

        Returns a cached list (rebuilt only after a liveness change);
        callers must treat it as read-only.
        """
        live = self._live_cache
        if live is None:
            live = self._live_cache = [n for n in self.node_list if n.alive]
        return live

    def _random_live_node(self) -> GridNode | None:
        live = self.live_nodes()
        if not live:
            return None
        rng = self.streams["inject"]
        return live[int(rng.integers(0, len(live)))]

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------

    def on_queue_change(self, node: GridNode) -> None:
        self.registry.queue_len[node._reg_idx] = node.queue_len
        self.matchmaker.note_queue_change(node)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def run(self, until: float | None = None) -> int:
        return self.sim.run(until=until)

    def run_until_done(self, max_time: float = DEFAULT_MAX_TIME,
                       chunk: float = 500.0) -> bool:
        """Advance until every submitted job reached a terminal state.

        Returns True on success; False if ``max_time`` elapsed first or
        the event queue drained with jobs unsettled (idle protocol timers
        park, so a stuck run goes quiet instead of ticking to ``max_time``).
        Progress is checked every ``chunk`` of virtual time.
        """
        while self.sim.now < max_time:
            settled = all(j.is_terminal for j in self.jobs.values())
            if settled and self.jobs:
                return True
            if self.sim.peek_time() is None:
                # Queue drained: nothing can change any more.
                return settled
            self.sim.run(until=min(self.sim.now + chunk, max_time))
        return False

    def node_execution_counts(self) -> list[int]:
        """Jobs executed per node (load-balance / fairness metric)."""
        return self.registry.execution_counts()
