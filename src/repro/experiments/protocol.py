"""Message-level maintenance study (§3.3: the simulator investigates
"creating and maintaining the network and performing lookups").

Sweeps Chord's stabilization interval under continuous churn, with every
join, stabilization round, finger fix, and lookup as real RPC traffic and
*no oracle repair anywhere*.  The trade-off the paper's design banks on:

* shorter intervals cost proportionally more maintenance messages;
* longer intervals let routing state go stale, so lookups start timing
  out into dead peers and (eventually) failing or misrouting.

A correctly built DHT substrate should show high lookup success at
moderate maintenance cost — the premise behind "highly robust, scalable,
and efficient" (§2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dht.chord.protocol import ChordProtocolNetwork
from repro.experiments.parallel import call, map_cells
from repro.metrics.report import format_table
from repro.sim.failure import CrashRecoveryProcess
from repro.sim.kernel import Simulator
from repro.sim.network import LatencyModel, Network
from repro.sim.process import PeriodicTask
from repro.util.ids import guid_for
from repro.util.rng import RngStreams


@dataclass(frozen=True)
class ProtocolConfig:
    n_nodes: int = 48
    intervals: tuple[float, ...] = (2.0, 5.0, 10.0, 20.0)
    mean_uptime: float = 300.0
    mean_downtime: float = 60.0
    warmup: float = 120.0          # churn-free convergence period
    measure: float = 600.0         # churning measurement period
    lookup_rate: float = 2.0       # lookups per second (whole network)
    seed: int = 1


@dataclass
class ProtocolResult:
    config: ProtocolConfig
    rows: list[list] = field(default_factory=list)
    by_interval: dict[float, dict[str, float]] = field(default_factory=dict)

    def report(self) -> str:
        return format_table(
            ["stabilize interval (s)", "maint msgs/node/min",
             "lookup success %", "mean queries/lookup", "ring ok"],
            self.rows,
            title="Message-level Chord under churn: maintenance traffic vs "
                  "lookup reliability",
        )

    def shape_checks(self) -> dict[str, bool]:
        intervals = sorted(self.by_interval)
        lo, hi = self.by_interval[intervals[0]], self.by_interval[intervals[-1]]
        return {
            # Maintenance traffic scales down with the interval ...
            "traffic_scales_with_interval":
                lo["msgs_per_node_min"] > 2.0 * hi["msgs_per_node_min"],
            # ... and the fast-repair setting keeps lookups reliable under
            # continuous churn with no oracle anywhere.
            "fast_repair_reliable": lo["success_rate"] >= 0.9,
            "fast_repair_ring_converges": lo["ring_ok"] == 1.0,
            # Staleness costs reliability: the slowest setting is no more
            # reliable than the fastest.
            "staleness_hurts": hi["success_rate"] <= lo["success_rate"] + 1e-9,
        }


def _run_one(cc: ProtocolConfig, interval: float) -> dict[str, float]:
    streams = RngStreams(cc.seed)
    sim = Simulator()
    network = Network(sim, streams["network"],
                      LatencyModel(mean=0.02, jitter=0.2))
    chord = ChordProtocolNetwork(sim, network, streams["chord-protocol"],
                                 stabilize_interval=interval)
    boot = guid_for(f"proto-boot-{interval}")
    chord.bootstrap(boot)
    node_ids = [boot]
    for i in range(cc.n_nodes - 1):
        nid = guid_for(f"proto-{interval}-{i}")
        node_ids.append(nid)
        sim.schedule(1.0 + i * 0.25, chord.join, nid, boot)
    sim.run(until=cc.warmup)

    # Continuous churn on everything except the bootstrap contact.
    def random_live_contact() -> int | None:
        live = chord.live_ids()
        if not live:
            return None
        return live[int(churn_rng.integers(0, len(live)))]

    def recover(nid: int) -> None:
        contact = random_live_contact()
        if contact is not None:
            chord.recover(nid, contact, contacts=random_live_contact)

    churn_rng = streams["churn"]
    churn = CrashRecoveryProcess(sim, churn_rng, node_ids[1:],
                                 crash_fn=chord.crash, recover_fn=recover,
                                 mean_uptime=cc.mean_uptime,
                                 mean_downtime=cc.mean_downtime)

    # Background lookup workload from random live nodes.
    lookup_rng = streams["lookups"]
    correct = [0, 0]  # [correct, finished]

    def issue_lookup() -> None:
        live = chord.live_ids()
        if not live:
            return
        start = live[int(lookup_rng.integers(0, len(live)))]
        key = int(lookup_rng.integers(0, 1 << 63)) << 1

        def done(owner, queries) -> None:
            correct[1] += 1
            if owner is not None and owner == chord.oracle_owner(key):
                correct[0] += 1

        chord.lookup(key, start, done)

    PeriodicTask(sim, 1.0 / cc.lookup_rate, issue_lookup,
                 rng=streams["lookup-timer"], jitter=0.2)

    sent_before = network.stats.sent
    start_time = sim.now
    sim.run(until=cc.warmup + cc.measure)
    minutes = (sim.now - start_time) / 60.0
    maint = (network.stats.sent - sent_before) / cc.n_nodes / minutes
    success_rate = correct[0] / max(correct[1], 1)

    # Convergence check: stop churn and let stabilization quiesce — a
    # correct protocol must always return to a consistent ring (transient
    # mid-churn inconsistency is expected and *not* a failure).
    churn.stop()
    sim.run(until=sim.now + max(60.0, 12.0 * interval))

    return {
        "msgs_per_node_min": maint,
        "success_rate": success_rate,
        "mean_queries": chord.lookup_stats.mean_queries,
        "ring_ok": 1.0 if chord.ring_consistent() else 0.0,
    }


def run_protocol_experiment(config: ProtocolConfig | None = None,
                            jobs: int | None = None) -> ProtocolResult:
    cc = config or ProtocolConfig()
    result = ProtocolResult(config=cc)
    summaries = map_cells(
        _run_one, [call(cc, interval) for interval in cc.intervals],
        jobs=jobs)
    for interval, summary in zip(cc.intervals, summaries):
        result.by_interval[interval] = summary
        result.rows.append([
            interval,
            round(summary["msgs_per_node_min"], 1),
            round(100 * summary["success_rate"], 1),
            round(summary["mean_queries"], 2),
            "yes" if summary["ring_ok"] else "NO",
        ])
    return result
