"""Grid nodes: the combined runner/owner protocol machine.

Every participant can simultaneously play both §2 roles:

* **Run node** — executes jobs from a FIFO queue one at a time, sends a
  per-job heartbeat to each job's owner while the job is queued or
  running ("the run node must generate heartbeat messages for every job in
  its job queue, including jobs that are not yet running"), returns the
  result directly to the client, and re-inserts the job profile into the
  DHT to recruit a replacement owner when a heartbeat to the owner cannot
  be delivered ("heartbeat delivery fails"; heartbeats are never acked).
* **Owner node** — monitors every job mapped to it, re-runs matchmaking
  when a run node's heartbeats stop, and, when client resubmission is on,
  relays a heartbeat to the client as ``status`` at most once per
  ``client_check_interval`` (the watchdog's only liveness signal).

All control traffic uses direct network messages (the paper: "we employ a
direct connection between the run node and the owner node ... rather than
using the P2P network routing mechanism").
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.grid.job import Job, JobState
from repro.grid.resources import Vector
from repro.grid.sandbox import SandboxViolation
from repro.match.base import MatchResult
from repro.match.select import CandidateSet, ProbeRound, oracle_select
from repro.sim.kernel import EventHandle
from repro.sim.network import Message
from repro.sim.process import PeriodicTask
from repro.util.ids import guid_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.system import DesktopGrid


class JobRecord:
    """Owner-side monitoring record for one job (profile replica + liveness).

    One record per owned job; the owner's monitor sweep reads all of a
    node's records in a single batch (one wheel timer per node, not one
    per job), so ``last_heartbeat`` staleness is still judged per job but
    timer cost scales with nodes, not with jobs.
    """

    __slots__ = ("job", "run_node_id", "last_heartbeat", "last_status",
                 "probing", "speculated")

    def __init__(self, job: Job, run_node_id: int | None, now: float):
        self.job = job
        self.run_node_id = run_node_id
        self.last_heartbeat = now
        #: When the owner last relayed ``status`` to the client.
        self.last_status = now
        #: A liveness rpc to the run node is in flight (monitor sweep).
        self.probing = False
        #: A speculative clone was already launched for this job (the
        #: straggler knob fires at most once per owned record).
        self.speculated = False


#: Backward-compatible alias (pre-refactor name).
OwnedJob = JobRecord


class GridNode:
    """One desktop-grid participant (network endpoint + protocol state)."""

    def __init__(self, name: str, capability: Vector, grid: "DesktopGrid"):
        self.name = name
        self.node_id = guid_for(name)
        self.capability = capability
        self.grid = grid
        self._alive = True
        #: Dense index into the grid's columnar NodeRegistry (assigned by
        #: DesktopGrid after the population is built; -1 = unregistered).
        self._reg_idx = -1

        # Runner state.
        self.queue: deque[Job] = deque()
        self.running: Job | None = None
        self._completion: EventHandle | None = None

        # Owner state.
        self.owned: dict[int, JobRecord] = {}   # job guid -> record

        # Periodic protocol tasks (created lazily when heartbeats are on).
        self._hb_task: PeriodicTask | None = None
        self._monitor_task: PeriodicTask | None = None

        # Lifetime accounting.
        self.jobs_executed = 0
        self.busy_time = 0.0
        #: Per-client CPU seconds served here (fair-share discipline state).
        self.client_service: dict[int, float] = {}

        # Cached telemetry counter + bus-filter flag for the heartbeat
        # send path (resolved on first use; every node shares the grid's
        # registry so these all point at the same Counter object).
        self._tel_hb_ctr = None
        self._tel_hb_wants: bool | None = None

    # ------------------------------------------------------------------
    # endpoint interface
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def queue_len(self) -> int:
        """Load metric: queued jobs plus the running one."""
        return len(self.queue) + (1 if self.running is not None else 0)

    def handle_message(self, msg: Message) -> None:
        handler = self._HANDLERS.get(msg.kind)
        if handler is None:
            raise ValueError(f"unknown message kind {msg.kind!r}")
        handler(self, msg)

    def handle_undeliverable(self, msg: Message) -> None:
        """``msg``'s destination is dead.  For a heartbeat, that is §2's
        owner failure: recruit a new owner, unless the job is finished,
        no longer here, or already re-owned by an earlier failed beat."""
        if msg.kind != "heartbeat":
            return
        job = self.grid.jobs.get(msg.payload[0])
        if job is not None and job.owner_id == msg.dst \
                and not job.is_terminal and self._has_job(job):
            self._recruit_owner(job, self.grid.sim.now)

    # ------------------------------------------------------------------
    # owner role
    # ------------------------------------------------------------------

    def owner_receive(self, job: Job, route_hops: int) -> None:
        """The DHT mapped ``job`` to this node; become its owner (§2 step 3)."""
        sim = self.grid.sim
        job.owner_id = self.node_id
        job.owner_time = sim.now
        job.owner_route_hops += route_hops
        job.state = JobState.MATCHING
        self.owned[job.guid] = JobRecord(job, None, sim.now)
        tel = self.grid.telemetry
        if tel.enabled:
            tel.bus.end_span(job.extra.pop("tel_insert", None), sim.now,
                             owner=self.name, hops=route_hops)
            job.extra["tel_match"] = tel.bus.begin_span(
                sim.now, "job.match", parent=job.extra.get("tel_job"),
                trace=job.guid, job=job.name, owner=self.name)
            if tel.flight is not None:
                tel.flight.note(self.node_id, sim.now, "owner-receive",
                                job=job.guid)
        self._ensure_owner_tasks()
        self._match_and_dispatch(job, retries_left=self.grid.cfg.match_retries)

    def _match_and_dispatch(self, job: Job, retries_left: int) -> None:
        """The two-phase matchmaking pipeline (see :mod:`repro.match.select`).

        Phase 1 — the matchmaker's structural :meth:`~repro.match.base.
        Matchmaker.search` returns candidates plus overlay hops.  Phase 2
        — probe/select/dispatch — runs either synchronously on oracle
        load reads (``probe_mode="oracle"``) or asynchronously over real
        rpc probes with timeouts (``probe_mode="rpc"``).
        """
        if job.is_terminal or not self._alive:
            return
        if job.owner_id != self.node_id:
            # Stale owner: a healed node replaying a pre-partition retry
            # chain for a job some other node now owns (the run node
            # recruited a replacement while we were dark).  Acting here
            # would double-manage the job; drop our record instead.
            self.owned.pop(job.guid, None)
            return
        grid = self.grid
        tel = grid.telemetry
        if tel.enabled:
            # Re-matches (run-node loss, dispatch exhaustion, adoption)
            # arrive here without an open match span: open one so retry
            # chains show up as distinct job.match spans in the trace.
            mspan = job.extra.get("tel_match")
            if mspan is None:
                mspan = job.extra["tel_match"] = tel.bus.begin_span(
                    grid.sim.now, "job.match", parent=job.extra.get("tel_job"),
                    trace=job.guid, job=job.name, owner=self.name, retry=True)
            # Ambient context: DHT-route records emitted inside the
            # structural search join this job's causal tree.
            tel.trace_ctx = (job.guid,
                             mspan.span_id if mspan is not None else None)
            cset = grid.matchmaker.search(self, job)
            tel.trace_ctx = None
        else:
            cset = grid.matchmaker.search(self, job)
        job.match_hops += cset.hops
        job.pushes += cset.pushes
        if grid.cfg.probe_mode == "rpc":
            # Charge the structural search's latency up front, then probe
            # the candidates with real messages; selection completes when
            # every probe has replied or timed out.
            grid.sim.schedule(grid.route_delay(cset.hops + cset.pushes),
                              self._probe_candidates, job, cset, retries_left)
            return
        ranking, probes = oracle_select(grid, cset, grid.selection_policy,
                                        grid.streams["match"])
        job.match_probes += probes
        if tel.enabled:
            tel.note_match(grid.matchmaker.name, cset.hops, probes,
                           cset.pushes, found=bool(ranking))
        if not ranking:
            self._retry_match(job, retries_left)
            return
        result = MatchResult(grid.nodes[ranking[0]], hops=cset.hops,
                             probes=probes, pushes=cset.pushes)
        self._note_selected(job, result.node, cset.hops, probes)
        # Matchmaking consumed overlay hops and candidate probes; charge
        # their latency before the job lands in the run node's queue.
        delay = grid.match_delay(result)
        grid.sim.schedule(delay, self._dispatch, job, ranking)

    def _retry_match(self, job: Job, retries_left: int) -> None:
        """No candidate selected: back off and re-match, or fail the job."""
        if retries_left > 0:
            self.grid.sim.schedule(
                self.grid.cfg.match_retry_backoff, self._match_and_dispatch,
                job, retries_left - 1,
            )
        else:
            self._owner_fail_job(job, "no satisfying node found")

    def _note_selected(self, job: Job, node: "GridNode", hops: int,
                       probes: int) -> None:
        """Bookkeeping once phase 2 picked a run node."""
        now = self.grid.sim.now
        job.match_time = now
        job.run_node_id = node.node_id
        self.grid.trace.record(now, "match", job=job.name,
                               run_node=node.name, hops=hops, probes=probes)
        tel = self.grid.telemetry
        if tel.enabled:
            tel.bus.end_span(job.extra.pop("tel_match", None), now,
                             run_node=node.name, hops=hops, probes=probes)
            job.extra["tel_dispatch"] = tel.bus.begin_span(
                now, "job.dispatch", parent=job.extra.get("tel_job"),
                trace=job.guid, job=job.name, run_node=node.name)
        rec = self.owned.get(job.guid)
        if rec is not None:
            rec.run_node_id = node.node_id
            rec.last_heartbeat = now

    # -- phase 2 in rpc mode: real probes, ranked selection ---------------

    def _probe_candidates(self, job: Job, cset: CandidateSet,
                          retries_left: int) -> None:
        """Fan out rpc load probes to the policy's chosen targets.

        A candidate that died after the structural search simply never
        answers: its probe times out and it drops out of the ranking —
        failure detection by message, not by oracle.
        """
        if job.is_done or not self._alive:
            return
        grid = self.grid
        targets = grid.selection_policy.probe_targets(
            cset.candidates, grid.streams["match"])
        if not targets:
            self._select_and_dispatch(job, cset, {}, (), retries_left)
            return
        job.match_probes += len(targets)
        tel = grid.telemetry
        trace = None
        round_ = ProbeRound(targets)
        if tel.enabled:
            tel.metrics.counter("match.probes.sent").inc(len(targets))
            # The probe fan-out gets its own span under the match span;
            # its id rides every probe rpc so the remote-side rpc.server
            # records parent under it, and the span closes when the last
            # probe settles (see _select_and_dispatch).
            round_.span = tel.bus.begin_span(
                grid.sim.now, "job.probe", parent=job.extra.get("tel_match"),
                trace=job.guid, job=job.name, targets=len(targets))
            if round_.span is not None:
                job.extra["tel_probe"] = round_.span
            trace = (job.guid, round_.span.span_id
                     if round_.span is not None else None)
        for nid in targets:
            grid.rpc.call(
                self.node_id, nid, "probe", job.guid,
                on_reply=lambda load, nid=nid: self._on_probe_result(
                    job, cset, round_, nid, load, retries_left),
                on_timeout=lambda nid=nid: self._on_probe_result(
                    job, cset, round_, nid, None, retries_left),
                timeout=grid.cfg.probe_timeout,
                trace=trace,
            )

    def _on_probe_result(self, job: Job, cset: CandidateSet,
                         round_: ProbeRound, nid: int, load: int | None,
                         retries_left: int) -> None:
        done = round_.timeout(nid) if load is None else round_.reply(nid, load)
        if done:
            self._select_and_dispatch(job, cset, round_.loads, round_.failed,
                                      retries_left, probe_span=round_.span)

    def _select_and_dispatch(self, job: Job, cset: CandidateSet,
                             loads: dict[int, int], failed, retries_left: int,
                             probe_span=None) -> None:
        """Rank the probe results and dispatch to the winner."""
        grid = self.grid
        tel = grid.telemetry
        if probe_span is not None:
            # Close the fan-out span even when the round was superseded —
            # the probes really happened; the attrs say how they settled.
            if job.extra.get("tel_probe") is probe_span:
                job.extra.pop("tel_probe")
            tel.bus.end_span(probe_span, grid.sim.now,
                             replies=len(loads), timeouts=len(failed))
        if job.is_done or not self._alive:
            return
        if job.owner_id != self.node_id or job.state is not JobState.MATCHING:
            return  # superseded (resubmitted / re-owned) while probing
        if failed and tel.enabled:
            tel.metrics.counter("match.probes.timeouts").inc(len(failed))
        ranking = grid.selection_policy.rank(
            cset.candidates, loads, failed, grid.streams["match"],
            tie_break=cset.tie_break)
        if tel.enabled:
            tel.note_match(grid.matchmaker.name, cset.hops,
                           len(loads) + len(failed), cset.pushes,
                           found=bool(ranking))
        if not ranking:
            self._retry_match(job, retries_left)
            return
        self._note_selected(job, grid.nodes[ranking[0]], cset.hops, len(loads))
        self._dispatch(job, ranking)

    # -- dispatch (plain or acknowledged) ---------------------------------

    def _dispatch(self, job: Job, ranking: list[int]) -> None:
        """Ship the job to ``ranking[0]``; the rest are ack-fallbacks."""
        if job.is_done or not self._alive:
            return
        target = ranking[0]
        tel = self.grid.telemetry
        trace = None
        if tel.enabled:
            dspan = job.extra.get("tel_dispatch")
            trace = (job.guid, dspan.span_id if dspan is not None else None)
            if tel.flight is not None:
                tel.flight.note(self.node_id, self.grid.sim.now, "dispatch",
                                job=job.guid, info=target)
        if self.grid.cfg.replicate and len(ranking) > 1 \
                and len(self.owned) >= self.grid.cfg.replicate_threshold \
                and "replica_nodes" not in job.extra:
            # Hot-owner replication: ship a second copy to the runner-up
            # candidate.  Plain (unacked) send even in dispatch_ack mode —
            # the replica is best-effort; the acked primary path is the
            # one recovery reasons about.
            replica = ranking[1]
            job.extra["replica_nodes"] = (replica,)
            self.grid.trace.record(self.grid.sim.now, "replicate",
                                   job=job.name)
            self.grid.metrics.on_recovery("replica", job)
            if tel.enabled:
                tel.metrics.counter("jobs.replicated").inc()
            self.grid.network.send("assign", self.node_id, replica, job,
                                   trace=trace)
        if not self.grid.cfg.dispatch_ack:
            self.grid.network.send("assign", self.node_id, target, job,
                                   trace=trace)
            return
        self.grid.rpc.call(
            self.node_id, target, "assign", job,
            on_reply=lambda ok: self._on_dispatch_ack(job, target, ok),
            on_timeout=lambda: self._on_dispatch_timeout(job, ranking),
            timeout=self.grid.cfg.probe_timeout,
            trace=trace,
        )

    def _on_dispatch_ack(self, job: Job, target: int, ok: bool) -> None:
        """The run node confirmed (or refused) the assignment."""
        if not ok:
            return  # refused: the assignment was superseded; nothing to do
        rec = self.owned.get(job.guid)
        if rec is not None and rec.run_node_id == target:
            rec.last_heartbeat = self.grid.sim.now  # the ack proves liveness
        tel = self.grid.telemetry
        if tel.enabled:
            tel.metrics.counter("dispatch.acks").inc()

    def _on_dispatch_timeout(self, job: Job, ranking: list[int]) -> None:
        """Ack timeout: the chosen run node died between probe and assign.

        Fall back to the next-ranked candidate *immediately* — recovery in
        one rpc timeout instead of ``heartbeat_interval × miss_limit``
        waiting for the monitor sweep to notice the silence.
        """
        target = ranking[0]
        if job.is_done or not self._alive:
            return
        if job.run_node_id != target or job.owner_id != self.node_id:
            return  # superseded meanwhile (monitor sweep / re-own)
        grid = self.grid
        now = grid.sim.now
        rec = self.owned.get(job.guid)
        job.run_node_failures += 1
        grid.trace.record(now, "recovery", kind="dispatch", job=job.name)
        latency = now - rec.last_heartbeat if rec is not None else 0.0
        grid.metrics.on_recovery("dispatch", job, latency=latency)
        tel = grid.telemetry
        if tel.enabled:
            tel.metrics.counter("dispatch.ack_timeouts").inc()
        if tel.enabled and tel.flight is not None:
            tel.flight.note(self.node_id, now, "dispatch-timeout",
                            job=job.guid, info=target)
        rest = ranking[1:]
        if rest:
            job.run_node_id = rest[0]
            if rec is not None:
                rec.run_node_id = rest[0]
                rec.last_heartbeat = now
            self._dispatch(job, rest)
        else:
            job.state = JobState.MATCHING
            job.run_node_id = None
            if rec is not None:
                rec.run_node_id = None
                rec.last_heartbeat = now
            if tel.enabled:
                # The dispatch phase is over (exhausted); a fresh match
                # span opens in _match_and_dispatch for the retry chain.
                tel.bus.end_span(job.extra.pop("tel_dispatch", None), now,
                                 status="exhausted")
            self._match_and_dispatch(job, retries_left=grid.cfg.match_retries)

    def _owner_fail_job(self, job: Job, reason: str) -> None:
        if job.is_terminal or job.owner_id != self.node_id:
            # Guard the terminal transition: a stale owner (healed after
            # a partition, its monitor state intact) must not FAIL a job
            # its replacement owner is still managing — and nothing may
            # ever fail a job that already reached a terminal state, or
            # the metrics double-count it (once COMPLETED at the client,
            # once FAILED here).
            self.owned.pop(job.guid, None)
            return
        job.state = JobState.FAILED
        job.failure_reason = reason
        self.owned.pop(job.guid, None)
        tel = self.grid.telemetry
        if tel.enabled:
            tel.close_job_spans(job, "failed")
            tel.dump_flight(job, (self.node_id, job.run_node_id),
                            reason=reason)
        self.grid.network.send("result", self.node_id, job.profile.client_id, job)

    def _on_heartbeat(self, msg: Message) -> None:
        job_guid, run_node_id = msg.payload
        now = self.grid.sim.now
        rec = self.owned.get(job_guid)
        if rec is not None and rec.run_node_id == run_node_id:
            # Steady state: same run node, only the liveness stamp moves.
            rec.last_heartbeat = now
        else:
            if rec is None:
                # A freshly recruited owner (or recovered node) that lost
                # the record: re-adopt if we are this job's current owner.
                job = self.grid.jobs.get(job_guid)
                if job is None or job.is_done or job.owner_id != self.node_id:
                    return  # stale heartbeat (finished or re-owned job)
                rec = self.owned[job_guid] = JobRecord(job, run_node_id, now)
                self._ensure_owner_tasks()
            rec.run_node_id = run_node_id
            rec.last_heartbeat = now
        cfg = self.grid.cfg
        if cfg.client_resubmit_enabled \
                and now - rec.last_status >= cfg.client_check_interval:
            rec.last_status = now
            self.grid.network.send("status", self.node_id,
                                   rec.job.profile.client_id, job_guid)

    def _on_complete(self, msg: Message) -> None:
        self.owned.pop(msg.payload, None)

    def _on_adopt(self, msg: Message) -> None:
        """A run node detected our predecessor's death and recruited us."""
        job = msg.payload
        if job.is_terminal:
            return
        job.owner_id = self.node_id
        self.owned[job.guid] = JobRecord(job, job.run_node_id, self.grid.sim.now)
        tel = self.grid.telemetry
        if tel.enabled and tel.flight is not None:
            tel.flight.note(self.node_id, self.grid.sim.now, "adopt",
                            job=job.guid, info=msg.src)
        self._ensure_owner_tasks()

    def _monitor_owned(self) -> None:
        """Periodic owner sweep: challenge run nodes that went silent.

        Suspicion (stale heartbeats) triggers a *message*, not an oracle
        read: a ``has-job`` rpc to the suspect.  A positive reply means
        heartbeats are merely delayed and refreshes the record; a negative
        reply or timeout confirms the loss and the job is re-matched.
        """
        if not self.owned:
            self._monitor_task.park()  # idle: whoever adds a record wakes it
            return
        if not self._alive:
            return  # partitioned, records intact: keep ticking for heal()
        cfg = self.grid.cfg
        now = self.grid.sim.now
        timeout = cfg.heartbeat_interval * cfg.heartbeat_miss_limit
        # Iterate the record dict directly (no snapshot list per sweep —
        # this fires every heartbeat interval on every owner).  The sweep
        # body only posts messages, so the dict cannot grow mid-loop;
        # records of finished jobs are collected and popped afterwards.
        done: list[int] | None = None
        speculate: list[JobRecord] | None = None
        for rec in self.owned.values():
            job = rec.job
            if job.is_terminal or job.owner_id != self.node_id:
                # Finished/abandoned — or ours no longer (ownership moved
                # while we were partitioned); either way the record is
                # dead weight and acting on it would double-manage (or
                # revive) the job.
                if done is None:
                    done = [job.guid]
                else:
                    done.append(job.guid)
                continue
            if rec.run_node_id is None:
                continue  # matchmaking still in flight
            if cfg.speculative and not rec.speculated \
                    and now - job.match_time \
                    > cfg.speculative_threshold * job.profile.work:
                # Straggler: out for several multiples of its nominal
                # work with no result.  Launch a clone (deferred past the
                # sweep: re-matching mutates self.owned).
                if speculate is None:
                    speculate = [rec]
                else:
                    speculate.append(rec)
                continue
            if now - rec.last_heartbeat > timeout and not rec.probing:
                rec.probing = True
                tel = self.grid.telemetry
                self.grid.rpc.call(
                    self.node_id, rec.run_node_id, "has-job", job.guid,
                    on_reply=lambda has, rec=rec: self._on_liveness_reply(
                        rec, has),
                    on_timeout=lambda rec=rec: self._on_liveness_timeout(rec),
                    timeout=cfg.probe_timeout,
                    trace=(job.guid, None) if tel.enabled else None,
                )
        if done is not None:
            pop = self.owned.pop
            for guid in done:
                pop(guid, None)
        if speculate is not None:
            for rec in speculate:
                self._speculate(rec)

    def _speculate(self, rec: JobRecord) -> None:
        """Clone a straggler back into matchmaking (speculative knob).

        The original copy keeps running wherever it is; the first copy to
        deliver a result wins at the client, and the loser's terminal
        messages are suppressed (see ``_finish_running``).
        """
        job = rec.job
        now = self.grid.sim.now
        rec.speculated = True
        job.state = JobState.MATCHING
        self.grid.trace.record(now, "recovery", kind="speculative",
                               job=job.name)
        self.grid.metrics.on_recovery("speculative", job,
                                      latency=now - job.match_time)
        tel = self.grid.telemetry
        if tel.enabled:
            tel.metrics.counter("jobs.speculated").inc()
            if tel.flight is not None:
                tel.flight.note(self.node_id, now, "speculate", job=job.guid)
        self._match_and_dispatch(job, retries_left=self.grid.cfg.match_retries)

    def _liveness_settled(self, rec: JobRecord) -> bool:
        """True when a liveness-probe outcome is still actionable."""
        rec.probing = False
        return (self._alive and not rec.job.is_terminal
                and rec.job.owner_id == self.node_id
                and self.owned.get(rec.job.guid) is rec)

    def _on_liveness_reply(self, rec: JobRecord, has_job: bool) -> None:
        if not self._liveness_settled(rec):
            return
        if has_job:
            # Heartbeats delayed, not dead; the reply doubles as one.
            rec.last_heartbeat = self.grid.sim.now
        else:
            self._recover_run_node(rec)

    def _on_liveness_timeout(self, rec: JobRecord) -> None:
        if self._liveness_settled(rec):
            self._recover_run_node(rec)

    def _recover_run_node(self, rec: JobRecord) -> None:
        """The run node is confirmed gone: re-run matchmaking."""
        job = rec.job
        now = self.grid.sim.now
        lost_node = rec.run_node_id
        job.run_node_failures += 1
        self.grid.trace.record(now, "recovery", kind="run-node",
                               job=job.name)
        latency = now - rec.last_heartbeat
        job.state = JobState.MATCHING
        job.run_node_id = None
        rec.run_node_id = None
        rec.last_heartbeat = now
        self.grid.metrics.on_recovery("run-node", job, latency=latency)
        tel = self.grid.telemetry
        if tel.enabled:
            # Whatever phase the job died in on the lost node is over;
            # close those spans so the retry chain starts clean (a fresh
            # match span opens in _match_and_dispatch).
            tel.close_job_spans(job, "run-node-lost",
                                keys=("tel_probe", "tel_dispatch",
                                      "tel_queue", "tel_run"))
            if tel.flight is not None:
                tel.flight.note(self.node_id, now, "run-node-lost",
                                job=job.guid, info=lost_node)
        self._match_and_dispatch(job, retries_left=self.grid.cfg.match_retries)

    def _ensure_owner_tasks(self) -> None:
        """Called wherever ``owned`` gains a record: sweep from now on."""
        if self._monitor_task is not None:
            self._monitor_task.wake()  # no-op unless parked
        elif self.grid.cfg.heartbeats_enabled:
            self._monitor_task = PeriodicTask(
                self.grid.sim, self.grid.cfg.heartbeat_interval, self._monitor_owned,
                rng=self.grid.streams.keyed("protocol", self.node_id, "monitor"),
                jitter=0.1)

    # ------------------------------------------------------------------
    # runner role
    # ------------------------------------------------------------------

    def _on_assign(self, msg: Message) -> None:
        self._accept_assignment(msg.payload)

    def _is_assignee(self, job: Job) -> bool:
        """Primary run node, or a best-effort replica (replicate knob)."""
        return job.run_node_id == self.node_id \
            or self.node_id in job.extra.get("replica_nodes", ())

    def _accept_assignment(self, job: Job) -> bool:
        """Enqueue an assigned job; the return value is the dispatch ack."""
        if job.is_terminal or not self._is_assignee(job):
            return False  # superseded assignment (owner re-matched elsewhere)
        if self._has_job(job):
            return True  # duplicate delivery; already accepted
        job.state = JobState.QUEUED
        job.enqueue_time = self.grid.sim.now
        tel = self.grid.telemetry
        if tel.enabled:
            # The dispatch phase ends where the job physically landed
            # (job.extra is shared state, so the owner-opened span is
            # reachable here on the run node).
            tel.bus.end_span(job.extra.pop("tel_dispatch", None),
                             self.grid.sim.now, node=self.name)
            job.extra["tel_queue"] = tel.bus.begin_span(
                self.grid.sim.now, "job.queue",
                parent=job.extra.get("tel_job"), trace=job.guid, job=job.name,
                node=self.name, depth=self.queue_len + 1)
            if tel.flight is not None:
                tel.flight.note(self.node_id, self.grid.sim.now, "accept",
                                job=job.guid)
        self.queue.append(job)
        self.grid.on_queue_change(self)
        self._ensure_runner_tasks()
        self._maybe_start()
        return True

    def _on_rpc(self, msg: Message) -> None:
        self.grid.rpc.handle_message(self.node_id, msg)

    def _handle_rpc(self, method: str, payload, respond) -> None:
        """Server side of the matchmaking pipeline's rpc vocabulary."""
        if method == "probe":
            respond(self.queue_len)
        elif method == "assign":
            respond(self._accept_assignment(payload))
        elif method == "has-job":
            job = self.grid.jobs.get(payload)
            respond(job is not None and self._has_job(job))
        else:
            raise ValueError(f"unknown rpc method {method!r}")

    def _has_job(self, job: Job) -> bool:
        return job is self.running or job in self.queue

    def _pop_next_job(self) -> Job:
        """Select the next job per the configured queue discipline."""
        if self.grid.cfg.queue_discipline == "fair-share" and len(self.queue) > 1:
            # Least locally-served client first; FIFO inside a client (the
            # scan is fine: queues hold at most tens of jobs).
            best_i = 0
            best_served = self.client_service.get(
                self.queue[0].profile.client_id, 0.0)
            for i in range(1, len(self.queue)):
                served = self.client_service.get(
                    self.queue[i].profile.client_id, 0.0)
                if served < best_served:
                    best_i, best_served = i, served
            if best_i:
                self.queue.rotate(-best_i)
                job = self.queue.popleft()
                self.queue.rotate(best_i)
                return job
        return self.queue.popleft()

    def _maybe_start(self) -> None:
        if self.running is not None or not self.queue:
            return
        job = self._pop_next_job()
        if job.is_terminal or not self._is_assignee(job):
            self.grid.on_queue_change(self)
            self._maybe_start()
            return
        try:
            self.grid.cfg.sandbox.check_admission(
                job.profile, needs_network=bool(job.extra.get("needs_network")))
        except SandboxViolation as exc:
            self._fail_job(job, f"sandbox: {exc}")
            # The pop shrank the queue with nothing started in its place:
            # load watchers (matchmaker indices, registry column) must
            # hear about it, same as the dead-job path below.
            self.grid.on_queue_change(self)
            self._maybe_start()
            return
        self.running = job
        job.state = JobState.RUNNING
        job.start_time = self.grid.sim.now
        job.executions += 1
        self.grid.trace.record(self.grid.sim.now, "start", job=job.name,
                               node=self.name, wait=job.wait_time)
        tel = self.grid.telemetry
        if tel.enabled:
            tel.bus.end_span(job.extra.pop("tel_queue", None),
                             self.grid.sim.now, node=self.name)
            job.extra["tel_run"] = tel.bus.begin_span(
                self.grid.sim.now, "job.run",
                parent=job.extra.get("tel_job"), trace=job.guid,
                job=job.name, node=self.name)
            if tel.flight is not None:
                tel.flight.note(self.node_id, self.grid.sim.now, "run-start",
                                job=job.guid)
        duration = self.execution_time(job)
        # Staging: input before, output after, over the configured link.
        # KB-scale I/O (the paper's workloads) makes this negligible; it is
        # the knob for studying I/O-heavier jobs.
        staging = (job.profile.input_size_kb + job.profile.output_size_kb) \
            / self.grid.cfg.staging_bandwidth_kbps
        limit = self.grid.cfg.sandbox.runtime_limit(job.profile)
        if limit is not None and duration > limit:
            # Runaway guard: the job will be killed at the limit.
            self._completion = self.grid.sim.schedule(
                limit, self._finish_running, job, "sandbox: runtime limit exceeded")
        else:
            self._completion = self.grid.sim.schedule(
                duration + staging, self._finish_running, job, None)

    def execution_time(self, job: Job) -> float:
        """Wall-clock execution time of ``job`` on this node."""
        cfg = self.grid.cfg
        if cfg.scale_runtime_by_cpu:
            speed = self.capability[cfg.cpu_dim] / cfg.reference_cpu_level
            return job.profile.work / max(speed, 1e-9)
        return job.profile.work

    def _finish_running(self, job: Job, failure: str | None) -> None:
        self._completion = None
        self.running = None
        self.jobs_executed += 1
        served = self.grid.sim.now - job.start_time
        self.busy_time += served
        self.grid.registry.note_executed(self._reg_idx, served)
        cid = job.profile.client_id
        self.client_service[cid] = self.client_service.get(cid, 0.0) + served
        if failure is None:
            try:
                self.grid.cfg.sandbox.check_completion(job.profile)
            except SandboxViolation as exc:
                failure = f"sandbox: {exc}"
        tel = self.grid.telemetry
        if tel.enabled:
            tel.bus.end_span(job.extra.pop("tel_run", None), self.grid.sim.now,
                             node=self.name, failure=failure)
            tel.metrics.counter("jobs.executed").inc()
            if tel.flight is not None:
                tel.flight.note(self.node_id, self.grid.sim.now, "run-finish",
                                job=job.guid, info=failure)
        cfg = self.grid.cfg
        if (cfg.speculative or cfg.replicate) and job.is_terminal:
            # A sibling copy (speculative clone or replica) already drove
            # the job to a terminal state: this copy's work is sunk cost,
            # its terminal messages must not fire — a late _fail_job here
            # would flip a COMPLETED job to FAILED and double-count it.
            # Gated on the knobs: without them double execution only
            # happens via client resubmission, whose duplicate results
            # the client itself already absorbs (and the goldens pin that
            # exact message stream).
            self.grid.on_queue_change(self)
            self._maybe_start()
            return
        if failure is not None:
            self._fail_job(job, failure)
        else:
            job.result = job.extra.get("result_payload", f"output:{job.name}")
            if job.owner_id is not None:
                self.grid.network.send("complete", self.node_id, job.owner_id,
                                       job.guid)
            self._return_result(job)
        self.grid.on_queue_change(self)
        self._maybe_start()

    def _return_result(self, job: Job) -> None:
        """§2 step 6: return the result to the client — inline, or (in
        pointer mode) stored into the matchmaker's DHT with replication and
        announced as a GUID pointer the client resolves."""
        if self.grid.cfg.result_return == "pointer":
            stored, hops = self.grid.matchmaker.store_result(job, job.result)
            if stored:
                job.extra["result_store_hops"] = hops
                # The store consumed overlay hops before the announcement
                # can go out; if we die in that window the result is still
                # in the DHT but unannounced — the client's watchdog covers
                # that, same as any lost message.
                self.grid.sim.schedule(self.grid.route_delay(hops),
                                       self._announce_pointer, job)
                return
        self.grid.network.send("result", self.node_id,
                               job.profile.client_id, job)

    def _announce_pointer(self, job: Job) -> None:
        if not self._alive:
            return
        self.grid.network.send("result-pointer", self.node_id,
                               job.profile.client_id, job)

    def _fail_job(self, job: Job, reason: str) -> None:
        if job.is_terminal:
            return  # already terminal; a COMPLETED job must never re-fail
        job.state = JobState.FAILED
        job.failure_reason = reason
        tel = self.grid.telemetry
        if tel.enabled:
            tel.close_job_spans(job, "failed")
            tel.dump_flight(job, (self.node_id, job.owner_id),
                            reason=reason)
        if job.owner_id is not None:
            self.grid.network.send("complete", self.node_id, job.owner_id, job.guid)
        self.grid.network.send("result", self.node_id, job.profile.client_id, job)

    # The two sweeps below cover queued jobs then the running one, over
    # the live deque (no snapshot list or generator per sweep): they only
    # *send* messages, which the kernel defers, so nothing mutates the
    # queue mid-iteration (the deque would raise if something ever did).

    def _send_heartbeats(self) -> None:
        """One heartbeat per queued/running job (§2 step 5)."""
        send = self.grid.network.send
        node_id = self.node_id
        sent = 0
        for job in self.queue:
            if job.owner_id is not None:
                send("heartbeat", node_id, job.owner_id, (job.guid, node_id))
                sent += 1
        job = self.running
        if job is not None and job.owner_id is not None:
            send("heartbeat", node_id, job.owner_id, (job.guid, node_id))
            sent += 1
        tel = self.grid.telemetry
        if sent and tel.enabled:
            ctr = self._tel_hb_ctr
            if ctr is None:
                ctr = self._tel_hb_ctr = tel.metrics.counter("heartbeats.sent")
                self._tel_hb_wants = tel.bus.wants("heartbeat")
            ctr.inc(sent)
            if self._tel_hb_wants:
                tel.bus.record(self.grid.sim.now, "heartbeat",
                               node=self.name, jobs=sent)

    def _recruit_owner(self, job: Job, now: float) -> None:
        """``job``'s owner is unreachable: route its profile to a new one.

        Counted as a recovery only once a replacement is found: with none
        (a server that is down), every failed heartbeat retries.
        """
        tel = self.grid.telemetry
        if tel.enabled:
            if tel.flight is not None:
                tel.flight.note(self.node_id, now, "owner-lost",
                                job=job.guid, info=job.owner_id)
            tel.trace_ctx = (job.guid, None)
            new_owner, hops = self.grid.matchmaker.find_owner(job, start=self)
            tel.trace_ctx = None
        else:
            new_owner, hops = self.grid.matchmaker.find_owner(job, start=self)
        job.owner_route_hops += hops
        if new_owner is None:
            return
        job.owner_failures += 1
        self.grid.trace.record(now, "recovery", kind="owner", job=job.name)
        self.grid.metrics.on_recovery("owner", job)
        job.owner_id = new_owner.node_id
        self.grid.network.send("adopt-owner", self.node_id,
                               new_owner.node_id, job)

    def _ensure_runner_tasks(self) -> None:
        """Called wherever the queue gains a job: heartbeat from now on."""
        if self._hb_task is not None:
            self._hb_task.wake()  # no-op unless parked
        elif self.grid.cfg.heartbeats_enabled:
            self._hb_task = PeriodicTask(
                self.grid.sim, self.grid.cfg.heartbeat_interval, self._runner_tick,
                rng=self.grid.streams.keyed("protocol", self.node_id, "heartbeat"),
                jitter=0.1)

    def _runner_tick(self) -> None:
        if not self.queue and self.running is None:
            self._hb_task.park()  # idle: _accept_assignment wakes it
        elif self._alive:  # partitioned with jobs: keep ticking for heal()
            self._send_heartbeats()

    # ------------------------------------------------------------------
    # failure / recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Abrupt failure: all volatile state (queue, monitors) is lost."""
        if not self._alive:
            return
        self._alive = False
        tel = self.grid.telemetry
        if tel.enabled and tel.flight is not None:
            tel.flight.note(self.node_id, self.grid.sim.now, "crash")
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        self.queue.clear()
        self.running = None
        self.owned.clear()
        if self._hb_task is not None:
            self._hb_task.stop()
            self._hb_task = None
        if self._monitor_task is not None:
            self._monitor_task.stop()
            self._monitor_task = None
        self.grid._live_cache = None
        self.grid.registry.alive[self._reg_idx] = False
        self.grid.on_queue_change(self)

    def recover(self) -> None:
        """Rejoin with fresh, empty state (same identity and capability)."""
        if self._alive:
            return
        self._alive = True
        self.grid._live_cache = None
        self.grid.registry.alive[self._reg_idx] = True

    def partition(self) -> None:
        """Become unreachable *without* losing state.

        Unlike :meth:`crash`, the queue, the running job's completion
        timer, owned-job records, and periodic tasks all survive — the
        node simply stops sending or receiving messages (the network drops
        traffic to and from dead endpoints).  Models a transient network
        partition or laptop suspend, as opposed to a process death.
        """
        self._alive = False
        self.grid._live_cache = None
        self.grid.registry.alive[self._reg_idx] = False

    def heal(self) -> None:
        """Reconnect after :meth:`partition`, state intact."""
        self._alive = True
        self.grid._live_cache = None
        self.grid.registry.alive[self._reg_idx] = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self._alive else "DOWN"
        return (f"GridNode({self.name!r}, {state}, cap={self.capability}, "
                f"q={self.queue_len})")


GridNode._HANDLERS = {
    "assign": GridNode._on_assign,
    "heartbeat": GridNode._on_heartbeat,
    "complete": GridNode._on_complete,
    "adopt-owner": GridNode._on_adopt,
    "rpc-req": GridNode._on_rpc,
    "rpc-rep": GridNode._on_rpc,
}
