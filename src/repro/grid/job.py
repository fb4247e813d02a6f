"""Jobs: profiles, lifecycle state, and per-job accounting.

"A job in our system is the data and associated profile that describes a
computation to be performed" (§2).  The profile is the replicated,
immutable description (client, requirements, input location, size); the
:class:`Job` object adds the mutable lifecycle state the owner and run
node track, plus the timestamps the metrics layer turns into the paper's
wait-time figures.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

from repro.grid.resources import Vector
from repro.util.ids import guid_for


class JobState(enum.Enum):
    CREATED = "created"          # built, not yet injected
    SUBMITTED = "submitted"      # inserted at an injection node
    MATCHING = "matching"        # owner assigned, matchmaking in progress
    QUEUED = "queued"            # in a run node's FIFO queue
    RUNNING = "running"          # executing on the run node
    COMPLETED = "completed"      # results returned to the client
    FAILED = "failed"            # permanently failed (sandbox kill / no match)
    LOST = "lost"                # both owner and run node died; client must resubmit


#: States from which a job can still make progress.
ACTIVE_STATES = frozenset(
    {JobState.SUBMITTED, JobState.MATCHING, JobState.QUEUED, JobState.RUNNING}
)


@dataclass(frozen=True)
class JobProfile:
    """The immutable, replicated job description (§2).

    ``work`` is the job's execution time in seconds on whichever node runs
    it (the paper's evaluation uses nominal runtimes).  Staging its input
    and output adds ``(input_size_kb + output_size_kb) / STAGING_KBPS``
    seconds (:data:`repro.grid.node.STAGING_KBPS`).
    """

    name: str
    client_id: int
    requirements: Vector
    work: float
    input_size_kb: float = 4.0
    output_size_kb: float = 4.0

    def __post_init__(self) -> None:
        if self.work <= 0:
            raise ValueError("work must be positive")
        if self.input_size_kb < 0 or self.output_size_kb < 0:
            raise ValueError("I/O sizes must be non-negative")

    @cached_property
    def guid(self) -> int:
        # sha1-derived and immutable, but probed on every heartbeat, ack,
        # and dispatch — computed once per profile instead of per access.
        # (cached_property writes to __dict__ directly, which a frozen
        # dataclass permits; the name field it hashes can never change.)
        return guid_for(self.name)


@dataclass(slots=True)
class Job:
    """Mutable job lifecycle state.

    ``slots=True`` matters at scale: a 10k-node workload carries tens of
    thousands of live Job objects, and the per-instance ``__dict__`` —
    which materializes (un-shares) the moment any attribute outside the
    ``__init__`` footprint is added — costs more than the fields
    themselves.
    """

    profile: JobProfile
    state: JobState = JobState.CREATED
    attempt: int = 0             # client submissions (resubmission increments)
    executions: int = 0          # times execution started (re-matches included)

    # Timestamps (virtual seconds); NaN until the event happens.
    submit_time: float = math.nan
    owner_time: float = math.nan     # owner received the job
    match_time: float = math.nan     # run node chosen
    enqueue_time: float = math.nan   # entered the run node's FIFO queue
    start_time: float = math.nan     # began executing (last execution)
    finish_time: float = math.nan    # results returned to the client

    # Placement (GUIDs); None until assigned.
    owner_id: int | None = None
    run_node_id: int | None = None

    # Matchmaking cost accounting (accumulated over re-matches).
    owner_route_hops: int = 0
    match_hops: int = 0
    match_probes: int = 0
    pushes: int = 0

    # Recovery accounting.
    run_node_failures: int = 0
    owner_failures: int = 0

    result: object = None
    failure_reason: str | None = None

    extra: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def guid(self) -> int:
        return self.profile.guid

    @property
    def wait_time(self) -> float:
        """The paper's headline metric: submission -> first byte of CPU."""
        return self.start_time - self.submit_time

    @property
    def turnaround(self) -> float:
        return self.finish_time - self.submit_time

    @property
    def is_done(self) -> bool:
        return self.state in (JobState.COMPLETED, JobState.FAILED)

    @property
    def is_terminal(self) -> bool:
        """Done *or* abandoned by the client (LOST).  LOST is terminal
        for the protocol — no node may revive an abandoned job, or the
        overwritten state un-settles the drain check — but it is not
        ``is_done``: the client counts it separately."""
        return self.is_done or self.state is JobState.LOST

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Job({self.name!r}, {self.state.value}, attempt={self.attempt})"

