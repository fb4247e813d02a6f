"""Phase 2 of matchmaking: probe candidates, select, rank fallbacks.

Every matchmaker's :meth:`~repro.match.base.Matchmaker.search` is *phase
1*: a structural overlay search (RN-tree DFS, CAN neighbor gather, TTL
walk, centralized index scan) that returns a :class:`CandidateSet` — the
nodes worth considering plus the overlay hops spent finding them.  This
module is *phase 2*, shared by all matchmakers: decide which candidates
to probe for load, pick a winner, and keep a preference-ordered fallback
list for dispatch failures.

Two probe modes (selected by ``GridConfig.probe_mode``):

* ``"oracle"`` — the historical simulator shortcut: candidate queue
  lengths are read directly in zero virtual time and their latency is
  charged afterwards (:meth:`DesktopGrid.match_delay`).  Cheap and
  deterministic; a dead candidate is invisible until the owner's monitor
  sweep.  This is the default and reproduces pre-pipeline results
  bit-for-bit.
* ``"rpc"`` — load probes are real request/reply messages over
  :class:`repro.sim.rpc.RpcLayer`: each probe costs a round trip of
  virtual time, and a candidate that died after the structural search
  surfaces as a *timeout*, not oracle knowledge.  See
  :meth:`repro.grid.node.GridNode._probe_candidates` for the owner-side
  driver.

Selection policies are pluggable (``GridConfig.selection_policy``):
``least-loaded`` is the paper's rule (probe everyone, pick the minimum,
ties broken uniformly at random), ``random`` skips probing entirely, and
``power-of-d`` probes only ``d`` sampled candidates — the classic
two-choices trade-off between probe traffic and balance.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.system import DesktopGrid


@dataclass
class CandidateSet:
    """Phase-1 output: run-node candidates plus search-cost accounting.

    ``candidates`` holds node GUIDs in *search order* (the order the
    structural search discovered them); policies treat that order as the
    deterministic tie-break baseline.  ``hops``/``pushes`` are the overlay
    messages the search consumed.

    ``charge_probes`` is False for matchmakers whose search already paid
    for load knowledge (the centralized oracle, the TTL walk that reads
    loads as it visits) — oracle-mode accounting then reports zero probes,
    matching the historical per-matchmaker behavior.  ``tie_break`` is
    ``"random"`` (draw from the match RNG stream even for a single
    winner, as the tree/CAN matchmakers always did) or ``"first"``
    (deterministic first-in-search-order, the TTL walk's rule).

    ``reg_idx`` optionally carries the candidates' dense
    :class:`NodeRegistry` indices (same search order) so oracle-mode
    selection can read load columns in bulk instead of probing a dict
    per candidate; a matchmaker attaching it asserts the candidates are
    *unique* (duplicates would change least-loaded tie semantics).  A
    matchmaker may supply ``reg_idx`` with an *empty* ``candidates``
    list only under ``probe_mode="oracle"`` (the rpc probe path needs
    the GUID list).
    """

    candidates: list[int] = field(default_factory=list)
    hops: int = 0
    pushes: int = 0
    charge_probes: bool = True
    tie_break: str = "random"
    reg_idx: "np.ndarray | None" = None

    def __bool__(self) -> bool:
        return bool(self.candidates) \
            or (self.reg_idx is not None and self.reg_idx.size > 0)


class SelectionPolicy(abc.ABC):
    """Decides which candidates to probe and how to rank them."""

    #: Registry name, overridden by subclasses.
    name = "abstract"

    def probe_targets(self, candidates: list[int],
                      rng: "np.random.Generator") -> list[int]:
        """The subset of ``candidates`` whose load should be probed."""
        return list(candidates)

    @abc.abstractmethod
    def rank(self, candidates: list[int], loads: dict[int, int],
             failed: Iterable[int], rng: "np.random.Generator",
             tie_break: str = "random") -> list[int]:
        """Preference-order ``candidates`` given probe results.

        ``loads`` maps probed node id -> reported queue length; ``failed``
        holds probed ids that never answered (rpc timeouts — presumed
        dead, excluded from the ranking).  Unprobed candidates keep their
        search order at the back of the ranking as last-resort fallbacks.
        The first element is the dispatch target; the rest are the
        fallback order for ack-timeout re-dispatch.
        """


class LeastLoadedPolicy(SelectionPolicy):
    """The paper's rule: probe every candidate, run the least loaded.

    Tie-break reproduces the historical per-matchmaker code exactly:
    collect the minimum-load candidates in search order and draw one
    uniformly (one RNG draw *whenever there is a winner*, even a sole
    one — the tree/CAN/centralized matchmakers all drew unconditionally).
    """

    name = "least-loaded"

    def rank(self, candidates, loads, failed, rng, tie_break="random"):
        failed = set(failed)
        probed = [c for c in candidates if c in loads and c not in failed]
        unprobed = [c for c in candidates if c not in loads and c not in failed]
        if not probed:
            return unprobed
        best = min(loads[c] for c in probed)
        winners = [c for c in probed if loads[c] == best]
        if tie_break == "random":
            first = winners[int(rng.integers(0, len(winners)))]
        else:
            first = winners[0]
        order = {c: i for i, c in enumerate(candidates)}
        rest = sorted((c for c in probed if c != first),
                      key=lambda c: (loads[c], order[c]))
        return [first, *rest, *unprobed]


class RandomPolicy(SelectionPolicy):
    """No probing at all: dispatch to a uniformly random candidate.

    The zero-information baseline — one RNG draw, zero probe messages,
    and load balance only as good as random placement gets.
    """

    name = "random"

    def probe_targets(self, candidates, rng):
        return []

    def rank(self, candidates, loads, failed, rng, tie_break="random"):
        failed = set(failed)
        pool = [c for c in candidates if c not in failed]
        if not pool:
            return []
        i = int(rng.integers(0, len(pool)))
        return [pool[i], *pool[:i], *pool[i + 1:]]


class PowerOfDPolicy(SelectionPolicy):
    """Probe only ``d`` sampled candidates; run the least loaded of them.

    The "power of d choices" compromise: most of least-loaded's balance
    at a constant probe cost, independent of how many candidates the
    structural search returned (which for the centralized index is the
    whole satisfying population).
    """

    name = "power-of-d"

    def __init__(self, d: int = 2):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = d

    def probe_targets(self, candidates, rng):
        if len(candidates) <= self.d:
            return list(candidates)
        idx = rng.choice(len(candidates), size=self.d, replace=False)
        return [candidates[i] for i in sorted(int(i) for i in idx)]

    def rank(self, candidates, loads, failed, rng, tie_break="random"):
        failed = set(failed)
        ranked = LeastLoadedPolicy().rank(
            [c for c in candidates if c in loads or c in failed],
            loads, failed, rng, tie_break=tie_break)
        fallback = [c for c in candidates
                    if c not in loads and c not in failed]
        return [*ranked, *fallback]


class ProbeRound:
    """Accumulator for one rpc probe fan-out (phase 2, ``probe_mode="rpc"``).

    One instance per matchmaking attempt; each probe's reply or timeout
    feeds it, and :meth:`reply`/:meth:`timeout` return True exactly once —
    when the last outstanding probe settles — signalling that selection
    can run.

    ``span`` optionally holds the open telemetry probe span for this
    fan-out (None when telemetry is off); the owner closes it when the
    round settles, so the trace shows the full probe window including
    the slowest straggler or timeout.
    """

    __slots__ = ("loads", "failed", "outstanding", "span")

    def __init__(self, targets: Iterable[int]):
        self.loads: dict[int, int] = {}
        self.failed: set[int] = set()
        self.outstanding = len(list(targets))
        self.span = None

    def reply(self, node_id: int, load: int) -> bool:
        self.loads[node_id] = load
        self.outstanding -= 1
        return self.outstanding == 0

    def timeout(self, node_id: int) -> bool:
        self.failed.add(node_id)
        self.outstanding -= 1
        return self.outstanding == 0


#: Policy registry: ``GridConfig.selection_policy`` values.
POLICIES = {
    "least-loaded": LeastLoadedPolicy,
    "random": RandomPolicy,
    "power-of-d": PowerOfDPolicy,
}


def make_policy(name: str, probe_fanout: int = 2) -> SelectionPolicy:
    """Instantiate a selection policy by registry name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown selection policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
    if cls is PowerOfDPolicy:
        return cls(d=probe_fanout)
    return cls()


def oracle_probe(grid: "DesktopGrid", node_ids: Iterable[int]) -> dict[int, int]:
    """Oracle-mode "probing": read queue lengths from the grid's columnar
    registry (same values as the per-node ``queue_len``), in zero time."""
    return grid.registry.loads(node_ids)


def oracle_select(grid: "DesktopGrid", cset: CandidateSet,
                  policy: SelectionPolicy,
                  rng: "np.random.Generator") -> tuple[list[int], int]:
    """Run phase 2 in oracle mode: probe, rank, count chargeable probes.

    Returns ``(ranking, probes)`` where ``ranking`` is preference-ordered
    node ids (empty when there are no candidates) and ``probes`` is the
    probe count to charge the job (0 when the search pre-paid for load
    knowledge, see :attr:`CandidateSet.charge_probes`).

    When the search attached :attr:`CandidateSet.reg_idx` and the policy
    is plain least-loaded, selection runs as array operations over the
    registry's ``queue_len`` column — bit-identical to the scalar rank
    (same single tie-break draw, same preference order), without the
    per-candidate loads dict and Python sort.
    """
    if not cset:
        return [], 0
    if cset.reg_idx is not None and type(policy) is LeastLoadedPolicy:
        return _least_loaded_select_vec(grid, cset, rng)
    targets = policy.probe_targets(cset.candidates, rng)
    loads = oracle_probe(grid, targets)
    ranking = policy.rank(cset.candidates, loads, (), rng,
                          tie_break=cset.tie_break)
    probes = len(targets) if cset.charge_probes else 0
    return ranking, probes


def _least_loaded_select_vec(grid: "DesktopGrid", cset: CandidateSet,
                             rng: "np.random.Generator"
                             ) -> tuple[list[int], int]:
    """Vectorized least-loaded ranking over registry columns.

    Equivalence with :meth:`LeastLoadedPolicy.rank` under oracle probing
    (every candidate probed, none failed, candidates unique):

    * the winner pool is every minimum-load candidate in search order,
      and ``tie_break="random"`` draws once over its size — the same
      ``rng.integers(0, len(winners))`` call;
    * the fallback order is the stable sort by load (ties keep search
      order), exactly the scalar ``sorted(key=(load, order))``;
    * probes charged = number of candidates (all are probed), or 0 when
      the search pre-paid (``charge_probes=False``).

    Without acked dispatch only ``ranking[0]`` (the dispatch target) and
    ``ranking[1]`` (the replicate runner-up / ``len > 1`` check) are
    ever read, so the full fallback chain is skipped and the runner-up
    found with one more O(n) argmin pass instead of a sort — behavior
    is identical because no consumer exists for the tail.
    """
    idx = cset.reg_idx
    loads = grid.registry.queue_len[idx]
    n = int(idx.size)
    if cset.tie_break == "random":
        winners = np.flatnonzero(loads == loads.min())
        w = int(winners[int(rng.integers(0, winners.size))])
    else:
        w = int(loads.argmin())  # first occurrence == first-in-order winner
    candidates = cset.candidates
    if candidates:
        def id_at(p: int) -> int:
            return candidates[p]
    else:
        node_list = grid.node_list

        def id_at(p: int) -> int:
            return node_list[int(idx[p])].node_id

    probes = n if cset.charge_probes else 0
    if n == 1:
        return [id_at(w)], probes
    if not grid.cfg.dispatch_ack:
        masked = loads.copy()
        masked[w] = np.iinfo(masked.dtype).max
        runner_up = int(masked.argmin())
        return [id_at(w), id_at(runner_up)], probes
    order = np.argsort(loads, kind="stable")
    ranking = [id_at(w)]
    ranking.extend(id_at(int(p)) for p in order if int(p) != w)
    return ranking, probes
