"""The matchmaker interface shared by all five algorithms."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.match.select import CandidateSet, oracle_select

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.job import Job
    from repro.grid.node import GridNode
    from repro.grid.system import DesktopGrid


@dataclass
class MatchResult:
    """Outcome of a run-node search.

    ``hops`` counts overlay/tree messages spent searching, ``probes``
    counts direct load queries to candidates, ``pushes`` counts load-aware
    job forwarding steps (pushing CAN only).  Together they are the paper's
    "matchmaking cost".
    """

    node: "GridNode | None"
    hops: int = 0
    probes: int = 0
    pushes: int = 0

    def __bool__(self) -> bool:
        return self.node is not None


class Matchmaker(abc.ABC):
    """A pluggable matchmaking mechanism.

    Lifecycle: construct with algorithm parameters, then :meth:`bind` to a
    grid (which builds any overlay from the grid's node population), then
    serve :meth:`find_owner` / :meth:`find_run_node` queries and track
    membership churn via :meth:`on_crash` / :meth:`on_join`.
    """

    #: Registry name, overridden by subclasses.
    name = "abstract"

    def __init__(self) -> None:
        self.grid: "DesktopGrid | None" = None

    @abc.abstractmethod
    def bind(self, grid: "DesktopGrid") -> None:
        """Attach to ``grid`` and build internal structures over its nodes."""

    @abc.abstractmethod
    def find_owner(self, job: "Job", start: "GridNode | None" = None
                   ) -> tuple["GridNode | None", int]:
        """Map ``job`` to its owner node; returns (owner, overlay hops).

        ``start`` is the node initiating the routing (the injection node on
        first submission, the run node during owner-failure recovery).
        """

    @abc.abstractmethod
    def search(self, owner: "GridNode", job: "Job") -> CandidateSet:
        """Phase 1: structural search for run-node candidates from ``owner``.

        Returns the satisfying candidates (in discovery order) plus the
        overlay hops/pushes the search consumed.  Load probing and final
        selection are phase 2, shared across matchmakers — see
        :mod:`repro.match.select`.
        """

    def find_run_node(self, owner: "GridNode", job: "Job") -> MatchResult:
        """Find a run node satisfying ``job``'s requirements from ``owner``.

        Convenience one-shot API: phase-1 :meth:`search` followed by
        phase-2 oracle selection under the grid's configured policy.  The
        grid's dispatch path drives the two phases separately (rpc-mode
        probing is asynchronous); this method is the synchronous
        equivalent and is what oracle-mode matchmaking uses.
        """
        grid = self._require_grid()
        cset = self.search(owner, job)
        ranking, probes = oracle_select(grid, cset, grid.selection_policy,
                                        grid.streams["match"])
        node = grid.nodes[ranking[0]] if ranking else None
        return MatchResult(node, hops=cset.hops, probes=probes,
                           pushes=cset.pushes)

    # -- membership churn (default: no structure to maintain) ---------------

    def on_crash(self, node: "GridNode") -> None:
        """Called after a grid node crashes."""

    def on_join(self, node: "GridNode") -> None:
        """Called after a grid node (re)joins."""

    def note_queue_change(self, node: "GridNode") -> None:
        """Called whenever a node's queue length changes (load tracking)."""

    def _require_grid(self) -> "DesktopGrid":
        if self.grid is None:
            raise RuntimeError(f"{type(self).__name__} is not bound to a grid")
        return self.grid

    # -- telemetry ----------------------------------------------------------

    def _bind_overlay_telemetry(self, *overlays) -> None:
        """Point owned overlays at the grid's telemetry sink (bind-time
        helper).  No-op for grids without telemetry: overlays keep their
        local LookupStats only."""
        tel = getattr(self._require_grid(), "telemetry", None)
        if tel is not None and tel.enabled:
            for overlay in overlays:
                overlay.telemetry = tel
