"""Output checks: a benchmark number only counts if the outputs were right.

Every check returns :class:`Violation` records.  A violation makes the run
incorrect (non-zero exit) and its ops are counted as failed; none is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from workloads import figure2_shape_checks, simulated_stats

#: Figure 2 claims that must hold at full size at every seed tried; the
#: other two ``shape_checks()`` are seed-fragile at 300 nodes a cell and are
#: printed, not enforced.
ENFORCED_SHAPES = ("centralized_best_everywhere", "can_pathology_mixed_light")

#: Layers that must not run at all on a workload (its bypass predictions).
GRID_LAYERS = ("sim.kernel", "sim.network", "sim.rpc", "match.search",
               "match.select", "match.maintain", "grid.node", "grid.client",
               "grid.system", "metrics", "telemetry", "scenarios",
               "workloads", "experiments.runner")
ZERO_CALLS = {
    "fig2_match": ("telemetry", "sim.rpc"),
    "scale_2k": ("telemetry", "sim.rpc", "dht.can"),
    "rack_faults": ("telemetry", "dht.can"),
    "fig2_traced": ("dht.can",),
    "overlay_churn": GRID_LAYERS,
}

#: Least share of the traced wall that wrapped functions must account for.
MIN_ATTRIBUTED = 0.95
#: Telemetry's least share on ``fig2_traced``, where it must also be the
#: largest.  Only the calls into ``repro.telemetry`` count: the ``if
#: tel.enabled`` branches that prepare them are their callers' time, so the
#: traced share (0.36) reads lower than wall on / wall off - 1 suggests.
MIN_TELEMETRY_SHARE = 0.25


@dataclass(frozen=True)
class Violation:
    check: str
    detail: str
    #: Ops whose outcome this violation makes wrong (at least 1).
    ops: int = 1

    def __str__(self) -> str:
        return f"{self.check}: {self.detail}"


def check_pass(workload: str, cells: list[dict[str, Any]], *,
               full_size: bool) -> list[Violation]:
    """Checks on one pass's outputs."""
    out: list[Violation] = []
    for c in cells:
        if c["kind"] == "grid":
            undrained = c["ops"] - c["terminal"]
            if undrained or c["injected"] != c["ops"] or not c["finished"]:
                out.append(Violation(
                    "job_conservation",
                    f"{c['label']}: {c['ops']} submitted, {c['injected']} "
                    f"injected, {c['terminal']} terminal, "
                    f"drained={c['finished']}", max(undrained, 1)))
        elif c["bad_lookups"]:
            out.append(Violation(
                "lookup_owner",
                f"{c['bad_lookups']} of {c['lookups_total']} lookups failed "
                "or resolved to a node other than the oracle owner",
                c["bad_lookups"]))
    if workload == "fig2_match" and full_size:
        shapes = figure2_shape_checks(cells)
        for name in ENFORCED_SHAPES:
            if not shapes[name]:
                out.append(Violation("figure2_shape", f"{name} does not hold"))
    if workload == "rack_faults":
        s = cells[0]["summary"]
        if s["recoveries_owner"] + s["recoveries_run_node"] <= 0:
            out.append(Violation(
                "recovery_ran", "no owner or run-node recovery happened"))
    return out


def check_identical(reference: list[dict[str, Any]],
                    other: list[dict[str, Any]], what: str) -> list[Violation]:
    """Simulated statistics must be bit-identical between two passes."""
    ref, got = simulated_stats(reference), simulated_stats(other)
    if ref == got:
        return []
    for r, g, cell in zip(ref, got, reference):
        if r != g:
            return [Violation("deterministic",
                              f"{what}: cell {cell['label']} differs: "
                              f"{r} != {g}", cell["ops"])]
    return [Violation("deterministic", f"{what}: cell count differs")]


def check_layers(workload: str, layers: dict[str, dict[str, float]],
                 attributed_frac: float, *,
                 full_size: bool) -> list[Violation]:
    """Layer-isolation assertions on a traced pass: these are what make the
    bypass workloads trustworthy for later no-change predictions."""
    out = [Violation("layer_isolation",
                     f"{layer}.calls = {layers[layer]['calls']}, expected 0")
           for layer in ZERO_CALLS[workload] if layers[layer]["calls"]]
    if attributed_frac < MIN_ATTRIBUTED:
        out.append(Violation(
            "attribution", f"only {attributed_frac:.3f} of the traced wall "
            "is inside wrapped functions"))
    if not full_size:
        return out  # shares shift at smoke size; only the zeros are exact

    def share(layer: str) -> float:
        return layers[layer]["share"]

    if workload == "overlay_churn" \
            and share("dht.chord") + share("dht.can") < 0.9:
        out.append(Violation("layer_share", "dht.* below 0.9 of the wall"))
    top = max(layers, key=share)
    for on, layer, floor in (("fig2_traced", "telemetry", MIN_TELEMETRY_SHARE),
                             ("scale_2k", "sim.kernel", 0.0)):
        if workload == on and (top != layer or share(layer) < floor):
            out.append(Violation(
                "layer_share", f"{layer}.share = {share(layer):.3f} (floor "
                f"{floor}); the largest share is {top}'s"))
    return out
