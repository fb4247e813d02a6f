"""Resource capabilities and job requirements.

The paper's job profiles carry minimum resource requirements — "required
CPU speed, amount of memory, supported operating system type(s), etc." —
and nodes advertise capabilities on the same axes.  Following the
evaluation setup we model **3 resource types** on a discrete level scale;
a requirement of 0 on an axis means *unconstrained*.

Vectors are plain tuples of floats: the per-job operations (satisfaction,
dominance) touch 3-4 elements, where tuples beat numpy arrays by a wide
margin; the *centralized* matchmaker, which scans all N nodes per job,
instead keeps a single (N x R) numpy capability matrix and vectorises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Capability or requirement vector; level units, 0 = unconstrained (for
#: requirements) / useless (for capabilities).
Vector = tuple[float, ...]


@dataclass(frozen=True)
class ResourceSpec:
    """Names and scale of the resource axes.

    ``max_level`` is the top of the discrete capability scale (the paper's
    workloads draw node capabilities and job constraints from a bounded
    range; 1..10 here).  It also normalizes CAN coordinates.
    """

    names: tuple[str, ...] = ("cpu", "mem", "disk")
    max_level: float = 10.0

    @property
    def dims(self) -> int:
        return len(self.names)

    def validate_capability(self, cap: Vector) -> None:
        if len(cap) != self.dims:
            raise ValueError(f"capability has {len(cap)} dims, spec has {self.dims}")
        for c in cap:
            if not 0 < c <= self.max_level:
                raise ValueError(f"capability level {c} outside (0, {self.max_level}]")

    def normalize(self, vec: Vector) -> tuple[float, ...]:
        """Map levels onto [0, 1] CAN coordinates."""
        return tuple(v / self.max_level for v in vec)


def satisfies(capability: Vector, requirement: Vector) -> bool:
    """True iff the node meets every (non-zero) minimum requirement."""
    for c, r in zip(capability, requirement):
        if c < r:
            return False
    return True


def dominates(a: Vector, b: Vector, *, strict: bool = True) -> bool:
    """True iff ``a >= b`` componentwise (and ``a != b`` when strict).

    This is the paper's CAN candidate criterion: "at least as capable as
    the original owner in all dimensions, but more capable in at least one
    dimension".
    """
    ge_all = True
    gt_any = False
    for x, y in zip(a, b):
        if x < y:
            ge_all = False
            break
        if x > y:
            gt_any = True
    return ge_all and (gt_any or not strict)


@dataclass
class CapabilityMatrix:
    """Vectorised capability table for omniscient matchmaking.

    Rows are nodes in a fixed index order; :meth:`satisfying_mask` returns
    a boolean mask of nodes meeting a requirement in one numpy pass.
    """

    spec: ResourceSpec
    matrix: np.ndarray = field(repr=False)

    @classmethod
    def from_capabilities(cls, spec: ResourceSpec, caps: list[Vector]) -> "CapabilityMatrix":
        m = np.asarray(caps, dtype=float).reshape(len(caps), spec.dims)
        return cls(spec=spec, matrix=m)

    def satisfying_mask(self, requirement: Vector) -> np.ndarray:
        req = np.asarray(requirement, dtype=float)
        return (self.matrix >= req).all(axis=1)
