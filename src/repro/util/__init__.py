"""Shared utilities: identifier hashing, RNG stream management, statistics."""

from repro.util.ids import (
    GUID_BITS,
    GUID_SPACE,
    guid_for,
    ring_add,
    ring_between,
    ring_distance,
)
from repro.util.rng import RngStreams

__all__ = [
    "GUID_BITS",
    "GUID_SPACE",
    "guid_for",
    "ring_add",
    "ring_between",
    "ring_distance",
    "RngStreams",
]
