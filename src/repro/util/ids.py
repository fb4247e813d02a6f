"""Globally Unique IDentifiers (GUIDs) and circular identifier-space math.

The paper assumes an underlying DHT whose hash function maps arbitrary
identifiers (node names, job names) uniformly onto an m-bit circular
identifier space.  Chord and Kademlia both work directly on this space;
CAN derives d-dimensional coordinates separately (see
:mod:`repro.dht.can.space`).

All helpers here are pure functions on integers so they can be tested
exhaustively and property-tested with hypothesis.
"""

from __future__ import annotations

import hashlib

#: Number of bits in a GUID.  64 bits keeps collision probability negligible
#: for simulated populations (birthday bound ~ 2**32 entities) while staying
#: inside a machine word.
GUID_BITS = 64

#: Size of the identifier space, ``2 ** GUID_BITS``.
GUID_SPACE = 1 << GUID_BITS

_MASK = GUID_SPACE - 1


def guid_for(name: str | bytes, *, bits: int = GUID_BITS) -> int:
    """Hash an arbitrary identifier onto the ``bits``-bit GUID space.

    Uses SHA-1 (the hash Chord and CAN were specified with) truncated to the
    requested width.  Deterministic across runs and platforms.
    """
    if isinstance(name, str):
        name = name.encode("utf-8")
    digest = hashlib.sha1(name).digest()
    return int.from_bytes(digest[: (bits + 7) // 8], "big") & ((1 << bits) - 1)


def ring_add(a: int, b: int, *, bits: int = GUID_BITS) -> int:
    """``(a + b) mod 2**bits``."""
    return (a + b) & ((1 << bits) - 1)


def ring_distance(a: int, b: int, *, bits: int = GUID_BITS) -> int:
    """Clockwise distance from ``a`` to ``b`` on the ring."""
    return (b - a) & ((1 << bits) - 1)


def ring_between(x: int, a: int, b: int) -> bool:
    """True iff ``x`` lies in the open clockwise interval ``(a, b)``.

    The interval wraps: ``ring_between(1, 250, 5)`` is True on a small ring.
    When ``a == b`` the interval is the whole ring minus the endpoint, which
    is the degenerate-single-node convention Chord needs.
    """
    if a < b:
        return a < x < b
    return x > a or x < b


def ring_between_right_inclusive(x: int, a: int, b: int) -> bool:
    """True iff ``x`` lies in the clockwise interval ``(a, b]``."""
    if x == b:
        return True
    return ring_between(x, a, b)
