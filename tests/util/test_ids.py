"""GUID hashing and ring arithmetic, including hypothesis properties."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.util.ids import (
    GUID_SPACE,
    guid_for,
    ring_add,
    ring_between,
    ring_between_right_inclusive,
    ring_distance,
)

ids = st.integers(min_value=0, max_value=GUID_SPACE - 1)


class TestGuidFor:
    def test_deterministic(self):
        assert guid_for("alpha") == guid_for("alpha")

    def test_distinct_names_distinct_guids(self):
        assert guid_for("alpha") != guid_for("beta")

    def test_accepts_bytes_consistently(self):
        assert guid_for("alpha") == guid_for(b"alpha")

    def test_in_range(self):
        for name in ("a", "b", "node-42", "x" * 1000):
            assert 0 <= guid_for(name) < GUID_SPACE

    def test_matches_truncated_sha1(self):
        digest = hashlib.sha1(b"check").digest()
        assert guid_for("check") == int.from_bytes(digest[:8], "big")

    def test_custom_bits(self):
        g = guid_for("x", bits=16)
        assert 0 <= g < 1 << 16



class TestRingMath:
    def test_add_wraps(self):
        assert ring_add(GUID_SPACE - 1, 1) == 0

    def test_distance_simple(self):
        assert ring_distance(5, 9) == 4

    def test_distance_wraps(self):
        assert ring_distance(9, 5) == GUID_SPACE - 4

    def test_between_plain(self):
        assert ring_between(5, 2, 9)
        assert not ring_between(2, 2, 9)
        assert not ring_between(9, 2, 9)

    def test_between_wrapping(self):
        assert ring_between(1, GUID_SPACE - 5, 5)
        assert ring_between(GUID_SPACE - 1, GUID_SPACE - 5, 5)
        assert not ring_between(10, GUID_SPACE - 5, 5)

    def test_between_degenerate_full_ring(self):
        # (a, a) is everything except a itself.
        assert ring_between(1, 7, 7)
        assert not ring_between(7, 7, 7)

    def test_right_inclusive_endpoint(self):
        assert ring_between_right_inclusive(9, 2, 9)
        assert not ring_between_right_inclusive(2, 2, 9)

    @given(a=ids, b=ids)
    def test_distance_inverse_of_add(self, a, b):
        assert ring_add(a, ring_distance(a, b)) == b

    @given(a=ids, b=ids)
    def test_distance_antisymmetry(self, a, b):
        if a != b:
            assert ring_distance(a, b) + ring_distance(b, a) == GUID_SPACE
        else:
            assert ring_distance(a, b) == 0

    @given(x=ids, a=ids, b=ids)
    def test_between_exclusive_of_endpoints(self, x, a, b):
        if x == a or x == b:
            assert not ring_between(x, a, b)

    @given(x=ids, a=ids, b=ids)
    def test_between_matches_distance_characterization(self, x, a, b):
        # x in (a, b) iff walking clockwise from a reaches x strictly
        # before reaching b.
        if a != b and x != a and x != b:
            expected = ring_distance(a, x) < ring_distance(a, b)
            assert ring_between(x, a, b) == expected

    @given(x=ids, a=ids, b=ids)
    def test_right_inclusive_consistent(self, x, a, b):
        assert ring_between_right_inclusive(x, a, b) == \
            (x == b or ring_between(x, a, b))


@pytest.fixture
def rng():
    import numpy as np

    return np.random.default_rng(0)
