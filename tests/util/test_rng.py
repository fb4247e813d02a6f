"""RngStreams determinism and stream isolation."""

import numpy as np
import pytest

from repro.util.rng import KeyedUniform, RngStreams


class TestRngStreams:
    def test_same_seed_same_draws(self):
        a = RngStreams(42).stream("jobs").uniform(size=10)
        b = RngStreams(42).stream("jobs").uniform(size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("jobs").uniform(size=10)
        b = RngStreams(2).stream("jobs").uniform(size=10)
        assert not np.array_equal(a, b)

    def test_named_streams_are_independent(self):
        # Drawing from one stream must not perturb another.
        s1 = RngStreams(7)
        s2 = RngStreams(7)
        s1.stream("a").uniform(size=1000)  # extra draws on 'a' only
        np.testing.assert_array_equal(
            s1.stream("b").uniform(size=10),
            s2.stream("b").uniform(size=10),
        )

    def test_stream_order_does_not_matter(self):
        s1 = RngStreams(7)
        s2 = RngStreams(7)
        a1 = s1.stream("a").uniform()
        b1 = s1.stream("b").uniform()
        b2 = s2.stream("b").uniform()
        a2 = s2.stream("a").uniform()
        assert a1 == a2 and b1 == b2

    def test_stream_is_cached_and_stateful(self):
        s = RngStreams(3)
        first = s.stream("x").uniform()
        second = s.stream("x").uniform()
        assert first != second  # same generator advanced, not reset

    def test_getitem_alias(self):
        s = RngStreams(3)
        assert s["x"] is s.stream("x")

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            RngStreams(-1)
        with pytest.raises(ValueError):
            RngStreams("abc")  # type: ignore[arg-type]


class TestKeyedUniform:
    """Per-task jitter streams: draw k is a function of (seed, name, key, k)
    alone, so one protocol timer's idleness cannot shift another's phase."""

    NODE = 0xDEADBEEFCAFEF00D

    def _draws(self, n, seed=7, name="protocol", key=(NODE, "heartbeat"),
               low=0.0, high=1.0):
        ku = KeyedUniform(seed, name, *key)
        return [ku.uniform(low, high) for _ in range(n)]

    def test_range_and_bounds_scaling(self):
        assert all(0.0 <= u < 1.0 for u in self._draws(10_000))
        assert all(4.5 <= v < 5.5 for v in self._draws(1000, low=4.5, high=5.5))
        assert self._draws(50, low=4.5, high=5.5) == [
            4.5 + (5.5 - 4.5) * u for u in self._draws(50)]

    def test_reproducible_from_seed_name_key(self):
        assert self._draws(100) == self._draws(100)
        via_family = RngStreams(7).keyed("protocol", self.NODE, "heartbeat")
        assert self._draws(100) == [via_family.uniform() for _ in range(100)]
        for other in (dict(seed=8), dict(name="churn"),
                      dict(key=(self.NODE + 1, "heartbeat")),
                      dict(key=(self.NODE, "monitor"))):
            assert self._draws(100, **other) != self._draws(100)

    def test_draw_k_independent_of_other_keys(self):
        streams = RngStreams(3)
        a = streams.keyed("protocol", 1, "heartbeat")
        b = streams.keyed("protocol", 2, "heartbeat")
        interleaved = []
        for i in range(200):
            interleaved.append(a.uniform())
            for _ in range(i % 5):  # b draws at an unrelated, varying rate
                b.uniform()
        alone = RngStreams(3).keyed("protocol", 1, "heartbeat")
        assert interleaved == [alone.uniform() for _ in range(200)]

    def test_moments_and_serial_correlation(self):
        u = np.array(self._draws(100_000))
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1 / 12) < 0.002
        assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 0.01
        counts, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
        assert counts.min() > 4600 and counts.max() < 5400

    def test_roles_on_one_node_and_adjacent_nodes_decorrelated(self):
        hb = np.array(self._draws(20_000))
        mon = np.array(self._draws(20_000, key=(self.NODE, "monitor")))
        nxt = np.array(self._draws(20_000, key=(self.NODE + 1, "heartbeat")))
        assert abs(np.corrcoef(hb, mon)[0, 1]) < 0.03
        assert abs(np.corrcoef(hb, nxt)[0, 1]) < 0.03

    def test_first_draws_spread_across_nodes(self):
        """The stagger draw (draw 0) over a node population is itself
        uniform — consecutive GUIDs must not start in phase."""
        firsts = np.array([KeyedUniform(1, "protocol", g, "heartbeat").uniform()
                           for g in range(5000)])
        assert abs(firsts.mean() - 0.5) < 0.02
        counts, _ = np.histogram(firsts, bins=10, range=(0.0, 1.0))
        assert counts.min() > 400
