"""LatencyWindow: bounded ring buffer, nearest-rank percentiles."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import LatencyWindow
from repro.util.errors import ConfigError


class TestObserve:
    def test_empty_window_has_no_percentiles(self):
        window = LatencyWindow()
        assert window.percentile(50) is None
        assert window.count == 0

    def test_single_observation_is_every_percentile(self):
        window = LatencyWindow()
        window.observe(0.5)
        assert window.percentile(0) == 0.5
        assert window.percentile(50) == 0.5
        assert window.percentile(100) == 0.5

    def test_nearest_rank_on_known_data(self):
        window = LatencyWindow()
        for value in range(1, 101):  # 1..100
            window.observe(value)
        assert window.percentile(50) == 50
        assert window.percentile(99) == 99
        assert window.percentile(100) == 100
        assert window.percentile(1) == 1

    def test_count_tracks_all_observations(self):
        window = LatencyWindow(maxlen=4)
        for value in range(10):
            window.observe(value)
        assert window.count == 10

    def test_ring_retains_only_the_newest(self):
        window = LatencyWindow(maxlen=4)
        for value in (100.0, 100.0, 100.0, 100.0):
            window.observe(value)
        for value in (1.0, 2.0, 3.0, 4.0):  # evict all the 100s
            window.observe(value)
        assert window.percentile(100) == 4.0
        assert window.percentile(0) == 1.0

    def test_partial_eviction_mixes_old_and_new(self):
        window = LatencyWindow(maxlen=4)
        for value in (10.0, 20.0, 30.0, 40.0, 50.0):
            window.observe(value)
        # 10.0 was evicted; the window holds {20, 30, 40, 50}.
        assert window.percentile(0) == 20.0
        assert window.percentile(100) == 50.0


class TestValidation:
    def test_maxlen_must_be_positive(self):
        with pytest.raises(ConfigError):
            LatencyWindow(maxlen=0)

    def test_percentile_range_checked(self):
        window = LatencyWindow()
        window.observe(1.0)
        with pytest.raises(ConfigError):
            window.percentile(-1)
        with pytest.raises(ConfigError):
            window.percentile(101)


def oracle(values, maxlen, q):
    """Nearest-rank percentile by sorting the newest ``maxlen`` values."""
    ordered = sorted(values[-maxlen:])
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@settings(max_examples=200, deadline=None)
@given(
    maxlen=st.integers(min_value=1, max_value=8),
    # Few distinct values so duplicates are evicted and re-added.
    values=st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, 2.5]),
                  st.floats(min_value=0, max_value=1e3)),
        min_size=1, max_size=40,
    ),
    qs=st.lists(st.floats(min_value=0, max_value=100), max_size=4),
)
def test_percentile_matches_sorted_oracle(maxlen, values, qs):
    window = LatencyWindow(maxlen=maxlen)
    for i, value in enumerate(values, start=1):
        window.observe(value)
        # Checked after every observation, so wrap-around is covered
        # from the first eviction on.
        for q in (0, 50, 99, 100, *qs):
            assert window.percentile(q) == oracle(values[:i], maxlen, q)
    assert window.count == len(values)
