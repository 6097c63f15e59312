"""Property-based tests (hypothesis) on the RL data structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.per import PrioritizedReplayBuffer
from repro.rl.replay import ReplayBuffer, Transition
from repro.rl.sumtree import SumTree

priorities = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=64,
)


def make_transition(i: int) -> Transition:
    return Transition(
        state=np.array([float(i)]),
        action=np.array([0.0]),
        reward=float(i),
        next_state=np.array([float(i + 1)]),
    )


class TestSumTreeProperties:
    @given(priorities)
    def test_total_equals_sum_of_leaves(self, ps):
        tree = SumTree(len(ps))
        for i, p in enumerate(ps):
            tree.set(i, p)
        assert np.isclose(tree.total, sum(ps), rtol=1e-9, atol=1e-9)

    @given(priorities)
    def test_overwrites_keep_total_consistent(self, ps):
        tree = SumTree(max(4, len(ps)))
        # Write everything twice; the second write must fully replace.
        for i, p in enumerate(ps):
            tree.set(i % 4, p)
        expected = {}
        for i, p in enumerate(ps):
            expected[i % 4] = p
        assert np.isclose(tree.total, sum(expected.values()), rtol=1e-9, atol=1e-9)

    @given(priorities, st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_find_prefix_returns_positive_slot(self, ps, frac):
        if sum(ps) <= 0:
            return
        tree = SumTree(len(ps))
        for i, p in enumerate(ps):
            tree.set(i, p)
        (slot,) = tree.find_prefix_many(np.array([frac * tree.total]))
        assert 0 <= slot < len(ps)
        assert ps[slot] > 0  # a zero-priority slot is never selected

    @given(priorities)
    def test_sample_respects_support(self, ps):
        if sum(ps) <= 0:
            return
        tree = SumTree(len(ps))
        for i, p in enumerate(ps):
            tree.set(i, p)
        rng = np.random.default_rng(0)
        for slot in tree.sample(32, rng):
            assert ps[slot] > 0


class TestReplayProperties:
    @given(st.integers(min_value=1, max_value=32), st.integers(min_value=1, max_value=64))
    def test_length_never_exceeds_capacity(self, capacity, n_items):
        buf = ReplayBuffer(capacity, rng=0)
        for i in range(n_items):
            buf.add(make_transition(i))
        assert len(buf) == min(capacity, n_items)

    @given(st.integers(min_value=2, max_value=32), st.integers(min_value=3, max_value=64))
    def test_samples_come_from_most_recent_window(self, capacity, n_items):
        buf = ReplayBuffer(capacity, rng=0)
        for i in range(n_items):
            buf.add(make_transition(i))
        batch = buf.sample(64)
        oldest_kept = max(0, n_items - capacity)
        assert batch.rewards.min() >= oldest_kept


class TestPerProperties:
    @settings(deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=100.0, allow_nan=False),
            min_size=2,
            max_size=32,
        )
    )
    def test_weights_bounded_and_max_normalized(self, ps):
        buf = PrioritizedReplayBuffer(len(ps), rng=0)
        for i, p in enumerate(ps):
            buf.add(make_transition(i), priority=p)
        batch = buf.sample(16)
        assert np.all(batch.weights > 0)
        assert np.all(batch.weights <= 1.0 + 1e-12)
        assert np.isclose(batch.weights.max(), 1.0)

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=16))
    def test_eviction_never_underflows(self, n_items, n_evict):
        buf = PrioritizedReplayBuffer(32, rng=0)
        for i in range(n_items):
            buf.add(make_transition(i))
        evicted = buf.evict_oldest(n_evict)
        assert evicted == min(n_items, n_evict)
        assert len(buf) == n_items - evicted

    @settings(deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=100.0, allow_nan=False),
            min_size=2,
            max_size=16,
        )
    )
    def test_sampling_after_updates_stays_valid(self, tds):
        buf = PrioritizedReplayBuffer(len(tds), rng=0)
        for i in range(len(tds)):
            buf.add(make_transition(i))
        buf.update_priorities(np.arange(len(tds)), np.asarray(tds))
        batch = buf.sample(8)
        assert np.all(batch.indices >= 0)
        assert np.all(batch.indices < len(tds))
