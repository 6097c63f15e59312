"""Replay buffer, sum tree and prioritized replay tests."""

import numpy as np
import pytest

from repro.rl.per import PrioritizedReplayBuffer
from repro.rl.replay import ReplayBuffer, Transition
from repro.rl.sumtree import SumTree


def make_transition(i: int) -> Transition:
    return Transition(
        state=np.array([float(i)]),
        action=np.array([0.0]),
        reward=float(i),
        next_state=np.array([float(i + 1)]),
        done=False,
    )


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(3, rng=0)
        for i in range(5):
            buf.add(make_transition(i))
        assert len(buf) == 3
        batch = buf.sample(64)
        # Oldest (0, 1) evicted.
        assert set(np.unique(batch.rewards)) <= {2.0, 3.0, 4.0}

    def test_full_flag(self):
        buf = ReplayBuffer(2, rng=0)
        assert not buf.full
        buf.extend([make_transition(0), make_transition(1)])
        assert buf.full

    def test_sample_shapes(self):
        buf = ReplayBuffer(10, rng=0)
        buf.extend([make_transition(i) for i in range(10)])
        batch = buf.sample(7)
        assert len(batch) == 7
        assert batch.states.shape == (7, 1)
        assert batch.weights.shape == (7,)
        assert np.all(batch.weights == 1.0)

    def test_empty_sample_raises(self):
        with pytest.raises(RuntimeError):
            ReplayBuffer(4, rng=0).sample(1)

    def test_clear(self):
        buf = ReplayBuffer(4, rng=0)
        buf.add(make_transition(0))
        buf.clear()
        assert len(buf) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)
        buf = ReplayBuffer(4, rng=0)
        buf.add(make_transition(0))
        with pytest.raises(ValueError):
            buf.sample(0)


class TestSumTree:
    def test_total_tracks_sets(self):
        t = SumTree(4)
        t.set(0, 1.0)
        t.set(1, 2.0)
        t.set(2, 3.0)
        assert t.total == pytest.approx(6.0)
        t.set(1, 0.5)
        assert t.total == pytest.approx(4.5)

    def test_get(self):
        t = SumTree(4)
        t.set(2, 7.0)
        assert t.get(2) == 7.0
        assert t.get(0) == 0.0

    def test_find_prefix_intervals(self):
        t = SumTree(4)
        for i, p in enumerate([1.0, 2.0, 3.0, 4.0]):
            t.set(i, p)
        out = t.find_prefix_many(np.array([0.5, 1.5, 3.5, 9.9]))
        np.testing.assert_array_equal(out, [0, 1, 2, 3])

    def test_find_prefix_skips_zero_slots(self):
        t = SumTree(8)
        t.set(5, 1.0)
        out = t.find_prefix_many(np.array([0.0, 0.5, 0.999]))
        np.testing.assert_array_equal(out, [5, 5, 5])

    def test_sampling_proportional(self):
        t = SumTree(4)
        t.set(0, 1.0)
        t.set(1, 9.0)
        rng = np.random.default_rng(0)
        counts = np.bincount(t.sample(4000, rng), minlength=4)
        assert counts[1] > counts[0] * 5
        assert counts[2] == counts[3] == 0

    def test_min_positive(self):
        t = SumTree(4)
        assert t.min_positive() == 0.0
        t.set(0, 3.0)
        t.set(1, 0.5)
        assert t.min_positive() == 0.5

    def test_empty_tree_sampling_raises(self):
        with pytest.raises(RuntimeError):
            SumTree(4).find_prefix_many(np.array([0.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            SumTree(0)
        t = SumTree(4)
        with pytest.raises(IndexError):
            t.set(4, 1.0)
        with pytest.raises(ValueError):
            t.set(0, -1.0)
        with pytest.raises(ValueError):
            t.set(0, float("nan"))
        with pytest.raises(ValueError):
            t.sample(0, np.random.default_rng(0))


class TestPrioritizedReplay:
    def test_add_and_sample(self):
        buf = PrioritizedReplayBuffer(16, rng=0)
        for i in range(10):
            buf.add(make_transition(i))
        batch = buf.sample(5)
        assert len(batch) == 5
        assert np.all(batch.weights > 0)
        assert batch.weights.max() == pytest.approx(1.0)

    def test_high_priority_sampled_more(self):
        buf = PrioritizedReplayBuffer(8, alpha=1.0, rng=0)
        buf.add(make_transition(0), priority=0.01)
        buf.add(make_transition(1), priority=10.0)
        counts = {0.0: 0, 1.0: 0}
        for _ in range(300):
            batch = buf.sample(4)
            for r in batch.rewards:
                counts[float(r)] += 1
        assert counts[1.0] > counts[0.0] * 5

    def test_update_priorities_changes_distribution(self):
        buf = PrioritizedReplayBuffer(8, alpha=1.0, rng=0)
        for i in range(4):
            buf.add(make_transition(i), priority=1.0)
        buf.update_priorities(np.array([0, 1, 2, 3]), np.array([0.001, 0.001, 0.001, 50.0]))
        rewards = []
        for _ in range(100):
            rewards.extend(buf.sample(4).rewards.tolist())
        assert np.mean(np.asarray(rewards) == 3.0) > 0.8

    def test_is_weights_compensate(self):
        # With beta -> 1, E[w * indicator] should de-bias the skew:
        # a uniformly-rewarding buffer's weighted mean approximates the
        # uniform mean.
        buf = PrioritizedReplayBuffer(4, alpha=1.0, beta0=1.0, rng=0)
        buf.add(make_transition(0), priority=1.0)
        buf.add(make_transition(1), priority=3.0)
        batch = buf.sample(512)
        # weights ~ 1/(N p); sum over samples of w*f(i) / sum w approx uniform mean
        est = np.sum(batch.weights * batch.rewards) / np.sum(batch.weights)
        assert est == pytest.approx(0.5, abs=0.15)

    def test_beta_anneals(self):
        buf = PrioritizedReplayBuffer(8, beta0=0.4, beta_steps=10, rng=0)
        buf.add(make_transition(0))
        b0 = buf.beta
        buf.sample(10)
        assert buf.beta > b0
        buf.sample(10)
        assert buf.beta == pytest.approx(1.0)

    def test_max_priority_default_for_new(self):
        buf = PrioritizedReplayBuffer(8, rng=0)
        buf.add(make_transition(0), priority=5.0)
        slot = buf.add(make_transition(1))  # default = running max
        assert buf._tree.get(slot) == pytest.approx(5.0 ** buf.alpha)

    def test_capacity_wraps(self):
        buf = PrioritizedReplayBuffer(4, rng=0)
        for i in range(10):
            buf.add(make_transition(i))
        assert len(buf) == 4

    def test_evict_oldest(self):
        buf = PrioritizedReplayBuffer(8, rng=0)
        for i in range(8):
            buf.add(make_transition(i))
        evicted = buf.evict_oldest(3)
        assert evicted == 3
        assert len(buf) == 5
        rewards = set()
        for _ in range(50):
            rewards.update(buf.sample(4).rewards.tolist())
        assert rewards <= {3.0, 4.0, 5.0, 6.0, 7.0}

    def test_evict_then_add_reuses_slots(self):
        buf = PrioritizedReplayBuffer(4, rng=0)
        for i in range(4):
            buf.add(make_transition(i))
        buf.evict_oldest(2)
        buf.add(make_transition(10))
        assert len(buf) == 3
        batch = buf.sample(8)
        assert np.all(np.isfinite(batch.rewards))

    def test_extend_with_priorities(self):
        buf = PrioritizedReplayBuffer(8, rng=0)
        slots = buf.extend([make_transition(0), make_transition(1)], [1.0, 2.0])
        assert len(slots) == 2
        with pytest.raises(ValueError):
            buf.extend([make_transition(0)], [1.0, 2.0])

    def test_empty_sample_raises(self):
        with pytest.raises(RuntimeError):
            PrioritizedReplayBuffer(4, rng=0).sample(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            PrioritizedReplayBuffer(0)
        with pytest.raises(ValueError):
            PrioritizedReplayBuffer(4, alpha=1.5)
        with pytest.raises(ValueError):
            PrioritizedReplayBuffer(4, beta0=0.0)
        buf = PrioritizedReplayBuffer(4, rng=0)
        buf.add(make_transition(0))
        with pytest.raises(ValueError):
            buf.update_priorities(np.array([0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            buf.evict_oldest(-1)
