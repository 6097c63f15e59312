"""Property tests for the batched sum-tree and struct-of-arrays replay.

``set_many`` / ``find_prefix_many`` must agree with loop-based ``set`` and
the scalar descent (``ReferenceSumTree.find_prefix``) on arbitrary update
sequences (duplicates and wrap-around
included), and the struct-of-arrays buffers must behave exactly like
their element-at-a-time counterparts.
"""

import numpy as np
import pytest

from repro.rl.per import PrioritizedReplayBuffer
from repro.rl.replay import ReplayBuffer, Transition
from repro.rl.sumtree import SumTree


def make_transition(i: int) -> Transition:
    return Transition(
        state=np.array([float(i), float(i) * 0.5]),
        action=np.array([float(-i)]),
        reward=float(i),
        next_state=np.array([float(i + 1), float(i) * 0.5]),
        done=(i % 3 == 0),
    )


class TestSetMany:
    @pytest.mark.parametrize("capacity", [1, 2, 7, 16, 50, 1000])
    def test_matches_sequential_set(self, capacity):
        rng = np.random.default_rng(capacity)
        seq, bat = SumTree(capacity), SumTree(capacity)
        for _ in range(8):
            n = int(rng.integers(1, min(capacity, 48) + 1))
            slots = rng.integers(0, capacity, size=n)  # duplicates welcome
            prios = rng.uniform(0.0, 10.0, size=n)
            for s, p in zip(slots, prios):
                seq.set(int(s), float(p))
            bat.set_many(slots, prios)
            # Leaves are assignments -> exactly equal; internal sums may
            # differ only by accumulation order (last-ulp).
            np.testing.assert_array_equal(
                seq._nodes[capacity - 1 :], bat._nodes[capacity - 1 :]
            )
            np.testing.assert_allclose(seq._nodes, bat._nodes, rtol=1e-12, atol=0)

    def test_duplicate_slots_last_wins(self):
        t = SumTree(8)
        t.set_many(np.array([3, 3, 3]), np.array([1.0, 5.0, 2.0]))
        assert t.get(3) == 2.0
        assert t.total == pytest.approx(2.0)

    def test_empty_update_is_noop(self):
        t = SumTree(4)
        t.set(1, 2.0)
        t.set_many(np.array([], dtype=np.int64), np.array([]))
        assert t.total == 2.0

    def test_validation(self):
        t = SumTree(4)
        with pytest.raises(ValueError):
            t.set_many(np.array([0]), np.array([1.0, 2.0]))
        with pytest.raises(IndexError):
            t.set_many(np.array([4]), np.array([1.0]))
        with pytest.raises(ValueError):
            t.set_many(np.array([0]), np.array([-1.0]))
        with pytest.raises(ValueError):
            t.set_many(np.array([0]), np.array([np.nan]))


class TestFindPrefixMany:
    @pytest.mark.parametrize("capacity", [1, 2, 7, 16, 50, 1000])
    def test_matches_scalar_descent(self, capacity, perf_reference):
        rng = np.random.default_rng(capacity + 100)
        t = SumTree(capacity)
        slots = rng.choice(capacity, size=max(1, capacity // 2), replace=False)
        t.set_many(slots, rng.uniform(0.1, 5.0, size=slots.size))
        masses = rng.uniform(0.0, t.total, size=256)
        # The scalar descent, one walk per mass, over the same node sums.
        ref = perf_reference.ReferenceSumTree(capacity)
        ref._nodes[:] = t._nodes
        expected = np.array([ref.find_prefix(float(m)) for m in masses])
        np.testing.assert_array_equal(t.find_prefix_many(masses), expected)

    def test_boundary_masses(self):
        t = SumTree(4)
        for i, p in enumerate([1.0, 2.0, 3.0, 4.0]):
            t.set(i, p)
        out = t.find_prefix_many(np.array([0.0, 1.0 - 1e-12, 1.0, 6.0, 99.0]))
        np.testing.assert_array_equal(out, [0, 0, 1, 3, 3])

    def test_empty_tree_raises(self):
        with pytest.raises(RuntimeError):
            SumTree(4).find_prefix_many(np.array([0.0]))

    def test_get_many(self):
        t = SumTree(8)
        t.set(2, 5.0)
        t.set(7, 1.0)
        np.testing.assert_array_equal(
            t.get_many(np.array([2, 7, 0])), [5.0, 1.0, 0.0]
        )
        with pytest.raises(IndexError):
            t.get_many(np.array([8]))


class TestReplayExtendEquivalence:
    def test_uniform_extend_matches_sequential_adds(self):
        a = ReplayBuffer(16, rng=0)
        b = ReplayBuffer(16, rng=0)
        ts = [make_transition(i) for i in range(10)]
        for t in ts:
            a.add(t)
        b.extend(ts)
        assert len(a) == len(b)
        sa, sb = a.sample(32), b.sample(32)
        np.testing.assert_array_equal(sa.states, sb.states)
        np.testing.assert_array_equal(sa.rewards, sb.rewards)
        np.testing.assert_array_equal(sa.dones, sb.dones)

    def test_uniform_extend_wraps(self):
        buf = ReplayBuffer(4, rng=0)
        buf.extend([make_transition(i) for i in range(11)])
        assert len(buf) == 4
        assert buf.full
        batch = buf.sample(64)
        assert set(np.unique(batch.rewards)) <= {7.0, 8.0, 9.0, 10.0}

    def test_per_extend_matches_sequential_adds(self):
        a = PrioritizedReplayBuffer(32, rng=1)
        b = PrioritizedReplayBuffer(32, rng=1)
        ts = [make_transition(i) for i in range(20)]
        ps = [float(i % 5 + 1) for i in range(20)]
        slots_a = [a.add(t, p) for t, p in zip(ts, ps)]
        slots_b = b.extend(ts, ps)
        assert slots_a == slots_b
        np.testing.assert_array_equal(
            a._tree._nodes[31:], b._tree._nodes[31:]
        )
        assert a._max_priority == b._max_priority
        sa, sb = a.sample(16), b.sample(16)
        np.testing.assert_array_equal(sa.indices, sb.indices)
        np.testing.assert_array_equal(sa.states, sb.states)
        np.testing.assert_allclose(sa.weights, sb.weights, rtol=1e-12)

    def test_per_extend_default_priorities_use_running_max(self):
        buf = PrioritizedReplayBuffer(8, rng=0)
        buf.add(make_transition(0), priority=4.0)
        slots = buf.extend([make_transition(1), make_transition(2)])
        for s in slots:
            assert buf._tree.get(s) == pytest.approx(4.0**buf.alpha)

    def test_per_extend_wrap_overwrites_fifo(self):
        buf = PrioritizedReplayBuffer(4, rng=0)
        buf.extend([make_transition(i) for i in range(6)], [1.0] * 6)
        assert len(buf) == 4
        rewards = set()
        for _ in range(40):
            rewards.update(buf.sample(4).rewards.tolist())
        assert rewards <= {2.0, 3.0, 4.0, 5.0}

    def test_per_extend_larger_than_capacity(self):
        buf = PrioritizedReplayBuffer(4, rng=0)
        slots = buf.extend([make_transition(i) for i in range(9)], [1.0] * 9)
        assert len(slots) == 9
        assert len(buf) == 4
        rewards = set()
        for _ in range(40):
            rewards.update(buf.sample(4).rewards.tolist())
        assert rewards <= {5.0, 6.0, 7.0, 8.0}

    def test_update_priorities_matches_loop_sets(self):
        a = PrioritizedReplayBuffer(64, alpha=0.7, rng=2)
        b = PrioritizedReplayBuffer(64, alpha=0.7, rng=2)
        for i in range(30):
            a.add(make_transition(i), 1.0)
            b.add(make_transition(i), 1.0)
        idx = np.array([0, 5, 5, 12, 29])
        errs = np.array([0.2, -3.0, 7.0, 0.0, 1.5])
        # Loop reference on buffer a (np.float64 power, the same
        # elementwise op the batched path applies).
        for s, e in zip(idx, errs):
            raw = np.float64(max(abs(float(e)), a.eps))
            a._max_priority = max(a._max_priority, float(raw))
            a._tree.set(int(s), float(raw**a.alpha))
        b.update_priorities(idx, errs)
        # Scalar and ufunc pow may differ in the last ulp; nothing more.
        np.testing.assert_allclose(
            a._tree._nodes[63:], b._tree._nodes[63:], rtol=5e-16, atol=0
        )
        assert a._max_priority == b._max_priority


class TestSoAStorage:
    def test_states_are_copies_not_views(self):
        buf = ReplayBuffer(8, rng=0)
        buf.add(make_transition(1))
        batch = buf.sample(1)
        batch.states[0, 0] = 999.0
        assert buf.sample(1).states[0, 0] != 999.0 or True  # buffer unchanged
        # Direct check against the ring storage:
        assert buf._store.states[0, 0] == 1.0

    def test_dtype_follows_first_transition(self):
        buf = ReplayBuffer(4, rng=0)
        t = Transition(
            state=np.array([1.0], dtype=np.float32),
            action=np.array([0.0], dtype=np.float32),
            reward=1.0,
            next_state=np.array([2.0], dtype=np.float32),
        )
        buf.add(t)
        assert buf.sample(1).states.dtype == np.float32
