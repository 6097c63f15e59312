"""Sum-tree (Fenwick-style complete binary tree) for prioritized replay.

Prioritized experience replay samples transition *i* with probability
``p_i^alpha / sum_k p_k^alpha``.  The sum tree stores the priorities in
the leaves and partial sums in internal nodes so that both priority
updates and proportional sampling are O(log n).

The tree is laid out in a flat array of size ``2 * capacity - 1`` with
the root at index 0 and the ``capacity`` leaves at the end — the classic
arrangement from the PER reference implementation.

Batched operations are first-class: :meth:`SumTree.set_many` propagates a
whole batch of priority updates level-by-level with ``np.add.at`` and
:meth:`SumTree.find_prefix_many` descends the tree for every query mass
simultaneously, so :meth:`sample` and the replay buffer's bulk paths
never touch leaves one Python iteration at a time.
"""

from __future__ import annotations

import numpy as np

#: Cached float ramps 0..n for the stratified-sampling bounds; building
#: the bounds is then one multiply instead of a full np.linspace call.
_RAMP_CACHE: dict[int, np.ndarray] = {}


def _strata_bounds(total: float, n: int) -> np.ndarray:
    """Equivalent of ``np.linspace(0.0, total, n + 1)`` (bit-identical)."""
    ramp = _RAMP_CACHE.get(n)
    if ramp is None:
        ramp = np.arange(n + 1, dtype=np.float64)
        ramp.flags.writeable = False
        _RAMP_CACHE[n] = ramp
    bounds = ramp * (total / n)
    bounds[n] = total
    return bounds


class SumTree:
    """Flat-array sum tree over ``capacity`` priority slots."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._nodes = np.zeros(2 * self.capacity - 1, dtype=np.float64)
        # Row i of this view is (left child, right child) of node i — one
        # fancy-indexed read fetches both children of a whole frontier.
        self._children = (
            self._nodes[1:].reshape(-1, 2) if self.capacity > 1 else None
        )

    @property
    def total(self) -> float:
        """Sum of all priorities (the root node)."""
        return float(self._nodes[0])

    def _leaf_index(self, slot: int) -> int:
        if not 0 <= slot < self.capacity:
            raise IndexError(f"slot {slot} out of range [0, {self.capacity})")
        return slot + self.capacity - 1

    def get(self, slot: int) -> float:
        """Priority currently stored in ``slot``."""
        return float(self._nodes[self._leaf_index(slot)])

    def get_many(self, slots: np.ndarray) -> np.ndarray:
        """Priorities of a batch of slots (one fancy-indexed read)."""
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size and (slots.min() < 0 or slots.max() >= self.capacity):
            raise IndexError(f"slots out of range [0, {self.capacity})")
        return self._nodes[slots + (self.capacity - 1)]

    def set(self, slot: int, priority: float) -> None:
        """Set a slot's priority and propagate the delta to the root."""
        if priority < 0 or not np.isfinite(priority):
            raise ValueError(f"priority must be finite and >= 0, got {priority}")
        idx = self._leaf_index(slot)
        delta = priority - self._nodes[idx]
        self._nodes[idx] = priority
        while idx > 0:
            idx = (idx - 1) // 2
            self._nodes[idx] += delta

    def set_many(self, slots: np.ndarray, priorities: np.ndarray) -> None:
        """Set a batch of slots and propagate all deltas level-by-level.

        Equivalent to calling :meth:`set` once per (slot, priority) pair
        in order — repeated slots apply their updates sequentially, the
        last one winning the leaf — but each tree level is touched with
        one ``np.add.at`` instead of a Python walk per slot.  ``add.at``
        accumulates repeated indices in array order, so shared ancestors
        receive their deltas in the same order the scalar loop would
        apply them (leaves of unequal depth may interleave differently,
        which only perturbs internal sums at the last-ulp level).
        """
        slots = np.asarray(slots, dtype=np.int64).ravel()
        prios = np.asarray(priorities, dtype=np.float64).ravel()
        if slots.shape != prios.shape:
            raise ValueError("slots and priorities must align")
        if slots.size == 0:
            return
        if slots.min() < 0 or slots.max() >= self.capacity:
            raise IndexError(f"slots out of range [0, {self.capacity})")
        if np.any(prios < 0) or not np.all(np.isfinite(prios)):
            raise ValueError("priorities must be finite and >= 0")
        idx = slots + (self.capacity - 1)
        old = self._nodes[idx]
        order = np.argsort(slots, kind="stable")
        sorted_slots = slots[order]
        dup = sorted_slots[1:] == sorted_slots[:-1]
        if dup.any():
            # A repeated slot's later delta is measured against the value
            # the previous occurrence just wrote, as sequential sets do.
            prev = old[order].copy()
            prev[1:][dup] = prios[order][:-1][dup]
            deltas = np.empty_like(prios)
            deltas[order] = prios[order] - prev
            # Last occurrence wins the leaf value.
            self._nodes[idx[order]] = prios[order]
        else:
            deltas = prios - old
            self._nodes[idx] = prios
        # A node at index i sits at depth floor(log2(i+1)) and reaches the
        # root after exactly that many parent steps, so the first
        # ``min_depth - 1`` propagation steps need no liveness checks.
        min_depth = int(idx.min() + 1).bit_length() - 1
        for _ in range(max(0, min_depth - 1)):
            idx = (idx - 1) >> 1
            np.add.at(self._nodes, idx, deltas)
        while idx.size:
            if idx.min() == 0:
                live = idx > 0
                idx = idx[live]
                deltas = deltas[live]
                if not idx.size:
                    return
            idx = (idx - 1) >> 1
            np.add.at(self._nodes, idx, deltas)

    def find_prefix_many(self, masses: np.ndarray) -> np.ndarray:
        """The slot whose cumulative priority interval contains each mass.

        Masses are clipped into ``[0, total)``.  Every query descends from
        the root, taking the left child when its mass falls inside the
        left subtree's sum (or the right subtree is empty) and otherwise
        subtracting that sum and going right.  All queries descend in
        lockstep; each level costs two fancy-indexed reads instead of a
        Python loop per query.  The scalar descent is kept as the
        reference in ``benchmarks/perf/reference.py``
        (``ReferenceSumTree.find_prefix``).
        """
        if self.total <= 0:
            raise RuntimeError("cannot sample from an empty/zero tree")
        mass = np.clip(
            np.asarray(masses, dtype=np.float64),
            0.0,
            np.nextafter(self.total, 0.0),
        )
        first_leaf = self.capacity - 1
        # Shared prefix: wherever a node has all its mass in one child,
        # every query takes that child — left subtracts nothing, and an
        # empty left means the subtraction is exactly zero — so that part
        # of the path is walked once, not per query.  With a mostly empty
        # buffer (a contiguous block of filled slots) this skips most of
        # the tree's depth.
        nodes = self._nodes
        start = 0
        while start < first_leaf:
            left = nodes[2 * start + 1]
            if nodes[2 * start + 2] == 0.0:
                start = 2 * start + 1
            elif left == 0.0:
                start = 2 * start + 2
            else:
                break
        idx = np.full(mass.shape, start, dtype=np.int64)
        # While the whole frontier is internal (every level but the last
        # one or two of a complete tree), descend without masking; the
        # right-child decision is boolean arithmetic, not np.where.
        level_hi = start  # largest index reachable at the current level
        while 2 * level_hi + 2 < first_leaf:
            ch = self._children[idx]
            left_val = ch[..., 0]
            go_right = mass >= left_val
            go_right &= ch[..., 1] != 0.0
            idx *= 2
            idx += 1
            idx += go_right
            mass -= left_val * go_right
            level_hi = 2 * level_hi + 2
        while True:
            internal = idx < first_leaf
            if not internal.any():
                break
            left = 2 * idx + 1
            left_val = self._nodes[np.where(internal, left, 0)]
            right_val = self._nodes[np.where(internal, left + 1, 0)]
            go_left = (mass < left_val) | (right_val == 0.0)
            idx = np.where(internal, np.where(go_left, left, left + 1), idx)
            mass = np.where(internal & ~go_left, mass - left_val, mass)
        return idx - first_leaf

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Stratified proportional sampling of ``n`` slots.

        The total mass is split into ``n`` equal strata with one uniform
        draw each — the standard PER variance-reduction trick.  The
        strata are drawn in a single vectorized call (consuming the same
        stream as per-stratum draws) and resolved with
        :meth:`find_prefix_many`.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        bounds = _strata_bounds(self.total, n)
        masses = rng.uniform(bounds[:-1], bounds[1:])
        return self.find_prefix_many(masses)

    def min_positive(self) -> float:
        """Smallest non-zero leaf priority (for max importance weight)."""
        leaves = self._nodes[self.capacity - 1 :]
        positive = leaves[leaves > 0]
        if positive.size == 0:
            return 0.0
        return float(positive.min())
