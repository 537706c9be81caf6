"""Fenwick (binary indexed) tree for dynamic weighted index sampling.

The event engine proposes collision partners with probability proportional
to particle speed; speeds change at every accepted collision, so the
structure must support O(log N) weight updates and O(log N) sampling by
prefix-sum descent.
"""

from __future__ import annotations

import numpy as np

BAD_WEIGHT = "weights must be finite and nonnegative"
ZERO_TOTAL = "cannot sample from an all-zero weight vector"


class FenwickSampler:
    """Nonnegative weights w_0..w_{n-1} with prefix-sum sampling."""

    __slots__ = ("n", "tree", "weights")

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if (w < 0.0).any() or not np.isfinite(w).all():
            raise ValueError(BAD_WEIGHT)
        self.n = len(w)
        self.weights = w.copy()
        # tree[j] holds the sum of w over the block ending at index j (1-based).
        # A node j with L trailing zero bits (level L) adds its children
        # j - 2^m, m = L-1 down to 0, which have lower levels: built level
        # by level, every node gets the additions of a one-node-at-a-time
        # build in the same order, so the tree is the same to the bit.
        tree = np.zeros(self.n + 1)
        tree[1:] = w
        level = 1
        while (1 << level) <= self.n:
            # nodes of this level: the strided view tree[2^L::2^(L+1)]
            first, step = 1 << level, 2 << level
            nodes = tree[first::step]
            for m in range(level - 1, -1, -1):
                nodes += tree[first - (1 << m) : self.n + 1 - (1 << m) : step]
            level += 1
        self.tree = tree

    @property
    def total(self) -> float:
        i = self.n
        s = 0.0
        while i > 0:
            s += self.tree[i]
            i -= i & -i
        return float(s)

    def get(self, i: int) -> float:
        return self.weights[i]

    def update(self, i: int, w: float) -> None:
        if w < 0.0 or not np.isfinite(w):
            raise ValueError(BAD_WEIGHT)
        delta = w - self.weights[i]
        self.weights[i] = w
        j = i + 1
        tree = self.tree
        n = self.n
        while j <= n:
            tree[j] += delta
            j += j & -j

    def sample(self, u: float) -> int:
        """Index i with probability w_i / total; u is uniform on [0, 1)."""
        target = u * self.total
        if self.total <= 0.0:
            raise ValueError(ZERO_TOTAL)
        idx = 0
        bitmask = 1 << (self.n.bit_length())
        tree = self.tree
        n = self.n
        while bitmask:
            nxt = idx + bitmask
            if nxt <= n and tree[nxt] <= target:
                idx = nxt
                target -= tree[nxt]
            bitmask >>= 1
        # idx is the count of full prefix blocks passed; clamp for the
        # float edge case target == total
        return min(idx, n - 1)
