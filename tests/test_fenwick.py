import numpy as np
import pytest

from kaclab.fenwick import FenwickSampler


def test_total_and_updates_match_numpy():
    rng = np.random.default_rng(0)
    w = rng.random(257)
    fen = FenwickSampler(w)
    assert fen.total == pytest.approx(w.sum(), rel=1e-12)
    for _ in range(500):
        i = rng.integers(0, len(w))
        w[i] = rng.random() * 3
        fen.update(i, w[i])
    assert fen.total == pytest.approx(w.sum(), rel=1e-12)
    assert np.array_equal(fen.weights, w)


def test_sampling_frequencies():
    w = np.array([1.0, 0.0, 3.0, 2.0, 0.5])
    fen = FenwickSampler(w)
    rng = np.random.default_rng(1)
    n = 60_000
    counts = np.bincount([fen.sample(u) for u in rng.random(n)], minlength=5)
    p = w / w.sum()
    assert counts[1] == 0  # zero weight is never drawn
    se = np.sqrt(p * (1 - p) / n)
    ok = np.abs(counts / n - p) <= 4 * np.maximum(se, 1e-12)
    assert ok.all(), (counts / n, p)


def test_prefix_descent_edges():
    fen = FenwickSampler([2.0, 1.0])
    assert fen.sample(0.0) == 0
    assert fen.sample(0.99999999) == 1
    single = FenwickSampler([5.0])
    assert single.sample(0.7) == 0


def test_invalid_weights_rejected():
    with pytest.raises(ValueError):
        FenwickSampler([1.0, -0.5])
    fen = FenwickSampler([1.0, 1.0])
    with pytest.raises(ValueError):
        fen.update(0, np.inf)
    empty = FenwickSampler([0.0, 0.0])
    with pytest.raises(ValueError):
        empty.sample(0.5)


def _loop_build(w):
    """The one-node-at-a-time Fenwick build the sampler used to run."""
    tree = np.zeros(len(w) + 1)
    tree[1:] = w
    for i in range(1, len(w) + 1):
        j = i + (i & -i)
        if j <= len(w):
            tree[j] += tree[i]
    return tree


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 1000, 10000, 12345])
def test_level_build_matches_loop_bit_for_bit(n):
    # weights spread over many magnitudes, so any change in the order of
    # the additions shows in the last bits
    rng = np.random.default_rng(n)
    w = rng.random(n) * np.exp(rng.uniform(-30.0, 30.0, n))
    assert FenwickSampler(w).tree.tobytes() == _loop_build(w).tobytes()
