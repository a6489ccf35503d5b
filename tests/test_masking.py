import math
from fractions import Fraction

import numpy as np
import pytest

from fedprune.masking import (
    MIN_KEPT_PER_LAYER,
    Mask,
    allocate_counts,
    apply_mask,
    generate_candidate_pool,
    keep_budget,
    magnitude_mask,
    random_mask,
    select_support,
)
from fedprune.nn import forward, make_mlp


# -- keep_budget ------------------------------------------------------------------

def test_keep_budget_honors_decimal_intent():
    # binary float rounding must not move the count
    assert keep_budget(0.29, 100) == 29   # float floor(0.29 * 100) is 28
    assert math.floor(0.29 * 100) == 28
    assert keep_budget(0.01, 100) == 1
    assert keep_budget(0.1, 1000) == 100
    assert keep_budget(0.05, 4096) == 204  # floor(204.8)
    assert keep_budget(0.5, 4) == 2
    assert keep_budget(0.0, 10) == 0
    assert keep_budget(1.0, 10) == 10


def test_keep_budget_is_exact_at_boundaries():
    assert keep_budget(0.01, 199) == 1
    assert keep_budget(0.01, 200) == 2
    assert keep_budget(0.07, 100) == 7   # 0.07 * 100 is 7.000000000000001
    with pytest.raises(ValueError):
        keep_budget(1.5, 10)


# -- allocate_counts ----------------------------------------------------------------

def random_layers(rng):
    """Random layer sizes, noisy shares around a decimal density, and that
    density written as a decimal string."""
    n_layers = int(rng.integers(1, 6))
    sizes = {f"{i}.weight": int(rng.integers(1, 3000)) for i in range(n_layers)}
    text = f"{rng.integers(1, 1000) / 1000:.3f}"
    d = float(text)
    shares = {k: d + rng.uniform(-1.5 * d, 1.5 * d) for k in sizes}
    return sizes, shares, text


def fraction_budget(text, total):
    return math.floor(Fraction(text) * total)


def test_allocate_counts_sum_matches_fraction_oracle():
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(400):
        sizes, shares, text = random_layers(rng)
        total = sum(sizes.values())
        budget = keep_budget(float(text), total)
        assert budget == fraction_budget(text, total)
        if budget < sum(min(MIN_KEPT_PER_LAYER, n) for n in sizes.values()):
            continue
        assert sum(allocate_counts(shares, sizes, budget).values()) == budget
        checked += 1
    assert checked > 200
    sizes = {"a": 60, "b": 40}
    counts = allocate_counts({"a": 0.29, "b": 0.29}, sizes,
                             keep_budget(0.29, 100))
    assert sum(counts.values()) == 29 == fraction_budget("0.29", 100)


def test_allocate_counts_respects_layer_bounds():
    rng = np.random.default_rng(1)
    for _ in range(400):
        sizes, shares, text = random_layers(rng)
        budget = keep_budget(float(text), sum(sizes.values()))
        try:
            counts = allocate_counts(shares, sizes, budget)
        except ValueError:
            continue
        for k, n in sizes.items():
            assert min(MIN_KEPT_PER_LAYER, n) <= counts[k] <= n


def test_allocate_counts_is_deterministic():
    rng = np.random.default_rng(2)
    for _ in range(50):
        sizes, shares, text = random_layers(rng)
        budget = keep_budget(float(text), sum(sizes.values()))
        try:
            first = allocate_counts(shares, sizes, budget)
        except ValueError:
            continue
        assert allocate_counts(dict(shares), dict(sizes), budget) == first


def test_allocate_counts_is_proportional_inside_bounds():
    sizes = {"a": 1000, "b": 1000, "c": 2000}
    shares = {"a": 0.1, "b": 0.2, "c": 0.1}
    # weights 100 : 200 : 200 over a budget of 333
    assert allocate_counts(shares, sizes, 333) == {"a": 67, "b": 133, "c": 133}
    # equal remainders go to the earlier layer
    assert allocate_counts({"a": 1.0, "b": 1.0}, {"a": 50, "b": 50}, 21) == \
        {"a": 11, "b": 10}


def test_allocate_counts_pins_layers_at_their_bounds():
    # "a" would get 5 of 50 proportionally, below its floor of 10
    counts = allocate_counts({"a": 0.1, "b": 0.1}, {"a": 500, "b": 4500}, 50)
    assert counts == {"a": 10, "b": 40}
    # "a" would get 60 proportionally, more than its 20 weights
    counts = allocate_counts({"a": 1.0, "b": 0.2}, {"a": 20, "b": 100}, 80)
    assert counts == {"a": 20, "b": 60}


def test_allocate_counts_infeasible_floor_raises():
    with pytest.raises(ValueError):
        allocate_counts({"a": 0.01, "b": 0.01}, {"a": 500, "b": 500}, 19)
    with pytest.raises(ValueError):
        allocate_counts({"a": 1.0}, {"a": 50}, 51)
    assert allocate_counts({"a": 0.01, "b": 0.01},
                           {"a": 500, "b": 500}, 20) == {"a": 10, "b": 10}


# -- Mask / density ------------------------------------------------------------

def test_density_trivial_cases():
    ones = Mask({"a": np.ones((3, 4), dtype=np.uint8)})
    zeros = Mask({"a": np.zeros((3, 4), dtype=np.uint8)})
    assert ones.density() == 1.0
    assert zeros.density() == 0.0
    partial = np.zeros(12, dtype=np.uint8)
    partial[:3] = 1
    assert Mask({"a": partial.reshape(3, 4)}).density() == 0.25


def test_mask_rejects_non_binary_entries():
    with pytest.raises(ValueError):
        Mask({"a": np.array([0, 1, 2], dtype=np.uint8)})


# -- select_support over magnitudes ------------------------------------------------

def magnitude_support(w, d):
    return select_support(np.abs(w), keep_budget(d, w.size))


def test_magnitude_keeps_largest():
    w = np.array([1.0, -3.0, 2.0, 0.5])
    m = magnitude_support(w, 0.5)
    np.testing.assert_array_equal(m, [0, 1, 1, 0])


def test_magnitude_full_density_keeps_all():
    w = np.random.default_rng(0).normal(size=(4, 5))
    np.testing.assert_array_equal(magnitude_support(w, 1.0), np.ones((4, 5)))


def test_magnitude_matches_sort_oracle():
    rng = np.random.default_rng(11)
    w = rng.normal(size=1000)
    for d in (0.037, 0.5, 0.9):
        m = magnitude_support(w, d)
        k = keep_budget(d, 1000)
        oracle = set(sorted(range(1000), key=lambda i: (-abs(w[i]), i))[:k])
        assert set(np.flatnonzero(m)) == oracle


def test_magnitude_tie_break_prefers_lower_index():
    w = np.array([1.0, -1.0, 1.0, 1.0])
    m = magnitude_support(w, 0.5)
    np.testing.assert_array_equal(m, [1, 1, 0, 0])
    w = np.tile([1.0, -1.0, 0.5], 100)  # 200 tied magnitudes, keep 150
    ties = np.flatnonzero(np.abs(w) == 1.0)
    np.testing.assert_array_equal(np.flatnonzero(magnitude_support(w, 0.5)),
                                  ties[:150])


def test_magnitude_is_idempotent():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(20, 10))
    m1 = magnitude_support(w, 0.3)
    m2 = magnitude_support(w * m1, 0.3)
    np.testing.assert_array_equal(m1, m2)


def test_support_size_is_exact():
    rng = np.random.default_rng(5)
    for n in (17, 100, 1003):
        w = rng.normal(size=n)
        for d in (0.01, 0.123, 0.5, 0.999):
            assert magnitude_support(w, d).sum() == keep_budget(d, n)
    with pytest.raises(ValueError):
        select_support(np.zeros(3), 4)


# -- random_mask ----------------------------------------------------------------

def pool_net(seed=0, hidden=(50, 50, 50)):
    return make_mlp(8, list(hidden), 10, seed=seed)


def test_random_mask_counts_and_determinism():
    net = pool_net(hidden=(30, 10, 50))  # prunable layers of 300 and 500
    m = random_mask(net, 0.2, seed=3)
    kept, total = m.counts()
    assert kept == keep_budget(0.2, total) == 160
    assert sorted(m.nonzeros().values()) == [60, 100]
    m2 = random_mask(net, 0.2, seed=3)
    for key in m.slices:
        np.testing.assert_array_equal(m.slices[key], m2.slices[key])


def test_random_mask_all_ones_at_full_density():
    m = random_mask(pool_net(hidden=(4, 4)), 1.0, seed=0)
    np.testing.assert_array_equal(m.slices["3.weight"], np.ones((4, 4)))


def test_random_mask_seeds_differ():
    net = pool_net()
    a = random_mask(net, 0.5, seed=1)
    b = random_mask(net, 0.5, seed=2)
    assert any(np.any(a.slices[k] != b.slices[k]) for k in a.slices)


# -- candidate pool ---------------------------------------------------------------

def test_pool_zero_noise_is_uniform():
    net = pool_net()
    pool = generate_candidate_pool(net, 0.01, 5, noise=0.0, seed=1)
    assert len(pool) == 5
    reference = magnitude_mask(net, 0.01)
    values = set()
    for cand in pool:
        for key, sl in cand.mask.slices.items():
            np.testing.assert_array_equal(sl, reference.slices[key])
        values.update(cand.layer_densities.values())
    assert values == {0.01}  # identical per-layer density everywhere


def test_pool_candidates_respect_target():
    net = pool_net(seed=2)
    pool = generate_candidate_pool(net, 0.01, 50, noise=0.5, seed=9)
    assert len(pool) == 50
    for cand in pool:
        kept, total = cand.mask.counts()
        assert kept == keep_budget(0.01, total)
        for n in cand.mask.nonzeros().values():
            assert n >= MIN_KEPT_PER_LAYER
    assert len({tuple(c.mask.nonzeros().values()) for c in pool}) > 1


def test_pool_is_deterministic():
    net = pool_net(seed=3)
    a = generate_candidate_pool(net, 0.02, 4, noise=0.5, seed=7)
    b = generate_candidate_pool(net, 0.02, 4, noise=0.5, seed=7)
    for ca, cb in zip(a, b):
        assert ca.layer_densities == cb.layer_densities
        for key in ca.mask.slices:
            np.testing.assert_array_equal(ca.mask.slices[key],
                                          cb.mask.slices[key])


def test_pool_infeasible_floor_raises():
    net = pool_net(seed=1, hidden=(12, 12, 12))  # 144-weight layers, floor 10
    with pytest.raises(ValueError):
        generate_candidate_pool(net, 0.001, 1, noise=0.0, seed=0)


# -- masks over networks --------------------------------------------------------

def test_apply_mask_zeroes_and_preserves():
    net = pool_net(seed=4)
    mask = random_mask(net, 0.1, seed=0)
    sparse = apply_mask(net, mask)
    for key, m in mask.slices.items():
        np.testing.assert_array_equal(sparse.params()[key][m == 0], 0.0)
        kept = m == 1
        np.testing.assert_array_equal(sparse.params()[key][kept],
                                      net.params()[key][kept])
    x = np.random.default_rng(0).normal(size=(4, 8))
    logits, _ = forward(sparse, x, "eval")
    assert np.all(np.isfinite(logits))


def test_static_masks_respect_budget():
    net = pool_net(seed=5)
    for mask in (magnitude_mask(net, 0.05), random_mask(net, 0.05, 3)):
        kept, total = mask.counts()
        assert kept == keep_budget(0.05, total)
    m = magnitude_mask(net, 0.05)
    # magnitude mask keeps the largest entries of each prunable tensor
    for key, sl in m.slices.items():
        w = np.abs(net.params()[key])
        assert w[sl == 1].min() >= np.sort(w[sl == 0].reshape(-1))[-1] - 1e-12
