import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fedprune.masking import (
    MIN_KEPT_PER_LAYER,
    POOL_NOISE,
    Mask,
    _smallest,
    allocate_counts,
    apply_mask,
    generate_candidate_pool,
    keep_budget,
    keep_prefix,
    magnitude_mask,
    random_mask,
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


def fraction_allocate_counts(shares, sizes, budget, seen=None):
    """The reference ``allocate_counts``: the same rule in ``Fraction``
    arithmetic. ``seen``, a set, gains "pinned" when a layer is pinned to a
    bound and "tie" when equal remainders straddle the last extra weight,
    so the tie rule decides the counts."""
    low = {k: min(MIN_KEPT_PER_LAYER, n) for k, n in sizes.items()}
    if not sum(low.values()) <= budget <= sum(sizes.values()):
        raise ValueError("infeasible")
    weight = {k: min(max(Fraction(shares[k]) * n, low[k]), n)
              for k, n in sizes.items()}
    ideal = {}
    free = list(sizes)
    while free:
        scale = (Fraction(budget - sum(ideal.values()))
                 / sum(weight[k] for k in free))
        part = {k: min(max(scale * weight[k], low[k]), sizes[k]) for k in free}
        pinned = {k: v for k, v in part.items() if v != scale * weight[k]}
        ideal.update(pinned or part)
        free = [k for k in free if k not in ideal]
        if pinned and seen is not None:
            seen.add("pinned")
    counts = {k: math.floor(ideal[k]) for k in sizes}
    by_remainder = sorted(sizes, key=lambda k: counts[k] - ideal[k])
    extra = budget - sum(counts.values())
    for k in by_remainder[:extra]:
        counts[k] += 1
    if (seen is not None and 0 < extra < len(sizes)
            and ideal[by_remainder[extra - 1]] - counts[by_remainder[extra - 1]]
            + 1 == ideal[by_remainder[extra]] - counts[by_remainder[extra]]):
        seen.add("tie")
    return counts


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
        counts = allocate_counts(shares, sizes, budget)
        assert sum(counts.values()) == budget
        assert counts == fraction_allocate_counts(shares, sizes, budget)
        checked += 1
    assert checked > 200
    sizes = {"a": 60, "b": 40}
    counts = allocate_counts({"a": 0.29, "b": 0.29}, sizes,
                             keep_budget(0.29, 100))
    assert sum(counts.values()) == 29 == fraction_budget("0.29", 100)


def tie_prone_draw(rng):
    """Shares, layer sizes and a feasible budget drawn from the
    ``random.Random`` ``rng`` to hit exact ties and bounds: sizes below the
    floor or repeated, shares that repeat, lie on a coarse dyadic grid,
    reach 0 or exceed 1, or are noisy floats."""
    def size():
        return rng.randint(1, rng.choice((12, 300, 3000)))

    mode = rng.randrange(4)
    common = size()
    # equal shares over equal sizes: every remainder ties
    sizes = {f"{i}.weight": common if mode == 0 or rng.random() < 0.6
             else size() for i in range(rng.randint(1, 4))}
    if mode == 0:
        shares = dict.fromkeys(sizes, rng.randint(1, 64) / 64)
    elif mode == 1:
        shares = {k: rng.randint(0, 96) / 32 for k in sizes}
    elif mode == 2:
        d = rng.random()
        shares = {k: d + rng.uniform(-0.5 * d, 0.5 * d) for k in sizes}
    else:
        shares = {k: rng.choice((0.0, 1e-9, 1.0, 3.0, rng.random()))
                  for k in sizes}
    low = sum(min(MIN_KEPT_PER_LAYER, n) for n in sizes.values())
    high = sum(sizes.values())
    return shares, sizes, rng.choice((low, high, rng.randint(low, high)))


def test_allocate_counts_matches_the_fraction_oracle_on_seeded_draws():
    # 100,000 draws; the oracle's tie rule and its pins each decide
    # thousands of them
    rng = random.Random(14)
    seen_in = {"pinned": 0, "tie": 0}
    for _ in range(100_000):
        shares, sizes, budget = tie_prone_draw(rng)
        seen = set()
        want = fraction_allocate_counts(shares, sizes, budget, seen)
        assert allocate_counts(shares, sizes, budget) == want, \
            (shares, sizes, budget)
        for flag in seen:
            seen_in[flag] += 1
    assert seen_in["pinned"] > 20_000 and seen_in["tie"] > 3_000, seen_in


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
    # checked before the uint8 cast, which maps 0.5 and 256.0 to 0
    for bad in ([0.5, 1.0], [256.0, 1.0], [1.9, 0.0]):
        with pytest.raises(ValueError):
            Mask({"a": np.array(bad)})
    assert Mask({"a": np.array([1.0, 0.0])}).slices["a"].dtype == np.uint8
    for bad in ([2, 1], [0.5, 0.0], [-1, 0]):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            Mask({"a": np.array(bad)})


def test_a_boolean_mask_is_stored_as_its_uint8_indicators():
    keep = np.array([[True, False, True], [False, False, True]])
    stored = Mask({"a": keep}).slices["a"]
    assert stored.dtype == np.uint8
    np.testing.assert_array_equal(stored, keep)


@pytest.mark.parametrize("dtype", [np.uint8, bool, np.float64, np.int64])
def test_a_mask_owns_its_indicators(dtype):
    # the mask copies its input, whatever the dtype, into one uint8 vector
    # ``bits`` that every slice views, each key's indicators in key order
    a = np.array([[1, 0, 1], [0, 0, 1]], dtype=dtype)
    b = np.array([0, 1], dtype=dtype)
    mask = Mask({"a": a, "b": b})
    a[...], b[...] = 0, 0
    assert mask.slices["a"].tolist() == [[1, 0, 1], [0, 0, 1]]
    assert mask.slices["b"].tolist() == [0, 1]
    assert mask.bits.dtype == np.uint8
    assert mask.bits.tolist() == [1, 0, 1, 0, 0, 1, 0, 1]
    assert mask.counts() == (4, 8)
    for key, shape in (("a", (2, 3)), ("b", (2,))):
        assert mask.slices[key].shape == shape
        assert np.shares_memory(mask.slices[key], mask.bits)
    # writes into a slice are writes into bits, and a copy owns its own
    twin = mask.copy()
    mask.slices["a"][0, 1] = 1
    assert mask.bits[1] == 1 and mask.counts() == (5, 8)
    assert twin.bits.tolist() == [1, 0, 1, 0, 0, 1, 0, 1]
    assert not np.shares_memory(twin.bits, mask.bits)


# -- _smallest ------------------------------------------------------------------

def tied_keys(rng, n):
    """Heavy ties: exact zeros of both signs and a few repeated values."""
    return rng.choice([0.0, -0.0, 0.0, -0.0, 0.25, -0.25, 1.5, -1.5], size=n)


@pytest.mark.parametrize("n", [0, 1, 7, 64, 301])
def test_smallest_is_a_stable_argsort_prefix_for_every_k(n):
    rng = np.random.default_rng(n)
    mixed = tied_keys(rng, n)
    mixed[::3] = rng.normal(size=len(mixed[::3]))
    for key in (tied_keys(rng, n), -np.abs(tied_keys(rng, n)), mixed,
                rng.normal(size=n)):
        oracle = np.argsort(key, kind="stable")
        for k in range(n + 1):
            assert _smallest(key, k).tolist() == oracle[:k].tolist()
    if n >= 64:
        key = tied_keys(rng, n)
        assert np.sum(key == 0.0) > n / 3
        assert 0 < np.sum(np.signbit(key) & (key == 0.0)) < np.sum(key == 0.0)


def test_smallest_sorts_nan_last_as_a_stable_argsort():
    key = np.array([np.nan, 2.0, np.nan, 1.0, 2.0])
    oracle = np.argsort(key, kind="stable")
    for k in range(len(key) + 1):
        assert _smallest(key, k).tolist() == oracle[:k].tolist()


# -- keep_prefix of the magnitude order -----------------------------------------

def magnitude_support(w, d):
    """The ``keep_budget(d, w.size)`` largest magnitudes of ``w``, ties to the
    lower flat index: the rule of the pool and of ``magnitude_mask``."""
    n = keep_budget(d, w.size)
    return keep_prefix(_smallest(-np.abs(w).reshape(-1), n), n, w.shape)


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


def test_keep_prefix_keeps_the_first_positions_of_an_order():
    order = np.array([5, 0, 3, 1])
    for n in range(len(order) + 1):
        kept = keep_prefix(order, n, (2, 3))
        assert kept.dtype == bool and kept.shape == (2, 3)
        assert sorted(np.flatnonzero(kept)) == sorted(order[:n])


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


def test_random_mask_keeps_the_highest_draws_of_each_tensor():
    # one ``rng.random(w.shape)`` per prunable tensor, in key order, and its
    # highest draws kept (ties to the lower flat index)
    net = pool_net(hidden=(30, 10, 50))
    mask = random_mask(net, 0.2, seed=3)
    rng = np.random.default_rng(3)
    for key, n in mask.nonzeros().items():
        draw = rng.random(net.params()[key].shape)
        want = np.zeros(draw.size, dtype=np.uint8)
        want[np.argsort(-draw, axis=None, kind="stable")[:n]] = 1
        assert mask.slices[key].tobytes() == want.tobytes()


# -- candidate pool ---------------------------------------------------------------

def test_pool_shares_lie_within_the_noise_band():
    d = 0.01
    pool = generate_candidate_pool(pool_net(), d, 20, seed=1)
    assert len(pool) == len(pool.shares) == 20
    shares = [s for drawn in pool.shares for s in drawn.values()]
    assert all(d - POOL_NOISE * d <= s <= d + POOL_NOISE * d for s in shares)
    # one draw per candidate and layer, spread over the band
    assert len(set(shares)) == len(shares)
    assert max(shares) - min(shares) > POOL_NOISE * d


def test_pool_candidates_respect_target():
    net = pool_net(seed=2)
    pool = generate_candidate_pool(net, 0.01, 50, seed=9)
    assert len(pool) == 50
    assert list(pool.order) == list(pool.shapes) == list(net.prunable_keys())
    assert pool.counts.shape == (50, len(net.prunable_keys()))
    for i in range(len(pool)):
        mask = pool.mask(i)
        kept, total = mask.counts()
        assert kept == keep_budget(0.01, total)
        assert list(mask.nonzeros().values()) == pool.counts[i].tolist()
        assert all(n >= MIN_KEPT_PER_LAYER for n in pool.counts[i])
    assert len({tuple(row) for row in pool.counts.tolist()}) > 1


def test_pool_is_deterministic():
    net = pool_net(seed=3)
    a = generate_candidate_pool(net, 0.02, 4, seed=7)
    b = generate_candidate_pool(net, 0.02, 4, seed=7)
    assert a.shares == b.shares
    assert a.counts.tolist() == b.counts.tolist()
    for i in range(len(a)):
        for key, m in a.mask(i).slices.items():
            np.testing.assert_array_equal(m, b.mask(i).slices[key])


def test_pool_masks_match_per_candidate_support():
    # one sort per layer, then a prefix per candidate: the support must be
    # the one the magnitude rule picks for the candidate's own counts, also
    # where magnitudes tie (+w and -w, and repeated values)
    net = pool_net(seed=5, hidden=(20, 30, 20))
    for key in net.prunable_keys():
        w = net.params()[key]
        signs = np.where(np.arange(w.size) % 2, -1.0, 1.0).reshape(w.shape)
        w[...] = np.round(np.abs(w), 1) * signs
    weights = {k: net.params()[k] for k in net.prunable_keys()}
    assert all(len(np.unique(np.abs(w))) < w.size / 10
               for w in weights.values())
    pool = generate_candidate_pool(net, 0.1, 12, seed=4)
    assert len({tuple(row) for row in pool.counts.tolist()}) > 1
    for i, row in enumerate(pool.counts):
        mask = pool.mask(i)
        for (key, w), n in zip(weights.items(), row, strict=True):
            order = _smallest(-np.abs(w).reshape(-1), n)
            want = Mask({key: keep_prefix(order, n, w.shape)}).slices[key]
            assert mask.slices[key].dtype == want.dtype
            np.testing.assert_array_equal(mask.slices[key], want)


def rank_pool_masks(net, d_target, pool):
    """Each candidate's masks built as before partial ordering: the rank of
    every weight in its layer's stable descending magnitude order, kept
    below the candidate's count."""
    weights = {k: net.params()[k] for k in net.prunable_keys()}
    sizes = {k: w.size for k, w in weights.items()}
    budget = keep_budget(d_target, sum(sizes.values()))
    ranks = {k: np.argsort(np.argsort(-np.abs(w), axis=None, kind="stable"))
             .reshape(w.shape) for k, w in weights.items()}
    return [Mask({k: r < allocate_counts(shares, sizes, budget)[k]
                  for k, r in ranks.items()}) for shares in pool.shares]


def tie_magnitudes(net):
    """Heavy ties: rounded magnitudes, signs alternating."""
    for key in net.prunable_keys():
        w = net.params()[key]
        signs = np.where(np.arange(w.size) % 2, -1.0, 1.0).reshape(w.shape)
        w[...] = np.round(np.abs(w), 1) * signs


POOL_CASES = [
    ((50, 50, 50), 0.01), ((50, 50, 50), 0.3), ((20, 30, 20), 0.1),
    # a 9-weight layer beside a 300-weight one: the budget (154, 30)
    # exceeds the small layer, whose order then covers all of it
    ((3, 3, 100), 0.5), ((3, 3, 100), 0.1)]


@pytest.mark.parametrize("hidden, d_target", POOL_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pool_masks_equal_the_full_rank_construction(hidden, d_target, seed):
    net = pool_net(seed=seed, hidden=hidden)
    if seed == 2:
        tie_magnitudes(net)
    sizes = [net.params()[k].size for k in net.prunable_keys()]
    budget = keep_budget(d_target, sum(sizes))
    if hidden == (3, 3, 100):
        assert min(sizes) < budget
    pool = generate_candidate_pool(net, d_target, 6, seed=seed)
    for i, want in enumerate(rank_pool_masks(net, d_target, pool)):
        got = pool.mask(i)
        assert got.slices.keys() == want.slices.keys()
        for key, m in got.slices.items():
            assert (m.dtype, m.shape) == (want.slices[key].dtype,
                                          want.slices[key].shape)
            assert m.tobytes() == want.slices[key].tobytes()
    assert i == 5


def test_equal_count_rows_are_exactly_equal_masks():
    # grouping candidates by count row and by mask bytes must agree: on
    # pools with copies, with one row only (the (3, 3, 100) layers at
    # d = 0.1 are pinned at 9 and at 21) and with none repeated
    distinct = set()
    for hidden, d_target in POOL_CASES:
        for seed in (0, 2):
            net = pool_net(seed=seed, hidden=hidden)
            if seed == 2:
                tie_magnitudes(net)
            pool = generate_candidate_pool(net, d_target, 40, seed=seed)
            by_counts = [tuple(row) for row in pool.counts.tolist()]
            by_masks = [tuple(m.tobytes() for m in
                              pool.mask(i).slices.values())
                        for i in range(len(pool))]
            assert ([by_counts.index(c) for c in by_counts]
                    == [by_masks.index(m) for m in by_masks])
            distinct.add(len(set(by_counts)))
    assert 1 in distinct and 40 in distinct and len(distinct) > 2


def test_pool_infeasible_floor_raises():
    net = pool_net(seed=1, hidden=(12, 12, 12))  # 144-weight layers, floor 10
    with pytest.raises(ValueError):
        generate_candidate_pool(net, 0.001, 1, seed=0)


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
