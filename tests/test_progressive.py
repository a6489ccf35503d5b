import heapq

import numpy as np
import pytest

from fedprune.nn import make_mlp
from fedprune.progressive import (
    BLOCKS,
    GrowPrunePlan,
    PruneSchedule,
    aggregate_topk,
    apply_plan,
    plan_grow_prune,
    pruning_number,
    target_layers,
    topk_collect,
)


# -- reference oracles ----------------------------------------------------------
# A per-element heap that streams the pairs through a bounded buffer. The
# array-backed top-K must reproduce it exactly, ties and signed zeros included.

class HeapTopKBuffer:
    """Min-heap of (|g|, -index, g): an incoming gradient replaces the
    smallest retained one only if it beats it."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._heap: list[tuple[float, int, float]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, index: int, value: float) -> None:
        if self.capacity == 0:
            return
        item = (abs(value), -index, value)
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, item)
        elif item > self._heap[0]:
            heapq.heapreplace(self._heap, item)

    def entries(self) -> list[tuple[int, float]]:
        ordered = sorted(self._heap, reverse=True)
        return [(-neg_idx, g) for _, neg_idx, g in ordered]


def oracle_topk_collect(indices, values, capacity: int) -> HeapTopKBuffer:
    buf = HeapTopKBuffer(capacity)
    for idx, val in zip(indices, values):
        buf.push(int(idx), float(val))
    return buf


def assert_same_pairs(buf, ref: HeapTopKBuffer) -> None:
    """``buf`` holds the oracle's (index, gradient) pairs in its order,
    signs of zero included."""
    want = ref.entries()
    assert buf.index.tolist() == [i for i, _ in want]
    assert buf.value.tobytes() == np.array([g for _, g in want],
                                           dtype=np.float64).tobytes()


def arrays(grads: dict[int, float]):
    """A {flat index: gradient} dict as an ascending (index, grads) pair."""
    keys = sorted(grads)
    return (np.array(keys, dtype=np.int64),
            np.array([grads[k] for k in keys], dtype=np.float64))


def oracle_aggregate_topk(buffers, weights):
    total = float(sum(weights))
    out: dict[int, float] = {}
    for buf, w in zip(buffers, weights):
        share = w / total
        for idx, g in buf.entries():
            out[idx] = out.get(idx, 0.0) + share * g
    return arrays(out)


def oracle_plan_grow_prune(index, grads, mask_slice, weight_slice,
                           count: int) -> GrowPrunePlan:
    agg_grads = dict(zip(index.tolist(), grads.tolist()))
    flat_mask = mask_slice.reshape(-1)
    pruned = np.flatnonzero(flat_mask == 0)
    unpruned = np.flatnonzero(flat_mask == 1)
    if count > min(len(pruned), len(unpruned)):
        raise ValueError("count too large")
    if count == 0:
        return GrowPrunePlan()
    pruned_set = set(pruned.tolist())
    reported = [(idx, g) for idx, g in agg_grads.items() if idx in pruned_set]
    reported.sort(key=lambda item: (-abs(item[1]), item[0]))
    grow = [idx for idx, _ in reported[:count]]
    shortfall = count - len(grow)
    if shortfall > 0:
        chosen = set(grow)
        for idx in pruned:
            if len(grow) == count:
                break
            if int(idx) not in chosen:
                grow.append(int(idx))
    flat_w = np.abs(weight_slice.reshape(-1)[unpruned])
    order = np.argsort(flat_w, kind="stable")
    drop = unpruned[order[:count]].tolist()
    return GrowPrunePlan(grow=[int(i) for i in grow],
                         drop=[int(i) for i in drop], shortfall=shortfall)


# values from a small grid, so magnitudes tie often; +0.0 and -0.0 both occur
TIE_GRID = np.array([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0])


def schedule(**kw):
    base = dict(granularity="block", interval=10, stop_round=100,
                growth_fraction=0.15)
    base.update(kw)
    return PruneSchedule(**base)


# -- pruning_number -----------------------------------------------------------

def test_pruning_number_cosine_endpoints():
    sched = schedule()
    assert pruning_number(0, sched, 1000) == 300     # cos 0 = 1
    assert pruning_number(100, sched, 1000) == 0     # cos pi = -1
    assert pruning_number(50, sched, 1000) == 150    # cos pi/2 = 0


def test_pruning_number_untargeted_and_past_stop():
    sched = schedule()
    assert pruning_number(101, sched, 1000) == 0


def test_pruning_number_clamps_to_available_coordinates():
    # at density 0.9 a layer has fewer pruned coordinates than the schedule
    # asks for, so round 1 grows exactly what each layer has pruned
    from test_sim import tiny_config

    from fedprune.sim import run_round, setup_experiment

    state = setup_experiment(tiny_config(density=0.9, granularity="entire",
                                         interval=1))
    pruned = {key: int((m == 0).sum())
              for key, m in state.mask.slices.items()}
    sched = state.cfg.schedule()
    assert all(pruning_number(0, sched, m.size - pruned[key]) > pruned[key]
               for key, m in state.mask.slices.items())
    rm = run_round(state, 1)
    assert rm.clamped
    assert {key: c["grow"] for key, c in rm.layers.items()} == pruned
    assert sorted(pruned.values()) == [46, 70]


# -- TopKBuffer ----------------------------------------------------------------

def test_topk_magnitude_order():
    buf = topk_collect([0, 1, 2, 3], [0.1, -0.5, 0.3, 0.05], 2)
    assert set(buf.index.tolist()) == {1, 2}
    assert (buf.index[0], buf.value[0]) == (1, -0.5)


def test_topk_capacity_at_least_count_keeps_all():
    buf = topk_collect(range(5), [1.0, 2.0, 3.0, 4.0, 5.0], 10)
    assert len(buf) == 5
    assert buf.index.tolist() == [4, 3, 2, 1, 0]
    assert buf.value.tolist() == [5.0, 4.0, 3.0, 2.0, 1.0]


def test_topk_zero_capacity_empty():
    buf = topk_collect(range(10), np.ones(10), 0)
    assert len(buf) == 0 and buf.index.size == buf.value.size == 0


def test_topk_tie_prefers_lower_index():
    buf = topk_collect([5, 2, 9], [1.0, 1.0, 1.0], 2)
    assert buf.index.tolist() == [2, 5]


def test_topk_matches_sort_oracle_and_memory_bound():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 2000))
        a = int(rng.integers(0, min(n, 100) + 1))
        vals = rng.normal(size=n)
        idx = np.arange(n)
        buf = topk_collect(idx, vals, a)
        oracle = sorted(range(n), key=lambda i: (-abs(vals[i]), i))[:a]
        assert buf.index.tolist() == oracle
        assert len(buf) <= a


def test_topk_matches_heap_oracle_with_ties_and_shuffled_indices():
    rng = np.random.default_rng(2024)
    for case in range(600):
        n = int(rng.integers(1, 150))
        if case % 6 == 5:  # n an exact multiple of the capacity
            a = int(rng.integers(1, 12))
            n = a * int(rng.integers(1, 12))
        else:
            a = max(0, (0, 1, n - 1, n, n + 3)[case % 6])
        indices = rng.permutation(3 * n)[:n]  # shuffled, non-contiguous
        values = (rng.choice(TIE_GRID, size=n) if case % 2
                  else rng.normal(size=n))
        buf = topk_collect(indices, values, a)
        ref = oracle_topk_collect(indices, values, a)
        assert_same_pairs(buf, ref)
        assert len(buf) <= a


def test_topk_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        topk_collect([0, 1, 2], [1.0, 2.0], 2)


def test_topk_rejects_negative_capacity():
    with pytest.raises(ValueError, match="nonnegative"):
        topk_collect(range(4), np.ones(4), -1)


def test_topk_empty_input_and_zero_capacity_read_no_values():
    buf = topk_collect([], [], 3)
    assert len(buf) == 0 and buf.index.dtype == np.int64
    # a zero capacity returns before the finiteness check
    assert len(topk_collect(range(3), [np.nan, 1.0, np.inf], 0)) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_topk_rejects_non_finite_gradients(bad):
    values = np.linspace(1.0, 2.0, 10)
    values[7] = bad  # lands in a chunk after the buffer is full
    with pytest.raises(FloatingPointError):
        topk_collect(np.arange(10), values, 3)


def test_topk_matches_heap_oracle_across_several_chunks():
    # long inputs against the capacity: k multiples of 16 * a pairs, and one
    # pair fewer or more
    rng = np.random.default_rng(31)
    for a in (1, 2, 7, 33):
        step = 16 * a
        for k in (1, 2, 3):
            for n in (k * step - 1, k * step, k * step + 1):
                for tied in (True, False):
                    indices = rng.permutation(3 * n)[:n]
                    values = (rng.choice(TIE_GRID, size=n) if tied
                              else rng.normal(size=n))
                    buf = topk_collect(indices, values, a)
                    ref = oracle_topk_collect(indices, values, a)
                    assert_same_pairs(buf, ref)
                    assert len(buf) <= a


def test_topk_rejects_nan_in_the_last_chunk():
    a = 3
    n = 3 * 16 * a + 5
    values = np.linspace(1.0, 2.0, n)
    values[-1] = np.nan  # the last pair of a long input
    with pytest.raises(FloatingPointError):
        topk_collect(np.arange(n), values, a)


# -- aggregate_topk ---------------------------------------------------------------

def test_aggregate_overlapping_index():
    b1 = topk_collect([7], [2.0], 5)
    b2 = topk_collect([7], [4.0], 5)
    index, sums = aggregate_topk([b1, b2], [1.0, 1.0])
    assert index.dtype == np.int64 and sums.dtype == np.float64
    assert index.tolist() == [7] and sums.tolist() == [pytest.approx(3.0)]


def test_aggregate_disjoint_supports():
    b1 = topk_collect([1], [2.0], 5)
    b2 = topk_collect([2], [4.0], 5)
    index, sums = aggregate_topk([b1, b2], [1.0, 1.0])
    assert index.tolist() == [1, 2]
    assert sums.tolist() == [pytest.approx(1.0), pytest.approx(2.0)]


def test_aggregate_single_client():
    b = topk_collect([3, 8], [1.0, -2.0], 5)
    index, sums = aggregate_topk([b], [17.0])
    assert index.tolist() == [3, 8]
    assert sums.tolist() == [pytest.approx(1.0), pytest.approx(-2.0)]


def test_aggregate_matches_bruteforce_within_1e12():
    rng = np.random.default_rng(23)
    buffers, weights = [], []
    for _ in range(5):
        n = 50
        vals = rng.normal(size=n)
        buffers.append(topk_collect(range(n), vals, 20))
        weights.append(float(rng.integers(1, 100)))
    agg = dict(zip(*(a.tolist() for a in aggregate_topk(buffers, weights))))
    total = sum(weights)
    expected: dict[int, float] = {}
    for buf, w in zip(buffers, weights):
        for i, g in zip(buf.index.tolist(), buf.value.tolist()):
            expected[i] = expected.get(i, 0.0) + (w / total) * g
    assert set(agg) == set(expected)
    for i in agg:
        assert abs(agg[i] - expected[i]) < 1e-12


def test_aggregate_matches_heap_oracle_exactly():
    rng = np.random.default_rng(29)
    for case in range(100):
        n, clients = int(rng.integers(5, 80)), int(rng.integers(1, 6))
        pairs = []
        for _ in range(clients):
            idx = rng.permutation(2 * n)[:n]  # supports overlap in part
            vals = (rng.choice(TIE_GRID, size=n) if case % 2
                    else rng.normal(size=n))
            pairs.append((idx, vals, int(rng.integers(0, n + 2))))
        weights = [float(rng.integers(1, 100)) for _ in range(clients)]
        index, sums = aggregate_topk([topk_collect(*p) for p in pairs],
                                     weights)
        ref = oracle_aggregate_topk([oracle_topk_collect(*p) for p in pairs],
                                    weights)
        assert (index.tolist(), sums.tolist()) == \
            (ref[0].tolist(), ref[1].tolist())


# -- plan_grow_prune ---------------------------------------------------------------

def test_plan_empty_when_count_zero():
    mask = np.array([1, 0, 1, 0], dtype=np.uint8)
    plan = plan_grow_prune(*arrays({}), mask, np.ones(4), 0)
    assert plan.grow.tolist() == [] and plan.drop.tolist() == []


def test_plan_matches_bruteforce_oracle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = 200
        mask = (rng.random(n) < 0.5).astype(np.uint8)
        weights = rng.normal(size=n)
        weights[mask == 0] = 0.0
        pruned = np.flatnonzero(mask == 0)
        unpruned = np.flatnonzero(mask == 1)
        a = min(10, len(pruned), len(unpruned))
        grads = {int(i): float(rng.normal()) for i in pruned}
        plan = plan_grow_prune(*arrays(grads), mask, weights, a)
        grow_oracle = sorted(pruned, key=lambda i: (-abs(grads[int(i)]), i))[:a]
        drop_oracle = sorted(unpruned, key=lambda i: (abs(weights[i]), i))[:a]
        assert plan.grow.tolist() == [int(i) for i in grow_oracle]
        assert plan.drop.tolist() == [int(i) for i in drop_oracle]
        assert not set(plan.grow.tolist()) & set(plan.drop.tolist())
        assert plan.shortfall == 0


def test_plan_fills_shortfall_with_lowest_pruned_indices():
    mask = np.array([0, 0, 0, 0, 1, 1, 1], dtype=np.uint8)
    weights = np.array([0.0, 0.0, 0.0, 0.0, 3.0, 1.0, 2.0])
    plan = plan_grow_prune(*arrays({2: 0.5}), mask, weights, 3)
    assert plan.grow.tolist() == [2, 0, 1]
    assert plan.drop.tolist() == [5, 6, 4]
    assert plan.shortfall == 2


def test_plan_ignores_gradients_at_unpruned_coordinates():
    mask = np.array([0, 1, 0, 1], dtype=np.uint8)
    weights = np.array([0.0, 5.0, 0.0, 1.0])
    plan = plan_grow_prune(*arrays({1: 100.0, 0: 0.5, 2: 0.1}), mask,
                           weights, 1)
    assert plan.grow.tolist() == [0]
    assert plan.drop.tolist() == [3]


def test_plan_matches_heap_oracle_exactly_including_shortfall():
    rng = np.random.default_rng(37)
    shortfalls = 0
    for case in range(200):
        n = int(rng.integers(4, 120))
        mask = (rng.random(n) < 0.4).astype(np.uint8)
        pruned = np.flatnonzero(mask == 0)
        unpruned = np.flatnonzero(mask == 1)
        weights = rng.choice(TIE_GRID, size=n) * mask
        # some reports fall on unpruned coordinates; few reports leave a
        # shortfall
        reported = rng.permutation(n)[:int(rng.integers(0, n + 1))]
        grads = {int(i): float(g) for i, g in zip(
            reported, rng.choice(TIE_GRID, size=len(reported))
            if case % 2 else rng.normal(size=len(reported)))}
        count = int(rng.integers(0, min(len(pruned), len(unpruned)) + 1))
        plan = plan_grow_prune(*arrays(grads), mask, weights, count)
        ref = oracle_plan_grow_prune(*arrays(grads), mask, weights, count)
        assert (plan.grow.tolist(), plan.drop.tolist(), plan.shortfall) == \
            (ref.grow.tolist(), ref.drop.tolist(), ref.shortfall)
        shortfalls += plan.shortfall > 0
    assert shortfalls > 10


def test_plan_grow_is_the_topk_of_the_same_pairs():
    # the server's grow choice and a client's top-K share one ordering rule
    rng = np.random.default_rng(43)
    for case in range(200):
        n = int(rng.integers(1, 120))
        index = rng.permutation(3 * n)[:n]
        grads = (rng.choice(TIE_GRID, size=n) if case % 2
                 else rng.normal(size=n))
        mask = np.ones(3 * n + 1, dtype=np.uint8)
        mask[index] = 0  # every reported index is pruned
        count = int(rng.integers(0, min(n, int(mask.sum())) + 1))
        plan = plan_grow_prune(index, grads, mask, np.ones(mask.size), count)
        assert plan.shortfall == 0
        assert plan.grow.tolist() == \
            topk_collect(index, grads, count).index.tolist()


def test_plan_count_too_large():
    mask = np.array([1, 0], dtype=np.uint8)
    with pytest.raises(ValueError):
        plan_grow_prune(*arrays({}), mask, np.ones(2), 2)


# -- apply_plan -------------------------------------------------------------------

def test_apply_conserves_density_and_zero_inits():
    rng = np.random.default_rng(41)
    mask = (rng.random(100) < 0.3).astype(np.uint8)
    weights = rng.normal(size=100)
    weights[mask == 0] = 0.0
    pruned = np.flatnonzero(mask == 0)
    unpruned = np.flatnonzero(mask == 1)
    plan = GrowPrunePlan(grow=pruned[:5], drop=unpruned[:5])
    new_mask, new_w = mask.copy(), weights.copy()
    assert apply_plan(new_mask, plan, new_w) is None  # flips in place
    assert new_mask.sum() == mask.sum()
    np.testing.assert_array_equal(new_w[plan.grow], 0.0)
    np.testing.assert_array_equal(new_w[plan.drop], 0.0)
    np.testing.assert_array_equal(new_w[new_mask == 0], 0.0)
    # untouched kept coordinates keep their values
    keep = np.setdiff1d(unpruned, plan.drop)
    np.testing.assert_array_equal(new_w[keep], weights[keep])


def test_apply_empty_plan_is_identity():
    mask = np.array([1, 0, 1], dtype=np.uint8)
    weights = np.array([1.0, 0.0, -2.0])
    new_mask, new_w = mask.copy(), weights.copy()
    apply_plan(new_mask, GrowPrunePlan(), new_w)
    np.testing.assert_array_equal(new_mask, mask)
    np.testing.assert_array_equal(new_w, weights)


def test_apply_rejects_inconsistent_plan():
    mask = np.array([1, 0], dtype=np.uint8)
    with pytest.raises(ValueError):
        apply_plan(mask, GrowPrunePlan(grow=[0], drop=[1]), np.ones(2))


def test_apply_checks_the_whole_plan_before_writing():
    # the grow set is valid, the drop set is not: nothing may be flipped
    mask = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    weights = np.array([[2.0, 0.0], [0.0, -3.0]])
    before = mask.copy(), weights.copy()
    with pytest.raises(ValueError):
        apply_plan(mask, GrowPrunePlan(grow=[1], drop=[2]), weights)
    np.testing.assert_array_equal(mask, before[0])
    np.testing.assert_array_equal(weights, before[1])


def test_plan_validates_disjointness():
    with pytest.raises(ValueError):
        GrowPrunePlan(grow=[1], drop=[1])


# -- target_layers -----------------------------------------------------------------

def test_block_backward_cycles_from_last_block():
    # 2 prunable keys, so BLOCKS = 5 makes min(5, 2) = 2 groups of one key
    net = make_mlp(8, [8, 8, 8], 4, seed=0)
    k0, k1 = net.prunable_keys()
    sched = schedule(interval=10, stop_round=100)
    targeted = []
    for r in range(1, 101):
        keys = target_layers(r, sched, net)
        if r % 10 != 0:
            assert keys == []
        else:
            targeted.append(keys)
    # every one of the 10 pruning rounds targets a tensor, last group first
    assert targeted == [[k1], [k0]] * 5


def test_block_order_is_backward_by_block_id():
    # 7 prunable keys in BLOCKS = 5 groups: [k0, k1], [k2, k3], [k4], [k5],
    # [k6]
    net = make_mlp(8, [8] * 8, 4, seed=0)
    k = net.prunable_keys()
    assert len(k) == 7 and BLOCKS == 5
    sched = schedule(interval=1, stop_round=10)
    order = [target_layers(r, sched, net) for r in range(1, 11)]
    assert all(order)  # no pruning round is empty
    groups = [[k[6]], [k[5]], [k[4]], [k[2], k[3]], [k[0], k[1]]]
    assert order == groups * 2  # descending groups, keys in layer order


def test_blocks_cut_prunable_keys_into_contiguous_groups():
    def rounds(net, granularity="block"):
        sched = schedule(granularity=granularity, interval=1, stop_round=10)
        return [target_layers(r, sched, net) for r in range(1, 11)]

    # up to BLOCKS prunable keys, each block is one key, as at layer
    # granularity
    for n in (1, 3, BLOCKS):
        net = make_mlp(8, [8] * (n + 1), 4, seed=0)
        k = list(net.prunable_keys())
        assert len(k) == n
        layer = rounds(net, "layer")
        assert layer == ([[key] for key in reversed(k)] * 10)[:10]
        assert rounds(net) == layer
        assert rounds(net, "entire") == [k] * 10
    # 12 keys in groups of 3, 3, 2, 2 and 2, the last one first
    net = make_mlp(8, [8] * 13, 4, seed=0)
    k = list(net.prunable_keys())
    assert len(k) == 12
    assert rounds(net) == [k[10:], k[8:10], k[6:8], k[3:6], k[:3]] * 2
    assert rounds(net, "entire") == [k] * 10


def test_layer_granularity_cycles_each_layer_once():
    net = make_mlp(8, [8, 8, 8], 4, seed=0)
    sched = schedule(granularity="layer", interval=5, stop_round=100)
    eligible = list(reversed(net.prunable_keys()))
    seen = []
    for r in range(1, 5 * len(eligible) + 1):
        keys = target_layers(r, sched, net)
        if keys:
            seen.extend(keys)
    assert seen == eligible  # one full cycle, backward order


def test_entire_targets_every_eligible_layer():
    net = make_mlp(8, [8, 8, 8], 4, seed=0)
    sched = schedule(granularity="entire", interval=10, stop_round=100)
    assert target_layers(10, sched, net) == list(net.prunable_keys())


def test_no_pruning_after_stop():
    net = make_mlp(8, [8, 8, 8], 4, seed=0)
    sched = schedule(interval=10, stop_round=100)
    assert target_layers(110, sched, net) == []
    assert target_layers(90, sched, net) != []  # every pruning round targets


def test_network_without_prunable_tensors_targets_nothing():
    net = make_mlp(8, [8], 4, seed=0)  # first and last linear only
    for granularity in ("layer", "block", "entire"):
        assert target_layers(10, schedule(granularity=granularity), net) == []


def test_schedule_validation():
    with pytest.raises(ValueError):
        PruneSchedule(granularity="weird")
    with pytest.raises(ValueError):
        PruneSchedule(interval=10, stop_round=5)
    with pytest.raises(ValueError):
        PruneSchedule(growth_fraction=1.5)
