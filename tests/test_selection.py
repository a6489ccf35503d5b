import math

import numpy as np
import pytest

from fedprune.data import Dataset, make_blobs
from fedprune.masking import Candidate, Mask, apply_mask, \
    generate_candidate_pool
from fedprune import selection
from fedprune.nn import BN_EPS, BN_MOMENTUM, BatchNorm, Linear, Network, \
    ReLU, bn_stats, cross_entropy, make_mlp, refresh_pass
from fedprune.selection import (
    CHUNK,
    BNReport,
    _split,
    _winner,
    adaptive_select,
    aggregate_bn,
    client_bn_pass,
    client_score,
    install_bn,
    iter_batches,
    vanilla_select,
)


# -- reference oracles: the clone-per-client protocol ---------------------------
# The selectors as they were before candidates became masks: every candidate
# a full masked network, one probe clone per (candidate, client), one
# refreshed network per candidate, every pass through the whole network, and
# the variance from ``x.var``. A BN layer normalizes as the kernels do, with
# g = scale * (var + BN_EPS) ** -0.5. The selectors must reproduce them
# exactly.

def oracle_update_bn_stats(net, x):
    for layer in net.layers:
        if layer.kind == "linear":
            x = x @ layer.weight
            if layer.bias is not None:
                x = x + layer.bias
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0)
        else:
            mu = x.mean(axis=0)
            var = x.var(axis=0)
            m = BN_MOMENTUM
            layer.mean = m * layer.mean + (1.0 - m) * mu
            layer.var = m * layer.var + (1.0 - m) * var
            x = ((x - mu) * (layer.scale * (var + BN_EPS) ** -0.5)
                 + layer.shift)


def oracle_forward_eval(net, x):
    for layer in net.layers:
        if layer.kind == "linear":
            x = x @ layer.weight
            if layer.bias is not None:
                x = x + layer.bias
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0)
        else:
            g = layer.scale * (layer.var + BN_EPS) ** -0.5
            x = x * g + (layer.shift - layer.mean * g)
    return x


def oracle_client_bn_pass(candidate, dev, batch_size=64):
    probe = candidate.clone()
    for x, _ in iter_batches(dev, batch_size):
        oracle_update_bn_stats(probe, x)
    return BNReport([(bn.mean.copy(), bn.var.copy())
                     for _, bn in probe.bn_layers()], len(dev))


def oracle_client_score(candidate, dev, batch_size=64):
    total = 0.0
    for x, y in iter_batches(dev, batch_size):
        total += cross_entropy(oracle_forward_eval(candidate, x), y) * len(y)
    return total / len(dev)


def oracle_select(scores, dev_sizes):
    """argmin over candidates of the dev-size-weighted mean loss; ties go to
    the lowest candidate position."""
    if not scores:
        raise ValueError("no candidates to select from")
    total = sum(dev_sizes)
    best_id = None
    best_score = None
    for cid in sorted(scores):
        agg = sum(n / total * s for n, s in zip(dev_sizes, scores[cid]))
        if best_score is None or agg < best_score:
            best_id, best_score = cid, agg
    return best_id


def oracle_aggregate_scores(scores, dev_sizes):
    total = sum(dev_sizes)
    return {cid: sum(n / total * s for n, s in zip(dev_sizes, per_client))
            for cid, per_client in scores.items()}


def oracle_adaptive_select(candidates, dev_sets, batch_size=64):
    dev_sizes = [len(dev) for dev in dev_sets]
    refreshed = {}
    for cid, net in candidates:
        reports = [oracle_client_bn_pass(net, dev, batch_size)
                   for dev in dev_sets]
        updated = net.clone()
        install_bn(updated, aggregate_bn(reports))
        refreshed[cid] = updated
    scores = {cid: [oracle_client_score(refreshed[cid], dev, batch_size)
                    for dev in dev_sets]
              for cid, _ in candidates}
    winner = oracle_select(scores, dev_sizes)
    return (winner, refreshed[winner],
            oracle_aggregate_scores(scores, dev_sizes))


def oracle_vanilla_select(candidates, dev_sets, batch_size=64):
    dev_sizes = [len(dev) for dev in dev_sets]
    scores = {cid: [oracle_client_score(net, dev, batch_size)
                    for dev in dev_sets]
              for cid, net in candidates}
    winner = oracle_select(scores, dev_sizes)
    winner_net = next(net for cid, net in candidates if cid == winner)
    return (winner, winner_net.clone(),
            oracle_aggregate_scores(scores, dev_sizes))


def masked(net, pool):
    """The candidates as the oracles take them: one masked network each."""
    return [(i, apply_mask(net, c.mask)) for i, c in enumerate(pool)]


def bn_pass(net, dev, batch_size=64):
    return client_bn_pass(net.layers, list(iter_batches(dev, batch_size)),
                          bn_stats(net))


def score(net, dev, batch_size=64):
    return client_score(net.layers, list(iter_batches(dev, batch_size)),
                        bn_stats(net))


def identity_bn_net():
    return Network([Linear(np.eye(2), np.zeros(2)),
                    BatchNorm(np.zeros(2), np.ones(2)),
                    Linear(np.eye(2), np.zeros(2))])


def constant_dataset(value, n=40):
    feats = np.full((n, 2), float(value))
    return Dataset(feats, np.zeros(n, dtype=np.int64), 2)


# -- client_bn_pass ----------------------------------------------------------

def test_bn_pass_single_batch_moving_update():
    net = identity_bn_net()
    dev = constant_dataset(5.0, n=8)
    rep = bn_pass(net, dev, batch_size=8)
    np.testing.assert_allclose(rep.stats[0][0], [0.5, 0.5])
    assert rep.samples == 8


def test_bn_pass_converges_to_constant_input():
    # 256 batches: the start's weight 0.9 ** 256 is below 2e-12
    net = identity_bn_net()
    dev = constant_dataset(3.0, n=1024)
    rep = bn_pass(net, dev, batch_size=4)
    np.testing.assert_allclose(rep.stats[0][0], 3.0, atol=1e-9)
    np.testing.assert_allclose(rep.stats[0][1], 0.0, atol=1e-9)


def test_bn_pass_leaves_candidate_untouched():
    net = make_mlp(4, [6], 3, seed=0)
    before = {k: v.copy() for k, v in net.params().items()}
    bn_before = [(l.mean.copy(), l.var.copy()) for _, l in net.bn_layers()]
    stats = bn_stats(net)
    given = list(stats)
    dev = make_blobs(3, 10, 4, 1.0, seed=1)
    rep = client_bn_pass(net.layers, list(iter_batches(dev, 8)), stats)
    assert all(a is b for a, b in zip(stats, given))
    assert rep.stats[0][0] is not given[0][0]
    assert all(a is b for a, b in zip(sum(stats, ()),
                                      sum(bn_stats(net), ())))
    for k, v in net.params().items():
        np.testing.assert_array_equal(v, before[k])
    for (m0, v0), (_, l) in zip(bn_before, net.bn_layers()):
        np.testing.assert_array_equal(l.mean, m0)
        np.testing.assert_array_equal(l.var, v0)


def test_bn_pass_stopping_at_last_bn_matches_full_tail_pass():
    # the pass skips the ReLU and head after the last BN layer; the report
    # must be the one a pass through every layer gives
    net = make_mlp(4, [6, 5], 3, seed=2)
    assert net.layers[-1].kind == "linear"
    batches = list(iter_batches(make_blobs(3, 10, 4, 1.0, seed=3), 8))
    full = bn_stats(net)
    for x, _ in batches:
        refresh_pass(net.layers, x, full)
    rep = client_bn_pass(net.layers, batches, bn_stats(net))
    assert rep.samples == 30
    assert len(rep.stats) == len(full) == 2
    for (mean, var), (m, v) in zip(rep.stats, full):
        np.testing.assert_array_equal(mean, m)
        np.testing.assert_array_equal(var, v)


def test_bn_pass_rejects_empty_dev():
    net = make_mlp(2, [4], 2, seed=0)
    ds = make_blobs(2, 5, 2, 1.0, seed=0)
    empty = Dataset.__new__(Dataset)
    empty.features = ds.features[:0]
    empty.labels = ds.labels[:0]
    empty.classes = 2
    with pytest.raises(ValueError):
        bn_pass(net, empty)
    net = make_mlp(2, [8, 8, 8], 2, seed=0)
    pool = generate_candidate_pool(net, 0.5, 2)
    with pytest.raises(ValueError):
        adaptive_select(net, pool, [ds, empty])
    with pytest.raises(ValueError):
        vanilla_select(net, pool, [ds, empty])


# -- aggregate_bn ----------------------------------------------------------------

def test_aggregate_weighted_mean():
    r1 = BNReport([(np.array([1.0]), np.array([1.0]))], 10)
    r2 = BNReport([(np.array([3.0]), np.array([1.0]))], 30)
    [(mean, var)] = aggregate_bn([r1, r2])
    np.testing.assert_allclose(mean, [2.5])
    np.testing.assert_allclose(var, [1.0])


def test_aggregate_single_client_identity():
    r = BNReport([(np.array([2.0, -1.0]), np.array([0.5, 4.0]))], 7)
    [(mean, var)] = aggregate_bn([r])
    np.testing.assert_allclose(mean, [2.0, -1.0])
    np.testing.assert_allclose(var, [0.5, 4.0])


def test_aggregate_equal_weights():
    reps = [BNReport([(np.array([v]), np.array([1.0]))], 5)
            for v in (0.0, 2.0, 4.0)]
    [(mean, _)] = aggregate_bn(reps)
    np.testing.assert_allclose(mean, [2.0])


def test_aggregate_averages_standard_deviations():
    # sigma averaging: ((1+3)/2)^2 = 4, where variance averaging gives 5
    reps = [BNReport([(np.zeros(1), np.array([1.0]))], 5),
            BNReport([(np.zeros(1), np.array([9.0]))], 5)]
    [(_, var)] = aggregate_bn(reps)
    np.testing.assert_allclose(var, [4.0])


def test_aggregate_matches_bruteforce_within_1e12():
    rng = np.random.default_rng(8)
    reps = []
    for _ in range(6):
        reps.append(BNReport([(rng.normal(size=4), rng.random(4)),
                              (rng.normal(size=3), rng.random(3))],
                             int(rng.integers(1, 50))))
    got = aggregate_bn(reps)
    total = sum(r.samples for r in reps)
    for layer in range(2):
        mu = np.zeros_like(reps[0].stats[layer][0])
        sigma = np.zeros_like(reps[0].stats[layer][1])
        for r in reps:
            mean, var = r.stats[layer]
            mu = mu + (r.samples / total) * mean
            sigma = sigma + (r.samples / total) * np.sqrt(var)
        assert np.max(np.abs(got[layer][0] - mu)) < 1e-12
        assert np.max(np.abs(got[layer][1] - sigma ** 2)) < 1e-12


def test_aggregate_shape_mismatch():
    r1 = BNReport([(np.zeros(2), np.ones(2))], 5)
    r2 = BNReport([(np.zeros(3), np.ones(3))], 5)
    with pytest.raises(ValueError):
        aggregate_bn([r1, r2])


# -- scoring and selection ---------------------------------------------------------

def test_uniform_model_scores_log_classes():
    net = Network([Linear(np.zeros((4, 10)), np.zeros(10))])
    dev = Dataset(np.random.default_rng(0).normal(size=(30, 4)),
                  np.tile(np.arange(10), 3), 10)
    assert score(net, dev) == pytest.approx(math.log(10), abs=1e-12)


def test_score_is_repeatable():
    net = make_mlp(4, [8], 3, seed=2)
    dev = make_blobs(3, 10, 4, 1.0, seed=3)
    assert score(net, dev) == score(net, dev)
    # one batch or many: the same dev-size-weighted mean up to rounding
    assert score(net, dev, batch_size=7) == pytest.approx(score(net, dev))


def test_select_lowest_weighted_loss():
    assert _winner({1: 2.0, 2: 1.5}) == 2
    assert _winner({5: 1.0}) == 5
    # the selectors' scores are the dev-size-weighted client losses
    net, pool, devs = oracle_fixture(0)
    winner, _, scores = vanilla_select(net, pool, devs, batch_size=8)
    total = sum(len(d) for d in devs)
    for cid, cand in masked(net, pool):
        assert scores[cid] == sum(len(d) / total * oracle_client_score(cand, d, 8)
                                  for d in devs)
    assert scores[winner] == min(scores.values())


def test_select_shift_invariance_and_ties():
    scores = {1: 1.75, 2: 1.25}
    base = _winner(scores)
    assert _winner({c: s + 10.0 for c, s in scores.items()}) == base
    assert _winner({9: 1.0, 3: 1.0}) == 3  # tie -> lowest position, in any order


# -- end-to-end selection -----------------------------------------------------------

def selection_fixture(seed=0):
    net = make_mlp(6, [32, 32, 32], 4, seed=seed)
    pool = generate_candidate_pool(net, 0.1, 3, seed=seed)
    devs = [make_blobs(4, 12, 6, 1.5, seed=100 + i) for i in range(3)]
    return net, pool, devs


def test_adaptive_select_returns_valid_candidate_and_trains_nothing():
    net, pool, devs = selection_fixture()
    before = {k: v.copy() for k, v in net.params().items()}
    stats = [(m.copy(), v.copy()) for m, v in bn_stats(net)]
    winner, winner_net, scores = adaptive_select(net, pool, devs,
                                                 batch_size=8)
    assert winner in range(len(pool))
    assert set(scores) == set(range(len(pool)))
    assert all(np.isfinite(s) for s in scores.values())
    for k, v in net.params().items():
        assert bits(v) == bits(before[k])
    for (m0, v0), (m, v) in zip(stats, bn_stats(net)):
        assert bits(m) == bits(m0) and bits(v) == bits(v0)
    # the winner keeps its masked parameter values, only statistics moved
    orig = apply_mask(net, pool[winner].mask)
    for k, v in winner_net.params().items():
        assert bits(v) == bits(orig.params()[k])


def test_adaptive_select_deterministic():
    net, pool, devs = selection_fixture(seed=5)
    a = adaptive_select(net, pool, devs, batch_size=8)
    b = adaptive_select(net, pool, devs, batch_size=8)
    assert a[0] == b[0] and a[2] == b[2]


def test_vanilla_and_adaptive_agree_when_stats_already_global():
    # single client: aggregated statistics equal the client's own refresh,
    # so installing them changes nothing that scoring order depends on
    net, pool, devs = selection_fixture(seed=7)
    devs = devs[:1]
    winner_v, _, _ = vanilla_select(net, pool, devs, batch_size=8)
    winner_a, _, _ = adaptive_select(net, pool, devs, batch_size=8)
    assert winner_v in range(len(pool))
    assert winner_a in range(len(pool))


def test_install_bn_shape_check():
    net = make_mlp(4, [8], 3, seed=0)
    with pytest.raises(ValueError):
        install_bn(net, [(np.zeros(3), np.ones(3))])


# -- mask selectors against the clone-per-client oracles ------------------------

def bits(a):
    return (a.shape, a.tobytes())


def assert_same_selection(got, want):
    assert got[0] == want[0]
    assert got[2] == want[2]
    net, ref = got[1], want[1]
    assert net.params().keys() == ref.params().keys()
    for key, p in net.params().items():
        assert bits(p) == bits(ref.params()[key]), key
    assert len(net.bn_layers()) == len(ref.bn_layers())
    for (_, a), (_, b) in zip(net.bn_layers(), ref.bn_layers()):
        assert bits(a.mean) == bits(b.mean)
        assert bits(a.var) == bits(b.var)


def oracle_fixture(seed, pool=6, batch_norm=True, dev_sizes=(17, 33, 9)):
    net = make_mlp(5, [24, 16, 12], 4, batch_norm=batch_norm, seed=seed)
    candidates = generate_candidate_pool(net, 0.2, pool, seed=seed)
    devs = []
    for i, n in enumerate(dev_sizes):
        ds = make_blobs(4, 10, 5, 1.5, seed=10 * seed + i)
        order = np.random.default_rng(10 * seed + i).permutation(len(ds))
        devs.append(ds.subset(order[:n]))
    return net, candidates, devs


def check_both(net, pool, devs, batch_size=8):
    assert_same_selection(
        adaptive_select(net, pool, devs, batch_size),
        oracle_adaptive_select(masked(net, pool), devs, batch_size))
    assert_same_selection(
        vanilla_select(net, pool, devs, batch_size),
        oracle_vanilla_select(masked(net, pool), devs, batch_size))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_selectors_match_oracles_exactly(seed):
    net, pool, devs = oracle_fixture(seed)
    # Linear, BN and ReLU before the first prunable tensor
    assert len(_split(net, pool)[0]) == 3
    check_both(net, pool, devs)


def test_selectors_match_oracles_with_singleton_tail_batches():
    # 17 = 2 * 8 + 1 and 9 = 8 + 1: every client's last batch has 1 sample
    net, pool, devs = oracle_fixture(4, dev_sizes=(17, 9, 1))
    assert [len(d) for d in devs] == [17, 9, 1]
    check_both(net, pool, devs, batch_size=8)


def test_selectors_match_oracles_with_no_shared_prefix():
    # masks on the first linear layer too: no layer is shared, and a mask
    # that drops -0.0 or keeps +0.0 weights must write the same bytes
    net, pool, devs = oracle_fixture(5)
    net.layers[0].weight[0, :4] = [0.0, -0.0, 0.0, -0.0]
    rng = np.random.default_rng(5)
    pool = [Candidate(c.layer_densities,
                      Mask({"0.weight": (rng.random((5, 24)) < 0.5),
                            **c.mask.slices}))
            for c in pool]
    assert _split(net, pool)[0] == []
    check_both(net, pool, devs)


def test_selectors_match_oracles_without_batch_norm():
    check_both(*oracle_fixture(7, batch_norm=False))


def test_selectors_match_oracles_with_a_single_candidate():
    check_both(*oracle_fixture(8, pool=1))


@pytest.mark.parametrize("size", [CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_selectors_match_oracles_across_chunk_edges(size):
    # one full chunk, a full chunk and a singleton, two full chunks and a
    # partial one; reversed, a winner from the first chunk lands in a later
    # one
    net, pool, devs = oracle_fixture(11, pool=size)
    for candidates in (pool, pool[::-1]):
        check_both(net, candidates, devs)


def bn_head_fixture(seed=12, pool=CHUNK + 2):
    """A hand-built network whose shared head ends in a BN layer, with
    affine BN parameters and moving statistics away from their defaults."""
    rng = np.random.default_rng(seed)

    def bn(width):
        return BatchNorm(rng.normal(size=width), rng.uniform(0.5, 2.0, width),
                         scale=rng.uniform(0.5, 1.5, width),
                         shift=rng.normal(size=width))

    def linear(fan_in, fan_out):
        return Linear(rng.normal(0.0, 0.5, (fan_in, fan_out)),
                      rng.normal(0.0, 0.1, fan_out))

    net = Network([linear(5, 14), ReLU(), bn(14),
                   linear(14, 12), bn(12), ReLU(),
                   linear(12, 10), ReLU(), bn(10),
                   linear(10, 4)])
    candidates = generate_candidate_pool(net, 0.3, pool, seed=seed)
    _, _, devs = oracle_fixture(seed)
    return net, candidates, devs


def test_selectors_match_oracles_with_a_head_ending_in_batch_norm():
    net, pool, devs = bn_head_fixture()
    head = _split(net, pool)[0]
    assert [layer.kind for layer in head] == ["linear", "relu", "batchnorm"]
    assert net.layers[-2].kind == "batchnorm"
    check_both(net, pool, devs)


def test_selection_passes_run_once_per_client_per_chunk(monkeypatch):
    # bench/tracer.py counts these calls
    net, pool, devs = oracle_fixture(13, pool=2 * CHUNK + 1)
    calls = []
    for name in ("client_bn_pass", "client_score"):
        fn = getattr(selection, name)
        monkeypatch.setattr(selection, name,
                            lambda *a, fn=fn, name=name:
                            calls.append(name) or fn(*a))
    adaptive_select(net, pool, devs, batch_size=8)
    assert sorted(calls) == (["client_bn_pass"] * 9 + ["client_score"] * 9)
    calls.clear()
    vanilla_select(net, pool, devs, batch_size=8)
    assert calls == ["client_score"] * 9


def test_identical_candidates_tie_to_the_lowest_id():
    # four copies of one candidate: all scores tie
    net, (first,), devs = oracle_fixture(10, pool=1)
    pool = [Candidate(dict(first.layer_densities), first.mask.copy())
            for _ in range(4)]
    for winner, _, scores in (adaptive_select(net, pool, devs, 8),
                              vanilla_select(net, pool, devs, 8)):
        assert winner == 0 and len(set(scores.values())) == 1
    check_both(net, pool, devs)


def test_selectors_reject_an_empty_pool():
    net, _, devs = oracle_fixture(0, pool=1)
    with pytest.raises(ValueError):
        adaptive_select(net, [], devs)
    with pytest.raises(ValueError):
        vanilla_select(net, [], devs)
    # candidates are stacked tensor by tensor, so they must mask the same
    # tensors, and at least one
    pool = generate_candidate_pool(net, 0.2, 2)
    for odd in (Mask({}), Mask(dict(list(pool[0].mask.slices.items())[:1]))):
        for select in (adaptive_select, vanilla_select):
            with pytest.raises(ValueError, match="non-empty set of tensors"):
                select(net, pool + [Candidate({}, odd)], devs)


def test_selection_clones_only_the_winner(monkeypatch):
    net, pool, devs = oracle_fixture(9)
    clones = []
    original = Network.clone
    monkeypatch.setattr(Network, "clone",
                        lambda net: clones.append(1) or original(net))
    adaptive_select(net, pool, devs, batch_size=8)
    vanilla_select(net, pool, devs, batch_size=8)
    bn_pass(net, devs[0], batch_size=8)
    assert len(clones) == 2
