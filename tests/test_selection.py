import math
import warnings
import weakref
from collections import namedtuple

import numpy as np
import pytest

from fedprune.data import Dataset, make_blobs
from fedprune.masking import Pool, apply_mask, generate_candidate_pool
from fedprune import selection
from fedprune.nn import BN_EPS, BN_MOMENTUM, BatchNorm, Linear, Network, \
    ReLU, cross_entropy, eval_pass, make_mlp, refresh_pass
from fedprune.selection import (
    CHUNK,
    BNReport,
    _distinct,
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
            layer.mean[...] = m * layer.mean + (1.0 - m) * mu
            layer.var[...] = m * layer.var + (1.0 - m) * var
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
    return PriorReport([(bn.mean.copy(), bn.var.copy())
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
        for (_, bn), (mean, var) in zip(updated.bn_layers(),
                                        _prior_aggregate_bn(reports),
                                        strict=True):
            bn.mean[...], bn.var[...] = mean, var
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


# -- the per-layer aggregation, frozen -------------------------------------
# ``aggregate_bn`` as it was while a report held one ``(mean, var)`` pair per
# BN layer. The aggregation over whole arrays must give its bits.

PriorReport = namedtuple("PriorReport", "stats samples")


def _prior_aggregate_bn(reports):
    if not reports:
        raise ValueError("need at least one BN report")
    first = reports[0].stats
    for rep in reports:
        if len(rep.stats) != len(first):
            raise ValueError("BN reports disagree on layer count")
        for (a, v), (b, _) in zip(rep.stats, first):
            if not a.shape == v.shape == b.shape:
                raise ValueError("BN reports disagree on layer shapes")
    total = sum(rep.samples for rep in reports)
    weights = [rep.samples / total for rep in reports]
    out = []
    for layer in range(len(first)):
        mu = sum(w * rep.stats[layer][0] for w, rep in zip(weights, reports))
        sigma = sum(w * np.sqrt(rep.stats[layer][1])
                    for w, rep in zip(weights, reports))
        out.append((mu, sigma ** 2))
    return out


def variances(widths):
    """The variance marker of BN layers of these widths, as
    ``Network.variances``."""
    return np.concatenate([np.zeros(0, bool)] + [np.arange(2 * w) >= w
                                                 for w in widths])


def as_pairs(stats, widths):
    """The ``(mean, var)`` of each BN layer of these widths in ``stats``,
    laid out like ``Network.stats`` on its last axis."""
    out, at = [], 0
    for w in widths:
        out.append((stats[..., at:at + w], stats[..., at + w:at + 2 * w]))
        at += 2 * w
    return out


def masked(net, pool):
    """The candidates as the oracles take them: one masked network each."""
    return [(i, apply_mask(net, pool.mask(i))) for i in range(len(pool))]


def dev_sets(devs):
    """The dev sets as the oracles take them: each ``(client, rows)`` pair's
    rows, copied out of the client's data."""
    return [client.subset(rows) for client, rows in devs]


def subpool(pool, rows):
    """The candidates at positions ``rows`` of ``pool``, in that order."""
    rows = list(rows)
    return Pool(pool.order, pool.shapes, [pool.shares[i] for i in rows],
                pool.counts[rows])


def reversed_pool(pool):
    return subpool(pool, reversed(range(len(pool))))


def bn_pass(net, dev, batch_size=64):
    return client_bn_pass(net.layers, list(iter_batches(dev, batch_size)),
                          net.stats)


def score(net, dev, batch_size=64):
    return client_score(net.layers, list(iter_batches(dev, batch_size)),
                        net.stats)


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
    np.testing.assert_allclose(rep.stats[:2], [0.5, 0.5])
    assert rep.samples == 8


def test_bn_pass_converges_to_constant_input():
    # 256 batches: the start's weight 0.9 ** 256 is below 2e-12
    net = identity_bn_net()
    dev = constant_dataset(3.0, n=1024)
    rep = bn_pass(net, dev, batch_size=4)
    np.testing.assert_allclose(rep.stats[:2], 3.0, atol=1e-9)
    np.testing.assert_allclose(rep.stats[2:], 0.0, atol=1e-9)


def test_bn_pass_leaves_candidate_untouched():
    net = make_mlp(4, [6], 3, seed=0)
    before = {k: v.copy() for k, v in net.params().items()}
    bn_before = [(l.mean.copy(), l.var.copy()) for _, l in net.bn_layers()]
    stats = net.stats
    dev = make_blobs(3, 10, 4, 1.0, seed=1)
    rep = client_bn_pass(net.layers, list(iter_batches(dev, 8)), stats)
    assert stats is net.stats and not np.shares_memory(rep.stats, stats)
    assert rep.stats.tobytes() != stats.tobytes()
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
    full = net.stats.copy()
    for x, _ in batches:
        refresh_pass(net.layers, x, full)
    rep = client_bn_pass(net.layers, batches, net.stats)
    assert rep.samples == 30
    assert rep.stats.shape == full.shape == (2 * (6 + 5),)
    np.testing.assert_array_equal(rep.stats, full)


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
    devs = [(ds, np.arange(len(ds))), (ds, np.arange(0))]
    with pytest.raises(ValueError, match="development dataset is empty"):
        adaptive_select(net, pool, devs)
    with pytest.raises(ValueError, match="development dataset is empty"):
        vanilla_select(net, pool, devs)


# -- aggregate_bn ----------------------------------------------------------------

ONE = variances([1])  # a mean, then a variance


def test_aggregate_weighted_mean():
    r1 = BNReport(np.array([1.0, 1.0]), 10)
    r2 = BNReport(np.array([3.0, 1.0]), 30)
    mean, var = aggregate_bn([r1, r2], ONE)
    np.testing.assert_allclose(mean, 2.5)
    np.testing.assert_allclose(var, 1.0)


def test_aggregate_single_client_identity():
    r = BNReport(np.array([2.0, -1.0, 0.5, 4.0]), 7)
    got = aggregate_bn([r], variances([2]))
    np.testing.assert_allclose(got, [2.0, -1.0, 0.5, 4.0])


def test_aggregate_equal_weights():
    reps = [BNReport(np.array([v, 1.0]), 5) for v in (0.0, 2.0, 4.0)]
    mean, _ = aggregate_bn(reps, ONE)
    np.testing.assert_allclose(mean, 2.0)


def test_aggregate_averages_standard_deviations():
    # sigma averaging: ((1+3)/2)^2 = 4, where variance averaging gives 5
    reps = [BNReport(np.array([0.0, 1.0]), 5),
            BNReport(np.array([0.0, 9.0]), 5)]
    _, var = aggregate_bn(reps, ONE)
    np.testing.assert_allclose(var, 4.0)


def test_aggregate_matches_bruteforce_within_1e12():
    rng = np.random.default_rng(8)
    reps = []
    for _ in range(6):
        reps.append(BNReport(np.concatenate([
            rng.normal(size=4), rng.random(4), rng.normal(size=3),
            rng.random(3)]), int(rng.integers(1, 50))))
    got = as_pairs(aggregate_bn(reps, variances([4, 3])), [4, 3])
    total = sum(r.samples for r in reps)
    for layer in range(2):
        mu = np.zeros_like(got[layer][0])
        sigma = np.zeros_like(got[layer][1])
        for r in reps:
            mean, var = as_pairs(r.stats, [4, 3])[layer]
            mu = mu + (r.samples / total) * mean
            sigma = sigma + (r.samples / total) * np.sqrt(var)
        assert np.max(np.abs(got[layer][0] - mu)) < 1e-12
        assert np.max(np.abs(got[layer][1] - sigma ** 2)) < 1e-12


def test_aggregate_shape_mismatch():
    r1 = BNReport(np.concatenate([np.zeros(2), np.ones(2)]), 5)
    r2 = BNReport(np.concatenate([np.zeros(3), np.ones(3)]), 5)
    with pytest.raises(ValueError):
        aggregate_bn([r1, r2], variances([2]))


def test_aggregate_rejects_a_variance_shaped_unlike_its_mean():
    # a (1,) variance would broadcast over every feature of the mean
    full = BNReport(np.concatenate([np.zeros(5), np.ones(5)]), 5)
    short = BNReport(np.concatenate([np.zeros(5), np.ones(1)]), 5)
    for reports in ([short], [full, short], [short, full]):
        with pytest.raises(ValueError):
            aggregate_bn(reports, variances([5]))


@pytest.mark.parametrize("rows", [None, 1, 3, CHUNK])
def test_aggregate_matches_the_per_layer_prior_bit_for_bit(rows):
    # network-shaped vectors and stacked (rows, size) reports: zero
    # variances, negative and signed-zero means, a single report and
    # unequal sample counts
    rng = np.random.default_rng(0 if rows is None else rows)
    widths = [5, 1, 3]
    shape = () if rows is None else (rows,)
    for n_reports in (1, 2, 7):
        reps = []
        for _ in range(n_reports):
            stats = rng.normal(size=(*shape, 2 * sum(widths)))
            stats[..., variances(widths)] **= 2
            stats[..., [5, 7]] = 0.0  # the first layer's variances
            stats[..., 0] = -0.0
            reps.append(BNReport(stats, int(rng.integers(1, 100))))
        got = aggregate_bn(reps, variances(widths))
        want = _prior_aggregate_bn([PriorReport(as_pairs(r.stats, widths),
                                                r.samples) for r in reps])
        assert got.shape == reps[0].stats.shape
        for pair, want_pair in zip(as_pairs(got, widths), want, strict=True):
            for a, b in zip(pair, want_pair):
                assert bits(np.ascontiguousarray(a)) == bits(b)


def test_aggregate_rejects_negative_variances_other_layouts_and_nothing():
    marker = variances([2, 3])
    good = BNReport(np.abs(np.random.default_rng(1).normal(size=10)), 4)
    # a negative mean is a mean; a negative variance at any entry raises
    signed = good.stats.copy()
    signed[~marker] *= -1.0
    aggregate_bn([good, BNReport(signed, 3)], marker)
    for at in np.flatnonzero(marker):
        bad = good.stats.copy()
        bad[at] = -1e-300
        for reports in ([BNReport(bad, 3)], [good, BNReport(bad, 3)]):
            with pytest.raises(ValueError, match="nonnegative"):
                aggregate_bn(reports, marker)
    # reports stacked unlike each other, or laid out unlike the marker
    stacked = BNReport(np.tile(good.stats, (2, 1)), 4)
    for reports, layout in (([good, stacked], marker),
                            ([stacked, good], marker), ([good], marker[:8]),
                            ([stacked], np.tile(marker, (2, 1)))):
        with pytest.raises(ValueError, match="layout"):
            aggregate_bn(reports, layout)
    with pytest.raises(ValueError, match="at least one"):
        aggregate_bn([], marker)


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
    sets = dev_sets(devs)
    total = sum(len(d) for d in sets)
    for cid, cand in masked(net, pool):
        assert scores[cid] == sum(len(d) / total * oracle_client_score(cand, d, 8)
                                  for d in sets)
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
    clients = [make_blobs(4, 12, 6, 1.5, seed=100 + i) for i in range(3)]
    return net, pool, [(ds, np.arange(len(ds))) for ds in clients]


def test_adaptive_select_returns_valid_candidate_and_trains_nothing():
    net, pool, devs = selection_fixture()
    before = {k: v.copy() for k, v in net.params().items()}
    stats = net.stats.copy()
    winner, winner_net, scores = adaptive_select(net, pool, devs,
                                                 batch_size=8)
    assert winner in range(len(pool))
    assert set(scores) == set(range(len(pool)))
    assert all(np.isfinite(s) for s in scores.values())
    for k, v in net.params().items():
        assert bits(v) == bits(before[k])
    assert bits(net.stats) == bits(stats)
    # the winner keeps its masked parameter values, only statistics moved
    orig = apply_mask(net, pool.mask(winner))
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
        install_bn(net, np.concatenate([np.zeros(3), np.ones(3)]))


def test_install_bn_rejects_a_variance_shaped_unlike_its_layer():
    net = make_mlp(4, [5, 3], 2, seed=0)
    before = net.stats.copy()
    for stats in (np.ones(15), np.ones(17), np.ones((1, 16)), np.ones(()),
                  np.ones((2, 16))):
        with pytest.raises(ValueError):
            install_bn(net, stats)
    # the check comes before any write
    assert net.stats.tobytes() == before.tobytes()
    install_bn(net, np.arange(16.0))
    assert [x.tolist() for _, bn in net.bn_layers()
            for x in (bn.mean, bn.var)] == [
        [0.0, 1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0, 9.0],
        [10.0, 11.0, 12.0], [13.0, 14.0, 15.0]]


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
    """A network, its candidate pool and one ``(client, rows)`` pair per dev
    size: a 40-row client and ``n`` of its rows in a random order."""
    net = make_mlp(5, [24, 16, 12], 4, batch_norm=batch_norm, seed=seed)
    candidates = generate_candidate_pool(net, 0.2, pool, seed=seed)
    devs = []
    for i, n in enumerate(dev_sizes):
        ds = make_blobs(4, 10, 5, 1.5, seed=10 * seed + i)
        order = np.random.default_rng(10 * seed + i).permutation(len(ds))
        devs.append((ds, order[:n]))
    return net, candidates, devs


def chunk_slices(net, pool):
    """Each chunk's ``(slices stacked by its first masked layer, distinct
    candidates)``."""
    firsts, _ = _distinct(pool)
    _, chunks = _split(net, pool, firsts)
    return [(tail[0].weight.shape[0], len(firsts[start:start + CHUNK]))
            for start, tail in zip(range(0, len(firsts), CHUNK), chunks)]


def assert_stacks_column_variants(net, pool):
    """Some chunk stacks fewer column variants than it has candidates, so
    the oracle comparison covers the gather by ``pick``."""
    assert any(v < c for v, c in chunk_slices(net, pool))


def check_both(net, pool, devs, batch_size=8):
    assert_same_selection(
        adaptive_select(net, pool, devs, batch_size),
        oracle_adaptive_select(masked(net, pool), dev_sets(devs), batch_size))
    assert_same_selection(
        vanilla_select(net, pool, devs, batch_size),
        oracle_vanilla_select(masked(net, pool), dev_sets(devs), batch_size))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_selectors_match_oracles_exactly(seed):
    net, pool, devs = oracle_fixture(seed)
    # Linear, BN and ReLU before the first prunable tensor
    assert len(_split(net, pool, [0])[0]) == 3
    assert_stacks_column_variants(net, pool)
    check_both(net, pool, devs)


def test_selectors_match_oracles_with_singleton_tail_batches():
    # 17 = 2 * 8 + 1 and 9 = 8 + 1: every client's last batch has 1 sample
    net, pool, devs = oracle_fixture(4, dev_sizes=(17, 9, 1))
    assert [len(rows) for _, rows in devs] == [17, 9, 1]
    assert_stacks_column_variants(net, pool)
    check_both(net, pool, devs, batch_size=8)


def test_selectors_match_oracles_with_no_shared_prefix():
    # masks on the first linear layer too: no layer is shared, and a mask
    # that drops -0.0 or keeps +0.0 weights must write the same bytes
    net, pool, devs = oracle_fixture(5)
    net.layers[0].weight[0, :4] = [0.0, -0.0, 0.0, -0.0]
    rng = np.random.default_rng(5)
    pool = Pool({"0.weight": rng.permutation(5 * 24), **pool.order},
                {"0.weight": (5, 24), **pool.shapes}, pool.shares,
                np.column_stack([rng.integers(30, 90, len(pool)),
                                 pool.counts]))
    assert _split(net, pool, [0])[0] == []
    zeros = [pool.mask(i).slices["0.weight"][0, :4] for i in range(len(pool))]
    assert any(m[1] == 0 or m[3] == 0 for m in zeros)  # a -0.0 dropped
    assert any(m[0] == 1 or m[2] == 1 for m in zeros)  # a +0.0 kept
    assert_stacks_column_variants(net, pool)
    check_both(net, pool, devs)


def test_selectors_match_oracles_without_batch_norm():
    net, pool, devs = oracle_fixture(7, batch_norm=False)
    assert_stacks_column_variants(net, pool)
    check_both(net, pool, devs)


def test_selectors_match_oracles_with_a_single_candidate():
    check_both(*oracle_fixture(8, pool=1))


def mask_bytes(pool):
    """What tells candidates' masks apart: each tensor's kept pattern."""
    return [tuple((key, m.tobytes()) for key, m in sorted(
        pool.mask(i).slices.items())) for i in range(len(pool))]


def distinct_fixture(seed, size):
    """``oracle_fixture`` with ``size`` candidates of pairwise different
    masks: the first ``size`` distinct ones of a larger pool, in pool order
    (selection scores each distinct mask once, so copies would shrink the
    chunks a test means to build)."""
    net, pool, devs = oracle_fixture(seed, pool=3 * size)
    keys = mask_bytes(pool)
    pool = subpool(pool, [i for i, key in enumerate(keys)
                          if keys.index(key) == i][:size])
    assert len(pool) == size
    return net, pool, devs


@pytest.mark.parametrize("size", [CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_selectors_match_oracles_across_chunk_edges(size):
    # one full chunk, a full chunk and a singleton, two full chunks and a
    # partial one; reversed, a winner from the first chunk lands in a later
    # one
    net, pool, devs = distinct_fixture(11, size)
    assert len(set(mask_bytes(pool))) == size
    assert_stacks_column_variants(net, pool)
    for candidates in (pool, reversed_pool(pool)):
        check_both(net, candidates, devs)


def count_passes(monkeypatch):
    """The names of the selection passes called, in call order; the bench
    tracer counts these calls."""
    calls = []
    for name in ("client_bn_pass", "client_score"):
        fn = getattr(selection, name)
        monkeypatch.setattr(selection, name,
                            lambda *a, fn=fn, name=name:
                            calls.append(name) or fn(*a))
    return calls


def test_copies_of_a_mask_are_scored_once_and_tie_to_the_first(monkeypatch):
    # 2 * CHUNK + 3 candidates from 5 masks, each mask's copies spread over
    # what would be different chunks were every candidate stacked; each
    # copy has its own shares, as two draws that round alike do
    net, masks, devs = distinct_fixture(14, 5)
    which = np.random.default_rng(14).permutation(np.arange(2 * CHUNK + 3) % 5)
    pool = subpool(masks, which)
    pool.shares = [{k: s + i for k, s in shares.items()}
                   for i, shares in enumerate(pool.shares)]
    for m in range(5):
        assert len({i // CHUNK for i in np.flatnonzero(which == m)}) > 1
    passes = len(devs) * math.ceil(5 / CHUNK)  # per client, per chunk
    calls = count_passes(monkeypatch)
    for candidates in (pool, reversed_pool(pool)):
        keys = mask_bytes(candidates)
        first = [keys.index(key) for key in keys]
        for select, bn_passes in ((adaptive_select, passes),
                                  (vanilla_select, 0)):
            calls.clear()
            winner, _, scores = select(net, candidates, devs, 8)
            assert sorted(calls) == (["client_bn_pass"] * bn_passes
                                     + ["client_score"] * passes)
            assert all(scores[i] == scores[first[i]] for i in scores)
            assert winner == first[winner]
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
    head = _split(net, pool, [0])[0]
    assert [layer.kind for layer in head] == ["linear", "relu", "batchnorm"]
    assert net.layers[-2].kind == "batchnorm"
    assert_stacks_column_variants(net, pool)
    check_both(net, pool, devs)


def test_selection_passes_run_once_per_client_per_chunk(monkeypatch):
    # 2 * CHUNK + 1 distinct masks make three chunks
    net, pool, devs = distinct_fixture(13, 2 * CHUNK + 1)
    assert len(set(mask_bytes(pool))) == 2 * CHUNK + 1
    calls = count_passes(monkeypatch)
    adaptive_select(net, pool, devs, batch_size=8)
    assert sorted(calls) == (["client_bn_pass"] * 9 + ["client_score"] * 9)
    calls.clear()
    vanilla_select(net, pool, devs, batch_size=8)
    assert calls == ["client_score"] * 9


def test_head_refresh_outputs_are_freed_before_any_chunk_is_scored(
        monkeypatch):
    # three chunks on three clients: every chunk is refreshed on every
    # client before any is scored, and by then the head's refresh-mode
    # outputs are gone, so one set of head outputs is alive at a time
    net, pool, devs = distinct_fixture(13, 2 * CHUNK + 1)
    outputs, alive = [], []
    refresh, score = selection.refresh_pass, selection.client_score

    def head_refresh(layers, x, stats, **kwargs):
        out = refresh(layers, x, stats, **kwargs)
        if not kwargs:  # the head's pass; a chunk's pass is stats_only
            outputs.append(weakref.ref(out))
        return out

    def first_score(*args):
        if not alive:
            alive.append(sum(ref() is not None for ref in outputs))
        return score(*args)

    monkeypatch.setattr(selection, "refresh_pass", head_refresh)
    monkeypatch.setattr(selection, "client_score", first_score)
    calls = count_passes(monkeypatch)
    adaptive_select(net, pool, devs, batch_size=8)
    assert len(outputs) == sum(math.ceil(len(rows) / 8) for _, rows in devs)
    assert alive == [0]
    assert calls == ["client_bn_pass"] * 9 + ["client_score"] * 9


def column_variants(pool, rows, key):
    """The most distinct kept columns of ``key`` that any one column has
    among the candidates at ``rows``."""
    masks = [pool.mask(i).slices[key] for i in rows]
    return max(len({m[:, f].tobytes() for m in masks})
               for f in range(masks[0].shape[1]))


def test_chunks_stack_one_slice_per_column_variant():
    # 2 * CHUNK + 1 distinct prefix masks of the candidate pool: the first
    # masked layer stacks each chunk's column variants, and each candidate's
    # pick takes every column from a slice that keeps what it keeps there
    net, pool, _ = distinct_fixture(13, 2 * CHUNK + 1)
    firsts, _ = _distinct(pool)
    _, chunks = _split(net, pool, firsts)
    key = next(iter(pool.order))
    slices = []
    for start, tail in zip(range(0, len(firsts), CHUNK), chunks):
        rows = firsts[start:start + CHUNK]
        stacked = tail[0].weight
        slices.append((len(stacked), len(rows)))
        assert len(stacked) == column_variants(pool, rows, key)
        [gather] = [layer for layer in tail if layer.kind == "linear"
                    and layer.pick is not None] or [None]
        width = stacked.shape[-1]
        if len(stacked) == len(rows):
            assert gather is None
            variant = np.arange(len(rows))[:, None] + np.zeros(width, int)
        else:
            assert gather is tail[3] and gather.pick.shape == (len(rows), width)
            variant, column = np.divmod(gather.pick, width)
            assert (column == np.arange(width)).all()
        for c, i in enumerate(rows):
            want = apply_mask(net, pool.mask(i)).params()[key]
            got = stacked[variant[c], :, np.arange(width)].T
            assert bits(got) == bits(want)
    assert slices == [(4, CHUNK), (3, CHUNK), (1, 1)]


def test_no_pass_reads_a_row_past_its_stack(monkeypatch):
    # the smoke sweep's pool at seed 0: its first chunk stacks 8 candidates
    # in 4 column variants, so the BN layers before the gather read 4 rows
    # of the chunk's statistics. Rows past each layer's stack are NaN in one
    # run and the pretrained values in the other; the refresh and eval
    # passes must give the same bits and leave those rows unwritten
    from fedprune import sim

    seen = []
    monkeypatch.setattr(sim, "adaptive_select", lambda *args: seen.append(
        args) or adaptive_select(*args))
    sim.setup_experiment(sim.ExperimentConfig(
        algorithm="AdaptiveBNOnly", rounds=2, pool_size=11, interval=1,
        granularity="entire"))
    [(net, pool, devs, batch_size)] = seen
    firsts, _ = _distinct(pool)
    head, chunks = _split(net, pool, firsts)
    tail = next(chunks)
    [at_gather] = [i for i, layer in enumerate(tail)
                   if layer.kind == "linear" and layer.pick is not None]
    assert (len(tail[0].weight), len(tail[at_gather].pick)) == (4, CHUNK)
    h = sum(2 * layer.mean.size for layer in head
            if layer.kind == "batchnorm")
    stack = []  # each entry's rows read: one per variant, then per candidate
    for i, layer in enumerate(tail):
        if layer.kind == "batchnorm":
            stack += [4 if i < at_gather else CHUNK] * 2 * layer.mean.size
    read = np.arange(CHUNK)[:, None] < np.array(stack)
    assert read.shape == (CHUNK, net.stats.size - h) and not read.all()
    client, rows = devs[0]
    x = refresh_pass(head, client.features[rows[:batch_size]],
                     net.stats[:h].copy())
    pretrained = np.tile(net.stats[h:], (CHUNK, 1))
    unread = pretrained.copy()
    unread[~read] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [(refresh_pass(tail, x, stats), eval_pass(tail, x, stats))
               for stats in (pretrained, unread)]
    for a, b in zip(*got):
        assert bits(a) == bits(b)
    assert bits(pretrained[read]) == bits(unread[read])
    assert np.isnan(unread[~read]).all()


def test_a_chunk_of_as_many_variants_as_candidates_stacks_candidates():
    # two candidates with different first-tensor counts differ in some
    # column: V == C, so each slice is a candidate's masked weight, and no
    # layer gathers
    net, pool, _ = oracle_fixture(0)
    pool = subpool(pool, [0, 2])
    assert pool.counts[0, 0] != pool.counts[1, 0]
    firsts, _ = _distinct(pool)
    _, [tail] = _split(net, pool, firsts)
    assert all(layer.kind != "linear" or layer.pick is None for layer in tail)
    for key in pool.order:
        stacked = tail[net.layer_of_key(key) - 3].weight
        assert len(stacked) == 2
        for c, i in enumerate(firsts):
            assert bits(stacked[c]) == bits(
                apply_mask(net, pool.mask(i)).params()[key])


def test_distinct_lists_ascending_rows_at_their_first_positions():
    net, masks, _ = distinct_fixture(14, 5)
    which = [3, 1, 3, 0, 4, 1, 2, 0, 4]
    pool = subpool(masks, which)
    rows = [tuple(row) for row in pool.counts.tolist()]
    firsts, index = _distinct(pool)
    assert [rows[i] for i in firsts] == sorted(set(rows))
    assert firsts == [rows.index(rows[i]) for i in firsts]
    assert [firsts[d] for d in index] == [rows.index(row) for row in rows]


def test_identical_candidates_tie_to_the_lowest_id():
    # four copies of one candidate: all scores tie
    net, first, devs = oracle_fixture(10, pool=1)
    pool = subpool(first, [0] * 4)
    for winner, _, scores in (adaptive_select(net, pool, devs, 8),
                              vanilla_select(net, pool, devs, 8)):
        assert winner == 0 and len(set(scores.values())) == 1
    check_both(net, pool, devs)


def test_selectors_reject_an_empty_pool():
    net, pool, devs = oracle_fixture(0, pool=1)
    empty = subpool(pool, [])
    assert len(empty) == 0 and empty.counts.shape == (0, len(pool.order))
    for select in (adaptive_select, vanilla_select):
        with pytest.raises(ValueError, match="no candidates"):
            select(net, empty, devs)


def test_selection_clones_only_the_winner(monkeypatch):
    net, pool, devs = oracle_fixture(9)
    clones = []
    original = Network.clone
    monkeypatch.setattr(Network, "clone",
                        lambda net: clones.append(1) or original(net))
    adaptive_select(net, pool, devs, batch_size=8)
    vanilla_select(net, pool, devs, batch_size=8)
    bn_pass(net, dev_sets(devs)[0], batch_size=8)
    assert len(clones) == 2
