import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from fedprune import costs
from fedprune.data import make_blobs
from fedprune.masking import Pool, keep_budget
from fedprune.nn import forward, make_mlp
from fedprune.progressive import target_layers
from fedprune.sim import (
    ALGORITHMS,
    ConfigError,
    ExperimentConfig,
    _client_update,
    _local_batches,
    adjust,
    evaluate_global,
    fedavg,
    load_checkpoint,
    plan_round,
    pretrain_server,
    run_experiment,
    run_round,
    save_checkpoint,
    selection_record,
    setup_experiment,
)


def tiny_config(**kw):
    base = dict(classes=4, per_class=60, dim=8, spread=1.0,
                clients=4, alpha=0.5, hidden=(24, 24, 24), rounds=6,
                local_epochs=2, batch_size=16, lr=0.05, pretrain_epochs=2,
                density=0.1, interval=2, stop_round=6, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


def own_update(state, k, round_index, collect):
    """``_client_update`` on a worker network of its own, with the round's
    rate vector, so that its upload outlives the next call."""
    rate = (None if state.mask is None
            else state.net.rate(state.mask, state.cfg.lr))
    return _client_update(state, k, round_index, collect, state.net.clone(),
                          rate)


def by_key(net, vec):
    """The tensors of a vector laid out like ``net.flat``, keyed like
    ``net.params()``: the tensors tile it in that order."""
    out, start = {}, 0
    for key, p in net.params().items():
        out[key] = vec[start:start + p.size].reshape(p.shape)
        start += p.size
    assert start == vec.size
    return out


# -- config validation ---------------------------------------------------------

def test_config_validation_reports_fields():
    cfg = tiny_config(algorithm="Nope", density=0.0, lr=-1.0)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    text = str(err.value)
    assert "algorithm" in text and "density" in text and "lr" in text


def test_config_validation_checks_blob_split_sizes():
    # 240 blobs: 48 test, 24 server and 168 training samples
    tiny_config(clients=168).validate()
    for kw, field in (({"clients": 169}, "clients"),
                      ({"server_ratio": 0.004}, "pretrain_epochs"),
                      ({"batch_size": 1}, "batch_size")):
        with pytest.raises(ConfigError) as err:
            tiny_config(**kw).validate()
        assert [m.split(":")[0] for m in err.value.issues] == [field]
    # without pretraining an empty server split is allowed
    tiny_config(server_ratio=0.004, pretrain_epochs=0).validate()


def test_config_validation_floors_the_split_ratios_as_written():
    # 100 blobs: 29 test, not the 28 of float 0.29 * 100, and 10 server
    # samples leave 61 for training
    tiny_config(per_class=25, test_ratio=0.29, clients=61).validate()
    with pytest.raises(ConfigError) as err:
        tiny_config(per_class=25, test_ratio=0.29, clients=62).validate()
    assert err.value.issues == ["clients: 61 training samples cannot give "
                                "each of 62 clients one"]


def test_auto_pool_size():
    assert tiny_config(density=0.01).resolved_pool_size() == 10
    assert tiny_config(density=0.05).resolved_pool_size() == 2
    assert tiny_config(pool_size=7).resolved_pool_size() == 7


# -- pretraining -----------------------------------------------------------------

def test_pretrain_zero_epochs_is_identity():
    net = make_mlp(4, [8], 3, seed=0)
    before = {k: v.copy() for k, v in net.params().items()}
    ds = make_blobs(3, 10, 4, 1.0, seed=0)
    pretrain_server(net, ds, 0, 0.05)
    for k, v in net.params().items():
        np.testing.assert_array_equal(v, before[k])


def test_pretrain_reduces_loss_on_separable_blobs():
    wins = 0
    for seed in range(5):
        ds = make_blobs(3, 40, 6, 0.5, seed=seed)
        net = make_mlp(6, [16], 3, seed=seed)
        _, loss0 = evaluate_global(net, ds)
        pretrain_server(net, ds, 5, 0.05, seed=seed)
        _, loss1 = evaluate_global(net, ds)
        wins += loss1 < loss0
    assert wins == 5


def test_pretrain_requires_data():
    net = make_mlp(4, [8], 3, seed=0)
    with pytest.raises(ValueError):
        pretrain_server(net, None, 2, 0.05)


def test_pretrain_deterministic():
    ds = make_blobs(3, 20, 4, 1.0, seed=1)
    nets = []
    for _ in range(2):
        net = make_mlp(4, [8], 3, seed=5)
        pretrain_server(net, ds, 3, 0.05, seed=9)
        nets.append(net)
    for k in nets[0].params():
        np.testing.assert_array_equal(nets[0].params()[k], nets[1].params()[k])


@pytest.mark.parametrize("epochs, batch_size", [(1, 48), (2, 48), (5, 6),
                                               (1000, 6)])
def test_pretraining_statistics_follow_the_per_step_rule(epochs, batch_size):
    # runs of 1, 2 (one step per epoch, so across an epoch boundary), 40 and
    # 8,000 steps: the same steps with one momentum update after each give
    # the same parameters, and moving statistics within 1e-12
    from fedprune.nn import BN_MOMENTUM, backward, sgd_step

    ds = make_blobs(3, 16, 4, 1.0, seed=0)
    net = make_mlp(4, [8, 8], 3, seed=1)
    ref = net.clone()
    pretrain_server(net, ds, epochs, 0.05, batch_size, seed=2)
    rng, m, steps = np.random.default_rng(2), BN_MOMENTUM, 0
    for _ in range(epochs):
        perm = rng.permutation(len(ds))
        for b in range(_local_batches(len(ds), batch_size)):
            idx = perm[b * batch_size:(b + 1) * batch_size]
            row = np.zeros(ref.stats.size)
            logits, cache = forward(ref, ds.features[idx], "train",
                                    moments=row)
            sgd_step(ref, backward(ref, logits, ds.labels[idx], cache)[1],
                     0.05)
            for _, bn in ref.bn_layers():
                n = bn.mean.size
                bn.mean[...] = m * bn.mean + (1.0 - m) * row[:n]
                bn.var[...] = m * bn.var + (1.0 - m) * row[n:2 * n]
                row = row[2 * n:]
            steps += 1
    assert steps == {1: 1, 2: 2, 5: 40, 1000: 8000}[epochs]
    assert net.flat.tobytes() == ref.flat.tobytes()
    for (_, bn), (_, want) in zip(net.bn_layers(), ref.bn_layers()):
        for got, value in ((bn.mean, want.mean), (bn.var, want.var)):
            assert np.all(np.abs(got - value) <= 1e-12 * np.abs(value))


# -- rounds ------------------------------------------------------------------------

def test_non_pruning_round_leaves_mask_bit_identical():
    state = setup_experiment(tiny_config(algorithm="FedTiny"))
    before = {k: m.copy() for k, m in state.mask.slices.items()}
    rm = run_round(state, 1)  # interval=2, so round 1 does not prune
    assert rm.targeted == [] and rm.grow_count == 0
    for k, m in state.mask.slices.items():
        np.testing.assert_array_equal(m, before[k])


def test_pruning_round_conserves_density_exactly():
    state = setup_experiment(tiny_config(algorithm="FedTiny"))
    kept_before, total = state.mask.counts()
    changed = False
    for r in range(1, 7):
        rm = run_round(state, r)
        kept, total_now = state.mask.counts()
        assert total_now == total and kept == kept_before
        assert kept == keep_budget(state.cfg.density, total)
        assert rm.grow_count == rm.drop_count
        if rm.grow_count > 0:
            changed = True
    assert changed  # at least one adjustment actually moved the mask


@pytest.mark.parametrize("algorithm", ["FedTiny", "ProgressiveOnly"])
def test_every_pruning_round_of_a_long_run_adjusts(algorithm, monkeypatch):
    from fedprune import sim

    cfg = tiny_config(algorithm=algorithm, granularity="block", rounds=100,
                      interval=10, stop_round=100, local_epochs=1)
    uploads = []
    client_update = sim._client_update

    def checked(state, k, round_index, collect, *args):
        # each upload holds at most ``a`` distinct pruned coordinates of
        # its layer in this round
        res = client_update(state, k, round_index, collect, *args)
        for key, buf in res.buffers.items():
            a, pruned = collect[key]
            assert len(buf) <= a
            assert len(np.unique(buf.index)) == len(buf)
            assert np.isin(buf.index, pruned).all()
            uploads.append(len(buf))
        return res

    monkeypatch.setattr(sim, "_client_update", checked)
    state = setup_experiment(cfg)
    total = state.mask.counts()[1]
    grown = []
    for r in range(1, 101):
        rm = run_round(state, r)
        assert state.mask.counts() == (keep_budget(cfg.density, total), total)
        assert (rm.kept, rm.total) == state.mask.counts()
        assert rm.buffer_violations == 0
        assert rm.grow_count == rm.drop_count
        for key, counts in rm.layers.items():
            assert counts["grow"] == counts["drop"]
            assert counts["kept"] == state.mask.slices[key].sum()
        if r % 10 == 0:
            assert target_layers(r, cfg.schedule(), state.net)
            grown.append(rm.grow_count)
    # round 100's cosine count floors to 0 at this size
    assert len(grown) == 10 and all(g > 0 for g in grown[:9])
    assert uploads and min(uploads) > 0


def test_single_client_aggregation_is_identity():
    cfg = tiny_config(algorithm="DenseFedAvg", clients=1, rounds=1,
                      local_epochs=1)
    state = setup_experiment(cfg)
    upload = own_update(state, 0, 1, {})
    flat = upload.flat.copy()
    fedavg(state, [upload], upload.bn.samples)
    np.testing.assert_allclose(state.net.flat, flat, rtol=0, atol=1e-12)
    for (_, bn), (mean, var) in zip(state.net.bn_layers(), upload.bn.stats):
        np.testing.assert_allclose(bn.mean, mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(bn.var, var, rtol=1e-12, atol=0)


def test_masked_algorithms_stay_feasible_every_round():
    for algorithm in ("StaticRandom", "StaticMagnitude", "AdaptiveBNOnly"):
        state = setup_experiment(tiny_config(algorithm=algorithm, rounds=3))
        for r in range(1, 4):
            rm = run_round(state, r)
            kept, total = state.mask.counts()
            assert kept == keep_budget(state.cfg.density, total)
            assert rm.grow_count == 0  # static masks never change


def test_masks_keep_the_whole_budget_after_setup():
    # the paper defaults: 409 of 8192 weights at density 0.05
    for algorithm in ("FedTiny", "ProgressiveOnly", "AdaptiveBNOnly",
                      "StaticRandom", "StaticMagnitude"):
        cfg = ExperimentConfig(algorithm=algorithm)
        kept, total = setup_experiment(cfg).mask.counts()
        assert kept == keep_budget(cfg.density, total) == 409
    for density in (0.29, 0.1, 0.05):
        state = setup_experiment(tiny_config(algorithm="FedTiny",
                                             density=density))
        kept, total = state.mask.counts()
        assert kept == keep_budget(density, total)


def test_activation_memory_is_sized_by_the_largest_client():
    # client 0 holds 4 samples, fewer than a batch; others hold up to 77
    cfg = tiny_config(algorithm="FedTiny", alpha=0.3, seed=3, batch_size=32)
    state = setup_experiment(cfg)
    sizes = [len(client) for client in state.clients]
    assert sizes[0] < cfg.batch_size < max(sizes)

    def memory(batch):  # round 1 collects no top-K gradients
        return costs.training_memory(
            cfg.cost_tag(), costs.dense_param_bytes(state.net, cfg.bits),
            costs.model_storage(state.net, state.mask, cfg.bits)["bytes"],
            costs.activation_bytes(state.net, batch, cfg.bits), cfg.bits)

    expected, client_0 = memory(cfg.batch_size), memory(sizes[0])
    assert run_round(state, 1).memory_bytes == expected > client_0


def test_dense_fedavg_learns_blobs(tmp_path):
    # sanity: dense training reaches high train-pool accuracy quickly
    hits = 0
    for seed in range(3):
        cfg = tiny_config(algorithm="DenseFedAvg", rounds=15, seed=seed,
                          spread=0.5, test_ratio=0.0, server_ratio=0.1)
        metrics, _ = run_experiment(cfg, tmp_path / str(seed))
        if metrics[-1].accuracy > 0.9:
            hits += 1
    assert hits == 3


def test_client_fraction_sampling_deterministic(tmp_path):
    cfg = tiny_config(algorithm="DenseFedAvg", client_fraction=0.5, rounds=2)
    a = run_experiment(cfg, tmp_path / "a")[0]
    b = run_experiment(cfg, tmp_path / "b")[0]
    assert [m.accuracy for m in a] == [m.accuracy for m in b]


def test_each_participant_steps_once_per_local_batch(monkeypatch):
    # training and the cost model count batches by one rule: clients 0 and
    # 3 hold 89 and 41 samples, so each skips a one-sample tail
    from fedprune import sim

    cfg = tiny_config(algorithm="DenseFedAvg", seed=1, batch_size=8,
                      client_fraction=0.75, pretrain_epochs=0)
    state = setup_experiment(cfg)
    assert [len(c) % 8 for c in state.clients] == [1, 4, 2, 1]
    current, steps = [], {}
    client_update, sgd_step = sim._client_update, sim.sgd_step

    def update(state, k, *args):
        current.append(k)
        return client_update(state, k, *args)

    def step(*args):
        steps[current[-1]] = steps.get(current[-1], 0) + 1
        return sgd_step(*args)

    monkeypatch.setattr(sim, "_client_update", update)
    monkeypatch.setattr(sim, "sgd_step", step)
    run_round(state, 1)
    assert current == [0, 1, 3]  # both one-sample tails take part
    assert steps == {k: cfg.local_epochs * _local_batches(
        len(state.clients[k]), cfg.batch_size) for k in current}


# -- aggregation oracle --------------------------------------------------------------

def test_fedavg_matches_bruteforce_weighted_average():
    # the fold takes each upload as its client returns; every client still
    # trains from the round's starting model, on one worker network as in
    # a round, and uploads what a fresh clone of that model would
    cfg = tiny_config(algorithm="DenseFedAvg", rounds=1, local_epochs=1)
    state = setup_experiment(cfg)
    eager = [own_update(state, k, 1, {}).flat for k in range(cfg.clients)]
    copies = []
    worker = state.net.clone()

    def uploads():
        for k in range(cfg.clients):
            res = _client_update(state, k, 1, {}, worker, None)
            copies.append(res.flat.copy())
            yield res

    weights = [len(c) for c in state.clients]
    total = sum(weights)
    results = fedavg(state, uploads(), total)
    assert [res.flat for res in results] == [None] * cfg.clients
    assert [c.tobytes() for c in copies] == [e.tobytes() for e in eager]
    uploaded = [by_key(state.net, flat) for flat in copies]
    for key, p in state.net.params().items():
        expected = np.zeros_like(p)
        for up, w in zip(uploaded, weights):
            expected = expected + (w / total) * up[key]
        assert np.max(np.abs(p - expected)) < 1e-12


def test_fedavg_zeroes_masked_coordinates_of_any_upload():
    # trained uploads are already zero where the mask prunes; fedavg must
    # hold the global model to its mask even when one is not
    state = setup_experiment(tiny_config(algorithm="StaticRandom",
                                         rounds=1, local_epochs=1))
    uploads = [own_update(state, k, 1, {}) for k in range(2)]
    uploads[0].flat += 1.0
    fedavg(state, iter(uploads), sum(up.bn.samples for up in uploads))
    zero = state.net.masked_out(state.mask)
    assert zero.any()
    assert state.net.flat[zero].tobytes() == np.zeros(zero.sum()).tobytes()
    assert np.all(state.net.flat[~zero] != 0.0)


def test_plan_round_pairs_each_adjusted_layer_with_its_pruned_indices():
    state = setup_experiment(tiny_config(algorithm="FedTiny",
                                         granularity="entire"))
    assert plan_round(state, 1) == ({}, False)  # interval=2
    collect, clamped = plan_round(state, 2)
    assert list(collect) == list(state.mask.slices) and not clamped
    for key, (a, pruned) in collect.items():
        sl = state.mask.slices[key].reshape(-1)
        np.testing.assert_array_equal(pruned, np.flatnonzero(sl == 0))
        assert 0 < a <= len(pruned)


def test_adjust_skips_a_layer_no_participant_uploaded_gradients_for():
    # a one-sample client trains no batch and collects no gradients (BN
    # batch statistics need two samples), so a targeted layer gets none
    state = setup_experiment(tiny_config(algorithm="FedTiny",
                                         granularity="entire"))
    state.clients = [client.subset([0]) for client in state.clients]
    collect, _ = plan_round(state, 2)
    assert collect
    results = [own_update(state, k, 2, collect)
               for k in range(len(state.clients))]
    assert not any(res.buffers for res in results)
    before, kept = state.mask.copy(), state.mask.counts()
    results = fedavg(state, results, sum(len(c) for c in state.clients))
    layers = adjust(state, results, collect)
    assert layers == {}  # every key of collect is skipped
    assert state.mask.counts() == kept
    for key, sl in state.mask.slices.items():
        assert sl.tobytes() == before.slices[key].tobytes()


# -- determinism -----------------------------------------------------------------------

def test_metric_files_are_byte_identical_across_runs(tmp_path):
    cfg = tiny_config(algorithm="FedTiny", rounds=4)
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "a/metrics.csv").read_bytes() == \
        (tmp_path / "b/metrics.csv").read_bytes()


# -- evaluation ------------------------------------------------------------------------

def test_evaluate_memorizing_model():
    ds = make_blobs(3, 30, 5, 0.2, seed=2)
    net = make_mlp(5, [32], 3, seed=0)
    pretrain_server(net, ds, 30, 0.1, seed=0)
    assert net.grad is None  # clients train clones of the pretrained model
    acc, loss = evaluate_global(net, ds)
    assert acc > 0.95 and np.isfinite(loss)


def test_uniform_model_accuracy_near_chance():
    accs = []
    for seed in range(5):
        ds = make_blobs(5, 60, 4, 1.0, seed=seed)
        net = make_mlp(4, [8], 5, seed=seed)
        final = [l for l in net.layers if l.kind == "linear"][-1]
        final.weight[...] = 0.0
        final.bias[...] = 0.0
        acc, _ = evaluate_global(net, ds)
        accs.append(acc)
    assert abs(np.mean(accs) - 0.2) < 0.05


# -- checkpoints -------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    state = setup_experiment(tiny_config(algorithm="FedTiny"))
    run_round(state, 1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, state.net, state.mask, {"note": 1})
    net, mask, extra = load_checkpoint(path)
    assert extra == {"note": 1}
    # each linear spec of the header says whether the layer has a bias:
    # only the head does
    with open(path, "rb") as fh:
        specs = json.loads(fh.readline())["layers"]
    assert [spec["bias"] for spec in specs if spec["kind"] == "linear"] == [
        False, False, False, True]
    assert [layer.bias is None for layer in net.layers
            if layer.kind == "linear"] == [True, True, True, False]
    for key, p in state.net.params().items():
        np.testing.assert_array_equal(p, net.params()[key])
    for key, m in state.mask.slices.items():
        np.testing.assert_array_equal(m, mask.slices[key])
    x = np.random.default_rng(0).normal(size=(4, state.net.input_dim))
    a, _ = forward(state.net, x, "eval")
    b, _ = forward(net, x, "eval")
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("width", [1, 7, 32, 4096])
def test_checkpoint_save_then_load_returns_every_bit(tmp_path, width):
    # signed zeros, subnormals, infinities and NaN included; two saves of the
    # same model are byte-equal, and the sections follow the header line in
    # order as little-endian float64 and uint8. The first hidden layer runs
    # from one unit through odd widths to one far wider than the rest; half
    # the weights are kept, so that a one-unit layer still keeps enough
    state = setup_experiment(tiny_config(algorithm="FedTiny", density=0.5,
                                         hidden=(width, 32)))
    run_round(state, 1)
    state.net.flat[:5] = [-0.0, 5e-324, -np.inf, np.inf, np.nan]
    state.net.bn_layers()[0][1].mean[0] = -0.0
    extra = {"algorithm": "FedTiny", "note": [1.5, None, "x"]}
    paths = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
    for path in paths:
        save_checkpoint(path, state.net, state.mask, extra)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    net, mask, got = load_checkpoint(paths[0])
    assert got == extra
    assert net.flat.tobytes() == state.net.flat.tobytes()
    for (_, a), (_, b) in zip(net.bn_layers(), state.net.bn_layers(),
                              strict=True):
        assert a.mean.tobytes() == b.mean.tobytes()
        assert a.var.tobytes() == b.var.tobytes()
    assert list(mask.slices) == list(state.mask.slices)
    for key, sl in state.mask.slices.items():
        assert mask.slices[key].dtype == np.uint8
        assert mask.slices[key].tobytes() == sl.tobytes()
    head, body = paths[0].read_bytes().split(b"\n", 1)
    stats = [x for _, bn in state.net.bn_layers() for x in (bn.mean, bn.var)]
    assert body == (state.net.flat.astype("<f8").tobytes()
                    + np.concatenate(stats).astype("<f8").tobytes()
                    + np.concatenate([state.mask.slices[key].reshape(-1)
                                      for key in state.net.prunable_keys()]
                                     ).astype(np.uint8).tobytes())
    assert [name for name, _, _ in json.loads(head)["sections"]] == [
        "flat", "bn_stats", "mask"]
    # without a mask, the same bytes up to the mask section
    save_checkpoint(paths[1], state.net, None)
    bare_head, bare_body = paths[1].read_bytes().split(b"\n", 1)
    assert json.loads(bare_head)["sections"] == json.loads(head)["sections"][:2]
    assert bare_body == body[:8 * (net.flat.size + sum(x.size for x in stats))]
    assert load_checkpoint(paths[1])[1] is None


def assert_stats_are_views(net):
    """Every BN layer's mean and variance are the views of ``net.stats``
    that tile it, each layer's mean then its variance, in layer order."""
    at = 0
    base = net.stats.__array_interface__["data"][0]
    for _, bn in net.bn_layers():
        for vec in (bn.mean, bn.var):
            assert np.shares_memory(vec, net.stats)
            assert vec.__array_interface__["data"][0] == base + 8 * at
            assert vec.tobytes() == net.stats[at:at + vec.size].tobytes()
            at += vec.size
    assert at == net.stats.size


def test_bn_statistics_stay_views_of_stats(tmp_path):
    from fedprune.nn import update_bn_stats
    from fedprune.sim import _train_one_epoch

    state = setup_experiment(tiny_config(algorithm="FedTiny", rounds=1))
    net = state.net
    assert_stats_are_views(make_mlp(5, [4, 3], 2))
    assert_stats_are_views(net)
    twin = net.clone()
    assert_stats_are_views(twin)
    assert not np.shares_memory(twin.stats, net.stats)
    before = twin.stats.copy()
    _train_one_epoch(twin, state.clients[0], None, None, 16, 0.05,
                     np.random.default_rng(0))
    assert_stats_are_views(twin)
    assert twin.stats.tobytes() != before.tobytes()
    assert net.stats.tobytes() != twin.stats.tobytes()
    before = twin.stats.copy()
    update_bn_stats(twin, state.clients[0].features[:16])
    assert_stats_are_views(twin)
    assert twin.stats.tobytes() != before.tobytes()
    before = net.stats.copy()
    fedavg(state, (own_update(state, k, 1, {}) for k in range(2)),
           sum(len(state.clients[k]) for k in range(2)))
    assert_stats_are_views(net)
    assert net.stats.tobytes() != before.tobytes()
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net, state.mask)
    loaded, _, _ = load_checkpoint(path)
    assert_stats_are_views(loaded)
    assert loaded.stats.tobytes() == net.stats.tobytes()
    # the bn_stats section is ``stats`` as written
    header, body = path.read_bytes().split(b"\n", 1)
    (_, _, n_flat), (name, _, n_bn), _ = json.loads(header)["sections"]
    assert (name, n_bn) == ("bn_stats", net.stats.size)
    assert (body[8 * n_flat:8 * (n_flat + n_bn)]
            == net.stats.astype("<f8").tobytes())


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="unreadable checkpoint"):
        load_checkpoint(bad)


# -- metrics files ------------------------------------------------------------------------

def test_run_directory_artifacts(tmp_path):
    cfg = tiny_config(algorithm="StaticRandom", rounds=3)
    metrics, state = run_experiment(cfg, out_dir=tmp_path)
    assert (tmp_path / "metrics.csv").exists()
    assert (tmp_path / "metrics.jsonl").exists()
    assert (tmp_path / "final.ckpt").exists()
    lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "round,accuracy,loss,density,peak_flops,memory_bytes"
    assert len(lines) == 4
    records = [json.loads(l) for l in
               (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert [r["round"] for r in records] == [1, 2, 3]
    assert all(r["density"] <= cfg.density for r in records)


def test_topk_path_matches_heap_oracles_byte_for_byte(tmp_path, monkeypatch):
    from test_progressive import (oracle_aggregate_topk,
                                  oracle_plan_grow_prune, oracle_topk_collect)

    from fedprune import sim

    def run(out):
        cfg = ExperimentConfig(granularity="entire", interval=1,
                               hidden=(32, 32, 32), rounds=4)
        run_experiment(cfg, out_dir=out)
        return [(out / name).read_bytes()
                for name in ("metrics.csv", "final.ckpt")]

    array_path = run(tmp_path / "array")
    grown = [json.loads(line)["grow_count"] for line in
             (tmp_path / "array" / "metrics.jsonl").read_text().splitlines()]
    assert all(g > 0 for g in grown)  # every round adjusted the mask
    monkeypatch.setattr(sim, "topk_collect", oracle_topk_collect)
    monkeypatch.setattr(sim, "aggregate_topk", oracle_aggregate_topk)
    monkeypatch.setattr(sim, "plan_grow_prune", oracle_plan_grow_prune)
    assert run(tmp_path / "heap") == array_path


def test_per_layer_counts_sum_to_round_totals(tmp_path):
    cfg = tiny_config(granularity="entire", interval=1, rounds=4)
    run_experiment(cfg, out_dir=tmp_path)
    records = [json.loads(line) for line in
               (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert any(rec["layers"] for rec in records)
    for rec in records:
        assert set(rec["layers"]) <= set(rec["targeted"])
        for field, total in (("grow", "grow_count"), ("drop", "drop_count"),
                             ("shortfall", "shortfall")):
            assert sum(c[field] for c in rec["layers"].values()) == rec[total]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_metrics_record_kept_counts(tmp_path, algorithm):
    # the density budget can be checked from metrics.jsonl alone
    cfg = tiny_config(algorithm=algorithm, granularity="entire", interval=1,
                      rounds=4)
    metrics, state = run_experiment(cfg, out_dir=tmp_path)
    records = [json.loads(line) for line in
               (tmp_path / "metrics.jsonl").read_text().splitlines()]
    n = sum(state.net.params()[key].size for key in state.net.prunable_keys())
    for rm, rec in zip(metrics, records):
        assert (rec["kept"], rec["total"]) == (rm.kept, rm.total)
        assert rec["total"] == n
        if algorithm == "DenseFedAvg":
            assert rec["kept"] == n
        else:
            assert rec["kept"] == keep_budget(cfg.density, n)
        assert rec["density"] == rec["kept"] / n
    if algorithm in ("FedTiny", "ProgressiveOnly"):
        assert all(rec["layers"] for rec in records)
        # after the last round the checkpoint's mask is the round's mask
        _, mask, _ = load_checkpoint(tmp_path / "final.ckpt")
        for key, counts in records[-1]["layers"].items():
            assert counts["kept"] == mask.slices[key].sum()


# the dev sizes of the 38-, 34-, 58- and 38-row clients at seed 0: 17 rows
# end in a one-row batch of 16, 1.0 takes each client's whole data, and 0.01
# one row
@pytest.mark.parametrize("algorithm, dev_ratio, dev_sizes", [
    pytest.param("FedTiny", 0.3, [11, 10, 17, 11], id="FedTiny"),
    pytest.param("ProgressiveOnly", 0.3, [11, 10, 17, 11],
                 id="ProgressiveOnly"),
    pytest.param("FedTiny", 1.0, [38, 34, 58, 38], id="FedTiny-whole"),
    pytest.param("ProgressiveOnly", 1.0, [38, 34, 58, 38],
                 id="ProgressiveOnly-whole"),
    pytest.param("FedTiny", 0.01, [1, 1, 1, 1], id="FedTiny-one-row"),
    pytest.param("ProgressiveOnly", 0.01, [1, 1, 1, 1],
                 id="ProgressiveOnly-one-row")])
def test_selection_path_matches_clone_oracles_byte_for_byte(
        tmp_path, monkeypatch, algorithm, dev_ratio, dev_sizes):
    from test_selection import dev_sets, masked, oracle_adaptive_select, \
        oracle_vanilla_select

    from fedprune import sim

    def run(out):
        cfg = tiny_config(algorithm=algorithm, pool_size=8,
                          dev_ratio=dev_ratio, rounds=4)
        run_experiment(cfg, out_dir=out)
        return [(out / name).read_bytes()
                for name in ("metrics.csv", "final.ckpt", "selection.json")]

    drawn, draw = [], sim.dev_indices

    def counted(n, *args, **kwargs):
        rows = draw(n, *args, **kwargs)
        drawn.append((n, len(rows)))
        return rows

    monkeypatch.setattr(sim, "dev_indices", counted)
    shared = run(tmp_path / "shared")
    assert drawn == list(zip([38, 34, 58, 38], dev_sizes))
    monkeypatch.setattr(
        sim, "adaptive_select",
        lambda net, pool, devs, batch_size: oracle_adaptive_select(
            masked(net, pool), dev_sets(devs), batch_size))
    monkeypatch.setattr(
        sim, "vanilla_select",
        lambda net, pool, devs, batch_size: oracle_vanilla_select(
            masked(net, pool), dev_sets(devs), batch_size))
    assert run(tmp_path / "oracle") == shared


@pytest.mark.parametrize("algorithm", ["FedTiny", "ProgressiveOnly"])
def test_setup_clones_only_the_winner(monkeypatch, algorithm):
    from fedprune.nn import Network

    clones = []
    original = Network.clone
    monkeypatch.setattr(Network, "clone",
                        lambda net: clones.append(1) or original(net))
    state = setup_experiment(tiny_config(algorithm=algorithm, pool_size=8))
    assert len(state.selection["candidates"]) == 8
    assert len(clones) == 1


@pytest.mark.parametrize("test_ratio", [0.2, 0.0])
def test_setup_holds_no_split_past_its_last_read(monkeypatch, test_ratio):
    from fedprune import sim

    refs, seen = {}, {}
    build, partition = sim.build_dataset, sim.dirichlet_partition
    pretrain, pool = sim.pretrain_server, sim.generate_candidate_pool

    def live(*names):
        return {name: refs[name]() is not None for name in names}

    def built(cfg):
        ds = build(cfg)
        refs["dataset"] = weakref.ref(ds)
        return ds

    def partitioned(ds, *args, **kwargs):
        refs["pool"] = weakref.ref(ds)
        return partition(ds, *args, **kwargs)

    def pretrained(net, ds, *args, **kwargs):
        refs["server"] = weakref.ref(ds)
        seen["pretrain"] = live("dataset", "pool")
        return pretrain(net, ds, *args, **kwargs)

    def pooled(*args, **kwargs):
        seen["pool"] = live("dataset", "pool", "server")
        return pool(*args, **kwargs)

    monkeypatch.setattr(sim, "build_dataset", built)
    monkeypatch.setattr(sim, "dirichlet_partition", partitioned)
    monkeypatch.setattr(sim, "pretrain_server", pretrained)
    monkeypatch.setattr(sim, "generate_candidate_pool", pooled)
    state = setup_experiment(tiny_config(test_ratio=test_ratio))
    # with no held-out split the training pool is the test set
    fallback = test_ratio == 0.0
    assert seen["pretrain"] == {"dataset": False, "pool": fallback}
    assert seen["pool"] == {"dataset": False, "pool": fallback,
                            "server": False}
    assert (refs["pool"]() is state.test_set) == fallback


@pytest.mark.parametrize("algorithm", ["FedTiny", "ProgressiveOnly",
                                       "AdaptiveBNOnly"])
def test_setup_copies_no_rows_after_the_partition(monkeypatch, algorithm):
    # a dev set is its client's row indices, and selection gathers each dev
    # batch as it reads it: once the clients hold their rows, setup copies
    # no dataset
    from fedprune import sim
    from fedprune.data import Dataset

    partition, subset = sim.dirichlet_partition, Dataset.subset
    partitioned, copies = [], []

    def partition_once(*args, **kwargs):
        clients = partition(*args, **kwargs)
        partitioned.append(len(clients))
        return clients

    def copied(ds, indices):
        if partitioned:
            copies.append(len(indices))
        return subset(ds, indices)

    monkeypatch.setattr(sim, "dirichlet_partition", partition_once)
    monkeypatch.setattr(Dataset, "subset", copied)
    state = setup_experiment(tiny_config(algorithm=algorithm, pool_size=8))
    assert partitioned == [state.cfg.clients]
    assert state.selection is not None
    assert copies == []


def test_collection_pass_never_reaches_the_upload():
    # the top-K collection runs a train-mode forward on the trained local
    # network, which advances its BN statistics; the upload must be the
    # state from before that pass
    state = setup_experiment(tiny_config(algorithm="FedTiny"))
    collect = {key: (5, np.flatnonzero(m.reshape(-1) == 0))
               for key, m in state.mask.slices.items()}
    with_pass = own_update(state, 0, 2, collect)
    without = own_update(state, 0, 2, {})
    assert set(with_pass.buffers) == set(collect) and not without.buffers
    assert with_pass.flat.shape == without.flat.shape
    assert with_pass.flat.tobytes() == without.flat.tobytes()
    got, want = with_pass.bn.stats, without.bn.stats
    assert len(got) == len(want) > 0
    for (mean, var), (want_mean, want_var) in zip(got, want):
        assert mean.tobytes() == want_mean.tobytes()
        assert var.tobytes() == want_var.tobytes()
    # and what the fold makes of either upload is the same global model
    folded = [replace(state, net=state.net.clone()) for _ in range(2)]
    for each, res in zip(folded, (with_pass, without)):
        fedavg(each, [res], res.bn.samples)
    assert folded[0].net.flat.tobytes() == folded[1].net.flat.tobytes()
    for (_, bn), (_, other) in zip(folded[0].net.bn_layers(),
                                   folded[1].net.bn_layers()):
        assert bn.mean.tobytes() == other.mean.tobytes()
        assert bn.var.tobytes() == other.var.tobytes()


@pytest.mark.parametrize("granularity, earliest", [
    ("layer", [9, 6, 3]), ("block", [9, 6, 3]), ("entire", [3])])
def test_collection_matches_a_full_backward_oracle(monkeypatch, granularity,
                                                   earliest):
    # the collection's backward stops at the earliest targeted layer, which
    # is the last, the middle or the first of the three prunable tensors;
    # its top-K buffers are those a full backward gives, byte for byte
    from fedprune import sim

    state = setup_experiment(tiny_config(algorithm="FedTiny",
                                         hidden=(16, 16, 16, 16),
                                         granularity=granularity, interval=1))
    assert state.net.prunable_keys() == ("3.weight", "6.weight", "9.weight")
    full, seen = sim.backward, []

    def stopped(*args, **kwargs):
        seen.append(kwargs.get("lowest"))  # None for a training step
        return full(*args, **kwargs)

    def oracle(net, logits, labels, cache, lowest=0):
        return full(net, logits, labels, cache)

    for r, want in enumerate(earliest, start=1):
        collect, _ = plan_round(state, r)
        assert min(state.net.layer_of_key(key) for key in collect) == want
        for k in range(state.cfg.clients):
            monkeypatch.setattr(sim, "backward", stopped)
            got = own_update(state, k, r, collect).buffers
            assert seen.pop() == want and set(seen) == {None}
            seen.clear()
            monkeypatch.setattr(sim, "backward", oracle)
            ref = own_update(state, k, r, collect).buffers
            assert got.keys() == ref.keys() == collect.keys()
            for key, buf in got.items():
                assert buf.index.tobytes() == ref[key].index.tobytes()
                assert buf.value.tobytes() == ref[key].value.tobytes()


def test_a_round_holds_one_upload_at_a_time(monkeypatch):
    # a round clones one worker network and builds one rate vector; every
    # client uploads the worker's vector, which is folded in and released
    # before the next client's update starts, on a round that also keeps
    # every client's top-K buffers
    from fedprune import sim
    from fedprune.nn import Network

    state = setup_experiment(tiny_config(algorithm="FedTiny",
                                         granularity="entire"))
    calls = {"clone": 0, "rate": 0}

    def counted(name):
        original = getattr(Network, name)

        def call(net, *args):
            calls[name] += 1
            return original(net, *args)
        return call

    for name in calls:
        monkeypatch.setattr(Network, name, counted(name))
    client_update, results, workers = sim._client_update, [], []

    def update(state, k, round_index, collect, worker, rate):
        assert all(res.flat is None for res in results)
        res = client_update(state, k, round_index, collect, worker, rate)
        assert res.flat is worker.flat
        results.append(res)
        workers.append(worker)
        return res

    monkeypatch.setattr(sim, "_client_update", update)
    assert run_round(state, 2).grow_count > 0
    assert calls == {"clone": 1, "rate": 1}
    assert len(results) == state.cfg.clients
    assert all(worker is workers[0] for worker in workers)
    assert all(res.flat is None and res.buffers for res in results)


def test_pruned_coordinates_hold_positive_zero_through_a_run(monkeypatch):
    # the two-pass step leaves a pruned coordinate at +0.0 only if it holds
    # +0.0 before the step: every upload and the global model must keep it
    # there through training, FedAvg and grow/prune
    from fedprune import sim

    state = setup_experiment(tiny_config(algorithm="FedTiny",
                                         granularity="entire", interval=1))
    client_update, checked = sim._client_update, []

    def positive_zeros(vec):
        pruned = vec[state.net.masked_out(state.mask)]
        return pruned.size > 0 and pruned.tobytes() == bytes(8 * pruned.size)

    def update(state, k, *args):
        res = client_update(state, k, *args)
        assert positive_zeros(res.flat)
        checked.append(k)
        return res

    monkeypatch.setattr(sim, "_client_update", update)
    assert positive_zeros(state.net.flat)
    grown = 0
    for r in range(1, state.cfg.rounds + 1):
        grown += run_round(state, r).grow_count
        assert positive_zeros(state.net.flat)
    assert grown > 0 and len(checked) == state.cfg.clients * state.cfg.rounds


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_dev_sets_are_drawn_only_for_the_selectors(monkeypatch, algorithm):
    from fedprune import sim

    calls = []
    draw = sim.dev_indices
    monkeypatch.setattr(sim, "dev_indices",
                        lambda *a, **kw: calls.append(a) or draw(*a, **kw))
    cfg = tiny_config(algorithm=algorithm)
    setup_experiment(cfg)
    assert len(calls) == (cfg.clients if algorithm in sim.POOL_ALGS else 0)


def test_selection_margin_skips_copies_of_the_winners_mask():
    def pool(*rows):
        # two 2x2 tensors, each keeping a prefix of its own order
        return Pool({"u": np.array([3, 0, 2, 1]), "w": np.array([1, 2, 0, 3])},
                    {"u": (2, 2), "w": (2, 2)},
                    [{"u": 0.5, "w": 0.5}] * len(rows), np.array(rows))

    a, b, c = (1, 3), (2, 2), (3, 1)
    # copies of a mask share its score; the runner-up is the best other mask
    candidates = pool(b, a, a, c, a)
    scores = {0: 2.5, 1: 2.0, 2: 2.0, 3: 2.25, 4: 2.0}
    record = selection_record("adaptive", candidates, scores, 1)
    assert record["winner"] == 1
    assert record["margin"] == 0.25
    assert record["distinct"] == 3
    assert [c["counts"] for c in record["candidates"]] == [
        list(row) for row in (b, a, a, c, a)]
    # every candidate holds the winner's mask: there is no runner-up
    record = selection_record("vanilla", pool(a, a, a),
                              dict.fromkeys(range(3), 2.0), 0)
    assert record["margin"] is None and record["distinct"] == 1
    assert selection_record("vanilla", pool(b), {0: 2.5}, 0)["margin"] is None
    # two different masks that tie exactly keep a zero margin
    record = selection_record("adaptive", pool(a, b, a),
                              {0: 2.0, 1: 2.0, 2: 2.0}, 0)
    assert record["margin"] == 0.0
