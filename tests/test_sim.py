import json

import numpy as np
import pytest

from fedprune import costs
from fedprune.data import make_blobs
from fedprune.masking import keep_budget
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
    setup_experiment,
)


def tiny_config(**kw):
    base = dict(classes=4, per_class=60, dim=8, spread=1.0,
                clients=4, alpha=0.5, hidden=(24, 24, 24), rounds=6,
                local_epochs=2, batch_size=16, lr=0.05, pretrain_epochs=2,
                density=0.1, interval=2, stop_round=6, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


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
    from fedprune.nn import BN_MOMENTUM, backward, bn_moments, sgd_step

    ds = make_blobs(3, 16, 4, 1.0, seed=0)
    net = make_mlp(4, [8, 8], 3, seed=1)
    ref = net.clone()
    pretrain_server(net, ds, epochs, 0.05, batch_size, seed=2)
    rng, m, steps = np.random.default_rng(2), BN_MOMENTUM, 0
    for _ in range(epochs):
        perm = rng.permutation(len(ds))
        for b in range(_local_batches(len(ds), batch_size)):
            idx = perm[b * batch_size:(b + 1) * batch_size]
            row = bn_moments(ref, 1)[0]
            logits, cache = forward(ref, ds.features[idx], "train",
                                    moments=row)
            sgd_step(ref, backward(ref, logits, ds.labels[idx], cache)[1],
                     0.05)
            for _, bn in ref.bn_layers():
                n = bn.mean.size
                bn.mean = m * bn.mean + (1.0 - m) * row[:n]
                bn.var = m * bn.var + (1.0 - m) * row[n:2 * n]
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

    def checked(state, k, round_index, collect):
        # each upload holds at most ``a`` distinct pruned coordinates of
        # its layer in this round
        res = client_update(state, k, round_index, collect)
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
    upload = _client_update(state, 0, 1, {})
    fedavg(state, [upload])
    np.testing.assert_allclose(state.net.flat, upload.flat, rtol=0, atol=1e-12)
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
    cfg = tiny_config(algorithm="DenseFedAvg", rounds=1, local_epochs=1)
    state = setup_experiment(cfg)
    uploads = [_client_update(state, k, 1, {}) for k in range(cfg.clients)]
    weights = [len(c) for c in state.clients]
    fedavg(state, uploads)
    total = sum(weights)
    uploaded = [by_key(state.net, up.flat) for up in uploads]
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
    uploads = [_client_update(state, k, 1, {}) for k in range(2)]
    uploads[0].flat += 1.0
    fedavg(state, uploads)
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
    results = [_client_update(state, k, 2, collect)
               for k in range(len(state.clients))]
    assert not any(res.buffers for res in results)
    before, kept = state.mask.copy(), state.mask.counts()
    fedavg(state, results)
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
    # each linear spec says whether the layer has a bias: only the head does
    specs = json.loads(path.read_text(encoding="utf-8"))["layers"]
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


@pytest.mark.parametrize("chunk", [1, 7, 32, 4096])
def test_checkpoint_bytes_are_json_dumps_of_the_whole_record(
        tmp_path, monkeypatch, chunk):
    from fedprune import sim

    # chunk 32 splits every weight into whole chunks, 7 leaves remainders
    monkeypatch.setattr(sim, "CKPT_CHUNK", chunk)
    state = setup_experiment(tiny_config(algorithm="FedTiny", hidden=(32, 32)))
    run_round(state, 1)
    extra = {"algorithm": "FedTiny", "note": [1.5, None, "x"]}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, state.net, state.mask, extra)
    saved = json.loads(path.read_text(encoding="utf-8"))
    record = dict(saved, params={
        key: {"shape": list(p.shape), "data": p.reshape(-1).tolist()}
        for key, p in state.net.params().items()}, mask={
        key: m.reshape(-1).tolist() for key, m in state.mask.slices.items()})
    assert path.read_text(encoding="utf-8") == json.dumps(record)
    save_checkpoint(path, state.net, None)
    assert json.loads(path.read_text(encoding="utf-8"))["mask"] is None


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
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


@pytest.mark.parametrize("algorithm", ["FedTiny", "ProgressiveOnly"])
def test_selection_path_matches_clone_oracles_byte_for_byte(
        tmp_path, monkeypatch, algorithm):
    from test_selection import masked, oracle_adaptive_select, \
        oracle_vanilla_select

    from fedprune import sim

    def run(out):
        cfg = tiny_config(algorithm=algorithm, pool_size=8, dev_ratio=0.3,
                          rounds=4)
        run_experiment(cfg, out_dir=out)
        return [(out / name).read_bytes()
                for name in ("metrics.csv", "final.ckpt", "selection.json")]

    shared = run(tmp_path / "shared")
    monkeypatch.setattr(
        sim, "adaptive_select",
        lambda net, pool, devs, batch_size:
        oracle_adaptive_select(masked(net, pool), devs, batch_size))
    monkeypatch.setattr(
        sim, "vanilla_select",
        lambda net, pool, devs, batch_size:
        oracle_vanilla_select(masked(net, pool), devs, batch_size))
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


def test_collection_pass_never_reaches_the_upload():
    # the top-K collection runs a train-mode forward on the trained local
    # network, which advances its BN statistics; the upload must be the
    # state from before that pass
    state = setup_experiment(tiny_config(algorithm="FedTiny"))
    collect = {key: (5, np.flatnonzero(m.reshape(-1) == 0))
               for key, m in state.mask.slices.items()}
    with_pass = _client_update(state, 0, 2, collect)
    without = _client_update(state, 0, 2, {})
    assert set(with_pass.buffers) == set(collect) and not without.buffers
    assert with_pass.flat.shape == without.flat.shape
    assert with_pass.flat.tobytes() == without.flat.tobytes()
    got, want = with_pass.bn.stats, without.bn.stats
    assert len(got) == len(want) > 0
    for (mean, var), (want_mean, want_var) in zip(got, want):
        assert mean.tobytes() == want_mean.tobytes()
        assert var.tobytes() == want_var.tobytes()
