import json

import numpy as np
import pytest

from fedprune.data import make_blobs
from fedprune.masking import keep_budget
from fedprune.nn import forward, make_mlp
from fedprune.sim import (
    ConfigError,
    ExperimentConfig,
    evaluate_global,
    load_checkpoint,
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


# -- config validation ---------------------------------------------------------

def test_config_validation_reports_fields():
    cfg = tiny_config(algorithm="Nope", density=0.0, lr=-1.0)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    text = str(err.value)
    assert "algorithm" in text and "density" in text and "lr" in text


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


def test_single_client_aggregation_is_identity():
    cfg = tiny_config(algorithm="DenseFedAvg", clients=1, rounds=1,
                      local_epochs=1)
    state = setup_experiment(cfg)
    # reproduce the single client's local training by hand
    from fedprune.sim import _client_update
    expected = _client_update(state, 0, 1, cfg.lr, {}).params
    run_round(state, 1)
    for key, p in state.net.params().items():
        np.testing.assert_allclose(p, expected[key], rtol=0, atol=1e-12)


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


def test_dense_fedavg_learns_blobs():
    # sanity: dense training reaches high train-pool accuracy quickly
    hits = 0
    for seed in range(3):
        cfg = tiny_config(algorithm="DenseFedAvg", rounds=15, seed=seed,
                          spread=0.5, test_ratio=0.0, server_ratio=0.1)
        metrics, _ = run_experiment(cfg)
        if metrics[-1].accuracy > 0.9:
            hits += 1
    assert hits == 3


def test_client_fraction_sampling_deterministic():
    cfg = tiny_config(algorithm="DenseFedAvg", client_fraction=0.5, rounds=2)
    a = run_experiment(cfg)[0]
    b = run_experiment(cfg)[0]
    assert [m.accuracy for m in a] == [m.accuracy for m in b]


# -- aggregation oracle --------------------------------------------------------------

def test_fedavg_matches_bruteforce_weighted_average():
    cfg = tiny_config(algorithm="DenseFedAvg", rounds=1, local_epochs=1)
    state = setup_experiment(cfg)
    from fedprune.sim import _client_update
    uploads = [_client_update(state, k, 1, cfg.lr, {}).params
               for k in range(cfg.clients)]
    weights = [len(c) for c in state.clients]
    run_round(state, 1)
    total = sum(weights)
    for key, p in state.net.params().items():
        expected = np.zeros_like(p)
        for up, w in zip(uploads, weights):
            expected = expected + (w / total) * up[key]
        assert np.max(np.abs(p - expected)) < 1e-12


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
    for key, p in state.net.params().items():
        np.testing.assert_array_equal(p, net.params()[key])
    for key, m in state.mask.slices.items():
        np.testing.assert_array_equal(m, mask.slices[key])
    x = np.random.default_rng(0).normal(size=(4, state.net.input_dim))
    a, _ = forward(state.net, x, "eval")
    b, _ = forward(net, x, "eval")
    np.testing.assert_array_equal(a, b)


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
