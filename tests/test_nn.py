import copy
import math

import numpy as np
import pytest

from fedprune.masking import Mask, apply_mask, random_mask
from fedprune.nn import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNorm,
    Linear,
    Network,
    ReLU,
    _check_batch,
    advance_bn_stats,
    backward,
    bn_moments,
    bn_stats,
    cross_entropy,
    eval_pass,
    forward,
    log_softmax,
    make_mlp,
    refresh_pass,
    sgd_step,
    update_bn_stats,
)


def snapshot(net):
    params = {k: v.copy() for k, v in net.params().items()}
    bn = [(l.mean.copy(), l.var.copy()) for _, l in net.bn_layers()]
    return params, bn


def assert_same_state(before, after):
    params_a, bn_a = before
    params_b, bn_b = after
    for k in params_a:
        np.testing.assert_array_equal(params_a[k], params_b[k])
    for (ma, va), (mb, vb) in zip(bn_a, bn_b):
        np.testing.assert_array_equal(ma, mb)
        np.testing.assert_array_equal(va, vb)


def finite_diff_grads(net, x, y, h=1e-5):
    """Central-difference gradient oracle, independent of backward()."""
    out = {}
    for key, p in net.params().items():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = cross_entropy(forward(net, x, "train")[0], y)
            flat[i] = orig - h
            lm = cross_entropy(forward(net, x, "train")[0], y)
            flat[i] = orig
            g.reshape(-1)[i] = (lp - lm) / (2 * h)
        out[key] = g
    return out


def rel_close(a, b, tol=1e-4):
    return np.all(np.abs(a - b) <= tol * (np.abs(a) + np.abs(b)) + 1e-8)


# -- forward --------------------------------------------------------------

def test_bn_identity_eval():
    # BN with mean 0, var 1, scale 1 and shift 0 divides x by sqrt(1 + eps)
    net = Network([BatchNorm(np.zeros(1), np.ones(1)),
                   Linear(np.eye(1), np.zeros(1))])
    x = np.array([[0.5], [-2.0], [3.25]])
    logits, _ = forward(net, x, "eval")
    np.testing.assert_allclose(logits, x / np.sqrt(1.0 + BN_EPS), rtol=1e-15,
                               atol=0)


def test_bn_moving_mean_update():
    bn = BatchNorm(np.zeros(1), np.ones(1))
    net = Network([bn, Linear(np.eye(1), np.zeros(1))])
    moments = bn_moments(net, 1)
    forward(net, np.array([[2.0], [4.0]]), "train", moments=moments[0])
    # the forward hands over the batch mean 3 and variance 1 and leaves the
    # moving statistics as they are
    np.testing.assert_array_equal(moments, [[3.0, 1.0]])
    np.testing.assert_array_equal(bn.mean, [0.0])
    np.testing.assert_array_equal(bn.var, [1.0])
    # a run of one step moves the moving mean 0 and variance 1
    advance_bn_stats(net, moments[0], 1)
    m = BN_MOMENTUM
    np.testing.assert_allclose(bn.mean, [m * 0.0 + (1.0 - m) * 3.0])
    np.testing.assert_allclose(bn.var, m * 1.0 + (1.0 - m) * 1.0)


def test_train_forward_without_moments_writes_no_statistics():
    net = make_mlp(4, [8, 8], 3, seed=1)
    before = snapshot(net)
    forward(net, np.random.default_rng(0).normal(size=(6, 4)), "train")
    assert_same_state(before, snapshot(net))


def _per_step(start, rows):
    """The moving statistics after one momentum update per row."""
    m, s = BN_MOMENTUM, start
    for x in rows:
        s = m * s + (1.0 - m) * x
    return s


def _discounted(rows):
    """``sum_t m**(T - t) * x_t`` over the rows, as one weighted sum."""
    return BN_MOMENTUM ** np.arange(len(rows) - 1, -1, -1.0) @ rows


@pytest.mark.parametrize("steps, parts", [
    (1, [1]), (2, [2]), (2, [1, 1]), (40, [40]), (40, [8, 8, 8, 8, 8]),
    (40, [3, 37]), (8000, [8000]), (8000, [8] * 1000)])
def test_closed_form_matches_the_per_step_rule(steps, parts):
    # parts are the epochs a run advances the statistics after; at 8,000
    # steps BN_MOMENTUM ** steps underflows to 0 and the start is forgotten
    net = make_mlp(3, [5, 4], 2, seed=0)
    rng = np.random.default_rng(steps + len(parts))
    for _, bn in net.bn_layers():
        bn.mean, bn.var = rng.normal(size=bn.mean.size), rng.random(bn.var.size)
    start = np.concatenate([np.concatenate(pair) for pair in bn_stats(net)])
    rows = bn_moments(net, steps)
    rows[...] = rng.normal(size=rows.shape)
    rows[:, 5:10] = rows[:, 14:18] = 0.0  # the variance entries, nonnegative
    rows[:, 5:10] += rng.random((steps, 5))
    rows[:, 14:18] += rng.random((steps, 4))
    want = _per_step(start, rows)
    at = 0
    for part in parts:
        advance_bn_stats(net, _discounted(rows[at:at + part]), part)
        at += part
    got = np.concatenate([np.concatenate(pair) for pair in bn_stats(net)])
    assert (BN_MOMENTUM ** steps == 0.0) == (steps == 8000)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_make_mlp_drops_only_the_biases_before_bn():
    net = make_mlp(4, [6, 5], 3, seed=0)
    assert [key for key in net.params() if key.endswith(".bias")] == ["6.bias"]
    assert [layer.bias is None for layer in net.layers
            if layer.kind == "linear"] == [True, True, False]
    assert net.flat.size == 4 * 6 + 6 * 5 + 5 * 3 + 3 + 2 * (6 + 5)
    plain = make_mlp(4, [6, 5], 3, batch_norm=False, seed=0)
    assert [key for key in plain.params() if key.endswith(".bias")] == [
        "0.bias", "2.bias", "4.bias"]


def test_eval_mode_is_pure():
    net = make_mlp(4, [8, 8], 3, seed=1)
    before = snapshot(net)
    forward(net, np.random.default_rng(0).normal(size=(6, 4)), "eval")
    assert_same_state(before, snapshot(net))


def test_forward_shape_and_batch_errors():
    net = make_mlp(4, [8], 3, seed=0)
    with pytest.raises(ValueError):
        forward(net, np.zeros((2, 5)), "train")
    with pytest.raises(ValueError):
        forward(net, np.zeros((1, 4)), "train")
    # eval mode accepts singleton batches
    forward(net, np.zeros((1, 4)), "eval")


def test_forward_values_are_finite():
    net = make_mlp(6, [16, 16], 4, seed=3)
    logits, _ = forward(net, np.random.default_rng(1).normal(size=(8, 6)), "train")
    assert np.all(np.isfinite(logits))


# -- backward -------------------------------------------------------------

def test_uniform_logits_loss_is_log_classes():
    # zero final layer -> uniform logits -> loss = ln(10)
    net = Network([Linear(np.zeros((4, 10)), np.zeros(10))])
    x = np.random.default_rng(2).normal(size=(5, 4))
    y = np.array([0, 3, 9, 1, 2])
    logits, cache = forward(net, x, "train")
    loss, _ = backward(net, logits, y, cache)
    assert loss == pytest.approx(math.log(10), abs=1e-12)


def test_zero_input_gives_exactly_zero_weight_gradient():
    # dL/dW = x^T delta: a zero feature column contributes an exact zero row
    net = Network([Linear(np.array([[1.0], [2.0]]), np.zeros(1))])
    x = np.array([[0.0, 1.0], [0.0, -1.0]])
    logits, cache = forward(net, x, "train")
    backward(net, logits, np.array([0, 0]), cache)
    np.testing.assert_array_equal(net.grads()["0.weight"][0], np.zeros(1))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    for trial in range(3):
        net = make_mlp(3, [5, 4], 3, seed=trial)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 3, size=6)
        logits, cache = forward(net, x, "train")
        backward(net, logits, y, cache)
        grads = net.grads()
        fd = finite_diff_grads(net, x, y)
        for key in grads:
            assert rel_close(grads[key], fd[key]), key


def test_backward_label_range_and_cache_errors():
    net = make_mlp(3, [4], 2, seed=0)
    x = np.zeros((3, 3))
    logits, cache = forward(net, x, "train")
    with pytest.raises(ValueError):
        backward(net, logits, np.array([0, 1, 2]), cache)
    with pytest.raises(ValueError):
        backward(net, logits, np.array([0, 1, 1]), None)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_loss_raises(bad):
    net = make_mlp(3, [4], 2, seed=0)
    x = np.random.default_rng(0).normal(size=(3, 3))
    logits, cache = forward(net, x, "train")
    logits[1, 0] = bad  # row 1's label, so its loss is not finite
    y = np.array([0, 0, 1])
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite loss"):
            cross_entropy(logits, y)
        with pytest.raises(FloatingPointError, match="non-finite loss"):
            backward(net, logits, y, cache)


# -- sgd_step -------------------------------------------------------------

def test_sgd_all_ones_mask_is_plain_sgd():
    net_a = make_mlp(3, [4], 2, seed=5)
    net_b = net_a.clone()
    x = np.random.default_rng(0).normal(size=(4, 3))
    y = np.array([0, 1, 0, 1])
    for net, mask in ((net_a, None),
                      (net_b, Mask({k: np.ones_like(v, dtype=np.uint8)
                                    for k, v in net_b.params().items()
                                    if k in net_b.prunable_keys()}))):
        logits, cache = forward(net, x, "train")
        _, grad = backward(net, logits, y, cache)
        sgd_step(net, grad, 0.1, mask,
                 net.masked_out(mask) if mask is not None else None)
    for k in net_a.params():
        np.testing.assert_array_equal(net_a.params()[k], net_b.params()[k])


def test_masked_coordinates_stay_exactly_zero():
    net = make_mlp(3, [6, 6], 2, seed=9)
    key = net.prunable_keys()[0]
    rng = np.random.default_rng(3)
    # random half-density mask that keeps every output unit connected
    m = (rng.random(net.params()[key].shape) < 0.5).astype(np.uint8)
    m[0] = 1
    mask = Mask({key: m})
    zero = net.masked_out(mask)
    p = net.params()[key]
    p[m == 0] = 0.0
    for step in range(5):
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 2, size=4)
        logits, cache = forward(net, x, "train")
        _, grad = backward(net, logits, y, cache)
        if step == 0:
            # gradient is dense
            assert np.any(net.grads()[key][m == 0] != 0.0)
        sgd_step(net, grad, 0.05, mask, zero)
        np.testing.assert_array_equal(net.params()[key][m == 0], 0.0)


def test_sgd_rejects_nonpositive_lr():
    net = make_mlp(2, [3], 2, seed=0)
    x = np.zeros((2, 2))
    logits, cache = forward(net, x, "train")
    _, grad = backward(net, logits, np.array([0, 1]), cache)
    for lr in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            sgd_step(net, grad, lr)


def test_identical_seeds_give_identical_training():
    def run():
        net = make_mlp(4, [8, 8], 3, seed=11)
        rng = np.random.default_rng(42)
        for _ in range(10):
            x = rng.normal(size=(6, 4))
            y = rng.integers(0, 3, size=6)
            logits, cache = forward(net, x, "train")
            _, grad = backward(net, logits, y, cache)
            sgd_step(net, grad, 0.05)
        return net

    a, b = run(), run()
    for k in a.params():
        np.testing.assert_array_equal(a.params()[k], b.params()[k])


# -- statistics refresh pass ------------------------------------------------

def test_update_bn_stats_moves_statistics_but_not_params():
    net = make_mlp(3, [4], 2, seed=2)
    params_before = {k: v.copy() for k, v in net.params().items()}
    x = np.random.default_rng(5).normal(size=(8, 3))
    update_bn_stats(net, x)
    for k, v in net.params().items():
        np.testing.assert_array_equal(v, params_before[k])
    _, bn = net.bn_layers()[0]
    assert np.any(bn.mean != 0.0)


def test_update_bn_stats_accepts_singleton_batch():
    net = make_mlp(3, [4], 2, seed=2)
    update_bn_stats(net, np.ones((1, 3)))


# -- structure --------------------------------------------------------------

def test_prunable_excludes_first_and_last_linear():
    net = make_mlp(4, [8, 8, 8], 3, seed=0)
    linear_ix = [i for i, l in enumerate(net.layers) if l.kind == "linear"]
    keys = net.prunable_keys()
    assert f"{linear_ix[0]}.weight" not in keys
    assert f"{linear_ix[-1]}.weight" not in keys
    assert len(keys) == 2
    params = net.params()
    assert all(k.endswith(".weight") for k in keys)
    assert all(k in params for k in keys)


def test_bn_state_validation():
    with pytest.raises(ValueError):
        BatchNorm(np.zeros(2), -np.ones(2))


def test_network_rejects_layers_that_do_not_chain():
    def linear(fan_in, fan_out):
        return Linear(np.zeros((fan_in, fan_out)), np.zeros(fan_out))

    with pytest.raises(ValueError, match="layer 2: fan_in 4 after a 3-wide"):
        Network([linear(2, 3), ReLU(), linear(4, 2)])
    # a BN layer before the first linear layer has its input's width
    with pytest.raises(ValueError, match="layer 0: BN"):
        Network([BatchNorm(np.zeros(3), np.ones(3)), linear(2, 3)])
    for name in ("mean", "var", "scale", "shift"):
        parts = dict(mean=np.zeros(3), var=np.ones(3), scale=np.ones(3),
                     shift=np.zeros(3))
        parts[name] = np.ones(4)
        with pytest.raises(ValueError, match="layer 1: BN"):
            Network([linear(2, 3), BatchNorm(**parts), linear(3, 2)])
    Network([BatchNorm(np.zeros(2), np.ones(2)), linear(2, 3), ReLU(),
             BatchNorm(np.zeros(3), np.ones(3)), linear(3, 2)])


# -- flat layout --------------------------------------------------------------

def _offset(view, vec) -> int:
    """Element offset of ``view``'s first element in the vector ``vec``."""
    return (view.__array_interface__["data"][0]
            - vec.__array_interface__["data"][0]) // vec.itemsize


def _step(net, rng, batch=6):
    x = rng.normal(size=(batch, net.input_dim))
    y = rng.integers(0, 3, size=batch)
    logits, cache = forward(net, x, "train")
    return backward(net, logits, y, cache)[1]


def test_params_tile_the_flat_vector_in_order():
    rng = np.random.default_rng(1)
    for net in (make_mlp(5, [7, 6], 3, seed=0), _bn_first_net(rng),
                _relu_first_net(rng)):
        assert net.flat.dtype == np.float64 and net.flat.flags.c_contiguous
        start = 0
        for key, p in net.params().items():
            idx, name = key.split(".")
            attr = getattr(net.layers[int(idx)], name)
            for view in (p, attr):
                assert np.shares_memory(view, net.flat), key
                assert view.flags.c_contiguous
                assert _offset(view, net.flat) == start, key
            start += p.size
        assert start == net.flat.size  # no gap at the end


def test_clone_owns_its_vectors_and_statistics():
    rng = np.random.default_rng(4)
    net = make_mlp(4, [6, 5], 3, seed=1)
    _step(net, rng)
    twin = net.clone()
    # the clone's statistics are arrays of its own
    for (_, a), (_, b) in zip(net.bn_layers(), twin.bn_layers()):
        assert not np.shares_memory(a.mean, b.mean)
        assert not np.shares_memory(a.var, b.var)
    _step(twin, rng)
    assert not np.shares_memory(twin.flat, net.flat)
    assert not np.shares_memory(twin.grad, net.grad)
    for writer, other in ((twin, net), (net, twin)):
        before, grad = snapshot(other), other.grad.copy()
        writer.flat += 1.0
        writer.grad[...] = 7.0
        for _, bn in writer.bn_layers():
            bn.mean += 1.0
            bn.var *= 2.0
        assert_same_state(before, snapshot(other))
        assert_bitwise_equal(other.grad, grad)


def test_set_param_and_checkpoint_load_write_through_to_flat(tmp_path):
    from fedprune.sim import load_checkpoint, save_checkpoint

    net = make_mlp(4, [6, 5], 3, seed=3)
    key = net.prunable_keys()[0]
    view = net.params()[key]
    net.set_param(key, np.full(view.shape, 0.25))
    start = _offset(view, net.flat)
    np.testing.assert_array_equal(net.flat[start:start + view.size], 0.25)
    np.testing.assert_array_equal(net.layers[int(key.split(".")[0])].weight,
                                  0.25)
    with pytest.raises(ValueError):
        net.set_param(key, np.zeros(view.size))
    save_checkpoint(tmp_path / "net.ckpt", net, None)
    loaded, _, _ = load_checkpoint(tmp_path / "net.ckpt")
    assert loaded.flat.tobytes() == net.flat.tobytes()
    for key, p in loaded.params().items():
        assert np.shares_memory(p, loaded.flat), key


def test_gradient_vector_is_made_by_backward_and_freed_by_drop_grads():
    rng = np.random.default_rng(6)
    net = make_mlp(4, [6, 5], 3, seed=4)
    assert net.grad is None  # a network that never trains holds none
    first = _step(net, rng)
    assert _step(net, rng) is first  # one vector per network, not per step
    net.drop_grads()
    assert net.grad is None
    again = _step(net, rng)
    assert again is net.grad and again is not first
    assert net.clone().grad is None


def test_second_backward_overwrites_the_gradients():
    rng = np.random.default_rng(5)
    net = make_mlp(4, [6, 5], 3, seed=2)
    first = _step(net, rng).copy()
    views = net.grads()
    # gradients do not depend on the moving BN statistics, so a clone
    # that never ran the first batch gives the second batch's alone
    fresh = net.clone()
    state = rng.bit_generator.state
    grad = _step(net, rng)
    rng.bit_generator.state = state
    _step(fresh, rng)
    assert grad is net.grad
    assert_bitwise_equal(net.grad, fresh.grad)
    assert not np.array_equal(net.grad, first)
    for key, g in fresh.grads().items():
        assert_bitwise_equal(views[key], g)


# -- bitwise oracle -----------------------------------------------------------
# The straightforward kernels, one new array per operation. The engine's
# kernels compute in place on arrays they allocate; they must agree with
# these bit for bit, signs of zero included. A BN layer normalizes with
# g = scale * (var + BN_EPS) ** -0.5, as centred * g + shift. A train-mode
# forward returns the BN layers' batch moments beside the cache and leaves
# the moving statistics alone.

def _ref_linear(x, layer):
    return x @ layer.weight if layer.bias is None else x @ layer.weight + layer.bias


def _ref_forward(net: Network, batch, mode: str = "train"):
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = _check_batch(net, batch)
    if mode == "eval":
        return _ref_eval_pass(net.layers, x, bn_stats(net)), None, None
    if x.shape[0] < 2:
        raise ValueError("train-mode batches need at least 2 samples")
    cache: list = []
    moments: list = []
    for layer in net.layers:
        if layer.kind == "linear":
            cache.append((x,))
            x = _ref_linear(x, layer)
        elif layer.kind == "relu":
            cache.append((x,))
            x = np.maximum(x, 0.0)
        else:  # batchnorm
            mu, centred, var = _ref_batch_stats(x)
            moments += [mu, var]
            inv = (var + BN_EPS) ** -0.5
            g = inv * layer.scale
            cache.append((centred, inv, g))
            x = centred * g + layer.shift
    return x, cache, np.concatenate([np.zeros(0)] + moments)


def _ref_batch_stats(x):
    mu = x.mean(axis=0)
    centred = x - mu
    return mu, centred, np.add.reduce(centred * centred, axis=0) / x.shape[0]


def _ref_refresh_pass(layers, x, stats):
    j = 0
    for layer in layers:
        if layer.kind == "linear":
            x = _ref_linear(x, layer)
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0)
        else:
            mu, centred, var = _ref_batch_stats(x)
            mean, old_var = stats[j]
            m = BN_MOMENTUM
            stats[j] = (m * mean + (1.0 - m) * mu,
                        m * old_var + (1.0 - m) * var)
            j += 1
            x = (centred * (layer.scale * (var + BN_EPS) ** -0.5)
                 + layer.shift)
    return x


def _ref_eval_pass(layers, x, stats):
    j = 0
    for layer in layers:
        if layer.kind == "linear":
            x = _ref_linear(x, layer)
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0)
        else:
            mean, var = stats[j]
            j += 1
            g = layer.scale * (var + BN_EPS) ** -0.5
            x = x * g + (layer.shift - mean * g)
    return x


def _ref_backward(net: Network, logits, labels, cache):
    if cache is None:
        raise ValueError("backward needs the cache from a train-mode forward")
    if len(cache) != len(net.layers):
        raise ValueError("cache does not match this network")
    labels = np.asarray(labels)
    n = logits.shape[0]
    n_classes = logits.shape[1]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes})")

    # one exp of the shifted logits gives the loss and the softmax
    rows = np.arange(n)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    sums = e.sum(axis=1, keepdims=True)
    loss = float(-(shifted[rows, labels] - np.log(sums[:, 0])).mean())
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss")
    delta = e / (sums * n)
    delta[rows, labels] -= 1.0 / n

    grads = {}
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if layer.kind == "linear":
            (x,) = cache[i]
            grads[f"{i}.weight"] = x.T @ delta
            if layer.bias is not None:
                grads[f"{i}.bias"] = delta.sum(axis=0)
            delta = delta @ layer.weight.T
        elif layer.kind == "relu":
            (x,) = cache[i]
            delta = delta * (x > 0.0)
        else:
            centred, inv, g = cache[i]
            b = centred.shape[0]
            dshift = delta.sum(axis=0)
            dscale = inv * (delta * centred).sum(axis=0)
            grads[f"{i}.scale"], grads[f"{i}.shift"] = dscale, dshift
            delta = g * (delta - dshift / b - centred * (inv * dscale / b))
    return loss, grads


def _ref_sgd_step(net: Network, grads, lr: float, mask=None) -> Network:
    if lr <= 0.0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    slices = mask.slices if mask is not None else {}
    for key, p in net.params().items():
        g = grads[key]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {key}")
        m = slices.get(key)
        if m is None:
            p -= lr * g
        else:
            p -= lr * (g * m)
            p[m == 0] = 0.0
    return net


def assert_bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


def _bn_first_net(rng):
    return Network([
        BatchNorm(rng.normal(size=5), rng.random(5) + 0.5,
                  scale=rng.normal(size=5), shift=rng.normal(size=5)),
        Linear(rng.normal(size=(5, 7)), rng.normal(size=7)), ReLU(),
        Linear(rng.normal(size=(7, 3)), rng.normal(size=3))])


def _relu_first_net(rng):
    return Network([
        ReLU(), Linear(rng.normal(size=(5, 7)), rng.normal(size=7)),
        BatchNorm(np.zeros(7), np.ones(7)), ReLU(),
        Linear(rng.normal(size=(7, 3)), rng.normal(size=3))])


def _oracle_cases():
    """(name, network, mask, the batch sizes of its steps)."""
    rng = np.random.default_rng(17)
    default = make_mlp(32, [64, 64, 64], 10, seed=3)
    mask = random_mask(default, 0.05, seed=4)
    yield "default MLP, 5% mask", apply_mask(default, mask), mask, (64,) * 4
    yield ("BN-free MLP", make_mlp(12, [16, 8], 4, batch_norm=False, seed=5),
           None, (16,) * 4)
    yield "1-hidden-layer MLP", make_mlp(6, [9], 3, seed=6), None, (8,) * 4
    small = make_mlp(6, [9, 9], 3, seed=7)
    small_mask = random_mask(small, 0.3, seed=8)
    yield "batch of 2", apply_mask(small, small_mask), small_mask, (2,) * 4
    yield "ReLU first", _relu_first_net(rng), None, (12,) * 4
    yield "BN first", _bn_first_net(rng), None, (12,) * 4
    # the widths of the prune_heavy workload: a full batch, then a tail
    wide = make_mlp(32, [128, 128, 128], 10, seed=9)
    wide_mask = random_mask(wide, 0.05, seed=10)
    yield ("128-wide MLP, 5% mask", apply_mask(wide, wide_mask), wide_mask,
           (64, 41))


@pytest.mark.parametrize("case", range(7))
def test_kernels_match_reference_bit_for_bit(case):
    name, net, mask, batches = list(_oracle_cases())[case]
    ref = net.clone()
    zero = net.masked_out(mask) if mask is not None else None
    classes = net.params()[f"{len(net.layers) - 1}.bias"].size
    rng = np.random.default_rng(case)
    moments = bn_moments(net, len(batches))
    for batch, row in zip(batches, moments):
        x = rng.normal(size=(batch, net.input_dim))
        y = rng.integers(0, classes, size=batch)
        x_before = x.copy()
        logits, cache = forward(net, x, "train", moments=row)
        assert_bitwise_equal(x, x_before)
        ref_logits, ref_cache, ref_moments = _ref_forward(ref, x, "train")
        assert_bitwise_equal(logits, ref_logits)
        assert_bitwise_equal(row, ref_moments)
        loss, grad = backward(net, logits, y, cache)
        assert grad is net.grad
        grads = net.grads()
        ref_loss, ref_grads = _ref_backward(ref, ref_logits, y, ref_cache)
        assert loss == ref_loss == cross_entropy(logits, y), name
        assert grads.keys() == ref_grads.keys()
        for key in grads:
            assert_bitwise_equal(grads[key], ref_grads[key])
        sgd_step(net, grad, 0.05, mask, zero)
        _ref_sgd_step(ref, ref_grads, 0.05, mask)
        for key, p in net.params().items():
            assert_bitwise_equal(p, ref.params()[key])
        for (_, bn), (_, ref_bn) in zip(net.bn_layers(), ref.bn_layers()):
            assert_bitwise_equal(bn.mean, ref_bn.mean)
            assert_bitwise_equal(bn.var, ref_bn.var)
        assert_bitwise_equal(forward(net, x, "eval")[0],
                             _ref_forward(ref, x, "eval")[0])
        assert_bitwise_equal(x, x_before)


@pytest.mark.parametrize("case", range(7))
def test_refresh_and_eval_passes_match_reference_and_keep_the_input(case):
    # every tail of the network, as selection runs tails on a shared head's
    # output; the input must come back unchanged
    _, net, _, batches = list(_oracle_cases())[case]
    batch_x = np.random.default_rng(case).normal(
        size=(batches[0], net.input_dim))
    for cut in range(len(net.layers)):
        head, tail = net.layers[:cut], net.layers[cut:]
        n_head = sum(layer.kind == "batchnorm" for layer in head)
        x = _ref_eval_pass(head, batch_x, bn_stats(net)[:n_head])
        x_before = x.copy()
        stats = bn_stats(net)[n_head:]
        ref_stats = list(stats)
        out = refresh_pass(tail, x, stats)
        assert_bitwise_equal(out, _ref_refresh_pass(tail, x, ref_stats))
        for (m, v), (ref_m, ref_v) in zip(stats, ref_stats):
            assert_bitwise_equal(m, ref_m)
            assert_bitwise_equal(v, ref_v)
        assert_bitwise_equal(eval_pass(tail, x, stats),
                             _ref_eval_pass(tail, x, stats))
        assert_bitwise_equal(x, x_before)


@pytest.mark.parametrize("case", range(7))
def test_stacked_candidates_match_each_candidate_bit_for_bit(case):
    # selection runs C candidates as the slices of stacked linear weights;
    # each slice must compute what that candidate's layers compute alone
    _, net, _, batches = list(_oracle_cases())[case]
    rng = np.random.default_rng(case)
    x = rng.normal(size=(batches[-1], net.input_dim))
    y = rng.integers(0, net.layers[-1].weight.shape[1], size=len(x))
    singles = [[copy.copy(layer) for layer in net.layers] for _ in range(3)]
    for layers in singles:
        for layer in layers:
            if layer.kind == "linear":
                keep = rng.random(layer.weight.shape) < 0.6
                layer.weight = np.where(keep, layer.weight, 0.0)
    stacked = [copy.copy(layer) for layer in net.layers]
    for i, layer in enumerate(stacked):
        if layer.kind == "linear":
            layer.weight = np.stack([layers[i].weight for layers in singles])

    def row(a, c):  # statistics of a BN layer before any stacked weight
        return a[c] if a.ndim == 2 else a

    stats, only = bn_stats(net), bn_stats(net)
    out = refresh_pass(stacked, x, stats)
    last = refresh_pass(stacked, x, only, stats_only=True)
    assert (last is None) == bool(only)  # None once the last pair advanced
    logits = eval_pass(stacked, x, stats)
    pretrained = eval_pass(stacked, x, bn_stats(net))
    for c, layers in enumerate(singles):
        want = bn_stats(net)
        assert_bitwise_equal(out[c], refresh_pass(layers, x, want))
        for got, got_only, pair in zip(stats, only, want):
            for a, b, w in zip(got, got_only, pair):
                assert_bitwise_equal(row(a, c), w)
                assert_bitwise_equal(row(b, c), w)
        alone = eval_pass(layers, x, want)
        assert_bitwise_equal(logits[c], alone)
        assert cross_entropy(logits, y)[c] == cross_entropy(alone, y)
        assert_bitwise_equal(pretrained[c],
                             eval_pass(layers, x, bn_stats(net)))


# -- the prior order, frozen ---------------------------------------------------
# The kernels as they were before the BN fold: normalize to xhat, then scale
# and shift; the backward recomputes both sums on dxhat = delta * scale.
# They are kept unchanged to bound how far the fold moved the results.

def _prior_forward(net: Network, batch, mode: str = "train"):
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = _check_batch(net, batch)
    if mode == "eval":
        return _prior_eval_pass(net.layers, x, bn_stats(net)), None
    if x.shape[0] < 2:
        raise ValueError("train-mode batches need at least 2 samples")
    cache: list = []
    for layer in net.layers:
        if layer.kind == "linear":
            cache.append((x,))
            x = _ref_linear(x, layer)
        elif layer.kind == "relu":
            cache.append((x,))
            x = np.maximum(x, 0.0)
        else:  # batchnorm
            mu, centred, var = _ref_batch_stats(x)
            inv = 1.0 / np.sqrt(var + BN_EPS)
            xhat = centred * inv
            m = BN_MOMENTUM
            layer.mean = m * layer.mean + (1.0 - m) * mu
            layer.var = m * layer.var + (1.0 - m) * var
            cache.append((xhat, inv))
            x = layer.scale * xhat + layer.shift
    return x, cache


def _prior_refresh_pass(layers, x, stats):
    j = 0
    for layer in layers:
        if layer.kind == "linear":
            x = _ref_linear(x, layer)
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0)
        else:
            mu, centred, var = _ref_batch_stats(x)
            mean, old_var = stats[j]
            m = BN_MOMENTUM
            stats[j] = (m * mean + (1.0 - m) * mu,
                        m * old_var + (1.0 - m) * var)
            j += 1
            x = (layer.scale * (centred / np.sqrt(var + BN_EPS))
                 + layer.shift)
    return x


def _prior_eval_pass(layers, x, stats):
    j = 0
    for layer in layers:
        if layer.kind == "linear":
            x = _ref_linear(x, layer)
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0)
        else:
            mean, var = stats[j]
            j += 1
            inv = 1.0 / np.sqrt(var + BN_EPS)
            x = layer.scale * ((x - mean) * inv) + layer.shift
    return x


def _prior_backward(net: Network, logits, labels, cache):
    if cache is None:
        raise ValueError("backward needs the cache from a train-mode forward")
    if len(cache) != len(net.layers):
        raise ValueError("cache does not match this network")
    labels = np.asarray(labels)
    n = logits.shape[0]
    n_classes = logits.shape[1]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes})")

    logp = log_softmax(logits)
    loss = float(-logp[np.arange(n), labels].mean())
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss")
    delta = np.exp(logp)
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    grads = {}
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if layer.kind == "linear":
            (x,) = cache[i]
            grads[f"{i}.weight"] = x.T @ delta
            if layer.bias is not None:
                grads[f"{i}.bias"] = delta.sum(axis=0)
            delta = delta @ layer.weight.T
        elif layer.kind == "relu":
            (x,) = cache[i]
            delta = delta * (x > 0.0)
        else:
            xhat, inv = cache[i]
            grads[f"{i}.scale"] = (delta * xhat).sum(axis=0)
            grads[f"{i}.shift"] = delta.sum(axis=0)
            dxhat = delta * layer.scale
            b = xhat.shape[0]
            delta = (inv / b) * (b * dxhat - dxhat.sum(axis=0)
                                 - xhat * (dxhat * xhat).sum(axis=0))
    return loss, grads


def assert_within(a, b, rel=1e-12):
    """``a`` is within ``rel`` of ``b``, relative to the largest ``|b|``."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= rel * np.max(np.abs(b),
                                                              initial=0.0)


@pytest.mark.parametrize("case", range(7))
def test_kernels_stay_within_1e_12_of_the_prior_order(case):
    # four steps from one start, each side on its own copy: the deviation
    # each step adds and what the earlier steps carried into it; the prior
    # advances the moving statistics every step, the kernels once for the
    # four steps
    name, net, mask, batches = list(_oracle_cases())[case]
    prior = net.clone()
    zero = net.masked_out(mask) if mask is not None else None
    classes = net.params()[f"{len(net.layers) - 1}.bias"].size
    rng = np.random.default_rng(100 + case)
    moments = bn_moments(net, 4)
    for step, row in enumerate(moments):
        batch = batches[step % len(batches)]
        x = rng.normal(size=(batch, net.input_dim))
        y = rng.integers(0, classes, size=batch)
        logits, cache = forward(net, x, "train", moments=row)
        prior_logits, prior_cache = _prior_forward(prior, x, "train")
        assert_within(logits, prior_logits)
        loss, grad = backward(net, logits, y, cache)
        prior_loss, prior_grads = _prior_backward(prior, prior_logits, y,
                                                  prior_cache)
        assert loss == pytest.approx(prior_loss, rel=1e-12, abs=0.0), name
        # relative to the whole vector: the bias gradient of a linear layer
        # that feeds a BN layer is zero but for rounding
        assert_within(grad, np.concatenate([prior_grads[key].reshape(-1)
                                            for key in net.params()]))
        sgd_step(net, grad, 0.05, mask, zero)
        _ref_sgd_step(prior, prior_grads, 0.05, mask)
        assert_within(net.flat, prior.flat)
        # the passes on the same statistics
        prior_stats = bn_stats(prior)
        assert_within(eval_pass(net.layers, x, prior_stats),
                      _prior_eval_pass(prior.layers, x, prior_stats))
        assert_within(refresh_pass(net.layers, x, list(prior_stats)),
                      _prior_refresh_pass(prior.layers, x, list(prior_stats)))
    advance_bn_stats(net, _discounted(moments), len(moments))
    stats, prior_stats = bn_stats(net), bn_stats(prior)
    for pair, prior_pair in zip(stats, prior_stats):
        for a, b in zip(pair, prior_pair):
            assert_within(a, b)
    assert_within(eval_pass(net.layers, x, stats),
                  _prior_eval_pass(prior.layers, x, prior_stats))
