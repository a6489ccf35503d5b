"""Minimal dense-tensor network engine with exact reverse-mode gradients.

Feed-forward chains of linear, ReLU, and batch-normalization layers over
float64 numpy arrays. Networks are plain values: ``clone()`` yields a fully
independent copy, every operation is a deterministic function of its inputs,
and eval-mode passes never mutate state.

The passes compute in place only on arrays they allocated themselves: never
on the caller's batch, an array cached for ``backward`` or a BN layer's
array. They are bit-identical to the reference kernels in ``tests/test_nn``,
which make one new array per operation. A BN layer folds its normalization
into one per-feature product ``g = scale / sqrt(var + BN_EPS)`` and one sum.
Selection passes also take C stacked candidates: a ``(C, fan_in, fan_out)``
weight gives ``(C, B, fan_out)``, one matrix product per candidate.

A linear layer that feeds a BN layer has no bias, which BN would cancel. A
train-mode forward writes each BN layer's batch mean and variance into a row
of moments, and ``advance_bn_stats`` advances the moving statistics over a
run of steps in closed form; ``backward`` makes one ``exp`` of the logits.
"""

from __future__ import annotations

import copy
import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .masking import Mask

Array = np.ndarray

# every BN layer's momentum and epsilon; the momentum weights the previous
# moving value: ``mean = BN_MOMENTUM * mean + (1 - BN_MOMENTUM) * mu`` per
# batch. Training advances the statistics once for a run of steps, by the
# closed form of that rule (``advance_bn_stats``); the statistics refresh
# advances them batch by batch.
BN_MOMENTUM = 0.9
BN_EPS = 1e-5


class Linear:
    """Affine layer ``y = x @ weight + bias`` with weight shape (fan_in, fan_out),
    or ``y = x @ weight`` with ``bias=None``."""

    kind = "linear"

    def __init__(self, weight, bias=None):
        self.weight = np.asarray(weight, dtype=np.float64).copy()
        self.bias = (None if bias is None
                     else np.asarray(bias, dtype=np.float64).copy())
        if self.weight.ndim != 2 or (self.bias is not None and
                                     self.bias.shape != (self.weight.shape[1],)):
            raise ValueError("linear layer needs a 2-D weight and a matching bias")


class ReLU:
    kind = "relu"


class BatchNorm:
    """Per-feature moving statistics plus the affine transform of one BN
    layer; its momentum and epsilon are ``BN_MOMENTUM`` and ``BN_EPS``."""

    kind = "batchnorm"

    def __init__(self, mean, var, scale=None, shift=None):
        self.mean = np.asarray(mean, dtype=np.float64).copy()
        self.var = np.asarray(var, dtype=np.float64).copy()
        self.scale = (np.ones_like(self.mean) if scale is None
                      else np.asarray(scale, dtype=np.float64).copy())
        self.shift = (np.zeros_like(self.mean) if shift is None
                      else np.asarray(shift, dtype=np.float64).copy())
        if np.any(self.var < 0.0):
            raise ValueError("BN variance must be nonnegative")


class Network:
    """Ordered layer list.

    Parameter tensors are addressed by string keys ``"<layer_index>.<name>"``.
    BN parameters, biases, and the first and last linear layers are excluded
    from pruning; ``prunable_keys()`` lists the weight tensors that remain,
    in layer order, and the pruning schedule groups these keys.

    Every parameter tensor is a view into one float64 vector ``flat``, tiled
    in ``params()`` order, and so is the layer attribute holding it; ``grad``
    is the vector of the same layout that ``backward`` writes. A linear
    layer without a bias has no ``bias`` tensor.
    """

    _PARAMS = {"linear": ("weight", "bias"), "batchnorm": ("scale", "shift")}

    def __init__(self, layers):
        self.layers = list(layers)
        if not self.layers:
            raise ValueError("network needs at least one layer")
        linear_ix = [i for i, l in enumerate(self.layers) if l.kind == "linear"]
        if not linear_ix:
            raise ValueError("network needs at least one linear layer")
        self.input_dim = width = self.layers[linear_ix[0]].weight.shape[0]
        for i, layer in enumerate(self.layers):
            if layer.kind == "linear":
                if layer.weight.shape[0] != width:
                    raise ValueError(f"layer {i}: fan_in {layer.weight.shape[0]}"
                                     f" after a {width}-wide layer")
                width = layer.weight.shape[1]
            elif layer.kind == "batchnorm" and any(
                    getattr(layer, name).shape != (width,)
                    for name in ("mean", "var", "scale", "shift")):
                raise ValueError(f"layer {i}: BN statistics, scale and shift "
                                 f"must have the {width} features of its input")
        self._prunable = tuple(f"{i}.weight" for i in linear_ix[1:-1])
        tensors = {f"{i}.{name}": getattr(l, name)
                   for i, l in enumerate(self.layers)
                   for name in self._PARAMS.get(l.kind, ())
                   if getattr(l, name) is not None}
        ends = np.cumsum([p.size for p in tensors.values()])
        self._spans = {key: (slice(end - p.size, end), p.shape)
                       for (key, p), end in zip(tensors.items(), ends)}
        self.flat = np.concatenate([p.reshape(-1) for p in tensors.values()])
        self._bind()

    def _bind(self) -> None:
        """Point every parameter attribute at its view of ``flat``."""
        self._params = self._views(self.flat)
        for key, p in self._params.items():
            idx, name = key.split(".")
            setattr(self.layers[int(idx)], name, p)
        self.drop_grads()

    def drop_grads(self) -> None:
        """Free ``grad``; the next ``backward`` allocates it again."""
        self.grad, self._grads = None, {}

    def _views(self, vec: Array) -> dict[str, Array]:
        return {k: vec[s].reshape(shape) for k, (s, shape) in self._spans.items()}

    def params(self) -> dict[str, Array]:
        """Live views of every parameter tensor, in layer order."""
        return dict(self._params)

    def grads(self) -> dict[str, Array]:
        """Live views of ``grad`` keyed like ``params()``, which each
        ``backward`` overwrites; made by the first call since ``drop_grads``."""
        if self.grad is None:
            self.grad = np.zeros_like(self.flat)
            self._grads = self._views(self.grad)
        return dict(self._grads)

    def set_param(self, key: str, value: Array) -> None:
        if self._params[key].shape != np.shape(value):
            raise ValueError(f"shape mismatch for {key}")
        self._params[key][...] = value

    def masked_out(self, mask: Mask) -> Array:
        """Boolean vector laid out like ``flat``, True where ``mask`` prunes."""
        zero = np.zeros(self.flat.shape, dtype=bool)
        views = self._views(zero)
        for key, m in mask.slices.items():
            np.equal(m, 0, out=views[key])
        return zero

    def prunable_keys(self) -> tuple[str, ...]:
        return self._prunable

    def bn_layers(self) -> list[tuple[int, BatchNorm]]:
        return [(i, l) for i, l in enumerate(self.layers) if l.kind == "batchnorm"]

    def layer_of_key(self, key: str) -> int:
        return int(key.split(".")[0])

    def clone(self) -> "Network":
        """An independent copy, with its own ``flat`` and BN statistics."""
        out = copy.copy(self)
        out.layers = [copy.copy(layer) for layer in self.layers]
        for _, bn in out.bn_layers():
            bn.mean, bn.var = bn.mean.copy(), bn.var.copy()
        out.flat = self.flat.copy()
        out._bind()
        return out


def make_mlp(in_dim: int, hidden, classes: int, *, batch_norm: bool = True,
             seed: int = 0) -> Network:
    """He-initialized MLP: [Linear, BN, ReLU] per hidden width, then a Linear
    head. Only the linear layers before BN have no bias: BN's batch mean
    cancels it (Ioffe and Szegedy, 2015, section 3.2)."""
    rng = np.random.default_rng(seed)
    layers: list = []
    fan_in = in_dim
    for width in hidden:
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, width))
        layers.append(Linear(w, None if batch_norm else np.zeros(width)))
        if batch_norm:
            layers.append(BatchNorm(np.zeros(width), np.ones(width)))
        layers.append(ReLU())
        fan_in = width
    w = rng.normal(0.0, np.sqrt(1.0 / fan_in), size=(fan_in, classes))
    layers.append(Linear(w, np.zeros(classes)))
    return Network(layers)


# ---------------------------------------------------------------------------
# Forward / backward / SGD
# ---------------------------------------------------------------------------

def forward(net: Network, batch, mode: str = "train", moments=None):
    """Run the network on a (B, d_in) batch.

    Train mode normalizes BN layers with batch statistics and writes each
    BN layer's batch mean and variance, in layer order, into ``moments`` (a
    row of ``bn_moments``) when it is given; it never writes the moving
    statistics. Eval mode uses the stored statistics and mutates nothing.
    Returns ``(logits, cache)`` where the cache feeds ``backward`` (``None``
    in eval mode). The batch itself is never written.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = _check_batch(net, batch)
    if mode == "eval":
        return eval_pass(net.layers, x, bn_stats(net)), None
    if x.shape[0] < 2:
        raise ValueError("train-mode batches need at least 2 samples")
    cache: list = []
    own = False  # x was allocated by this pass and is not cached
    at = 0  # where the next BN layer's moments go
    for layer in net.layers:
        if layer.kind == "linear":
            cache.append((x,))
            x = x @ layer.weight
            if layer.bias is not None:
                x += layer.bias
            own = True
        elif layer.kind == "relu":
            # the output is positive exactly where the input is, so
            # backward can read its mask from the output
            x = np.maximum(x, 0.0, out=x if own else None)
            cache.append((x,))
            own = False
        else:  # batchnorm
            end = at + 2 * x.shape[1]
            _, centred, var = batch_stats(
                x, None if moments is None else moments[at:end])
            at = end
            inv = (var + BN_EPS) ** -0.5
            g = inv * layer.scale
            cache.append((centred, inv, g))
            x = centred * g
            x += layer.shift
            own = True
    return x, cache


def bn_moments(net: Network, rows: int) -> Array:
    """Zeroed rows of batch moments of the BN layers: each layer's mean,
    then its variance, in layer order."""
    return np.zeros((rows, 2 * sum(bn.mean.size for _, bn in net.bn_layers())))


def advance_bn_stats(net: Network, total: Array, steps: int) -> None:
    """Advance every BN layer's moving statistics over ``steps`` train steps
    by the closed form of as many momentum updates, ``m**T * start + (1 - m)
    * total`` with ``m = BN_MOMENTUM``, where ``total`` is the row of the
    steps' discounted batch moments ``sum_t m**(T - t) * x_t``."""
    m = BN_MOMENTUM
    for _, bn in net.bn_layers():
        n = bn.mean.size
        # m**T underflows to 0 in long runs, and the start is forgotten
        bn.mean = m ** steps * bn.mean + (1.0 - m) * total[:n]
        bn.var = m ** steps * bn.var + (1.0 - m) * total[n:2 * n]
        total = total[2 * n:]


def update_bn_stats(net: Network, batch) -> None:
    """Statistics-refresh pass: advance BN moving statistics with batch
    statistics while leaving every parameter untouched.

    Accepts batches of any size >= 1 (a singleton batch contributes zero
    variance); nothing is cached and no gradient is available.
    """
    x = _check_batch(net, batch)
    if x.shape[0] < 1:
        raise ValueError("statistics pass needs at least 1 sample")
    stats = bn_stats(net)
    refresh_pass(net.layers, x, stats)
    for (_, bn), (mean, var) in zip(net.bn_layers(), stats):
        bn.mean, bn.var = mean, var


def bn_stats(net: Network) -> list[tuple[Array, Array]]:
    """The ``(mean, var)`` moving statistics of every BN layer, in order
    (live references, not copies)."""
    return [(bn.mean, bn.var) for _, bn in net.bn_layers()]


def batch_stats(x: Array, out: Array | None = None
                ) -> tuple[Array, Array, Array]:
    """Per-feature batch mean, the centred batch, and the biased batch
    variance over the batch axis -2. The mean is the sum and division
    ``x.mean(axis=-2)`` runs, and the variance reuses the centred batch;
    they are bit-identical to ``x.mean(axis=-2)`` and ``x.var(axis=-2)``.
    With ``out``, a vector of twice the feature count, the mean is written
    into its first half and the variance into its second."""
    n, width = x.shape[-2:]
    mu = np.divide(np.add.reduce(x, axis=-2), n,
                   out=None if out is None else out[:width])
    centred = x - mu[..., None, :]
    return mu, centred, np.divide(np.add.reduce(centred * centred, axis=-2), n,
                                  out=None if out is None else out[width:])


def refresh_pass(layers, x: Array, stats: list, *,
                 stats_only: bool = False) -> Array | None:
    """Statistics-refresh pass of ``x`` through ``layers``: every BN layer
    normalizes with batch statistics and advances its moving statistics.
    ``stats`` holds one ``(mean, var)`` pair per BN layer of ``layers``, in
    order; each pair is replaced by the advanced one, and neither a layer
    nor ``x`` is written. Returns the last layer's output, or with
    ``stats_only`` None as soon as the last pair advances."""
    batch = x
    j = 0
    for layer in layers:
        if layer.kind == "linear":
            x = x @ layer.weight
            if layer.bias is not None:
                x += layer.bias
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0, out=None if x is batch else x)
        else:
            mu, x, var = batch_stats(x)
            mean, old_var = stats[j]
            m = BN_MOMENTUM
            stats[j] = (m * mean + (1.0 - m) * mu, m * old_var + (1.0 - m) * var)
            j += 1
            if stats_only and j == len(stats):
                return None
            x *= (layer.scale * (var + BN_EPS) ** -0.5)[..., None, :]
            x += layer.shift
    return x


def eval_pass(layers, x: Array, stats) -> Array:
    """Eval-mode pass of ``x`` through ``layers``, normalizing every BN layer
    with the matching ``(mean, var)`` pair of ``stats`` in place of the
    layer's own statistics. Mutates nothing, ``x`` included."""
    batch = x
    j = 0
    for layer in layers:
        if layer.kind == "linear":
            x = x @ layer.weight
            if layer.bias is not None:
                x += layer.bias
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0, out=None if x is batch else x)
        else:
            mean, var = stats[j]
            j += 1
            # (x - mean) * g + shift, as one product and one sum
            g = layer.scale * (var + BN_EPS) ** -0.5
            x = np.multiply(x, g[..., None, :], out=None if x is batch else x)
            x += (layer.shift - mean * g)[..., None, :]
    return x


def _check_batch(net: Network, batch) -> Array:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(f"batch shape {x.shape} does not match input width "
                         f"{net.input_dim}")
    return x


def _check_labels(logits: Array, labels) -> Array:
    """``labels`` as an array, if it holds one class of ``logits`` per row."""
    labels = np.asarray(labels)
    n_classes = logits.shape[-1]
    if labels.ndim != 1 or labels.shape[0] != logits.shape[-2]:
        raise ValueError("labels must be a vector matching the batch size")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes})")
    return labels


def log_softmax(logits: Array) -> Array:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy(logits: Array, labels) -> float | Array:
    """Mean softmax cross-entropy of the integer ``labels``: a float, or one
    per candidate for stacked ``(C, B, classes)`` logits."""
    labels = _check_labels(logits, labels)
    logp = log_softmax(logits)
    # contiguous, so each row's mean is the pairwise sum a 1-D mean runs
    picked = np.ascontiguousarray(logp[..., np.arange(len(labels)), labels])
    loss = -picked.mean(axis=-1)
    if not np.isfinite(loss).all():
        raise FloatingPointError("non-finite loss")
    return loss if loss.ndim else float(loss)


def backward(net: Network, logits: Array, labels, cache):
    """Softmax cross-entropy loss and exact gradients for every parameter.

    Requires the cache of a train-mode forward on the same batch. Returns
    the loss and ``net.grad``, which the next ``backward`` on ``net``
    overwrites. Gradients are dense; any masking is the caller's concern.
    The loss, with the bits ``cross_entropy`` gives, and the logit gradient
    come from one ``exp`` of the shifted logits.
    """
    if cache is None:
        raise ValueError("backward needs the cache from a train-mode forward")
    if len(cache) != len(net.layers):
        raise ValueError("cache does not match this network")
    labels = _check_labels(logits, labels)
    n = logits.shape[0]
    rows = np.arange(n)
    shifted = logits - logits.max(axis=1, keepdims=True)
    delta = np.exp(shifted)
    sums = np.add.reduce(delta, axis=1, keepdims=True)
    loss = -float((shifted[rows, labels] - np.log(sums[:, 0])).mean())
    if not math.isfinite(loss):
        raise FloatingPointError("non-finite loss")
    delta /= sums * n  # (softmax - onehot) / n
    delta[rows, labels] -= 1.0 / n

    # views in flat order, which the walk from the last layer pops
    grads = list(net.grads().values())
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if layer.kind == "linear":
            (x,) = cache[i]
            if layer.bias is not None:
                np.add.reduce(delta, axis=0, out=grads.pop())  # bias
            np.matmul(x.T, delta, out=grads.pop())  # weight
            if i > 0:  # nothing reads the gradient of the network input
                delta = delta @ layer.weight.T
        elif layer.kind == "relu":
            (y,) = cache[i]
            delta *= y > 0.0
        else:
            centred, inv, g = cache[i]
            b = centred.shape[0]
            dshift = np.add.reduce(delta, axis=0, out=grads.pop())
            tmp = delta * centred
            dscale = np.add.reduce(tmp, axis=0, out=grads.pop())
            dscale *= inv
            if i > 0:
                # dx = g * (delta - dshift / b - centred * (inv * dscale / b)),
                # the BN input gradient with xhat = centred * inv
                delta -= dshift / b
                np.multiply(centred, inv * dscale / b, out=tmp)
                delta -= tmp
                delta *= g
    return loss, net.grad


def sgd_step(net: Network, grad: Array, lr: float, mask: Mask | None = None,
             zero: Array | None = None) -> Network:
    """In-place SGD update ``flat -= lr * grad``, scaling ``grad`` in place.
    Under ``mask``, the coordinates where ``zero = net.masked_out(mask)``
    (built once while the mask holds) is True are then set to exactly +0.0;
    since ``g * 1 == g`` exactly, this is the masked update, bit for bit."""
    if not 0.0 < lr < np.inf:
        raise ValueError(f"learning rate must be positive and finite, got {lr}")
    if grad.shape != net.flat.shape:
        raise ValueError("gradient does not match the parameter vector")
    if (mask is None) != (zero is None):
        raise ValueError("a mask needs its masked-out vector, and only a mask")
    grad *= lr
    net.flat -= grad
    if zero is not None:
        np.copyto(net.flat, 0.0, where=zero)
    return net
