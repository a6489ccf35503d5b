"""Minimal dense-tensor network engine with exact reverse-mode gradients.

Feed-forward chains of linear, ReLU, and batch-normalization layers over
float64 numpy arrays. Networks are plain values: ``clone()`` yields a fully
independent copy, every operation is a deterministic function of its inputs,
and eval-mode passes never mutate state.

The passes compute in place only on arrays they allocated and on the
statistics a refresh advances: never on the caller's batch, an array cached
for ``backward`` or a layer's parameters. They are bit-identical to the
reference kernels in ``tests/test_nn``, which make one new array per
operation. A BN layer folds its normalization into one per-feature product
``g = scale / sqrt(var + BN_EPS)`` and one sum.
Selection passes also take C stacked candidates behind the batch axis: a
``(C, fan_in, fan_out)`` weight gives ``(B, C, fan_out)``, one matrix product
per candidate, or one per column variant up to the linear layer whose
``pick`` gathers each candidate's columns from V variants.

A linear layer that feeds a BN layer has no bias, which BN would cancel. A
network keeps its parameters in one vector, ``flat``, and its BN moving
statistics in another, ``stats``: each BN layer's mean, then its variance,
in layer order. Every array of BN statistics has that layout on its last
axis, and each pass reads a BN layer's entries at a running offset; a stack
of S slices reads the first S rows of ``(rows, size)`` statistics.
``advance_bn_stats`` advances ``stats`` over a run of steps in closed form;
``backward`` makes one ``exp`` of the logits.
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
    or ``y = x @ weight`` with ``bias=None``. A selection tail's layer may
    carry a ``pick`` that gathers its stacked input first (``_stacked_linear``);
    a network's layers never do."""

    kind = "linear"
    pick = None

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
    layer without a bias has no ``bias`` tensor. Every BN layer's ``mean``
    and ``var`` are views into a second float64 vector ``stats``, each
    layer's mean then its variance, in layer order. Code writes into these
    views in place and never rebinds them. ``variances`` is the boolean
    vector laid out like ``stats`` that is True at the variance entries.
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
        self.stats = np.concatenate([np.zeros(0)] + [
            v for _, bn in self.bn_layers() for v in (bn.mean, bn.var)])
        self.variances = np.concatenate([np.zeros(0, bool)] + [
            np.arange(2 * bn.mean.size) >= bn.mean.size
            for _, bn in self.bn_layers()])
        self._bind()

    def _bind(self) -> None:
        """Point every parameter attribute at its view of ``flat``, and every
        BN layer's ``mean`` and ``var`` at theirs of ``stats``."""
        self._params = self._views(self.flat)
        for key, p in self._params.items():
            idx, name = key.split(".")
            setattr(self.layers[int(idx)], name, p)
        at = 0
        for _, bn in self.bn_layers():
            n = bn.mean.size
            bn.mean, bn.var = self.stats[at:at + 2 * n].reshape(2, n)
            at += 2 * n
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

    def masked_out(self, mask: Mask) -> Array:
        """Boolean vector laid out like ``flat``, True where ``mask`` prunes."""
        zero = np.zeros(self.flat.shape, dtype=bool)
        views = self._views(zero)
        for key, m in mask.slices.items():
            np.equal(m, 0, out=views[key])
        return zero

    def rate(self, mask: Mask, lr: float) -> Array:
        """Step sizes laid out like ``flat``: ``lr`` where ``mask`` keeps,
        +0.0 where it prunes."""
        return np.where(self.masked_out(mask), 0.0, lr)

    def prunable_keys(self) -> tuple[str, ...]:
        return self._prunable

    def bn_layers(self) -> list[tuple[int, BatchNorm]]:
        return [(i, l) for i, l in enumerate(self.layers) if l.kind == "batchnorm"]

    def layer_of_key(self, key: str) -> int:
        return int(key.split(".")[0])

    def clone(self) -> "Network":
        """An independent copy, with its own ``flat`` and ``stats``."""
        out = copy.copy(self)
        out.layers = [copy.copy(layer) for layer in self.layers]
        out.flat, out.stats = self.flat.copy(), self.stats.copy()
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
    BN layer's batch mean and variance into ``moments``, a vector laid out
    like ``net.stats``, when it is given; it never writes the moving
    statistics. Eval mode uses the stored statistics and mutates nothing.
    Returns ``(logits, cache)`` where the cache feeds ``backward`` (``None``
    in eval mode). The batch itself is never written.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = _check_batch(net, batch)
    if mode == "eval":
        return eval_pass(net.layers, x, net.stats), None
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
                x, None if moments is None else moments[at:end], in_place=own)
            at = end
            inv = (var + BN_EPS) ** -0.5
            g = inv * layer.scale
            cache.append((centred, inv, g))
            x = centred * g
            x += layer.shift
            own = True
    return x, cache


def advance_bn_stats(net: Network, total: Array, steps: int) -> None:
    """Advance ``net.stats`` over ``steps`` train steps by the closed form of
    as many momentum updates, ``m**T * start + (1 - m) * total`` with
    ``m = BN_MOMENTUM``, where ``total``, laid out like ``stats``, holds the
    steps' discounted batch moments ``sum_t m**(T - t) * x_t``."""
    # m**T underflows to 0 in long runs, and the start is forgotten
    net.stats *= BN_MOMENTUM ** steps
    net.stats += (1.0 - BN_MOMENTUM) * total


def update_bn_stats(net: Network, batch) -> None:
    """Statistics-refresh pass: advance BN moving statistics with batch
    statistics while leaving every parameter untouched.

    Accepts batches of any size >= 1 (a singleton batch contributes zero
    variance); nothing is cached and no gradient is available.
    """
    x = _check_batch(net, batch)
    if x.shape[0] < 1:
        raise ValueError("statistics pass needs at least 1 sample")
    refresh_pass(net.layers, x, net.stats)


def batch_stats(x: Array, out: Array | None = None, *, in_place: bool = False
                ) -> tuple[Array, Array, Array]:
    """Per-feature batch mean, the centred batch, and the biased batch
    variance over the batch axis 0, of a ``(B, width)`` batch or a
    ``(B, C, width)`` stack (one ``(C, width)`` row per candidate). The
    mean is the row-by-row sum and division ``x.mean(axis=0)`` runs, and the
    variance reuses the centred batch; they are bit-identical to
    ``x.mean(axis=0)`` and ``x.var(axis=0)``. With ``out``, a vector of
    twice the feature count, the mean is written into its first half and
    the variance into its second. With ``in_place``, for a batch the
    caller owns, the centred batch is ``x`` itself, centred with the same
    bits; otherwise ``x`` is not written."""
    n, width = x.shape[0], x.shape[-1]
    mu = np.divide(np.add.reduce(x, axis=0), n,
                   out=None if out is None else out[:width])
    centred = np.subtract(x, mu, out=x if in_place else None)
    return mu, centred, np.divide(np.add.reduce(centred * centred, axis=0), n,
                                  out=None if out is None else out[width:])


def _stacked_linear(x: Array, weight: Array, pick: Array | None = None
                    ) -> Array:
    """``x @ weight`` for a 2-D batch and weight, and otherwise batch first:
    a ``(B, C, fan_in)`` stack or a ``(C, fan_in, fan_out)`` weight gives
    ``(B, C, fan_out)``, where candidate ``c`` is the ``(B, fan_in) @
    (fan_in, fan_out)`` product it has alone, written through a
    ``(C, B, fan_out)`` view. A ``(C, fan_in)`` ``pick`` of flat column
    indices first gathers the ``(B, C, fan_in)`` stack from ``x``'s
    ``(B, V * fan_in)`` columns: candidate ``c``'s feature ``f`` is column
    ``pick[c, f]``."""
    if pick is not None:
        # one C-contiguous gather: a strided stack would send the product
        # off BLAS and move its last bits
        x = np.take(x.reshape(len(x), -1), pick, axis=1)
    if x.ndim == weight.ndim == 2:
        return x @ weight
    c = weight.shape[0] if weight.ndim == 3 else x.shape[1]
    out = np.empty((x.shape[0], c, weight.shape[-1]))
    np.matmul(x if x.ndim == 2 else x.swapaxes(0, 1), weight,
              out=out.swapaxes(0, 1))
    return out


def refresh_pass(layers, x: Array, stats: Array, *,
                 stats_only: bool = False) -> Array | None:
    """Statistics-refresh pass of ``x`` through ``layers``: every BN layer
    normalizes with batch statistics and advances, in place, its entries of
    ``stats``, laid out like ``Network.stats`` for the BN layers of
    ``layers``. Neither a layer nor ``x`` is written: a BN layer centres its
    input in place unless it is ``x``. Behind a stacked weight the
    activations are ``(B, C, width)`` and a BN layer advances the first C
    rows of ``(rows, size)`` statistics, or V for V column variants up to
    the linear layer whose ``pick`` gathers each candidate's columns from
    them. Returns the last layer's output, or with ``stats_only`` None as
    soon as the last BN layer advances."""
    batch = x
    at = 0
    for layer in layers:
        if layer.kind == "linear":
            x = _stacked_linear(x, layer.weight, layer.pick)
            if layer.bias is not None:
                x += layer.bias
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0, out=None if x is batch else x)
        else:
            mean, old_var, at = _bn_rows(stats, at, x)
            mu, x, var = batch_stats(x, in_place=x is not batch)
            mean[...] = BN_MOMENTUM * mean + (1.0 - BN_MOMENTUM) * mu
            old_var[...] = BN_MOMENTUM * old_var + (1.0 - BN_MOMENTUM) * var
            if stats_only and at == stats.shape[-1]:
                return None
            x *= layer.scale * (var + BN_EPS) ** -0.5
            x += layer.shift
    return x


def eval_pass(layers, x: Array, stats: Array) -> Array:
    """Eval-mode pass of ``x`` through ``layers``, normalizing every BN layer
    with its entries of ``stats`` in place of the layer's own statistics:
    ``stats`` is laid out like ``Network.stats`` for the BN layers of
    ``layers``, and stacked as in ``refresh_pass``, or a vector that every
    slice of a stack shares. Mutates nothing, ``x`` included."""
    batch = x
    at = 0
    for layer in layers:
        if layer.kind == "linear":
            x = _stacked_linear(x, layer.weight, layer.pick)
            if layer.bias is not None:
                x += layer.bias
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0, out=None if x is batch else x)
        else:
            mean, var, at = _bn_rows(stats, at, x)
            # (x - mean) * g + shift, as one product and one sum
            g = layer.scale * (var + BN_EPS) ** -0.5
            x = np.multiply(x, g, out=None if x is batch else x)
            x += layer.shift - mean * g
    return x


def _bn_rows(stats: Array, at: int, x: Array) -> tuple[Array, Array, int]:
    """Views of the mean and variance at offset ``at`` of ``stats`` for BN
    input ``x`` (of stacked statistics, the rows of ``x``'s stack), and the
    next BN layer's offset."""
    width = x.shape[-1]
    entries = stats[..., at:at + 2 * width]
    if entries.ndim > 1:
        entries = entries[:x.shape[1]]
    return entries[..., :width], entries[..., width:], at + 2 * width


def _check_batch(net: Network, batch) -> Array:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(f"batch shape {x.shape} does not match input width "
                         f"{net.input_dim}")
    return x


def _check_labels(logits: Array, labels) -> Array:
    """``labels`` as an array, if it holds one class of ``logits`` per
    sample of the batch axis 0."""
    labels = np.asarray(labels)
    n_classes = logits.shape[-1]
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError("labels must be a vector matching the batch size")
    if (np.minimum.reduce(labels) < 0
            or np.maximum.reduce(labels) >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes})")
    return labels


def cross_entropy(logits: Array, labels) -> float | Array:
    """Mean softmax cross-entropy of the integer ``labels``: a float for
    ``(B, classes)`` logits, or for stacked ``(B, C, classes)`` logits one
    per candidate, each the mean over its B samples."""
    labels = _check_labels(logits, labels)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    sums = np.add.reduce(np.exp(shifted), axis=-1)
    # each picked log-probability, as ``backward`` takes it
    picked = shifted[np.arange(len(labels)), ..., labels] - np.log(sums)
    # candidate first and contiguous, so each mean is the pairwise sum a
    # 1-D mean runs
    loss = -np.ascontiguousarray(picked.T).mean(axis=-1)
    if not np.isfinite(loss).all():
        raise FloatingPointError("non-finite loss")
    return loss if loss.ndim else float(loss)


def backward(net: Network, logits: Array, labels, cache, lowest: int = 0):
    """Softmax cross-entropy loss and exact gradients for every parameter
    of layer ``lowest`` and above.

    Requires the cache of a train-mode forward on the same batch. Returns
    the loss and ``net.grad``, which the next ``backward`` on ``net``
    overwrites. Gradients are dense; any masking is the caller's concern.
    The loss, with the bits ``cross_entropy`` gives, and the logit gradient
    come from one ``exp`` of the shifted logits. Below ``lowest`` the walk
    propagates nothing and the gradients keep what they held; those it
    writes are the bits of the full walk.
    """
    if cache is None:
        raise ValueError("backward needs the cache from a train-mode forward")
    if len(cache) != len(net.layers):
        raise ValueError("cache does not match this network")
    if not 0 <= lowest < len(net.layers):
        raise ValueError(f"lowest layer {lowest} is not one of the network's "
                         f"{len(net.layers)} layers")
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
    for i in range(len(net.layers) - 1, lowest - 1, -1):
        layer = net.layers[i]
        if layer.kind == "linear":
            (x,) = cache[i]
            if layer.bias is not None:
                np.add.reduce(delta, axis=0, out=grads.pop())  # bias
            np.matmul(x.T, delta, out=grads.pop())  # weight
            if i > lowest:  # nothing reads the gradient of its input
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
            if i > lowest:
                # dx = g * (delta - dshift / b - centred * (inv * dscale / b)),
                # the BN input gradient with xhat = centred * inv
                delta -= dshift / b
                np.multiply(centred, inv * dscale / b, out=tmp)
                delta -= tmp
                delta *= g
    return loss, net.grad


def sgd_step(net: Network, grad: Array, lr: float, mask: Mask | None = None,
             rate: Array | None = None) -> Network:
    """In-place SGD update ``flat -= lr * grad``, scaling ``grad`` in place.
    Under ``mask``, ``grad`` is scaled by ``rate = net.rate(mask, lr)`` (built
    once while the mask holds): ``lr`` where the mask keeps, +0.0 where it
    prunes. Masking, grow/prune and FedAvg leave every pruned coordinate of
    ``flat`` at +0.0, and +0.0 - (+-0.0) is +0.0, so it stays there and this
    is the masked update, bit for bit."""
    if not 0.0 < lr < np.inf:
        raise ValueError(f"learning rate must be positive and finite, got {lr}")
    if grad.shape != net.flat.shape:
        raise ValueError("gradient does not match the parameter vector")
    if (mask is None) != (rate is None):
        raise ValueError("a mask needs its rate vector, and only a mask")
    grad *= lr if rate is None else rate
    net.flat -= grad
    return net
