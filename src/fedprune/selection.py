"""Adaptive batch-normalization candidate selection.

A candidate is a mask over one pretrained network. Clients refresh the BN
moving statistics of every masked sub-network on their local development
data (weights frozen throughout), the server aggregates the statistics and
redistributes them, clients score each candidate by eval-mode loss, and the
candidate with the lowest weighted loss wins. ``vanilla_select`` is the
ablation that skips the statistics refresh.

The layers before the first masked tensor are the same in every candidate,
so both selectors run them once per client batch and only the rest per
candidate; only the winner becomes a network. No operation in this module
ever changes a parameter value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .masking import Candidate, apply_mask
# ``forward`` and ``update_bn_stats`` are not called here; bench/tracer.py
# patches them as attributes of this module
from .nn import Array, Linear, Network, bn_stats, cross_entropy, eval_pass, \
    forward, refresh_pass, update_bn_stats  # noqa: F401


@dataclass
class BNReport:
    """One client's BN moving statistics, one ``(mean, var)`` pair per BN
    layer, weighted by its sample count."""

    stats: list[tuple[Array, Array]]
    samples: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("a BN report needs at least one sample")
        for _, var in self.stats:
            if np.any(var < 0.0):
                raise ValueError("reported variances must be nonnegative")


def iter_batches(ds: Dataset, batch_size: int):
    """Insertion-order batches of the dataset; the tail may be short."""
    for start in range(0, len(ds), batch_size):
        yield (ds.features[start:start + batch_size],
               ds.labels[start:start + batch_size])


def client_bn_pass(layers, batches, stats) -> BNReport:
    """Refresh the BN moving statistics ``stats`` (one ``(mean, var)`` pair
    per BN layer of ``layers``) over the ``(x, y)`` batches with frozen
    weights. Neither the layers nor ``stats`` change. The pass stops at the
    last BN layer: no statistic depends on the layers after it."""
    stats = list(stats)
    bn = [i for i, layer in enumerate(layers) if layer.kind == "batchnorm"]
    layers = layers[:bn[-1] + 1] if bn else []
    for x, _ in batches:
        refresh_pass(layers, x, stats)
    return BNReport(stats, _samples(batches))


def client_score(layers, batches, stats) -> float:
    """Eval-mode cross-entropy of ``layers`` over the ``(x, y)`` batches,
    with ``stats`` in place of the BN layers' own statistics."""
    total = 0.0
    for x, y in batches:
        total += cross_entropy(eval_pass(layers, x, stats), y) * len(y)
    return total / _samples(batches)


def aggregate_bn(reports: list[BNReport]) -> list[tuple[Array, Array]]:
    """Dev-size-weighted aggregation of client BN statistics into one
    ``(mean, var)`` pair per layer. Means are averaged; spreads are
    averaged as standard deviations, and sigma-bar squared becomes the
    global variance."""
    if not reports:
        raise ValueError("need at least one BN report")
    first = reports[0].stats
    for rep in reports:
        if len(rep.stats) != len(first):
            raise ValueError("BN reports disagree on layer count")
        for (a, _), (b, _) in zip(rep.stats, first):
            if a.shape != b.shape:
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


def install_bn(net: Network, stats: list[tuple[Array, Array]]) -> None:
    """Overwrite the running statistics of every BN layer with the matching
    ``(mean, var)`` pair (statistics only; the affine parameters stay as
    they are)."""
    bn = net.bn_layers()
    if len(bn) != len(stats):
        raise ValueError("statistics do not match the network's BN layers")
    for (_, layer), (mu, var) in zip(bn, stats):
        if layer.mean.shape != mu.shape:
            raise ValueError("BN statistics shape mismatch")
        layer.mean = np.asarray(mu, dtype=np.float64).copy()
        layer.var = np.asarray(var, dtype=np.float64).copy()


def adaptive_select(net: Network, pool: list[Candidate],
                    dev_sets: list[Dataset], batch_size: int = 64):
    """Full selection protocol over the candidate masks of ``net``. Returns
    the winner's position in ``pool``, the winner's masked network with the
    aggregated global statistics installed, and the per-candidate
    aggregated scores."""
    head, tails = _split(net, pool)
    stats = bn_stats(net)
    n_head = _n_bn(head)
    clients = _client_batches(dev_sets, batch_size)
    head_reports = []
    tail_reports: list[list[BNReport]] = [[] for _ in tails]
    for batches in clients:
        head_stats = stats[:n_head]
        acts = [(refresh_pass(head, x, head_stats), y) for x, y in batches]
        head_reports.append(BNReport(head_stats, _samples(batches)))
        for tail, reports in zip(tails, tail_reports):
            reports.append(client_bn_pass(tail, acts, stats[n_head:]))
    # aggregation is per layer, so the head's global statistics are shared
    head_global = aggregate_bn(head_reports)
    tail_global = [aggregate_bn(reports) for reports in tail_reports]
    scores = _score(head, head_global, tails, tail_global, clients)
    winner = _winner(scores)
    winner_net = apply_mask(net, pool[winner].mask)
    install_bn(winner_net, head_global + tail_global[winner])
    return winner, winner_net, scores


def vanilla_select(net: Network, pool: list[Candidate],
                   dev_sets: list[Dataset], batch_size: int = 64):
    """Ablation variant: score candidates with the pretrained BN statistics
    (no refresh, no aggregation)."""
    head, tails = _split(net, pool)
    stats = bn_stats(net)
    n_head = _n_bn(head)
    scores = _score(head, stats[:n_head], tails, [stats[n_head:]] * len(tails),
                    _client_batches(dev_sets, batch_size))
    winner = _winner(scores)
    return winner, apply_mask(net, pool[winner].mask), scores


def _split(net: Network, pool: list[Candidate]):
    """The layers before the first one any candidate masks (the shared
    head), and each candidate's layers from there on. A masked weight is a
    copy with +0.0 where the mask is 0, as ``apply_mask`` writes; every
    other layer is ``net``'s own, shared and never changed."""
    if not pool:
        raise ValueError("no candidates to select from")
    cut = min((net.layer_of_key(key) for c in pool for key in c.mask.slices),
              default=len(net.layers))
    tails = []
    for c in pool:
        tail = net.layers[cut:]
        for key, m in c.mask.slices.items():
            i = net.layer_of_key(key) - cut
            tail[i] = Linear(np.where(m == 0, 0.0, tail[i].weight),
                             tail[i].bias)
        tails.append(tail)
    return net.layers[:cut], tails


def _n_bn(layers) -> int:
    return sum(layer.kind == "batchnorm" for layer in layers)


def _client_batches(dev_sets: list[Dataset], batch_size: int):
    """Each client's dev batches, as ``(x, y)`` pairs."""
    if any(len(dev) < 1 for dev in dev_sets):
        raise ValueError("development dataset is empty")
    return [list(iter_batches(dev, batch_size)) for dev in dev_sets]


def _samples(batches) -> int:
    return sum(len(y) for _, y in batches)


def _score(head, head_stats, tails, tail_stats, clients):
    """Dev-size-weighted eval-mode dev loss of every candidate, keyed by its
    position: ``tails[c]`` scored with ``tail_stats[c]`` on the head's
    output. The head runs once per client batch."""
    losses: list[list[float]] = [[] for _ in tails]
    for batches in clients:
        acts = [(eval_pass(head, x, head_stats), y) for x, y in batches]
        for tail, st, per_client in zip(tails, tail_stats, losses):
            per_client.append(client_score(tail, acts, st))
    sizes = [_samples(batches) for batches in clients]
    total = sum(sizes)
    return {c: sum(n / total * s for n, s in zip(sizes, per_client))
            for c, per_client in enumerate(losses)}


def _winner(scores: dict[int, float]) -> int:
    """The position with the lowest aggregated score; ties go to the lowest
    position."""
    return min(sorted(scores), key=scores.get)
