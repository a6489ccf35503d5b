"""Adaptive batch-normalization candidate selection.

A candidate is one keep-count row of a ``Pool`` over a pretrained network.
Clients refresh the BN moving statistics of every masked sub-network on
their local development data (weights frozen throughout), the server
aggregates the statistics and redistributes them, clients score each
candidate by eval-mode loss, and the candidate with the lowest weighted loss
wins. ``vanilla_select`` is the ablation that skips the statistics refresh.

The layers before the first masked tensor are the same in every candidate,
so both selectors run them once per client batch, and the rest once per
chunk of ``CHUNK`` stacked distinct masks: candidates with equal count rows
keep the same weights and are one network, refreshed and scored once, and
each keeps its own position and that score. Masks are built only for the
chunks and the winner, which alone becomes a network.
No operation in this module ever changes a parameter value.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .masking import Pool, keep_prefix, zero_masked
# ``forward`` and ``update_bn_stats`` are not called here; bench/tracer.py
# patches them as attributes of this module
from .nn import Array, Network, bn_stats, cross_entropy, eval_pass, \
    forward, refresh_pass, update_bn_stats  # noqa: F401

CHUNK = 8  # candidates scored together, each as one slice of stacked arrays


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
    weights. Neither the layers nor ``stats`` change. The pass stops once
    the last pair advances: no statistic depends on what follows."""
    stats = list(stats)
    for x, _ in batches if stats else ():
        refresh_pass(layers, x, stats, stats_only=True)
    return BNReport(stats, _samples(batches))


def client_score(layers, batches, stats) -> float | Array:
    """Eval-mode cross-entropy of ``layers`` over the ``(x, y)`` batches, with
    ``stats`` for the BN layers' statistics; one per stacked candidate."""
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


def install_bn(net: Network, stats: list[tuple[Array, Array]]) -> None:
    """Write the matching ``(mean, var)`` pair into the running statistics
    of every BN layer, in place (statistics only; the affine parameters stay
    as they are). Statistics that do not fit change nothing."""
    bn = net.bn_layers()
    if len(bn) != len(stats) or any(
            not layer.mean.shape == np.shape(mu) == np.shape(var)
            for (_, layer), (mu, var) in zip(bn, stats)):
        raise ValueError("statistics do not match the network's BN layers")
    for (_, layer), (mu, var) in zip(bn, stats):
        layer.mean[...], layer.var[...] = mu, var


def adaptive_select(net: Network, pool: Pool, dev_sets: list[Dataset],
                    batch_size: int = 64):
    """Full selection protocol over the candidate masks of ``net``. Returns
    the winner's position in ``pool``, the winner's masked network with the
    aggregated global statistics installed, and the per-candidate
    aggregated scores."""
    firsts, index = _distinct(pool)
    head, chunks = _split(net, pool, firsts)
    # cloned before the per-client head outputs, which are freed before the
    # winner's statistics: no long-lived array then pins their heap memory
    winner_net = net.clone()
    stats = bn_stats(net)
    n_head = sum(layer.kind == "batchnorm" for layer in head)
    clients = _client_batches(dev_sets, batch_size)
    head_reports, refreshed = [], []
    for batches in clients:
        head_stats = stats[:n_head]
        refreshed.append([(refresh_pass(head, x, head_stats), y)
                          for x, y in batches])
        head_reports.append(BNReport(head_stats, _samples(batches)))
    # aggregation is per layer, so the head's global statistics are shared
    head_global = aggregate_bn(head_reports)
    acts = [[(eval_pass(head, x, head_global), y) for x, y in batches]
            for batches in clients]
    losses, tail_global = [], []
    for tail in chunks:
        tail_global.append(aggregate_bn(
            [client_bn_pass(tail, a, stats[n_head:]) for a in refreshed]))
        losses += _score(tail, tail_global[-1], acts)
    del refreshed, acts
    scores = {i: losses[d] for i, d in enumerate(index)}
    winner = _winner(scores)
    chunk, row = divmod(index[winner], CHUNK)
    zero_masked(winner_net, pool.mask(winner))
    install_bn(winner_net, head_global + [(mean[row], var[row]) for mean, var
                                          in tail_global[chunk]])
    return winner, winner_net, scores


def vanilla_select(net: Network, pool: Pool, dev_sets: list[Dataset],
                   batch_size: int = 64):
    """Ablation variant: score candidates with the pretrained BN statistics
    (no refresh, no aggregation)."""
    firsts, index = _distinct(pool)
    head, chunks = _split(net, pool, firsts)
    winner_net = net.clone()  # before the head outputs, as adaptive_select
    stats = bn_stats(net)
    n_head = sum(layer.kind == "batchnorm" for layer in head)
    acts = [[(eval_pass(head, x, stats[:n_head]), y) for x, y in batches]
            for batches in _client_batches(dev_sets, batch_size)]
    losses = [s for tail in chunks for s in _score(tail, stats[n_head:], acts)]
    scores = {i: losses[d] for i, d in enumerate(index)}
    winner = _winner(scores)
    zero_masked(winner_net, pool.mask(winner))
    return winner, winner_net, scores


def _distinct(pool: Pool):
    """The first position of each distinct mask in ``pool``, and each
    candidate's index into that list. Masks are told apart by their count
    rows, never by the drawn shares: two draws can round to the same keep
    counts."""
    seen: dict[tuple, int] = {}
    index = [seen.setdefault(tuple(row), len(seen))
             for row in pool.counts.tolist()]
    return [index.index(d) for d in range(len(seen))], index


def _split(net: Network, pool: Pool, firsts: list[int]):
    """The layers before the first masked one (the shared head), and a
    generator of each ``CHUNK`` of the ``firsts`` candidates' layers from
    there on. A masked weight stacks the chunk's copies, +0.0 where the mask
    is 0 as in ``apply_mask``; every other layer is ``net``'s own."""
    if not firsts:
        raise ValueError("no candidates to select from")
    cut = min(map(net.layer_of_key, pool.order))

    def chunk_tail(rows):
        tail = net.layers[cut:]
        for j, (key, order) in enumerate(pool.order.items()):
            i = net.layer_of_key(key) - cut
            kept = np.stack([keep_prefix(order, n, pool.shapes[key])
                             for n in pool.counts[rows, j]])
            tail[i] = copy.copy(tail[i])
            tail[i].weight = np.where(kept, tail[i].weight, 0.0)
        return tail

    return net.layers[:cut], (chunk_tail(firsts[start:start + CHUNK])
                              for start in range(0, len(firsts), CHUNK))


def _client_batches(dev_sets: list[Dataset], batch_size: int):
    """Each client's dev batches, as ``(x, y)`` pairs."""
    if any(len(dev) < 1 for dev in dev_sets):
        raise ValueError("development dataset is empty")
    return [list(iter_batches(dev, batch_size)) for dev in dev_sets]


def _samples(batches) -> int:
    return sum(len(y) for _, y in batches)


def _score(tail, tail_stats, clients) -> list[float]:
    """Dev-size-weighted eval-mode dev loss of each candidate of one chunk:
    its stacked ``tail`` scored with ``tail_stats`` on the ``(x, y)`` batches
    of every client, ``x`` the head's eval-mode output."""
    sizes = [_samples(batches) for batches in clients]
    total = sum(sizes)
    loss = sum(n / total * client_score(tail, batches, tail_stats)
               for n, batches in zip(sizes, clients))
    return loss.tolist()


def _winner(scores: dict[int, float]) -> int:
    """The position with the lowest aggregated score; ties go to the lowest
    position."""
    return min(sorted(scores), key=scores.get)
