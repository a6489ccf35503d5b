"""Adaptive batch-normalization candidate selection.

A candidate is one keep-count row of a ``Pool`` over a pretrained network.
Clients refresh the BN moving statistics of every masked sub-network on
their local development data (weights frozen throughout), the server
aggregates the statistics and redistributes them, clients score each
candidate by eval-mode loss, and the candidate with the lowest weighted loss
wins. ``vanilla_select`` is the ablation that skips the statistics refresh.
A client's dev set is a list of its own rows, and each pass gathers a dev
batch from the client's arrays only when it reads it.

The layers before the first masked tensor are the same in every candidate,
so both selectors run them once per client batch, and the rest once per
chunk of ``CHUNK`` stacked distinct masks: candidates with equal count rows
keep the same weights and are one network, refreshed and scored once, and
each keeps its own position and that score. Chunks take the distinct rows
in ascending order, so a chunk's candidates keep nearby prefixes of the
first masked tensor's order, and many keep the same weights in a column of
it. That layer and the BN and ReLU layers up to the next linear one act
column by column, so they run once per column variant, not once per
candidate, and the next linear layer gathers each candidate's columns.
Masks are built only for the chunks and the winner, which alone becomes a
network. No operation in this module ever changes a parameter value.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .masking import Pool, zero_masked
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


def adaptive_select(net: Network, pool: Pool,
                    devs: list[tuple[Dataset, Array]], batch_size: int = 64):
    """Full selection protocol over the candidate masks of ``net``, on the
    dev rows of each ``(client, rows)`` pair of ``devs``. Returns the
    winner's position in ``pool``, the winner's masked network with the
    aggregated global statistics installed, and the per-candidate
    aggregated scores. The head refresh and the head's eval pass each
    gather a dev batch from its client's arrays as they read it, so no dev
    set is ever copied whole. Every chunk is refreshed on every client and
    aggregated before any is scored, so the head's refresh-mode outputs are
    freed before its eval-mode outputs are made: one set of head outputs
    per dev sample is alive at a time. The scoring pass builds the chunks
    again rather than holding every chunk's stacks."""
    firsts, index = _distinct(pool)
    head, chunks = _split(net, pool, firsts)
    # cloned before the per-client head outputs, which are freed before the
    # winner's statistics: no long-lived array then pins their heap memory
    winner_net = net.clone()
    stats = bn_stats(net)
    n_head = sum(layer.kind == "batchnorm" for layer in head)
    head_reports, refreshed = [], []
    for batches in _client_batches(devs, batch_size):
        head_stats = stats[:n_head]
        refreshed.append([(refresh_pass(head, x, head_stats), y)
                          for x, y in batches])
        head_reports.append(BNReport(head_stats, _samples(refreshed[-1])))
    chunk_global = [aggregate_bn([client_bn_pass(tail, a, stats[n_head:])
                                  for a in refreshed]) for tail in chunks]
    del refreshed
    # aggregation is per layer, so the head's global statistics are shared
    head_global = aggregate_bn(head_reports)
    acts = [[(eval_pass(head, x, head_global), y) for x, y in batches]
            for batches in _client_batches(devs, batch_size)]
    losses, tail_global = [], []
    for tail, tail_stats in zip(_split(net, pool, firsts)[1], chunk_global):
        losses += _score(tail, tail_stats, acts)
        tail_global.append(_by_candidate(tail, tail_stats))
    del acts
    scores = {i: losses[d] for i, d in enumerate(index)}
    winner = _winner(scores)
    chunk, row = divmod(index[winner], CHUNK)
    zero_masked(winner_net, pool.mask(winner))
    install_bn(winner_net, head_global + [(mean[row], var[row]) for mean, var
                                          in tail_global[chunk]])
    return winner, winner_net, scores


def vanilla_select(net: Network, pool: Pool,
                   devs: list[tuple[Dataset, Array]], batch_size: int = 64):
    """Ablation variant: score candidates with the pretrained BN statistics
    (no refresh, no aggregation). ``devs`` is as in ``adaptive_select``, and
    the head's eval pass gathers each dev batch as it reads it."""
    firsts, index = _distinct(pool)
    head, chunks = _split(net, pool, firsts)
    winner_net = net.clone()  # before the head outputs, as adaptive_select
    stats = bn_stats(net)
    n_head = sum(layer.kind == "batchnorm" for layer in head)
    acts = [[(eval_pass(head, x, stats[:n_head]), y) for x, y in batches]
            for batches in _client_batches(devs, batch_size)]
    losses = [s for tail in chunks for s in _score(tail, stats[n_head:], acts)]
    scores = {i: losses[d] for i, d in enumerate(index)}
    winner = _winner(scores)
    zero_masked(winner_net, pool.mask(winner))
    return winner, winner_net, scores


def _distinct(pool: Pool):
    """The first position of each distinct mask in ``pool``, in ascending
    order of count rows, and each candidate's index into that list. Masks
    are told apart by their count rows, never by the drawn shares: two
    draws can round to the same keep counts."""
    rows = pool.counts.tolist()
    first: dict[tuple, int] = {}
    for i, row in enumerate(rows):
        first.setdefault(tuple(row), i)
    keys = sorted(first)
    at = {key: d for d, key in enumerate(keys)}
    return [first[key] for key in keys], [at[tuple(row)] for row in rows]


def _split(net: Network, pool: Pool, firsts: list[int]):
    """The layers before the first masked one (the shared head), and a
    generator of each ``CHUNK`` of the ``firsts`` candidates' layers from
    there on. A masked weight stacks the chunk's copies, +0.0 where the mask
    is 0 as in ``apply_mask``; every other layer is ``net``'s own. Where a
    chunk has fewer column variants of the first masked layer than
    candidates, that layer stacks the variants (``_variants``), and the
    next linear layer's ``pick`` gathers each candidate's columns."""
    if not firsts:
        raise ValueError("no candidates to select from")
    cut = min(map(net.layer_of_key, pool.order))
    tail = net.layers[cut:]
    # the next linear layer after the first masked one, if there is one
    gather = next((i for i, layer in enumerate(tail)
                   if i and layer.kind == "linear"), None)

    def chunk_tail(rows):
        layers = list(tail)
        counts = pool.counts[rows]
        for j, (key, order) in enumerate(pool.order.items()):
            i = net.layer_of_key(key) - cut
            limits = counts[:, j, None]
            if i == 0 and gather is not None:
                found = _variants(order, pool.shapes[key][1], counts[:, j])
                if found is not None:
                    limits, pick = found
                    layers[gather] = copy.copy(layers[gather])
                    layers[gather].pick = pick
            layers[i] = copy.copy(layers[i])
            layers[i].weight = np.where(
                _kept(order, pool.shapes[key], limits), layers[i].weight, 0.0)
        return layers

    return net.layers[:cut], (chunk_tail(firsts[start:start + CHUNK])
                              for start in range(0, len(firsts), CHUNK))


def _kept(order: Array, shape, limits: Array) -> Array:
    """Boolean ``(S, *shape)`` stack whose slice ``s`` keeps ``order[r]``
    wherever ``r < limits[s, r]``, one limit per slice broadcast over
    ``order`` or one per position: with limit ``n``, slice ``s`` is
    ``keep_prefix(order, n, shape)``."""
    kept = np.zeros((len(limits), math.prod(shape)), dtype=bool)
    at = np.arange(len(order))
    for row, limit in zip(kept, limits):
        row[order[at < limit]] = True
    return kept.reshape(len(limits), *shape)


def _variants(order: Array, width: int, counts: Array):
    """The column variants of a ``width``-wide tensor whose candidates keep
    the first ``counts`` positions of ``order``, or None where there are
    as many as candidates. Column ``f``'s kept count only grows with the
    count, so a candidate's variant in ``f`` is how often that count has
    grown up to its own, and V is the most variants any column has.
    Returns the ``_kept`` limits of V slices, slice ``v`` keeping in each
    column what the candidates of variant ``v`` there keep, and the
    ``(C, width)`` pick of each candidate's column ``f`` from the flattened
    ``(V, width)`` variants, ``v * width + f``."""
    ns = sorted(set(counts.tolist()))
    cols = order % width
    grown = np.zeros((len(ns), width), dtype=np.intp)
    for k in range(1, len(ns)):
        grown[k, cols[ns[k - 1]:ns[k]]] = 1
    variant = np.cumsum(grown, axis=0)
    n_variants = variant[-1].max() + 1
    if n_variants == len(counts):
        return None
    keep = np.full((n_variants, width), ns[-1])
    keep[variant, np.arange(width)] = np.array(ns)[:, None]
    return (keep[:, cols],
            variant[np.searchsorted(ns, counts)] * width + np.arange(width))


def _by_candidate(tail, stats):
    """A chunk's ``stats`` with one ``(C, width)`` row per candidate: the
    BN layers before a linear layer's ``pick`` hold one row per column
    variant, and that pick gathers each candidate's columns from them."""
    out, j = list(stats), 0
    for layer in tail:
        if layer.kind == "batchnorm":
            j += 1
        elif layer.kind == "linear" and layer.pick is not None:
            out[:j] = [(np.take(mean, layer.pick), np.take(var, layer.pick))
                       for mean, var in out[:j]]
    return out


def _client_batches(devs: list[tuple[Dataset, Array]], batch_size: int):
    """Each client's dev batches, one generator of ``(x, y)`` pairs per
    ``(client, rows)`` pair: the batches of ``iter_batches`` over
    ``client.subset(rows)``, each gathered from the client's arrays only
    when it is read."""
    if any(len(rows) < 1 for _, rows in devs):
        raise ValueError("development dataset is empty")
    return [_gather(client, rows, batch_size) for client, rows in devs]


def _gather(client: Dataset, rows: Array, batch_size: int):
    for start in range(0, len(rows), batch_size):
        batch = rows[start:start + batch_size]
        yield client.features[batch], client.labels[batch]


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
