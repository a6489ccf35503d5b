"""Adaptive batch-normalization candidate selection.

Clients refresh the BN moving statistics of every coarse-pruned candidate on
their local development data (weights frozen throughout), the server
aggregates the statistics and redistributes them, clients score each
candidate by eval-mode loss, and the candidate with the lowest weighted loss
wins. ``vanilla_select`` is the ablation that skips the statistics refresh.

No operation in this module ever changes a parameter value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
# ``update_bn_stats`` is not called here; bench/tracer.py patches it (and
# ``forward``) as attributes of this module
from .nn import Array, Network, bn_stats, cross_entropy, eval_pass, forward, \
    refresh_pass, update_bn_stats  # noqa: F401


@dataclass
class BNReport:
    """One client's refreshed BN statistics for one candidate."""

    candidate_id: int
    means: list[Array]
    variances: list[Array]
    samples: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("a BN report needs at least one sample")
        for v in self.variances:
            if np.any(v < 0.0):
                raise ValueError("reported variances must be nonnegative")


@dataclass
class ScoreReport:
    candidate_id: int
    loss: float
    samples: int

    def __post_init__(self):
        if not np.isfinite(self.loss):
            raise ValueError("candidate score must be finite")


def iter_batches(ds: Dataset, batch_size: int):
    """Insertion-order batches of the dataset; the tail may be short."""
    for start in range(0, len(ds), batch_size):
        yield (ds.features[start:start + batch_size],
               ds.labels[start:start + batch_size])


def client_bn_pass(candidate: Network, dev: Dataset,
                   batch_size: int = 64) -> BNReport:
    """Refresh BN moving statistics over the development set with frozen
    weights; the candidate itself is left untouched."""
    _check_dev(dev)
    stats = bn_stats(candidate)
    for x, _ in iter_batches(dev, batch_size):
        refresh_pass(candidate.layers, x, stats)
    return _report(stats, len(dev))


def _report(stats, samples: int) -> BNReport:
    return BNReport(-1, [mean for mean, _ in stats],
                    [var for _, var in stats], samples)


def _check_dev(dev: Dataset) -> None:
    if len(dev) < 1:
        raise ValueError("development dataset is empty")


def aggregate_bn(reports: list[BNReport], average_std: bool = True):
    """Dev-size-weighted aggregation of client BN statistics.

    With ``average_std`` the spread statistics are combined as standard
    deviations (sigma-bar squared becomes the global variance); otherwise
    variances are averaged directly.
    """
    if not reports:
        raise ValueError("need at least one BN report")
    n_layers = len(reports[0].means)
    for rep in reports:
        if len(rep.means) != n_layers or len(rep.variances) != n_layers:
            raise ValueError("BN reports disagree on layer count")
        for a, b in zip(rep.means, reports[0].means):
            if a.shape != b.shape:
                raise ValueError("BN reports disagree on layer shapes")
    total = sum(rep.samples for rep in reports)
    weights = [rep.samples / total for rep in reports]
    means = []
    variances = []
    for layer in range(n_layers):
        mu = sum(w * rep.means[layer] for w, rep in zip(weights, reports))
        if average_std:
            sigma = sum(w * np.sqrt(rep.variances[layer])
                        for w, rep in zip(weights, reports))
            var = sigma ** 2
        else:
            var = sum(w * rep.variances[layer]
                      for w, rep in zip(weights, reports))
        means.append(mu)
        variances.append(var)
    return means, variances


def install_bn(net: Network, means: list[Array],
               variances: list[Array]) -> None:
    """Overwrite the running statistics of every BN layer (statistics only;
    the affine parameters stay as they are)."""
    bn = net.bn_layers()
    if len(bn) != len(means):
        raise ValueError("statistics do not match the network's BN layers")
    for (_, layer), mu, var in zip(bn, means, variances):
        if layer.state.mean.shape != mu.shape:
            raise ValueError("BN statistics shape mismatch")
        layer.state.mean = np.asarray(mu, dtype=np.float64).copy()
        layer.state.var = np.asarray(var, dtype=np.float64).copy()


def client_score(candidate: Network, dev: Dataset,
                 batch_size: int = 64) -> ScoreReport:
    """Eval-mode cross-entropy of the candidate over the development set."""
    _check_dev(dev)
    total = 0.0
    for x, y in iter_batches(dev, batch_size):
        logits, _ = forward(candidate, x, "eval")
        total += cross_entropy(logits, y) * len(y)
    return ScoreReport(-1, total / len(dev), len(dev))


def select(scores: dict[int, list[float]], dev_sizes: list[int]) -> int:
    """argmin over candidates of the dev-size-weighted mean loss; ties go to
    the lowest candidate id."""
    if not scores:
        raise ValueError("no candidates to select from")
    total = sum(dev_sizes)
    best_id = None
    best_score = None
    for cid in sorted(scores):
        per_client = scores[cid]
        if len(per_client) != len(dev_sizes):
            raise ValueError(f"candidate {cid}: expected {len(dev_sizes)} "
                             f"client scores, got {len(per_client)}")
        agg = sum(n / total * s for n, s in zip(dev_sizes, per_client))
        if best_score is None or agg < best_score:
            best_id, best_score = cid, agg
    return best_id


def shared_prefix(nets: list[Network]) -> int:
    """Number of leading layers that are bit-identical across ``nets``: same
    kind, and the same bytes in every parameter and BN statistic. Passes
    through these layers give the same result for every network."""
    first = nets[0].layers
    for i, layer in enumerate(first):
        if not all(i < len(net.layers) and _same_layer(layer, net.layers[i])
                   for net in nets[1:]):
            return i
    return len(first)


def _same_layer(a, b) -> bool:
    if a.kind != b.kind:
        return False
    if a.kind == "linear":
        pairs = [(a.weight, b.weight), (a.bias, b.bias)]
    elif a.kind == "batchnorm":
        sa, sb = a.state, b.state
        if (sa.momentum, sa.eps) != (sb.momentum, sb.eps):
            return False
        pairs = [(sa.scale, sb.scale), (sa.shift, sb.shift),
                 (sa.mean, sb.mean), (sa.var, sb.var)]
    else:
        pairs = []
    # bytes, not values: -0.0 == 0.0, but the two can round differently
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in pairs)


def _n_bn(layers) -> int:
    return sum(layer.kind == "batchnorm" for layer in layers)


def adaptive_select(candidates: list[tuple[int, Network]],
                    dev_sets: list[Dataset], batch_size: int = 64,
                    average_std: bool = True):
    """Full selection protocol. Returns the winning candidate id, the winner's
    network with the aggregated global statistics installed, and the
    per-candidate aggregated scores.

    The candidates' shared prefix (``shared_prefix``) is refreshed once per
    client batch, and only the layers after it per candidate. Each candidate
    keeps its statistics as ``(mean, var)`` arrays; only the winner becomes a
    network."""
    ids, nets = _unzip(candidates)
    cut = shared_prefix(nets)
    head = nets[0].layers[:cut]
    n_head = _n_bn(head)
    head_reports = []
    tail_reports: list[list[BNReport]] = [[] for _ in nets]
    for dev in dev_sets:
        _check_dev(dev)
        head_stats = bn_stats(nets[0])[:n_head]
        acts = [refresh_pass(head, x, head_stats)
                for x, _ in iter_batches(dev, batch_size)]
        head_reports.append(_report(head_stats, len(dev)))
        for net, reports in zip(nets, tail_reports):
            tail, tail_stats = net.layers[cut:], bn_stats(net)[n_head:]
            for x in acts:
                refresh_pass(tail, x, tail_stats)
            reports.append(_report(tail_stats, len(dev)))
    # aggregation is per layer, so the head's global statistics are shared
    head_mu, head_var = aggregate_bn(head_reports, average_std=average_std)
    global_stats = []
    for reports in tail_reports:
        mu, var = aggregate_bn(reports, average_std=average_std)
        global_stats.append(list(zip(head_mu + mu, head_var + var)))
    dev_sizes = [len(dev) for dev in dev_sets]
    scores = _score(ids, nets, cut, global_stats, dev_sets, batch_size)
    winner = select(scores, dev_sizes)
    i = ids.index(winner)
    winner_net = nets[i].clone()
    install_bn(winner_net, [mu for mu, _ in global_stats[i]],
               [var for _, var in global_stats[i]])
    return winner, winner_net, _aggregate_scores(scores, dev_sizes)


def vanilla_select(candidates: list[tuple[int, Network]],
                   dev_sets: list[Dataset], batch_size: int = 64):
    """Ablation variant: score candidates with their original BN statistics
    (no refresh, no aggregation)."""
    ids, nets = _unzip(candidates)
    dev_sizes = [len(dev) for dev in dev_sets]
    scores = _score(ids, nets, shared_prefix(nets),
                    [bn_stats(net) for net in nets], dev_sets, batch_size)
    winner = select(scores, dev_sizes)
    return (winner, nets[ids.index(winner)].clone(),
            _aggregate_scores(scores, dev_sizes))


def _unzip(candidates):
    if not candidates:
        raise ValueError("no candidates to select from")
    return [cid for cid, _ in candidates], [net for _, net in candidates]


def _score(ids, nets, cut, stats, dev_sets, batch_size):
    """Eval-mode dev loss of every candidate on every client, with
    ``stats[c]`` in place of candidate c's BN statistics (equal across
    candidates for the first ``cut`` layers). The shared prefix runs once
    per client batch."""
    head = nets[0].layers[:cut]
    n_head = _n_bn(head)
    scores = {cid: [] for cid in ids}
    for dev in dev_sets:
        _check_dev(dev)
        batches = [(eval_pass(head, x, stats[0][:n_head]), y)
                   for x, y in iter_batches(dev, batch_size)]
        for cid, net, st in zip(ids, nets, stats):
            tail, tail_stats = net.layers[cut:], st[n_head:]
            total = 0.0
            for x, y in batches:
                logits = eval_pass(tail, x, tail_stats)
                total += cross_entropy(logits, y) * len(y)
            scores[cid].append(ScoreReport(cid, total / len(dev),
                                           len(dev)).loss)
    return scores


def _aggregate_scores(scores: dict[int, list[float]],
                      dev_sizes: list[int]) -> dict[int, float]:
    total = sum(dev_sizes)
    return {cid: sum(n / total * s for n, s in zip(dev_sizes, per_client))
            for cid, per_client in scores.items()}
