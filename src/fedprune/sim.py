"""Federated pipeline orchestration.

One experiment = server pretraining, coarse pruning plus candidate
selection, then a round loop of client-local masked SGD with weighted
FedAvg aggregation and (for the progressive algorithms) grow/prune mask
adjustment. Everything is a deterministic function of the config and its
seed; clients inside a round are independent work items reduced in fixed
client order.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import costs
from .data import Dataset, dev_indices, dirichlet_partition, load_csv, \
    make_blobs, split_indices, split_sizes
from .masking import MIN_KEPT_PER_LAYER, Mask, apply_mask, \
    generate_candidate_pool, keep_budget, magnitude_mask, random_mask, \
    zero_masked
from .nn import BN_MOMENTUM, Array, BatchNorm, Linear, Network, \
    ReLU, advance_bn_stats, backward, bn_stats, cross_entropy, forward, \
    make_mlp, sgd_step
from .progressive import PruneSchedule, TopKBuffer, aggregate_topk, \
    apply_plan, plan_grow_prune, pruning_number, target_layers, topk_collect
from .selection import BNReport, adaptive_select, aggregate_bn, \
    install_bn, iter_batches, vanilla_select

ALGORITHMS = ("FedTiny", "StaticRandom", "StaticMagnitude", "DenseFedAvg",
              "ProgressiveOnly", "AdaptiveBNOnly")
PROGRESSIVE_ALGS = ("FedTiny", "ProgressiveOnly")
POOL_ALGS = ("FedTiny", "ProgressiveOnly", "AdaptiveBNOnly")

# seed-namespace tags
_T_DATA, _T_SPLIT, _T_PART, _T_DEV, _T_MODEL, _T_PRETRAIN, _T_POOL, \
    _T_SAMPLE, _T_LOCAL, _T_COLLECT, _T_STATIC = range(11)


class ConfigError(ValueError):
    def __init__(self, issues: list[str]):
        super().__init__("invalid config:\n" + "\n".join(f"  {m}" for m in issues))
        self.issues = issues


@dataclass
class ExperimentConfig:
    # data: the CSV file at csv_path if it is set, else Gaussian blobs
    classes: int = 10
    per_class: int = 500
    dim: int = 32
    spread: float = 1.0
    csv_path: str = ""
    csv_header: bool = False
    test_ratio: float = 0.2
    server_ratio: float = 0.1
    # federation
    clients: int = 10
    client_fraction: float = 1.0
    alpha: float = 0.5
    dev_ratio: float = 0.1
    # model
    hidden: tuple = (64, 64, 64)
    # training
    algorithm: str = "FedTiny"
    rounds: int = 100
    local_epochs: int = 5
    batch_size: int = 64
    lr: float = 0.05
    pretrain_epochs: int = 3
    # pruning
    density: float = 0.05
    pool_size: int = 0                # 0 -> 0.1 / density
    granularity: str = "block"
    interval: int = 10
    stop_round: int = 100
    growth_fraction: float = 0.15
    # run
    seed: int = 0
    bits: int = 32

    def validate(self) -> None:
        nonfinite = [f.name for f in fields(self) if f.type == "float"
                     and not np.isfinite(getattr(self, f.name))]
        issues = []
        # the blob keys are unused when the data come from csv_path
        blobs = () if self.csv_path else ("classes", "per_class", "dim")
        for name in (*blobs, "clients", "rounds", "local_epochs", "bits"):
            if getattr(self, name) < 1:
                issues.append(f"{name}: must be at least 1")
        if self.batch_size < 2:
            issues.append("batch_size: must be at least 2 (BN batch "
                          "statistics need two samples)")
        if blobs and self.spread < 0:
            issues.append("spread: must be nonnegative")
        ratios = [f"{name}: must lie in [0, 1)"
                  for name in ("test_ratio", "server_ratio")
                  if not 0.0 <= getattr(self, name) < 1.0]
        issues += ratios
        # the sum is a fault of its own only when both ratios are in range
        if not ratios and self.test_ratio + self.server_ratio >= 1.0:
            issues.append("test_ratio + server_ratio: must leave client data")
        server = None
        if not issues and not nonfinite:
            try:
                if self.csv_path:  # taken by this config's next build_dataset
                    self._csv = load_csv(self.csv_path, self.csv_header)
                n = len(self._csv) if self.csv_path else self.classes * self.per_class
            except (OSError, ValueError) as err:
                issues.append(f"csv_path: {err}")
            else:
                _, server, train = split_sizes(
                    n, [self.test_ratio, self.server_ratio])
                if train < self.clients:
                    issues.append(f"clients: {train} training samples cannot "
                                  f"give each of {self.clients} clients one")
        if not 0.0 < self.client_fraction <= 1.0:
            issues.append("client_fraction: must lie in (0, 1]")
        if self.alpha <= 0:
            issues.append("alpha: must be positive")
        if not 0.0 < self.dev_ratio <= 1.0:
            issues.append("dev_ratio: must lie in (0, 1]")
        prunable = []  # sizes of the prunable tensors: hidden fixes them
        if not self.hidden or any(int(h) < 1 for h in self.hidden):
            issues.append("hidden: needs positive layer widths")
        elif self.algorithm != "DenseFedAvg" and len(self.hidden) < 2:
            # the first and last linear layers are never pruned
            issues.append(f"hidden: {self.algorithm} needs at least two "
                          f"hidden widths to have a prunable tensor")
        elif self.algorithm != "DenseFedAvg":
            prunable = [int(a) * int(b) for a, b in zip(self.hidden, self.hidden[1:])]
        if self.algorithm not in ALGORITHMS:
            issues.append(f"algorithm: must be one of {ALGORITHMS}, "
                          f"got {self.algorithm!r}")
        if self.lr <= 0:
            issues.append("lr: must be positive")
        if self.pretrain_epochs < 0:
            issues.append("pretrain_epochs: must be nonnegative")
        elif self.pretrain_epochs > 0 and (self.server_ratio == 0.0
                                           or server == 0):
            issues.append("pretrain_epochs: pretraining needs server data "
                          "(a non-empty server split)")
        if not 0.0 < self.density <= 1.0:
            issues.append("density: must lie in (0, 1]")
        elif prunable and keep_budget(self.density, sum(prunable)) < sum(
                min(MIN_KEPT_PER_LAYER, n) for n in prunable):
            issues.append(f"density: too low to keep {MIN_KEPT_PER_LAYER} "
                          f"weights in every prunable layer")
        if self.pool_size < 0:
            issues.append("pool_size: must be nonnegative (0 = auto)")
        if (self.algorithm in PROGRESSIVE_ALGS
                and "growth_fraction" not in nonfinite):
            try:
                self.schedule()
            except ValueError as err:
                issues.append(f"schedule: {err}")
        # a non-finite float fails its range check too; one line names it
        issues = [f"{name}: must be finite" for name in nonfinite] + [
            m for m in issues if m.split(":")[0] not in nonfinite]
        if issues:
            raise ConfigError(issues)

    def schedule(self) -> PruneSchedule:
        return PruneSchedule(granularity=self.granularity,
                             interval=self.interval, stop_round=self.stop_round,
                             growth_fraction=self.growth_fraction)

    def resolved_pool_size(self) -> int:
        if self.pool_size > 0:
            return self.pool_size
        return max(1, round(0.1 / self.density))

    def cost_tag(self) -> str:
        if self.algorithm == "DenseFedAvg":
            return costs.ALG_DENSE
        if self.algorithm in PROGRESSIVE_ALGS:
            return costs.ALG_PROGRESSIVE
        return costs.ALG_STATIC_SPARSE


CSV_COLUMNS = ("round", "accuracy", "loss", "density", "peak_flops",
               "memory_bytes")


@dataclass
class RoundMetrics:
    round: int
    accuracy: float
    loss: float
    density: float
    targeted: list[str] = field(default_factory=list)
    grow_count: int = 0
    drop_count: int = 0
    peak_flops: float = 0.0
    memory_bytes: float = 0.0
    wall_time: float = 0.0
    clamped: bool = False
    shortfall: int = 0
    buffer_violations: int = 0
    # weights the mask keeps, of all prunable weights (all of them if dense)
    kept: int = 0
    total: int = 0
    # per adjusted layer: {key: {"grow": n, "drop": n, "shortfall": n,
    # "kept": n}}
    layers: dict[str, dict[str, int]] = field(default_factory=dict)

    def csv_row(self) -> str:
        return ",".join(repr(getattr(self, c)) for c in CSV_COLUMNS)


@dataclass
class ExperimentState:
    cfg: ExperimentConfig
    net: Network
    mask: Mask | None
    clients: list[Dataset]
    test_set: Dataset
    selection: dict | None   # the selection.json record of pool algorithms


def _subseed(master: int, *tags: int) -> int:
    seq = np.random.SeedSequence((int(master), *[int(t) for t in tags]))
    return int(seq.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Setup
# ---------------------------------------------------------------------------

def build_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.csv_path:  # the rows validate() parsed, so a run parses them once
        return vars(cfg).pop("_csv", None) or load_csv(cfg.csv_path,
                                                       cfg.csv_header)
    return make_blobs(cfg.classes, cfg.per_class, cfg.dim, cfg.spread,
                      seed=_subseed(cfg.seed, _T_DATA))


def pretrain_server(net: Network, ds: Dataset | None, epochs: int,
                    lr: float, batch_size: int = 64, seed: int = 0) -> Network:
    """Dense SGD on the server-held split; zero epochs means the network is
    returned untouched (random-init path)."""
    if epochs < 0:
        raise ValueError("epochs must be nonnegative")
    if epochs == 0:
        return net
    if ds is None or len(ds) == 0:
        raise ValueError("pretraining needs a non-empty server dataset")
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        _train_one_epoch(net, ds, None, None, batch_size, lr, rng)
    net.drop_grads()  # clients train clones of it, not it
    return net


def _local_batches(n: int, batch_size: int) -> int:
    """Batches in an epoch of ``n`` samples: a one-sample tail is skipped,
    since BN batch statistics need two samples."""
    full, rem = divmod(n, batch_size)
    return full + (1 if rem >= 2 else 0)


def _train_one_epoch(net, ds, mask, rate, batch_size, lr, rng) -> None:
    """One epoch of SGD under ``mask`` and its ``net.rate(mask, lr)``, which
    advances the BN statistics once, at its end: each step adds its batch
    moments to one discounted sum."""
    perm = rng.permutation(len(ds))
    steps = _local_batches(len(ds), batch_size)
    moments, total = np.zeros((2, net.stats.size))
    for b in range(steps):
        idx = perm[b * batch_size:(b + 1) * batch_size]
        logits, cache = forward(net, ds.features[idx], "train",
                                moments=moments)
        _, grad = backward(net, logits, ds.labels[idx], cache)
        sgd_step(net, grad, lr, mask, rate)
        total *= BN_MOMENTUM  # sum_t m**(T - t) * x_t, by Horner's rule
        total += moments
    advance_bn_stats(net, total, steps)


def setup_experiment(cfg: ExperimentConfig) -> ExperimentState:
    # every row is held once: the full dataset goes once it is split, the
    # training pool once it is partitioned and the server split once
    # pretraining has read it; a dev set is its client's row indices, and
    # selection gathers each dev batch from the client's rows as it reads it
    ds = build_dataset(cfg)
    dim, classes = ds.dim, ds.classes

    test_idx, server_idx, pool_idx = split_indices(
        len(ds), [cfg.test_ratio, cfg.server_ratio],
        seed=_subseed(cfg.seed, _T_SPLIT))
    server_set = ds.subset(server_idx) if len(server_idx) else None
    train_pool = ds.subset(pool_idx)
    # with no held-out split, evaluation falls back to the training pool
    test_set = ds.subset(test_idx) if len(test_idx) else train_pool
    del ds

    clients = dirichlet_partition(train_pool, cfg.clients, cfg.alpha,
                                  seed=_subseed(cfg.seed, _T_PART))
    del train_pool
    # only the selectors read dev rows; each draw has its own subseed
    devs = [(client, dev_indices(len(client), cfg.dev_ratio,
                                 seed=_subseed(cfg.seed, _T_DEV, k)))
            for k, client in enumerate(clients)] \
        if cfg.algorithm in POOL_ALGS else []

    net = make_mlp(dim, list(cfg.hidden), classes,
                   seed=_subseed(cfg.seed, _T_MODEL))
    pretrain_server(net, server_set, cfg.pretrain_epochs, cfg.lr,
                    cfg.batch_size, seed=_subseed(cfg.seed, _T_PRETRAIN))
    del server_set

    mask = None
    record = None
    if cfg.algorithm in POOL_ALGS:
        pool = generate_candidate_pool(net, cfg.density,
                                       cfg.resolved_pool_size(),
                                       seed=_subseed(cfg.seed, _T_POOL))
        if cfg.algorithm == "ProgressiveOnly":
            method = "vanilla"
            selected, net, scores = vanilla_select(
                net, pool, devs, cfg.batch_size)
        else:
            method = "adaptive"
            selected, net, scores = adaptive_select(
                net, pool, devs, cfg.batch_size)
        mask = pool.mask(selected)
        record = selection_record(method, pool, scores, selected)
    elif cfg.algorithm == "StaticRandom":
        mask = random_mask(net, cfg.density,
                           seed=_subseed(cfg.seed, _T_STATIC))
        net = apply_mask(net, mask)
    elif cfg.algorithm == "StaticMagnitude":
        mask = magnitude_mask(net, cfg.density)
        net = apply_mask(net, mask)

    return ExperimentState(cfg=cfg, net=net, mask=mask, clients=clients,
                           test_set=test_set, selection=record)


def selection_record(method: str, pool, scores: dict[int, float],
                     winner: int) -> dict:
    """What candidate selection saw: each candidate's drawn per-layer shares,
    the keep counts they rounded to and its aggregated dev loss, the number
    of distinct masks, the winner, and its margin to the runner-up: the best
    candidate whose mask differs from the winner's, since copies of a mask
    share its score (``None`` if no mask differs)."""
    counts = pool.counts.tolist()
    rest = [loss for cid, loss in scores.items()
            if counts[cid] != counts[winner]]
    return {
        "method": method,
        "winner": winner,
        "margin": min(rest) - scores[winner] if rest else None,
        "distinct": len(set(map(tuple, counts))),
        "candidates": [{"id": i, "layer_shares": dict(shares),
                        "counts": counts[i], "dev_loss": scores[i]}
                       for i, shares in enumerate(pool.shares)],
    }


# ---------------------------------------------------------------------------
# Round loop
# ---------------------------------------------------------------------------

@dataclass
class ClientResult:
    """One client's upload: the round worker's ``flat`` as its training left
    it (the next client overwrites it), a copy of its BN statistics, and (on
    pruning rounds) the targeted layers' top-K gradient buffers."""
    flat: Array | None  # None once fedavg has added it in
    bn: BNReport
    buffers: dict[str, TopKBuffer]
    violations: int


def _client_update(state: ExperimentState, k: int, round_index: int,
                   collect: dict[str, tuple[int, Array]], worker: Network,
                   rate: Array | None) -> ClientResult:
    """One client's work item on ``worker``, the round's one scratch network
    that it overwrites with the round's model: E local epochs of masked SGD
    at the round's ``rate`` (``None`` when dense), then (on pruning rounds)
    the top-K gradient collection. ``collect`` maps each targeted key to its
    buffer capacity and the flat indices of its pruned coordinates. The
    upload's ``flat`` is ``worker.flat``: it is folded before the next
    client starts."""
    cfg = state.cfg
    client = state.clients[k]
    worker.flat[...] = state.net.flat
    worker.stats[...] = state.net.stats
    rng = np.random.default_rng(_subseed(cfg.seed, _T_LOCAL, round_index, k))
    for _ in range(cfg.local_epochs):
        _train_one_epoch(worker, client, state.mask, rate, cfg.batch_size,
                         cfg.lr, rng)

    # the parameters are uploaded without a copy: the collection pass below
    # writes none of them, and fedavg folds them before the next client.
    # The BN statistics are aggregated after the last client, so copied
    flat = worker.flat
    bn = BNReport([(mean.copy(), var.copy())
                   for mean, var in bn_stats(worker)], len(client))
    buffers = {}
    violations = 0
    if collect:
        crng = np.random.default_rng(
            _subseed(cfg.seed, _T_COLLECT, round_index, k))
        take = min(cfg.batch_size, len(client))
        if take >= 2:
            idx = crng.choice(len(client), size=take, replace=False)
            # train-mode BN uses batch statistics, so the gradients do not
            # depend on the moving ones; no targeted gradient depends on a
            # layer below the earliest targeted one
            logits, cache = forward(worker, client.features[idx], "train")
            backward(worker, logits, client.labels[idx], cache,
                     lowest=min(worker.layer_of_key(key) for key in collect))
            grads = worker.grads()
            for key, (a, pruned) in collect.items():
                values = grads[key].reshape(-1)[pruned]
                buffers[key] = topk_collect(pruned, values, a)
                violations += len(buffers[key]) > a
    return ClientResult(flat, bn, buffers, violations)


def plan_round(state: ExperimentState, round_index: int):
    """The grow/prune plan: each targeted key that can adjust, mapped to
    its grow/drop count ``a`` and the flat indices of its pruned coordinates
    (empty off the pruning rounds), and whether any ``a`` was clamped."""
    cfg = state.cfg
    collect: dict[str, tuple[int, Array]] = {}
    clamped = False
    if cfg.algorithm in PROGRESSIVE_ALGS and state.mask is not None:
        sched = cfg.schedule()
        for key in target_layers(round_index, sched, state.net):
            sl = state.mask.slices[key]
            n_unpruned = int(sl.sum())
            full = pruning_number(round_index - sched.interval, sched,
                                  n_unpruned)
            # a layer cannot grow more coordinates than it has pruned
            a = min(full, sl.size - n_unpruned)
            clamped |= a < full
            if a > 0:
                collect[key] = (a, np.flatnonzero(sl.reshape(-1) == 0))
    return collect, clamped


def round_costs(state: ExperimentState, participants, collect):
    """Modeled peak per-client training FLOPs and training memory (bytes)
    of a round, from the mask it trains with. Activation memory is that of
    the largest client's training batch."""
    cfg = state.cfg
    largest = max(len(client) for client in state.clients)
    act = costs.activation_bytes(state.net, min(cfg.batch_size, largest),
                                 cfg.bits)
    f_s = costs.forward_flops(state.net, state.mask, cfg.batch_size)
    f_d = costs.forward_flops(state.net, None, cfg.batch_size)
    extra = (costs.collection_pass_flops(state.net, state.mask, list(collect),
                                         cfg.batch_size) if collect else 0.0)
    iters = max(cfg.local_epochs * _local_batches(len(state.clients[k]),
                                                  cfg.batch_size)
                for k in participants)
    peak = costs.round_peak_flops(cfg.cost_tag(), f_d, f_s, iters, extra)
    return peak, costs.training_memory(
        cfg.cost_tag(), costs.dense_param_bytes(state.net, cfg.bits),
        costs.model_storage(state.net, state.mask, cfg.bits)["bytes"],
        act, cfg.bits,
        topk_total=sum(a for a, _ in collect.values()))


def fedavg(state: ExperimentState, results: Iterable[ClientResult],
           total: int) -> list[ClientResult]:
    """Streamed sample-weighted FedAvg into ``state.net``: each upload of
    ``results`` (``total`` samples in all) is scaled in place by its share,
    added into one sum from +0.0 in the order given and released before the
    next result is made, which may reuse its vector (the round's worker
    ``flat``). The sum then replaces ``flat`` (masked coordinates set to
    +0.0) and the aggregate of every BN report the moving statistics.
    Returns the results, each ``flat`` released."""
    flat = np.zeros_like(state.net.flat)
    folded = []
    for res in results:
        res.flat *= res.bn.samples / total
        flat += res.flat
        res.flat = None
        folded.append(res)
    state.net.flat[...] = flat
    if state.mask is not None:
        zero_masked(state.net, state.mask)
    install_bn(state.net, aggregate_bn([res.bn for res in folded]))
    return folded


def adjust(state: ExperimentState, results: list[ClientResult], collect
           ) -> dict[str, dict[str, int]]:
    """Grow/prune every planned layer of the aggregated model in place:
    aggregate the clients' top-K buffers by sample count, plan, apply.
    Returns the per-layer grow/drop/shortfall counts and the layer's new
    kept count."""
    layers: dict[str, dict[str, int]] = {}
    for key, (a, _) in collect.items():
        uploads = [res for res in results if key in res.buffers]
        if not uploads:
            continue
        index, grads = aggregate_topk([res.buffers[key] for res in uploads],
                                      [res.bn.samples for res in uploads])
        sl, weight = state.mask.slices[key], state.net.params()[key]
        plan = plan_grow_prune(index, grads, sl, weight, a)
        apply_plan(sl, plan, weight)
        layers[key] = {"grow": len(plan.grow), "drop": len(plan.drop),
                       "shortfall": plan.shortfall, "kept": int(sl.sum())}
    return layers


def run_round(state: ExperimentState, round_index: int) -> RoundMetrics:
    """Advance the federation by one round, mutating ``state`` in place."""
    cfg = state.cfg
    t0 = time.perf_counter()
    srng = np.random.default_rng(_subseed(cfg.seed, _T_SAMPLE, round_index))
    m = max(1, round(cfg.client_fraction * cfg.clients))
    participants = sorted(srng.choice(cfg.clients, size=m, replace=False))
    collect, clamped = plan_round(state, round_index)
    peak, memory = round_costs(state, participants, collect)
    # clients train in fixed participant order on one worker network, each
    # from the round's starting model, and are reduced as each returns,
    # before the next overwrites the worker; fedavg replaces the model after
    # the last. The mask does not change before adjust, so neither do the
    # rate vector and the pruned indices in ``collect``
    worker = state.net.clone()
    rate = None if state.mask is None else state.net.rate(state.mask, cfg.lr)
    results = fedavg(state, (_client_update(state, k, round_index, collect,
                                            worker, rate)
                             for k in participants),
                     sum(len(state.clients[k]) for k in participants))
    layers = adjust(state, results, collect)
    accuracy, loss = evaluate_global(state.net, state.test_set, cfg.batch_size)
    if state.mask is not None:
        kept, total = state.mask.counts()
    else:
        kept = total = sum(state.net.params()[key].size
                           for key in state.net.prunable_keys())
    return RoundMetrics(
        round=round_index, accuracy=accuracy, loss=loss,
        density=state.mask.density() if state.mask is not None else 1.0,
        kept=kept, total=total,
        targeted=list(collect),
        grow_count=sum(c["grow"] for c in layers.values()),
        drop_count=sum(c["drop"] for c in layers.values()),
        peak_flops=peak, memory_bytes=memory,
        wall_time=time.perf_counter() - t0, clamped=clamped,
        shortfall=sum(c["shortfall"] for c in layers.values()),
        buffer_violations=sum(res.violations for res in results),
        layers=layers)


def evaluate_global(net: Network, ds: Dataset, batch_size: int = 64):
    """Eval-mode top-1 accuracy and mean loss over a dataset."""
    if len(ds) < 1:
        raise ValueError("evaluation dataset is empty")
    correct = 0
    total_loss = 0.0
    for x, y in iter_batches(ds, batch_size):
        logits, _ = forward(net, x, "eval")
        correct += int((np.argmax(logits, axis=1) == y).sum())
        total_loss += cross_entropy(logits, y) * len(y)
    return correct / len(ds), total_loss / len(ds)


# ---------------------------------------------------------------------------
# Experiment driver and artifacts
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig, out_dir):
    """Run a validated config into ``out_dir``: pool algorithms write
    selection.json before the first round, each round's metrics are
    appended to metrics.jsonl and mirrored to metrics.csv, and the final
    model is written to final.ckpt. Returns (metrics list, final state)."""
    state = setup_experiment(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if state.selection is not None:
        (out_dir / "selection.json").write_text(
            json.dumps(state.selection, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    metrics: list[RoundMetrics] = []
    with (open(out_dir / "metrics.csv", "w", encoding="utf-8",
               newline="\n") as csv_fh,
          open(out_dir / "metrics.jsonl", "w", encoding="utf-8",
               newline="\n") as jsonl_fh):
        csv_fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in range(1, cfg.rounds + 1):
            rm = run_round(state, r)
            metrics.append(rm)
            csv_fh.write(rm.csv_row() + "\n")
            jsonl_fh.write(json.dumps(asdict(rm), sort_keys=True) + "\n")
    save_checkpoint(out_dir / "final.ckpt", state.net, state.mask,
                    {"algorithm": cfg.algorithm, "seed": cfg.seed,
                     "rounds": cfg.rounds,
                     "selected_candidate": (state.selection["winner"]
                                            if state.selection else None)})
    return metrics, state


CKPT_VERSION = 2


def _spec(layer) -> dict:
    """A layer's checkpoint spec: its kind, its widths and, for a linear
    layer, whether it has a bias."""
    if layer.kind == "linear":
        return {"kind": "linear", "shape": list(layer.weight.shape),
                "bias": layer.bias is not None}
    if layer.kind == "batchnorm":
        return {"kind": "batchnorm", "features": int(layer.mean.size)}
    return {"kind": "relu"}


def _sections(net: Network) -> list[list]:
    """The ``[name, dtype, length]`` of every section a checkpoint of
    ``net`` can hold, in file order; a checkpoint without a mask holds the
    first two."""
    return [["flat", "<f8", net.flat.size],
            ["bn_stats", "<f8", net.stats.size],
            ["mask", "|u1", sum(net.params()[key].size
                                for key in net.prunable_keys())]]


def save_checkpoint(path, net: Network, mask: Mask | None,
                    extra: dict | None = None) -> None:
    """Versioned binary snapshot: one JSON header line (the version, the
    layer specs, ``extra`` and each section's dtype and length), then the
    sections: ``flat`` and ``stats`` (every BN layer's moving mean and
    variance in layer order), both as little-endian float64, and the mask
    as uint8 over ``prunable_keys()`` in flat order. The bytes are a function of the
    arguments alone."""
    if mask is not None and set(mask.slices) != set(net.prunable_keys()):
        raise ValueError("a checkpoint mask covers every prunable tensor")
    header = {"version": CKPT_VERSION,
              "layers": [_spec(layer) for layer in net.layers],
              "extra": extra or {},
              "sections": _sections(net)[:2 if mask is None else 3]}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for vec in (net.flat, net.stats):
            fh.write(vec.astype("<f8", copy=False))
        for key in net.prunable_keys() if mask is not None else ():
            fh.write(np.ascontiguousarray(mask.slices[key], dtype=np.uint8))


def load_checkpoint(path):
    """Rebuild (network, mask, extra) from a checkpoint file. A file that
    ``save_checkpoint`` could not have written raises ``ValueError``."""
    try:
        with open(path, "rb") as fh:
            header, body = json.loads(fh.readline()), fh.read()
    except (OSError, ValueError) as err:
        raise ValueError(f"unreadable checkpoint {path}: {err}")
    if not isinstance(header, dict):
        raise ValueError(f"unreadable checkpoint {path}: the first line is "
                         f"not a JSON object")
    if header.get("version") != CKPT_VERSION:
        raise ValueError(f"unreadable checkpoint {path}: unsupported "
                         f"checkpoint version {header.get('version')!r}")
    try:
        net, mask = _rebuild(header, body)
    except (KeyError, OverflowError, TypeError, ValueError) as err:
        raise ValueError(f"unreadable checkpoint {path}: {err}") from None
    return net, mask, header["extra"]


def _rebuild(header: dict, body: bytes) -> tuple[Network, Mask | None]:
    """The network and mask of a checkpoint, checking the header's specs,
    its sections and the body's length against each other."""
    specs, sections = header["layers"], header["sections"]
    if not (isinstance(specs, list) and isinstance(header["extra"], dict)):
        raise ValueError("layers is not a list or extra not an object")
    layers = []
    for i, spec in enumerate(specs):
        kind = spec.get("kind") if isinstance(spec, dict) else None
        if kind == "linear":
            shape = spec.get("shape")
            if not (isinstance(shape, list) and len(shape) == 2
                    and all(type(d) is int and d > 0 for d in shape)):
                raise ValueError(f"layer {i}: shape {shape!r} is not two "
                                 f"positive integers")
            layers.append(Linear(np.zeros(shape), np.zeros(shape[1])
                                 if spec.get("bias") else None))
        elif kind == "batchnorm":
            n = spec.get("features")
            if not (type(n) is int and n > 0):
                raise ValueError(f"layer {i}: {n!r} features is not a "
                                 f"positive integer")
            layers.append(BatchNorm(np.zeros(n), np.ones(n)))
        elif kind == "relu":
            layers.append(ReLU())
        else:
            raise ValueError(f"layer {i}: unknown kind {kind!r}")
        # as text, so that 1 is not true and 2.0 not 2
        if json.dumps(spec) != json.dumps(_spec(layers[-1])):
            raise ValueError(f"layer {i}: {spec!r} is not a {kind} spec")
    net = Network(layers)
    want = _sections(net)
    if sections not in (want[:2], want):
        raise ValueError(f"sections {sections!r} are not those of the "
                         f"layers, {want!r}")
    n_flat, n_bn, n_mask = (length for _, _, length in want)
    size = 8 * (n_flat + n_bn) + (n_mask if len(sections) == 3 else 0)
    if len(body) != size:
        raise ValueError(f"{len(body)} bytes after the header, not {size}")
    values = np.frombuffer(body, "<f8", n_flat + n_bn)
    net.flat[...], net.stats[...] = values[:n_flat], values[n_flat:]
    if any(np.any(bn.var < 0.0) for _, bn in net.bn_layers()):
        raise ValueError("a BN variance is negative")
    if len(sections) == 2:
        return net, None
    params = {key: net.params()[key] for key in net.prunable_keys()}
    parts = _split(np.frombuffer(body, np.uint8, offset=8 * (n_flat + n_bn)),
                   [p.size for p in params.values()])
    # Mask checks that every entry is 0 or 1
    return net, Mask({key: part.reshape(p.shape).copy()
                      for (key, p), part in zip(params.items(), parts)})


def _split(vec: Array, sizes: list[int]) -> list[Array]:
    """``vec`` cut into consecutive pieces of ``sizes``."""
    return np.split(vec, np.cumsum(sizes, dtype=int)[:-1])
