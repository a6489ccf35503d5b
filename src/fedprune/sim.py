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
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import costs
from .data import Dataset, PartitionSpec, dev_indices, dirichlet_partition, \
    load_csv, make_blobs, split_indices
from .masking import Mask, apply_mask, generate_candidate_pool, \
    magnitude_mask, random_mask
from .nn import Array, Network, backward, cross_entropy, forward, make_mlp, \
    sgd_step
from .progressive import PruneSchedule, TopKBuffer, aggregate_topk, \
    apply_plan, plan_grow_prune, pruning_number, target_layers, topk_collect
from .selection import BNReport, adaptive_select, aggregate_bn, install_bn, \
    vanilla_select

ALGORITHMS = ("FedTiny", "StaticRandom", "StaticMagnitude", "DenseFedAvg",
              "ProgressiveOnly", "AdaptiveBNOnly")
PROGRESSIVE_ALGS = ("FedTiny", "ProgressiveOnly")
POOL_ALGS = ("FedTiny", "ProgressiveOnly", "AdaptiveBNOnly")
SPARSE_ALGS = tuple(a for a in ALGORITHMS if a != "DenseFedAvg")

# seed-namespace tags
_T_DATA, _T_SPLIT, _T_PART, _T_DEV, _T_MODEL, _T_PRETRAIN, _T_POOL, \
    _T_SAMPLE, _T_LOCAL, _T_COLLECT, _T_STATIC = range(11)


class ConfigError(ValueError):
    def __init__(self, issues: list[str]):
        super().__init__("invalid config:\n" + "\n".join(f"  {m}" for m in issues))
        self.issues = issues


@dataclass
class ExperimentConfig:
    # data
    data_kind: str = "blobs"          # blobs | csv
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
    dev_disjoint: bool = False
    # model
    hidden: tuple = (64, 64, 64)
    blocks: int = 5
    bn_momentum: float = 0.9
    bn_eps: float = 1e-5
    # training
    algorithm: str = "FedTiny"
    rounds: int = 100
    local_epochs: int = 5
    batch_size: int = 64
    lr: float = 0.05
    lr_decay: str = "none"            # none | cosine
    weighted_aggregation: bool = True
    pretrain_epochs: int = 3
    # pruning
    density: float = 0.05
    pool_size: int = 0                # 0 -> 0.1 / density
    pool_noise: float = 0.5
    granularity: str = "block"
    order: str = "backward"
    interval: int = 10
    stop_round: int = 100
    growth_fraction: float = 0.15
    aggregate_std: bool = True
    # run
    seed: int = 0
    bits: int = 32

    def validate(self) -> None:
        issues = []
        if self.data_kind not in ("blobs", "csv"):
            issues.append(f"data_kind: must be blobs or csv, got {self.data_kind!r}")
        if self.data_kind == "csv" and not self.csv_path:
            issues.append("csv_path: required when data_kind is csv")
        for name in ("classes", "per_class", "dim", "clients", "rounds",
                     "local_epochs", "batch_size", "blocks", "interval",
                     "stop_round", "bits"):
            if getattr(self, name) < 1:
                issues.append(f"{name}: must be at least 1")
        if self.spread < 0:
            issues.append("spread: must be nonnegative")
        if not 0.0 <= self.test_ratio < 1.0:
            issues.append("test_ratio: must lie in [0, 1)")
        if not 0.0 <= self.server_ratio < 1.0:
            issues.append("server_ratio: must lie in [0, 1)")
        if self.test_ratio + self.server_ratio >= 1.0:
            issues.append("test_ratio + server_ratio: must leave client data")
        if not 0.0 < self.client_fraction <= 1.0:
            issues.append("client_fraction: must lie in (0, 1]")
        if self.alpha <= 0:
            issues.append("alpha: must be positive")
        if not 0.0 < self.dev_ratio <= 1.0:
            issues.append("dev_ratio: must lie in (0, 1]")
        if not self.hidden or any(int(h) < 1 for h in self.hidden):
            issues.append("hidden: needs positive layer widths")
        if self.algorithm not in ALGORITHMS:
            issues.append(f"algorithm: must be one of {ALGORITHMS}, "
                          f"got {self.algorithm!r}")
        if self.lr <= 0:
            issues.append("lr: must be positive")
        if self.lr_decay not in ("none", "cosine"):
            issues.append("lr_decay: must be none or cosine")
        if self.pretrain_epochs < 0:
            issues.append("pretrain_epochs: must be nonnegative")
        if not 0.0 < self.density <= 1.0:
            issues.append("density: must lie in (0, 1]")
        if self.pool_size < 0:
            issues.append("pool_size: must be nonnegative (0 = auto)")
        if self.pool_noise < 0:
            issues.append("pool_noise: must be nonnegative")
        if self.algorithm in PROGRESSIVE_ALGS:
            try:
                self.schedule()
            except ValueError as err:
                issues.append(f"schedule: {err}")
        if issues:
            raise ConfigError(issues)

    def schedule(self) -> PruneSchedule:
        return PruneSchedule(granularity=self.granularity, order=self.order,
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

    def csv_row(self) -> str:
        return ",".join([str(self.round), repr(self.accuracy), repr(self.loss),
                         repr(self.density), repr(self.peak_flops),
                         repr(self.memory_bytes)])

    def to_record(self) -> dict:
        return {
            "round": self.round, "accuracy": self.accuracy, "loss": self.loss,
            "density": self.density, "targeted": list(self.targeted),
            "grow_count": self.grow_count, "drop_count": self.drop_count,
            "peak_flops": self.peak_flops, "memory_bytes": self.memory_bytes,
            "wall_time": self.wall_time, "clamped": self.clamped,
            "shortfall": self.shortfall,
            "buffer_violations": self.buffer_violations,
        }


@dataclass
class ExperimentState:
    cfg: ExperimentConfig
    net: Network
    mask: Mask | None
    clients: list[Dataset]
    dev_sets: list[Dataset]
    test_set: Dataset
    server_set: Dataset | None
    selection_scores: dict | None
    selected_candidate: int | None
    param_dense_bytes: float
    act_bytes: float


def _subseed(master: int, *tags: int) -> int:
    seq = np.random.SeedSequence((int(master), *[int(t) for t in tags]))
    return int(seq.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Setup
# ---------------------------------------------------------------------------

def build_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.data_kind == "csv":
        return load_csv(cfg.csv_path, skip_header=cfg.csv_header)
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
        _train_one_epoch(net, ds, None, batch_size, lr, rng)
    return net


def _train_one_epoch(net, ds, mask, batch_size, lr, rng) -> None:
    perm = rng.permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        idx = perm[start:start + batch_size]
        if len(idx) < 2:
            continue  # BN batch statistics need two samples
        logits, cache = forward(net, ds.features[idx], "train")
        _, grads = backward(net, logits, ds.labels[idx], cache)
        sgd_step(net, grads, lr, mask)


def _local_batches(n: int, batch_size: int) -> int:
    full, rem = divmod(n, batch_size)
    return full + (1 if rem >= 2 else 0)


def setup_experiment(cfg: ExperimentConfig) -> ExperimentState:
    cfg.validate()
    ds = build_dataset(cfg)

    test_idx, server_idx, pool_idx = split_indices(
        len(ds), [cfg.test_ratio, cfg.server_ratio],
        seed=_subseed(cfg.seed, _T_SPLIT))
    if len(pool_idx) < cfg.clients:
        raise ConfigError(["clients: not enough training samples left for "
                           f"{cfg.clients} clients"])
    server_set = ds.subset(server_idx) if len(server_idx) else None
    train_pool = ds.subset(pool_idx)
    # with no held-out split, evaluation falls back to the training pool
    test_set = ds.subset(test_idx) if len(test_idx) else train_pool

    clients = dirichlet_partition(
        train_pool, PartitionSpec(cfg.clients, cfg.alpha,
                                  seed=_subseed(cfg.seed, _T_PART)))
    dev_sets = []
    for k, client in enumerate(clients):
        idx = dev_indices(len(client), cfg.dev_ratio,
                          seed=_subseed(cfg.seed, _T_DEV, k))
        dev_sets.append(client.subset(idx))
        if cfg.dev_disjoint and len(client) > len(idx):
            rest = np.setdiff1d(np.arange(len(client)), idx)
            clients[k] = client.subset(rest)

    net = make_mlp(ds.dim, list(cfg.hidden), ds.classes,
                   momentum=cfg.bn_momentum, eps=cfg.bn_eps,
                   n_blocks=cfg.blocks, seed=_subseed(cfg.seed, _T_MODEL))
    if cfg.pretrain_epochs > 0:
        pretrain_server(net, server_set, cfg.pretrain_epochs, cfg.lr,
                        cfg.batch_size, seed=_subseed(cfg.seed, _T_PRETRAIN))

    mask = None
    selected = None
    scores = None
    if cfg.algorithm in POOL_ALGS:
        pool = generate_candidate_pool(net, cfg.density,
                                       cfg.resolved_pool_size(),
                                       noise=cfg.pool_noise,
                                       seed=_subseed(cfg.seed, _T_POOL))
        candidates = [(c.id, apply_mask(net, c.mask)) for c in pool]
        if cfg.algorithm == "ProgressiveOnly":
            selected, net, scores = vanilla_select(
                candidates, dev_sets, cfg.batch_size)
        else:
            selected, net, scores = adaptive_select(
                candidates, dev_sets, cfg.batch_size,
                average_std=cfg.aggregate_std)
        mask = pool[selected].mask.copy()
    elif cfg.algorithm == "StaticRandom":
        mask = random_mask(net, cfg.density,
                           seed=_subseed(cfg.seed, _T_STATIC))
        net = apply_mask(net, mask)
    elif cfg.algorithm == "StaticMagnitude":
        mask = magnitude_mask(net, cfg.density)
        net = apply_mask(net, mask)

    # activation memory: maximum over the first (up to) five training batches
    n0 = len(clients[0])
    batch_sizes = [min(cfg.batch_size, n0 - i * cfg.batch_size)
                   for i in range(5) if n0 - i * cfg.batch_size > 0]
    act = costs.measure_activation_bytes(net, batch_sizes, cfg.bits)

    return ExperimentState(
        cfg=cfg, net=net, mask=mask, clients=clients, dev_sets=dev_sets,
        test_set=test_set, server_set=server_set, selection_scores=scores,
        selected_candidate=selected,
        param_dense_bytes=costs.dense_param_bytes(net, cfg.bits),
        act_bytes=act)


# ---------------------------------------------------------------------------
# Round loop
# ---------------------------------------------------------------------------

def _round_lr(cfg: ExperimentConfig, round_index: int) -> float:
    if cfg.lr_decay == "cosine":
        return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * round_index / cfg.rounds))
    return cfg.lr


@dataclass
class ClientResult:
    """One client's upload: trained parameters, BN moving statistics, and
    (on pruning rounds) the top-K gradient buffers of the targeted layers."""
    params: dict[str, Array]
    bn_means: list[Array]
    bn_vars: list[Array]
    buffers: dict[str, TopKBuffer]
    violations: int


def _client_update(state: ExperimentState, k: int, round_index: int,
                   lr: float, plan_sizes: dict[str, int]) -> ClientResult:
    """One client's work item: E local epochs of masked SGD, then (on
    pruning rounds) the top-K gradient collection for the targeted layers."""
    cfg = state.cfg
    client = state.clients[k]
    local = state.net.clone()
    rng = np.random.default_rng(_subseed(cfg.seed, _T_LOCAL, round_index, k))
    for _ in range(cfg.local_epochs):
        _train_one_epoch(local, client, state.mask, cfg.batch_size, lr, rng)

    params = {key: p.copy() for key, p in local.params().items()}
    bn_means = [bn.state.mean.copy() for _, bn in local.bn_layers()]
    bn_vars = [bn.state.var.copy() for _, bn in local.bn_layers()]

    buffers = {}
    violations = 0
    if plan_sizes:
        crng = np.random.default_rng(
            _subseed(cfg.seed, _T_COLLECT, round_index, k))
        take = min(cfg.batch_size, len(client))
        if take >= 2:
            idx = crng.choice(len(client), size=take, replace=False)
            # the uploads are already copied; train-mode BN uses batch
            # statistics, so the gradients do not depend on the moving ones
            logits, cache = forward(local, client.features[idx], "train")
            _, grads = backward(local, logits, client.labels[idx], cache)
            for key, a in plan_sizes.items():
                flat_mask = state.mask.slices[key].reshape(-1)
                pruned = np.flatnonzero(flat_mask == 0)
                values = grads[key].reshape(-1)[pruned]
                buf = topk_collect(pruned, values, a)
                if buf.peak_size > a:
                    violations += 1
                buffers[key] = buf
    return ClientResult(params, bn_means, bn_vars, buffers, violations)


def run_round(state: ExperimentState, round_index: int) -> RoundMetrics:
    """Advance the federation by one round, mutating ``state`` in place."""
    cfg = state.cfg
    t0 = time.perf_counter()
    lr = _round_lr(cfg, round_index)

    srng = np.random.default_rng(_subseed(cfg.seed, _T_SAMPLE, round_index))
    m = max(1, round(cfg.client_fraction * cfg.clients))
    participants = sorted(srng.choice(cfg.clients, size=m, replace=False))

    # grow/prune plan sizes for this round
    plan_sizes: dict[str, int] = {}
    clamped = False
    targeted: list[str] = []
    if cfg.algorithm in PROGRESSIVE_ALGS and state.mask is not None:
        sched = cfg.schedule()
        targeted = target_layers(round_index, sched, state.net)
        t_iter = (round_index - sched.interval) * cfg.local_epochs
        for key in targeted:
            n_unpruned = int(state.mask.slices[key].sum())
            n_pruned = state.mask.slices[key].size - n_unpruned
            a = pruning_number(t_iter, sched, cfg.local_epochs,
                               n_unpruned, n_pruned)
            if a < pruning_number(t_iter, sched, cfg.local_epochs, n_unpruned):
                clamped = True
            if a > 0:
                plan_sizes[key] = a
        targeted = [key for key in targeted if key in plan_sizes]

    # cost accounting uses the mask the round trains with
    f_s = costs.forward_flops(state.net, state.mask, cfg.batch_size)
    f_d = costs.forward_flops(state.net, None, cfg.batch_size)
    extra = (costs.collection_pass_flops(state.net, state.mask, targeted,
                                         cfg.batch_size) if targeted else 0.0)
    iters = max(cfg.local_epochs * _local_batches(len(state.clients[k]),
                                                  cfg.batch_size)
                for k in participants)
    peak = costs.round_peak_flops(cfg.cost_tag(), f_d, f_s, iters, extra)
    memory = costs.training_memory(
        cfg.cost_tag(), state.param_dense_bytes,
        costs.model_storage(state.net, state.mask, cfg.bits).total_bytes,
        state.act_bytes, cfg.bits, topk_total=sum(plan_sizes.values()))

    # client work, reduced in fixed participant order
    results = [_client_update(state, k, round_index, lr, plan_sizes)
               for k in participants]

    weights = ([float(len(state.clients[k])) for k in participants]
               if cfg.weighted_aggregation else [1.0] * len(participants))
    total_w = sum(weights)

    # FedAvg parameter aggregation
    new_params = {key: np.zeros_like(p) for key, p in state.net.params().items()}
    for res, w in zip(results, weights):
        for key in new_params:
            new_params[key] += (w / total_w) * res.params[key]
    for key, p in state.net.params().items():
        p[...] = new_params[key]
    if state.mask is not None:
        for key, sl in state.mask.slices.items():
            state.net.params()[key][sl == 0] = 0.0

    # BN running statistics aggregated with the same weights
    reports = [BNReport(0, res.bn_means, res.bn_vars, max(1, int(w)))
               for res, w in zip(results, weights)]
    if reports and reports[0].means:
        means, variances = aggregate_bn(reports,
                                        average_std=cfg.aggregate_std)
        install_bn(state.net, means, variances)

    # grow/prune adjustment on the aggregated model
    grow_count = drop_count = shortfall = 0
    violations = sum(res.violations for res in results)
    for key, a in plan_sizes.items():
        buffers = [res.buffers[key] for res in results if key in res.buffers]
        if not buffers:
            continue
        buf_weights = [w for res, w in zip(results, weights)
                       if key in res.buffers]
        agg = aggregate_topk(buffers, buf_weights)
        plan = plan_grow_prune(agg, state.mask.slices[key],
                               state.net.params()[key], a)
        new_mask, new_w = apply_plan(state.mask.slices[key], plan,
                                     state.net.params()[key])
        state.mask.slices[key] = new_mask
        state.net.params()[key][...] = new_w
        grow_count += len(plan.grow)
        drop_count += len(plan.drop)
        shortfall += plan.shortfall

    accuracy, loss = evaluate_global(state.net, state.test_set, cfg.batch_size)
    dens = state.mask.density() if state.mask is not None else 1.0
    return RoundMetrics(
        round=round_index, accuracy=accuracy, loss=loss, density=dens,
        targeted=targeted, grow_count=grow_count, drop_count=drop_count,
        peak_flops=peak, memory_bytes=memory.total,
        wall_time=time.perf_counter() - t0, clamped=clamped,
        shortfall=shortfall, buffer_violations=violations)


def evaluate_global(net: Network, ds: Dataset, batch_size: int = 64):
    """Eval-mode top-1 accuracy and mean loss over a dataset."""
    if len(ds) < 1:
        raise ValueError("evaluation dataset is empty")
    correct = 0
    total_loss = 0.0
    for start in range(0, len(ds), batch_size):
        x = ds.features[start:start + batch_size]
        y = ds.labels[start:start + batch_size]
        logits, _ = forward(net, x, "eval")
        correct += int((np.argmax(logits, axis=1) == y).sum())
        total_loss += cross_entropy(logits, y) * len(y)
    return correct / len(ds), total_loss / len(ds)


# ---------------------------------------------------------------------------
# Experiment driver and artifacts
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig, out_dir=None):
    """Run the full pipeline. With ``out_dir`` set, metrics are appended to
    metrics.jsonl, mirrored to metrics.csv, and the final model is written
    to final.ckpt. Returns (metrics list, final state)."""
    state = setup_experiment(cfg)
    metrics: list[RoundMetrics] = []
    csv_fh = jsonl_fh = None
    if out_dir is not None:
        out_dir = _ensure_dir(out_dir)
        csv_fh = open(out_dir / "metrics.csv", "w", encoding="utf-8",
                      newline="\n")
        csv_fh.write(",".join(CSV_COLUMNS) + "\n")
        jsonl_fh = open(out_dir / "metrics.jsonl", "w", encoding="utf-8",
                        newline="\n")
    try:
        for r in range(1, cfg.rounds + 1):
            rm = run_round(state, r)
            metrics.append(rm)
            if csv_fh is not None:
                csv_fh.write(rm.csv_row() + "\n")
                jsonl_fh.write(json.dumps(rm.to_record(), sort_keys=True) + "\n")
    finally:
        if csv_fh is not None:
            csv_fh.close()
            jsonl_fh.close()
    if out_dir is not None:
        save_checkpoint(out_dir / "final.ckpt", state.net, state.mask,
                        {"algorithm": cfg.algorithm, "seed": cfg.seed,
                         "rounds": cfg.rounds,
                         "selected_candidate": state.selected_candidate})
    return metrics, state


def _ensure_dir(path):
    from pathlib import Path
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    return path


CKPT_VERSION = 1


def save_checkpoint(path, net: Network, mask: Mask | None,
                    extra: dict | None = None) -> None:
    """Versioned JSON snapshot: layer structure, parameter values, BN moving
    statistics, block partition, and the mask."""
    layers = []
    for layer in net.layers:
        if layer.kind == "linear":
            layers.append({"kind": "linear",
                           "shape": list(layer.weight.shape)})
        elif layer.kind == "batchnorm":
            layers.append({"kind": "batchnorm",
                           "features": int(layer.state.mean.size),
                           "momentum": layer.state.momentum,
                           "eps": layer.state.eps})
        else:
            layers.append({"kind": "relu"})
    record = {
        "version": CKPT_VERSION,
        "layers": layers,
        "blocks": {str(b): ix for b, ix in net.blocks.items()},
        "params": {key: {"shape": list(p.shape),
                         "data": p.reshape(-1).tolist()}
                   for key, p in net.params().items()},
        "bn_stats": [{"mean": bn.state.mean.tolist(),
                      "var": bn.state.var.tolist()}
                     for _, bn in net.bn_layers()],
        "mask": ({key: sl.reshape(-1).tolist()
                  for key, sl in mask.slices.items()}
                 if mask is not None else None),
        "extra": extra or {},
    }
    from pathlib import Path
    Path(path).write_text(json.dumps(record), encoding="utf-8")


def load_checkpoint(path):
    """Rebuild (network, mask, extra) from a checkpoint file."""
    from pathlib import Path
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise ValueError(f"unreadable checkpoint {path}: {err}")
    if record.get("version") != CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version "
                         f"{record.get('version')!r}")
    from .nn import BatchNorm, BNState, Linear, ReLU
    layers = []
    bn_stats = iter(record["bn_stats"])
    for spec in record["layers"]:
        if spec["kind"] == "linear":
            shape = spec["shape"]
            layers.append(Linear(np.zeros(shape), np.zeros(shape[1])))
        elif spec["kind"] == "batchnorm":
            stats = next(bn_stats)
            layers.append(BatchNorm(BNState(
                np.array(stats["mean"]), np.array(stats["var"]),
                momentum=spec["momentum"], eps=spec["eps"])))
        else:
            layers.append(ReLU())
    blocks = {int(b): ix for b, ix in record["blocks"].items()}
    net = Network(layers, blocks=blocks)
    for key, entry in record["params"].items():
        net.set_param(key, np.array(entry["data"],
                                    dtype=np.float64).reshape(entry["shape"]))
    mask = None
    if record["mask"] is not None:
        slices = {}
        for key, flat in record["mask"].items():
            shape = record["params"][key]["shape"]
            slices[key] = np.array(flat, dtype=np.uint8).reshape(shape)
        mask = Mask(slices)
    return net, mask, record.get("extra", {})
