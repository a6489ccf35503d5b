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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import costs
from .data import Dataset, dev_indices, dirichlet_partition, load_csv, \
    make_blobs, split_indices, split_sizes
from .masking import MIN_KEPT_PER_LAYER, Mask, apply_mask, \
    generate_candidate_pool, keep_budget, magnitude_mask, random_mask, \
    zero_masked
from .nn import BN_EPS, BN_MOMENTUM, Array, BatchNorm, Linear, Network, \
    ReLU, backward, bn_stats, cross_entropy, forward, make_mlp, sgd_step
from .progressive import PruneSchedule, TopKBuffer, aggregate_topk, \
    apply_plan, plan_grow_prune, pruning_number, target_layers, topk_collect
from .selection import BNReport, adaptive_select, aggregate_bn, install_bn, \
    iter_batches, vanilla_select

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
        issues = [f"{f.name}: must be finite" for f in fields(self)
                  if f.type == "float" and not np.isfinite(getattr(self, f.name))]
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
        if not 0.0 <= self.test_ratio < 1.0:
            issues.append("test_ratio: must lie in [0, 1)")
        if not 0.0 <= self.server_ratio < 1.0:
            issues.append("server_ratio: must lie in [0, 1)")
        if self.test_ratio + self.server_ratio >= 1.0:
            issues.append("test_ratio + server_ratio: must leave client data")
        server = None
        if not issues:
            try:
                n = (len(load_csv(self.csv_path, self.csv_header))
                     if self.csv_path else self.classes * self.per_class)
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
        if self.algorithm in PROGRESSIVE_ALGS:
            try:
                self.schedule()
            except ValueError as err:
                issues.append(f"schedule: {err}")
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
    if cfg.csv_path:
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
    net.drop_grads()  # clients train clones of it, not it
    return net


def _local_batches(n: int, batch_size: int) -> int:
    """Batches in an epoch of ``n`` samples: a one-sample tail is skipped,
    since BN batch statistics need two samples."""
    full, rem = divmod(n, batch_size)
    return full + (1 if rem >= 2 else 0)


def _train_one_epoch(net, ds, mask, batch_size, lr, rng) -> None:
    perm = rng.permutation(len(ds))
    zero = net.masked_out(mask) if mask is not None else None
    for b in range(_local_batches(len(ds), batch_size)):
        idx = perm[b * batch_size:(b + 1) * batch_size]
        logits, cache = forward(net, ds.features[idx], "train")
        _, grad = backward(net, logits, ds.labels[idx], cache)
        sgd_step(net, grad, lr, mask, zero)


def setup_experiment(cfg: ExperimentConfig) -> ExperimentState:
    cfg.validate()
    ds = build_dataset(cfg)

    test_idx, server_idx, pool_idx = split_indices(
        len(ds), [cfg.test_ratio, cfg.server_ratio],
        seed=_subseed(cfg.seed, _T_SPLIT))
    server_set = ds.subset(server_idx) if len(server_idx) else None
    train_pool = ds.subset(pool_idx)
    # with no held-out split, evaluation falls back to the training pool
    test_set = ds.subset(test_idx) if len(test_idx) else train_pool

    clients = dirichlet_partition(train_pool, cfg.clients, cfg.alpha,
                                  seed=_subseed(cfg.seed, _T_PART))
    dev_sets = [client.subset(dev_indices(len(client), cfg.dev_ratio,
                                          seed=_subseed(cfg.seed, _T_DEV, k)))
                for k, client in enumerate(clients)]

    net = make_mlp(ds.dim, list(cfg.hidden), ds.classes,
                   seed=_subseed(cfg.seed, _T_MODEL))
    pretrain_server(net, server_set, cfg.pretrain_epochs, cfg.lr,
                    cfg.batch_size, seed=_subseed(cfg.seed, _T_PRETRAIN))

    mask = None
    record = None
    if cfg.algorithm in POOL_ALGS:
        pool = generate_candidate_pool(net, cfg.density,
                                       cfg.resolved_pool_size(),
                                       seed=_subseed(cfg.seed, _T_POOL))
        if cfg.algorithm == "ProgressiveOnly":
            method = "vanilla"
            selected, net, scores = vanilla_select(
                net, pool, dev_sets, cfg.batch_size)
        else:
            method = "adaptive"
            selected, net, scores = adaptive_select(
                net, pool, dev_sets, cfg.batch_size)
        mask = pool[selected].mask.copy()
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
    """What candidate selection saw: each candidate's drawn per-layer shares
    and aggregated dev loss, the winner, and its margin to the runner-up
    (``None`` for a pool of one)."""
    rest = [loss for cid, loss in scores.items() if cid != winner]
    return {
        "method": method,
        "winner": winner,
        "margin": min(rest) - scores[winner] if rest else None,
        "candidates": [{"id": i, "layer_shares": dict(c.layer_densities),
                        "dev_loss": scores[i]} for i, c in enumerate(pool)],
    }


# ---------------------------------------------------------------------------
# Round loop
# ---------------------------------------------------------------------------

@dataclass
class ClientResult:
    """One client's upload: its trained ``Network.flat``, BN statistics, and
    (on pruning rounds) the targeted layers' top-K gradient buffers."""
    flat: Array
    bn: BNReport
    buffers: dict[str, TopKBuffer]
    violations: int


def _client_update(state: ExperimentState, k: int, round_index: int,
                   collect: dict[str, tuple[int, Array]]) -> ClientResult:
    """One client's work item: E local epochs of masked SGD, then (on
    pruning rounds) the top-K gradient collection for the targeted layers.
    ``collect`` maps each targeted key to its buffer capacity and the flat
    indices of its pruned coordinates."""
    cfg = state.cfg
    client = state.clients[k]
    local = state.net.clone()
    rng = np.random.default_rng(_subseed(cfg.seed, _T_LOCAL, round_index, k))
    for _ in range(cfg.local_epochs):
        _train_one_epoch(local, client, state.mask, cfg.batch_size, cfg.lr,
                         rng)

    # uploaded without copies: the collection pass below writes no
    # parameter and rebinds, rather than writes, the BN statistics
    flat, bn = local.flat, BNReport(bn_stats(local), len(client))
    buffers = {}
    violations = 0
    if collect:
        crng = np.random.default_rng(
            _subseed(cfg.seed, _T_COLLECT, round_index, k))
        take = min(cfg.batch_size, len(client))
        if take >= 2:
            idx = crng.choice(len(client), size=take, replace=False)
            # train-mode BN uses batch statistics, so the gradients do not
            # depend on the moving ones
            logits, cache = forward(local, client.features[idx], "train")
            backward(local, logits, client.labels[idx], cache)
            for key, (a, pruned) in collect.items():
                values = local.grads()[key].reshape(-1)[pruned]
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


def fedavg(state: ExperimentState, results: list[ClientResult]) -> None:
    """Sample-weighted FedAvg of the uploads into ``state.net``, in place:
    the parameter vector is zeroed and the weighted uploads are added into
    it in client order (masked coordinates stay exactly zero), then the BN
    moving statistics are replaced."""
    total = sum(res.bn.samples for res in results)
    flat = state.net.flat
    flat[...] = 0.0
    for res in results:
        flat += (res.bn.samples / total) * res.flat
    if state.mask is not None:
        zero_masked(state.net, state.mask)
    install_bn(state.net, aggregate_bn([res.bn for res in results]))


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
    # clients reduced in fixed participant order; the mask does not change
    # before adjust, so neither do the pruned indices in ``collect``
    results = [_client_update(state, k, round_index, collect)
               for k in participants]
    fedavg(state, results)
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
    """Run the full pipeline into ``out_dir``: pool algorithms write
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


CKPT_VERSION = 1
# Parameter and mask values are written CKPT_CHUNK at a time: one ``tolist``
# and JSON text of a whole 128-wide network are over 4 MiB of short-lived
# objects, the largest allocation of a run
CKPT_CHUNK = 4096
_FLAT_SLOT = "\x00flat"


def save_checkpoint(path, net: Network, mask: Mask | None,
                    extra: dict | None = None) -> None:
    """Versioned JSON snapshot: layer structure, parameter values, BN moving
    statistics, and the mask. The bytes are those of ``json.dumps`` of the
    whole record."""
    flats = []

    def deferred(array: Array) -> str:
        flats.append(array.reshape(-1))
        return _FLAT_SLOT

    layers = []
    for layer in net.layers:
        if layer.kind == "linear":
            layers.append({"kind": "linear",
                           "shape": list(layer.weight.shape)})
        elif layer.kind == "batchnorm":
            layers.append({"kind": "batchnorm",
                           "features": int(layer.mean.size)})
        else:
            layers.append({"kind": "relu"})
    record = {
        "version": CKPT_VERSION,
        "layers": layers,
        "params": {key: {"shape": list(p.shape), "data": deferred(p)}
                   for key, p in net.params().items()},
        "bn_stats": [{"mean": mean.tolist(), "var": var.tolist()}
                     for mean, var in bn_stats(net)],
        "mask": ({key: deferred(sl) for key, sl in mask.slices.items()}
                 if mask is not None else None),
        "extra": extra or {},
    }
    head, *tails = json.dumps(record).split(json.dumps(_FLAT_SLOT))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for flat, tail in zip(flats, tails, strict=True):
            fh.write("[")
            for start in range(0, flat.size, CKPT_CHUNK):
                chunk = json.dumps(flat[start:start + CKPT_CHUNK].tolist())
                fh.write((", " if start else "") + chunk[1:-1])
            fh.write("]" + tail)


def load_checkpoint(path):
    """Rebuild (network, mask, extra) from a checkpoint file. A file that
    ``save_checkpoint`` could not have written raises ``ValueError``."""
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise ValueError(f"unreadable checkpoint {path}: {err}")
    if not isinstance(record, dict):
        raise ValueError(f"unreadable checkpoint {path}: not a JSON object")
    if record.get("version") != CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version "
                         f"{record.get('version')!r}")
    missing = [k for k in ("layers", "params", "bn_stats", "mask")
               if k not in record]
    if missing:
        raise ValueError(f"unreadable checkpoint {path}: missing "
                         f"{', '.join(missing)}")
    try:
        net, mask = _rebuild(record)
    except (KeyError, OverflowError, TypeError, ValueError) as err:
        raise ValueError(f"unreadable checkpoint {path}: {err}") from None
    return net, mask, record.get("extra", {})


def _rebuild(record: dict) -> tuple[Network, Mask | None]:
    """The network and mask of a checkpoint record, checking each entry
    against the layers the record declares."""
    specs, stats = record["layers"], record["bn_stats"]
    if not (isinstance(specs, list) and isinstance(stats, list)
            and isinstance(record["params"], dict)
            and isinstance(record["mask"], (dict, type(None)))):
        raise ValueError("layers, params, bn_stats or mask has the wrong type")
    kinds = [spec.get("kind") if isinstance(spec, dict) else None
             for spec in specs]
    if kinds.count("batchnorm") != len(stats):
        raise ValueError(f"{len(stats)} bn_stats entries for "
                         f"{kinds.count('batchnorm')} BN layers")
    layers = []
    stats = iter(stats)
    for i, (spec, kind) in enumerate(zip(specs, kinds)):
        if kind == "linear":
            shape = spec.get("shape")
            if not (isinstance(shape, list) and len(shape) == 2
                    and all(type(d) is int and d > 0 for d in shape)):
                raise ValueError(f"layer {i}: shape {shape!r} is not two "
                                 f"positive integers")
            layers.append(Linear(np.zeros(shape), np.zeros(shape[1])))
        elif kind == "batchnorm":
            # older checkpoints record the BN constants; no other value loads
            for name, value in (("momentum", BN_MOMENTUM), ("eps", BN_EPS)):
                if spec.get(name, value) != value:
                    raise ValueError(f"layer {i}: BN {name} {spec[name]!r} "
                                     f"is not {value}")
            entry = next(stats)
            bn = BatchNorm(np.array(entry["mean"]), np.array(entry["var"]))
            if [spec.get("features")] != list(bn.mean.shape):
                raise ValueError(f"layer {i}: {spec.get('features')!r} "
                                 f"features but {bn.mean.size} statistics")
            layers.append(bn)
        elif kind == "relu":
            layers.append(ReLU())
        else:
            raise ValueError(f"layer {i}: unknown kind {kind!r}")
    net = Network(layers)
    params = net.params()
    missing = [key for key in params if key not in record["params"]]
    if missing:
        raise ValueError(f"no values for param {', '.join(missing)}")
    for key, entry in record["params"].items():
        value = _tensor("param", key, entry["data"], params)
        if entry["shape"] != list(value.shape):
            raise ValueError(f"param {key!r}: shape {entry['shape']!r} is "
                             f"not {list(value.shape)}")
        net.set_param(key, value)
    if record["mask"] is None:
        return net, None
    # a mask covers prunable tensors only; Mask checks every entry is 0 or 1
    # before its uint8 cast
    prunable = {key: params[key] for key in net.prunable_keys()}
    return net, Mask({key: _tensor("mask", key, flat, prunable)
                      for key, flat in record["mask"].items()})


def _tensor(what: str, key: str, flat, tensors: dict[str, Array]) -> Array:
    """The flat checkpoint list ``flat`` as a float64 array shaped like
    ``tensors[key]``."""
    if key not in tensors:
        raise ValueError(f"{what} {key!r} is not one of {', '.join(tensors)}")
    value = np.array(flat, dtype=np.float64)
    if value.shape != (tensors[key].size,):
        raise ValueError(f"{what} {key!r}: {value.size} values for shape "
                         f"{list(tensors[key].shape)}")
    return value.reshape(tensors[key].shape)
