"""Outside-in tracer for one fedprune experiment.

The tracer replaces, for the lifetime of one process, the module attributes
through which ``fedprune.sim``, ``fedprune.selection`` and ``fedprune.cli``
call into the other modules. Each call records one span
``(name, start, end, parent)`` in memory; nothing is written until the run
ends. A span's name is ``<layer>.<function>``, and its layer is the module
whose work it does. Exact counts (coordinates streamed, coordinates grown,
participants, ...) are recorded beside the spans, after each span has closed,
so they cost no span time.

``Tracer(full=False)`` wraps only ``setup_experiment`` and ``run_round``:
that is the untraced mode the end-to-end metrics come from.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import Counter
from fractions import Fraction

from fedprune import cli, costs, nn, selection, sim

# the unwrapped FLOP model, for the achieved-FLOP/s counter
_forward_flops = costs.forward_flops

SETUP = "sim.setup_experiment"
ROUND = "sim.run_round"
LAYERS = ("data", "nn", "masking", "selection", "progressive", "costs")


def _forward_name(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "train")
    return "nn.forward_train" if mode == "train" else "nn.forward_eval"


def _see_forward(tracer, args, kwargs, result):
    if _forward_name(args, kwargs) == "nn.forward_train":
        tracer.last_batch = len(args[1])


def _see_sgd_step(tracer, args, kwargs, result):
    round_span = tracer.enclosing(ROUND)
    if round_span is None:
        return
    net, mask = args[0], (args[3] if len(args) > 3 else kwargs.get("mask"))
    # forward FLOPs are linear in the batch; the mask is fixed within a
    # round's local training, so one evaluation per round suffices
    key = (round_span, id(mask))
    if key != tracer.flops_key:
        tracer.flops_key = key
        tracer.flops_per_sample = _forward_flops(net, mask, 1)
    tracer.counts["train_flops"] += 3 * tracer.flops_per_sample * tracer.last_batch


def _see_topk(tracer, args, kwargs, result):
    tracer.counts["topk_streamed"] += len(args[0])
    tracer.counts["topk_retained"] += len(result)


def _see_plan(tracer, args, kwargs, result):
    tracer.counts["grown"] += len(result.grow)
    tracer.counts["shortfall"] += result.shortfall


def _see_pool(tracer, args, kwargs, result):
    tracer.counts["pool_candidates"] += len(result)


def _see_round_bn(tracer, args, kwargs, result):
    if tracer.enclosing(ROUND) is not None:
        tracer.counts["participants"] += len(args[0])


def _see_setup(tracer, args, kwargs, result):
    kept, total = result.mask.counts()
    tracer.counts["kept_after_setup"] = kept
    tracer.counts["budget"] = math.floor(
        Fraction(repr(float(args[0].density))) * total)


PARENT_WRAPS = [
    (sim, "setup_experiment", SETUP, _see_setup),
    (sim, "run_round", ROUND, None),
]

LAYER_WRAPS = [
    (cli, "run_experiment", "sim.run_experiment", None),
    (cli, "write_manifest", "sim.write_manifest", None),
    (sim, "save_checkpoint", "sim.save_checkpoint", None),
    (sim, "pretrain_server", "sim.pretrain_server", None),
    (sim, "evaluate_global", "sim.evaluate_global", None),
    (sim, "build_dataset", "data.build_dataset", None),
    (sim, "split_indices", "data.split_indices", None),
    (sim, "dirichlet_partition", "data.dirichlet_partition", None),
    (sim, "dev_indices", "data.dev_indices", None),
    (sim, "forward", _forward_name, _see_forward),
    (selection, "forward", _forward_name, _see_forward),
    (sim, "backward", "nn.backward", None),
    (sim, "sgd_step", "nn.sgd_step", _see_sgd_step),
    (selection, "update_bn_stats", "nn.update_bn_stats", None),
    (nn.Network, "clone", "nn.clone", None),
    (sim, "generate_candidate_pool", "masking.pool", _see_pool),
    (sim, "apply_mask", "masking.apply_mask", None),
    (sim, "adaptive_select", "selection.select", None),
    (sim, "vanilla_select", "selection.select", None),
    (selection, "client_bn_pass", "selection.bn_pass", None),
    (selection, "client_score", "selection.score", None),
    (selection, "aggregate_bn", "selection.aggregate_bn", None),
    (selection, "install_bn", "selection.install_bn", None),
    (sim, "aggregate_bn", "selection.aggregate_bn", _see_round_bn),
    (sim, "install_bn", "selection.install_bn", None),
    (sim, "topk_collect", "progressive.topk", _see_topk),
    (sim, "aggregate_topk", "progressive.aggregate_topk", None),
    (sim, "plan_grow_prune", "progressive.plan_grow_prune", _see_plan),
    (sim, "apply_plan", "progressive.apply_plan", None),
] + [(costs, name, f"costs.{name}", None)
     for name, fn in vars(costs).items()
     if inspect.isfunction(fn) and fn.__module__ == costs.__name__
     and not name.startswith("_")]


class Tracer:
    """Span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, full: bool):
        self.wraps = PARENT_WRAPS + (LAYER_WRAPS if full else [])
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.last_batch = 0
        self.flops_key = None
        self.flops_per_sample = 0.0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def enclosing(self, name: str):
        """Index of the innermost open span called ``name``, or None."""
        for index in reversed(self._stack):
            if self.spans[index][0] == name:
                return index
        return None

    def install(self) -> None:
        for owner, attr, name, observe in self.wraps:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, observe))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, observe):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name,
                    0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """One JSON span per line: name, start and end (s), parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(tracer: Tracer, run_s: float) -> tuple[dict, dict]:
    """Exact counts and per-layer busy/self times of a traced run.

    Busy time of a name is the summed duration of its spans. A layer's busy
    time is that of the calls the pipeline (``sim``/``cli``) makes into it
    directly, nested calls included: selection's nn passes count toward
    selection. Self time is a span's duration minus that of its direct
    children.
    """
    spans = tracer.spans
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    in_round = [False] * n
    in_setup = [False] * n
    from_sim = [True] * n  # every enclosing span belongs to sim
    for i, (name, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            pname = spans[parent][0]
            in_round[i] = in_round[parent] or pname == ROUND
            in_setup[i] = in_setup[parent] or pname == SETUP
            from_sim[i] = from_sim[parent] and pname.startswith("sim.")

    calls: Counter = Counter()
    busy: Counter = Counter()
    self_s: Counter = Counter()
    layer_calls: Counter = Counter()
    layer_busy: Counter = Counter()
    for i, (name, _, _, _) in enumerate(spans):
        keys = [name]
        if in_round[i]:
            keys.append(name + ":round")
        if in_setup[i]:
            keys.append(name + ":setup")
        for key in keys:
            calls[key] += 1
            busy[key] += dur[i]
        self_s[name] += dur[i] - child[i]
        layer = name.split(".")[0]
        if from_sim[i]:
            layer_calls[layer] += 1
            layer_busy[layer] += dur[i]

    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    step_s = (busy["nn.forward_train:round"] + busy["nn.backward:round"]
              + busy["nn.sgd_step:round"])
    steps = calls["nn.sgd_step:round"]
    # exact: repeats of one seed must reproduce these to the last digit
    counts = {
        "masking.pool.candidates": c["pool_candidates"],
        "masking.budget_use": ratio(c["kept_after_setup"], c["budget"]),
        "progressive.topk.streamed": c["topk_streamed"],
        "progressive.topk.kept_ratio":
            ratio(c["topk_retained"], c["topk_streamed"]),
        "progressive.grown": c["grown"],
        "progressive.shortfall": c["shortfall"],
        "costs.calls": layer_calls["costs"],
        "sim.local_steps": steps,
        "sim.participants": c["participants"],
    }
    timings = {
        "data.s": layer_busy["data"],
        "nn.step_us": ratio(step_s, steps) * 1e6,
        "nn.train_mflops_per_s": ratio(c["train_flops"], step_s) / 1e6,
        "masking.pool.s": busy["masking.pool"],
        "masking.apply_mask.s": busy["masking.apply_mask"],
        "selection.s": busy["selection.select"],
        "selection.aggregate_bn.s": busy["selection.aggregate_bn:setup"],
        "progressive.topk.ns_per_elem":
            ratio(busy["progressive.topk"], c["topk_streamed"]) * 1e9,
        "progressive.plan.s": (busy["progressive.aggregate_topk"]
                               + busy["progressive.plan_grow_prune"]
                               + busy["progressive.apply_plan"]),
        "costs.s": layer_busy["costs"],
        "sim.round.self_s": self_s[ROUND],
        "sim.setup.self_s": self_s[SETUP],
        "sim.evaluate.s": busy["sim.evaluate_global"],
        "sim.pretrain.s": busy["sim.pretrain_server"],
        "sim.artifacts.s": (self_s["sim.run_experiment"]
                            + busy["sim.save_checkpoint"]
                            + busy["sim.write_manifest"]),
    }
    for metric in ("nn.forward_train", "nn.forward_eval", "nn.backward",
                   "nn.sgd_step", "nn.clone", "nn.update_bn_stats",
                   "selection.bn_pass", "selection.score",
                   "progressive.topk"):
        counts[f"{metric}.calls"] = calls[metric]
        timings[f"{metric}.s"] = busy[metric]
    for layer in LAYERS:
        timings[f"layer.{layer}.busy_share"] = ratio(layer_busy[layer], run_s)
    return counts, timings
