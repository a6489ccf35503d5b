"""Progressive grow/prune adjustment from clients' top-K gradients.

Each client uploads the ``a`` largest-magnitude gradients of a layer's pruned
coordinates, the server aggregates them, grows the pruned coordinates with
the largest aggregated gradient magnitude, and prunes the same number of
unpruned coordinates with the smallest weight magnitude. The client's top-K
and the server's grow choice share one ordering rule, ``_first``; the drop
choice is ``masking._smallest``, the rule of the masks. Density is conserved
exactly by every adjustment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .masking import _smallest
from .nn import Array, Network

GRANULARITIES = ("layer", "block", "entire")
BLOCKS = 5  # the paper's five blocks: prunable-tensor groups at block level


@dataclass
class PruneSchedule:
    granularity: str = "block"
    interval: int = 10          # fine-tuning rounds between two prunes
    stop_round: int = 100       # last round on which pruning may happen
    growth_fraction: float = 0.15

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")
        if self.interval < 1:
            raise ValueError("interval must be at least 1")
        if self.stop_round < self.interval:
            raise ValueError("stop_round must be at least interval")
        if not 0.0 < self.growth_fraction < 1.0:
            raise ValueError("growth_fraction must lie in (0, 1)")


@dataclass
class TopKBuffer:
    """One client's top-K upload for a layer: the kept (flat index,
    gradient) pairs, in the order of ``_first``."""

    index: Array
    value: Array

    def __len__(self) -> int:
        return len(self.index)


def _first(index: Array, value: Array, k: int) -> Array:
    """Positions of the ``k`` pairs (all, if fewer) first in the order
    (|g| desc, index asc, g desc): one ``np.partition`` cut at the ``k``-th
    largest |g|, ties kept, then one ``lexsort`` of the pairs at or above.
    It cuts |g| itself, where ``masking._smallest``'s cut would need -|g|:
    one more pass over every pruned coordinate of each upload."""
    if k < len(value):
        mag = np.abs(value)
        kth = len(value) - k
        cand = np.flatnonzero(mag >= np.partition(mag, kth)[kth])
        del mag  # before the small arrays below, which would pin the heap top
    else:
        cand = np.arange(len(value))
    val = value[cand]
    order = np.lexsort((-val, index[cand], -np.abs(val)))
    return cand[order[:k]]


def topk_collect(indices, values, capacity: int) -> TopKBuffer:
    """The ``capacity`` (index, gradient) pairs of largest |gradient|, ties
    by lower index; this equals streaming the pairs one at a time through a
    min-magnitude-evicting heap. A zero-capacity call reads no values."""
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if len(indices) != len(values):
        raise ValueError(f"{len(indices)} indices but {len(values)} values")
    if capacity < 0:
        raise ValueError("buffer capacity must be nonnegative")
    if capacity == 0:
        return TopKBuffer(indices[:0], values[:0])
    if not np.isfinite(values).all():
        raise FloatingPointError("non-finite gradient in top-K input")
    keep = _first(indices, values, capacity)
    return TopKBuffer(indices[keep], values[keep])


def pruning_number(t: int, schedule: PruneSchedule, n_unpruned: int) -> int:
    """Cosine-decayed adjustment size for one layer ``t`` rounds after the
    first pruning round:
    floor(beta * (1 + cos(t * pi / stop_round)) * n_unpruned), zero past
    ``stop_round`` and at most ``n_unpruned``."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t > schedule.stop_round:
        return 0
    raw = math.floor(schedule.growth_fraction
                     * (1.0 + math.cos(t * math.pi / schedule.stop_round))
                     * n_unpruned)
    return max(0, min(raw, n_unpruned))


def aggregate_topk(buffers: list[TopKBuffer],
                   weights: list[float]) -> tuple[Array, Array]:
    """Client-size-weighted sum over the union of reported indices; an index
    a client did not report contributes zero for that client. Returns the
    ascending int64 indices and their float64 sums."""
    if not buffers:
        raise ValueError("need at least one buffer")
    if len(buffers) != len(weights):
        raise ValueError("one weight per buffer required")
    total = float(sum(weights))
    index = np.concatenate([buf.index for buf in buffers])
    shares = np.concatenate([(w / total) * buf.value
                             for buf, w in zip(buffers, weights)])
    keys, slot = np.unique(index, return_inverse=True)
    # bincount adds in input order, i.e. client by client, from 0.0
    return keys, np.bincount(slot, weights=shares, minlength=len(keys))


@dataclass
class GrowPrunePlan:
    """int64 flat-index sets for one layer: grow flips mask 0 -> 1, drop
    flips 1 -> 0."""

    grow: Array = field(default_factory=lambda: np.zeros(0, np.int64))
    drop: Array = field(default_factory=lambda: np.zeros(0, np.int64))
    shortfall: int = 0  # grow slots filled without a reported gradient

    def __post_init__(self):
        self.grow = np.asarray(self.grow, dtype=np.int64)
        self.drop = np.asarray(self.drop, dtype=np.int64)
        if len(self.grow) != len(self.drop):
            raise ValueError("grow and drop sets must have equal size")
        # the default sort method calls np.unique, which imports numpy.ma
        # (about 1 MiB resident) on first use
        if np.isin(self.grow, self.drop, kind="table").any():
            raise ValueError("grow and drop sets must be disjoint")


def plan_grow_prune(index: Array, grads: Array, mask_slice: Array,
                    weight_slice: Array, count: int) -> GrowPrunePlan:
    """Choose ``count`` pruned coordinates to grow (largest aggregated
    gradient ``grads[i]`` at flat index ``index[i]``) and ``count`` unpruned
    coordinates to drop (smallest weight magnitude, never a just-grown
    coordinate). Ties go to the lower flat index; the grow choice is
    ``topk_collect``'s order. If fewer than ``count`` pruned coordinates
    were reported, the remainder is filled with the lowest pruned indices
    and flagged."""
    flat_mask = mask_slice.reshape(-1)
    pruned = np.flatnonzero(flat_mask == 0)
    unpruned = np.flatnonzero(flat_mask == 1)
    if count > min(len(pruned), len(unpruned)):
        raise ValueError(f"cannot swap {count} coordinates in a layer with "
                         f"{len(pruned)} pruned / {len(unpruned)} unpruned")
    if count == 0:
        return GrowPrunePlan()

    reported = np.isin(index, pruned)
    index, grads = index[reported], grads[reported]
    grow = index[_first(index, grads, count)]
    shortfall = count - len(grow)
    if shortfall > 0:
        fill = np.setdiff1d(pruned, grow, assume_unique=True)[:shortfall]
        grow = np.concatenate((grow, fill))

    flat_w = np.abs(weight_slice.reshape(-1)[unpruned])
    return GrowPrunePlan(grow, unpruned[_smallest(flat_w, count)], shortfall)


def apply_plan(mask_slice: Array, plan: GrowPrunePlan,
               weight_slice: Array) -> None:
    """Flip the plan into the mask slice and weight tensor in place: grown
    coordinates are zero-initialized, dropped coordinates are zeroed, and
    the nonzero count is exactly conserved. Both checks run before any
    write."""
    if np.any(mask_slice.flat[plan.grow] != 0):
        raise ValueError("plan grows a coordinate that is not pruned")
    if np.any(mask_slice.flat[plan.drop] != 1):
        raise ValueError("plan drops a coordinate that is not unpruned")
    mask_slice.flat[plan.grow] = 1
    weight_slice.flat[plan.grow] = 0.0
    mask_slice.flat[plan.drop] = 0
    weight_slice.flat[plan.drop] = 0.0


def target_layers(round_index: int, schedule: PruneSchedule,
                  net: Network) -> list[str]:
    """Prunable parameter keys adjusted in this round.

    Pruning happens on rounds that are multiples of the interval, up to and
    including the stop round. The prunable keys, in layer order, are cut
    into G contiguous, equal-as-possible groups: one per key at layer
    granularity, ``min(BLOCKS, #keys)`` at block granularity, one at entire.
    Pruning round k (0-based) targets group ``G - 1 - (k mod G)``, so the
    last group goes first and every pruning round targets a tensor; keys
    within a group stay in layer order.
    """
    if round_index < 1:
        raise ValueError("rounds are 1-based")
    if round_index % schedule.interval != 0 or round_index > schedule.stop_round:
        return []
    keys = net.prunable_keys()
    if not keys:
        return []
    n_groups = {"layer": len(keys), "block": min(BLOCKS, len(keys)),
                "entire": 1}[schedule.granularity]
    ordinal = round_index // schedule.interval - 1  # 0-based pruning counter
    group = np.array_split(np.arange(len(keys)), n_groups)[
        n_groups - 1 - ordinal % n_groups]
    return [keys[i] for i in group]
