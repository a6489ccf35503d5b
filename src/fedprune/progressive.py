"""Progressive grow/prune adjustment with bounded-memory gradient buffers.

Clients stream the gradients of pruned coordinates through a capacity-``a``
min-magnitude-evicting buffer, the server aggregates the surviving entries,
grows the pruned coordinates with the largest aggregated gradient magnitude,
and prunes the same number of unpruned coordinates with the smallest weight
magnitude. Density is conserved exactly by every adjustment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nn import Array, Network

GRANULARITIES = ("layer", "block", "entire")
BLOCKS = 5  # the paper's five blocks: prunable-tensor groups at block level
# top-K input is read in chunks of this many times the buffer capacity
CHUNK_FACTOR = 16


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


class TopKBuffer:
    """Bounded store of the ``capacity`` largest-magnitude gradients seen.

    ``index`` and ``value`` hold the retained (flat index, gradient) pairs in
    entry order: |gradient| descending, magnitude ties by lower index first.
    ``peak_size`` instruments the memory bound: the most entries retained at
    once, never more than ``capacity``.
    """

    __slots__ = ("capacity", "index", "value", "peak_size")

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("buffer capacity must be nonnegative")
        self.capacity = capacity
        self.index = np.zeros(0, dtype=np.int64)
        self.value = np.zeros(0, dtype=np.float64)
        self.peak_size = 0

    def __len__(self) -> int:
        return len(self.index)

    def entries(self) -> list[tuple[int, float]]:
        """(index, gradient) pairs ordered by |gradient| descending, magnitude
        ties by lower index first."""
        return list(zip(self.index.tolist(), self.value.tolist()))


def topk_collect(indices, values, capacity: int) -> TopKBuffer:
    """Stream (index, gradient) pairs through a bounded buffer.

    The input is read in chunks of ``CHUNK_FACTOR * capacity`` pairs. A
    chunk's pairs below a cut cannot reach the result and are dropped (ties
    at the cut survive): the cut is the chunk's own ``capacity``-th largest
    magnitude, found by one ``np.partition``, or the smallest retained
    magnitude of a full buffer if that is higher. The rest are merged with
    the retained entries by one sort on (|g| desc, index asc, g desc), which
    keeps the first ``capacity``. At most ``capacity`` entries are retained
    and at most ``CHUNK_FACTOR * capacity`` more are in flight, so memory is
    O(capacity) however long the input. The result equals streaming the
    pairs one at a time through a min-magnitude-evicting heap. A
    zero-capacity buffer reads no values.
    """
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if len(indices) != len(values):
        raise ValueError(f"{len(indices)} indices but {len(values)} values")
    buf = TopKBuffer(capacity)
    if capacity == 0:
        return buf
    step = CHUNK_FACTOR * capacity
    for start in range(0, len(values), step):
        val = values[start:start + step]
        mag = np.abs(val)
        top = mag.max()
        if not top < np.inf:  # NaN fails every comparison
            raise FloatingPointError("non-finite gradient in top-K input")
        cut = abs(buf.value[-1]) if len(buf) == capacity else 0.0
        if top < cut:
            continue
        if len(val) > capacity:
            kth = len(val) - capacity
            cut = max(cut, np.partition(mag, kth)[kth])
        keep = mag >= cut
        idx = np.concatenate((buf.index, indices[start:start + step][keep]))
        val = np.concatenate((buf.value, val[keep]))
        order = np.lexsort((-val, idx, -np.abs(val)))[:capacity]
        buf.index, buf.value = idx[order], val[order]
        buf.peak_size = max(buf.peak_size, len(buf.index))
    return buf


def pruning_number(t: int, schedule: PruneSchedule, local_iters: int,
                   n_unpruned: int) -> int:
    """Cosine-decayed adjustment size for one layer at iteration ``t``:
    floor(beta * (1 + cos(t * pi / (stop_round * iters))) * n_unpruned),
    zero past the stop point and at most ``n_unpruned``."""
    if t < 0:
        raise ValueError("iteration must be nonnegative")
    horizon = schedule.stop_round * local_iters
    if t > horizon:
        return 0
    raw = math.floor(schedule.growth_fraction
                     * (1.0 + math.cos(t * math.pi / horizon)) * n_unpruned)
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
    coordinate). Ties go to the lower flat index. If fewer than ``count``
    pruned coordinates were reported, the remainder is filled with the
    lowest pruned indices and flagged."""
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
    grow = index[np.lexsort((index, -np.abs(grads)))[:count]]
    shortfall = count - len(grow)
    if shortfall > 0:
        fill = np.setdiff1d(pruned, grow, assume_unique=True)[:shortfall]
        grow = np.concatenate((grow, fill))

    flat_w = np.abs(weight_slice.reshape(-1)[unpruned])
    order = np.argsort(flat_w, kind="stable")
    return GrowPrunePlan(grow, unpruned[order[:count]], shortfall)


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
