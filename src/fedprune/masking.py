"""Binary masks and coarse-pruning strategies over integer keep counts.

A target density d over N prune-eligible weights is one global budget of
``keep_budget(d, N)`` kept weights. ``allocate_counts`` splits that budget
across layers, and each layer keeps the first count positions of one order
of its weights (``keep_prefix``), so every mask built here keeps exactly its
budget, and a pool candidate is its row of keep counts (``Pool``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import floor_share
from .nn import Array, Network

MIN_KEPT_PER_LAYER = 10   # floor that keeps every pruned layer connected
POOL_NOISE = 0.5          # candidate densities vary by this share of d_target


def keep_budget(density: float, n: int) -> int:
    """``floor_share(density, n)``, the rule of the data splits too:
    ``keep_budget(0.29, 100)`` is 29, where float arithmetic gives 28."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    return floor_share(density, n)


def allocate_counts(shares: dict[str, float], sizes: dict[str, int],
                    budget: int) -> dict[str, int]:
    """Split ``budget`` kept weights across layers in proportion to
    share x size, by largest remainders (ties go to the earlier layer).

    Each layer keeps between min(MIN_KEPT_PER_LAYER, size) and size weights,
    and the counts sum to exactly ``budget``. share x size is first clipped
    to those bounds; a layer whose scaled part still crosses one is pinned
    to it, and the others share what is left. The arithmetic is exact.
    """
    low = {k: min(MIN_KEPT_PER_LAYER, n) for k, n in sizes.items()}
    if not sum(low.values()) <= budget <= sum(sizes.values()):
        raise ValueError(
            f"cannot keep {budget} of {sum(sizes.values())} weights with "
            f"at least {MIN_KEPT_PER_LAYER} kept per layer")
    # share x size over one common denominator (float shares are dyadic),
    # so every floor, bound check and remainder below is an integer compare
    ratios = [shares[k].as_integer_ratio() for k in sizes]
    denom = math.lcm(*(q for _, q in ratios))
    weight = {k: min(max(p * (denom // q) * n, low[k] * denom), n * denom)
              for (k, n), (p, q) in zip(sizes.items(), ratios)}
    counts: dict[str, int] = {}
    remainder = dict.fromkeys(sizes, 0)
    free = list(sizes)
    while free:
        # a free layer's exact part is left x weight / total
        left = budget - sum(counts.values())
        total = sum(weight[k] for k in free)
        # weights lie within the bounds and every free one is scaled by one
        # factor, so all crossings are on one side and stay pinned in the
        # exact solution
        pinned = {k: low[k] if left * weight[k] < low[k] * total else sizes[k]
                  for k in free if not low[k] * total <= left * weight[k]
                  <= sizes[k] * total}
        if not pinned:
            for k in free:
                counts[k], remainder[k] = divmod(left * weight[k], total)
        counts.update(pinned)
        free = [k for k in free if k not in counts]
    by_remainder = sorted(sizes, key=lambda k: -remainder[k])
    for k in by_remainder[:budget - sum(counts.values())]:
        counts[k] += 1
    return {k: counts[k] for k in sizes}


def _smallest(key: Array, k: int) -> Array:
    """Positions of the ``k`` smallest entries of the 1-D ``key`` (all, if
    fewer) in ascending order, equal keys by lower position: exactly
    ``np.argsort(key, kind="stable")[:k]``. One ``np.partition`` cut at the
    ``k``-th key (ties at the cut kept), then one stable sort of only the
    entries at or below it; NaN sorts last in both, as in ``np.sort``."""
    if k < len(key):
        above = key > np.partition(key, k - 1)[k - 1]
        cand = np.flatnonzero(np.logical_not(above, out=above))
    else:
        cand = np.arange(len(key))
    return cand[np.argsort(key[cand], kind="stable")[:k]]


def keep_prefix(order: Array, n: int, shape) -> Array:
    """Boolean array of ``shape`` (so ``Mask`` skips its 0/1 scan) that is
    True at exactly the first ``n`` flat positions of ``order``."""
    kept = np.zeros(shape, dtype=bool)
    kept.reshape(-1)[order[:n]] = True
    return kept


class Mask:
    """Binary indicators over the prune-eligible tensors: one uint8 vector
    ``bits`` of each key's indicators in key order (a checkpoint's mask
    section), which ``slices`` view at the tensors' shapes and code writes
    in place, never rebinding them. The input is copied once, to ``bits``."""

    def __init__(self, slices: dict[str, Array]):
        given = {key: np.asarray(m) for key, m in slices.items()}
        self.bits = np.empty(sum(m.size for m in given.values()), np.uint8)
        self.slices, at = {}, 0
        for key, m in given.items():
            # check before the cast, which would turn 0.5 into 0 and 256 into
            # 0; a boolean array holds nothing else
            if m.dtype != bool and not np.all((m == 0) | (m == 1)):
                raise ValueError(f"mask entries for {key} must be 0 or 1")
            self.slices[key] = self.bits[at:at + m.size].reshape(m.shape)
            np.copyto(self.slices[key], m, casting="unsafe")
            at += m.size

    def nonzeros(self) -> dict[str, int]:
        return {k: int(m.sum()) for k, m in self.slices.items()}

    def counts(self) -> tuple[int, int]:
        return int(self.bits.sum()), self.bits.size

    def density(self) -> float:
        kept, total = self.counts()
        return kept / total if total else 1.0

    def copy(self) -> "Mask":
        return Mask(self.slices)


@dataclass
class Pool:
    """Coarse-pruned candidates, identified by position: candidate ``i`` drew
    the per-layer shares ``shares[i]`` and keeps the first ``counts[i, j]``
    positions of the ``j``-th tensor's ``order``, so two candidates keep the
    same weights exactly when their count rows are equal."""

    order: dict[str, Array]          # flat positions, largest |w| first
    shapes: dict[str, tuple[int, ...]]
    shares: list[dict[str, float]]
    counts: Array                    # (candidates, tensors) keep counts

    def __len__(self) -> int:
        return len(self.counts)

    def mask(self, i: int) -> Mask:
        return Mask({k: keep_prefix(order, n, self.shapes[k])
                     for (k, order), n in zip(self.order.items(),
                                              self.counts[i])})


def apply_mask(net: Network, mask: Mask) -> Network:
    """Clone the network with masked-out weights set to exactly zero."""
    return zero_masked(net.clone(), mask)


def zero_masked(net: Network, mask: Mask) -> Network:
    """Set ``net``'s weights where ``mask`` is 0 to exactly +0.0, in place."""
    np.copyto(net.flat, 0.0, where=net.masked_out(mask))
    return net


def _prunable(net: Network) -> dict[str, Array]:
    params = net.params()
    keys = net.prunable_keys()
    if not keys:
        raise ValueError("network has no prunable tensors")
    return {k: params[k] for k in keys}


def _uniform_mask(net: Network, d_target: float, score) -> Mask:
    """Mask at uniform per-layer density that keeps each layer's highest
    ``score(w)`` entries, ties to the lower flat index; ``score`` is called
    once per prunable tensor, in key order."""
    weights = _prunable(net)
    sizes = {k: w.size for k, w in weights.items()}
    counts = allocate_counts(dict.fromkeys(sizes, d_target), sizes,
                             keep_budget(d_target, sum(sizes.values())))
    return Mask({k: keep_prefix(_smallest(-score(w).reshape(-1), counts[k]),
                                counts[k], w.shape)
                 for k, w in weights.items()})


def magnitude_mask(net: Network, d_target: float) -> Mask:
    """One-shot server-side mask at uniform per-layer density that keeps the
    largest-magnitude weights of each layer."""
    return _uniform_mask(net, d_target, np.abs)


def random_mask(net: Network, d_target: float, seed: int = 0) -> Mask:
    """Uniformly random support at uniform per-layer density."""
    rng = np.random.default_rng(seed)
    return _uniform_mask(net, d_target, lambda w: rng.random(w.shape))


def generate_candidate_pool(net: Network, d_target: float, count: int,
                            seed: int = 0) -> Pool:
    """Uniform-noise candidate pool: per-layer densities d_target + e with
    e ~ U[-POOL_NOISE * d_target, +POOL_NOISE * d_target], one draw per
    candidate, as shares of the global keep budget; each layer keeps its
    largest-magnitude weights, a prefix of the layer's descending magnitude
    order. No layer can keep more than the budget, so only its top
    ``min(size, budget)`` magnitudes are ordered, once per layer."""
    if count < 1:
        raise ValueError("pool size must be at least 1")
    weights = _prunable(net)
    sizes = {k: w.size for k, w in weights.items()}
    budget = keep_budget(d_target, sum(sizes.values()))
    shares = []
    for cid in range(count):
        rng = np.random.default_rng(np.random.SeedSequence((seed, cid)))
        e = rng.uniform(-POOL_NOISE * d_target, POOL_NOISE * d_target,
                        size=len(sizes))
        shares.append({k: float(d_target + e[i]) for i, k in enumerate(sizes)})
    counts = [list(allocate_counts(s, sizes, budget).values()) for s in shares]
    return Pool({k: _smallest(-np.abs(w.reshape(-1)), min(w.size, budget))
                 for k, w in weights.items()},
                {k: w.shape for k, w in weights.items()}, shares,
                np.array(counts))
