"""Binary masks and coarse-pruning strategies over integer keep counts.

A target density d over N prune-eligible weights is one global budget of
``keep_budget(d, N)`` kept weights. ``allocate_counts`` splits that budget
across layers and ``select_support`` turns each layer's count into a mask,
so every mask built here keeps exactly its budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .nn import Array, Network

MIN_KEPT_PER_LAYER = 10   # floor that keeps every pruned layer connected


def keep_budget(density: float, n: int) -> int:
    """floor(density * n), evaluated on the decimal the float was written as:
    ``keep_budget(0.29, 100)`` is 29, where float arithmetic gives 28."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    return math.floor(Fraction(repr(float(density))) * n)


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
    weight = {k: min(max(Fraction(shares[k]) * n, low[k]), n)
              for k, n in sizes.items()}
    ideal: dict[str, Fraction] = {}
    free = list(sizes)
    while free:
        scale = (Fraction(budget - sum(ideal.values()))
                 / sum(weight[k] for k in free))
        part = {k: min(max(scale * weight[k], low[k]), sizes[k]) for k in free}
        # weights lie within the bounds, so all crossings are on one side
        # (scale < 1 or scale > 1) and stay pinned in the exact solution
        pinned = {k: v for k, v in part.items() if v != scale * weight[k]}
        ideal.update(pinned or part)
        free = [k for k in free if k not in ideal]
    counts = {k: math.floor(ideal[k]) for k in sizes}
    by_remainder = sorted(sizes, key=lambda k: counts[k] - ideal[k])
    for k in by_remainder[:budget - sum(counts.values())]:
        counts[k] += 1
    return counts


def select_support(scores: Array, count: int) -> Array:
    """uint8 mask of the ``count`` highest scores; ties keep the lower flat
    index."""
    flat = np.asarray(scores).reshape(-1)
    if not 0 <= count <= flat.size:
        raise ValueError(f"cannot keep {count} of {flat.size} entries")
    mask = np.zeros(flat.size, dtype=np.uint8)
    mask[np.argsort(-flat, kind="stable")[:count]] = 1
    return mask.reshape(np.shape(scores))


@dataclass
class Mask:
    """Binary indicators over the prune-eligible parameter tensors."""

    slices: dict[str, Array]

    def __post_init__(self):
        for key, m in self.slices.items():
            m = np.asarray(m, dtype=np.uint8)
            if not np.all((m == 0) | (m == 1)):
                raise ValueError(f"mask entries for {key} must be 0 or 1")
            self.slices[key] = m

    def nonzeros(self) -> dict[str, int]:
        return {k: int(m.sum()) for k, m in self.slices.items()}

    def counts(self) -> tuple[int, int]:
        kept = sum(int(m.sum()) for m in self.slices.values())
        total = sum(m.size for m in self.slices.values())
        return kept, total

    def density(self) -> float:
        kept, total = self.counts()
        return kept / total if total else 1.0

    def copy(self) -> "Mask":
        return Mask({k: m.copy() for k, m in self.slices.items()})


@dataclass
class Candidate:
    """One coarse-pruned model: the drawn per-layer densities (shares of the
    budget) plus the mask they produced."""

    id: int
    layer_densities: dict[str, float]
    mask: Mask


def apply_mask(net: Network, mask: Mask) -> Network:
    """Clone the network with masked-out weights set to exactly zero."""
    out = net.clone()
    params = out.params()
    for key, m in mask.slices.items():
        params[key][m == 0] = 0.0
    return out


def _prunable(net: Network) -> dict[str, Array]:
    params = net.params()
    keys = net.prunable_keys()
    if not keys:
        raise ValueError("network has no prunable tensors")
    return {k: params[k] for k in keys}


def _uniform_counts(weights: dict[str, Array],
                    d_target: float) -> dict[str, int]:
    sizes = {k: w.size for k, w in weights.items()}
    return allocate_counts({k: d_target for k in sizes}, sizes,
                           keep_budget(d_target, sum(sizes.values())))


def magnitude_mask(net: Network, d_target: float) -> Mask:
    """One-shot server-side mask at uniform per-layer density that keeps the
    largest-magnitude weights of each layer."""
    weights = _prunable(net)
    counts = _uniform_counts(weights, d_target)
    return Mask({k: select_support(np.abs(w), counts[k])
                 for k, w in weights.items()})


def random_mask(net: Network, d_target: float, seed: int = 0) -> Mask:
    """Uniformly random support at uniform per-layer density."""
    weights = _prunable(net)
    counts = _uniform_counts(weights, d_target)
    rng = np.random.default_rng(seed)
    return Mask({k: select_support(rng.random(w.shape), counts[k])
                 for k, w in weights.items()})


def generate_candidate_pool(net: Network, d_target: float, count: int,
                            noise: float = 0.5,
                            seed: int = 0) -> list[Candidate]:
    """Uniform-noise candidate pool: per-layer densities d_target + e with
    e ~ U[-noise * d_target, +noise * d_target], one draw per candidate, as
    shares of the global keep budget; each layer keeps its largest-magnitude
    weights."""
    if count < 1:
        raise ValueError("pool size must be at least 1")
    if noise < 0.0:
        raise ValueError("noise scale must be nonnegative")
    magnitudes = {k: np.abs(w) for k, w in _prunable(net).items()}
    sizes = {k: m.size for k, m in magnitudes.items()}
    budget = keep_budget(d_target, sum(sizes.values()))

    pool = []
    for cid in range(count):
        rng = np.random.default_rng(np.random.SeedSequence((seed, cid)))
        e = rng.uniform(-noise * d_target, noise * d_target, size=len(sizes))
        shares = {k: float(d_target + e[i]) for i, k in enumerate(sizes)}
        counts = allocate_counts(shares, sizes, budget)
        mask = Mask({k: select_support(m, counts[k])
                     for k, m in magnitudes.items()})
        pool.append(Candidate(cid, shares, mask))
    return pool
