"""Dataset generation, Dirichlet non-iid partitioning, and CSV ingestion.

Every randomized operation here is a pure function of its inputs and seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .nn import Array

PARTITION_RETRIES = 100


@dataclass
class Dataset:
    features: Array  # (N, d) float64
    labels: Array    # (N,) int64
    classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features must be (N, d) with one label per row")
        if len(self.features) < 1:
            raise ValueError("dataset must contain at least one sample")
        if self.labels.min() < 0 or self.labels.max() >= self.classes:
            raise ValueError(f"labels must lie in [0, {self.classes})")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        # indexing with an array already returns new arrays
        return Dataset(self.features[idx], self.labels[idx], self.classes)


def make_blobs(classes: int, per_class: int, dim: int, spread: float,
               seed: int = 0) -> Dataset:
    """Gaussian class clusters: unit-normal class means, per-sample noise of
    scale ``spread``. ``spread=0`` collapses each class onto its mean."""
    if classes < 1 or per_class < 1 or dim < 1:
        raise ValueError("classes, per_class, and dim must be positive")
    if spread < 0:
        raise ValueError("spread must be nonnegative")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 1.0, size=(classes, dim))
    # one features-sized array: the noise, scaled, then shifted by its
    # class's mean (the bits of repeated means + spread * noise)
    features = rng.normal(size=(classes, per_class, dim))
    features *= spread
    features += means[:, None]
    labels = np.repeat(np.arange(classes), per_class)
    return Dataset(features.reshape(-1, dim), labels, classes)


def dirichlet_partition(ds: Dataset, clients: int, alpha: float,
                        seed: int = 0) -> list[Dataset]:
    """Split a dataset across clients with per-class Dirichlet proportions.

    Each class's samples are divided by a fresh Dir(alpha * 1_K) draw; the
    whole assignment is redrawn (up to PARTITION_RETRIES times) until every
    client holds at least one sample. Each client's rows keep their order
    in ``ds``.
    """
    if clients < 1:
        raise ValueError("client count must be at least 1")
    if alpha <= 0.0:
        raise ValueError("Dirichlet concentration must be positive")
    if clients > len(ds):
        raise ValueError(f"cannot split {len(ds)} samples across "
                         f"{clients} clients")
    rng = np.random.default_rng(seed)
    by_class = [np.flatnonzero(ds.labels == c) for c in range(ds.classes)]
    owner = np.empty(len(ds), dtype=np.int64)  # the client of each row
    for _ in range(PARTITION_RETRIES):
        for idx_c in by_class:
            if len(idx_c) == 0:
                continue
            idx_c = rng.permutation(idx_c)
            p = rng.dirichlet(np.full(clients, alpha))
            owner[idx_c] = np.repeat(np.arange(clients),
                                     _proportional_counts(p, len(idx_c)))
        sizes = np.bincount(owner, minlength=clients)
        if sizes.all():
            # a stable sort by owner keeps each client's rows ascending
            order = np.argsort(owner, kind="stable")
            return [ds.subset(idx)
                    for idx in np.split(order, np.cumsum(sizes)[:-1])]
    raise ValueError(
        f"could not give every one of {clients} clients a sample in "
        f"{PARTITION_RETRIES} draws; fewer clients or a larger dataset needed")


def _proportional_counts(p: Array, n: int) -> Array:
    """Integer counts summing to n, proportional to p, largest remainders
    rounded up first (ties to the lower index)."""
    raw = p * n
    counts = np.floor(raw).astype(np.int64)
    short = n - counts.sum()
    if short > 0:
        remainders = raw - counts
        order = np.argsort(-remainders, kind="stable")
        counts[order[:short]] += 1
    return counts


def floor_share(ratio: float, n: int) -> int:
    """floor(ratio * n), evaluated on the decimal the float was written as:
    ``floor_share(0.29, 100)`` is 29, where float arithmetic gives 28."""
    return math.floor(Fraction(repr(float(ratio))) * n)


def dev_indices(n: int, ratio: float, seed: int = 0) -> Array:
    """Sorted indices of a uniform subset of size
    max(1, ``floor_share(ratio, n)``)."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    size = max(1, floor_share(ratio, n))
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=size, replace=False))


def split_sizes(n: int, fractions: list[float]) -> list[int]:
    """Group sizes of ``split_indices``: ``floor_share(frac, n)`` per
    fraction, then the remainder."""
    sizes = [floor_share(frac, n) for frac in fractions]
    return sizes + [n - sum(sizes)]


def split_indices(n: int, fractions: list[float], seed: int) -> list[Array]:
    """Disjoint random index groups covering 0..n-1, sized by
    ``split_sizes``: one group per fraction plus a final remainder group."""
    perm = np.random.default_rng(seed).permutation(n)
    bounds = np.cumsum(split_sizes(n, fractions)[:-1])
    return [np.sort(group) for group in np.split(perm, bounds)]


def load_csv(path, skip_header: bool = False) -> Dataset:
    """Parse a comma-separated file: numeric feature columns, final integer
    label column. Class count is max label + 1."""
    features: list[list[float]] = []
    labels: list[int] = []
    width = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if skip_header and lineno == 1:
                continue
            if not row:
                continue
            if width is None:
                width = len(row)
                if width < 2:
                    raise ValueError(f"line {lineno}: need at least one "
                                     "feature column and a label column")
            if len(row) != width:
                raise ValueError(f"line {lineno}: expected {width} columns, "
                                 f"got {len(row)}")
            try:
                feats = [float(v) for v in row[:-1]]
            except ValueError:
                raise ValueError(f"line {lineno}: malformed numeric value")
            if not np.all(np.isfinite(feats)):
                raise ValueError(f"line {lineno}: non-finite feature value")
            try:
                label = int(row[-1])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer label {row[-1]!r}")
            if label < 0:
                raise ValueError(f"line {lineno}: negative label {label}")
            features.append(feats)
            labels.append(label)
    if not features:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.array(features), np.array(labels), max(labels) + 1)
