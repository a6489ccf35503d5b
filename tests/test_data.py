import tracemalloc

import numpy as np
import pytest

from fedprune import data
from fedprune.data import (
    Dataset,
    dev_indices,
    dirichlet_partition,
    floor_share,
    load_csv,
    make_blobs,
    split_indices,
    split_sizes,
)
from fedprune.masking import keep_budget


# -- make_blobs -------------------------------------------------------------

def test_blobs_construction():
    ds = make_blobs(2, 5, 3, 1.0, seed=0)
    assert len(ds) == 10 and ds.dim == 3 and ds.classes == 2
    assert (ds.labels == 0).sum() == 5 and (ds.labels == 1).sum() == 5


def test_blobs_deterministic():
    a = make_blobs(3, 4, 2, 0.5, seed=7)
    b = make_blobs(3, 4, 2, 0.5, seed=7)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_blobs_zero_spread_collapses_classes():
    ds = make_blobs(3, 4, 5, 0.0, seed=1)
    for c in range(3):
        rows = ds.features[ds.labels == c]
        assert np.all(rows == rows[0])


def _repeated_means_blobs(classes, per_class, dim, spread, seed):
    """The reference construction: repeated class means plus scaled noise,
    each a features-sized array of its own."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 1.0, size=(classes, dim))
    features = np.repeat(means, per_class, axis=0)
    return features + spread * rng.normal(size=features.shape)


@pytest.mark.parametrize("spread", [0.0, 1.0, 2.5])
def test_blobs_equal_the_repeated_means_construction_bit_for_bit(spread):
    for seed in range(5):
        ds = make_blobs(4, 7, 3, spread, seed=seed)
        want = _repeated_means_blobs(4, 7, 3, spread, seed)
        assert ds.features.shape == want.shape
        assert ds.features.tobytes() == want.tobytes()  # signs of zero too
        np.testing.assert_array_equal(ds.labels, np.repeat(np.arange(4), 7))


def test_blobs_peak_at_one_features_array():
    make_blobs(10, 500, 32, 1.0, seed=0)  # first-call imports untraced
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ds = make_blobs(10, 500, 32, 1.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 1.28 MB of features, 40 kB of labels; the reference construction
    # holds three features-sized arrays at once
    assert peak <= ds.features.nbytes + ds.labels.nbytes + 64 * 1024


# -- dirichlet_partition ------------------------------------------------------

def test_partition_is_complete_and_disjoint():
    ds = make_blobs(4, 50, 2, 1.0, seed=3)
    parts = dirichlet_partition(ds, 5, 0.5, seed=1)
    assert len(parts) == 5
    rows = np.concatenate([p.features for p in parts])
    key = np.lexsort(rows.T)
    base_key = np.lexsort(ds.features.T)
    np.testing.assert_array_equal(rows[key], ds.features[base_key])
    assert sum(len(p) for p in parts) == len(ds)
    assert all(len(p) >= 1 for p in parts)


def test_single_client_gets_everything():
    ds = make_blobs(2, 10, 2, 1.0, seed=0)
    (part,) = dirichlet_partition(ds, 1, 0.5, seed=0)
    np.testing.assert_array_equal(np.sort(part.labels), np.sort(ds.labels))


def test_partition_near_uniform_at_huge_alpha():
    # alpha -> inf limit: client label shares within 5% of the global shares
    for seed in range(10):
        ds = make_blobs(10, 1000, 2, 1.0, seed=seed)
        parts = dirichlet_partition(ds, 10, 1e6, seed=seed)
        for p in parts:
            shares = np.bincount(p.labels, minlength=10) / len(p)
            assert np.all(np.abs(shares - 0.1) < 0.05)


def _list_partition(ds, clients, alpha, seed):
    """The reference partition: Python lists per client, sorted at the end.
    Returns each client's indices and the number of draws it took."""
    rng = np.random.default_rng(seed)
    by_class = [np.flatnonzero(ds.labels == c) for c in range(ds.classes)]
    for draw in range(1, data.PARTITION_RETRIES + 1):
        assignment = [[] for _ in range(clients)]
        for idx_c in by_class:
            if len(idx_c) == 0:
                continue
            idx_c = rng.permutation(idx_c)
            p = rng.dirichlet(np.full(clients, alpha))
            counts = data._proportional_counts(p, len(idx_c))
            start = 0
            for client, take in enumerate(counts):
                assignment[client].extend(idx_c[start:start + take].tolist())
                start += take
        if all(len(a) > 0 for a in assignment):
            return [sorted(a) for a in assignment], draw
    raise ValueError("no draw")


def test_partition_matches_the_list_oracle_including_retried_draws():
    blobs = make_blobs(4, 30, 2, 1.0, seed=3)
    # class 2 has no sample: it takes no draw
    gap = Dataset(blobs.features[blobs.labels != 2],
                  blobs.labels[blobs.labels != 2], 4)
    draws = []
    for ds, clients, alpha in ((blobs, 5, 0.5), (blobs, 10, 0.1),
                               (gap, 3, 1.0), (gap, 9, 0.1), (blobs, 1, 0.5)):
        for seed in range(5):
            want, n_draws = _list_partition(ds, clients, alpha, seed)
            draws.append(n_draws)
            parts = dirichlet_partition(ds, clients, alpha, seed=seed)
            assert len(parts) == clients
            for part, idx in zip(parts, want):
                assert part.features.tobytes() == ds.features[idx].tobytes()
                np.testing.assert_array_equal(part.labels, ds.labels[idx])
    assert max(draws) > 1  # some case was redrawn
    # every draw leaves a client empty: both give up
    with pytest.raises(ValueError):
        _list_partition(gap, 12, 0.05, 0)
    with pytest.raises(ValueError, match="could not give every one of 12"):
        dirichlet_partition(gap, 12, 0.05, seed=0)


def test_partition_rejects_more_clients_than_samples():
    ds = make_blobs(2, 2, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        dirichlet_partition(ds, 5, 0.5, seed=0)
    for clients, alpha in ((0, 0.5), (2, 0.0)):
        with pytest.raises(ValueError):
            dirichlet_partition(ds, clients, alpha)


def test_heterogeneity_grows_as_alpha_shrinks():
    # average TV distance to the global label distribution: alpha=0.1 vs 10
    def mean_tv(alpha):
        total = 0.0
        runs = 0
        for seed in range(20):
            ds = make_blobs(5, 40, 2, 1.0, seed=seed)
            global_shares = np.bincount(ds.labels, minlength=5) / len(ds)
            for p in dirichlet_partition(ds, 4, alpha, seed=seed):
                shares = np.bincount(p.labels, minlength=5) / len(p)
                total += 0.5 * np.abs(shares - global_shares).sum()
                runs += 1
        return total / runs

    assert mean_tv(0.1) > mean_tv(10.0)


# -- dev splits --------------------------------------------------------------

def test_dev_split_full_ratio_returns_everything():
    ds = make_blobs(2, 5, 2, 1.0, seed=0)
    sub = ds.subset(dev_indices(len(ds), 1.0, seed=3))
    np.testing.assert_array_equal(sub.features, ds.features)


def test_dev_split_size_and_membership():
    ds = make_blobs(2, 50, 3, 1.0, seed=1)
    sub = ds.subset(dev_indices(len(ds), 0.1, seed=5))
    assert len(sub) == 10
    rows = {tuple(r) for r in ds.features}
    assert all(tuple(r) in rows for r in sub.features)


def test_a_subset_holds_the_selected_rows_and_shares_no_memory():
    ds = make_blobs(3, 10, 4, 1.0, seed=2)
    idx = [7, 0, 29, 7]
    sub = ds.subset(idx)
    np.testing.assert_array_equal(sub.features, ds.features[idx])
    np.testing.assert_array_equal(sub.labels, ds.labels[idx])
    assert sub.classes == ds.classes
    assert not np.shares_memory(sub.features, ds.features)
    assert not np.shares_memory(sub.labels, ds.labels)


def test_dev_split_seeds_differ_but_sizes_match():
    ds = make_blobs(2, 50, 3, 1.0, seed=1)
    a = ds.subset(dev_indices(len(ds), 0.2, seed=1))
    b = ds.subset(dev_indices(len(ds), 0.2, seed=2))
    assert len(a) == len(b) == 20
    assert not np.array_equal(a.features, b.features)


def test_split_indices_cover_everything():
    groups = split_indices(100, [0.2, 0.1], seed=4)
    assert len(groups) == 3
    assert len(groups[0]) == 20 and len(groups[1]) == 10 and len(groups[2]) == 70
    np.testing.assert_array_equal(np.sort(np.concatenate(groups)), np.arange(100))


def test_split_sizes_are_the_split_group_sizes():
    for n, fractions in ((100, [0.2, 0.1]), (5000, [0.2, 0.0001]),
                         (7, [0.5]), (10, []), (100, [0.29, 0.58])):
        groups = split_indices(n, fractions, seed=1)
        assert split_sizes(n, fractions) == [len(g) for g in groups]


def test_split_and_dev_sizes_floor_the_ratio_as_written():
    # float products give 28 and 57: 0.29 * 100 is 28.999999999999996
    assert split_sizes(100, [0.29, 0.58]) == [29, 58, 13]
    assert len(dev_indices(100, 0.29, seed=0)) == 29
    assert len(dev_indices(100, 0.58, seed=0)) == 58
    for ratio in (0.01, 0.07, 0.1, 0.2, 0.29, 0.5, 0.58, 1.0):
        for n in (1, 7, 100, 199, 5000):
            assert floor_share(ratio, n) == keep_budget(ratio, n)
            assert len(dev_indices(n, ratio)) == max(1, floor_share(ratio, n))


# -- load_csv ----------------------------------------------------------------

def test_csv_roundtrip(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
    ds = load_csv(path)
    assert len(ds) == 2 and ds.dim == 2 and ds.classes == 2
    np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])


def test_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_csv(empty)

    bad_label = tmp_path / "bad.csv"
    bad_label.write_text("1.0,-1\n")
    with pytest.raises(ValueError, match="line 1"):
        load_csv(bad_label)

    not_int = tmp_path / "notint.csv"
    not_int.write_text("1.0,0\n2.0,x\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(not_int)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0,0\n1.0,1\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(ragged)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_csv_rejects_non_finite_features(tmp_path, value):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"1.0,2.0,0\n1.0,{value},1\n")
    with pytest.raises(ValueError, match="line 2: non-finite feature value"):
        load_csv(path)


def test_csv_header_flag(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("a,b,label\n1.0,2.0,0\n")
    ds = load_csv(path, skip_header=True)
    assert len(ds) == 1


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)
