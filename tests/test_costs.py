import json
import math

import numpy as np
import pytest

from fedprune.costs import (
    ALG_DENSE,
    ALG_DENSE_SCORES,
    ALG_PROGRESSIVE,
    ALG_STATIC_SPARSE,
    FlopsReport,
    activation_bytes,
    ceil_log2,
    choose_scheme,
    collection_pass_flops,
    dense_param_bytes,
    forward_flops,
    measure_activation_bytes,
    model_storage,
    reports_to_json,
    round_peak_flops,
    storage_bits,
    training_memory,
)
from fedprune.masking import Mask, random_mask
from fedprune.nn import Linear, Network, ReLU, make_mlp


# -- independent transcription of the storage formulas (oracle) ---------------

def oracle_log2ceil(x):
    if x <= 1:
        return 0
    k = 0
    while 2 ** k < x:
        k += 1
    return k


def oracle_storage(n, n_r, n_c, m, b):
    d = m / n
    if 0.9 <= d <= 1.0:
        return n * b
    if 0.3 <= d < 0.9:
        return n + m * b
    if 0.1 <= d < 0.3:
        return m * oracle_log2ceil(n) + m * b
    csr = m * oracle_log2ceil(n_c) + n_r * oracle_log2ceil(m)
    csc = m * oracle_log2ceil(n_r) + n_c * oracle_log2ceil(m)
    return min(csr, csc) + m * b


# -- scheme bands --------------------------------------------------------------

def test_scheme_band_readoff():
    assert choose_scheme(0.95) == "dense"
    assert choose_scheme(0.3) == "bitmap"
    assert choose_scheme(0.05) == "csr"


def test_scheme_band_boundaries_and_totality():
    assert choose_scheme(1.0) == "dense"
    assert choose_scheme(0.9) == "dense"
    assert choose_scheme(0.899999) == "bitmap"
    assert choose_scheme(0.1) == "coo"
    assert choose_scheme(0.099999) == "csr"
    assert choose_scheme(0.0) == "csr"
    for d in np.linspace(0, 1, 1001):
        assert choose_scheme(float(d)) in {"dense", "bitmap", "coo", "csr"}


# -- storage_bits ----------------------------------------------------------------

def test_storage_worked_values():
    # bitmap: 100 + 50*32 = 1700
    assert storage_bits(100, 10, 10, 50, 32).total_bits == 1700
    # coo: 20*7 + 20*32 = 780
    entry = storage_bits(100, 10, 10, 20, 32)
    assert entry.position_bits == 140 and entry.total_bits == 780
    # csr: 5*4 + 10*3 + 5*32 = 210
    entry = storage_bits(100, 10, 10, 5, 32)
    assert entry.position_bits == 50 and entry.total_bits == 210


def test_storage_empty_tensor_costs_index_structure_minimum():
    entry = storage_bits(100, 10, 10, 0, 32)
    assert entry.scheme == "csr"
    assert entry.total_bits == 0  # ceil(log2 m) = 0 for m <= 1


def test_storage_matches_transcription_oracle():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n_r = int(rng.integers(1, 200))
        n_c = int(rng.integers(1, 200))
        n = n_r * n_c
        m = int(rng.integers(0, n + 1))
        b = int(rng.integers(1, 65))
        assert storage_bits(n, n_r, n_c, m, b).total_bits == \
            oracle_storage(n, n_r, n_c, m, b)


def test_ceil_log2():
    assert [ceil_log2(x) for x in (0, 1, 2, 3, 4, 5, 100, 1024)] == \
        [0, 0, 1, 2, 2, 3, 7, 10]


def test_storage_validation():
    with pytest.raises(ValueError):
        storage_bits(10, 2, 4, 1, 32)
    with pytest.raises(ValueError):
        storage_bits(8, 2, 4, 9, 32)


# -- model_storage ----------------------------------------------------------------

def test_dense_model_storage_is_param_count_times_width():
    net = make_mlp(6, [10, 10], 4, seed=0)
    report = model_storage(net, None, bits=32)
    n_params = sum(p.size for p in net.params().values())
    assert report.total_bits == n_params * 32
    assert report.total_bytes == dense_param_bytes(net, 32)


def test_model_storage_additivity_and_bands():
    net = make_mlp(6, [40, 40, 40], 4, seed=1)
    mask = random_mask(net, 0.05, seed=2)
    report = model_storage(net, mask, bits=32)
    assert report.total_bits == sum(e.total_bits
                                    for e in report.entries.values())
    for key in mask.slices:
        assert report.entries[key].scheme == "csr"
    # unmasked tensors stay dense
    bias_keys = [k for k in report.entries if k.endswith(".bias")]
    assert all(report.entries[k].scheme == "dense" for k in bias_keys)


def test_model_storage_empty_mask_slice():
    net = make_mlp(4, [12, 12, 12], 3, seed=0)
    key = net.prunable_keys()[0]
    mask = Mask({key: np.zeros_like(net.params()[key], dtype=np.uint8)})
    report = model_storage(net, mask, bits=32)
    assert report.entries[key].total_bits == 0


# -- forward_flops ----------------------------------------------------------------

def test_forward_flops_dense_linear_plus_activation():
    net = Network([Linear(np.zeros((10, 10)), np.zeros(10)), ReLU()])
    assert forward_flops(net, None, batch=1) == 200 + 10


def test_forward_flops_half_masked():
    net = Network([Linear(np.zeros((10, 10)), np.zeros(10)), ReLU()])
    m = np.zeros(100, dtype=np.uint8)
    m[:50] = 1
    assert forward_flops(net, {"0.weight": m.reshape(10, 10)}, batch=1) == 110


def test_forward_flops_linearity():
    net = make_mlp(8, [16, 16], 4, seed=0)
    f1 = forward_flops(net, None, batch=1)
    assert forward_flops(net, None, batch=7) == 7 * f1
    mask = random_mask(net, 0.5, seed=1)
    key = net.prunable_keys()[0]
    full = forward_flops(net, None, batch=3)
    sparse = forward_flops(net, mask, batch=3)
    dropped = sum(int((mask.slices[k] == 0).sum()) for k in mask.slices)
    assert full - sparse == 2 * 3 * dropped


# -- round_peak_flops ----------------------------------------------------------------

def test_peak_flops_closed_forms():
    assert round_peak_flops(ALG_DENSE, 100, 10, 5) == 1500
    assert round_peak_flops(ALG_STATIC_SPARSE, 100, 10, 5) == 150
    assert round_peak_flops(ALG_DENSE_SCORES, 100, 10, 5) == 600
    assert round_peak_flops(ALG_PROGRESSIVE, 100, 10, 5, extra=0.4 * 100) == 190


def test_peak_flops_unknown_tag():
    with pytest.raises(ValueError):
        round_peak_flops("mystery", 1, 1, 1)


def test_collection_pass_cost_bounded_by_dense_forward():
    # the measured extra pruning-round cost stays within one dense forward
    net = make_mlp(16, [64, 64, 64], 10, n_blocks=5, seed=0)
    mask = random_mask(net, 0.05, seed=1)
    f_d = forward_flops(net, None, batch=64)
    for key in net.prunable_keys():
        x = collection_pass_flops(net, mask, [key], batch=64)
        assert 0 < x <= f_d
    # a larger target set costs more, never less
    x_all = collection_pass_flops(net, mask, list(net.prunable_keys()), 64)
    assert x_all >= max(collection_pass_flops(net, mask, [k], 64)
                        for k in net.prunable_keys())


def test_collection_pass_empty_targets():
    net = make_mlp(4, [8, 8, 8], 3, seed=0)
    assert collection_pass_flops(net, None, [], 16) == 0.0


# -- training_memory ----------------------------------------------------------------

def test_memory_closed_forms():
    assert training_memory(ALG_DENSE, 40, 4, 10).total == 100
    assert training_memory(ALG_STATIC_SPARSE, 40, 4, 10).total == 28
    assert training_memory(ALG_DENSE_SCORES, 40, 4, 10).total == 64
    report = training_memory(ALG_PROGRESSIVE, 40, 4, 10, bits=32,
                             topk_total=100)
    assert report.total == 8 + 20 + 3 * 4 * 100


def test_memory_unknown_tag():
    with pytest.raises(ValueError):
        training_memory("mystery", 1, 1, 1)


def test_activation_bytes_measured_max():
    net = make_mlp(4, [8], 3, seed=0)
    per_sample = activation_bytes(net, 1, bits=32)
    assert measure_activation_bytes(net, [2, 5, 3], bits=32) == 5 * per_sample


# -- serialization ----------------------------------------------------------------

def test_reports_round_trip_json():
    net = make_mlp(4, [8, 8, 8], 3, seed=0)
    mask = random_mask(net, 0.2, seed=0)
    storage = model_storage(net, mask, 32)
    memory = [training_memory(ALG_STATIC_SPARSE, 100, 10, 5)]
    flops = [FlopsReport(ALG_STATIC_SPARSE, 100, 10, 5,
                         round_peak_flops(ALG_STATIC_SPARSE, 100, 10, 5))]
    blob = reports_to_json(storage, memory, flops)
    parsed = json.loads(blob)
    assert parsed["storage"]["bits"] == storage.total_bits
    assert parsed["memory"][0]["memory_total"] == memory[0].total
    assert parsed["flops"][0]["flops_peak"] == flops[0].peak
    for record in parsed["storage"]["tensors"].values():
        assert set(record) == {"scheme", "bits", "bytes"}
