"""Storage, memory-footprint, and training-FLOPs accounting.

Sparse position encodings are selected by density band:

    dense   d in [0.9, 1]     s = n*b
    bitmap  d in [0.3, 0.9)   o = n,                              s = o + m*b
    coo     d in [0.1, 0.3)   o = m*ceil(log2 n),                 s = o + m*b
    csr/csc d in [0, 0.1)     o = m*ceil(log2 n_c) + n_r*ceil(log2 m),
                              s = o + m*b   (cheaper orientation wins)

All storage is tracked in bits internally; reports expose bytes (bits / 8)
and MB (1e6 bytes). ceil(log2 m) follows the convention that m <= 1 costs 0
bits, so an empty tensor costs exactly its fixed index structure.
"""

from __future__ import annotations

from .masking import Mask
from .nn import Network

SCHEME_DENSE = "dense"
SCHEME_BITMAP = "bitmap"
SCHEME_COO = "coo"
SCHEME_CSR = "csr"

ALG_DENSE = "dense"              # dense training end to end
ALG_STATIC_SPARSE = "static_sparse"  # fixed sparse model
ALG_DENSE_SCORES = "prunefl"     # sparse model, dense importance scores
ALG_PROGRESSIVE = "fedtiny"      # sparse model, bounded top-k adjustment

ALGORITHM_TAGS = (ALG_DENSE, ALG_STATIC_SPARSE, ALG_DENSE_SCORES,
                  ALG_PROGRESSIVE)


def ceil_log2(x: int) -> int:
    """Smallest k with 2**k >= x; zero for x <= 1."""
    return 0 if x <= 1 else int(x - 1).bit_length()


def choose_scheme(d: float) -> str:
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {d}")
    if d >= 0.9:
        return SCHEME_DENSE
    if d >= 0.3:
        return SCHEME_BITMAP
    if d >= 0.1:
        return SCHEME_COO
    return SCHEME_CSR


def storage_bits(n: int, n_r: int, n_c: int, m: int,
                 b: int) -> tuple[str, int]:
    """Scheme and bits to store m nonzeros of an n-element (n_r x n_c)
    tensor at value bit-width b, under the scheme its density selects."""
    if m > n or n != n_r * n_c:
        raise ValueError("need m <= n and n == n_r * n_c")
    if b < 1:
        raise ValueError("bit width must be at least 1")
    scheme = choose_scheme(m / n)
    if scheme == SCHEME_DENSE:
        return scheme, n * b
    if scheme == SCHEME_BITMAP:
        o = n
    elif scheme == SCHEME_COO:
        o = m * ceil_log2(n)
    else:
        o_csr = m * ceil_log2(n_c) + n_r * ceil_log2(m)
        o_csc = m * ceil_log2(n_r) + n_c * ceil_log2(m)
        o = min(o_csr, o_csc)
    return scheme, o + m * b


def model_storage(net: Network, mask: Mask | None = None,
                  bits: int = 32) -> dict:
    """The storage record of ``fedprune cost``: per-tensor scheme selection
    over every parameter tensor; tensors without a mask slice are dense."""
    kept = mask.nonzeros() if mask is not None else {}
    tensors = {}
    for key, p in net.params().items():
        # every parameter is 1-D or 2-D; csr/csc is symmetric in the extents
        n_r, n_c = p.shape if p.ndim == 2 else (1, p.size)
        scheme, b = storage_bits(p.size, n_r, n_c, kept.get(key, p.size), bits)
        tensors[key] = {"scheme": scheme, "bits": b, "bytes": b / 8.0}
    total = sum(t["bits"] for t in tensors.values())
    return {"bits": total, "bytes": total / 8.0, "mb": total / 8.0 / 1e6,
            "tensors": tensors}


def dense_param_bytes(net: Network, bits: int = 32) -> float:
    return net.flat.size * bits / 8.0


# ---------------------------------------------------------------------------
# FLOPs
# ---------------------------------------------------------------------------

def forward_flops(net: Network, mask: Mask | None = None,
                  batch: int = 1) -> float:
    """One forward pass: 2 * nonzero-weights * batch per linear layer plus
    batch * width per activation; batch normalization and the loss cost 0."""
    if batch < 1:
        raise ValueError("batch size must be at least 1")
    kept = mask.nonzeros() if mask is not None else {}
    total = 0.0
    for i, (layer, width) in enumerate(zip(net.layers, _widths(net))):
        if layer.kind == "linear":
            total += 2.0 * kept.get(f"{i}.weight", layer.weight.size) * batch
        elif layer.kind == "relu":
            total += float(batch * width)
    return total


def _widths(net: Network) -> list[int]:
    """Output width of every layer, from one forward walk."""
    widths, width = [], net.input_dim
    for layer in net.layers:
        if layer.kind == "linear":
            width = layer.weight.shape[1]
        widths.append(width)
    return widths


def collection_pass_flops(net: Network, mask: Mask | None,
                          targeted: list[str], batch: int) -> float:
    """FLOPs of the extra gradient-collection pass on a pruning round: one
    sparse forward, activation-gradient propagation back to the earliest
    targeted layer, and a dense weight-gradient for each targeted layer."""
    if not targeted:
        return 0.0
    kept = mask.nonzeros() if mask is not None else {}
    targeted_ix = sorted(net.layer_of_key(k) for k in targeted)
    earliest = targeted_ix[0]
    total = forward_flops(net, mask, batch)
    widths = _widths(net)
    for i in range(len(net.layers) - 1, earliest - 1, -1):
        layer = net.layers[i]
        if layer.kind == "linear":
            if i in targeted_ix:
                total += 2.0 * layer.weight.size * batch  # dense dW
            if i > earliest:  # input-gradient propagation
                m = kept.get(f"{i}.weight", layer.weight.size)
                total += 2.0 * m * batch
        elif layer.kind == "relu" and i > earliest:
            total += float(batch * widths[i])
    return total


def round_peak_flops(algorithm: str, dense_forward: float,
                     sparse_forward: float, local_iters: int,
                     extra: float = 0.0) -> float:
    """Per-round peak training FLOPs on one client, with backward costed at
    twice the forward pass:

        dense          3 * F_d * E
        static_sparse  3 * F_s * E
        prunefl        (2 * F_s + F_d) * E
        fedtiny        3 * F_s * E + X   (X = measured collection-pass cost)
    """
    if min(dense_forward, sparse_forward, local_iters, extra) < 0:
        raise ValueError("inputs must be nonnegative")
    if algorithm == ALG_DENSE:
        return 3.0 * dense_forward * local_iters
    if algorithm == ALG_STATIC_SPARSE:
        return 3.0 * sparse_forward * local_iters
    if algorithm == ALG_DENSE_SCORES:
        return (2.0 * sparse_forward + dense_forward) * local_iters
    if algorithm == ALG_PROGRESSIVE:
        return 3.0 * sparse_forward * local_iters + extra
    raise ValueError(f"unknown algorithm tag {algorithm!r}")


# ---------------------------------------------------------------------------
# Training memory
# ---------------------------------------------------------------------------

def activation_bytes(net: Network, batch: int, bits: int = 32) -> float:
    """Bytes held by the activations of one forward pass (input included);
    gradient-of-activation memory is taken equal to this."""
    if batch < 1:
        raise ValueError("batch size must be at least 1")
    return (net.input_dim + sum(_widths(net))) * batch * bits / 8.0


def training_memory(algorithm: str, param_dense: float, param_sparse: float,
                    activations: float, bits: int = 32,
                    topk_total: int = 0) -> float:
    """Training footprint in bytes per algorithm family:

        dense          2*Mp_d + 2*Ma
        static_sparse  2*Mp_s + 2*Ma
        prunefl        Mp_d + Mp_s + 2*Ma
        fedtiny        2*Mp_s + 2*Ma + 3*(b/8)*sum_l a_l, with a device-side
                       buffer of a_l entries per targeted layer l
    """
    if min(param_dense, param_sparse, activations, topk_total) < 0:
        raise ValueError("inputs must be nonnegative")
    if algorithm == ALG_DENSE:
        return 2.0 * param_dense + 2.0 * activations
    if algorithm == ALG_STATIC_SPARSE:
        return 2.0 * param_sparse + 2.0 * activations
    if algorithm == ALG_DENSE_SCORES:
        return param_dense + param_sparse + 2.0 * activations
    if algorithm == ALG_PROGRESSIVE:
        return (2.0 * param_sparse + 2.0 * activations
                + 3.0 * (bits / 8.0) * topk_total)
    raise ValueError(f"unknown algorithm tag {algorithm!r}")
