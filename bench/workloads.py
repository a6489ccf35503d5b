"""Benchmark workloads: named config overrides on top of the
``ExperimentConfig`` defaults, each loading one costly pipeline stage.

The workload seed becomes the experiment seed; everything else an
experiment uses (data, partition, pool, batch order) is derived from it by
the simulator itself.
"""

from __future__ import annotations

WORKLOADS = {
    # the paper's default FedTiny; 30 rounds cover pruning rounds 10, 20, 30
    "fedtiny_default": {"rounds": 30},
    "select_heavy": {"density": 0.01, "pool_size": 100, "dev_ratio": 0.5,
                     "local_epochs": 1, "rounds": 5},
    "prune_heavy": {"hidden": (128, 128, 128), "granularity": "entire",
                    "interval": 1, "stop_round": 100, "local_epochs": 1,
                    "clients": 20, "alpha": 0.1, "client_fraction": 0.5,
                    "rounds": 8},
}


def make_config(name: str, seed: int):
    """The experiment config of one workload at one seed."""
    from fedprune.sim import ExperimentConfig

    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose one of {', '.join(WORKLOADS)}")
    return ExperimentConfig(**WORKLOADS[name], seed=seed)
