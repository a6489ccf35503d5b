"""Golden outputs of the six algorithms on the CI smoke config.

    PYTHONPATH=src python scripts/golden.py --write   # regenerate the files
    PYTHONPATH=src python scripts/golden.py --check   # exit 1 on a difference

The smoke config is the defaults with ``rounds = 2``, ``pool_size = 11``,
``interval = 1`` and ``granularity = entire``: two pruning rounds, and a
pool that spans two selection chunks. ``tests/golden/<algorithm>.json``
holds what one run of that config writes: every round's ``metrics.jsonl``
record but its wall time (the ``metrics.csv`` columns among them), the
selection winner, margin and per-candidate dev losses, and the final mask's
kept count per tensor. Beside them it records the writer's environment and
the SHA-256 of each artifact, which ``--check`` reports but never compares:
another CPU or BLAS may round a dot product differently.

``compare`` is what ``tests/test_golden.py`` checks: keys, integers,
strings and winners exactly, floats to ``REL_TOL``. A change that moves the
files says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from fedprune.sim import ALGORITHMS, ExperimentConfig, load_checkpoint, \
    run_experiment

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
SMOKE = {"rounds": 2, "pool_size": 11, "interval": 1, "granularity": "entire"}
# floats agree to this relative tolerance, or to ABS_TOL near zero (a
# selection margin is the difference of two losses of about 2)
REL_TOL, ABS_TOL = 1e-9, 1e-12
INFO = ("environment", "sha256")  # recorded, never compared


def record(algorithm: str, run_dir: Path) -> dict:
    """The golden record of a smoke run of ``algorithm`` in ``run_dir``."""
    run_experiment(ExperimentConfig(algorithm=algorithm, **SMOKE), run_dir)
    rounds = [json.loads(line) for line in
              (run_dir / "metrics.jsonl").read_text(encoding="utf-8").splitlines()]
    for r in rounds:
        del r["wall_time"]
    selection = None
    if (run_dir / "selection.json").exists():
        sel = json.loads((run_dir / "selection.json").read_text(encoding="utf-8"))
        selection = {"method": sel["method"], "winner": sel["winner"],
                     "margin": sel["margin"],
                     "dev_loss": [c["dev_loss"] for c in sel["candidates"]]}
    _, mask, _ = load_checkpoint(run_dir / "final.ckpt")
    kept = (None if mask is None else
            {key: int(sl.sum()) for key, sl in mask.slices.items()})
    artifacts = sorted(p.name for p in run_dir.iterdir()
                       if p.name != "metrics.jsonl")  # it holds wall times
    return {
        "algorithm": algorithm,
        "config": SMOKE,
        "rounds": rounds,
        "selection": selection,
        "final_mask_kept": kept,
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__,
                        "machine": platform.machine()},
        "sha256": {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                   for name in artifacts},
    }


def compare(want, got, path: str = "") -> list[str]:
    """Every difference between two golden records, one line each."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{path}: keys {sorted(want)} != {sorted(got)}"]
        return [line for key in want if not (path == "" and key in INFO)
                for line in compare(want[key], got[key], f"{path}/{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: {len(want)} entries != {len(got)}"]
        return [line for i, (a, b) in enumerate(zip(want, got))
                for line in compare(a, b, f"{path}/{i}")]
    if type(want) is not type(got):
        return [f"{path}: {want!r} != {got!r}"]
    if isinstance(want, float):
        if not math.isclose(want, got, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return [f"{path}: {want!r} != {got!r}"]
        return []
    return [] if want == got else [f"{path}: {want!r} != {got!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for algorithm in ALGORITHMS:
            got = record(algorithm, Path(tmp) / algorithm)
            path = GOLDEN / f"{algorithm}.json"
            if args.write:
                GOLDEN.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
                print(f"wrote {path}")
                continue
            want = json.loads(path.read_text(encoding="utf-8"))
            diffs = compare(want, got)
            failed |= bool(diffs)
            for line in diffs:
                print(f"{algorithm}{line}")
            same = [name for name, digest in got["sha256"].items()
                    if want["sha256"].get(name) == digest]
            print(f"{algorithm}: {len(diffs)} differences; artifact bytes "
                  f"equal for {', '.join(same) or 'none'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
