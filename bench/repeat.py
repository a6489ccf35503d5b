"""One repeat of one benchmark workload, in a fresh process.

Runs the workload the way ``fedprune run`` does (config file, then
``cli.main`` with an output directory, so metrics and checkpoint writing are
part of the measured run), checks the run's outputs, and writes a JSON
result. The parent harness (``run.py``) starts one process per repeat, so
every repeat reports the peak resident set of a fresh process.

    python3 bench/repeat.py --workload NAME --seed N --trace 0|1 \\
        --out DIR --result FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fedprune import cli, sim  # noqa: E402
from fedprune.sim import CSV_COLUMNS, PROGRESSIVE_ALGS  # noqa: E402

from tracer import ROUND, SETUP, Tracer, summarize  # noqa: E402
from workloads import make_config  # noqa: E402


def environment() -> dict:
    """What produced the numbers: interpreter, numpy, BLAS, CPUs, source."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            git_rev = rev.stdout.strip() if rev.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fedprune").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not OpenBLAS."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def host_probe() -> tuple[float, float]:
    """Time of a fixed pure-Python loop that shares no code with fedprune,
    and the probe's own wall time.

    Other tenants of a shared host slow this process by up to 2x for seconds
    to minutes at a time; the probe, taken between the phases of a run, reads
    how fast the host runs now. It is the fastest of three short loops, so a
    single preemption does not count as a slow host.
    """
    start = time.perf_counter()
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return best, time.perf_counter() - start


def check_run(cfg, run_dir: Path, mask_counts: list) -> list[str]:
    """Correctness of one finished run, from its artifacts and the integer
    ``(kept, total)`` mask counts observed after each round. Returns the
    failed checks."""
    errors = []
    for name in ("manifest.json", "metrics.csv", "metrics.jsonl",
                 "final.ckpt"):
        if not (run_dir / name).is_file():
            errors.append(f"missing artifact {name}")
    if errors:
        return errors
    lines = (run_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in
               (run_dir / "metrics.jsonl").read_text(encoding="utf-8")
               .splitlines()]
    if lines[0] != ",".join(CSV_COLUMNS):
        errors.append("metrics.csv header differs from CSV_COLUMNS")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != cfg.rounds or len(records) != cfg.rounds:
        return errors + [f"expected {cfg.rounds} rounds, got {len(rows)} "
                         f"csv rows and {len(records)} jsonl records"]
    if len(mask_counts) != cfg.rounds:
        return errors + [f"observed {len(mask_counts)} rounds, "
                         f"not {cfg.rounds}"]
    for r, (row, rec, (kept, total)) in enumerate(
            zip(rows, records, mask_counts), start=1):
        if int(row[0]) != r or rec["round"] != r:
            errors.append(f"round {r}: rows out of order")
        loss, density = float(row[2]), float(row[3])
        if not (math.isfinite(loss) and math.isfinite(rec["loss"])):
            errors.append(f"round {r}: loss is not finite")
        if not 0.0 <= float(row[1]) <= 1.0:
            errors.append(f"round {r}: accuracy outside [0, 1]")
        if rec["grow_count"] != rec["drop_count"]:
            errors.append(f"round {r}: grew {rec['grow_count']} but dropped "
                          f"{rec['drop_count']}")
        if rec["buffer_violations"] != 0:
            errors.append(f"round {r}: {rec['buffer_violations']} top-K "
                          "buffer violations")
        budget = math.floor(Fraction(repr(cfg.density)) * total)
        if kept > budget:
            errors.append(f"round {r}: {kept} of {total} weights kept, "
                          f"budget is {budget}")
        if density != kept / total:
            errors.append(f"round {r}: csv density {density!r} is not "
                          f"{kept}/{total}")
    _, mask, _ = sim.load_checkpoint(run_dir / "final.ckpt")
    final = mask.counts()
    if final != mask_counts[-1]:
        errors.append(f"checkpoint mask counts {final} differ from the last "
                      f"round's {mask_counts[-1]}")
    return errors


def effective_prune_ratio(cfg, run_dir: Path) -> float:
    """Scheduled pruning rounds that grew at least one coordinate, over the
    scheduled pruning rounds (0 when none is scheduled)."""
    if cfg.algorithm not in PROGRESSIVE_ALGS:
        return 0.0
    records = [json.loads(line) for line in
               (run_dir / "metrics.jsonl").read_text(encoding="utf-8")
               .splitlines()]
    scheduled = [rec for rec in records
                 if rec["round"] % cfg.interval == 0
                 and rec["round"] <= cfg.stop_round]
    grew = sum(1 for rec in scheduled if rec["grow_count"] > 0)
    return grew / len(scheduled) if scheduled else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()

    cfg = make_config(args.workload, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ini = out / "config.ini"
    ini.write_text(cli.serialize_config(cfg), encoding="utf-8")
    if cli.parse_config(ini) != cfg:
        raise SystemExit("config file does not round-trip the workload")

    tracer = Tracer(full=bool(args.trace))
    tracer.install()
    # integer mask counts after every round, taken outside the round's span
    mask_counts: list = []
    timed_round = sim.run_round
    # host probes before setup and after setup and every round, outside
    # their spans: phase i (setup, then the rounds) lies between probes i
    # and i + 1
    probes: list = []
    probe_wall = 0.0
    timed_setup = sim.setup_experiment

    def probe():
        nonlocal probe_wall
        best, wall = host_probe()
        probes.append(best)
        probe_wall += wall

    def probed_setup(*args, **kwargs):
        probe()
        state = timed_setup(*args, **kwargs)
        probe()
        return state

    def counted_round(state, round_index):
        result = timed_round(state, round_index)
        mask_counts.append(state.mask.counts())
        probe()
        return result

    sim.setup_experiment = probed_setup
    sim.run_round = counted_round
    t0 = time.perf_counter()
    status = cli.main(["run", "--config", str(ini), "--out", str(out)])
    # wall time of the run without the probes taken inside it
    run_s = time.perf_counter() - t0 - probe_wall
    sim.setup_experiment = timed_setup
    sim.run_round = timed_round
    tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run_dir = out / cli.run_id(cfg)
    if status != 0:
        errors = [f"fedprune run exited with {status}"]
    else:
        errors = check_run(cfg, run_dir, mask_counts)

    result = {
        "errors": errors,
        "run_s": run_s,
        "probe_s": probes,
        "setup_s": [s[2] - s[1] for s in tracer.spans
                    if s[0] == SETUP],
        "round_s": [s[2] - s[1] for s in tracer.spans
                    if s[0] == ROUND],
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
    }
    if not errors:
        csv_bytes = (run_dir / "metrics.csv").read_bytes()
        last = csv_bytes.decode("utf-8").splitlines()[-1].split(",")
        result["final_accuracy"] = float(last[1])
        result["csv_sha256"] = hashlib.sha256(csv_bytes).hexdigest()
        result["counts"] = {
            "mask_counts_per_round": mask_counts,
            "progressive.effective_prune_ratio":
                effective_prune_ratio(cfg, run_dir),
        }
        result["timings"] = {}
        if args.trace:
            counts, timings = summarize(tracer, run_s)
            result["counts"].update(counts)
            result["timings"] = timings
            if args.spans:
                tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
