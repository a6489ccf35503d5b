"""fedprune benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repeats of the workload, each in a fresh process (``repeat.py``), for
about ``--seconds``: after a minimum number of repeats, it starts no repeat
that would end later than that. Every repeat is checked for correctness; a
repeat that fails a check does not contribute timings. With ``--trace 0`` the repeats are untraced and the
end-to-end metrics are reported; with ``--trace 1`` traced and untraced
repeats alternate and the per-layer metrics are reported. The metric names
and units are those declared in ``BENCHMARK.json``. The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A full record, with the
environment and exact counts, is written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

MIN_UNTRACED = 3
MIN_TRACED = 2
BLAS_THREADS = 1           # at most nproc; fixed so results do not depend on it
REPEAT_TIMEOUT_S = 150
BUDGET_S = 150             # start no repeat that would end after this
# ``repeat.host_probe`` on an unloaded core of the 2-core x86_64 host the
# benchmark was tuned on: the host speed the end-to-end times are scaled to
PROBE_REF_S = 1.3e-3


def run_repeat(workload: str, seed: int, traced: bool, index: int) -> dict:
    """Run one repeat in a fresh process and return its result record."""
    work = WORK / f"{workload}-s{seed}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    cmd = [sys.executable, str(BENCH / "repeat.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--out", str(work / "run"), "--result", str(result_path)]
    if traced:
        cmd += ["--spans", str(RESULTS / f"{workload}.spans.jsonl")]
    env = dict(os.environ)
    env.pop("FEDPRUNE_MAX_WORKERS", None)  # serial clients
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=REPEAT_TIMEOUT_S)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            record = {"errors": [f"repeat exited with {proc.returncode}: "
                                 f"{tail[0]}"]}
        else:
            record = json.loads(result_path.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        record = {"errors": [f"repeat took over {REPEAT_TIMEOUT_S} s"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["traced"] = traced
    return record


def cross_check(repeats: list[dict]) -> None:
    """Mark repeats whose metrics.csv or exact counts differ from the first
    correct repeat that reported them. Traced and untraced repeats of a seed
    must write the same metrics.csv."""
    first: dict = {}
    for rep in repeats:
        if rep["errors"]:
            continue
        for key, value in [("metrics.csv", rep["csv_sha256"]),
                           *rep["counts"].items()]:
            if first.setdefault(key, value) != value:
                rep["errors"].append(f"{key} differs from the first repeat")


def at_reference_speed(rep: dict) -> tuple[float, list, float]:
    """One repeat's setup, round and run times, each phase scaled by how
    much slower than ``PROBE_REF_S`` the host probes on either side of it
    ran. The rest of the run (config, manifest, metrics and checkpoint
    writing) is scaled by the mean slowdown over the phases."""
    probes = rep["probe_s"]
    slowdown = [(a + b) / (2 * PROBE_REF_S) for a, b in zip(probes, probes[1:])]
    setup = rep["setup_s"][0] / slowdown[0]
    rounds = [t / f for t, f in zip(rep["round_s"], slowdown[1:])]
    rest = rep["run_s"] - rep["setup_s"][0] - sum(rep["round_s"])
    return setup, rounds, setup + sum(rounds) + rest / statistics.mean(slowdown)


def end_to_end(untraced: list[dict]) -> dict:
    """End-to-end metrics over the correct untraced repeats of one seed.

    Other tenants of a shared host slow the benchmark by up to 2x for
    seconds to minutes, more than any bound, so every setup, round and run
    is first scaled to the reference host speed by the probes around it.
    The unscaled medians are kept as ``raw.*``.
    """
    scaled = [at_reference_speed(r) for r in untraced]
    return {
        "final_accuracy": untraced[0]["final_accuracy"],
        "setup_s": statistics.median(s[0] for s in scaled),
        "round_s_p50": statistics.median(t for s in scaled for t in s[1]),
        "run_s": statistics.median(s[2] for s in scaled),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "raw.setup_s": statistics.median(r["setup_s"][0] for r in untraced),
        "raw.round_s_p50": statistics.median(t for r in untraced
                                             for t in r["round_s"]),
        "raw.run_s": statistics.median(r["run_s"] for r in untraced),
        "host_slowdown": statistics.median(
            p / PROBE_REF_S for r in untraced for p in r["probe_s"]),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    metrics = dict(traced[0]["counts"],
                   final_accuracy=traced[0]["final_accuracy"])
    del metrics["mask_counts_per_round"]
    for key in traced[0]["timings"]:
        metrics[key] = statistics.median(r["timings"][key] for r in traced)
    metrics["trace_overhead_ratio"] = (
        statistics.median(r["run_s"] for r in traced)
        / statistics.median(r["run_s"] for r in untraced) - 1.0)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fedprune" / "sim.py").is_file():
        print(f"error: no fedprune sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    RESULTS.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    repeats: list[dict] = []
    plan = (False, True) if args.trace else (False,)
    while True:
        for traced in plan:
            t0 = time.monotonic()
            repeats.append(run_repeat(args.workload, args.seed, traced,
                                      len(repeats)))
            last = time.monotonic() - t0
        # the next round of repeats is expected to end at `finish`
        finish = time.monotonic() - start + len(plan) * last
        done = len(repeats) // len(plan)
        enough = done >= (MIN_TRACED if args.trace else MIN_UNTRACED)
        if (enough and finish > args.seconds) or finish > BUDGET_S:
            break
    shutil.rmtree(WORK, ignore_errors=True)

    cross_check(repeats)
    good = [r for r in repeats if not r["errors"]]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    failed = len(repeats) - len(good)
    values = {}
    if untraced and (traced or not args.trace):
        values = per_layer(traced, untraced) if args.trace \
            else end_to_end(untraced)
    values["fail_ratio"] = failed / len(repeats)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    correct = failed == 0 and not missing

    env = next((r["env"] for r in repeats if "env" in r), {})
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  repeats {len(repeats)}")
    print("environment " + json.dumps(env, sort_keys=True)
          + f"  blas threads requested {BLAS_THREADS}")
    for rep in repeats:
        kind = "traced" if rep["traced"] else "untraced"
        for err in rep["errors"][:5]:
            print(f"FAILED {kind} repeat: {err}")
        if len(rep["errors"]) > 5:
            print(f"FAILED {kind} repeat: {len(rep['errors']) - 5} more "
                  "errors in the results file")
    shown = wanted + [{"name": name, "unit": unit} for name, unit in
                      (("final_accuracy", "fraction"),
                       ("fail_ratio", "fraction"), ("raw.setup_s", "s"),
                       ("raw.round_s_p50", "s"), ("raw.run_s", "s"),
                       ("host_slowdown", "x"))
                      if name in values
                      and name not in [m["name"] for m in wanted]]
    for m in shown:
        value = values.get(m["name"], 0.0)
        print(f"  {m['name']:<36} {value:>14.6g} {m['unit']}")
    shares = {key.split(".")[1]: v for key, v in values.items()
              if key.startswith("layer.")}
    dominant = max(shares, key=shares.get) if shares else None
    if dominant:
        print(f"dominant layer: {dominant}")

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "env": env,
              "blas_threads_requested": BLAS_THREADS,
              "attempted": len(repeats), "failed": failed,
              "metrics": values, "dominant_layer": dominant,
              "errors": [e for r in repeats for e in r["errors"]],
              "repeat_run_s": [[r["traced"], r.get("run_s")]
                               for r in repeats]}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": len(repeats), "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
