"""Command line entry point: run experiments, sweep a grid of config values,
and report model costs from a checkpoint.

Config files are INI-style ``key = value`` sections of literal values (no
``%`` interpolation, no ``[DEFAULT]`` section); any field can be overridden
on the command line with ``--set key=value`` (bare keys work when
unambiguous, ``section.key`` always works).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import itertools
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__, costs
from .sim import CSV_COLUMNS, POOL_ALGS, ConfigError, ExperimentConfig, \
    load_checkpoint, run_experiment

SECTIONS = {
    "data": ("classes", "per_class", "dim", "spread", "csv_path",
             "csv_header", "test_ratio", "server_ratio"),
    "federation": ("clients", "client_fraction", "alpha", "dev_ratio"),
    "model": ("hidden",),
    "training": ("algorithm", "rounds", "local_epochs", "batch_size", "lr",
                 "pretrain_epochs"),
    "pruning": ("density", "pool_size", "granularity", "interval",
                "stop_round", "growth_fraction"),
    "run": ("seed", "bits"),
}
_FIELD_SECTION = {name: section for section, names in SECTIONS.items()
                  for name in names}
_FIELD_TYPE = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    if name == "hidden":
        return tuple(int(v) for v in raw.split(",") if v.strip())
    kind = _FIELD_TYPE[name]
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def _format_value(name: str, value) -> str:
    if name == "hidden":
        return ",".join(str(int(v)) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _config_item(section: str | None, key: str, raw: str):
    """The field and parsed value of ``key = raw``: an item of a config
    file's ``[section]``, or a ``--set``/``--axis`` item, whose section is
    ``None`` unless it is written ``section.key``."""
    if key not in _FIELD_SECTION or section not in (None, _FIELD_SECTION[key]):
        where = "" if section is None else f" in section [{section}]"
        raise ConfigError([f"unknown key {key!r}{where}"])
    try:
        return key, _parse_value(key, raw)
    except ValueError as err:
        raise ConfigError([f"{key}: {err}"])


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError([f"config file not found: {path}"])
    # values are literal text, with no % interpolation; no section header
    # can name the empty default section, so [DEFAULT] is an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as err:
        raise ConfigError([f"config parse error: {err}"])
    values = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError([f"unknown config section [{section}]"])
        values.update(_config_item(section, key, raw)
                      for key, raw in parser.items(section))
    return ExperimentConfig(**values)


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []
    for section, names in SECTIONS.items():
        lines.append(f"[{section}]")
        for name in names:
            lines.append(f"{name} = {_format_value(name, getattr(cfg, name))}")
        lines.append("")
    return "\n".join(lines)


def _parse_override(item: str):
    """The field and parsed value of one ``key=value`` item."""
    if "=" not in item:
        raise ConfigError([f"override {item!r} is not key=value"])
    key, raw = item.split("=", 1)
    section, dot, key = key.strip().rpartition(".")
    return _config_item(section if dot else None, key, raw)


def apply_overrides(cfg: ExperimentConfig, sets: list[str]) -> ExperimentConfig:
    for item in sets:
        setattr(cfg, *_parse_override(item))
    return cfg


def run_id(cfg: ExperimentConfig) -> str:
    return (f"{cfg.algorithm.lower()}-d{cfg.density:g}-a{cfg.alpha:g}"
            f"-s{cfg.seed}")


def write_manifest(run_dir: Path, cfg: ExperimentConfig,
                   overrides: list[str], status: str = "running") -> Path:
    """Snapshot the config and the run's ``status``: ``running``,
    ``completed`` or ``failed: <ExceptionType: message>``."""
    artifacts = {"metrics_csv": "metrics.csv",
                 "metrics_jsonl": "metrics.jsonl",
                 "checkpoint": "final.ckpt"}
    if cfg.algorithm in POOL_ALGS:
        artifacts["selection"] = "selection.json"
    manifest = {
        "status": status,
        "tool_version": __version__,
        "config": {section: {name: getattr(cfg, name) for name in names}
                   for section, names in SECTIONS.items()},
        "overrides": list(overrides),
        "resolved": {"seed": cfg.seed,
                     "pool_size": (cfg.resolved_pool_size()
                                   if cfg.algorithm in POOL_ALGS else 0)},
        "artifacts": artifacts,
    }
    path = run_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True,
                               default=list) + "\n", encoding="utf-8")
    return path


def run_with_manifest(run_dir: Path, cfg: ExperimentConfig,
                      overrides: list[str]):
    """Run one experiment into ``run_dir``, its manifest saying ``running``
    until the run ends and then how it ended; returns the final round's
    metrics. A failure is recorded and re-raised."""
    run_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(run_dir, cfg, overrides)
    try:
        metrics, _ = run_experiment(cfg, out_dir=run_dir)
    except BaseException as err:
        write_manifest(run_dir, cfg, overrides,
                       f"failed: {type(err).__name__}: {err}")
        raise
    write_manifest(run_dir, cfg, overrides, "completed")
    return metrics[-1]


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    apply_overrides(cfg, args.set or [])
    cfg.validate()
    run_dir = Path(args.out) / run_id(cfg)
    final = run_with_manifest(run_dir, cfg, args.set or [])
    print(f"{run_id(cfg)}: {cfg.rounds} rounds, "
          f"final accuracy {final.accuracy:.4f}, density {final.density:.4f}")
    print(f"artifacts in {run_dir}")
    return 0


def cmd_sweep(args) -> int:
    base = apply_overrides(parse_config(args.config), args.set or [])
    axes = {}  # field -> its --axis items; fields in order of first use
    for item in args.axis:
        axes.setdefault(_parse_override(item)[0], []).append(item)
    sweep_dir = Path(args.out)
    # the name limit of the file system the point directories will be made on
    existing = next(p for p in (sweep_dir, *sweep_dir.absolute().parents)
                    if p.is_dir())
    name_max = os.pathconf(existing, "PC_NAME_MAX")
    points = {}  # run directory name -> (axis items, axis values, config)
    for items in itertools.product(*axes.values()):
        cfg = apply_overrides(replace(base), items)
        cfg.validate()
        values = [_format_value(key, getattr(cfg, key)) for key in axes]
        name = "-".join(f"{key}={value}" for key, value in zip(axes, values))
        if Path(name).name != name:
            raise ConfigError([f"sweep point {name!r}: not a directory name"])
        if len(os.fsencode(name)) > name_max:
            raise ConfigError([f"sweep point {name!r}: longer than the "
                               f"{name_max}-byte limit of a directory name"])
        if name in points:
            raise ConfigError([f"sweep point {name!r}: given twice"])
        points[name] = (list(items), values, cfg)
    sweep_dir.mkdir(parents=True, exist_ok=True)
    summary = sweep_dir / "summary.csv"
    # the final round's metrics.csv columns, named apart from the axes
    columns = CSV_COLUMNS[1:]
    with open(summary, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run_id", *axes, *(f"final_{c}" for c in columns)])
        for name, (items, values, cfg) in points.items():
            final = run_with_manifest(sweep_dir / name, cfg,
                                      (args.set or []) + items)
            # written as each point ends, so a failed point keeps the rows
            # of the points before it
            writer.writerow([name, *values,
                             *(getattr(final, c) for c in columns)])
            fh.flush()
            print(f"{name}: final accuracy {final.accuracy:.4f}")
    print(f"summary in {summary}")
    return 0


def cmd_cost(args) -> int:
    net, mask, _ = load_checkpoint(args.ckpt)
    bits, iters = args.bits, args.local_iters
    storage = costs.model_storage(net, mask, bits)
    dense_bytes = costs.dense_param_bytes(net, bits)
    act = costs.activation_bytes(net, args.batch, bits)
    f_d = costs.forward_flops(net, None, args.batch)
    f_s = costs.forward_flops(net, mask, args.batch)
    extra = (costs.collection_pass_flops(net, mask, list(net.prunable_keys()),
                                         args.batch) if mask else 0.0)
    report = {
        "storage": storage,
        "memory": [{"algorithm": tag, "param_dense": dense_bytes,
                    "param_sparse": storage["bytes"], "activations": act,
                    "memory_total": costs.training_memory(
                        tag, dense_bytes, storage["bytes"], act, bits)}
                   for tag in costs.ALGORITHM_TAGS],
        "flops": [{"algorithm": tag, "dense_forward": f_d,
                   "sparse_forward": f_s, "local_iters": iters,
                   "flops_peak": costs.round_peak_flops(
                       tag, f_d, f_s, iters,
                       extra if tag == costs.ALG_PROGRESSIVE else 0.0)}
                  for tag in costs.ALGORITHM_TAGS],
    }
    blob = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(blob + "\n", encoding="utf-8")
        print(f"report written to {args.out}")
    else:
        print(blob)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedprune",
        description="desk-scale federated pruning simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config value (repeatable)")
    run.add_argument("--out", default="runs", help="output directory root")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run one experiment per grid point")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--axis", action="append", required=True,
                       metavar="KEY=VALUE",
                       help="one value of a grid axis; items naming one key "
                            "make up its axis (repeatable)")
    sweep.add_argument("--set", action="append", metavar="KEY=VALUE")
    sweep.add_argument("--out", default="sweeps")
    sweep.set_defaults(func=cmd_sweep)

    cost = sub.add_parser("cost", help="storage/memory/FLOPs report for a "
                                       "checkpoint")
    cost.add_argument("--ckpt", required=True)
    cost.add_argument("--bits", type=int, default=32)
    cost.add_argument("--batch", type=int, default=64)
    cost.add_argument("--local-iters", type=int, default=5)
    cost.add_argument("--out", default="")
    cost.set_defaults(func=cmd_cost)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a diverged run is reported once, as the FloatingPointError below
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FloatingPointError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
