import csv
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from fedprune.cli import (
    apply_overrides,
    main,
    parse_config,
    run_id,
    serialize_config,
)
from fedprune.sim import ConfigError, ExperimentConfig

SMALL_CONFIG = """
[data]
classes = 4
per_class = 40
dim = 8
spread = 1.0

[federation]
clients = 3

[model]
hidden = 16,16,16

[training]
algorithm = StaticRandom
rounds = 2
local_epochs = 1
batch_size = 16
pretrain_epochs = 1

[pruning]
density = 0.1
interval = 1
stop_round = 2

[run]
seed = 3
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_CONFIG)
    return path


# -- config parsing -------------------------------------------------------------

def test_config_round_trip(config_file, tmp_path):
    cfg = parse_config(config_file)
    assert cfg.hidden == (16, 16, 16)
    assert cfg.algorithm == "StaticRandom"
    again = tmp_path / "again.ini"
    again.write_text(serialize_config(cfg))
    assert parse_config(again) == cfg


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[data]\nwat = 1\n")
    with pytest.raises(ConfigError, match="wat"):
        parse_config(path)


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_default_section_is_an_unknown_section(tmp_path, capsys):
    # read as configparser's defaults, a [DEFAULT]-only file would set no
    # field and run the built-in config
    path, out = tmp_path / "bad.ini", tmp_path / "out"
    path.write_text("[DEFAULT]\nrounds = 1\nalgorithm = DenseFedAvg\n")
    with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
        parse_config(path)
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "unknown config section [DEFAULT]" in capsys.readouterr().err
    assert not out.exists()


def test_file_and_override_keys_share_one_message(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[pruning]\nseed = 1\n")
    in_section = re.escape("unknown key 'seed' in section [pruning]")
    with pytest.raises(ConfigError, match=in_section):
        parse_config(path)
    with pytest.raises(ConfigError, match=in_section):
        apply_overrides(ExperimentConfig(), ["pruning.seed=1"])
    with pytest.raises(ConfigError, match="unknown key 'wat'$"):
        apply_overrides(ExperimentConfig(), ["wat=1"])


def test_order_and_model_blocks_are_rejected(config_file, tmp_path):
    # removed keys: order, [model] blocks, aggregate_std (BN statistics
    # are always aggregated as standard deviations), bn_momentum, bn_eps
    # and pool_noise (fixed at 0.9, 1e-5 and 0.5), [pruning] blocks (the
    # paper's five) and data_kind (CSV data exactly when csv_path is set)
    out = str(tmp_path / "out")
    for i, text in enumerate(("[pruning]\norder = forward\n",
                              "[pruning]\norder = backward\n",
                              "[model]\nblocks = 5\n",
                              "[pruning]\naggregate_std = false\n",
                              "[model]\nbn_momentum = 0.9\n",
                              "[model]\nbn_eps = 1e-5\n",
                              "[pruning]\npool_noise = 0.5\n",
                              "[pruning]\nblocks = 5\n",
                              "[data]\ndata_kind = blobs\n",
                              "[data]\ndata_kind = csv\n")):
        path = tmp_path / f"bad{i}.ini"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", out]) == 2
    for override in ("order=forward", "pruning.order=backward",
                     "model.blocks=3", "aggregate_std=true",
                     "pruning.aggregate_std=false", "bn_momentum=1.5",
                     "bn_eps=0", "pool_noise=0.5", "model.bn_eps=1e-5",
                     "blocks=5", "pruning.blocks=3", "data_kind=blobs",
                     "data.data_kind=csv"):
        assert main(["run", "--config", str(config_file), "--out", out,
                     "--set", override]) == 2
    assert not (tmp_path / "out").exists()


def test_overrides_bare_and_sectioned():
    cfg = ExperimentConfig()
    apply_overrides(cfg, ["density=0.01", "training.lr=0.1",
                          "hidden=8,8", "csv_header=true"])
    assert cfg.density == 0.01
    assert cfg.lr == 0.1
    assert cfg.hidden == (8, 8)
    assert cfg.csv_header is True
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["nonsense=1"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["no_equals"])


# -- run command ------------------------------------------------------------------

def test_cmd_run_writes_artifacts(config_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(config_file), "--out", str(out)])
    assert rc == 0
    cfg = parse_config(config_file)
    run_dir = out / run_id(cfg)
    for name in ("manifest.json", "metrics.csv", "metrics.jsonl",
                 "final.ckpt"):
        assert (run_dir / name).exists(), name
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["pruning"]["density"] == 0.1
    assert manifest["config"]["training"]["algorithm"] == "StaticRandom"
    assert manifest["status"] == "completed"
    # no candidate pool, so nothing to record
    assert not (run_dir / "selection.json").exists()
    assert "selection" not in manifest["artifacts"]
    assert manifest["resolved"]["pool_size"] == 0
    rc = main(["run", "--config", str(config_file), "--out", str(out),
               "--set", "algorithm=StaticMagnitude"])
    assert rc == 0
    run_dir = out / run_id(replace(cfg, algorithm="StaticMagnitude"))
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["resolved"]["pool_size"] == 0


@pytest.mark.parametrize("algorithm, method", [("AdaptiveBNOnly", "adaptive"),
                                               ("ProgressiveOnly", "vanilla")])
def test_selection_json_records_the_pool_and_repeats(config_file, tmp_path,
                                                     algorithm, method):
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["run", "--config", str(config_file), "--out", str(out),
                   "--set", f"algorithm={algorithm}", "--set", "pool_size=5"])
        assert rc == 0
        runs.append(next(out.iterdir()))
    for artifact in ("selection.json", "metrics.csv"):
        assert (runs[0] / artifact).read_bytes() == \
            (runs[1] / artifact).read_bytes()
    record = json.loads((runs[0] / "selection.json").read_text())
    manifest = json.loads((runs[0] / "manifest.json").read_text())
    ckpt = json.loads((runs[0] / "final.ckpt").read_text())
    assert manifest["artifacts"]["selection"] == "selection.json"
    assert manifest["resolved"]["pool_size"] == 5
    assert record["method"] == method
    assert [c["id"] for c in record["candidates"]] == [0, 1, 2, 3, 4]
    losses = {c["id"]: c["dev_loss"] for c in record["candidates"]}
    winner = record["winner"]
    assert winner == ckpt["extra"]["selected_candidate"]
    assert losses[winner] == min(losses.values())
    assert record["margin"] == min(loss for cid, loss in losses.items()
                                   if cid != winner) - losses[winner]
    assert record["margin"] >= 0.0
    for c in record["candidates"]:
        assert sorted(c["layer_shares"]) == sorted(ckpt["mask"])


def test_failed_run_is_marked_in_the_manifest(config_file, tmp_path):
    # round 2 raises as a diverged run would; the process must exit nonzero
    # and leave the first round's metrics beside a manifest that says why
    script = (
        "import sys\n"
        "from fedprune import cli, sim\n"
        "run_round = sim.run_round\n"
        "def failing(state, r):\n"
        "    if r == 2:\n"
        "        raise FloatingPointError('non-finite loss')\n"
        "    return run_round(state, r)\n"
        "sim.run_round = failing\n"
        "sys.exit(cli.main(sys.argv[1:]))\n")
    out = tmp_path / "out"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script, "run", "--config", str(config_file),
         "--out", str(out)], env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode != 0
    assert "FloatingPointError" in proc.stderr
    run_dir = out / run_id(parse_config(config_file))
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "failed: FloatingPointError: non-finite loss"
    assert len((run_dir / "metrics.csv").read_text().splitlines()) == 2
    assert not (run_dir / "final.ckpt").exists()


def test_failed_partition_exits_1_with_one_error_line(tmp_path, capsys):
    # 168 training samples validate for 168 clients, but 100 Dirichlet
    # draws never give every client one
    from test_sim import tiny_config

    path, out = tmp_path / "exp.ini", tmp_path / "out"
    cfg = tiny_config(clients=168)
    path.write_text(serialize_config(cfg))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: could not give every one of 168 clients")
    assert len(err.splitlines()) == 1
    manifest = json.loads((out / run_id(cfg) / "manifest.json").read_text())
    assert manifest["status"].startswith(
        "failed: ValueError: could not give every one of 168 clients")


def test_diverged_run_exits_1_with_one_error_line(config_file, tmp_path,
                                                 capsys):
    # a finite but huge learning rate validates, then overflows the loss;
    # numpy's overflow warnings would only repeat the error line
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["run", "--config", str(config_file), "--out", str(out),
                   "--set", "lr=1e200"])
    assert rc == 1
    # one line, no traceback
    assert capsys.readouterr().err == \
        "error: FloatingPointError: non-finite loss\n"
    cfg = apply_overrides(parse_config(config_file), ["lr=1e200"])
    manifest = json.loads((out / run_id(cfg) / "manifest.json").read_text())
    assert manifest["status"] == "failed: FloatingPointError: non-finite loss"


def test_manifest_says_running_while_the_run_is_in_progress(
        config_file, tmp_path, monkeypatch):
    from fedprune import cli

    seen = []
    run_experiment = cli.run_experiment

    def spy(cfg, out_dir):
        seen.append(json.loads((out_dir / "manifest.json").read_text())
                    ["status"])
        return run_experiment(cfg, out_dir=out_dir)

    monkeypatch.setattr(cli, "run_experiment", spy)
    assert main(["run", "--config", str(config_file), "--out",
                 str(tmp_path / "out")]) == 0
    assert seen == ["running"]


def test_cmd_run_set_override_lands_in_manifest(config_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(config_file), "--out", str(out),
               "--set", "density=0.05"])
    assert rc == 0
    run_dirs = list(out.iterdir())
    assert len(run_dirs) == 1
    manifest = json.loads((run_dirs[0] / "manifest.json").read_text())
    assert manifest["config"]["pruning"]["density"] == 0.05
    assert manifest["overrides"] == ["density=0.05"]


def test_cmd_run_missing_config(tmp_path):
    rc = main(["run", "--config", str(tmp_path / "nope.ini")])
    assert rc != 0


def test_cmd_run_invalid_config(config_file, tmp_path):
    # each is rejected by validation, before the run directory exists:
    # a pruning algorithm with one hidden width has no prunable tensor,
    # pretraining needs server data (0.0001 of 160 blobs floors to none),
    # 160 blobs leave too few training samples for 600 clients, BN batch
    # statistics need two samples, no float setting may be NaN or
    # infinite (NaN fails every range check written as ``x <= 0``), and
    # density 0.01 keeps 5 of the 512 prunable weights, below 10 per layer
    for sets in (["density=7.0"], ["density=0.01"],
                 ["algorithm=FedTiny", "hidden=64"],
                 ["pretrain_epochs=1", "server_ratio=0.0"],
                 ["server_ratio=0.0001"],
                 ["clients=600", "per_class=50"],
                 ["batch_size=1"],
                 ["lr=nan"], ["lr=inf"], ["spread=nan"], ["alpha=nan"]):
        rc = main(["run", "--config", str(config_file), "--out",
                   str(tmp_path / "o")]
                  + [arg for s in sets for arg in ("--set", s)])
        assert rc == 2, sets
    assert not (tmp_path / "o").exists()


def _config_issue(case, sets, issue, text=SMALL_CONFIG):
    return pytest.param(text, sets, issue, id=case)


@pytest.mark.parametrize("text, sets, issue", [
    *(_config_issue(f"{name}=0", [f"{name}=0"], f"{name}: must be at least 1")
      for name in ("classes", "per_class", "dim", "clients", "rounds",
                   "local_epochs", "bits")),
    # only the progressive algorithms have a schedule to check
    _config_issue("interval=0", ["algorithm=FedTiny", "interval=0"],
                  "schedule: interval must be at least 1"),
    _config_issue("stop_round=0", ["algorithm=FedTiny", "stop_round=0"],
                  "schedule: stop_round must be at least interval"),
    _config_issue("spread", ["spread=-1"], "spread: must be nonnegative"),
    _config_issue("test_ratio", ["test_ratio=1.0"],
                  "test_ratio: must lie in [0, 1)"),
    _config_issue("server_ratio", ["server_ratio=-0.1"],
                  "server_ratio: must lie in [0, 1)"),
    _config_issue("ratio sum", ["test_ratio=0.5", "server_ratio=0.5"],
                  "test_ratio + server_ratio: must leave client data"),
    _config_issue("client_fraction", ["client_fraction=0"],
                  "client_fraction: must lie in (0, 1]"),
    _config_issue("alpha", ["alpha=0"], "alpha: must be positive"),
    _config_issue("dev_ratio", ["dev_ratio=0"],
                  "dev_ratio: must lie in (0, 1]"),
    _config_issue("hidden", ["hidden=16,0,16"],
                  "hidden: needs positive layer widths"),
    _config_issue("pretrain_epochs", ["pretrain_epochs=-1"],
                  "pretrain_epochs: must be nonnegative"),
    _config_issue("pool_size", ["pool_size=-1"],
                  "pool_size: must be nonnegative"),
    _config_issue("stop_round < interval",
                  ["algorithm=FedTiny", "interval=5", "stop_round=2"],
                  "schedule: stop_round must be at least interval"),
    _config_issue("growth_fraction", ["algorithm=FedTiny",
                                      "growth_fraction=1.5"],
                  "schedule: growth_fraction must lie in (0, 1)"),
    _config_issue("granularity", ["algorithm=FedTiny", "granularity=weird"],
                  "schedule: granularity must be one of"),
    _config_issue("bad boolean", [], "csv_header: expected a boolean",
                  SMALL_CONFIG.replace("[data]\n",
                                       "[data]\ncsv_header = maybe\n")),
    # SMALL_CONFIG sets classes already
    _config_issue("parse error", [], "option 'classes' in section 'data' "
                  "already exists",
                  SMALL_CONFIG.replace("[data]\n", "[data]\nclasses = 5\n")),
    _config_issue("bad int", [], "rounds: invalid literal for int()",
                  SMALL_CONFIG.replace("rounds = 2", "rounds = ten")),
])
def test_cmd_run_reports_each_config_issue_by_key(tmp_path, capsys, text,
                                                  sets, issue):
    config = tmp_path / "exp.ini"
    config.write_text(text)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(config), "--out", str(out)]
              + [arg for s in sets for arg in ("--set", s)])
    assert rc == 2
    # one line names the fault, and no other line follows it
    head, *lines = capsys.readouterr().err.splitlines()
    assert head == "error: invalid config:"
    assert len(lines) == 1 and issue in lines[0], lines
    assert not out.exists()


@pytest.mark.parametrize("item, issue", [
    ("interval=0", "interval must be at least 1"),
    ("stop_round=0", "stop_round must be at least interval"),
], ids=["interval=0", "stop_round=0"])
def test_a_schedule_fault_is_reported_once(config_file, tmp_path, capsys,
                                           item, issue):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out),
                 "--set", "algorithm=FedTiny", "--set", item]) == 2
    assert capsys.readouterr().err == \
        f"error: invalid config:\n  schedule: {issue}\n"
    assert not out.exists()


@pytest.mark.parametrize("algorithm", ["DenseFedAvg", "AdaptiveBNOnly"])
def test_algorithms_without_a_schedule_ignore_its_keys(config_file, tmp_path,
                                                       capsys, algorithm):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(config_file), "--out", str(out),
               "--set", f"algorithm={algorithm}", "--set", "interval=0",
               "--set", "stop_round=0"])
    assert rc == 0, capsys.readouterr().err
    assert len(list(out.glob("*/final.ckpt"))) == 1


def _toy_rows(n):
    """``n`` CSV rows of four shifted classes."""
    return [f"{i % 4 + 0.1 * (i % 7)},{-(i % 4) + 0.05 * (i % 11)},"
            f"{0.3 * (i % 5)},{i % 4}" for i in range(n)]


def _csv_config(tmp_path, rows):
    """SMALL_CONFIG reading ``rows`` under a header line, or a missing file
    if ``rows`` is None."""
    data = tmp_path / "toy.csv"
    if rows is not None:
        data.write_text("\n".join(["x0,x1,x2,label"] + rows) + "\n")
    config = tmp_path / "csv.ini"
    config.write_text(SMALL_CONFIG.replace(
        "[data]\n", f"[data]\ncsv_path = {data}\ncsv_header = true\n"))
    return config


def test_cmd_run_fedtiny_on_csv_data_repeats(tmp_path):
    config = _csv_config(tmp_path, _toy_rows(240))
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["run", "--config", str(config), "--out", str(out),
                   "--set", "algorithm=FedTiny", "--set", "pool_size=3"])
        assert rc == 0
        runs.append(next(out.iterdir()))
    for artifact in ("manifest.json", "metrics.csv", "metrics.jsonl",
                     "final.ckpt", "selection.json"):
        assert (runs[0] / artifact).exists(), artifact
    assert (runs[0] / "metrics.csv").read_bytes() == \
        (runs[1] / "metrics.csv").read_bytes()
    records = [json.loads(line) for line in
               (runs[0] / "metrics.jsonl").read_text().splitlines()]
    assert any(rec["grow_count"] > 0 for rec in records)


def test_cmd_run_parses_the_csv_file_once_and_validates_once(
        tmp_path, monkeypatch):
    from fedprune import sim

    calls = []
    load_csv, validate = sim.load_csv, ExperimentConfig.validate
    monkeypatch.setattr(sim, "load_csv", lambda *a, **kw:
                        calls.append("parse") or load_csv(*a, **kw))
    monkeypatch.setattr(ExperimentConfig, "validate",
                        lambda cfg: calls.append("validate") or validate(cfg))
    config = _csv_config(tmp_path, _toy_rows(240))
    assert main(["run", "--config", str(config), "--out",
                 str(tmp_path / "run")]) == 0
    assert calls == ["validate", "parse"]
    # a sweep validates every point before the first runs, and a point
    # parses the file again when it runs, since no point holds its data
    # until then
    calls.clear()
    assert main(["sweep", "--config", str(config), "--out",
                 str(tmp_path / "sweep"), "--axis", "seed=1",
                 "--axis", "seed=2"]) == 0
    assert calls == ["validate", "parse"] * 2 + ["parse"] * 2


def test_cmd_run_on_csv_data_ignores_the_blob_keys(tmp_path, capsys):
    # classes, per_class, dim and spread shape only the Gaussian blobs
    out = tmp_path / "out"
    rc = main(["run", "--config", str(_csv_config(tmp_path, _toy_rows(240))),
               "--out", str(out), "--set", "per_class=0", "--set", "spread=-1",
               "--set", "classes=0", "--set", "dim=-3"])
    assert rc == 0, capsys.readouterr().err
    assert len(list(out.glob("*/metrics.csv"))) == 1


def test_config_values_are_literal_text(tmp_path):
    # a % in a value is a character, not configparser interpolation
    data_dir = tmp_path / "100%"
    data_dir.mkdir()
    config = _csv_config(data_dir, _toy_rows(240))
    cfg = parse_config(config)
    assert cfg.csv_path == str(data_dir / "toy.csv")
    again = tmp_path / "again.ini"
    again.write_text(serialize_config(cfg))
    assert parse_config(again) == cfg
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert len(list(out.glob("*/final.ckpt"))) == 1


@pytest.mark.parametrize("rows, sets, issue", [
    (_toy_rows(239) + ["nan,0.0,0.0,1"], [],
     "csv_path: line 241: non-finite feature value"),
    # 12 rows leave 12 - 2 test - 1 server = 9 training samples
    (_toy_rows(12), ["clients=10"],
     "clients: 9 training samples cannot give each of 10 clients one"),
    # 0.1 of 9 rows floors to no server sample
    (_toy_rows(9), [], "pretraining needs server data"),
    (None, [], "csv_path: [Errno 2] No such file or directory"),
], ids=["non-finite-feature", "too-few-rows-for-clients",
        "empty-server-split", "missing-file"])
def test_cmd_run_rejects_csv_defects_before_the_run(tmp_path, capsys, rows,
                                                    sets, issue):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(_csv_config(tmp_path, rows)), "--out",
               str(out)] + [arg for s in sets for arg in ("--set", s)])
    assert rc == 2
    assert issue in capsys.readouterr().err
    assert not out.exists()


# -- sweep command ------------------------------------------------------------------

def _sweep(config_file, out, *items, sets=()):
    """``fedprune sweep`` with one ``--axis`` per item."""
    return main(["sweep", "--config", str(config_file), "--out", str(out)]
                + [arg for item in items for arg in ("--axis", item)]
                + [arg for item in sets for arg in ("--set", item)])


def test_cmd_sweep_density_axis(config_file, tmp_path):
    out = tmp_path / "sweep"
    assert _sweep(config_file, out, "density=0.1", "density=0.2") == 0
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == ("run_id,density,final_accuracy,final_loss,"
                          "final_density,final_peak_flops,final_memory_bytes")
    assert [row.split(",")[:2] for row in summary[1:]] == [
        ["density=0.1", "0.1"], ["density=0.2", "0.2"]]
    metric_files = list(out.glob("*/metrics.csv"))
    assert len(metric_files) == 2
    assert [json.loads(path.read_text())["status"]
            for path in out.glob("*/manifest.json")] == ["completed"] * 2


def test_cmd_sweep_seed_axis(config_file, tmp_path):
    out = tmp_path / "sweep"
    assert _sweep(config_file, out, "seed=1", "seed=2", "seed=3") == 0
    assert len(list(out.glob("*/final.ckpt"))) == 3


def test_cmd_sweep_pool_size_axis_keeps_every_run(config_file, tmp_path):
    # the run id does not encode pool_size; the directory name does, so
    # each value gets its own run directory and summary row
    out = tmp_path / "sweep"
    assert _sweep(config_file, out, "pool_size=2", "pool_size=3",
                  sets=["algorithm=AdaptiveBNOnly"]) == 0
    manifests = [json.loads(path.read_text())
                 for path in sorted(out.glob("*/manifest.json"))]
    assert [m["overrides"] for m in manifests] == [
        ["algorithm=AdaptiveBNOnly", f"pool_size={n}"] for n in (2, 3)]
    assert [m["resolved"]["pool_size"] for m in manifests] == [2, 3]
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert sorted(row.split(",")[0] for row in rows) == \
        sorted(path.parent.name for path in out.glob("*/manifest.json"))
    assert len(rows) == 2


def test_cmd_sweep_unknown_axis(config_file, tmp_path):
    for item in ("wat=1", "pruning.seed=1"):
        assert _sweep(config_file, tmp_path / "s", item) == 2
    assert not (tmp_path / "s").exists()


def test_cmd_sweep_empty_values(config_file, tmp_path):
    for item in ("seed=", "seed", ","):
        assert _sweep(config_file, tmp_path / "s", item) == 2
    assert not (tmp_path / "s").exists()


def test_cmd_sweep_rejects_values_that_parse_equal(config_file, tmp_path,
                                                  capsys):
    out = tmp_path / "s"
    assert _sweep(config_file, out, "density=0.1", "density=0.10",
                  "density=0.1") == 2
    assert "sweep point 'density=0.1': given twice" in \
        capsys.readouterr().err
    assert not out.exists()  # rejected before any run starts


def test_cmd_sweep_runs_the_product_of_the_axes_in_grid_order(config_file,
                                                              tmp_path):
    # axes in the order their keys first appear, values in the order given
    out = tmp_path / "s"
    assert _sweep(config_file, out, "algorithm=StaticRandom", "seed=1",
                  "algorithm=DenseFedAvg", "seed=2") == 0
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run_id", "algorithm", "seed", "final_accuracy",
                       "final_loss", "final_density", "final_peak_flops",
                       "final_memory_bytes"]
    points = [(alg, seed) for alg in ("StaticRandom", "DenseFedAvg")
              for seed in ("1", "2")]
    assert [row[:3] for row in rows[1:]] == [
        [f"algorithm={alg}-seed={seed}", alg, seed] for alg, seed in points]
    assert len([path for path in out.iterdir() if path.is_dir()]) == 4
    for row in rows[1:]:
        manifest = json.loads((out / row[0] / "manifest.json").read_text())
        assert manifest["config"]["training"]["algorithm"] == row[1]
        assert manifest["config"]["run"]["seed"] == int(row[2])
        # the summary repeats the final metrics.csv row, byte for byte
        final = (out / row[0] / "metrics.csv").read_text().splitlines()[-1]
        assert row[3:] == final.split(",")[1:]


def test_cmd_sweep_hidden_axis_round_trips_through_csv_reader(config_file,
                                                              tmp_path):
    out = tmp_path / "s"
    assert _sweep(config_file, out, "hidden=32,32", "hidden=16,16,16") == 0
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[:2] for row in rows[1:]] == [["hidden=32,32", "32,32"],
                                             ["hidden=16,16,16", "16,16,16"]]
    manifest = json.loads((out / "hidden=32,32" / "manifest.json").read_text())
    assert manifest["config"]["model"]["hidden"] == [32, 32]


def test_cmd_sweep_bare_and_sectioned_keys_make_one_axis(config_file,
                                                         tmp_path):
    out = tmp_path / "s"
    assert _sweep(config_file, out, "interval=1", "pruning.interval=2") == 0
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0].startswith("run_id,interval,final_accuracy,")
    assert [row.split(",")[:2] for row in rows[1:]] == [
        ["interval=1", "1"], ["interval=2", "2"]]
    manifest = json.loads((out / "interval=2" / "manifest.json").read_text())
    assert manifest["overrides"] == ["pruning.interval=2"]


@pytest.mark.parametrize("densities", [("7.0", "0.1"), ("0.1", "7.0")])
def test_cmd_sweep_rejects_an_invalid_point_before_any_run(config_file,
                                                           tmp_path,
                                                           densities):
    out = tmp_path / "s"
    assert _sweep(config_file, out, "seed=1", "seed=2",
                  *(f"density={d}" for d in densities)) == 2
    assert not out.exists()


def test_cmd_sweep_rejects_a_value_with_a_path_separator(config_file,
                                                         tmp_path, capsys,
                                                         monkeypatch):
    # the file exists, so the point itself is valid
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "data.csv").write_text("\n".join(_toy_rows(240)))
    out = tmp_path / "s"
    assert _sweep(config_file, out, "csv_path=sub/data.csv") == 2
    assert "'csv_path=sub/data.csv': not a directory name" in \
        capsys.readouterr().err
    assert not out.exists()


def test_cmd_sweep_rejects_a_name_too_long_before_any_run(config_file,
                                                         tmp_path, capsys):
    # the first point is valid and short; the second's name is over the
    # limit, so no point may run
    out = tmp_path / "new" / "s"
    limit = os.pathconf(tmp_path, "PC_NAME_MAX")
    long_hidden = ",".join(["16"] * (limit // 3 + 1))
    assert _sweep(config_file, out, "seed=1", "seed=2", "hidden=16,16",
                  f"hidden={long_hidden}") == 2
    assert "-byte limit of a directory name" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_cmd_sweep_keeps_the_rows_of_points_before_a_failed_one(config_file,
                                                                tmp_path):
    out = tmp_path / "s"
    assert _sweep(config_file, out, "lr=0.05", "lr=1e200") == 1
    rows = (out / "summary.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["lr=0.05", "0.05"]]
    manifest = json.loads((out / "lr=1e+200" / "manifest.json").read_text())
    assert manifest["status"] == "failed: FloatingPointError: non-finite loss"


# -- cost command ------------------------------------------------------------------

def test_cmd_cost_reports(config_file, tmp_path):
    out = tmp_path / "out"
    main(["run", "--config", str(config_file), "--out", str(out)])
    ckpt = next(out.glob("*/final.ckpt"))
    report_path = tmp_path / "cost.json"
    rc = main(["cost", "--ckpt", str(ckpt), "--bits", "32",
               "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert {"storage", "memory", "flops"} <= set(report)
    schemes = {t["scheme"] for t in report["storage"]["tensors"].values()}
    assert schemes & {"csr", "coo", "bitmap"}  # sparse tensors got compressed
    assert any(f["flops_peak"] > 0 for f in report["flops"])


def test_cmd_cost_dense_checkpoint_storage(config_file, tmp_path):
    out = tmp_path / "out"
    main(["run", "--config", str(config_file), "--out", str(out),
          "--set", "algorithm=DenseFedAvg"])
    ckpt = next(out.glob("*/final.ckpt"))
    report_path = tmp_path / "cost.json"
    rc = main(["cost", "--ckpt", str(ckpt), "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    from fedprune.sim import load_checkpoint
    net, mask, _ = load_checkpoint(ckpt)
    assert mask is None
    n_params = sum(p.size for p in net.params().values())
    assert report["storage"]["bytes"] == n_params * 32 / 8


def test_cmd_cost_corrupt_checkpoint(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_text("{broken")
    rc = main(["cost", "--ckpt", str(bad)])
    assert rc == 1


@pytest.mark.parametrize("text", ["[1, 2]", '{"version": 1}'])
def test_cmd_cost_rejects_json_that_is_not_a_checkpoint(tmp_path, capsys,
                                                         text):
    bad = tmp_path / "bad.ckpt"
    bad.write_text(text)
    assert main(["cost", "--ckpt", str(bad)]) == 1
    assert "error: unreadable checkpoint" in capsys.readouterr().err


def _checkpoint_record(**changes):
    """A small well-formed checkpoint record, with top-level changes."""
    record = {
        "version": 1,
        "layers": [{"kind": "linear", "shape": [2, 3]},
                   {"kind": "batchnorm", "features": 3},
                   {"kind": "relu"},
                   {"kind": "linear", "shape": [3, 3]},
                   {"kind": "relu"},
                   {"kind": "linear", "shape": [3, 2]}],
        "params": {"0.weight": {"shape": [2, 3], "data": [0.5] * 6},
                   "0.bias": {"shape": [3], "data": [0.0] * 3},
                   "1.scale": {"shape": [3], "data": [2.0] * 3},
                   "1.shift": {"shape": [3], "data": [0.0] * 3},
                   "3.weight": {"shape": [3, 3], "data": [1.0, 0.0, 1.0] * 3},
                   "3.bias": {"shape": [3], "data": [0.0] * 3},
                   "5.weight": {"shape": [3, 2], "data": [0.25] * 6},
                   "5.bias": {"shape": [2], "data": [0.0] * 2}},
        "bn_stats": [{"mean": [0.0] * 3, "var": [1.0] * 3}],
        "mask": {"3.weight": [1, 0, 1] * 3},
    }
    record.update(changes)
    return record


def _with_layer(i, spec):
    layers = _checkpoint_record()["layers"]
    layers[i] = spec
    return layers


def _with_params(entries):
    """The record's params with ``entries`` set, or deleted where None."""
    params = _checkpoint_record()["params"]
    for key, entry in entries.items():
        if entry is None:
            del params[key]
        else:
            params[key] = entry
    return params


MALFORMED_CHECKPOINTS = {
    "layer without kind": {"layers": [{}], "params": {}, "bn_stats": [],
                           "mask": None},
    "unknown kind": {"layers": _with_layer(2, {"kind": "conv"})},
    "one-entry shape": {"layers": _with_layer(0, {"kind": "linear",
                                                  "shape": [2]})},
    "zero in shape": {"layers": _with_layer(0, {"kind": "linear",
                                                "shape": [0, 3]})},
    "fractional shape": {"layers": _with_layer(0, {"kind": "linear",
                                                   "shape": [2.5, 3]})},
    "extra bn_stats": {"bn_stats": [{"mean": [0.0] * 3, "var": [1.0] * 3}] * 2},
    "missing bn_stats": {"bn_stats": []},
    "param not in the network": {"params": _with_params({"7.weight": {
        "shape": [2, 3], "data": [0.5] * 6}})},
    "param of a ReLU layer": {"params": _with_params({"2.weight": {
        "shape": [2, 3], "data": [0.5] * 6}})},
    "param data too short": {"params": _with_params({"0.weight": {
        "shape": [2, 3], "data": [0.5] * 5}})},
    "missing param": {"params": _with_params({"3.bias": None})},
    "BN features not its statistics": {"layers": _with_layer(
        1, {"kind": "batchnorm", "features": 4})},
    "BN wider than its input": {
        "layers": _with_layer(1, {"kind": "batchnorm", "features": 5}),
        "bn_stats": [{"mean": [0.0] * 5, "var": [1.0] * 5}],
        "params": _with_params({"1.scale": {"shape": [5], "data": [1.0] * 5},
                                "1.shift": {"shape": [5], "data": [0.0] * 5}})},
    "linear fan_in not the width before it": {
        "layers": _with_layer(5, {"kind": "linear", "shape": [2, 2]}),
        "params": _with_params({"5.weight": {"shape": [2, 2],
                                             "data": [0.25] * 4}})},
    "bias value for a layer without one": {"layers": _with_layer(
        0, {"kind": "linear", "shape": [2, 3], "bias": False})},
    "declared bias without a value": {
        "layers": _with_layer(0, {"kind": "linear", "shape": [2, 3],
                                  "bias": True}),
        "params": _with_params({"0.bias": None})},
    "bias flag not a boolean": {"layers": _with_layer(
        0, {"kind": "linear", "shape": [2, 3], "bias": 1})},
    "mask of no param": {"mask": {"9.weight": [1] * 9}},
    "mask on a bias": {"mask": {"3.weight": [1] * 9, "0.bias": [1, 0, 1]}},
    "mask on the first linear layer": {"mask": {"0.weight": [1, 0] * 3}},
    "mask too long": {"mask": {"3.weight": [1, 0] * 5}},
    "negative mask entry": {"mask": {"3.weight": [1, -1, 1] * 3}},
    "fractional mask entry": {"mask": {"3.weight": [1, 0.5, 1] * 3}},
}


def test_cmd_cost_reads_the_well_formed_record(tmp_path):
    ckpt = tmp_path / "ok.ckpt"
    ckpt.write_text(json.dumps(_checkpoint_record()))
    assert main(["cost", "--ckpt", str(ckpt), "--out",
                 str(tmp_path / "cost.json")]) == 0
    from fedprune.sim import load_checkpoint
    net, mask, _ = load_checkpoint(ckpt)
    assert net.params()["1.scale"].tolist() == [2.0] * 3
    assert mask.counts() == (6, 9)


def test_cmd_cost_reads_a_linear_layer_declared_without_a_bias(tmp_path):
    # a spec without the key (every record above) has a bias
    from fedprune.sim import load_checkpoint
    ckpt = tmp_path / "ok.ckpt"
    ckpt.write_text(json.dumps(_checkpoint_record(
        layers=_with_layer(0, {"kind": "linear", "shape": [2, 3],
                               "bias": False}),
        params=_with_params({"0.bias": None}))))
    assert main(["cost", "--ckpt", str(ckpt), "--out",
                 str(tmp_path / "cost.json")]) == 0
    net, _, _ = load_checkpoint(ckpt)
    assert net.layers[0].bias is None
    assert net.layers[3].bias.tolist() == [0.0] * 3
    assert "0.bias" not in net.params()


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_cmd_cost_rejects_a_malformed_checkpoint_record(tmp_path, capsys,
                                                        case):
    bad = tmp_path / "bad.ckpt"
    bad.write_text(json.dumps(_checkpoint_record(
        **MALFORMED_CHECKPOINTS[case])))
    assert main(["cost", "--ckpt", str(bad)]) == 1
    assert "error: unreadable checkpoint" in capsys.readouterr().err


def test_checkpoint_bn_layers_record_no_constants_and_load_only_theirs(
        tmp_path, capsys):
    # save_checkpoint writes no BN momentum or epsilon; checkpoints written
    # before they became constants carry both, and load only at their values
    from fedprune.nn import make_mlp
    from fedprune.sim import load_checkpoint, save_checkpoint
    ckpt = tmp_path / "new.ckpt"
    save_checkpoint(ckpt, make_mlp(3, [4], 2, seed=0), None)
    assert [spec for spec in json.loads(ckpt.read_text())["layers"]
            if spec["kind"] == "batchnorm"] == [{"kind": "batchnorm",
                                                 "features": 4}]
    old = tmp_path / "old.ckpt"
    old.write_text(json.dumps(_checkpoint_record(layers=_with_layer(
        1, {"kind": "batchnorm", "features": 3, "momentum": 0.9,
            "eps": 1e-5}))))
    new = tmp_path / "ok.ckpt"
    new.write_text(json.dumps(_checkpoint_record()))
    (net, mask, _), (again, again_mask, _) = map(load_checkpoint, (old, new))
    assert net.flat.tobytes() == again.flat.tobytes()
    assert mask.slices.keys() == again_mask.slices.keys()
    for key, sl in mask.slices.items():
        assert sl.tobytes() == again_mask.slices[key].tobytes()
    for name, value in (("momentum", 0.5), ("eps", 1e-3)):
        spec = {"kind": "batchnorm", "features": 3, "momentum": 0.9,
                "eps": 1e-5, name: value}
        bad = tmp_path / f"bad-{name}.ckpt"
        bad.write_text(json.dumps(_checkpoint_record(
            layers=_with_layer(1, spec))))
        assert main(["cost", "--ckpt", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error: unreadable checkpoint" in err
        assert f"layer 1: BN {name} {value}" in err


def test_cmd_cost_reads_a_checkpoint_with_a_block_partition(config_file,
                                                             tmp_path):
    # checkpoints written before the schedule moved to prunable tensors
    # carry a "blocks" record; the loader ignores it
    out = tmp_path / "out"
    main(["run", "--config", str(config_file), "--out", str(out)])
    ckpt = next(out.glob("*/final.ckpt"))
    record = json.loads(ckpt.read_text())
    record["blocks"] = {"1": [0, 1], "2": [2, 3], "3": [4, 5], "4": [6, 7],
                        "5": [8, 9]}
    old = tmp_path / "old.ckpt"
    old.write_text(json.dumps(record))
    assert main(["cost", "--ckpt", str(old), "--out",
                 str(tmp_path / "cost.json")]) == 0
    from fedprune.sim import load_checkpoint
    net, mask, _ = load_checkpoint(old)
    again, again_mask, _ = load_checkpoint(ckpt)
    assert net.prunable_keys() == again.prunable_keys()
    assert mask.counts() == again_mask.counts()
