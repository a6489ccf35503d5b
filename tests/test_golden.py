"""Each algorithm's smoke run reproduces its committed golden record:
keys, integers and winners exactly, floats to ``golden.REL_TOL``.
``scripts/golden.py --write`` regenerates the records."""

import importlib.util
import json
from pathlib import Path

import pytest

from fedprune import sim
from fedprune.selection import CHUNK
from fedprune.sim import ALGORITHMS, ExperimentConfig

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_smoke_run_matches_its_golden_record(algorithm, tmp_path):
    want = json.loads((golden.GOLDEN / f"{algorithm}.json").read_text(
        encoding="utf-8"))
    got = golden.record(algorithm, tmp_path / algorithm)
    assert golden.compare(want, got) == []


def test_the_smoke_pool_spans_two_selection_chunks(monkeypatch):
    # selection stacks each distinct mask once, so the smoke pool spans two
    # chunks only while its candidates' masks all differ
    pools = []
    draw = sim.generate_candidate_pool
    monkeypatch.setattr(sim, "generate_candidate_pool",
                        lambda *a, **kw: pools.append(draw(*a, **kw))
                        or pools[-1])
    sim.setup_experiment(ExperimentConfig(algorithm="AdaptiveBNOnly",
                                          **golden.SMOKE))
    [pool] = pools
    masks = {tuple((key, m.tobytes()) for key, m in
                   sorted(pool.mask(i).slices.items()))
             for i in range(len(pool))}
    assert len(pool) == len(masks) == golden.SMOKE["pool_size"] > CHUNK


def test_compare_is_exact_but_for_float_rounding():
    want = {"n": 3, "x": 2.0, "winner": 1, "keys": ["3.weight"],
            "environment": {"numpy": "1"}}
    assert golden.compare(want, dict(want, x=2.0 * (1 + 1e-12),
                                     environment={"numpy": "2"})) == []
    for changed in ({"n": 4}, {"n": 3.0}, {"x": 2.0 * (1 + 1e-8)},
                    {"winner": 2}, {"keys": ["6.weight"]}, {"keys": []}):
        assert golden.compare(want, dict(want, **changed)), changed
    assert golden.compare(want, {k: v for k, v in want.items() if k != "n"})
