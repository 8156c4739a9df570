"""Tests of the benchmark itself; they are not part of the tier-1 suite.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import greenstock  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_parse_importtime_counts_the_subtree_of_the_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        50 |         50 |     numpy.core",
        "import time:       200 |        250 |   numpy",
        "import time:        10 |        260 | greenstock.allocation",
        "import time:        30 |         30 |   scipy.special",
        "import time:        20 |         50 | greenstock.simulate",
        "import time:         5 |        315 | greenstock",
    ]).replace("| greenstock.", "|   greenstock.")
    got = tracing.parse_importtime(stderr)
    assert got["greenstock.import.modules"] == 6
    assert got["greenstock.import_s"] == pytest.approx(315e-6)
    assert got["greenstock.import.numpy_s"] == pytest.approx(250e-6)
    assert got["greenstock.import.scipy_special_s"] == pytest.approx(30e-6)
    assert got["greenstock.import.scipy_stats_s"] == 0.0


def test_install_then_restore_leaves_every_binding_as_it_was():
    from greenstock import cli, game
    before = (game.rps_best_response, cli.nash_equilibrium, dict(cli.SCENARIOS),
              greenstock.simulate, greenstock.TruncatedNormal.sample)
    restore = tracing.Tracer().install(greenstock)
    assert game.rps_best_response is not before[0]
    assert game.rps_best_response.__wrapped__ is before[0]
    assert cli.SCENARIOS["nash"][1].__wrapped__ is before[2]["nash"][1]
    restore()
    after = (game.rps_best_response, cli.nash_equilibrium, dict(cli.SCENARIOS),
             greenstock.simulate, greenstock.TruncatedNormal.sample)
    assert after == before


def test_a_span_that_never_fired_fails_loudly():
    with pytest.raises(tracing.SpanNeverFired):
        tracing.Snapshot().calls("game.rps_best_response")


def _counts(name):
    if name == "import":
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return layers.import_metrics(sys.executable, env)
    ops, plain, traced = layers.traced_workload(greenstock, name, SEED)
    assert plain.problems == [] and traced.problems == []
    if name == "game-sweep":
        return layers.game_metrics(ops, plain, traced)
    if name == "audit":
        return layers.allocation_metrics(ops, plain, traced)
    draws = tracing.Snapshot.total(traced.snaps)
    return {f"simulate.{label}.accept_ratio": draws.draw(label)[0] / draws.draw(label)[1]
            for label in ("truncnorm", "truncnorm-deep")}


@pytest.mark.parametrize("name", ["import", "game-sweep", "audit", "sim-short"])
def test_fixed_counts_repeat_exactly(name):
    first, second = _counts(name), _counts(name)
    fixed = [key for key in layers.FIXED_COUNTS if key in first]
    assert fixed
    assert {k: first[k] for k in fixed} == {k: second[k] for k in fixed}
    if name == "audit":
        assert first["allocation.mechanism_calls"] == 33_768
        assert first["allocation.post_allocation_cost.calls"] == 33_768
        assert first["allocation.breakeven_rate.calls"] == 270_144
        assert first["allocation.breakeven_rate.useful_ratio"] == 8 / 270_144
    if name == "sim-short":
        assert round(first["simulate.truncnorm.accept_ratio"], 3) == 0.958
        assert round(first["simulate.truncnorm-deep.accept_ratio"], 3) == 0.031


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "game-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
