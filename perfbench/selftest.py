"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

Each workload runs once untraced and twice traced at the default config, which
takes about five minutes on 2 vCPUs; the file is named so that the repo's own
test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import harness
import tracer as tracing

WORKLOADS = list(harness.WORKLOADS)


@pytest.fixture(scope="module")
def runs():
    """runs(name) -> (untraced result, [traced result, traced result]), memoized."""
    done = {}

    def get(name):
        if name not in done:
            plain = harness.run_workload(name, None, 0, trace=False)
            traced = [harness.run_workload(name, None, 0, trace=True) for _ in range(2)]
            done[name] = (plain, traced)
        return done[name]

    return get


def _counts(layers: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in layers.items() if k.rsplit(".", 1)[-1] not in ("s", "self_s")}


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_check_passes(runs, name):
    plain, traced = runs(name)
    for result in (plain, *traced):
        assert result.failures == []
        assert result.attempted > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_layers_cover_each_timed_stage(runs, name):
    _, traced = runs(name)
    for result in traced:
        cov = harness.coverage(result)
        assert set(cov) == {s.name for s in harness.WORKLOADS[name].stages}
        assert min(cov.values()) >= 0.9, cov


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_artifacts_match_untraced(runs, name):
    plain, traced = runs(name)
    assert plain.artifacts
    for result in traced:
        assert result.artifacts == plain.artifacts


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_across_traced_runs(runs, name):
    _, (first, second) = runs(name)
    assert first.stage_layers.keys() == second.stage_layers.keys()
    for stage in first.stage_layers:
        assert _counts(first.stage_layers[stage]) == _counts(second.stage_layers[stage]), stage


def test_lift_dominates_select_re(runs):
    _, traced = runs("gauss-select")
    for result in traced:
        layers = result.stage_layers["select_re"]
        self_times = {k: v for k, v in layers.items() if k.endswith(".self_s")}
        assert max(self_times, key=self_times.get) == "project.lift.self_s"
        assert layers["project.lift.s"] > 0.5 * result.traced_stage_s["select_re"]


def test_meta_train_dominates_addition(runs):
    _, traced = runs("addition")
    for result in traced:
        layers = result.stage_layers["addition"]
        assert layers["trainer.meta_train.s"] > 0.5 * result.traced_stage_s["addition"]
        assert layers.get("project.lift.calls", 0) == 0


def test_tracer_wraps_every_binding_and_restores():
    harness.load_program()
    import gradsel.cli as cli
    import gradsel.estimate as est
    import gradsel.select as sel
    import gradsel.trainer as trainer
    import gradsel.bench as bench

    originals = (trainer.eval_loss, trainer.meta_train, cli.build_cache)
    t = tracing.Tracer()
    with t.installed():
        wrapped = trainer.eval_loss
        assert wrapped is not originals[0]
        assert est.eval_loss is sel.eval_loss is bench.eval_loss is wrapped
        assert cli.meta_train is bench.meta_train is trainer.meta_train is not originals[1]
        assert cli.build_cache is bench.build_cache is not originals[2]
    assert (trainer.eval_loss, trainer.meta_train, cli.build_cache) == originals
    assert est.eval_loss is originals[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *bench["command"][1:], "--workload", "gauss-select", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
