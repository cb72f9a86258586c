"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench -q          # quick tests (slow ones deselected)
    python3 -m pytest perfbench -q -m ""    # everything, about 7 minutes

The slow tests run every workload once, untraced and traced, through the
real command and check that each metric ``BENCHMARK.json`` names comes out
with its unit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from layers import LAYER_UNITS, Hooks  # noqa: E402
from workloads import WORKLOADS, batch_digest, fuzz_batch  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, env=None, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_emits_every_metric_with_its_unit(workload, trace):
    out = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def _engine_fingerprint_run():
    """Simulated results of a short FIB run (no hooks involved)."""
    from repro.engine import Engine, EngineConfig
    from repro.suite import get_benchmark

    engine = Engine(EngineConfig(target="arm64"))
    engine.load(get_benchmark("FIB").source)
    engine.call_global("setup")
    values = [engine.call_global("run") for _ in range(12)]
    engine.run_gc()
    return (
        values,
        engine.total_cycles,
        dict(engine.buckets),
        engine.compilations,
        engine.executor.stats.snapshot(),
        engine.typed_check_stats(),
        engine.trace_stats(),
    )


def test_traced_hooks_are_removed_and_leave_results_unchanged(tmp_path):
    import repro.engine
    import repro.exec.scheduler
    import repro.interpreter.interpreter
    import repro.machine.blockjit
    import repro.suite.runner

    before = _engine_fingerprint_run()
    bindings = {
        "call_global": repro.engine.Engine.__dict__["call_global"],
        "engine_init": repro.engine.Engine.__dict__["__init__"],
        "interp_run": repro.interpreter.interpreter.Interpreter.__dict__["run"],
        "runner_run": repro.suite.runner.BenchmarkRunner.__dict__["run"],
        "compute_cell": repro.exec.scheduler.compute_cell,
        "build_graph": repro.engine.build_graph,
        "compile_source": repro.engine.compile_source,
    }
    hooks = Hooks(traced=True, spool_dir=str(tmp_path)).install()
    try:
        assert repro.engine.Engine.__dict__["call_global"] is not bindings["call_global"]
        assert repro.engine.build_graph is not bindings["build_graph"]
        traced = _engine_fingerprint_run()
        hooks.harvest()
    finally:
        hooks.uninstall()
    assert traced == before
    assert hooks.counts["jit.compilations"] == before[3]
    assert hooks.self_s["interpreter.self_s"] > 0
    assert repro.engine.Engine.__dict__["call_global"] is bindings["call_global"]
    assert repro.engine.Engine.__dict__["__init__"] is bindings["engine_init"]
    assert repro.interpreter.interpreter.Interpreter.__dict__["run"] is bindings["interp_run"]
    assert repro.suite.runner.BenchmarkRunner.__dict__["run"] is bindings["runner_run"]
    assert repro.exec.scheduler.compute_cell is bindings["compute_cell"]
    assert repro.engine.build_graph is bindings["build_graph"]
    assert repro.engine.compile_source is bindings["compile_source"]
    assert "compile" not in vars(repro.machine.blockjit)
    assert _engine_fingerprint_run() == before


def test_timed_work_is_scaled_to_the_reference_speed(monkeypatch):
    """A host on which the probe takes twice the reference time reports
    the timed work at half its wall time, without the probes' own time."""
    import time

    import layers
    from repro.engine import Engine, EngineConfig
    from repro.suite import get_benchmark

    monkeypatch.setattr(layers, "probe", lambda: time.sleep(2 * layers.PROBE_REF_MS / 1e3))
    engine = Engine(EngineConfig(target="arm64"))
    engine.load(get_benchmark("FIB").source)
    engine.call_global("setup")
    hooks = Hooks(traced=False).install()
    try:
        engine.call_global("run")  # set-up: neither probed nor timed
        assert hooks.probe_s == 0 and hooks.iter_ms == []
        hooks.start_timing()
        began = time.perf_counter()
        for _ in range(5):
            engine.call_global("run")
        ended = time.perf_counter()
        hooks.stop_timing(ended)
    finally:
        hooks.uninstall()
    speed = hooks.scaled_s / hooks.busy_s
    assert 0.4 < speed <= 0.5
    assert len(hooks.iter_ms) == 1 and len(hooks.iter_ms[0]) == 5
    assert hooks.busy_s == pytest.approx(ended - began - hooks.probe_s, abs=1e-3)
    assert hooks.scaled_wall(ended - began, jobs=2) == pytest.approx(hooks.scaled_s, rel=1e-3)


def test_fuzz_batch_is_byte_identical_across_processes():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from workloads import batch_digest, fuzz_batch\n"
        "print(batch_digest(fuzz_batch()))\n"
    )
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", script, str(HERE), str(ROOT / "src")],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.add(out.stdout.strip())
    assert digests == {batch_digest(fuzz_batch())}


@pytest.mark.parametrize("knob", ["REPRO_LBBV", "REPRO_VERIFY", "REPRO_CHAOS_EXEC", "REPRO_TRACEJIT_HOT"])
def test_inherited_engine_knobs_are_refused(knob):
    env = dict(os.environ, **{knob: "1"})
    out = _bench("--workload", "steady", "--seed", "1", "--seconds", "1", env=env)
    assert out.returncode == 2
    assert knob in out.stderr
    assert out.stdout == ""


def test_fails_without_the_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "figures", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_exactness_mismatch_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "STATE", tmp_path)

    def record(cycles, traced=False, calls=5):
        return {
            "exact": {"sim_cycles_per_iter": cycles, "attempted": 3, "failed": 0},
            "fingerprint": "f" * 64,
            "traced": traced,
            "layers": {"runtime.calls": calls, "runtime.self_s": 0.1 * calls},
        }

    class Args:
        workload = "fuzz"
        seed = 1

    assert bench.exactness_errors(Args, [record(10.0), record(10.0)]) == []
    assert bench.exactness_errors(Args, [record(10.0), record(10.5)])
    # a later run of the same engine and seed must repeat the first one
    assert bench.exactness_errors(Args, [record(10.5)])
    traced = [record(10.0, True, 5), record(10.0), record(10.0, True, 6)]
    assert bench.exactness_errors(Args, traced)
    # a changed benchmark starts a new record instead of contradicting the old one
    monkeypatch.setattr(bench, "benchmark_digest", lambda: "e" * 64)
    assert bench.exactness_errors(Args, [record(10.5)]) == []
    assert bench.exactness_errors(Args, [record(11.0)])


def test_cells_served_without_computing_are_not_counted_as_computed(tmp_path):
    from repro.exec.cells import RunCell
    import repro.exec.scheduler
    import layers

    ok = RunCell("timed", "FIB", "arm64", 10)
    broken = RunCell("timed", "FIB", "arm64", 10, rep=1)

    def compute_cell(cell):
        if cell is broken:
            raise RuntimeError("cell failed")
        return "result"

    hooks = Hooks(traced=False, spool_dir=str(tmp_path)).install()
    try:
        hooks.compute_cell = compute_cell
        assert repro.exec.scheduler.compute_cell(ok) == "result"
        with pytest.raises(RuntimeError):
            layers._spooled_compute_cell(broken)
    finally:
        hooks.uninstall()
    assert hooks.cells == 2
    assert hooks.computed == [ok.key()]
