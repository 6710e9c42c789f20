"""The benchmark's own tests, at the seconds-long "tiny" size.

Run from the repository root: python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("pipeline", "score-corpus", "predict-one")


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def run_tiny(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict, str]:
    """(last stdout line as JSON, result file, full stdout) of one tiny run."""
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    result = json.loads(run.result_path(workload, seed, trace, "tiny").read_text())
    return last, result, done.stdout


@pytest.fixture(scope="module")
def tiny_runs():
    return {(w, t): run_tiny(w, t) for w in WORKLOADS for t in (0, 1)}


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(tiny_runs, workload):
    last, result, stdout = tiny_runs[(workload, 0)]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in last["metrics"].values())
    lines = stdout.splitlines()
    for name, unit, workloads in run.NAMED:
        if workload in workloads:
            assert any(line.split()[:1] == [name] and f" {unit}" in line for line in lines), name
    context = result["context"]
    for key in ("nproc", "python", "numpy", "blas", "blas_threads", "git_sha", "seed", "src_lines"):
        assert key in context
    assert context["src_lines"] > 0 and result["digests"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_leaves_outputs_alone(tiny_runs, workload):
    last, traced, _ = tiny_runs[(workload, 1)]
    _, plain, _ = tiny_runs[(workload, 0)]
    assert last["correct"] is True
    assert {k: v["unit"] for k, v in last["metrics"].items()} == dict(tracing.PER_LAYER)
    assert last["metrics"]["moe.forward_batch_calls"]["value"] > 0
    assert traced["digests"] == plain["digests"]


def test_traced_counts_are_exact():
    first, _, _ = run_tiny("predict-one", 1, seed=5)
    second, _, _ = run_tiny("predict-one", 1, seed=5)
    counts = {k for k, unit in tracing.PER_LAYER if unit == "count"}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_wrappers_cover_by_name_imports_and_are_removed():
    import taxpath.infer
    import taxpath.moe
    import taxpath.semantic
    import taxpath.train

    originals = (taxpath.moe.forward_batch, taxpath.train.predict_batch,
                 taxpath.semantic.JudgeModel.__dict__["judge"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert taxpath.train.forward_batch is taxpath.moe.forward_batch
        assert taxpath.moe.forward_batch is not originals[0]
        assert taxpath.train.predict_batch is taxpath.infer.predict_batch is not originals[1]
        assert tracing.wrapped_attributes()
    finally:
        tracer.uninstall()
    assert tracing.wrapped_attributes() == []
    assert (taxpath.moe.forward_batch, taxpath.train.predict_batch,
            taxpath.semantic.JudgeModel.__dict__["judge"]) == originals
    assert taxpath.train.forward_batch is originals[0]


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    total, self_s = tracer.totals()
    assert total == {"a": 10.0, "b": 4.0, "c": 1.0}
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_host_speed_scales_by_the_probes_inside_an_interval():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REF_S
    speed.at, speed.took = [1.0, 2.0, 3.0], [ref, 2 * ref, 2 * ref]
    assert speed.slowdown(1.5, 3.5) == pytest.approx(2.0)
    assert speed.corrected(0.5, 1.5) == pytest.approx(1.0)  # one probe inside, at full speed
    assert speed.slowdown(3.2, 3.4) == pytest.approx(2.0)  # none inside: the nearest one
    assert speed.slowdown(1.1, 1.2) == pytest.approx(1.0)


def test_probe_landing_inside_a_probe_is_dropped(monkeypatch):
    speed = hostspeed.HostSpeed()
    loop = hostspeed._loop
    entered = []

    def loop_with_signal():  # a timer signal arrives during the first pass
        entered.append(1)
        if len(entered) == 1:
            speed.probe()
        loop()

    monkeypatch.setattr(hostspeed, "_loop", loop_with_signal)
    speed.probe()
    assert len(speed.at) == len(speed.took) == 1 and len(entered) == 2


def test_host_speed_timer_probes_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        speed.stop()
    assert len(speed.took) >= 2 and speed.at == sorted(speed.at)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_compare_lists_differing_digests(tiny_runs, tmp_path):
    result = tiny_runs[("pipeline", 0)][1]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result))
    b.write_text(json.dumps(result))
    assert bench("--compare", str(a), str(b)).returncode == 0
    name = sorted(result["digests"])[0]
    result["digests"][name] = "0" * 64
    b.write_text(json.dumps(result))
    done = bench("--compare", str(a), str(b))
    assert done.returncode == 1 and name in done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "pipeline", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
