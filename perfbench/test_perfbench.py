"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_smoke_runs_every_workload_with_checks():
    proc = _run(["--smoke", "--seed", "5"], ROOT)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in BENCH["workloads"]:
        for metric in BENCH["end_to_end"]:
            value = result["metrics"][f"{workload['name']}/{metric['name']}"]
            assert value["unit"] == metric["unit"] and value["value"] > 0
    for metric in BENCH["per_layer"]:
        assert proc.stdout.count(f"  {metric['name']} ") == len(BENCH["workloads"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "smp-multicopy", "--seed", "0", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_records_nested_spans_and_restores_entry_points():
    import dqipe.estimators as est
    import dqipe.symmetric as sym
    from dqipe.rng import RngStream

    before = (est.standard_povm_sample, sym.standard_povm_sample, RngStream.child)
    t = tracer.Tracer().install()
    try:
        phi, psi = est.make_state_pair(4, 0.5, RngStream(1, (0,)))
        est.multicopy_estimate(phi, psi, 3, RngStream(1, (1,)))
    finally:
        t.uninstall()
    assert (est.standard_povm_sample, sym.standard_povm_sample, RngStream.child) == before

    names = {sid: name for sid, _, name, *_ in t.spans}
    outer = next(sid for sid, name in names.items() if name == "estimators.multicopy_estimate")
    children = [names[sid] for sid, parent, *_ in t.spans if parent == outer]
    assert children.count("symmetric.standard_povm_sample") == 2
    assert "rng.RngStream.child" in children
    metrics = tracer.layer_metrics(t, trials=1)
    assert metrics["symmetric.povm_sample_us"] > 0
    assert metrics["wire.frames_per_trial"] == 0.0
    assert "wire.encode_us" not in metrics  # no call, so no time


def test_self_time_subtracts_direct_children_only():
    spans = [  # (id, parent, name, start, end, thread)
        (2, 1, "wire.encode_frame", 1.0, 2.0, 0),
        (1, 0, "protocol.run_protocol", 0.5, 3.0, 0),
        (0, -1, "cli.main", 0.0, 4.0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx({0: 1.5, 1: 1.5, 2: 1.0})
    assert tracer.layer_self_s(spans)["protocol"] == pytest.approx(1.5)


def test_norm_metrics_divide_out_each_repetitions_slowdown():
    import reference
    import run

    ref = reference.REFERENCE_S
    reps = [{"traced": False, "wall_s": wall, "trials": 100, "runs": [],
             "reference_s": {"python": [slow * ref["python"]] * 4, "numpy": [slow * ref["numpy"]] * 4}}
            for wall, slow in ((3.0, 1.0), (4.0, 2.0), (5.0, 4.0))]
    worker = {"setup_s": 1.0, "peak_rss_mb": 50.0, "reps": reps}
    stats = run.end_to_end({"setups": [], "worker": worker})
    assert stats["slowdown"]["median"] == pytest.approx(2.0)
    assert stats["wall_s"]["median"] == pytest.approx(4.0)
    assert stats["norm_wall_s"]["median"] == pytest.approx(2.0)  # median of 3, 2, 1.25
    assert stats["norm_trials_per_s"]["median"] == pytest.approx(50.0)
    assert reference.slowdown({"python": [ref["python"]], "numpy": [4 * ref["numpy"]]}) == pytest.approx(2.0)
    times = reference.Reference(tuple(ref)).sample()
    assert {name: len(t) for name, t in times.items()} == {name: reference.SAMPLES for name in ref}
