"""Smoke tests of the benchmark harness on tiny inputs.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import harness  # noqa: E402
from perfbench.run import result_lines, result_record  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _tiny_run(name: str, trace: bool) -> dict:
    # Seed 1 with one frame per scene file: not the pinned input.
    return harness.run_workload(ROOT, WORKLOADS[name], 1, 0.05, trace, n_frames=1)


def _check_metrics(result: dict, declared: list[dict]) -> None:
    record = result_record(result)
    assert record["correct"], result["problems"]
    assert record["failed"] == 0 and record["attempted"] > 0
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in record["metrics"].items()
    }
    table = result_lines({**result, "env": {}})
    for m in declared:
        assert any(
            line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in table
        ), m["name"]
    json.dumps(record, allow_nan=False)


def test_workloads_match_benchmark_json():
    gated = {w["name"] for w in BENCHMARK["workloads"]}
    assert gated <= set(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in BENCHMARK["workloads"])
    assert harness.END_TO_END_UNITS == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_and_tracing_keeps_outputs(name):
    untraced = _tiny_run(name, trace=False)
    _check_metrics(untraced, BENCHMARK["end_to_end"])
    assert "error_frac" in untraced["extra"]
    traced = _tiny_run(name, trace=True)
    _check_metrics(traced, BENCHMARK["per_layer"])
    # Tracing on and off: the same detections, reports and counts.
    assert traced["digests"] == untraced["digests"]
    assert traced["counts"] == untraced["counts"]


def test_malformed_frame_is_counted_not_fatal(monkeypatch):
    real_synth = harness.synth_scene

    def synth_with_bad_frame(cfg):
        frames = real_synth(cfg)
        # A depth inside the frustum gate floor: association raises InvalidDetection.
        frames[-1].detections[0].depth = 0.3
        return frames

    monkeypatch.setattr(harness, "synth_scene", synth_with_bad_frame)
    result = harness.run_workload(ROOT, WORKLOADS["dense-handcrafted"], 1, 0.05, False, n_frames=2)
    tally = result["tally"]
    # Every pass over the frames fails once, and so does each `rcdet run`.
    assert tally.failed >= 2
    assert result["extra"]["error_frac"].value == tally.failed / tally.attempted > 0
    assert "frame_ms_p50" in result["metrics"]
    assert not result_record(result)["correct"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path),
            tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", "dense-handcrafted", "--seed", "0"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_frame_pass_times_references_around_every_frame():
    workload = WORKLOADS["lite-2w"]
    frames = harness.synth_scene(workload.synth_config(1, 1))[:2]
    host = harness.HostSamples(workload.reference)
    tally = harness.Tally()
    net = workload.network()
    samples = harness.frame_pass(frames, workload.pipeline_config(), net, tally, host=host)
    assert len(samples) == len(host.ratios) == 2 and len(host.ref_ns) == 3
    for latency, ratio, before, after in zip(samples, host.ratios, host.ref_ns, host.ref_ns[1:]):
        assert ratio == latency / ((before + after) / 2)
