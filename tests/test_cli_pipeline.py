"""CLI subcommands, the pipeline wrapper, and the association benchmark."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from rcdet.bench import bench_association, format_bench, random_association_inputs
from rcdet.cli import main
from rcdet.errors import ResultMismatch
from rcdet.kpconv import build_network
from rcdet.metrics import evaluate
from rcdet.pipeline import PipelineConfig, process_frame, run_scenes
from rcdet.scene_io import SynthConfig, load_detections, save_scenes, synth_scene


def _write_scene(tmp_path, **kwargs) -> str:
    cfg = SynthConfig(**kwargs)
    path = str(tmp_path / "scenes.jsonl")
    save_scenes(path, synth_scene(cfg))
    return path


# -- pipeline API -------------------------------------------------------------


def test_process_frame_feature_strategies(tmp_path):
    frames = synth_scene(SynthConfig(seed=5, n_frames=1, objects_min=2, objects_max=2))
    net = build_network("lite", seed=0)
    handcrafted = process_frame(frames[0], PipelineConfig())
    learned = process_frame(frames[0], PipelineConfig(feature_strategy="learned"), net)
    hybrid = process_frame(frames[0], PipelineConfig(feature_strategy="hybrid"), net)
    assert handcrafted.radar_heatmap.channels == 13
    assert learned.radar_heatmap.channels == 64
    assert hybrid.radar_heatmap.channels == 77
    assert len(handcrafted.detections) == 2


def test_process_frame_learned_requires_net(tmp_path):
    frames = synth_scene(SynthConfig(seed=5, n_frames=1))
    with pytest.raises(ValueError):
        process_frame(frames[0], PipelineConfig(feature_strategy="learned"))


@pytest.mark.parametrize(
    "strategy,variant,synth",
    [
        ("learned", "lite", SynthConfig(seed=8, n_frames=6, objects_max=3)),
        # A small camera keeps the 1037-channel heatmaps small, and 30-40
        # point clusters make the KPConv GEMMs big enough for BLAS threads.
        (
            "hybrid",
            "large",
            SynthConfig(
                seed=8, n_frames=3, objects_max=3, points_per_object_min=30,
                points_per_object_max=40, image_size=(200, 112), focal=125.0,
            ),
        ),
    ],
    ids=["learned-lite", "hybrid-large"],
)
def test_run_scenes_worker_pool_matches_serial(strategy, variant, synth):
    frames = synth_scene(synth)
    net = build_network(variant, seed=0)
    cfg = PipelineConfig(feature_strategy=strategy)
    serial = run_scenes(frames, cfg, net, workers=1)
    pooled = run_scenes(list(reversed(frames)), cfg, net, workers=4)
    assert [r.frame_id for r in pooled] == [r.frame_id for r in serial]
    for a, b in zip(serial, pooled):
        assert len(a.detections) == len(b.detections)
        for da, db in zip(a.detections, b.detections):
            assert da.score == db.score
            assert np.array_equal(da.box.center, db.box.center)
        assert np.array_equal(a.radar_heatmap.values, b.radar_heatmap.values)


# -- CLI ----------------------------------------------------------------------


def test_cli_synth_run_eval_noiseless(tmp_path, capsys):
    config_path = tmp_path / "synth.json"
    config_path.write_text(json.dumps({"seed": 11, "n_frames": 5, "objects_max": 3}))
    scenes = str(tmp_path / "scenes.jsonl")
    dets = str(tmp_path / "dets.jsonl")
    report = str(tmp_path / "report.txt")

    assert main(["synth", "--config", str(config_path), "--out", scenes]) == 0
    assert main(["run", "--scenes", scenes, "--features", "handcrafted", "--out", dets]) == 0
    assert main(["eval", "--dets", dets, "--gt", scenes, "--report", report]) == 0

    output = capsys.readouterr().out
    assert "NDS" in output
    values = dict(
        line.split("=", 1) for line in open(report).read().splitlines() if "=" in line
    )
    assert float(values["NDS"]) > 1.0 - 1e-9
    assert float(values["mAP"]) == 1.0


def test_cli_run_learned_with_checkpoint(tmp_path):
    scenes = _write_scene(tmp_path, seed=3, n_frames=2, objects_max=2)
    dets = str(tmp_path / "dets.jsonl")
    weights = str(tmp_path / "net.rckp")
    code = main(
        [
            "run", "--scenes", scenes, "--features", "learned", "--net", "lite",
            "--out", dets, "--save-net-weights", weights,
        ]
    )
    assert code == 0
    assert os.path.exists(weights)
    rerun = str(tmp_path / "dets2.jsonl")
    assert main(
        ["run", "--scenes", scenes, "--features", "learned", "--net-weights", weights, "--out", rerun]
    ) == 0
    assert load_detections(dets) is not None
    assert open(dets).read() == open(rerun).read()


def test_cli_dump_bev(tmp_path):
    scenes = _write_scene(tmp_path, seed=6, n_frames=2, objects_max=2)
    dets = str(tmp_path / "dets.jsonl")
    bev = str(tmp_path / "bev.jsonl")
    assert main(["run", "--scenes", scenes, "--out", dets, "--dump-bev", bev]) == 0
    lines = [json.loads(line) for line in open(bev).read().splitlines()]
    assert len(lines) == 2
    for record in lines:
        assert {"frame_id", "boxes", "clusters"} <= set(record)
        for box in record["boxes"]:
            assert len(box["footprint"]) == 4


def test_cli_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--no-such-flag"])
    assert exc.value.code == 2


def test_cli_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_data_error_exits_1(tmp_path, capsys):
    assert main(["run", "--scenes", str(tmp_path / "missing.jsonl"), "--out", "x"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_eval_without_ground_truth_exits_1(tmp_path, capsys):
    scenes = _write_scene(tmp_path, seed=2, n_frames=1, objects_min=0, objects_max=0)
    dets = str(tmp_path / "dets.jsonl")
    assert main(["run", "--scenes", scenes, "--out", dets]) == 0
    assert main(["eval", "--dets", dets, "--gt", scenes, "--report", str(tmp_path / "r")]) == 1


def test_cli_eval_rejects_unknown_frames(tmp_path):
    scenes = _write_scene(tmp_path, seed=2, n_frames=1, objects_max=2)
    dets = str(tmp_path / "dets.jsonl")
    assert main(["run", "--scenes", scenes, "--out", dets]) == 0
    other = _write_scene(tmp_path, seed=2, n_frames=1, objects_max=2)
    records = open(dets).read().splitlines()
    payload = json.loads(records[1])
    payload["frame_id"] = 42
    with open(dets, "w") as fh:
        fh.write(records[0] + "\n" + json.dumps(payload) + "\n")
    assert main(["eval", "--dets", dets, "--gt", scenes, "--report", str(tmp_path / "r")]) == 1


def test_cli_bench_smoke(capsys):
    assert main(["bench", "--points", "50", "--dets", "5", "--iters", "2"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out


def test_cli_synth_rejects_unknown_config_key(tmp_path, capsys):
    config_path = tmp_path / "synth.json"
    config_path.write_text(json.dumps({"bogus_knob": 3}))
    assert main(["synth", "--config", str(config_path), "--out", str(tmp_path / "s")]) == 1


def test_workers_env_override(monkeypatch):
    from rcdet.pipeline import default_workers

    monkeypatch.setenv("RCDET_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("RCDET_WORKERS", "not-a-number")
    assert default_workers() == 1
    monkeypatch.delenv("RCDET_WORKERS")
    assert default_workers() == 1


# -- benchmark -----------------------------------------------------------------


def test_bench_tiny_input_reports():
    report = bench_association(2, 2, iters=1, seed=0)
    assert report.n_points == 2 and report.n_dets == 2
    assert report.batched_mean_s > 0 and report.naive_mean_s > 0
    assert "speedup" in format_bench(report)


def test_bench_inputs_reproducible():
    points_a, dets_a, _ = random_association_inputs(20, 3, seed=5)
    points_b, dets_b, _ = random_association_inputs(20, 3, seed=5)
    assert all(
        np.array_equal(a.position, b.position) for a, b in zip(points_a, points_b)
    )
    assert all(a.depth == b.depth for a, b in zip(dets_a, dets_b))


def test_bench_paths_agree_on_moderate_input():
    # bench_association raises ResultMismatch internally if the two
    # implementations disagree; completing without it is the assertion.
    report = bench_association(200, 20, iters=1, seed=3)
    assert report.speedup > 0
