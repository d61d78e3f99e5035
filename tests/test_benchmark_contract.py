"""The benchmark's view of the library: ``perfbench`` imports ``rcdet`` names
and replays ``process_frame`` stage by stage to time it. The replay must keep
importing and keep computing what ``process_frame`` computes, bit for bit,
or every benchmark run reports incorrect output. At its default seed the
benchmark also refuses to run unless ``synth_scene`` and ``save_scenes``
write the scene files whose sha256 it pins."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import perfbench.harness  # noqa: E402  (imports every rcdet name the benchmark uses)
from perfbench.probe import CLI_CALLS  # noqa: E402
from perfbench.tracing import Tracer, traced_process_frame  # noqa: E402
from rcdet import cli  # noqa: E402
from rcdet.cli import main  # noqa: E402
from rcdet.decoder import DetectionBox3D  # noqa: E402
from rcdet.kpconv import build_network  # noqa: E402
from rcdet.pipeline import PipelineConfig, process_frame  # noqa: E402
from rcdet.radar import accumulate_sweeps, associate, associate_naive, range_filter  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402
from rcdet.scene_io import (  # noqa: E402
    SynthConfig,
    load_detections,
    load_scenes,
    save_detections,
    save_scenes,
    synth_scene,
)


def _box_bits(detections) -> list[tuple]:
    return [
        (
            d.box.center.tobytes(),
            d.box.dims.tobytes(),
            d.box.velocity.tobytes(),
            np.float64(d.box.yaw).tobytes(),
            d.class_id,
            np.float64(d.score).tobytes(),
            d.attribute,
        )
        for d in detections
    ]


@pytest.mark.parametrize("strategy", ["handcrafted", "learned", "hybrid"])
def test_traced_replay_matches_process_frame(strategy):
    frames = synth_scene(
        SynthConfig(
            seed=3, n_frames=3, objects_min=2, objects_max=5, points_per_object_max=20,
            clutter_density=0.05, n_sweeps=3, depth_noise=0.3, bbox_jitter=2.0,
        )
    )
    cfg = PipelineConfig(feature_strategy=strategy)
    net = None if strategy == "handcrafted" else build_network("lite", seed=0)
    tracer = Tracer()
    kept = 0
    for frame in frames:
        result = process_frame(frame, cfg, net)
        kept += len(result.detections)
        replay = traced_process_frame(frame, cfg, net, tracer)
        assert result.detections
        assert _box_bits(replay.detections) == _box_bits(result.detections)
        expected, traced = result.radar_heatmap, replay.radar_heatmap
        assert traced.owner.dtype == expected.owner.dtype
        assert traced.owner.tobytes() == expected.owner.tobytes()
        assert traced.rows.shape == expected.rows.shape
        assert traced.rows.tobytes() == expected.rows.tobytes()
    assert tracer.counts["decoder.kept"] == kept


@pytest.fixture(scope="module")
def workload_frames():
    """A workload's frames at the benchmark's default seed, generated once
    per module."""
    made = {}

    def frames(name: str) -> list:
        if name not in made:
            workload = WORKLOADS[name]
            made[name] = synth_scene(workload.synth_config(DEFAULT_SEED, workload.n_frames))
        return made[name]

    return frames


@pytest.fixture(scope="module")
def scene_files(tmp_path_factory, workload_frames):
    """A workload's scene files at the benchmark's default seed, written as
    it writes them: one file of ``n_frames`` frames per clip. Each workload
    is written once per module."""
    written = {}

    def files(name: str) -> list[str]:
        if name not in written:
            workload, folder = WORKLOADS[name], tmp_path_factory.mktemp(name)
            n, frames = workload.n_frames, workload_frames(name)
            written[name] = [str(folder / f"scene{i}.jsonl") for i in range(workload.clips)]
            for i, path in enumerate(written[name]):
                save_scenes(path, frames[i * n : (i + 1) * n])
        return written[name]

    return files


@pytest.mark.parametrize("name", ["lite-2w", "hybrid-large", "dense-handcrafted"])
def test_scene_files_match_pinned_digests(scene_files, name):
    digests = [perfbench.harness.sha256_file(path) for path in scene_files(name)]
    assert digests == perfbench.harness.load_digests()[name]["scene_sha256"]


@pytest.mark.parametrize("name", ["lite-2w", "hybrid-large", "dense-handcrafted"])
def test_parsed_sweeps_are_the_generated_bits(scene_files, workload_frames, name):
    """Every seed-0 scene file parses back to the generated frames' sweep
    timestamps and row tables, bit for bit."""

    def bits(frames):
        return [
            [(np.float64(s.timestamp).tobytes(), s.table.tobytes()) for s in f.radar_sweeps]
            for f in frames
        ]

    parsed = [frame for path in scene_files(name) for frame in load_scenes(path)]
    assert bits(parsed) == bits(workload_frames(name))


def _array_bits(array) -> tuple:
    return array.dtype.str, array.shape, array.tobytes()


def _box3d_bits(box) -> tuple:
    # float.hex names a float's every bit, and refuses an int.
    return (*map(_array_bits, (box.center, box.dims, box.velocity)), float.hex(box.yaw))


def _frame_object_bits(frame) -> tuple:
    """A frame's camera, ground truth and detections, bit for bit."""
    camera = frame.camera
    return (
        frame.frame_id,
        _array_bits(camera.intrinsic),
        _array_bits(camera.extrinsic),
        camera.image_size,
        [(_box3d_bits(g.box), g.class_id, g.attribute) for g in frame.ground_truth],
        [
            (
                d.class_id,
                float.hex(d.score),
                [float.hex(d.bbox2d.x_min), float.hex(d.bbox2d.y_min)],
                [float.hex(d.bbox2d.x_max), float.hex(d.bbox2d.y_max)],
                _array_bits(d.projected_center),
                float.hex(d.depth),
                float.hex(d.log_sigma),
                _box3d_bits(d.box3d),
                d.attribute,
            )
            for d in frame.detections
        ],
    )


def _detection_file_bits(results) -> list:
    return [
        (frame_id, [(_box3d_bits(b.box), b.class_id, float.hex(b.score), b.attribute) for b in bs])
        for frame_id, bs in results
    ]


@pytest.mark.parametrize("name", ["lite-2w", "hybrid-large", "dense-handcrafted"])
def test_parsed_objects_are_the_generated_bits(scene_files, workload_frames, tmp_path, name):
    """Every seed-0 scene file parses back to the generated frames' camera,
    ground truth (box arrays, yaw and labels) and detections (class, score,
    bbox, center2d, depth, log_sigma, box and attribute), bit for bit. A
    detections file of the generated detections' boxes loads back to them
    bit for bit."""
    generated = workload_frames(name)
    parsed = [frame for path in scene_files(name) for frame in load_scenes(path)]
    assert list(map(_frame_object_bits, parsed)) == list(map(_frame_object_bits, generated))

    def boxes(frame):
        return [DetectionBox3D(d.box3d, d.class_id, d.score, d.attribute) for d in frame.detections]

    results = [(frame.frame_id, boxes(frame)) for frame in generated]
    path = str(tmp_path / "dets.jsonl")
    save_detections(path, results)
    assert _detection_file_bits(load_detections(path)) == _detection_file_bits(results)


@pytest.mark.parametrize("name", ["lite-2w", "hybrid-large", "dense-handcrafted"])
def test_cli_outputs_match_pinned_digests(scene_files, tmp_path, name):
    """`rcdet run` with the workload's own arguments, then `rcdet eval`, on
    every seed-0 scene file: the detections and report files have the bytes
    whose sha256 the benchmark pins."""
    workload = WORKLOADS[name]
    sha256 = perfbench.harness.sha256_file
    got = {"detections_sha256": [], "report_sha256": []}
    for scene in scene_files(name):
        dets, report = str(tmp_path / "dets.jsonl"), str(tmp_path / "report.txt")
        assert main(workload.run_args(scene, dets)) == 0
        assert main(["eval", "--dets", dets, "--gt", scene, "--report", report]) == 0
        got["detections_sha256"].append(sha256(dets))
        got["report_sha256"].append(sha256(report))
    pinned = perfbench.harness.load_digests()[name]
    assert got == {key: pinned[key] for key in got}


def test_cli_keeps_the_names_that_traced_runs_wrap(scene_files, tmp_path, monkeypatch):
    """A traced benchmark run wraps each ``CLI_CALLS`` name of ``rcdet.cli``
    by ``setattr``, so ``rcdet run`` must reach them through the module."""
    assert [name for name in CLI_CALLS if not hasattr(cli, name)] == []
    calls = []
    run_scenes = cli.run_scenes
    monkeypatch.setattr(cli, "run_scenes", lambda *a, **k: calls.append(1) or run_scenes(*a, **k))
    scene = scene_files("lite-2w")[0]
    assert main(WORKLOADS["lite-2w"].run_args(scene, str(tmp_path / "dets.jsonl"))) == 0
    assert calls == [1]


@pytest.mark.parametrize("name", ["lite-2w", "hybrid-large"])
def test_membership_checks_hold_on_the_gated_workloads(name):
    """The benchmark's two membership checks, compared by member identity as
    it compares them, on the workload's seed-0 frames: ``associate`` equals
    ``associate_naive``, and the clustered points of ``process_frame``'s
    clusters equal the traced replay's ``radar.points_clustered``."""
    workload = WORKLOADS[name]
    frames = synth_scene(workload.synth_config(DEFAULT_SEED, workload.n_frames))
    cfg, net = workload.pipeline_config(), workload.network()
    tracer = Tracer()
    for frame in frames:
        points = accumulate_sweeps(frame.radar_sweeps, cfg.max_sweeps)
        gated = range_filter(points, cfg.min_range, cfg.max_range)
        args = (gated, frame.detections, frame.camera, cfg.pillar_dims, cfg.expansion)
        fast, naive = associate(*args), associate_naive(*args)
        assert [[id(p) for p in c.members] for c in fast] == [
            [id(p) for p in c.members] for c in naive
        ]
        clusters = process_frame(frame, cfg, net).clusters
        before = tracer.counts["radar.points_clustered"]
        traced_process_frame(frame, cfg, net, tracer)
        clustered = len({id(p) for c in clusters for p in c.members})
        assert clustered == tracer.counts["radar.points_clustered"] - before
    assert tracer.counts["radar.points_clustered"] > 0
