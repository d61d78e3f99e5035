"""Scene/detections file round trips, parse diagnostics, and the synthetic
scene generator's contracts (determinism, visibility, cluster recovery)."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcdet.decoder import DetectionBox3D
from rcdet.errors import ParseError, SchemaVersionMismatch
from rcdet.geometry import Box3D, project_point
from rcdet.radar import accumulate_sweeps, associate, range_filter
from rcdet.scene_io import (
    SCHEMA_VERSION,
    SceneFrame,
    SynthConfig,
    default_camera,
    load_detections,
    load_scenes,
    save_detections,
    save_scenes,
    synth_scene,
)


def _frames_equal(a: SceneFrame, b: SceneFrame) -> bool:
    if a.frame_id != b.frame_id:
        return False
    if not (
        np.array_equal(a.camera.intrinsic, b.camera.intrinsic)
        and np.array_equal(a.camera.extrinsic, b.camera.extrinsic)
        and a.camera.image_size == b.camera.image_size
    ):
        return False
    if len(a.radar_sweeps) != len(b.radar_sweeps):
        return False
    for sa, sb in zip(a.radar_sweeps, b.radar_sweeps):
        if sa.timestamp != sb.timestamp or len(sa.points) != len(sb.points):
            return False
        for pa, pb in zip(sa.points, sb.points):
            if not (
                np.array_equal(pa.position, pb.position)
                and np.array_equal(pa.velocity, pb.velocity)
                and pa.rcs == pb.rcs
                and pa.sweep_age == pb.sweep_age
            ):
                return False
    if len(a.detections) != len(b.detections):
        return False
    for da, db in zip(a.detections, b.detections):
        if not (
            da.class_id == db.class_id
            and da.score == db.score
            and da.bbox2d == db.bbox2d
            and np.array_equal(da.projected_center, db.projected_center)
            and da.depth == db.depth
            and da.log_sigma == db.log_sigma
            and da.attribute == db.attribute
            and np.array_equal(da.box3d.center, db.box3d.center)
            and np.array_equal(da.box3d.dims, db.box3d.dims)
            and da.box3d.yaw == db.box3d.yaw
            and np.array_equal(da.box3d.velocity, db.box3d.velocity)
        ):
            return False
    if (a.ground_truth is None) != (b.ground_truth is None):
        return False
    if a.ground_truth is not None:
        if len(a.ground_truth) != len(b.ground_truth):
            return False
        for ga, gb in zip(a.ground_truth, b.ground_truth):
            if not (
                ga.class_id == gb.class_id
                and ga.attribute == gb.attribute
                and np.array_equal(ga.box.center, gb.box.center)
                and np.array_equal(ga.box.dims, gb.box.dims)
                and ga.box.yaw == gb.box.yaw
                and np.array_equal(ga.box.velocity, gb.box.velocity)
            ):
                return False
    return True


def test_empty_scene_round_trip(tmp_path):
    path = str(tmp_path / "scenes.jsonl")
    save_scenes(path, [])
    assert load_scenes(path) == []


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_frames=st.integers(0, 3),
    noise=st.sampled_from([0.0, 0.3]),
)
def test_scene_round_trip_random(tmp_path_factory, seed, n_frames, noise):
    cfg = SynthConfig(
        seed=seed,
        n_frames=n_frames,
        objects_max=3,
        clutter_density=0.001,
        position_noise=noise,
        depth_noise=noise,
        max_speed=6.0,
    )
    frames = synth_scene(cfg)
    path = str(tmp_path_factory.mktemp("scenes") / "scenes.jsonl")
    save_scenes(path, frames)
    loaded = load_scenes(path)
    assert len(loaded) == len(frames)
    assert all(_frames_equal(a, b) for a, b in zip(frames, loaded))


def test_detections_round_trip(tmp_path, rng):
    results = []
    for frame_id in range(3):
        boxes = [
            DetectionBox3D(
                box=Box3D(
                    center=rng.uniform(-10, 30, 3),
                    dims=rng.uniform(0.5, 4, 3),
                    yaw=rng.uniform(-math.pi, math.pi),
                    velocity=rng.uniform(-5, 5, 2),
                ),
                class_id=int(rng.integers(3)),
                score=float(rng.uniform()),
                attribute=int(rng.integers(4)),
            )
            for _ in range(int(rng.integers(0, 5)))
        ]
        results.append((frame_id, boxes))
    path = str(tmp_path / "dets.jsonl")
    save_detections(path, results)
    loaded = load_detections(path)
    assert len(loaded) == 3
    for (fid_a, boxes_a), (fid_b, boxes_b) in zip(results, loaded):
        assert fid_a == fid_b
        assert len(boxes_a) == len(boxes_b)
        for a, b in zip(boxes_a, boxes_b):
            assert a.class_id == b.class_id and a.score == b.score
            assert a.attribute == b.attribute
            assert np.array_equal(a.box.center, b.box.center)
            assert np.array_equal(a.box.dims, b.box.dims)
            assert a.box.yaw == b.box.yaw
            assert np.array_equal(a.box.velocity, b.box.velocity)


def test_parse_error_names_missing_field(tmp_path):
    path = str(tmp_path / "scenes.jsonl")
    frames = synth_scene(SynthConfig(seed=1, n_frames=1))
    save_scenes(path, frames)
    with open(path) as fh:
        header, frame_line = fh.read().splitlines()
    record = json.loads(frame_line)
    del record["detections"][0]["depth"]
    with open(path, "w") as fh:
        fh.write(header + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ParseError, match="depth"):
        load_scenes(path)


_HEADER = json.dumps({"schema": "rcdet.scene", "version": SCHEMA_VERSION})


@pytest.mark.parametrize(
    "text,message",
    [
        (_HEADER + "\n{not json\n", "line 2: invalid JSON"),
        ("[1, 2]\n", "line 1: expected a JSON object"),
        (_HEADER + "\n\n[1, 2]\n", "line 3: expected a JSON object"),
    ],
    ids=["not-json", "header-array", "frame-array"],
)
def test_parse_error_on_invalid_json(tmp_path, text, message):
    path = str(tmp_path / "scenes.jsonl")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(ParseError, match=message):
        load_scenes(path)


@pytest.mark.parametrize("kind", ["scenes", "detections"])
def test_duplicate_frame_id_rejected(tmp_path, kind):
    path = str(tmp_path / f"{kind}.jsonl")
    if kind == "scenes":
        frames = synth_scene(SynthConfig(seed=1, n_frames=3))
        frames[2].frame_id = 0
        save_scenes(path, frames)
        load = load_scenes
    else:
        save_detections(path, [(0, []), (1, []), (0, [])])
        load = load_detections
    with pytest.raises(ParseError, match="line 4: duplicate frame_id 0"):
        load(path)


def test_schema_version_mismatch(tmp_path):
    path = str(tmp_path / "scenes.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": "rcdet.scene", "version": 999}) + "\n")
    with pytest.raises(SchemaVersionMismatch):
        load_scenes(path)


def test_wrong_schema_name(tmp_path):
    path = str(tmp_path / "scenes.jsonl")
    save_detections(path, [])
    with pytest.raises(ParseError, match="schema"):
        load_scenes(path)


# -- synthetic generator -----------------------------------------------------------


def test_synth_zero_objects_zero_clutter():
    frames = synth_scene(
        SynthConfig(seed=4, n_frames=2, objects_min=0, objects_max=0, clutter_density=0.0)
    )
    for frame in frames:
        assert frame.ground_truth == []
        assert all(not sweep.points for sweep in frame.radar_sweeps)
        assert frame.detections == []


def test_synth_deterministic_bytes(tmp_path):
    cfg = SynthConfig(seed=77, n_frames=3, objects_max=3, position_noise=0.2, max_speed=5.0)
    path_a = str(tmp_path / "a.jsonl")
    path_b = str(tmp_path / "b.jsonl")
    save_scenes(path_a, synth_scene(cfg))
    save_scenes(path_b, synth_scene(cfg))
    assert Path(path_a).read_bytes() == Path(path_b).read_bytes()


def test_synth_detections_are_consistent_with_boxes():
    frames = synth_scene(SynthConfig(seed=9, n_frames=4, objects_max=4, max_speed=4.0))
    for frame in frames:
        assert len(frame.detections) == len(frame.ground_truth)
        for det, gt in zip(frame.detections, frame.ground_truth):
            assert det.class_id == gt.class_id
            assert det.attribute == gt.attribute
            center_px, depth = project_point(frame.camera, gt.box.center)
            assert np.array_equal(det.projected_center, center_px)
            assert det.depth == depth
            width, height = frame.camera.image_size
            assert 0 <= det.bbox2d.x_min <= det.bbox2d.x_max <= width
            assert 0 <= det.bbox2d.y_min <= det.bbox2d.y_max <= height


def test_synth_radial_velocity_points_along_ray():
    frames = synth_scene(
        SynthConfig(seed=12, n_frames=3, objects_max=3, max_speed=8.0, clutter_density=0.0)
    )
    for frame in frames:
        for sweep in frame.radar_sweeps:
            for point in sweep.points:
                x, y = point.position[0], point.position[1]
                cross = point.velocity[0] * y - point.velocity[1] * x
                assert abs(cross) < 1e-9  # velocity parallel to the sensor ray


def test_synth_static_object_cluster_fully_recovered():
    """Zero noise: every radar point of an object lies in its own frustum."""
    cfg = SynthConfig(
        seed=21, n_frames=6, objects_min=1, objects_max=1, clutter_density=0.0,
        points_per_object_min=5, points_per_object_max=12,
    )
    for frame in synth_scene(cfg):
        points = range_filter(accumulate_sweeps(frame.radar_sweeps))
        clusters = associate(points, frame.detections, frame.camera)
        assert len(clusters) == 1
        assert clusters[0].member_count == len(points)
        assert len(points) >= 5


def test_synth_points_survive_range_gate():
    frames = synth_scene(SynthConfig(seed=31, n_frames=5, objects_max=4, clutter_density=0.0))
    for frame in frames:
        points = accumulate_sweeps(frame.radar_sweeps)
        assert len(range_filter(points)) == len(points)
