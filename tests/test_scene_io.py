"""Scene/detections file round trips, parse diagnostics, and the synthetic
scene generator's contracts (determinism, visibility, cluster recovery)."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcdet import scene_io
from rcdet.cli import main
from rcdet.decoder import DetectionBox3D
from rcdet.errors import ParseError, SchemaVersionMismatch
from rcdet.geometry import Box2D, Box3D, project_point
from rcdet.radar import (
    Pillar,
    PreliminaryDetection,
    RadarPoint,
    RadarSweep,
    accumulate_sweeps,
    associate,
    range_filter,
)
from rcdet.scene_io import (
    MAX_DETECTION_DEPTH,
    MAX_SYNTH_NOISE,
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


@pytest.mark.parametrize("seed", [0, 5])
def test_scene_file_round_trips_byte_for_byte(tmp_path, seed):
    cfg = SynthConfig(
        seed=seed, n_frames=3, objects_max=6, clutter_density=0.02, position_noise=0.05,
        velocity_noise=0.1, max_speed=8.0, n_sweeps=4,
    )
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    save_scenes(str(first), synth_scene(cfg))
    save_scenes(str(second), load_scenes(str(first)))
    assert second.read_bytes() == first.read_bytes()


def test_load_scenes_holds_columns_not_point_objects(tmp_path):
    """A 5-frame file of about 450 radar points a frame: what the parsed
    frames hold is bounded by the sweep columns. One validated object per
    point held 1.54 MiB here."""
    cfg = SynthConfig(
        seed=0, n_frames=5, objects_min=6, objects_max=12, points_per_object_min=10,
        points_per_object_max=40, clutter_density=0.05, n_sweeps=6, max_speed=10.0,
    )
    path = str(tmp_path / "scenes.jsonl")
    save_scenes(path, synth_scene(cfg))
    tracemalloc.start()
    try:
        frames = load_scenes(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(s.rcs) for f in frames for s in f.radar_sweeps) > 2000
    assert held < 0.6 * 2**20


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


def test_frame_fields_are_checked_in_field_order_across_sweeps(tmp_path):
    """A bad ``rcs`` in sweep 0 and a bad ``position`` in sweep 1: each
    point field is checked over the whole frame in turn (position,
    velocity, rcs, sweep_age), so the position is reported."""
    path = str(tmp_path / "scenes.jsonl")
    save_scenes(path, synth_scene(SynthConfig(seed=1, n_frames=1, n_sweeps=2)))
    header, frame_line = Path(path).read_text().splitlines()
    record = json.loads(frame_line)
    record["radar_sweeps"][0]["points"][0]["rcs"] = "loud"
    record["radar_sweeps"][1]["points"][0]["position"] = [1.0, 2.0]
    Path(path).write_text(header + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ParseError) as raised:
        load_scenes(path)
    assert str(raised.value) == "line 2: radar point position must be a list of 3 numbers"


@pytest.mark.parametrize("n_sweeps", [1, 3, 6])
def test_point_fields_are_parsed_once_per_frame(tmp_path, monkeypatch, n_sweeps):
    """The four point-field passes run once per frame, whatever the sweep
    count, and the parsed sweeps keep their own rows."""
    path = str(tmp_path / "scenes.jsonl")
    frames = synth_scene(SynthConfig(seed=4, n_frames=3, n_sweeps=n_sweeps))
    save_scenes(path, frames)
    passes = []
    column = scene_io._point_column
    monkeypatch.setattr(
        scene_io, "_point_column", lambda *args: passes.append(args[1]) or column(*args)
    )
    parsed = load_scenes(path)
    assert passes == ["position", "velocity", "rcs", "sweep_age"] * len(frames)
    assert [[s.table.tobytes() for s in f.radar_sweeps] for f in parsed] == [
        [s.table.tobytes() for s in f.radar_sweeps] for f in frames
    ]


def _detection_boxes(frames) -> list:
    """Each frame's id and its detections' boxes, as a detections file holds them."""
    return [
        (
            frame.frame_id,
            [DetectionBox3D(d.box3d, d.class_id, d.score, d.attribute) for d in frame.detections],
        )
        for frame in frames
    ]


def _rewrite_record(path: str, edit) -> None:
    header, record_line = Path(path).read_text().splitlines()
    record = json.loads(record_line)
    edit(record)
    Path(path).write_text(header + "\n" + json.dumps(record) + "\n")


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(record):
        for step in path:
            record = record[step]
        record[key] = value

    return edit


@pytest.mark.parametrize(
    "kind,edits,message",
    [
        (
            "scenes",
            [_set("detections", 0, "box", "velocity", [0.0]), _set("detections", 1, "score", "hi")],
            "line 2: detection score must be a number",
        ),
        (
            "scenes",
            [_set("detections", 0, "attribute", 1.5), _set("detections", 1, "depth", 0.2)],
            "line 2: detection depth must be greater than the 0.5 m gate floor",
        ),
        (
            "scenes",
            [_set("ground_truth", 0, "attribute", 2.5), _set("ground_truth", 1, "box", "yaw", [])],
            "line 2: box yaw must be a number",
        ),
        (
            "detections",
            [_set("boxes", 0, "attribute", -1), _set("boxes", 1, "class_id", 0.5)],
            "line 2: box class_id must be an integer",
        ),
    ],
    ids=["detection-score-before-box", "detection-depth-before-attribute",
         "ground-truth-box-before-attribute", "box-class_id-before-attribute"],
)
def test_record_fields_are_checked_in_field_order_across_records(tmp_path, kind, edits, message):
    """Two records on one line, each with a bad field: every field is
    checked across all of the line's records of that kind before the next
    field, so the field that comes first in field order is reported, though
    the earlier record holds the later field."""
    path = str(tmp_path / f"{kind}.jsonl")
    frames = synth_scene(SynthConfig(seed=1, n_frames=1, objects_min=2, objects_max=2))
    if kind == "scenes":
        save_scenes(path, frames)
    else:
        save_detections(path, _detection_boxes(frames))
    for edit in edits:
        _rewrite_record(path, edit)
    with pytest.raises(ParseError) as raised:
        (load_scenes if kind == "scenes" else load_detections)(path)
    assert str(raised.value) == message


def test_readers_build_objects_without_their_checked_constructors(tmp_path, monkeypatch):
    """The readers check each field once and build boxes, detections and
    sweeps from the checked columns: no ``__post_init__`` runs while
    ``load_scenes`` or ``load_detections`` reads a file."""
    frames = synth_scene(SynthConfig(seed=4, n_frames=3, objects_min=2, objects_max=4, n_sweeps=3))
    scenes, dets = str(tmp_path / "scenes.jsonl"), str(tmp_path / "dets.jsonl")
    save_scenes(scenes, frames)
    save_detections(dets, _detection_boxes(frames))
    checked = []
    for cls in (Box3D, Box2D, PreliminaryDetection, RadarSweep):
        check = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, check=check: checked.append(self) or check(self)
        )
    parsed, loaded = load_scenes(scenes), load_detections(dets)
    assert checked == []
    assert sum(len(f.ground_truth) for f in parsed) == sum(len(b) for _, b in loaded) > 0
    assert all(len(f.radar_sweeps) == 3 for f in parsed)
    Box3D(center=[0.0, 10.0, 1.0], dims=[1.0, 1.0, 1.0], yaw=0.0)
    assert len(checked) == 1


def test_parsed_sweeps_share_one_read_only_frame_table(tmp_path):
    """A parsed frame's sweeps are row ranges of one read-only table, in
    sweep order, holding the generated rows."""
    path = str(tmp_path / "scenes.jsonl")
    frames = synth_scene(SynthConfig(seed=4, n_frames=2, n_sweeps=3, clutter_density=0.01))
    save_scenes(path, frames)
    for parsed, generated in zip(load_scenes(path), frames):
        tables = [s.table for s in parsed.radar_sweeps]
        base = tables[0].base
        assert all(t.base is base and not t.flags.writeable for t in tables)
        assert np.concatenate(tables).tobytes() == base.tobytes()
        assert [t.tobytes() for t in tables] == [s.table.tobytes() for s in generated.radar_sweeps]


def _edit_lines(path: str, edits: dict) -> None:
    """Apply ``edits[i]`` to record i (line i + 2) of a one-header file."""
    header, *lines = Path(path).read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for i, edit in edits.items():
        edit(records[i])
    Path(path).write_text("\n".join([header, *map(json.dumps, records)]) + "\n")


def test_equal_camera_records_share_one_camera(tmp_path, monkeypatch):
    """A camera record equal to the previous frame's is not parsed again,
    so those frames share one CameraModel, as synthesized frames do; a
    record that differs only by ``1`` against ``1.0`` is parsed on its own."""
    path = str(tmp_path / "scenes.jsonl")
    save_scenes(path, synth_scene(SynthConfig(seed=2, n_frames=4, objects_max=2)))
    _edit_lines(path, {2: _set("camera", "intrinsic", 2, 2, 1)})  # 1.0 in the others
    parsed = []
    parse = scene_io._camera_from_json
    monkeypatch.setattr(
        scene_io, "_camera_from_json", lambda obj, line: parsed.append(line) or parse(obj, line)
    )
    cameras = [frame.camera for frame in load_scenes(path)]
    assert parsed == [2, 4, 5]
    assert cameras[0] is cameras[1] and cameras[2] is not cameras[1]
    assert cameras[3] is not cameras[2]
    assert all(c.intrinsic.tobytes() == cameras[0].intrinsic.tobytes() for c in cameras)


def test_camera_false_in_place_of_zero_fails_on_its_own_line(tmp_path):
    """``false == 0``, but a frame whose camera holds a ``false`` where the
    previous frame's holds a ``0`` is still parsed, and rejected with its
    own line number."""
    path = str(tmp_path / "scenes.jsonl")
    save_scenes(path, synth_scene(SynthConfig(seed=2, n_frames=3, objects_max=2)))
    _edit_lines(path, {
        1: _set("camera", "intrinsic", 0, 1, 0), 2: _set("camera", "intrinsic", 0, 1, False),
    })
    with pytest.raises(ParseError) as raised:
        load_scenes(path)
    assert str(raised.value) == "line 4: camera intrinsic must be a matrix of numbers"


_HEADER =json.dumps({"schema": "rcdet.scene", "version": SCHEMA_VERSION})


def test_lines_are_decoded_one_at_a_time(tmp_path):
    """The reader decodes a line only when its record is asked for, so a
    record comes back before a later line's invalid JSON is seen."""
    path = tmp_path / "scenes.jsonl"
    path.write_text(_HEADER + "\n" + '{"frame_id": 0}\n{not json\n')
    records = scene_io._read_lines(str(path), "rcdet.scene")
    assert next(records) == (2, {"frame_id": 0})
    with pytest.raises(ParseError, match="line 3: invalid JSON"):
        next(records)


def test_earlier_record_error_wins_over_later_invalid_json(tmp_path):
    """Lines are converted as they are read: a bad record on line 2 is
    reported, not the invalid JSON on line 3."""
    path = tmp_path / "scenes.jsonl"
    save_scenes(str(path), synth_scene(SynthConfig(seed=1, n_frames=1)))
    _rewrite_record(str(path), _set("frame_id", "zero"))
    path.write_text(path.read_text() + "{not json\n")
    with pytest.raises(ParseError) as raised:
        load_scenes(str(path))
    assert str(raised.value) == "line 2: frame frame_id must be a number"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_line_numbers_count_as_splitlines_splits(tmp_path, newline):
    """Any newline ends a line, and a form feed or a line separator inside a
    line splits it, as ``str.splitlines`` splits: the bad JSON on the fourth
    physical line is on line 6."""
    path = tmp_path / "scenes.jsonl"
    text = newline.join([_HEADER, "", "\x0c \u2028 ", "{not json"]) + newline
    path.write_text(text, newline="")
    assert text.splitlines().index("{not json") == 5
    with pytest.raises(ParseError, match="^line 6: invalid JSON"):
        load_scenes(str(path))


@pytest.mark.parametrize(
    "text,message",
    [
        (_HEADER + "\n{not json\n", "line 2: invalid JSON"),
        ("[1, 2]\n", "line 1: expected a JSON object"),
        (_HEADER + "\n\n[1, 2]\n", "line 3: expected a JSON object"),
        (_HEADER + '\n{"frame_id": 1' + "0" * 5000 + "}\n", "line 2: invalid JSON"),
    ],
    ids=["not-json", "header-array", "frame-array", "integer-over-4300-digits"],
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


def test_synth_frame_sweeps_are_row_ranges_of_one_read_only_table(monkeypatch):
    """A synthesized frame holds the layout ``load_scenes`` gives: its sweeps
    are row ranges of one read-only table, in sweep order. No
    :class:`RadarPoint` or :class:`Pillar` is built on the way."""
    built = []
    for cls in (RadarPoint, Pillar, RadarSweep):
        check = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, check=check: built.append(self) or check(self)
        )
    cfg = SynthConfig(seed=4, n_frames=3, n_sweeps=4, clutter_density=0.01, position_noise=0.5)
    for frame in synth_scene(cfg):
        tables = [s.table for s in frame.radar_sweeps]
        base = tables[0].base
        assert all(t.base is base and not t.flags.writeable for t in tables)
        assert not base.flags.writeable and len(base) > cfg.n_sweeps
        assert np.concatenate(tables).tobytes() == base.tobytes()
    assert built == []


def test_synth_noisy_scene_bytes_pinned(tmp_path):
    """Noise large enough that 13 returns of this config take the fallback
    to their box's BEV center, which no benchmark scene reaches."""
    cfg = SynthConfig(
        seed=3, n_frames=4, position_noise=3.0, velocity_noise=0.3, depth_noise=0.5,
        bbox_jitter=3.0, max_speed=12.0, n_sweeps=4, points_per_object_max=40,
    )
    path = tmp_path / "scenes.jsonl"
    save_scenes(str(path), synth_scene(cfg))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "245d00161175a32bebe80aca399d570100665da27bba5f578e19db7f34da7c43"
    )


@pytest.mark.parametrize("field", ["position_noise", "velocity_noise", "depth_noise"])
def test_synth_noise_past_its_high_names_the_config_field(field):
    """A noise scale past ``MAX_SYNTH_NOISE`` fails as a config error naming
    the field, before any return is sampled, instead of mid-generation."""
    for value in (1e308, 1000.5):
        with pytest.raises(ValueError, match=rf"^{field} must be a finite number in \[0, 1000.0\], got "):
            SynthConfig(**{field: value})


def test_synth_noise_at_its_high_generates_files_that_run(tmp_path):
    """Every noise scale at its high: each return is finite, each depth
    passes the reader's bound, and ``run`` processes the file."""
    path = str(tmp_path / "scenes.jsonl")
    for seed in range(4):
        cfg = SynthConfig(seed=seed, n_frames=3, **dict.fromkeys(
            ("position_noise", "velocity_noise", "depth_noise"), MAX_SYNTH_NOISE
        ))
        save_scenes(path, synth_scene(cfg))
        frames = load_scenes(path)
        assert all(det.depth <= MAX_DETECTION_DEPTH for f in frames for det in f.detections)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--scenes", path, "--out", str(tmp_path / "out.jsonl")]) == 0


@pytest.mark.parametrize("jitter", [20.0, 50.0, 200.0])
def test_synth_bbox_jitter_keeps_boxes_in_order_and_in_the_image(jitter):
    """A jittered min corner stops at its max corner: otherwise 9 of these
    seeds at 20 px, and 15 at 50 px, would jitter some box inside out."""
    for seed in range(20):
        for frame in synth_scene(SynthConfig(seed=seed, n_frames=3, bbox_jitter=jitter)):
            width, height = frame.camera.image_size
            for det in frame.detections:
                box = det.bbox2d
                assert 0 <= box.x_min <= box.x_max <= width
                assert 0 <= box.y_min <= box.y_max <= height
