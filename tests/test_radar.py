"""Radar preprocessing and association, checked against scalar oracles.

The association oracle below reimplements the documented frustum contract
with plain ``math`` arithmetic, point by point: expanded 2D box, yaw-vs-ray
depth gate with its 0.5 m floor, pillar corner/center projection, inclusive
bounds. The batched path, the naive path, and this oracle must agree on
every (point, detection) pair exactly.
"""

from __future__ import annotations

import math
import pickle
import re
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcdet import features, kpconv, pipeline, radar
from rcdet.errors import InvalidDetection
from rcdet.geometry import Box3D, project_point
from rcdet.radar import (
    Cluster,
    RadarPoint,
    RadarSweep,
    accumulate_sweeps,
    associate,
    associate_naive,
    build_frustum,
    canonical_members,
    cluster_sweeps,
    range_filter,
)
from rcdet.kpconv import build_network
from rcdet.pipeline import PipelineConfig, process_frame
from rcdet.scene_io import SceneFrame, default_camera

from conftest import (
    detection_for_box,
    random_association_inputs,
    random_camera,
    random_radar_points,
    random_visible_box,
)


# -- sweep accumulation ------------------------------------------------------


def _sweep(rng, timestamp: float, count: int) -> RadarSweep:
    return RadarSweep.from_points(timestamp, random_radar_points(rng, count))


def test_sweep_from_points_round_trips(rng):
    points = random_radar_points(rng, 7)
    points[3].sweep_age = 0.25
    got = RadarSweep.from_points(2.5, points).points
    assert [
        (p.position.tobytes(), p.velocity.tobytes(), p.rcs, p.sweep_age) for p in got
    ] == [(p.position.tobytes(), p.velocity.tobytes(), p.rcs, p.sweep_age) for p in points]
    with pytest.raises(ValueError, match="read-only"):
        got[0].position[0] = 1.0
    empty = RadarSweep.from_points(2.5, [])
    assert empty.positions.shape == (0, 3) and empty.velocities.shape == (0, 2)
    assert empty.points == []


def _columns(n: int = 4) -> dict:
    return dict(
        positions=np.zeros((n, 3)), velocities=np.zeros((n, 2)), rcs=np.zeros(n),
        sweep_ages=np.zeros(n),
    )


@pytest.mark.parametrize(
    "column,value,message",
    [
        ("positions", np.zeros((4, 2)), "positions must have shape (4, 3)"),
        ("velocities", np.zeros(4), "velocities must have shape (4, 2)"),
        ("rcs", np.zeros(3), "rcs must have shape (4,)"),
        ("sweep_ages", np.zeros((4, 1)), "sweep_ages must have shape (4,)"),
        ("positions", np.array([[0.0, np.nan, 0.0]] * 4), "positions must be finite"),
        ("velocities", np.full((4, 2), np.inf), "velocities must be finite"),
        ("rcs", np.array([0.0, 0.0, -np.inf, 0.0]), "rcs must be finite"),
        ("sweep_ages", np.array([0.0, np.nan, 0.0, 0.0]), "sweep_ages must be finite"),
        ("sweep_ages", np.array([0.0, 0.1, -0.1, 0.0]), "sweep_ages must be >= 0"),
        ("timestamp", math.nan, "timestamp must be finite"),
        pytest.param("timestamp", 10**400, "timestamp must be finite", id="timestamp-10**400"),
        ("timestamp", True, "timestamp must be a number, got True"),
        ("timestamp", None, "timestamp must be a number, got None"),
        ("timestamp", "1.5", "timestamp must be a number, got '1.5'"),
        ("timestamp", np.bool_(False), "timestamp must be a number, got np.False_"),
        ("rcs", [0.0, 10**400, 0.0, 0.0], "rcs must be an array of numbers"),
        ("rcs", [0.0, "1.5", 0.0, 0.0], "rcs must be an array of numbers"),
        ("rcs", [0.0, None, 0.0, 0.0], "rcs must be an array of numbers"),
        ("sweep_ages", [True, False, False, False], "sweep_ages must be an array of numbers"),
        (
            "positions", [[True, 0.0, 0.0]] + [[0.0] * 3] * 3,
            "positions must be an array of numbers",
        ),
        ("rcs", [0.0, True, 0.0, 0.0], "rcs must be an array of numbers"),
        ("positions", [[0.0] * 3] * 3 + [[0.0] * 2], "positions must be an array of numbers"),
        ("positions", None, "positions must be an array of numbers"),
        ("velocities", 0.0, "velocities must have shape (4, 2), got ()"),
        ("velocities", np.zeros((4, 2), dtype=complex), "velocities must be an array of numbers"),
    ],
)
def test_sweep_rejects_bad_column(column, value, message):
    """A bad timestamp or column is a ``ValueError`` naming the field."""
    with pytest.raises(ValueError, match=re.escape(f"radar sweep {message}")):
        RadarSweep(**{"timestamp": 1.0, **_columns(), column: value})


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("rcs", True, "rcs must be a number, got True"),
        ("sweep_age", False, "sweep_age must be a number, got False"),
        ("rcs", np.bool_(True), "rcs must be a number, got np.True_"),
        ("rcs", "1", "rcs must be a number, got '1'"),
        ("sweep_age", None, "sweep_age must be a number, got None"),
        ("rcs", 1j, "rcs must be a number, got 1j"),
        pytest.param("rcs", 10**400, "rcs must be finite", id="rcs-10**400"),
        pytest.param("sweep_age", -(10**400), "sweep_age must be finite", id="age--10**400"),
        ("rcs", math.nan, "rcs must be finite"),
        ("position", [0.0, True, 0.0], "position must be an array of numbers"),
        ("position", np.array([False, True, False]), "position must be an array of numbers"),
        ("velocity", [0.0, "1"], "velocity must be an array of numbers"),
        ("velocity", [0.0, None], "velocity must be an array of numbers"),
        ("position", None, "position must be an array of numbers"),
        ("position", [[0.0, 1.0], [0.0]], "position must be an array of numbers"),
        pytest.param(
            "position", [0.0, 10**400, 0.0], "position must be an array of numbers",
            id="position-10**400",
        ),
        ("velocity", np.zeros(2, dtype=complex), "velocity must be an array of numbers"),
        ("position", [0.0, 1.0], "position must hold 3 numbers, got shape (2,)"),
        ("velocity", 0.0, "velocity must hold 2 numbers, got shape ()"),
        ("velocity", [0.0, math.inf], "velocity must be finite"),
    ],
)
def test_point_rejects_bad_field(field, value, message):
    """A bad field is a ``ValueError`` naming it, in the sweep's wording."""
    fields = {"position": [0.0, 1.0, 0.0], "velocity": [0.0, 0.0], field: value}
    with pytest.raises(ValueError, match=re.escape(f"radar point {message}")):
        RadarPoint(**fields)


def test_point_keeps_plain_numbers():
    point = RadarPoint([0, 1, 0], np.array([2, 3]), rcs=np.float32(0.5), sweep_age=1)
    assert point.position.dtype == point.velocity.dtype == np.float64
    assert point.velocity.tolist() == [2.0, 3.0]
    assert (type(point.rcs), type(point.sweep_age)) == (float, float)
    assert (point.rcs, point.sweep_age) == (0.5, 1.0)


@pytest.mark.parametrize(
    "faults,message",
    [
        # Every column's shape is checked before the table's finiteness.
        ({"positions": np.full((4, 3), np.nan), "sweep_ages": np.zeros(5)},
         "sweep_ages must have shape (4,)"),
        # The first non-finite column in table order is named.
        ({"sweep_ages": np.full(4, np.inf), "velocities": np.full((4, 2), np.nan)},
         "velocities must be finite"),
    ],
)
def test_sweep_check_precedence(faults, message):
    with pytest.raises(ValueError, match=re.escape(f"radar sweep {message}")):
        RadarSweep(1.0, **{**_columns(), **faults})


def test_sweep_pickles_as_its_table(rng):
    """A pickled sweep carries its table once and comes back bit-equal, its
    columns again read-only views of its table."""
    sweep = _sweep(rng, 7.25, 1000)
    data = pickle.dumps(sweep)
    assert len(data) < sweep.table.nbytes + 1024
    back = pickle.loads(data)
    assert back.timestamp == sweep.timestamp
    assert back.table.tobytes() == sweep.table.tobytes()
    for name in ("table", "positions", "velocities", "rcs", "sweep_ages"):
        column = getattr(back, name)
        assert not column.flags.writeable and np.shares_memory(column, back.table)
        assert column.tobytes() == getattr(sweep, name).tobytes()


def test_accumulate_single_sweep(rng):
    out = accumulate_sweeps([_sweep(rng, 10.0, 5)])
    assert len(out) == 5
    assert all(p.sweep_age == 0.0 for p in out)


def test_accumulate_drops_oldest_beyond_cap(rng):
    sweeps = [_sweep(rng, 10.0 - i, 1) for i in range(8)]
    out = accumulate_sweeps(sweeps, max_sweeps=6)
    assert len(out) == 6
    assert [p.sweep_age for p in out] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_accumulate_matches_sort_truncate_concat_oracle(rng):
    for _ in range(20):
        count = int(rng.integers(0, 9))
        sweeps = [_sweep(rng, 50.0 - 0.25 * i, int(rng.integers(0, 6))) for i in range(count)]
        out = accumulate_sweeps(sweeps, max_sweeps=6)

        ordered = sorted(sweeps, key=lambda s: -s.timestamp)[:6]
        expected = []
        for sweep in ordered:
            for point in sweep.points:
                expected.append((tuple(point.position), ordered[0].timestamp - sweep.timestamp))
        got = [(tuple(p.position), p.sweep_age) for p in out]
        assert got == expected


@pytest.mark.parametrize(
    "stamps,message",
    [
        ((1.0, 2.0), "sweep_age must be >= 0, got -1.0"),
        ((1e308, -1e308), "radar point sweep_age must be finite"),
    ],
    ids=["out-of-order", "infinite-span"],
)
def test_sweep_age_checked_once_per_sweep(rng, stamps, message):
    """The texts the point constructor gave for one row, now checked per
    sweep, through every library entry that ages rows."""
    sweeps = [_sweep(rng, stamp, 3) for stamp in stamps]
    det, camera = _detection_at(depth=20.0, yaw=0.0)
    with pytest.raises(ValueError, match=re.escape(message)):
        accumulate_sweeps(sweeps)
    with pytest.raises(ValueError, match=re.escape(message)):
        process_frame(SceneFrame(0, camera, sweeps, [det]), PipelineConfig())
    # A sweep with no rows makes no point, so its age is not checked.
    sweeps[1] = _sweep(rng, stamps[1], 0)
    assert len(accumulate_sweeps(sweeps)) == 3


def test_points_from_columns_are_read_only(rng):
    sweeps = [_sweep(rng, 10.0, 6), _sweep(rng, 9.5, 6)]
    det, camera = _detection_at(depth=20.0, yaw=math.pi / 2)
    sweeps.append(RadarSweep.from_points(9.0, [_point_at(0.0, 20.0)]))
    clusters = cluster_sweeps(sweeps, [det], camera)
    assert clusters[0].member_count == 1
    for point in [*accumulate_sweeps(sweeps), *sweeps[0].points, *clusters[0].members]:
        for column in (point.position, point.velocity):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0


def test_sweep_columns_are_its_own_read_only_copy(rng):
    """A sweep copies the given columns into its ``table``; the table and its
    four column views refuse writes, and changing the caller's arrays leaves
    the sweep as it was. The rows behind ``accumulate_sweeps``' points and the
    table ``cluster.positions()`` gathers from are as closed."""
    given = dict(
        positions=rng.normal(size=(5, 3)), velocities=rng.normal(size=(5, 2)),
        rcs=rng.normal(size=5), sweep_ages=rng.uniform(0.0, 1.0, 5),
    )
    sweep = RadarSweep(10.0, **given)
    table = sweep.table.copy()
    assert table.shape == (5, 7)
    for name, column in given.items():
        view = getattr(sweep, name)
        assert np.shares_memory(view, sweep.table)
        assert view.tobytes() == column.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 1.0
        column[0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        sweep.table[0, 0] = 1.0
    assert sweep.table.tobytes() == table.tobytes()

    for point in accumulate_sweeps([sweep]):
        for column in (point.position, point.velocity):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
    assert sweep.table.tobytes() == table.tobytes()

    det, camera = _detection_at(depth=20.0, yaw=math.pi / 2)
    points = [_point_at(0.0, 20.0)]
    clusters = [
        cluster_sweeps([RadarSweep.from_points(9.0, points)], [det], camera)[0],
        Cluster(det, points),
    ]
    for cluster in clusters:
        expected = cluster.positions().tobytes()
        with pytest.raises(ValueError, match="read-only"):
            cluster._store.table[0, 0] = 1.0
        cluster.positions()[0, 0] = 1.0
        points[0].position[0] = 3.0
        assert cluster.positions().tobytes() == expected


# -- range gate ---------------------------------------------------------------


def _point_at(x: float, y: float) -> RadarPoint:
    return RadarPoint(position=np.array([x, y, 0.0]), velocity=np.zeros(2))


def test_range_filter_bounds():
    assert range_filter([_point_at(0.5, 0.0)]) == []
    kept = range_filter([_point_at(60.0, 0.0)])
    assert len(kept) == 1
    assert len(range_filter([_point_at(1.0, 0.0)])) == 1
    assert range_filter([_point_at(60.0 + 1e-9, 0.0)]) == []


def test_range_filter_matches_predicate_oracle(rng):
    points = random_radar_points(rng, 1000)
    kept = range_filter(points)
    expected = []
    for point in points:
        x, y = float(point.position[0]), float(point.position[1])
        if 1.0 <= math.sqrt(x * x + y * y) <= 60.0:
            expected.append(point)
    assert kept == expected


def test_range_filter_idempotent(rng):
    points = random_radar_points(rng, 300)
    once = range_filter(points)
    assert range_filter(once) == once


# -- pillars ------------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, -0.2, math.inf])
def test_fast_and_naive_association_reject_bad_pillar_dims_alike(bad):
    det, camera = _detection_at(depth=20.0, yaw=math.pi / 2)
    points = [_point_at(0.0, 20.0)]
    dims = (0.2, bad, 1.5)
    message = "pillar dims must be finite and non-negative"
    for run in (associate, associate_naive):
        with pytest.raises(ValueError, match=message):
            run(points, [det], camera, dims)


# -- frustum construction -----------------------------------------------------


def _detection_at(depth: float, yaw: float, dims=(2.0, 4.0, 1.5)):
    camera = default_camera()
    box = Box3D(center=np.array([0.0, depth, 0.0]), dims=np.array(dims), yaw=yaw)
    center_px, d = project_point(camera, box.center)
    from rcdet.radar import PreliminaryDetection
    from rcdet.geometry import Box2D

    det = PreliminaryDetection(
        class_id=0,
        score=0.9,
        bbox2d=Box2D(300.0, 180.0, 500.0, 260.0),
        projected_center=center_px,
        depth=d,
        log_sigma=-2.0,
        box3d=box,
    )
    return det, camera


def test_frustum_depth_gate_yaw_aligned_with_ray():
    # Ray to a center straight ahead points along ego +y (angle pi/2).
    det, camera = _detection_at(depth=20.0, yaw=math.pi / 2)
    frustum = build_frustum(det, camera)
    assert frustum.depth_range == pytest.approx((18.0, 22.0), abs=1e-12)


def test_frustum_depth_gate_yaw_perpendicular_to_ray():
    det, camera = _detection_at(depth=20.0, yaw=0.0)
    frustum = build_frustum(det, camera)
    assert frustum.depth_range == pytest.approx((19.0, 21.0), abs=1e-12)


def test_frustum_gate_floor():
    det, camera = _detection_at(depth=20.0, yaw=math.pi / 2, dims=(0.1, 0.1, 0.5))
    frustum = build_frustum(det, camera)
    assert frustum.depth_range == pytest.approx((19.5, 20.5), abs=1e-12)


def test_frustum_rejects_depth_inside_gate_floor():
    det, camera = _detection_at(depth=20.0, yaw=0.0)
    shallow = replace(det, depth=0.4)
    with pytest.raises(InvalidDetection):
        build_frustum(shallow, camera)


def test_frustum_expansion_scales_box():
    det, camera = _detection_at(depth=20.0, yaw=0.0)
    frustum = build_frustum(det, camera, expansion=2.0)
    assert frustum.bbox2d.x_max - frustum.bbox2d.x_min == pytest.approx(400.0)
    assert frustum.depth_range == pytest.approx((18.0, 22.0), abs=1e-12)


# -- association oracle --------------------------------------------------------


def oracle_membership(point, det, camera, pillar_dims, expansion):
    """Scalar reimplementation of the frustum membership predicate."""
    ext = camera.extrinsic
    k = camera.intrinsic
    # Camera center in ego coordinates.
    t0, t1, t2 = ext[0, 3], ext[1, 3], ext[2, 3]
    cam_x = -(ext[0, 0] * t0 + ext[1, 0] * t1 + ext[2, 0] * t2)
    cam_y = -(ext[0, 1] * t0 + ext[1, 1] * t1 + ext[2, 1] * t2)
    # Depth gate from the yaw relative to the ray through the box center.
    ray_x = float(det.box3d.center[0]) - cam_x
    ray_y = float(det.box3d.center[1]) - cam_y
    theta = det.box3d.yaw - math.atan2(ray_y, ray_x)
    width, length = float(det.box3d.dims[0]), float(det.box3d.dims[1])
    delta = expansion * 0.5 * (abs(length * math.cos(theta)) + abs(width * math.sin(theta)))
    delta = max(delta, 0.5)
    d_min = max(det.depth - delta, 1e-6)
    d_max = det.depth + delta
    # Expanded 2D box.
    box = det.bbox2d
    bcx = 0.5 * (box.x_min + box.x_max)
    bcy = 0.5 * (box.y_min + box.y_max)
    hw = 0.5 * (box.x_max - box.x_min) * expansion
    hh = 0.5 * (box.y_max - box.y_min) * expansion
    x_lo, x_hi, y_lo, y_hi = bcx - hw, bcx + hw, bcy - hh, bcy + hh

    px, py, pz = (float(v) for v in point.position)
    center_depth = ext[2, 0] * px + ext[2, 1] * py + ext[2, 2] * pz + ext[2, 3]
    if not d_min <= center_depth <= d_max:
        return False
    hx, hy, hz = (0.5 * float(d) for d in pillar_dims)
    samples = [(0.0, 0.0, 0.0)] + [
        (sx * hx, sy * hy, sz * hz)
        for sx in (1, -1)
        for sy in (1, -1)
        for sz in (1, -1)
    ]
    for ox, oy, oz in samples:
        x, y, z = px + ox, py + oy, pz + oz
        cx = ext[0, 0] * x + ext[0, 1] * y + ext[0, 2] * z + ext[0, 3]
        cy = ext[1, 0] * x + ext[1, 1] * y + ext[1, 2] * z + ext[1, 3]
        cz = ext[2, 0] * x + ext[2, 1] * y + ext[2, 2] * z + ext[2, 3]
        if cz <= 1e-6:
            continue
        u = (k[0, 0] * cx + k[0, 1] * cy + k[0, 2] * cz) / cz
        v = (k[1, 0] * cx + k[1, 1] * cy + k[1, 2] * cz) / cz
        if x_lo <= u <= x_hi and y_lo <= v <= y_hi:
            return True
    return False


def _member_matrix(clusters: list[Cluster], points) -> list[list[int]]:
    index_of = {id(p): i for i, p in enumerate(points)}
    return [[index_of[id(m)] for m in c.members] for c in clusters]


def _random_scene(rng, n_points: int, n_dets: int):
    camera = random_camera(rng)
    points = random_radar_points(rng, n_points)
    dets = [
        detection_for_box(rng, camera, random_visible_box(rng, camera))
        for _ in range(n_dets)
    ]
    return points, dets, camera


def test_associate_no_detections(rng):
    points = random_radar_points(rng, 10)
    assert associate(points, [], default_camera()) == []


def test_associate_single_point_in_frustum():
    det, camera = _detection_at(depth=20.0, yaw=math.pi / 2)
    point = _point_at(0.0, 20.0)
    clusters = associate([point], [det], camera)
    assert len(clusters) == 1
    assert clusters[0].members == (point,)
    assert clusters[0].member_count == 1


def test_cluster_members_are_fixed_when_built():
    """``members`` is a tuple, so it cannot grow; the store copied the
    values, so changing a point afterwards leaves the cluster's rows."""
    det, _ = _detection_at(depth=20.0, yaw=math.pi / 2)
    point = _point_at(0.0, 20.0)
    cluster = Cluster(det, [point])
    with pytest.raises(AttributeError):
        cluster.members.append(point)
    point.position = np.array([1.0, 2.0, 3.0])
    assert cluster.members == (point,)
    assert cluster.positions().tolist() == [[0.0, 20.0, 0.0]]


def test_associate_point_on_camera_plane_is_silent():
    # A pillar sample a subnormal distance in front of the camera overflows
    # the projection; it lies behind the depth floor, so no warning is due.
    det, camera = _detection_at(depth=20.0, yaw=math.pi / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clusters = associate([_point_at(1.0, 5e-324)], [det], camera)
    assert clusters[0].member_count == 0


def test_associate_equals_naive_and_oracle(rng):
    pillar_dims = (0.2, 0.2, 1.5)
    for trial in range(30):
        n_points = int(rng.integers(0, 80))
        n_dets = int(rng.integers(0, 8))
        expansion = float(rng.choice([1.0, 1.0, 1.3]))
        points, dets, camera = _random_scene(rng, n_points, n_dets)
        batched = associate(points, dets, camera, pillar_dims, expansion)
        naive = associate_naive(points, dets, camera, pillar_dims, expansion)
        assert _member_matrix(batched, points) == _member_matrix(naive, points)
        expected = [
            [
                i
                for i, p in enumerate(points)
                if oracle_membership(p, det, camera, pillar_dims, expansion)
            ]
            for det in dets
        ]
        assert _member_matrix(batched, points) == expected


def test_associate_naive_never_calls_member_rows(monkeypatch):
    """The reference path stays independent of the vectorized one: with
    ``_member_rows`` raising, ``associate_naive`` still returns the member
    objects ``associate`` returns, at both expansions."""
    points, dets, camera = random_association_inputs(200, 20, seed=11)

    def member_ids(run, expansion):
        return [[id(p) for p in c.members] for c in run(points, dets, camera, expansion=expansion)]

    expected = {expansion: member_ids(associate, expansion) for expansion in (1.0, 1.7)}
    assert all(any(members) for members in expected.values())

    def vectorized(*args, **kwargs):
        raise AssertionError("associate_naive called _member_rows")

    monkeypatch.setattr(radar, "_member_rows", vectorized)
    for expansion, members in expected.items():
        assert member_ids(associate_naive, expansion) == members


def test_associate_equals_naive_on_dense_frame_input():
    """A 200 x 20 input from the dense-frame generator of acceptance
    criteria 2 and 9: a quick twin of their 1000 x 100 comparisons."""
    points, dets, camera = random_association_inputs(200, 20, seed=3)
    batched = _member_matrix(associate(points, dets, camera), points)
    assert batched == _member_matrix(associate_naive(points, dets, camera), points)
    assert any(batched)


def test_random_association_inputs_reproducible():
    """The dense-frame generator is seeded, so acceptance criterion 9 times
    the same seed-909 input on every run; another seed gives another input."""
    points_a, dets_a, _ = random_association_inputs(20, 3, seed=5)
    points_b, dets_b, _ = random_association_inputs(20, 3, seed=5)
    assert all(
        np.array_equal(a.position, b.position) and np.array_equal(a.velocity, b.velocity)
        and a.rcs == b.rcs
        for a, b in zip(points_a, points_b)
    )
    assert all(
        a.depth == b.depth and a.bbox2d == b.bbox2d and a.class_id == b.class_id
        for a, b in zip(dets_a, dets_b)
    )
    points_c, _, _ = random_association_inputs(20, 3, seed=6)
    assert not np.array_equal(points_a[0].position, points_c[0].position)


def _crowded_association(rng, n_points: int, n_dets: int):
    """Detections in overlapping pairs (the second a copy nudged in depth),
    one more whose depth gate lies beyond every point, and points scattered
    around the detections' boxes plus uniform clutter."""
    camera = random_camera(rng)
    dets = []
    for _ in range(n_dets):
        det = detection_for_box(rng, camera, random_visible_box(rng, camera))
        dets += [det, replace(det, depth=det.depth + float(rng.uniform(-1.0, 1.0)))]
    if dets:
        dets.append(replace(dets[0], depth=dets[0].depth + 1000.0))
    centers = [det.box3d.center for det in dets] or [np.zeros(3)]
    points = random_radar_points(rng, n_points // 4)
    for _ in range(n_points - len(points)):
        center = centers[int(rng.integers(len(centers)))]
        points.append(
            RadarPoint(
                center + rng.normal(0.0, 1.5, 3), rng.uniform(-8, 8, 2), float(rng.uniform(-5, 15))
            )
        )
    return points, dets, camera


@pytest.mark.parametrize(
    "n_points,n_dets", [(0, 0), (0, 3), (60, 0), (60, 2), (240, 5)], ids=str
)
def test_member_rows_equal_naive_association(rng, n_points, n_dets):
    """The one-mask gate of every frustum gives each detection the rows the
    per-point, per-detection loop gives it, in row order: over overlapping
    frusta, a gate holding no row, and no points or no detections."""
    overlaps = 0
    for trial in range(8):
        points, dets, camera = _crowded_association(rng, n_points, n_dets)
        expansion = (1.0, 1.3)[trial % 2]
        rows = radar._member_rows(
            radar._point_table(points), dets, camera, radar.DEFAULT_PILLAR_DIMS, expansion
        )
        naive = associate_naive(points, dets, camera, expansion=expansion)
        assert [r.tolist() for r in rows] == _member_matrix(naive, points)
        assert all(r.dtype == np.intp for r in rows)
        if dets:
            assert rows[-1].size == 0
        members = np.concatenate([np.zeros(0, np.intp), *rows])
        overlaps += len(members) > len(set(members.tolist()))
    assert overlaps >= (4 if n_points and n_dets else 0)


def test_member_rows_gate_bounds_are_inclusive():
    """Rows exactly on the depth gate's bounds join, one ulp outside do not."""
    det, camera = _detection_at(depth=20.0, yaw=math.pi / 2)
    d_min, d_max = build_frustum(det, camera).depth_range
    depths = [math.nextafter(d_min, 0.0), d_min, d_max, math.nextafter(d_max, math.inf)]
    points = [_point_at(0.0, depth) for depth in depths]
    (rows,) = radar._member_rows(
        radar._point_table(points), [det], camera, radar.DEFAULT_PILLAR_DIMS, 1.0
    )
    assert rows.tolist() == [1, 2]
    assert _member_matrix(associate_naive(points, [det], camera), points) == [[1, 2]]


def test_member_rows_pair_stage_peak_is_bounded():
    """N detections sharing one frustum over M rows inside it gate N × M
    pairs. They are box-tested in groups of at most 2**16 pairs, so the peak
    above one detection's call is that budget's temporaries (under 192 B a
    pair) plus the members returned, not a multiple of N × M."""
    det, camera = _detection_at(depth=20.0, yaw=0.0)
    rng = np.random.default_rng(0)
    table = np.zeros((8000, 7))
    table[:, 0] = rng.uniform(-0.5, 0.5, len(table))
    table[:, 1] = rng.uniform(19.5, 20.5, len(table))

    def peak(n_dets: int) -> tuple[int, list[np.ndarray]]:
        tracemalloc.start()
        try:
            rows = radar._member_rows(
                table, [det] * n_dets, camera, radar.DEFAULT_PILLAR_DIMS, 1.0
            )
            return tracemalloc.get_traced_memory()[1], rows
        finally:
            tracemalloc.stop()

    one, (rows,) = peak(1)
    assert rows.tolist() == list(range(len(table)))
    many, rows = peak(48)
    assert all(r.tolist() == list(range(len(table))) for r in rows)
    members = 48 * len(table) * np.dtype(np.intp).itemsize
    assert many <= one + 2**16 * 192 + members + 2**20


def test_associate_soundness_members_pass_predicate(rng):
    points, dets, camera = _random_scene(rng, 120, 6)
    for det, cluster in zip(dets, associate(points, dets, camera)):
        for member in cluster.members:
            assert oracle_membership(member, det, camera, radar.DEFAULT_PILLAR_DIMS, 1.0)


def test_associate_monotone_in_expansion(rng):
    points, dets, camera = _random_scene(rng, 150, 6)
    base = associate(points, dets, camera, expansion=1.0)
    wider = associate(points, dets, camera, expansion=1.5)
    for small, large in zip(base, wider):
        small_ids = {id(p) for p in small.members}
        large_ids = {id(p) for p in large.members}
        assert small_ids <= large_ids


def test_associate_deterministic(rng):
    points, dets, camera = _random_scene(rng, 100, 5)
    first = _member_matrix(associate(points, dets, camera), points)
    second = _member_matrix(associate(points, dets, camera), points)
    assert first == second


def test_point_may_join_multiple_clusters():
    det_a, camera = _detection_at(depth=20.0, yaw=math.pi / 2)
    det_b, _ = _detection_at(depth=21.0, yaw=math.pi / 2)
    point = _point_at(0.0, 20.5)
    clusters = associate([point], [det_a, det_b], camera)
    assert clusters[0].member_count == 1
    assert clusters[1].member_count == 1


# -- the frame's front end as one pass -----------------------------------------


def _member_sharing(clusters: list[Cluster]):
    """Each cluster's members as indices of distinct member objects (first
    seen first), and those objects' rows: equal for two cluster lists with
    the same rows in the same order, sharing the same objects."""
    index, rows, members = {}, [], []
    for cluster in clusters:
        for point in cluster.members:
            if id(point) not in index:
                index[id(point)] = len(rows)
                rows.append(
                    (point.position.tobytes(), point.velocity.tobytes(), point.rcs, point.sweep_age)
                )
        members.append([index[id(point)] for point in cluster.members])
    return members, rows


@st.composite
def _front_end_frames(draw):
    """Frames with no sweeps, empty sweeps, more sweeps than ``max_sweeps``,
    gates that drop every return, no detections, and a detection twinned at
    a slightly deeper depth, so that returns lie inside both frustums."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    camera = default_camera()
    dets = [
        detection_for_box(rng, camera, random_visible_box(rng, camera))
        for _ in range(draw(st.integers(0, 3)))
    ]
    if dets and draw(st.booleans()):
        dets.append(replace(dets[0], depth=dets[0].depth + 0.25))
    sweeps = []
    for i in range(draw(st.integers(0, 8))):
        count = draw(st.integers(0, 8))
        points = random_radar_points(rng, count)
        for point in points[::2] if dets else ():
            target = dets[int(rng.integers(len(dets)))].box3d.center
            point.position = target + rng.uniform(-0.3, 0.3, 3)
        sweeps.append(RadarSweep.from_points(10.0 - 0.05 * i, points))
    gates = [(1.0, 60.0), (1.0, 60.0), (0.0, 1e6), (500.0, 600.0)]
    min_range, max_range = draw(st.sampled_from(gates))
    cfg = PipelineConfig(
        max_sweeps=draw(st.integers(1, 6)), min_range=min_range, max_range=max_range
    )
    return SceneFrame(0, camera, sweeps, dets), cfg


@settings(max_examples=60, deadline=None)
@given(_front_end_frames())
def test_process_frame_clusters_equal_list_stages(case):
    frame, cfg = case
    got = process_frame(frame, cfg).clusters
    points = accumulate_sweeps(frame.radar_sweeps, cfg.max_sweeps)
    expected = associate(
        range_filter(points, cfg.min_range, cfg.max_range), frame.detections, frame.camera
    )
    assert [c.detection for c in got] == [c.detection for c in expected]
    assert _member_sharing(got) == _member_sharing(expected)


# -- members as row indices into the frame's member store ----------------------


def _list_stage_clusters(frame: SceneFrame, cfg: PipelineConfig) -> list[Cluster]:
    points = accumulate_sweeps(frame.radar_sweeps, cfg.max_sweeps)
    gated = range_filter(points, cfg.min_range, cfg.max_range)
    return associate(gated, frame.detections, frame.camera, cfg.pillar_dims, cfg.expansion)


def _twinned_frame(seed: int) -> SceneFrame:
    """Three detections, the first twinned 0.25 m deeper, and three sweeps
    with every other return placed near a detection's centre, so that some
    rows join two clusters."""
    rng = np.random.default_rng(seed)
    camera = default_camera()
    dets = [
        detection_for_box(rng, camera, random_visible_box(rng, camera)) for _ in range(3)
    ]
    dets.append(replace(dets[0], depth=dets[0].depth + 0.25))
    sweeps = []
    for i in range(3):
        points = random_radar_points(rng, 40)
        for point in points[::2]:
            target = dets[int(rng.integers(len(dets)))].box3d.center
            point.position = target + rng.uniform(-0.3, 0.3, 3)
        sweeps.append(RadarSweep.from_points(10.0 - 0.05 * i, points))
    return SceneFrame(0, camera, sweeps, dets)


def _count_built_points(monkeypatch, delay: float = 0.0) -> list[int]:
    """Route every ``radar._row_points`` call through a counter: the returned
    list gets the number of points each call builds. ``delay`` holds each
    call open that many seconds, so that a second reader arrives mid-build."""
    built = []
    row_points = radar._row_points

    def counting(*columns):
        time.sleep(delay)
        points = row_points(*columns)
        built.append(len(points))
        return points

    monkeypatch.setattr(radar, "_row_points", counting)
    return built


@pytest.mark.parametrize("strategy", ["handcrafted", "hybrid"])
def test_process_frame_builds_no_radar_point(monkeypatch, strategy):
    """``process_frame`` builds no point; the first ``members`` access builds
    one per clustered row, shared by every cluster holding the row; a second
    access builds nothing and gives the same objects."""
    frame = _twinned_frame(0)
    cfg = PipelineConfig(feature_strategy=strategy)
    net = build_network("lite", seed=0) if strategy == "hybrid" else None
    expected = _list_stage_clusters(frame, cfg)
    clustered = {id(p) for c in expected for p in c.members}
    built = _count_built_points(monkeypatch)
    clusters = process_frame(frame, cfg, net).clusters
    assert built == []
    first = [c.members for c in clusters]
    assert built == [len(clustered)]
    assert {id(p) for p in first[0]} & {id(p) for p in first[3]}, "the twins share no row"
    assert _member_sharing(clusters) == _member_sharing(expected)
    second = [c.members for c in clusters]
    assert built == [len(clustered)]
    assert [[id(p) for p in m] for m in second] == [[id(p) for p in m] for m in first]


@pytest.mark.parametrize("strategy", ["handcrafted", "learned", "hybrid"])
def test_process_frame_builds_one_member_table(monkeypatch, strategy):
    """Every feature stage of a frame reads one ``canonical_members`` table,
    and the features are those of the public one-stage passes."""
    frame = _twinned_frame(2)
    cfg = PipelineConfig(feature_strategy=strategy)
    net = None if strategy == "handcrafted" else build_network("lite", seed=0)
    calls = []
    for module in (radar, features, kpconv, pipeline):
        monkeypatch.setattr(
            module, "canonical_members",
            lambda clusters: calls.append(len(clusters)) or canonical_members(clusters),
        )
    result = process_frame(frame, cfg, net)
    assert calls == [len(frame.detections)]
    monkeypatch.undo()
    stages = []
    if strategy != "learned":
        stages.append(features.handcrafted_rows(result.clusters, cfg.handcrafted))
    if strategy != "handcrafted":
        stages.append(kpconv.learned_rows(result.clusters, net))
    assert result.radar_heatmap.rows.tobytes() == np.hstack(stages).tobytes()


def test_members_of_a_frame_are_the_same_objects_in_every_thread(monkeypatch):
    """Four threads, more than this suite's usual two cores, read one frame's
    members at once, with the build held open and a short switch interval:
    one build, and every thread gets the same objects."""
    clusters = process_frame(_twinned_frame(1), PipelineConfig()).clusters
    built = _count_built_points(monkeypatch, delay=0.05)
    barrier = threading.Barrier(4)
    seen = {}

    def read(name):
        barrier.wait()
        seen[name] = [[id(p) for p in c.members] for c in clusters]

    threads = [threading.Thread(target=read, args=(name,)) for name in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(built) == 1
    assert sorted(seen) == [0, 1, 2, 3]
    assert seen[0] == seen[1] == seen[2] == seen[3]
    assert sum(map(len, seen[0])) > 0


def _stacked_canonical_members(clusters: list[Cluster]) -> tuple[np.ndarray, np.ndarray]:
    """``canonical_members`` by stacking member objects: the oracle for the
    gather from the member store."""
    members = [point for cluster in clusters for point in cluster.members]
    positions = np.array([p.position for p in members]).reshape(-1, 3)
    rows = np.hstack([positions, np.array([p.velocity for p in members]).reshape(-1, 2)])
    counts = [len(cluster.members) for cluster in clusters]
    segments = np.repeat(np.arange(len(clusters)), counts)
    order = np.lexsort((*rows.T[::-1], segments))
    return rows[order], np.cumsum([0, *counts])


@settings(max_examples=60, deadline=None)
@given(_front_end_frames(), st.integers(0, 2**32 - 1))
def test_canonical_members_equals_object_stacking(case, seed):
    """Front-end clusters, ``Cluster(det, points)`` with duplicated and
    shuffled members, and a mix of both kinds in one list."""
    frame, cfg = case
    rng = np.random.default_rng(seed)
    front = process_frame(frame, cfg).clusters
    expected = _list_stage_clusters(frame, cfg)
    edge = []
    for cluster in expected:
        members = cluster.members
        twice = [members[i] for i in rng.integers(0, len(members), len(members) // 2)]
        mixed = [*members, *twice]
        edge.append(Cluster(cluster.detection, [mixed[i] for i in rng.permutation(len(mixed))]))
    for got, want in ((front, expected), (edge, edge), (edge + front, edge + expected)):
        rows, bounds = canonical_members(got)
        want_rows, want_bounds = _stacked_canonical_members(want)
        assert rows.shape == want_rows.shape
        assert rows.tobytes() == want_rows.tobytes()
        assert bounds.tolist() == want_bounds.tolist()
