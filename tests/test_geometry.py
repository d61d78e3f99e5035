"""Geometry primitives: projection round trips, box corners, IoU family.

Expected values are either closed-form hand computations or come from
independent oracles (per-corner projection, an explicit rotation-matrix
corner oracle, and an axis-factorized voxel count for the aligned 3D IoU).
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from rcdet.errors import BehindCamera, DegenerateBox
from rcdet.geometry import (
    Box2D,
    Box3D,
    CameraModel,
    aligned_iou3d,
    box3d_corners,
    giou2d,
    iou2d,
    project_box_to_bbox2d,
    project_point,
    unproject_point,
    wrap_angle,
)

from conftest import random_camera, random_visible_box


def _simple_camera() -> CameraModel:
    return CameraModel(
        intrinsic=np.eye(3), extrinsic=np.eye(4), image_size=(4, 4)
    )


# -- projection ------------------------------------------------------------


def test_project_on_optical_axis():
    pixel, depth = project_point(_simple_camera(), np.array([0.0, 0.0, 1.0]))
    assert pixel[0] == 0.0 and pixel[1] == 0.0
    assert depth == 1.0


def test_project_similar_triangles():
    pixel, depth = project_point(_simple_camera(), np.array([2.0, 0.0, 2.0]))
    assert pixel[0] == 1.0 and pixel[1] == 0.0
    assert depth == 2.0


def test_project_behind_camera_raises():
    with pytest.raises(BehindCamera):
        project_point(_simple_camera(), np.array([0.0, 0.0, -1.0]))


def test_project_unproject_round_trip(rng):
    for _ in range(20):
        camera = random_camera(rng)
        width, height = camera.image_size
        for _ in range(50):
            pixel = np.array([rng.uniform(0, width), rng.uniform(0, height)])
            depth = rng.uniform(0.2, 80.0)
            point = unproject_point(camera, pixel, depth)
            pixel_back, depth_back = project_point(camera, point)
            assert np.abs(pixel_back - pixel).max() < 1e-9
            assert abs(depth_back - depth) < 1e-9
            again = unproject_point(camera, pixel_back, depth_back)
            assert np.abs(again - point).max() < 1e-9


def test_camera_validation():
    with pytest.raises(ValueError):
        CameraModel(intrinsic=np.eye(3), extrinsic=np.eye(4), image_size=(0, 4))
    bad_rot = np.eye(4)
    bad_rot[0, 0] = 1.5
    with pytest.raises(ValueError):
        CameraModel(intrinsic=np.eye(3), extrinsic=bad_rot, image_size=(4, 4))
    bad_k = np.eye(3)
    bad_k[2, 0] = 0.1
    with pytest.raises(ValueError):
        CameraModel(intrinsic=bad_k, extrinsic=np.eye(4), image_size=(4, 4))


@pytest.mark.parametrize("entry", [1e300, -1e300, math.nan])
def test_camera_rejects_huge_or_nan_rotation_silently(entry):
    # rot.T @ rot would overflow (or let a NaN through the tolerance test).
    extrinsic = np.eye(4)
    extrinsic[0, 1] = extrinsic[1, 0] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not orthonormal"):
            CameraModel(intrinsic=np.eye(3), extrinsic=extrinsic, image_size=(4, 4))


# -- box corners -----------------------------------------------------------


def _sorted_rows(arr: np.ndarray) -> np.ndarray:
    return arr[np.lexsort((arr[:, 2], arr[:, 1], arr[:, 0]))]


def test_unit_cube_corners():
    box = Box3D(center=np.zeros(3), dims=np.ones(3), yaw=0.0)
    expected = np.array(
        [(sx, sy, sz) for sx in (-0.5, 0.5) for sy in (-0.5, 0.5) for sz in (-0.5, 0.5)]
    )
    assert np.allclose(_sorted_rows(box3d_corners(box)), _sorted_rows(expected))


def test_corner_symmetry_under_pi_rotation():
    box0 = Box3D(center=np.array([1.0, 2.0, 0.5]), dims=np.array([1.0, 3.0, 2.0]), yaw=0.0)
    box_pi = Box3D(center=box0.center, dims=box0.dims, yaw=math.pi)
    assert np.allclose(
        _sorted_rows(box3d_corners(box0)), _sorted_rows(box3d_corners(box_pi)), atol=1e-12
    )


def _corner_oracle(box: Box3D) -> np.ndarray:
    """Rotate-then-translate each template corner with an explicit matrix."""
    w, l, h = box.dims
    rot = np.array(
        [
            [math.cos(box.yaw), -math.sin(box.yaw), 0.0],
            [math.sin(box.yaw), math.cos(box.yaw), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    corners = []
    for sl in (0.5, -0.5):
        for sw in (0.5, -0.5):
            for sh in (0.5, -0.5):
                local = np.array([sl * l, sw * w, sh * h])
                corners.append(rot @ local + box.center)
    return np.array(corners)


def test_corner_rotation_oracle(rng):
    box = Box3D(
        center=np.array([3.0, -1.0, 0.2]), dims=np.array([2.0, 4.0, 1.0]), yaw=math.pi / 4
    )
    assert np.abs(box3d_corners(box) - _corner_oracle(box)).max() < 1e-12
    for _ in range(50):
        box = Box3D(
            center=rng.uniform(-10, 10, 3),
            dims=rng.uniform(0.1, 6.0, 3),
            yaw=rng.uniform(-math.pi, math.pi),
        )
        assert np.abs(box3d_corners(box) - _corner_oracle(box)).max() < 1e-12


def test_corner_yaw_periodicity(rng):
    for _ in range(20):
        center = rng.uniform(-5, 5, 3)
        dims = rng.uniform(0.5, 4.0, 3)
        yaw = rng.uniform(-math.pi, math.pi)
        a = _corner_oracle(Box3D(center=center, dims=dims, yaw=yaw))
        # wrap_angle normalizes yaw + 2pi back to yaw, so compare raw oracles
        # and the library on the wrapped value.
        b = box3d_corners(Box3D(center=center, dims=dims, yaw=yaw + 2 * math.pi))
        assert np.abs(_sorted_rows(a) - _sorted_rows(b)).max() < 1e-12


def test_yaw_normalized_into_range():
    box = Box3D(center=np.zeros(3), dims=np.ones(3), yaw=3 * math.pi)
    assert -math.pi < box.yaw <= math.pi
    assert abs(box.yaw - math.pi) < 1e-12


# -- 2D box from 3D box ----------------------------------------------------


def test_bbox_symmetric_about_principal_point():
    from rcdet.scene_io import default_camera

    camera = default_camera()
    box = Box3D(center=np.array([0.0, 20.0, 0.0]), dims=np.array([2.0, 2.0, 1.0]), yaw=0.0)
    bbox = project_box_to_bbox2d(camera, box)
    cx, cy = camera.intrinsic[0, 2], camera.intrinsic[1, 2]
    assert abs((bbox.x_min + bbox.x_max) / 2 - cx) < 1e-9
    assert abs((bbox.y_min + bbox.y_max) / 2 - cy) < 1e-9


def test_bbox_offscreen_clips_to_zero_area():
    from rcdet.scene_io import default_camera

    camera = default_camera()
    box = Box3D(center=np.array([500.0, 20.0, 0.0]), dims=np.ones(3), yaw=0.0)
    bbox = project_box_to_bbox2d(camera, box)
    assert bbox.area == 0.0


def test_bbox_all_corners_behind_raises():
    from rcdet.scene_io import default_camera

    camera = default_camera()
    box = Box3D(center=np.array([0.0, -20.0, 0.0]), dims=np.ones(3), yaw=0.0)
    with pytest.raises(BehindCamera):
        project_box_to_bbox2d(camera, box)


def test_bbox_equals_per_corner_oracle(rng):
    for _ in range(100):
        camera = random_camera(rng)
        box = random_visible_box(rng, camera)
        bbox = project_box_to_bbox2d(camera, box)
        pixels = []
        for corner in box3d_corners(box):
            try:
                pixel, _ = project_point(camera, corner)
            except BehindCamera:
                continue
            pixels.append(pixel)
        pts = np.array(pixels)
        width, height = camera.image_size
        clip = lambda v, hi: min(max(v, 0.0), float(hi))
        assert bbox.x_min == clip(pts[:, 0].min(), width)
        assert bbox.x_max == clip(pts[:, 0].max(), width)
        assert bbox.y_min == clip(pts[:, 1].min(), height)
        assert bbox.y_max == clip(pts[:, 1].max(), height)


# -- aligned 3D IoU ---------------------------------------------------------


def test_aligned_iou3d_identity():
    assert aligned_iou3d(np.array([1.5, 3.0, 2.0]), np.array([1.5, 3.0, 2.0])) == 1.0


def test_aligned_iou3d_closed_form():
    assert aligned_iou3d(np.array([2.0, 2.0, 2.0]), np.array([1.0, 1.0, 1.0])) == 0.125


def _voxel_iou_oracle(dims_a, dims_b, n=20001):
    """Axis-factorized voxel-center count of the aligned overlap."""
    extent = max(dims_a.max(), dims_b.max()) * 1.1
    centers = (np.arange(n) + 0.5) / n * extent - extent / 2
    count_a = count_b = count_both = 1.0
    for axis in range(3):
        in_a = np.abs(centers) <= dims_a[axis] / 2
        in_b = np.abs(centers) <= dims_b[axis] / 2
        count_a *= in_a.sum()
        count_b *= in_b.sum()
        count_both *= (in_a & in_b).sum()
    return count_both / (count_a + count_b - count_both)


def test_aligned_iou3d_voxel_oracle(rng):
    for _ in range(25):
        dims_a = rng.uniform(0.3, 5.0, 3)
        dims_b = rng.uniform(0.3, 5.0, 3)
        assert abs(aligned_iou3d(dims_a, dims_b) - _voxel_iou_oracle(dims_a, dims_b)) < 1e-3


def test_aligned_iou3d_symmetry_and_uniqueness(rng):
    for _ in range(50):
        a = rng.uniform(0.2, 6.0, 3)
        b = rng.uniform(0.2, 6.0, 3)
        assert aligned_iou3d(a, b) == aligned_iou3d(b, a)
        if not np.array_equal(a, b):
            assert aligned_iou3d(a, b) < 1.0


# -- GIoU --------------------------------------------------------------------


def test_giou_identical_boxes():
    box = Box2D(1.0, 2.0, 4.0, 6.0)
    assert giou2d(box, box) == 1.0


def test_giou_hand_computed_disjoint():
    a = Box2D(0.0, 0.0, 1.0, 1.0)
    b = Box2D(1.0, 1.0, 2.0, 2.0)
    # IoU 0, union 2, enclosing 4 -> 0 - (4 - 2) / 4
    assert giou2d(a, b) == -0.5


def test_giou_monotone_toward_minus_one():
    a = Box2D(0.0, 0.0, 1.0, 1.0)
    previous = 1.0
    for gap in (1.0, 2.0, 5.0, 20.0, 100.0, 1000.0):
        b = Box2D(1.0 + gap, 0.0, 2.0 + gap, 1.0)
        value = giou2d(a, b)
        assert value < previous
        previous = value
    assert previous > -1.0
    assert previous < -0.99


def _random_box2d(rng) -> Box2D:
    x = np.sort(rng.uniform(0, 50, 2))
    y = np.sort(rng.uniform(0, 50, 2))
    return Box2D(x[0], y[0], x[1], y[1])


def test_giou_symmetry_and_iou_bound(rng):
    for _ in range(200):
        a = _random_box2d(rng)
        b = _random_box2d(rng)
        assert giou2d(a, b) == giou2d(b, a)
        assert giou2d(a, b) <= iou2d(a, b) + 1e-15
        assert giou2d(a, a) == 1.0


def test_giou_degenerate_enclosing_raises():
    point = Box2D(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DegenerateBox):
        giou2d(point, point)


def test_wrap_angle_range(rng):
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(0.0) == 0.0
    for _ in range(200):
        angle = rng.uniform(-20, 20)
        wrapped = wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi
        assert abs(math.remainder(wrapped - angle, 2 * math.pi)) < 1e-9
