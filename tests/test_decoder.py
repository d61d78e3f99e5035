"""Decoder: depth transform, peak picking, orientation decode, confidence,
and the plant-and-recover contract for whole detections."""

from __future__ import annotations

import math

import numpy as np
import pytest

from rcdet.decoder import (
    Candidate,
    build_maps_from_detections,
    confidence,
    decode_depth,
    decode_detections,
    decode_orientation,
    encode_depth,
    topk_peaks,
    unproject_center,
)
from rcdet.geometry import project_point, wrap_angle
from rcdet.losses import DEFAULT_BIN_CENTERS, OrientationTarget
from rcdet.scene_io import default_camera

from conftest import detection_for_box, random_visible_box


# -- depth transform ------------------------------------------------------------


def test_decode_depth_at_zero():
    assert decode_depth(0.0) == 1.0


def test_decode_depth_monotone_decreasing():
    grid = np.linspace(-6.0, 6.0, 200)
    values = [decode_depth(x) for x in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_decode_depth_equals_inverse_sigmoid_form():
    for x in (-4.0, -1.0, 0.0, 0.5, 3.0):
        sigmoid = 1.0 / (1.0 + math.exp(-x))
        assert decode_depth(x) == pytest.approx(1.0 / sigmoid - 1.0, rel=1e-12)


def test_depth_round_trip():
    for depth in np.linspace(1.0, 60.0, 500):
        assert abs(decode_depth(encode_depth(depth)) - depth) < 1e-9


def test_decode_depth_clamped():
    assert decode_depth(1000.0) == 1e-3


# -- orientation ------------------------------------------------------------------


def test_decode_orientation_center_bin():
    conf = np.array([1.0, 0.0, 0.0, 0.0])
    residuals = np.zeros((4, 2))
    residuals[0] = (1.0, 0.0)
    assert decode_orientation(conf, residuals) == 0.0
    residuals[0] = (0.0, 1.0)
    assert decode_orientation(conf, residuals) == pytest.approx(math.pi / 2)


def test_orientation_round_trip(rng):
    for _ in range(300):
        yaw = float(rng.uniform(-math.pi, math.pi))
        target = OrientationTarget(yaw=yaw)
        decoded = decode_orientation(target.flags.astype(float), target.residuals)
        assert abs(wrap_angle(decoded - yaw)) < 1e-9


# -- confidence --------------------------------------------------------------------


def test_confidence_zero_sigma():
    p_dep, p_3d = confidence(0.8, -745.0)  # sigma ~ 5e-324 -> variance 0
    assert p_dep == 1.0
    assert p_3d == 0.8


def test_confidence_unit_sigma():
    p_dep, p_3d = confidence(1.0, 0.0)
    assert abs(p_dep - math.exp(-1.0)) < 1e-12
    assert abs(p_3d - math.exp(-1.0)) < 1e-12


@pytest.mark.parametrize("log_sigma", [4.0, 709.0, 710.0, 1e300])
def test_confidence_vanishes_for_huge_sigma(log_sigma):
    # exp(log_sigma) overflows from 710 on; the confidence is 0 well before.
    assert confidence(0.8, log_sigma) == (0.0, 0.0)


def test_confidence_monotone_in_log_sigma():
    values = [confidence(0.9, s)[1] for s in np.linspace(-3, 2, 100)]
    assert all(a > b for a, b in zip(values, values[1:]))
    for s in np.linspace(-5, 2, 50):
        p_dep, p_3d = confidence(0.7, s)
        assert p_3d <= 0.7 + 1e-15


# -- unprojection ------------------------------------------------------------------


def test_unproject_principal_point():
    import numpy as np
    from rcdet.geometry import CameraModel

    camera = CameraModel(
        intrinsic=np.array([[100.0, 0.0, 50.0], [0.0, 100.0, 30.0], [0.0, 0.0, 1.0]]),
        extrinsic=np.eye(4),
        image_size=(100, 60),
    )
    point = unproject_center(camera, np.array([50.0, 30.0]), 5.0)
    assert np.abs(point - np.array([0.0, 0.0, 5.0])).max() < 1e-12


def test_unproject_offset_scales_with_intrinsics():
    import numpy as np
    from rcdet.geometry import CameraModel

    camera = CameraModel(
        intrinsic=np.array([[200.0, 0.0, 50.0], [0.0, 100.0, 30.0], [0.0, 0.0, 1.0]]),
        extrinsic=np.eye(4),
        image_size=(100, 60),
    )
    point = unproject_center(camera, np.array([50.5, 30.5]), 10.0)
    assert point[0] == pytest.approx(0.5 / 200.0 * 10.0, abs=1e-12)
    assert point[1] == pytest.approx(0.5 / 100.0 * 10.0, abs=1e-12)
    assert point[2] == pytest.approx(10.0, abs=1e-12)


# -- peak picking -------------------------------------------------------------------


def test_topk_single_nonzero_pixel():
    heatmap = np.zeros((2, 8, 8))
    heatmap[1, 3, 4] = 0.7
    peaks = topk_peaks(heatmap, k=100)
    assert len(peaks) == 1
    assert peaks[0] == Candidate(class_id=1, score=0.7, row=3, col=4)


def test_topk_uniform_heatmap_scan_order():
    heatmap = np.full((1, 4, 4), 0.5)
    peaks = topk_peaks(heatmap, k=5)
    assert [(p.row, p.col) for p in peaks] == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]


def test_topk_suppresses_non_maxima():
    heatmap = np.zeros((1, 5, 5))
    heatmap[0, 2, 2] = 0.9
    heatmap[0, 2, 3] = 0.8  # adjacent, below the peak
    heatmap[0, 0, 0] = 0.5
    peaks = topk_peaks(heatmap, k=10)
    assert [(p.row, p.col) for p in peaks] == [(2, 2), (0, 0)]
    unsuppressed = topk_peaks(heatmap, k=10, suppress=False)
    assert len(unsuppressed) == 3


def _topk_oracle(heatmap, k):
    channels, height, width = heatmap.shape
    entries = []
    for c in range(channels):
        for r in range(height):
            for col in range(width):
                value = heatmap[c, r, col]
                if value <= 0:
                    continue
                is_max = True
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, col + dc
                        if 0 <= rr < height and 0 <= cc < width and heatmap[c, rr, cc] > value:
                            is_max = False
                if is_max:
                    entries.append((-value, c, r, col))
    entries.sort()
    return [(c, r, col) for _, c, r, col in entries[:k]]


def test_topk_matches_sort_oracle(rng):
    for _ in range(20):
        heatmap = np.round(rng.uniform(0, 1, size=(2, 9, 11)), 2)
        heatmap[heatmap < 0.3] = 0.0
        k = int(rng.integers(1, 30))
        peaks = topk_peaks(heatmap, k=k)
        assert [(p.class_id, p.row, p.col) for p in peaks] == _topk_oracle(heatmap, k)


def test_topk_superset_maximal(rng):
    heatmap = rng.uniform(0, 1, size=(2, 12, 12))
    k = 10
    peaks = topk_peaks(heatmap, k=k)
    smallest = min(p.score for p in peaks)
    selected = {(p.class_id, p.row, p.col) for p in peaks}
    for c, r, col in _topk_oracle(heatmap, 10_000):
        if (c, r, col) not in selected:
            assert heatmap[c, r, col] <= smallest


# -- full decode --------------------------------------------------------------------


def _planted_scene(rng, n_boxes=5):
    camera = default_camera()
    dets = []
    used = set()
    while len(dets) < n_boxes:
        box = random_visible_box(rng, camera, depth_range=(6.0, 50.0))
        det = detection_for_box(rng, camera, box, class_id=int(rng.integers(3)))
        cell = (int(det.projected_center[0] // 4), int(det.projected_center[1] // 4))
        if any(max(abs(cell[0] - c[0]), abs(cell[1] - c[1])) < 2 for c in used):
            continue
        used.add(cell)
        det.attribute = int(rng.integers(4))
        dets.append(det)
    return camera, dets


def test_plant_and_recover_exact_fields(rng):
    camera, dets = _planted_scene(rng)
    heatmap, maps = build_maps_from_detections(dets, camera.image_size, num_classes=3)
    candidates = topk_peaks(heatmap, k=100)
    decoded = decode_detections(candidates, maps, camera, threshold=0.0)
    assert len(decoded) == len(dets)
    by_cell = {
        (int(d.projected_center[0] // 4), int(d.projected_center[1] // 4)): d for d in dets
    }
    for out in decoded:
        pixel, _ = project_point(camera, out.box.center)
        planted = by_cell[(int(pixel[0] // 4), int(pixel[1] // 4))]
        assert out.class_id == planted.class_id
        assert out.attribute == planted.attribute
        assert np.abs(out.box.center - planted.box3d.center).max() < 1e-6
        assert np.abs(out.box.dims - planted.box3d.dims).max() < 1e-6
        assert abs(wrap_angle(out.box.yaw - planted.box3d.yaw)) < 1e-6
        assert np.abs(out.box.velocity - planted.box3d.velocity).max() < 1e-6


def test_decode_threshold_and_ordering(rng):
    camera, dets = _planted_scene(rng)
    heatmap, maps = build_maps_from_detections(dets, camera.image_size, num_classes=3)
    candidates = topk_peaks(heatmap, k=100)
    all_boxes = decode_detections(candidates, maps, camera, threshold=0.0)
    assert len(all_boxes) <= 100
    scores = [b.score for b in all_boxes]
    assert scores == sorted(scores, reverse=True)
    assert decode_detections(candidates, maps, camera, threshold=1.0 + 1e-9) == []


def test_decoded_score_bounded_by_class_score(rng):
    camera, dets = _planted_scene(rng)
    heatmap, maps = build_maps_from_detections(dets, camera.image_size, num_classes=3)
    candidates = topk_peaks(heatmap, k=100)
    for cand in candidates:
        _, p3d = confidence(cand.score, maps.log_sigma[cand.row, cand.col])
        assert p3d <= cand.score


def test_build_maps_rejects_bad_class(rng):
    camera, dets = _planted_scene(rng, n_boxes=1)
    dets[0].class_id = 7
    with pytest.raises(ValueError):
        build_maps_from_detections(dets, camera.image_size, num_classes=3)


@pytest.mark.parametrize(
    "center",
    [
        (5000.0, 100.0), (100.0, 5000.0), (-0.5, 100.0), (100.0, -1e-9),
        (math.nan, 100.0), (100.0, math.nan),
    ],
    ids=["far-u", "far-v", "negative-u", "negative-v", "nan-u", "nan-v"],
)
def test_build_maps_rejects_center_outside_image(rng, center):
    camera, dets = _planted_scene(rng, n_boxes=1)
    dets[0].projected_center = np.array(center)
    with pytest.raises(ValueError, match=r"projected center .* outside the 800x448 image"):
        build_maps_from_detections(dets, camera.image_size, num_classes=3)


@pytest.mark.parametrize(
    "center,cell",
    [((800.0, 448.0), (111, 199)), ((0.0, 0.0), (0, 0)), ((800.0, 0.0), (0, 199))],
    ids=["bottom-right", "top-left", "top-right"],
)
def test_build_maps_image_edges_map_to_edge_cells(rng, center, cell):
    camera, dets = _planted_scene(rng, n_boxes=1)
    dets[0].projected_center = np.array(center)
    heatmap, maps = build_maps_from_detections(dets, camera.image_size, num_classes=3)
    assert np.argwhere(heatmap[dets[0].class_id] > 0).tolist() == [list(cell)]
    row, col = cell
    assert np.array_equal(maps.offset[:, row, col], (center[0] / 4 - col, center[1] / 4 - row))
