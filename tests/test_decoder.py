"""Decoder: depth transform, peak picking, orientation decode, confidence,
and the plant-and-recover contract for whole detections."""

from __future__ import annotations

import hashlib
import math
import struct
from collections import Counter

import numpy as np
import pytest

from rcdet.decoder import (
    Candidate,
    DetectionBox3D,
    build_maps_from_detections,
    confidence,
    decode_depth,
    decode_detections,
    decode_orientation,
    encode_depth,
    topk_peaks,
    unproject_center,
)
from rcdet.geometry import Box2D, Box3D, CameraModel, project_point, wrap_angle
from rcdet.losses import DEFAULT_BIN_CENTERS, OrientationTarget
from rcdet.radar import PreliminaryDetection
from rcdet.scene_io import default_camera

from conftest import detection_for_box, random_rotation, random_visible_box


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


def _planted(heatmap):
    """The (class, row, col) -> score map of a dense heatmap's nonzero pixels."""
    return {
        (int(c), int(r), int(col)): float(heatmap[c, r, col])
        for c, r, col in zip(*np.nonzero(heatmap))
    }


def test_topk_single_nonzero_pixel():
    heatmap = np.zeros((2, 8, 8))
    heatmap[1, 3, 4] = 0.7
    peaks = topk_peaks(_planted(heatmap), k=100)
    assert len(peaks) == 1
    assert peaks[0] == Candidate(class_id=1, score=0.7, row=3, col=4)


def test_topk_uniform_heatmap_scan_order():
    heatmap = np.full((1, 4, 4), 0.5)
    peaks = topk_peaks(_planted(heatmap), k=5)
    assert [(p.row, p.col) for p in peaks] == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]


def test_topk_suppresses_non_maxima():
    heatmap = np.zeros((1, 5, 5))
    heatmap[0, 2, 2] = 0.9
    heatmap[0, 2, 3] = 0.8  # adjacent, below the peak
    heatmap[0, 0, 0] = 0.5
    peaks = topk_peaks(_planted(heatmap), k=10)
    assert [(p.row, p.col) for p in peaks] == [(2, 2), (0, 0)]
    unsuppressed = topk_peaks(_planted(heatmap), k=10, suppress=False)
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


def _oracle_heatmaps(rng):
    """Dense rounded maps, sparse ones (at most 5 % of pixels positive, ties
    included) and plateaus of equal values that touch and overlap."""
    for _ in range(20):
        heatmap = np.round(rng.uniform(0, 1, size=(2, 9, 11)), 2)
        heatmap[heatmap < 0.3] = 0.0
        yield heatmap
    for _ in range(20):
        heatmap = np.zeros((3, 9, 11))
        n = int(rng.integers(0, heatmap.size // 20 + 1))
        heatmap.flat[rng.choice(heatmap.size, n, replace=False)] = np.round(
            rng.uniform(0.05, 1, n), 1
        )
        yield heatmap
    for _ in range(20):
        heatmap = np.zeros((2, 9, 11))
        for _ in range(4):
            c, r, col = int(rng.integers(2)), int(rng.integers(9)), int(rng.integers(11))
            h, w = rng.integers(1, 4, size=2)
            heatmap[c, r : r + h, col : col + w] = rng.choice([0.5, 0.7])
        yield heatmap


def test_topk_matches_sort_oracle(rng):
    for heatmap in _oracle_heatmaps(rng):
        k = int(rng.integers(1, 30))
        peaks = topk_peaks(_planted(heatmap), k=k)
        assert [(p.class_id, p.row, p.col) for p in peaks] == _topk_oracle(heatmap, k)


def test_topk_superset_maximal(rng):
    heatmap = rng.uniform(0, 1, size=(2, 12, 12))
    k = 10
    peaks = topk_peaks(_planted(heatmap), k=k)
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
        _, p3d = confidence(cand.score, maps.cells[(cand.row, cand.col)].log_sigma)
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
    scores, maps = build_maps_from_detections(dets, camera.image_size, num_classes=3)
    assert list(scores) == [(dets[0].class_id, *cell)]
    assert list(maps.cells) == [cell]
    (decoded,) = decode_detections(topk_peaks(scores), maps, camera)
    pixel, _ = project_point(camera, decoded.box.center)
    assert np.abs(pixel - center).max() < 1e-9


def test_decode_rejects_candidate_without_planted_record(rng):
    camera, dets = _planted_scene(rng, n_boxes=1)
    _, maps = build_maps_from_detections(dets, camera.image_size, num_classes=3)
    ((row, col),) = maps.cells
    row = (row + 2) % (camera.image_size[1] // 4)
    with pytest.raises(ValueError, match=rf"cell \({row}, {col}\) has no planted detection"):
        decode_detections([Candidate(class_id=0, score=0.5, row=row, col=col)], maps, camera)


# The sha256 of the candidates and boxes that `_crowded_decode_digest`
# decodes, computed with the dense regression grids this decoder replaced.
_CROWDED_DECODE_DIGEST = "fda71d0440095bd59ec414da4a4bde3538f8bfc8c5f25445d1a7d12c115efc16"


def _crowded_detections(rng, n, image_size):
    """``n`` records crowded onto the image's feature grid: integer centers
    (shared cells), centers on the image corners (right and bottom edges
    included), and scores that are 0, tied, or drawn."""
    width, height = image_size
    dets = []
    for _ in range(n):
        kind = int(rng.integers(3))
        if kind == 0:
            center = (float(rng.choice([0, width])), float(rng.choice([0, height])))
        elif kind == 1:
            center = (float(rng.integers(width + 1)), float(rng.integers(height + 1)))
        else:
            center = (rng.uniform(0, width), rng.uniform(0, height))
        box = Box3D(
            center=rng.uniform(-5, 5, 3),
            dims=rng.uniform(0.1, 5, 3),
            yaw=rng.uniform(-4, 4),
            velocity=rng.uniform(-9, 9, 2),
        )
        dets.append(
            PreliminaryDetection(
                class_id=int(rng.integers(3)),
                score=float(rng.choice([0.0, 0.5, 1.0, rng.uniform()])),
                bbox2d=Box2D(0.0, 0.0, 1.0, 1.0),
                projected_center=center,
                depth=float(rng.uniform(0.5, 80)),
                log_sigma=float(rng.uniform(-6, 2)),
                box3d=box,
                attribute=int(rng.integers(256)),
            )
        )
    return dets


def _crowded_decode_digest() -> tuple[str, Counter]:
    """Digest of seeded crowded frames through top-K (k drawn, with and
    without suppression) and decode, plus counts of the cases they hit."""
    rng = np.random.default_rng(2024)
    camera = CameraModel(
        intrinsic=np.array([[20.0, 0.0, 15.0], [0.0, 22.0, 8.5], [0.0, 0.0, 1.0]]),
        extrinsic=np.eye(4),
        image_size=(32, 16),
    )
    digest = hashlib.sha256()
    seen = Counter()
    for _ in range(300):
        dets = _crowded_detections(rng, int(rng.integers(1, 40)), camera.image_size)
        heatmap, maps = build_maps_from_detections(dets, camera.image_size, num_classes=3)
        k = int(rng.integers(1, 40))
        for suppress in (True, False):
            candidates = topk_peaks(heatmap, k, suppress)
            seen["k below candidates"] += len(topk_peaks(heatmap, 10**6, suppress)) > k
            for cand in candidates:
                digest.update(struct.pack("<qdqq", cand.class_id, cand.score, cand.row, cand.col))
            for out in decode_detections(candidates, maps, camera):
                box = out.box
                digest.update(box.center.tobytes() + box.dims.tobytes() + box.velocity.tobytes())
                digest.update(struct.pack("<dqdq", box.yaw, out.class_id, out.score, out.attribute))
        cells = [
            (min(int(d.projected_center[1] // 4), 3), min(int(d.projected_center[0] // 4), 7))
            for d in dets
        ]
        by_cell = Counter(cells)
        seen["same cell, same class"] += any(
            n > 1 for n in Counter(zip(cells, (d.class_id for d in dets))).values()
        )
        seen["same cell, other class"] += any(
            len({d.class_id for d, c in zip(dets, cells) if c == cell}) > 1 for cell in by_cell
        )
        seen["right or bottom edge"] += any(
            d.projected_center[0] == 32 or d.projected_center[1] == 16 for d in dets
        )
        seen["zero score"] += any(d.score == 0 for d in dets)
        seen["equal scores"] += any(
            n > 1 for s, n in Counter(d.score for d in dets).items() if s > 0
        )
    return digest.hexdigest(), seen


def test_decode_bits_pinned():
    """Crowded frames (shared cells within and across classes, equal and
    zero scores, edge centers, k below the candidate count, suppression on
    and off) decode to the same bits as with dense regression grids."""
    hexdigest, seen = _crowded_decode_digest()
    assert len(seen) == 6 and min(seen.values()) >= 10, seen
    assert hexdigest == _CROWDED_DECODE_DIGEST


# -- one decode pass against the per-candidate decode ----------------------------


def _decode_oracle(candidates, maps, camera, threshold=0.0):
    """The per-candidate decode: one ``unproject_center``, one
    ``OrientationTarget`` and ``decode_orientation``, and one ``Box3D`` per
    candidate, filtered by final confidence and sorted stably by it."""
    ds = maps.downsample
    results = []
    for cand in candidates:
        row, col = cand.row, cand.col
        det = maps.cells.get((row, col))
        if det is None:
            raise ValueError(f"candidate at cell ({row}, {col}) has no planted detection")
        u, v = det.projected_center
        pixel = np.array([(col + (u / ds - col)) * ds, (row + (v / ds - row)) * ds])
        depth = decode_depth(encode_depth(det.depth))
        center = unproject_center(camera, pixel, depth)
        target = OrientationTarget(yaw=det.box3d.yaw)
        yaw = decode_orientation(target.flags.astype(np.float64), target.residuals)
        box = Box3D(
            center=center,
            dims=det.box3d.dims.copy(),
            yaw=yaw,
            velocity=det.box3d.velocity.copy(),
        )
        _, p_3d = confidence(cand.score, det.log_sigma)
        if p_3d >= threshold:
            results.append(
                DetectionBox3D(
                    box=box, class_id=cand.class_id, score=p_3d, attribute=int(det.attribute)
                )
            )
    results.sort(key=lambda d: -d.score)
    return results


# The sha256 of what `_rotated_decode_digest` decodes, computed with the
# per-candidate decode (`_decode_oracle`'s body).
_ROTATED_DECODE_DIGEST = "2ce12ad9f9a8c2d03b49911ed6fbbfe03e39d520ac81d5b7693cbf2c65f2829b"

_HALF_PI = 0.5 * math.pi
# Yaws on the orientation-bin boundaries (covered by three bins) and one ulp
# to either side of them (covered by two).
_BOUNDARY_YAWS = [
    yaw
    for edge in (0.0, _HALF_PI, -_HALF_PI, math.pi, -math.pi)
    for yaw in (edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf))
]


def _rotated_frames():
    """Seeded crowded frames, each seen by its own rotated and translated
    camera, half the yaws drawn from ``_BOUNDARY_YAWS``, a third of the
    depth confidences exactly 1 (so equal class scores give equal final
    scores), and a threshold drawn from 0, 0.25 and (0, 0.8)."""
    rng = np.random.default_rng(2026)
    for _ in range(150):
        extrinsic = np.eye(4)
        extrinsic[:3, :3] = random_rotation(rng)
        extrinsic[:3, 3] = rng.uniform(-3.0, 3.0, 3)
        camera = CameraModel(
            intrinsic=np.array([[20.0, 0.0, 15.0], [0.0, 22.0, 8.5], [0.0, 0.0, 1.0]]),
            extrinsic=extrinsic,
            image_size=(32, 16),
        )
        dets = _crowded_detections(rng, int(rng.integers(1, 40)), camera.image_size)
        for det in dets:
            if rng.uniform() < 0.5:
                box = det.box3d
                yaw = float(rng.choice(_BOUNDARY_YAWS))
                det.box3d = Box3D(box.center, box.dims, yaw, box.velocity)
            if rng.uniform() < 1 / 3:
                det.log_sigma = -745.0
        threshold = float(rng.choice([0.0, 0.25, rng.uniform(0.0, 0.8)]))
        yield camera, dets, threshold, int(rng.integers(1, 40))


def _rotated_decodes():
    """(candidates, maps, camera, threshold) of every ``_rotated_frames``
    frame, with suppression on and off."""
    for camera, dets, threshold, k in _rotated_frames():
        heatmap, maps = build_maps_from_detections(dets, camera.image_size, num_classes=3)
        for suppress in (True, False):
            yield topk_peaks(heatmap, k, suppress), maps, camera, threshold


def _decoded_bytes(out) -> bytes:
    box = out.box
    return (
        box.center.tobytes()
        + box.dims.tobytes()
        + box.velocity.tobytes()
        + struct.pack("<dqdq", box.yaw, out.class_id, out.score, out.attribute)
    )


def _rotated_decode_digest() -> tuple[str, Counter]:
    """Digest of every ``_rotated_decodes`` decode, plus counts of the cases
    they hit."""
    digest = hashlib.sha256()
    seen = Counter()
    for candidates, maps, camera, threshold in _rotated_decodes():
        decoded = decode_detections(candidates, maps, camera, threshold)
        for out in decoded:
            digest.update(_decoded_bytes(out))
        records = [maps.cells[c.row, c.col] for c in candidates]
        seen["boundary yaw"] += any(d.box3d.yaw in _BOUNDARY_YAWS for d in records)
        seen["threshold drops some"] += 0 < threshold and len(decoded) < len(candidates)
        scores = Counter(out.score for out in decoded)
        seen["equal final scores"] += any(n > 1 for n in scores.values())
    return digest.hexdigest(), seen


def test_rotated_decode_bits_pinned():
    """A rotated, translated camera exercises the rotation product of the
    unprojection; the decode keeps the per-candidate bits."""
    hexdigest, seen = _rotated_decode_digest()
    assert len(seen) == 3 and min(seen.values()) >= 10, seen
    assert hexdigest == _ROTATED_DECODE_DIGEST


def test_decode_matches_per_candidate_oracle():
    """Every field and the order of ``decode_detections`` equal the
    per-candidate decode bit for bit, on the crowded rotated-camera frames,
    and every decoded box field has a buffer of its own, shared with no other
    field and no planted record."""
    for candidates, maps, camera, threshold in _rotated_decodes():
        decoded = decode_detections(candidates, maps, camera, threshold)
        expected = _decode_oracle(candidates, maps, camera, threshold)
        assert list(map(_decoded_bytes, decoded)) == list(map(_decoded_bytes, expected))
        fields = [a for out in decoded for a in (out.box.center, out.box.dims, out.box.velocity)]
        planted = [a for det in maps.cells.values() for a in (det.box3d.dims, det.box3d.velocity)]
        buffers = [_buffer(a) for a in fields]
        assert all(b.nbytes == a.nbytes for a, b in zip(fields, buffers))
        distinct = {id(b) for b in buffers + [_buffer(a) for a in planted]}
        assert len(distinct) == len(fields) + len(planted)


def _buffer(array: np.ndarray) -> np.ndarray:
    """The array that owns ``array``'s memory."""
    while array.base is not None:
        array = array.base
    return array
