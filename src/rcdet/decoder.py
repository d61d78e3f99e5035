"""Decode class-score peaks and planted detection records into 3D detections.

Class scores are a map from the planted (class, row, col) cells of the image
feature grid (image resolution divided by ``downsample``) to their max score.
Peak picking takes the K highest across all classes after 3x3 local-maximum
suppression, reading only planted cells and their neighbours, so it scales
with the detections, not the class ids or image area. Each candidate is
assembled from the record planted at its cell: subpixel center offset,
inverse-sigmoid-transformed depth, multi-bin orientation, dimensions,
velocity, and attribute. The final confidence attenuates the class score by
the predicted depth uncertainty: p_3d = exp(-sigma^2) * p_k.

In this package the regression values are not produced by a network; they
are the preliminary-detection records themselves (the file interface
standing in for the regression heads), kept per feature-grid cell, so
decoding is exactly invertible and testable, and only planted cells are ever
written or read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoCoveredBin
from .geometry import (
    BIN_HALF_WIDTH,
    DEFAULT_BIN_CENTERS,
    Box3D,
    CameraModel,
    unproject_point,
    wrap_angle,
)
from .radar import PreliminaryDetection

DEFAULT_TOP_K = 100
MIN_DECODED_DEPTH = 1e-3

unproject_center = unproject_point


@dataclass
class Candidate:
    """A class-score peak: class, confidence, and feature-grid cell."""

    class_id: int
    score: float
    row: int
    col: int


@dataclass(eq=False)
class DetectionBox3D:
    """A decoded detection: box, class, uncertainty-weighted confidence, attribute."""

    box: Box3D
    class_id: int
    score: float
    attribute: int = 0


@dataclass(eq=False)
class RegressionMaps:
    """The regression slots of the feature grid: the detection record planted
    at each (row, col) cell. Cells without a record hold nothing."""

    cells: dict[tuple[int, int], PreliminaryDetection] = field(default_factory=dict)
    downsample: int = 4


def encode_depth(depth: float) -> float:
    """Inverse of :func:`decode_depth` (the value whose decode gives ``depth``)."""
    if depth <= 0:
        raise ValueError(f"depth must be positive, got {depth}")
    return -math.log(depth)


def decode_depth(d_sig: float) -> float:
    """Depth from its inverse-sigmoid transform: 1/sigmoid(x) - 1 == exp(-x).

    Output is clamped to at least 1e-3 m.
    """
    return max(math.exp(-float(d_sig)), MIN_DECODED_DEPTH)


def confidence(p_k: float, log_sigma: float) -> tuple[float, float]:
    """(depth confidence, final confidence) for a class score and log sigma.

    p_dep = exp(-sigma^2) with sigma = exp(log_sigma); p_3d = p_dep * p_k.
    """
    try:
        sigma = math.exp(float(log_sigma))
    except OverflowError:
        sigma = math.inf  # exp(-sigma^2) is already 0.0 from log_sigma ~ 3.3 on
    p_dep = math.exp(-sigma * sigma)
    return p_dep, p_dep * p_k


def decode_orientation(bin_confidences: np.ndarray, bin_residuals: np.ndarray) -> float:
    """Yaw from multi-bin outputs over ``DEFAULT_BIN_CENTERS``: argmax-confidence
    bin center plus its atan2(sin, cos) residual, wrapped to (-pi, pi]."""
    conf = np.asarray(bin_confidences, dtype=np.float64).reshape(-1)
    residuals = np.asarray(bin_residuals, dtype=np.float64).reshape(conf.shape[0], 2)
    best = int(np.argmax(conf))
    return wrap_angle(
        float(DEFAULT_BIN_CENTERS[best]) + math.atan2(residuals[best, 1], residuals[best, 0])
    )


def topk_peaks(
    scores: dict[tuple[int, int, int], float], k: int = DEFAULT_TOP_K, suppress: bool = True
) -> list[Candidate]:
    """The K highest-confidence peaks of a (class, row, col) -> score map.

    Only positive entries produce candidates. With ``suppress`` on, an entry
    qualifies only when none of its 3x3 neighbours within its class is
    greater; an absent neighbour scores 0.0, and plateaus all qualify. Ties
    are broken by (class, row, column) ascending, which makes a uniform map
    decode to the first K cells in scan order.
    """
    peaks = sorted(
        (-score, cls, row, col)
        for (cls, row, col), score in scores.items()
        if score > 0 and not (suppress and _beaten(scores, cls, row, col, score))
    )
    return [
        Candidate(class_id=cls, score=-neg, row=row, col=col)
        for neg, cls, row, col in peaks[:k]
    ]


def _beaten(scores: dict, cls: int, row: int, col: int, score: float) -> bool:
    return any(
        scores.get((cls, row + dr, col + dc), 0.0) > score
        for dr in (-1, 0, 1)
        for dc in (-1, 0, 1)
    )


def build_maps_from_detections(
    dets: list[PreliminaryDetection],
    image_size: tuple[int, int],
    num_classes: int,
    downsample: int = 4,
) -> tuple[dict[tuple[int, int, int], float], RegressionMaps]:
    """Plant detection records into a class score map and regression slots.

    Each detection writes its score at (class, row, col) of its projected
    center's feature cell (collisions keep the max score) and becomes that
    cell's regression record; when two detections share a cell the later one
    wins the record. A class id outside [0, ``num_classes``) or a center
    outside [0, W] x [0, H], NaN included, raises ValueError.
    This is the bridge from the detections file format to the decoder.
    """
    width, height = image_size
    if width % downsample or height % downsample:
        raise ValueError(
            f"downsample {downsample} must divide image size {image_size} exactly"
        )
    grid_w, grid_h = width // downsample, height // downsample
    scores: dict[tuple[int, int, int], float] = {}
    maps = RegressionMaps(downsample=downsample)
    for det in dets:
        if not 0 <= det.class_id < num_classes:
            raise ValueError(f"class_id {det.class_id} outside [0, {num_classes})")
        u, v = det.projected_center
        if not (0 <= u <= width and 0 <= v <= height):
            raise ValueError(f"projected center ({u}, {v}) outside the {width}x{height} image")
        # The right and bottom image edges belong to the last cell.
        col = min(int(math.floor(u / downsample)), grid_w - 1)
        row = min(int(math.floor(v / downsample)), grid_h - 1)
        key = (det.class_id, row, col)
        scores[key] = max(scores.get(key, 0.0), float(det.score))
        maps.cells[row, col] = det
    return scores, maps


def decode_detections(
    candidates: list[Candidate],
    maps: RegressionMaps,
    camera: CameraModel,
    threshold: float = 0.0,
) -> list[DetectionBox3D]:
    """Assemble candidates into 3D boxes and filter by final confidence.

    Each field is decoded from the record planted at the candidate's cell;
    a candidate at a cell without a record raises ValueError. Results are
    sorted by confidence, descending; ties keep candidate order.

    All candidates decode in one pass, each with the arithmetic of a lone
    decode: its pixel, unprojection (one ``gesv`` solve and rotation
    product per candidate, stacked) and orientation residual are array
    expressions over the candidates, its depth and confidence ``math``
    expressions, and every box owns its arrays.
    """
    dets = []
    for cand in candidates:
        det = maps.cells.get((cand.row, cand.col))
        if det is None:
            raise ValueError(
                f"candidate at cell ({cand.row}, {cand.col}) has no planted detection"
            )
        dets.append(det)
    if not dets:
        return []
    # Decode through what a regression head outputs (subpixel offset,
    # inverse-sigmoid depth, orientation bins), not the record's raw values,
    # which can differ from the decoded ones in the last bit.
    ds = maps.downsample
    cells = np.array([(cand.col, cand.row) for cand in candidates], dtype=np.float64)
    pixels = (cells + (np.array([det.projected_center for det in dets]) / ds - cells)) * ds
    depths = np.array([decode_depth(encode_depth(det.depth)) for det in dets])
    n = len(dets)
    rays = np.linalg.solve(
        np.broadcast_to(camera.intrinsic, (n, 3, 3)),
        np.column_stack([pixels, np.ones(n)])[:, :, None],
    )[:, :, 0]
    cam_pts = rays * (depths / rays[:, 2])[:, None]
    centers = np.matmul(camera.rotation.T, (cam_pts - camera.translation)[:, :, None])[:, :, 0]
    bins, offsets = zip(*(_covering_bin(det.box3d.yaw) for det in dets))
    offsets = np.array(offsets)
    residuals = zip(np.sin(offsets).tolist(), np.cos(offsets).tolist())

    results = []
    for cand, det, center, c, (sin, cos) in zip(candidates, dets, centers, bins, residuals):
        box = Box3D(
            center=center.copy(),
            dims=det.box3d.dims.copy(),
            yaw=wrap_angle(c + math.atan2(sin, cos)),
            velocity=det.box3d.velocity.copy(),
        )
        _, p_3d = confidence(cand.score, det.log_sigma)
        if p_3d >= threshold:
            results.append(
                DetectionBox3D(
                    box=box,
                    class_id=cand.class_id,
                    score=p_3d,
                    attribute=int(det.attribute),
                )
            )
    results.sort(key=lambda d: -d.score)
    return results


_BIN_CENTERS = DEFAULT_BIN_CENTERS.tolist()


def _covering_bin(yaw: float) -> tuple[float, float]:
    """The first bin center covering ``yaw`` and the wrapped offset to it:
    the bin ``decode_orientation`` picks from the yaw's bin flags."""
    for c in _BIN_CENTERS:
        offset = wrap_angle(yaw - c)
        if abs(offset) <= BIN_HALF_WIDTH:
            return c, offset
    raise NoCoveredBin(f"yaw {yaw} covers no orientation bin")
