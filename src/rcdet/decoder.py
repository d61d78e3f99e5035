"""Decode heatmap peaks and planted detection records into final 3D detections.

The class heatmap lives on the image feature grid (image resolution divided
by ``downsample``). Peak picking takes the K highest values across all class
channels after 3x3 local-maximum suppression, comparing each positive pixel
with its in-bounds neighbours only. Each candidate is assembled from the
record planted at its cell: subpixel center offset, inverse-sigmoid-
transformed depth, multi-bin orientation, dimensions, velocity, and
attribute. The final confidence attenuates the class score by the predicted
depth uncertainty: p_3d = exp(-sigma^2) * p_k.

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

from .geometry import Box3D, CameraModel, unproject_point, wrap_angle
from .losses import DEFAULT_BIN_CENTERS, OrientationTarget
from .radar import PreliminaryDetection

DEFAULT_TOP_K = 100
MIN_DECODED_DEPTH = 1e-3

unproject_center = unproject_point


@dataclass
class Candidate:
    """A heatmap peak: class channel, confidence, and feature-grid cell."""

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
    bin_centers: np.ndarray = field(default_factory=lambda: DEFAULT_BIN_CENTERS.copy())


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


def decode_orientation(
    bin_confidences: np.ndarray,
    bin_residuals: np.ndarray,
    bin_centers: np.ndarray = DEFAULT_BIN_CENTERS,
) -> float:
    """Yaw from multi-bin outputs: argmax-confidence bin center plus its
    atan2(sin, cos) residual, wrapped to (-pi, pi]."""
    conf = np.asarray(bin_confidences, dtype=np.float64).reshape(-1)
    residuals = np.asarray(bin_residuals, dtype=np.float64).reshape(conf.shape[0], 2)
    best = int(np.argmax(conf))
    return wrap_angle(
        float(bin_centers[best]) + math.atan2(residuals[best, 1], residuals[best, 0])
    )


def topk_peaks(
    heatmap: np.ndarray, k: int = DEFAULT_TOP_K, suppress: bool = True
) -> list[Candidate]:
    """The K highest-confidence peaks across all class channels.

    With ``suppress`` on, a pixel qualifies only when no in-bounds pixel of
    its 3x3 neighborhood within its channel is greater or NaN (plateaus all
    qualify). Only positive pixels produce candidates, and only their
    windows are read. Ties are broken by (channel, row, column) ascending,
    which makes a uniform heatmap decode to the first K cells in scan order.
    """
    heatmap = np.asarray(heatmap, dtype=np.float64)
    if heatmap.ndim != 3:
        raise ValueError(f"heatmap must be (C, H, W), got {heatmap.shape}")
    chans, rows, cols = np.nonzero(heatmap)
    values = heatmap[chans, rows, cols]
    keep = values > 0
    if suppress:
        _, height, width = heatmap.shape
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                # A neighbour off the grid clamps onto a pixel of the same
                # window, which the comparison already covers.
                rr = np.clip(rows + dr, 0, height - 1)
                cc = np.clip(cols + dc, 0, width - 1)
                keep &= heatmap[chans, rr, cc] <= values
    chans, rows, cols, values = chans[keep], rows[keep], cols[keep], values[keep]
    order = np.lexsort((cols, rows, chans, -values))[:k]
    return [
        Candidate(class_id=int(chans[i]), score=float(values[i]), row=int(rows[i]), col=int(cols[i]))
        for i in order
    ]


def build_maps_from_detections(
    dets: list[PreliminaryDetection],
    image_size: tuple[int, int],
    num_classes: int,
    downsample: int = 4,
    bin_centers: np.ndarray = DEFAULT_BIN_CENTERS,
) -> tuple[np.ndarray, RegressionMaps]:
    """Plant detection records into a class heatmap and regression slots.

    Each detection writes its score at its projected center's feature cell
    (collisions keep the max score) and becomes that cell's regression
    record; when two detections share a cell the later one wins the record.
    A center outside [0, W] x [0, H], NaN included, raises ValueError.
    This is the bridge from the detections file format to the decoder.
    """
    width, height = image_size
    if width % downsample or height % downsample:
        raise ValueError(
            f"downsample {downsample} must divide image size {image_size} exactly"
        )
    grid_w, grid_h = width // downsample, height // downsample
    heatmap = np.zeros((num_classes, grid_h, grid_w))
    maps = RegressionMaps(
        downsample=downsample, bin_centers=np.asarray(bin_centers, dtype=np.float64)
    )
    for det in dets:
        if not 0 <= det.class_id < num_classes:
            raise ValueError(f"class_id {det.class_id} outside [0, {num_classes})")
        u, v = det.projected_center
        if not (0 <= u <= width and 0 <= v <= height):
            raise ValueError(f"projected center ({u}, {v}) outside the {width}x{height} image")
        # The right and bottom image edges belong to the last cell.
        col = min(int(math.floor(u / downsample)), grid_w - 1)
        row = min(int(math.floor(v / downsample)), grid_h - 1)
        heatmap[det.class_id, row, col] = max(heatmap[det.class_id, row, col], det.score)
        maps.cells[row, col] = det
    return heatmap, maps


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
    """
    ds = maps.downsample
    results = []
    for cand in candidates:
        row, col = cand.row, cand.col
        det = maps.cells.get((row, col))
        if det is None:
            raise ValueError(f"candidate at cell ({row}, {col}) has no planted detection")
        u, v = det.projected_center
        # Decode through what a regression head outputs (subpixel offset,
        # inverse-sigmoid depth, orientation bins), not the record's raw
        # values, which can differ from the decoded ones in the last bit.
        pixel = np.array([(col + (u / ds - col)) * ds, (row + (v / ds - row)) * ds])
        depth = decode_depth(encode_depth(det.depth))
        center = unproject_point(camera, pixel, depth)
        target = OrientationTarget(yaw=det.box3d.yaw, bin_centers=maps.bin_centers)
        yaw = decode_orientation(
            target.flags.astype(np.float64), target.residuals, maps.bin_centers
        )
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
                    box=box,
                    class_id=cand.class_id,
                    score=p_3d,
                    attribute=int(det.attribute),
                )
            )
    results.sort(key=lambda d: -d.score)
    return results
