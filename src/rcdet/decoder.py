"""Decode heatmap peaks and regression grids into final 3D detections.

The class heatmap lives on the image feature grid (image resolution divided
by ``downsample``). Peak picking takes the K highest values across all class
channels after 3x3 local-maximum suppression. Each candidate is assembled
from the regression grids at its cell: subpixel center offset, inverse-
sigmoid-transformed depth, multi-bin orientation, dimensions, velocity, and
attribute. The final confidence attenuates the class score by the predicted
depth uncertainty: p_3d = exp(-sigma^2) * p_k.

In this package the regression grids are not produced by a network; they are
planted from preliminary-detection records (the file interface standing in
for the regression heads), which makes decoding exactly invertible and
testable.
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
    """Per-cell regression values on the feature grid, one entry per field."""

    offset: np.ndarray  # (2, H, W) subpixel center offset in cells
    depth_sig: np.ndarray  # (H, W) inverse-sigmoid-transformed depth
    log_sigma: np.ndarray  # (H, W) log std of the depth estimate
    dims: np.ndarray  # (3, H, W) width, length, height
    bin_conf: np.ndarray  # (N_bins, H, W)
    bin_residual: np.ndarray  # (N_bins, 2, H, W) predicted (cos, sin)
    velocity: np.ndarray  # (2, H, W)
    attribute: np.ndarray  # (H, W) integer labels
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

    With ``suppress`` on, a pixel qualifies only when it equals the maximum
    of its 3x3 neighborhood within its channel (plateaus all qualify).
    Zero-valued pixels never produce candidates. Ties are broken by
    (channel, row, column) ascending, which makes a uniform heatmap decode
    to the first K cells in scan order.
    """
    heatmap = np.asarray(heatmap, dtype=np.float64)
    if heatmap.ndim != 3:
        raise ValueError(f"heatmap must be (C, H, W), got {heatmap.shape}")
    if suppress:
        padded = np.pad(
            heatmap, ((0, 0), (1, 1), (1, 1)), constant_values=-np.inf
        )
        window_max = np.full_like(heatmap, -np.inf)
        for dr in range(3):
            for dc in range(3):
                np.maximum(
                    window_max,
                    padded[:, dr : dr + heatmap.shape[1], dc : dc + heatmap.shape[2]],
                    out=window_max,
                )
        eligible = (heatmap == window_max) & (heatmap > 0)
    else:
        eligible = heatmap > 0
    chans, rows, cols = np.nonzero(eligible)
    values = heatmap[chans, rows, cols]
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
    """Plant detection records into a class heatmap and regression grids.

    Each detection writes its score at its projected center's feature cell
    (collisions keep the max score) and fills that cell's regression slots;
    when two detections share a cell the later one wins the regression slot.
    A center outside [0, W] x [0, H], NaN included, raises ValueError.
    This is the bridge from the detections file format to the decoder.
    """
    width, height = image_size
    if width % downsample or height % downsample:
        raise ValueError(
            f"downsample {downsample} must divide image size {image_size} exactly"
        )
    grid_w, grid_h = width // downsample, height // downsample
    n_bins = len(bin_centers)
    heatmap = np.zeros((num_classes, grid_h, grid_w))
    maps = RegressionMaps(
        offset=np.zeros((2, grid_h, grid_w)),
        depth_sig=np.zeros((grid_h, grid_w)),
        log_sigma=np.zeros((grid_h, grid_w)),
        dims=np.ones((3, grid_h, grid_w)),
        bin_conf=np.zeros((n_bins, grid_h, grid_w)),
        bin_residual=np.zeros((n_bins, 2, grid_h, grid_w)),
        velocity=np.zeros((2, grid_h, grid_w)),
        attribute=np.zeros((grid_h, grid_w), dtype=np.int64),
        downsample=downsample,
        bin_centers=np.asarray(bin_centers, dtype=np.float64),
    )
    for det in dets:
        if not 0 <= det.class_id < num_classes:
            raise ValueError(f"class_id {det.class_id} outside [0, {num_classes})")
        u, v = det.projected_center
        if not (0 <= u <= width and 0 <= v <= height):
            raise ValueError(f"projected center ({u}, {v}) outside the {width}x{height} image")
        gu = u / downsample
        gv = v / downsample
        # The right and bottom image edges belong to the last cell.
        col = min(int(math.floor(gu)), grid_w - 1)
        row = min(int(math.floor(gv)), grid_h - 1)
        heatmap[det.class_id, row, col] = max(heatmap[det.class_id, row, col], det.score)
        maps.offset[:, row, col] = (gu - col, gv - row)
        maps.depth_sig[row, col] = encode_depth(det.depth)
        maps.log_sigma[row, col] = det.log_sigma
        maps.dims[:, row, col] = det.box3d.dims
        target = OrientationTarget(yaw=det.box3d.yaw, bin_centers=maps.bin_centers)
        maps.bin_conf[:, row, col] = target.flags.astype(np.float64)
        maps.bin_residual[:, :, row, col] = target.residuals
        maps.velocity[:, row, col] = det.box3d.velocity
        maps.attribute[row, col] = det.attribute
    return heatmap, maps


def decode_detections(
    candidates: list[Candidate],
    maps: RegressionMaps,
    camera: CameraModel,
    threshold: float = 0.0,
) -> list[DetectionBox3D]:
    """Assemble candidates into 3D boxes and filter by final confidence.

    Results are sorted by confidence, descending; ties keep candidate order.
    """
    results = []
    for cand in candidates:
        row, col = cand.row, cand.col
        offset = maps.offset[:, row, col]
        pixel = np.array(
            [(col + offset[0]) * maps.downsample, (row + offset[1]) * maps.downsample]
        )
        depth = decode_depth(maps.depth_sig[row, col])
        center = unproject_point(camera, pixel, depth)
        yaw = decode_orientation(
            maps.bin_conf[:, row, col], maps.bin_residual[:, :, row, col], maps.bin_centers
        )
        box = Box3D(
            center=center,
            dims=maps.dims[:, row, col],
            yaw=yaw,
            velocity=maps.velocity[:, row, col],
        )
        _, p_3d = confidence(cand.score, maps.log_sigma[row, col])
        if p_3d >= threshold:
            results.append(
                DetectionBox3D(
                    box=box,
                    class_id=cand.class_id,
                    score=p_3d,
                    attribute=int(maps.attribute[row, col]),
                )
            )
    results.sort(key=lambda d: -d.score)
    return results
