"""Handcrafted radar cluster features and feature-to-heatmap rasterization.

A cluster's geometry and aggregate motion are summarized by per-channel
statistics of the normalized BEV positions and compensated velocities of its
members, optionally extended with the orientation of the best-fitting line
through the cluster. Four feature combinations are available:

  mean        max, min, mean                          -> 12 values
  mean_ort    max, min, mean, orientation             -> 13 values
  median_ort  max, min, median, orientation           -> 13 values
  complete    max, min, mean, median, var, orientation -> 21 values

Statistic blocks are laid out in the order listed, each over the channels
(x, y, v_x, v_y). Members are reduced in a canonical lexicographic order so
the output is exactly invariant under member reordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLine, EmptyCluster, MixedChannelCounts
from .radar import Cluster

DEFAULT_POSITION_NORM = 60.0
DEFAULT_VELOCITY_NORM = 20.0
DEFAULT_DOWNSAMPLE = 4

_SLOPE_EPS = 1e-12

VARIANTS = ("mean", "mean_ort", "median_ort", "complete")

_VARIANT_LENGTHS = {"mean": 12, "mean_ort": 13, "median_ort": 13, "complete": 21}


@dataclass
class HandcraftedConfig:
    """Feature combination and normalization scales for handcrafted extraction."""

    variant: str = "mean_ort"
    position_norm: float = DEFAULT_POSITION_NORM
    velocity_norm: float = DEFAULT_VELOCITY_NORM

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.position_norm <= 0 or self.velocity_norm <= 0:
            raise ValueError("normalization constants must be positive")

    @property
    def length(self) -> int:
        return _VARIANT_LENGTHS[self.variant]


@dataclass(eq=False)
class FeatureVector:
    """Ordered per-cluster feature values plus the strategy that produced them."""

    values: np.ndarray
    kind: str = "mean_ort"

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(eq=False)
class FeatureHeatmap:
    """Cluster features painted onto the image feature plane.

    ``owner`` (H_f x W_f, int32) holds the index of the cluster whose
    features paint each feature pixel, -1 where none does; ``rows``
    (n_clusters x C) holds each cluster's features once.
    """

    owner: np.ndarray
    rows: np.ndarray
    downsample: int

    @property
    def channels(self) -> int:
        return self.rows.shape[1]

    @property
    def values(self) -> np.ndarray:
        """The dense C x H_f x W_f grid, built anew on every access: each
        owned pixel carries its owner's row, every other pixel is zero."""
        dense = np.zeros((self.channels, *self.owner.shape))
        for idx, row in enumerate(self.rows):
            dense[:, self.owner == idx] = row[:, None]
        return dense


def _canonical_rows(cluster: Cluster) -> np.ndarray:
    """Members as (N, 4) rows (x, y, v_x, v_y), lexicographically sorted.

    The sort fixes the reduction order, making every statistic bit-identical
    under member permutations.
    """
    rows = np.concatenate([cluster.positions()[:, :2], cluster.velocities()], axis=1)
    order = np.lexsort((rows[:, 3], rows[:, 2], rows[:, 1], rows[:, 0]))
    return rows[order]


def cluster_slope(cluster: Cluster, position_norm: float = DEFAULT_POSITION_NORM) -> float:
    """Least-squares slope of the line through the normalized BEV positions.

    Raises DegenerateLine when the normalized x spread is below 1e-12
    (vertical line or a single point).
    """
    rows = _canonical_rows(cluster)
    if rows.shape[0] < 1:
        raise EmptyCluster("cannot fit a line through an empty cluster")
    x = rows[:, 0] / position_norm
    y = rows[:, 1] / position_norm
    dx = x - x.mean()
    denom = float(np.sum(dx * dx))
    if denom < _SLOPE_EPS:
        raise DegenerateLine("x spread too small for a least-squares slope")
    return float(np.sum(dx * (y - y.mean()))) / denom


def slope_to_orientation(slope: float | None, distinct_points: int = 2) -> float:
    """Convert a fitted slope to an orientation angle in (-pi/2, pi/2].

    ``slope=None`` marks a degenerate fit: vertical clusters (two or more
    distinct points) map to pi/2, single-point clusters to 0.0.
    """
    if slope is not None:
        return math.atan(slope)
    return 0.5 * math.pi if distinct_points >= 2 else 0.0


def cluster_orientation(
    cluster: Cluster, position_norm: float = DEFAULT_POSITION_NORM
) -> float:
    """Orientation of the best-fitting line, applying the degenerate conventions."""
    try:
        return slope_to_orientation(cluster_slope(cluster, position_norm))
    except DegenerateLine:
        positions = cluster.positions()[:, :2]
        distinct = len({(float(p[0]), float(p[1])) for p in positions})
        return slope_to_orientation(None, distinct_points=distinct)


def extract_handcrafted(cluster: Cluster, cfg: HandcraftedConfig) -> FeatureVector:
    """Per-channel statistics of normalized member positions and velocities.

    Positions are divided by ``cfg.position_norm`` and velocities by
    ``cfg.velocity_norm``. Raises EmptyCluster for N = 0; the pipeline maps
    that to an all-zero vector so empty clusters still rasterize uniformly.
    """
    if cluster.member_count == 0:
        raise EmptyCluster("handcrafted features need at least one member")
    rows = _canonical_rows(cluster)
    norm = np.array(
        [cfg.position_norm, cfg.position_norm, cfg.velocity_norm, cfg.velocity_norm]
    )
    channels = rows / norm

    blocks = [channels.max(axis=0), channels.min(axis=0)]
    if cfg.variant in ("mean", "mean_ort", "complete"):
        blocks.append(channels.mean(axis=0))
    if cfg.variant in ("median_ort", "complete"):
        blocks.append(np.median(channels, axis=0))
    if cfg.variant == "complete":
        blocks.append(channels.var(axis=0))
    values = np.concatenate(blocks)
    if cfg.variant != "mean":
        orientation = cluster_orientation(cluster, cfg.position_norm)
        values = np.append(values, orientation)
    return FeatureVector(values=values, kind=cfg.variant)


def zero_features(length: int, kind: str = "empty") -> FeatureVector:
    """The all-zero vector used for clusters with no radar evidence."""
    return FeatureVector(values=np.zeros(length), kind=kind)


def rasterize_heatmap(
    clusters_with_features: list[tuple[Cluster, FeatureVector]],
    image_size: tuple[int, int],
    downsample: int = DEFAULT_DOWNSAMPLE,
) -> FeatureHeatmap:
    """Paint each cluster's feature values into its detection's 2D box.

    Operates on the feature grid (image resolution divided by ``downsample``,
    which must divide both image dimensions). A feature pixel receives a
    cluster's values when the pixel's image-space footprint center lies
    inside the detection's box (bounds inclusive). Where boxes overlap, the
    cluster whose detection has the smaller estimated depth wins; equal
    depths resolve in favor of the later cluster in the input list. The
    result records each pixel's winning cluster index (-1 where no box
    covers it) and each cluster's features once.
    """
    width, height = image_size
    if width % downsample or height % downsample:
        raise ValueError(
            f"downsample {downsample} must divide image size {image_size} exactly"
        )
    lengths = {len(fv) for _, fv in clusters_with_features}
    if len(lengths) > 1:
        raise MixedChannelCounts(f"feature lengths differ: {sorted(lengths)}")
    channels = lengths.pop() if lengths else 0
    rows = np.array([fv.values for _, fv in clusters_with_features]).reshape(
        len(clusters_with_features), channels
    )
    grid_w, grid_h = width // downsample, height // downsample
    owner = np.full((grid_h, grid_w), -1, dtype=np.int32)

    centers_u = (np.arange(grid_w) + 0.5) * downsample
    centers_v = (np.arange(grid_h) + 0.5) * downsample

    # Painter's algorithm: draw farthest detections first so nearer ones
    # overwrite them; the sort is stable, so equal depths keep input order.
    order = sorted(
        range(len(clusters_with_features)),
        key=lambda i: -clusters_with_features[i][0].detection.depth,
    )
    for idx in order:
        box = clusters_with_features[idx][0].detection.bbox2d
        if not (0 <= box.x_min and box.x_max <= width and 0 <= box.y_min and box.y_max <= height):
            raise ValueError(f"detection bbox {box} exceeds image bounds {image_size}")
        cols = np.flatnonzero((centers_u >= box.x_min) & (centers_u <= box.x_max))
        rowsel = np.flatnonzero((centers_v >= box.y_min) & (centers_v <= box.y_max))
        owner[np.ix_(rowsel, cols)] = idx
    return FeatureHeatmap(owner=owner, rows=rows, downsample=downsample)
