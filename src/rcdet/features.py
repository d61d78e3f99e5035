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
(x, y, v_x, v_y). Members are reduced in their canonical order
(``radar.canonical_members``), so the output is exactly invariant under
member reordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateLine, EmptyCluster, MixedChannelCounts, check_number
from .radar import Cluster, PreliminaryDetection, canonical_members

DEFAULT_POSITION_NORM = 60.0
DEFAULT_VELOCITY_NORM = 20.0
DEFAULT_DOWNSAMPLE = 4

_SLOPE_EPS = 1e-12

# Each variant's statistic blocks in layout order, one value per channel
# (x, y, v_x, v_y) each; every variant but "mean" appends the orientation.
_VARIANT_BLOCKS = {
    "mean": (np.max, np.min, np.mean),
    "mean_ort": (np.max, np.min, np.mean),
    "median_ort": (np.max, np.min, np.median),
    "complete": (np.max, np.min, np.mean, np.median, np.var),
}
VARIANTS = tuple(_VARIANT_BLOCKS)


@dataclass
class HandcraftedConfig:
    """Feature combination and normalization scales for handcrafted extraction."""

    variant: str = "mean_ort"
    position_norm: float = DEFAULT_POSITION_NORM
    velocity_norm: float = DEFAULT_VELOCITY_NORM

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        check_number("position_norm", self.position_norm, above=0)
        check_number("velocity_norm", self.velocity_norm, above=0)

    @property
    def length(self) -> int:
        return 4 * len(_VARIANT_BLOCKS[self.variant]) + (self.variant != "mean")


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


def _slope(members: np.ndarray, position_norm: float) -> float:
    """Least-squares slope through the normalized BEV positions of canonical
    member rows; raises DegenerateLine when the x spread is below 1e-12."""
    if not len(members):
        raise EmptyCluster("cannot fit a line through an empty cluster")
    x = members[:, 0] / position_norm
    y = members[:, 1] / position_norm
    dx = x - x.mean()
    denom = float(np.sum(dx * dx))
    if denom < _SLOPE_EPS:
        raise DegenerateLine("x spread too small for a least-squares slope")
    return float(np.sum(dx * (y - y.mean()))) / denom


def _orientation(members: np.ndarray, position_norm: float) -> float:
    """Orientation of the best-fitting line through canonical member rows,
    applying the degenerate conventions."""
    try:
        return slope_to_orientation(_slope(members, position_norm))
    except DegenerateLine:
        bev = members[:, :2]
        return slope_to_orientation(None, distinct_points=2 if (bev != bev[0]).any() else 1)


def cluster_slope(cluster: Cluster, position_norm: float = DEFAULT_POSITION_NORM) -> float:
    """Least-squares slope of the line through the normalized BEV positions.

    Raises DegenerateLine when the normalized x spread is below 1e-12
    (vertical line or a single point).
    """
    return _slope(canonical_members([cluster])[0], position_norm)


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
    return _orientation(canonical_members([cluster])[0], position_norm)


def handcrafted_rows(clusters: Sequence[Cluster], cfg: HandcraftedConfig) -> np.ndarray:
    """Every cluster's features from one pass over the frame's
    ``canonical_members``, shape (n_clusters, ``cfg.length``); empty clusters
    are zero rows. Positions are divided by ``cfg.position_norm``, velocities
    by ``cfg.velocity_norm``, and each statistic reduces a cluster's slice.
    """
    return _handcrafted_rows(*canonical_members(clusters), cfg)


def _handcrafted_rows(
    members: np.ndarray, bounds: np.ndarray, cfg: HandcraftedConfig
) -> np.ndarray:
    """:func:`handcrafted_rows` of the clusters whose ``canonical_members``
    are ``members`` and ``bounds``."""
    rows = np.zeros((len(bounds) - 1, cfg.length))
    norm = np.array([cfg.position_norm] * 2 + [cfg.velocity_norm] * 2)
    channels = np.concatenate([members[:, :2], members[:, 3:]], axis=1) / norm
    statistics = _VARIANT_BLOCKS[cfg.variant]
    for row, a, b in zip(rows, bounds[:-1], bounds[1:]):
        if b > a:
            row[: 4 * len(statistics)] = np.concatenate(
                [stat(channels[a:b], axis=0) for stat in statistics]
            )
            if cfg.variant != "mean":
                row[-1] = _orientation(members[a:b], cfg.position_norm)
    return rows


def extract_handcrafted(cluster: Cluster, cfg: HandcraftedConfig) -> FeatureVector:
    """One cluster's row of :func:`handcrafted_rows`.

    Raises EmptyCluster for N = 0; the frame pass makes that an all-zero
    row so empty clusters still rasterize uniformly.
    """
    if cluster.member_count == 0:
        raise EmptyCluster("handcrafted features need at least one member")
    return FeatureVector(values=handcrafted_rows([cluster], cfg)[0], kind=cfg.variant)


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
    lengths = {len(fv) for _, fv in clusters_with_features}
    if len(lengths) > 1:
        raise MixedChannelCounts(f"feature lengths differ: {sorted(lengths)}")
    channels = lengths.pop() if lengths else 0
    rows = np.array([fv.values for _, fv in clusters_with_features]).reshape(
        len(clusters_with_features), channels
    )
    detections = [cluster.detection for cluster, _ in clusters_with_features]
    owner = _paint_owner(detections, image_size, downsample)
    return FeatureHeatmap(owner=owner, rows=rows, downsample=downsample)


def _paint_owner(
    detections: Sequence[PreliminaryDetection], image_size: tuple[int, int], downsample: int
) -> np.ndarray:
    """The ``owner`` grid of :func:`rasterize_heatmap` for clusters of
    ``detections``, in order: each feature pixel holds the index of the
    nearest detection whose box covers the pixel's center, -1 where none
    does."""
    width, height = image_size
    if width % downsample or height % downsample:
        raise ValueError(
            f"downsample {downsample} must divide image size {image_size} exactly"
        )
    grid_w, grid_h = width // downsample, height // downsample
    owner = np.full((grid_h, grid_w), -1, dtype=np.int32)

    # The pixel centres are sorted, so the pixels whose centre lies inside a
    # box, edges included, are one slice per axis: from the first centre at
    # or past the min edge ("left") to the last centre at or before the max
    # edge ("right").
    boxes = [det.bbox2d for det in detections]
    centers_u = (np.arange(grid_w) + 0.5) * downsample
    centers_v = (np.arange(grid_h) + 0.5) * downsample
    c0 = np.searchsorted(centers_u, [box.x_min for box in boxes], "left").tolist()
    c1 = np.searchsorted(centers_u, [box.x_max for box in boxes], "right").tolist()
    r0 = np.searchsorted(centers_v, [box.y_min for box in boxes], "left").tolist()
    r1 = np.searchsorted(centers_v, [box.y_max for box in boxes], "right").tolist()

    # Painter's algorithm: draw farthest detections first so nearer ones
    # overwrite them; the sort is stable, so equal depths keep input order.
    order = sorted(range(len(detections)), key=lambda i: -detections[i].depth)
    for idx in order:
        box = boxes[idx]
        if not (0 <= box.x_min and box.x_max <= width and 0 <= box.y_min and box.y_max <= height):
            raise ValueError(f"detection bbox {box} exceeds image bounds {image_size}")
        owner[r0[idx] : r1[idx], c0[idx] : c1[idx]] = idx
    return owner
