"""Per-frame processing: radar preprocessing, association, cluster feature
extraction and rasterization, then box decoding.

The radar feature heatmap is the fusion-side product of a frame (the input
contract for downstream regression heads); the decoded boxes come from the
preliminary-detection records planted at the decoder's grid cells. Frames are
independent; a scene set runs them in order on the calling thread, and its
results are ordered by frame id whatever the input order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .decoder import (
    DetectionBox3D,
    build_maps_from_detections,
    decode_detections,
    topk_peaks,
)
from .errors import DimensionMismatch, check_number
from .features import (
    FeatureHeatmap,
    FeatureVector,
    HandcraftedConfig,
    _handcrafted_rows,
    rasterize_heatmap,
)
from .kpconv import KPNetworkConfig, _learned_rows
from .radar import (
    DEFAULT_MAX_RANGE,
    DEFAULT_MAX_SWEEPS,
    DEFAULT_MIN_RANGE,
    DEFAULT_PILLAR_DIMS,
    Cluster,
    canonical_members,
    cluster_sweeps,
)
from .scene_io import SceneFrame

FEATURE_STRATEGIES = ("handcrafted", "learned", "hybrid")


@dataclass
class PipelineConfig:
    feature_strategy: str = "handcrafted"
    handcrafted: HandcraftedConfig = field(default_factory=HandcraftedConfig)
    pillar_dims: tuple[float, float, float] = DEFAULT_PILLAR_DIMS
    expansion: float = 1.0
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    min_range: float = DEFAULT_MIN_RANGE
    max_range: float = DEFAULT_MAX_RANGE
    downsample: int = 4
    top_k: int = 100
    score_threshold: float = 0.0
    num_classes: int | None = None

    def __post_init__(self) -> None:
        if self.feature_strategy not in FEATURE_STRATEGIES:
            raise ValueError(
                f"unknown feature strategy {self.feature_strategy!r}, "
                f"expected one of {FEATURE_STRATEGIES}"
            )
        for name in ("max_sweeps", "downsample", "top_k"):
            check_number(name, getattr(self, name), integer=True, low=1)
        check_number("num_classes", self.num_classes, integer=True, optional=True, low=1)
        check_number("min_range", self.min_range, low=0.0)
        check_number("max_range", self.max_range, low=0.0)
        check_number("expansion", self.expansion, low=1.0)
        check_number("score_threshold", self.score_threshold, low=0.0, high=1.0)
        if self.min_range > self.max_range:
            raise ValueError(
                f"min_range must not exceed max_range, got {self.min_range} > {self.max_range}"
            )
        dims = self.pillar_dims
        if not (np.ndim(dims) == 1 and len(dims) == 3):
            raise ValueError(f"pillar_dims must be three numbers, got {dims!r}")
        for i, d in enumerate(dims):
            check_number(f"pillar_dims[{i}]", d, low=0.0)


@dataclass(eq=False)
class FrameResult:
    frame_id: int
    detections: list[DetectionBox3D]
    radar_heatmap: FeatureHeatmap
    clusters: list[Cluster]


def feature_length(cfg: PipelineConfig, net: KPNetworkConfig | None) -> int:
    if cfg.feature_strategy == "handcrafted":
        return cfg.handcrafted.length
    if net is None:
        raise ValueError(f"{cfg.feature_strategy} extraction needs a network config")
    if cfg.feature_strategy == "learned":
        return net.output_dim
    return cfg.handcrafted.length + net.output_dim


def feature_rows(
    clusters: Sequence[Cluster], cfg: PipelineConfig, net: KPNetworkConfig | None
) -> np.ndarray:
    """The frame's cluster features, shape (n_clusters, ``feature_length``).

    The strategy picks the columns: handcrafted first, then learned (one
    ``handcrafted_rows``/``learned_rows`` pass each, both over one
    ``canonical_members`` table). Empty clusters are zero rows.
    """
    rows = np.zeros((len(clusters), feature_length(cfg, net)))
    members = canonical_members(clusters)
    if cfg.feature_strategy != "learned":
        rows[:, : cfg.handcrafted.length] = _handcrafted_rows(*members, cfg.handcrafted)
    if cfg.feature_strategy != "handcrafted":
        rows[:, -net.output_dim :] = _learned_rows(*members, net)
    return rows


def process_frame(
    frame: SceneFrame, cfg: PipelineConfig, net: KPNetworkConfig | None = None
) -> FrameResult:
    """Run one frame through the full chain: accumulate, filter, associate,
    extract, rasterize, decode."""
    clusters = cluster_sweeps(
        frame.radar_sweeps, frame.detections, frame.camera, cfg.max_sweeps,
        cfg.min_range, cfg.max_range, cfg.pillar_dims, cfg.expansion,
    )
    features = [FeatureVector(row) for row in feature_rows(clusters, cfg, net)]
    radar_heatmap = rasterize_heatmap(
        list(zip(clusters, features)), frame.camera.image_size, cfg.downsample
    )
    num_classes = cfg.num_classes
    if num_classes is None:
        num_classes = max((d.class_id + 1 for d in frame.detections), default=1)
    scores, maps = build_maps_from_detections(
        frame.detections, frame.camera.image_size, num_classes, cfg.downsample
    )
    candidates = topk_peaks(scores, cfg.top_k)
    detections = decode_detections(candidates, maps, frame.camera, cfg.score_threshold)
    return FrameResult(
        frame_id=frame.frame_id,
        detections=detections,
        radar_heatmap=radar_heatmap,
        clusters=clusters,
    )


def run_scenes(
    frames: Sequence[SceneFrame],
    cfg: PipelineConfig,
    net: KPNetworkConfig | None = None,
) -> list[FrameResult]:
    """Process frames in input order on the calling thread and order the
    results by frame id.

    Every frame's image sides are checked against the feature stride before
    any frame is processed. The numpy calls of a frame are many and short, so
    threads would only contend for the GIL, and BLAS already uses every core."""
    for frame in frames:
        width, height = frame.camera.image_size
        if width % cfg.downsample or height % cfg.downsample:
            raise DimensionMismatch(
                f"frame {frame.frame_id}: camera image_size {width}x{height} must be a "
                f"multiple of the feature stride {cfg.downsample}"
            )
    results = [process_frame(frame, cfg, net) for frame in frames]
    return sorted(results, key=lambda r: r.frame_id)
